"""Monotone rank paths: the one definition of each policy's priority over a job's age.

Every policy here gives a job a rank that only rises as the job ages: a
trust policy starts a job at its declared class, MeasuredTrust moves a
spared overrun up class by class, and a punished overrun jumps to rank
n+1.  initial_rank and rank_boundaries define the path, and
rank_path_table tabulates it for every (true size, declared class,
punishment coin).  The closed forms in soap and the sample paths in sim
both read that table.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import Policy


def initial_rank(kind: Policy, k: int) -> int:
    """Rank at age zero: the declared class for trust policies, else 1."""
    return k + 1 if kind.uses_estimates else 1


def rank_boundaries(kind: Policy, sizes, k: int, punished: bool) -> list[tuple[float, int]]:
    """Ages at which a job's rank changes, with the rank after each crossing.

    Crossings at ages >= z_n can only fire for the punishment jump of a
    job declaring class n, which never happens to a live job (it would
    complete first); the entry is kept for uniformity.
    """
    z = np.asarray(sizes, dtype=float)
    n = len(z)
    if kind == Policy.FCFS:
        return []
    if kind == Policy.SCF:
        return [(float(z[m]), m + 2) for m in range(n - 1)]
    if punished:
        return [(float(z[k]), n + 1)]
    if kind == Policy.BLIND_TRUST:
        return []
    return [(float(z[m]), m + 2) for m in range(k, n - 1)]


def rank_path_table(kind: Policy, sizes) -> tuple[np.ndarray, np.ndarray]:
    """Service at ranks <= ell and final rank of every (true size, declared, coin).

    Returns (xle, final): xle[i, k, coin, ell] is the service a size-z_i
    job declaring class k receives at ranks <= ell, for ell = 0..n+1 (column
    0 is the empty rank class), and final[i, k, coin] is its rank at
    completion.  Both come from initial_rank and rank_boundaries.  A
    crossing at an age equal to the size does not fire: completion wins
    the tie.  The table depends only on the policy kind and the sizes; it
    is built once for each and shared, so both arrays are read-only.
    """
    return _table(kind, tuple(np.asarray(sizes, dtype=float).tolist()))


@lru_cache(maxsize=256)
def _table(kind: Policy, sizes: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    z = np.array(sizes)
    n = len(z)
    xle = np.zeros((n, n, 2, n + 2))
    final = np.zeros((n, n, 2), dtype=np.intp)
    for k in range(n):
        for coin in (0, 1):
            bl = rank_boundaries(kind, z, k, bool(coin))
            starts = [0.0] + [age for age, _ in bl]
            ends = starts[1:] + [np.inf]
            ranks = [initial_rank(kind, k)] + [rank for _, rank in bl]
            for i in range(n):
                # ranks only rise with age, so the segments at ranks <= ell
                # are a prefix and xle is the end of the last one
                for start, end, rank in zip(starts, ends, ranks):
                    if start < z[i]:
                        xle[i, k, coin, rank:] = min(end, z[i])
                        final[i, k, coin] = rank
    xle.flags.writeable = False
    final.flags.writeable = False
    return xle, final
