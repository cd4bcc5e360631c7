"""Incentive compatibility verdicts and punishment-probability regions.

A policy is incentive compatible at b when no internal-estimate class j
gains by declaring some other class k: delta[j][k] = E[T_jk] - E[T_jj] >= 0
for every pair (weakly, with a small tolerance).  For MeasuredTrust each
pairwise difference is monotone in b (single crossing), so its feasible set
is one-sided and the region is a single interval.  For BlindTrust the
region is scanned on a dense grid and its endpoints are refined by
bisection.

Regions are found for a whole CubeFamily of configs at once, and
ic_region is the family of one.  MeasuredTrust takes every pair's value at
b = 0 and b = 1 from one cube, then bisects all crossing pairs together;
BlindTrust scans each config's grid, then bisects every endpoint of every
config together.  Each root takes the same steps it would take alone.

Those searches only ever ask for a sign.  numerators.Numerators reads
most signs from each pair's polynomial numerator, where they are certain;
the rest are computed as before, so the regions are the same, bit for bit,
as those of searches that evaluate every sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Policy, SystemConfig, check_punishment
from .numerators import Numerators, guided, pair_deltas
from .soap import (CubeFamily, fcfs_mean_response, overall_curve, response_cube,
                   scf_mean_response)

DEFAULT_TOL = 1e-9      # slack on delta >= 0, in time units
DEFAULT_GRID = 1e-3     # b-grid step for scans
DEFAULT_TOL_B = 1e-6    # bisection tolerance on b


class UndefinedColumnError(ValueError):
    """Raised for estimate classes with zero marginal probability."""


@dataclass(frozen=True)
class ICReport:
    kind: Policy
    b: float
    tol: float
    deltas: np.ndarray                    # deltas[j, k] = E[T_jk] - E[T_jj]; NaN when undefined
    violations: tuple[tuple[int, int, float], ...]

    @property
    def verdict(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class BInterval:
    lo: float
    hi: float

    def contains(self, b: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= b <= self.hi + slack


@dataclass(frozen=True)
class BIntervalSet:
    """Disjoint sorted closed subintervals of [0, 1] plus their resolution."""

    intervals: tuple[BInterval, ...]
    grid_step: float
    tol_b: float

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, b: float, slack: float = 0.0) -> bool:
        return any(iv.contains(b, slack) for iv in self.intervals)

    @property
    def span(self) -> BInterval | None:
        if not self.intervals:
            return None
        return BInterval(self.intervals[0].lo, self.intervals[-1].hi)


def _deltas(config: SystemConfig, U: np.ndarray) -> np.ndarray:
    """deltas[j, k, t] from config's U plane (n, n, B); rows with zero estimate marginal are NaN."""
    M = config.matrix.entries
    R = config.matrix.estimate_marginal
    # T[j, k, t], summed over i in a fixed order, so each column rounds as it would alone
    with np.errstate(divide="ignore", invalid="ignore"):
        T = (M[:, :, None, None] * U[:, None]).sum(axis=0) / R[:, None, None]
    honest = np.arange(config.n)
    out = T - T[honest, honest][:, None]
    out[R <= 0] = np.nan
    return out


def delta_grid(config: SystemConfig, kind: Policy, bs) -> np.ndarray:
    """deltas[j, k, t] over a b-grid; rows with zero estimate marginal are NaN."""
    bs = np.atleast_1d(np.asarray(bs, dtype=float))
    U, _, _ = response_cube(config, kind, bs)
    return _deltas(config, U)


def _feasible(d: np.ndarray, tol: float) -> np.ndarray:
    """Boolean array over the last axis of deltas d: True where every defined delta >= -tol."""
    with np.errstate(invalid="ignore"):
        bad = d < -tol
    return ~np.nan_to_num(bad, nan=False).any(axis=(0, 1))


def ic_indicator(config: SystemConfig, kind: Policy, bs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Boolean array over bs: True where every defined delta >= -tol."""
    return _feasible(delta_grid(config, kind, bs), tol)


def ic_check(config: SystemConfig, kind: Policy, b: float, tol: float = DEFAULT_TOL) -> ICReport:
    """Exact incentive check at one punishment probability."""
    check_punishment(b)
    d = delta_grid(config, kind, np.array([b]))[:, :, 0]
    return ICReport(kind=kind, b=float(b), tol=tol, deltas=d, violations=_violations(d, tol))


def _violations(d: np.ndarray, tol: float) -> tuple[tuple[int, int, float], ...]:
    """(j, k, delta) of every defined off-diagonal delta below -tol, most negative first."""
    n = len(d)
    found = [(j, k, float(d[j, k])) for j in range(n) for k in range(n)
             if j != k and d[j, k] < -tol]      # NaN (undefined) compares False
    return tuple(sorted(found, key=lambda v: v[2]))


def _bisect(f, lo, hi, f_lo, tol_b: float) -> np.ndarray:
    """Roots of f in the brackets [lo, hi] given a sign change, all bisected together.

    lo, hi and f_lo (f at lo) hold one entry per root.  f(bs, todo) returns
    f at bs for the roots indexed by todo.  Each root takes the scalar steps
    on its own: it stops once hi - lo <= tol_b and returns the midpoint, and
    an exact zero returns that midpoint at once.
    """
    lo, hi = np.array(lo, dtype=float, ndmin=1), np.array(hi, dtype=float, ndmin=1)
    neg_lo = np.array(f_lo, ndmin=1) < 0
    for _ in range(200):
        todo = np.flatnonzero(hi - lo > tol_b)
        if not todo.size:
            break
        mid = 0.5 * (lo[todo] + hi[todo])
        f_mid = np.asarray(f(mid, todo), dtype=float)
        zero = f_mid == 0.0
        right = ~zero & ((f_mid < 0) == neg_lo[todo])    # the root lies right of mid
        lo[todo[right | zero]] = mid[right | zero]      # an exact zero collapses
        hi[todo[~right]] = mid[~right]                  # its bracket onto mid
    return 0.5 * (lo + hi)


def pair_threshold(config: SystemConfig, kind: Policy, j: int, k: int,
                   tol_b: float = DEFAULT_TOL_B, grid_step: float = DEFAULT_GRID) -> list[float]:
    """Roots of b -> delta[j][k](b) in [0, 1].

    MeasuredTrust exploits the single-crossing structure: compare the signs
    at b = 0 and b = 1 and bisect if they differ.  BlindTrust evaluates a
    grid in one cube and bisects every bracketing cell together; root pairs
    closer than grid_step can be missed or merged.
    """
    _check_tol_b(tol_b)
    R = config.matrix.estimate_marginal
    if R[j] <= 0:
        raise UndefinedColumnError(f"estimate class {j} has zero probability")
    if j == k:
        raise ValueError("honest declaration has no threshold")
    bs = np.array([0.0, 1.0]) if kind == Policy.MEASURED_TRUST else _scan_grid(grid_step)
    pair = np.zeros(len(bs), dtype=int)
    delta, _ = pair_deltas(CubeFamily([config], kind), pair, pair + j, pair + k)
    vals = delta(bs, np.arange(len(bs)))
    zero = vals[:-1] == 0.0
    cells = np.flatnonzero(~zero & ((vals[:-1] < 0) != (vals[1:] < 0)))
    roots = bs[:-1].copy()
    roots[cells] = _bisect(lambda mid, todo: delta(mid, cells[todo]),
                           bs[cells], bs[cells + 1], vals[cells], tol_b)
    if kind == Policy.MEASURED_TRUST:
        return [float(roots[0])] if zero[0] or cells.size else []
    found = zero.copy()
    found[cells] = True
    return [float(b) for b in roots[found]] + ([1.0] if vals[-1] == 0.0 else [])


def _mt_regions(family: CubeFamily, tol: float, tol_b: float) -> list[tuple[float, float] | None]:
    """Per config, the intersection of the one-sided feasible sets of all pairs, or None.

    Every pair's sign at b = 0 and b = 1 comes from the node cube of its
    numerator; the pairs whose sign changes are then bisected together,
    each midpoint's sign read from the numerator where it is certain and
    the rest evaluated in one cube per step.
    """
    num = Numerators(family, tol)
    owner, f0, f1 = num.owner, num.f0, num.f1
    dead = np.zeros(len(family), dtype=bool)    # some pair is infeasible on all of [0, 1]
    dead[owner[(f0 < 0) & (f1 < 0)]] = True
    cross = np.flatnonzero(~((f0 >= 0) & (f1 >= 0)) & ~dead[owner])
    f = guided(lambda bs, todo: num.sign(bs, cross[todo]),
               lambda bs, todo: num.delta(bs, cross[todo]) + tol)
    roots = _bisect(f, np.zeros(len(cross)), np.ones(len(cross)), f0[cross], tol_b)
    right = f0[cross] < 0   # feasible to the right, [root, 1]; else to the left, [0, root]
    lo = np.zeros(len(family))
    hi = np.ones(len(family))
    np.maximum.at(lo, owner[cross[right]], roots[right])
    np.minimum.at(hi, owner[cross[~right]], roots[~right])
    return [None if dead[c] or lo[c] > hi[c] else (float(lo[c]), float(hi[c]))
            for c in range(len(family))]


def _check_step(grid_step: float) -> None:
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"b step must be in (0, 1], got {grid_step:g}")


def _check_tol_b(tol_b: float) -> None:
    """Reject a bisection tolerance that is not finite and positive."""
    if not (np.isfinite(tol_b) and tol_b > 0.0):
        raise ValueError(f"b tolerance must be finite and positive, got {tol_b:g}")


def _scan_grid(grid_step: float) -> np.ndarray:
    """The b-grid 0, grid_step, 2 grid_step, ..., 1 that region scans walk."""
    _check_step(grid_step)
    bs = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    bs[-1] = 1.0
    return bs


def _scan_region(oks, boundary, bs: np.ndarray, tol_b: float) -> list[list[BInterval]]:
    """Maximal true-runs of each member's indicator oks[c] on the grid bs.

    boundary(b, members) gives each member's boundary function at its own b.
    A run's endpoint is refined by bisection where the boundary function is
    negative at the grid point beyond it; the endpoints of every member are
    bisected together.
    """
    runs = []
    for c, ok in enumerate(oks):
        edges = np.flatnonzero(np.diff(np.concatenate(([0], np.asarray(ok, np.int8), [0]))))
        runs += [(c, t0, t1 - 1) for t0, t1 in zip(edges[::2], edges[1::2])]
    owner, start, stop = np.array(runs, dtype=int).reshape(-1, 3).T
    lo, hi = bs[start], bs[stop]
    left = np.flatnonzero(start > 0)
    right = np.flatnonzero(stop < len(bs) - 1)
    g = boundary(np.concatenate((bs[start[left] - 1], bs[stop[right] + 1])),
                 np.concatenate((owner[left], owner[right])))
    g_lo, g_hi = g[:len(left)], g[len(left):]
    left, g_lo = left[g_lo < 0], g_lo[g_lo < 0]
    right = right[g_hi < 0]
    members = owner[np.concatenate((left, right))]
    ends_at = _bisect(lambda b, todo: boundary(b, members[todo]),
                      np.concatenate((bs[start[left] - 1], hi[right])),
                      np.concatenate((lo[left], bs[stop[right] + 1])),
                      np.concatenate((g_lo, boundary(hi[right], owner[right]))), tol_b)
    lo[left], hi[right] = ends_at[:len(left)], ends_at[len(left):]
    intervals = [[] for _ in oks]
    for c, a, b in zip(owner, lo, hi):
        intervals[c].append(BInterval(float(a), float(b)))
    return intervals


def _ic_regions(family: CubeFamily, grid_step: float = DEFAULT_GRID,
                tol_b: float = DEFAULT_TOL_B, tol: float = DEFAULT_TOL) -> list[BIntervalSet]:
    """ic_region of every config of the family, all solved in lockstep."""
    _check_step(grid_step)
    _check_tol_b(tol_b)
    configs = family.configs
    if family.kind == Policy.MEASURED_TRUST:
        spans = _mt_regions(family, tol, tol_b)
        live = np.array([c for c, span in enumerate(spans) if span is not None], dtype=int)
        mids = np.array([0.5 * (spans[c][0] + spans[c][1]) for c in live])
        U = family.cube(live, mids[:, None])
        for r, c in enumerate(live):
            if _violations(_deltas(configs[c], U[r])[:, :, 0], tol):
                raise RuntimeError("single-interval construction produced an infeasible interior")
        intervals = [() if span is None else (BInterval(*span),) for span in spans]
    else:
        bs = _scan_grid(grid_step)
        num = Numerators(family, tol)
        oks, unsure = num.scan(bs)
        # a config the numerators leave open scans its grid in one cube of its own
        for c in np.flatnonzero(unsure):
            oks[c] = _feasible(_deltas(configs[c], family.cube([c], bs[None])[0]), tol)

        def boundary(b, members):
            U = family.cube(members, b[:, None])
            out = np.empty(len(members))
            # deltas root by root, each with its own config's weights
            for r, c in enumerate(members):
                d = _deltas(configs[c], U[r])[:, :, 0]
                out[r] = np.nanmin(d + tol) if not np.isnan(d).all() else tol
            return out

        boundary = guided(num.boundary_sign, boundary)
        intervals = _scan_region(oks, boundary, bs, tol_b)
    return [BIntervalSet(intervals=tuple(ivs), grid_step=grid_step, tol_b=tol_b)
            for ivs in intervals]


def ic_region(config: SystemConfig, kind: Policy,
              grid_step: float = DEFAULT_GRID, tol_b: float = DEFAULT_TOL_B,
              tol: float = DEFAULT_TOL) -> BIntervalSet:
    """All punishment probabilities where the policy is incentive compatible."""
    return _ic_regions(CubeFamily([config], kind), grid_step, tol_b, tol)[0]


def social_benefit_region(config: SystemConfig, kind: Policy, baseline: Policy,
                          grid_step: float = DEFAULT_GRID,
                          tol_b: float = DEFAULT_TOL_B) -> BIntervalSet:
    """Punishment probabilities where the trust policy beats a blind baseline."""
    _check_tol_b(tol_b)
    if baseline == Policy.FCFS:
        target = fcfs_mean_response(config)
    elif baseline == Policy.SCF:
        target, _ = scf_mean_response(config)
    else:
        raise ValueError(f"baseline must be a blind policy, got {baseline}")
    bs = _scan_grid(grid_step)
    family = CubeFamily([config], kind)
    intervals = _scan_region([target - overall_curve(config, kind, bs) >= 0.0],
                             lambda b, members: target - family.overall(members, b[:, None])[:, 0],
                             bs, tol_b)[0]
    return BIntervalSet(intervals=tuple(intervals), grid_step=grid_step, tol_b=tol_b)
