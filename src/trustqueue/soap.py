"""Closed-form mean response times for rank-based M/G/1 scheduling.

Every policy here is a monotone rank path, defined once in ranks: a job's
rank only rises as it ages.  ranks.rank_path_table gives, for each (true
size i, declared class k, punishment coin), the service the job receives
at ranks <= ell and its final (worst) rank w; the simulator reads the same
table.  The relevant-size moments of rank level ell are the first two
moments of that service for a generic honest job, and mean response times
follow from the age-based-priority (SOAP) formula

    E[U] = lam * E[S^2_{<=w}] / (2 (1 - rho_{<w}) (1 - rho_{<=w}))
           + z_i / (1 - rho_{<w})

evaluated at w.  A punished job has w = n+1, an honest or overestimating
job has w = k (its declared class), and an unpunished underestimator
climbs to w = i under MeasuredTrust or stays at w = k under BlindTrust.

Moment tables are linear in the punishment probability b, m[ell](b) =
a[ell] + b d[ell], so the cube formula evaluates a whole vector of b
values in one pass with no Python loops.  It is written over a leading
config axis: a CubeFamily stacks the coefficients of many configs of one
size n, built once, and evaluates each config at its own b values in one
cube; response_cube is the family of one.  Each element is computed with
the same operations in the same order as a scalar evaluation of its
config at its b, so any cube agrees bit for bit with single-config,
single-b cubes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .model import Policy, PolicySpec, SystemConfig, check_punishment
from .ranks import initial_rank, rank_boundaries, rank_path_table

TRUST_POLICIES = (Policy.MEASURED_TRUST, Policy.BLIND_TRUST)


def _require_trust(kind: Policy) -> None:
    if kind not in TRUST_POLICIES:
        raise ValueError(f"rank-based analysis applies to trust policies, not {kind}")


@dataclass(frozen=True)
class MomentTable:
    """Relevant-size moments indexed by rank ell = 0..n+1.

    m1[ell] = E[S_{<=ell}], m2[ell] = E[S^2_{<=ell}], rho[ell] = lam * m1[ell].
    Index 0 is the empty rank class (identically zero), index n+1 the full
    service distribution.  rho_{<ell} is read as rho[ell - 1].
    """

    kind: Policy
    b: float
    m1: np.ndarray
    m2: np.ndarray
    rho: np.ndarray

    @property
    def n(self) -> int:
        return len(self.m1) - 2


def _rank_sums(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum over (i, k) of M * v[..., ell, :, :], for every rank ell: shape (..., n+2).

    M has shape (..., n, n) and v (..., n+2, n, n), broadcast; each sum runs
    over one contiguous row of n^2 products, so a batch sums as each member alone.
    """
    terms = M[..., None, :, :] * v
    return terms.reshape(terms.shape[:-2] + (-1,)).sum(axis=-1)


def _level_response(lam, m2, rho, size, w):
    """Mean response of a job of the given size whose final rank is w (the formula above)."""
    return lam * m2[w] / (2.0 * (1.0 - rho[w - 1]) * (1.0 - rho[w])) + size / (1.0 - rho[w - 1])


class CubeFamily:
    """The cube formula's inputs for configs of one size n, stacked on a leading axis.

    The moment coefficients of each config are built once, here, so a
    lockstep search over the whole family costs one cube per step.  coeffs
    holds (a1, d1, a2, d2), each (C, n+2), with m1[ell](b) = a1[ell] + b
    d1[ell] and m2 likewise; final[i, k, coin] is the final rank, which
    strictly increasing sizes make the same for every config, and moved
    indexes the cells (i, k) whose final rank the punishment coin changes.
    """

    def __init__(self, configs, kind: Policy):
        configs = tuple(configs)
        if len({config.n for config in configs}) != 1:
            raise ValueError("a cube family needs at least one config, all of one size n")
        self._build(kind, np.array([config.lam for config in configs], dtype=float),
                    np.array([config.sizes for config in configs]),
                    np.array([config.matrix.entries for config in configs]))

    @classmethod
    def from_arrays(cls, kind: Policy, lam: float, sizes, entries: np.ndarray) -> CubeFamily:
        """The family of configs (lam, sizes, entries[c]), whose values are taken as valid."""
        family = cls.__new__(cls)
        family._build(kind, np.full(len(entries), float(lam)), np.asarray(sizes)[None], entries)
        return family

    def _build(self, kind: Policy, lam: np.ndarray, sizes: np.ndarray, entries: np.ndarray):
        """sizes holds each config's grid, or one grid that every config shares."""
        _require_trust(kind)
        self.kind = kind
        self.lam, self.sizes, self.entries = lam, np.broadcast_to(sizes, entries.shape[:2]), entries
        policy = PolicySpec(kind)
        tables = [rank_path_table(policy, z) for z in sizes]
        self.final = tables[0][1]
        assert all((final == self.final).all() for _, final in tables)
        self.moved = np.nonzero(self.final[:, :, 0] != self.final[:, :, 1])
        # the spared and punished planes, each C-contiguous in (ell, i, k)
        xle = np.array([xle for xle, _ in tables])
        v0, v1 = np.ascontiguousarray(xle.transpose(3, 0, 4, 1, 2))
        self.coeffs = tuple(_rank_sums(entries, v) for v in (v0, v1 - v0, v0**2, v1**2 - v0**2))

    def __len__(self) -> int:
        return len(self.lam)

    def _cube(self, rows, bs: np.ndarray):
        """The cube formula for configs rows, row r at its own b values bs[r].

        Returns (U, punished, spared): U, of shape (n, n, R, B), is the mean
        response of each (true size i, declared k), and punished and spared,
        of shape (len(moved[0]), R, B), are the responses of the moved cells
        with the coin up and down.  The (R, B) axes trail, so each array
        operation runs over all of them at once.
        """
        a1, d1, a2, d2 = (a[rows].T[:, :, None] for a in self.coeffs)
        lam = self.lam[rows][:, None]
        m2 = a2 + d2 * bs
        rho = lam * (a1 + d1 * bs)
        n = self.sizes.shape[1]
        # u[i, w - 1]: a size-z_i job whose final rank is w, for w = 1..n+1
        u = _level_response(lam, m2, rho, self.sizes[rows].T[:, None, :, None],
                            np.arange(1, n + 2))
        U = u[np.arange(n)[:, None], self.final[:, :, 0] - 1]
        # only a cell the coin moves is blended; every other keeps its value exactly
        i, k = self.moved
        punished, spared = u[i, self.final[i, k, 1] - 1], U[i, k]
        U[i, k] = bs * punished + (1.0 - bs) * spared
        return U, punished, spared

    def cube(self, rows, bs: np.ndarray) -> np.ndarray:
        """response_cube's U of configs rows, row r at its own b values bs[r]: (R, n, n, B)."""
        if not len(rows):
            return np.empty((0,) + self.entries.shape[1:] + bs.shape[1:])
        U, _, _ = self._cube(rows, bs)
        return U.transpose(2, 0, 1, 3).copy()

    def overall(self, rows, bs: np.ndarray) -> np.ndarray:
        """overall_curve of configs rows, row r at its own b values bs[r]: shape (R, B)."""
        return np.einsum("rij,rijb->rb", self.entries[rows], self.cube(rows, bs))


def estimate_means(M: np.ndarray, U: np.ndarray) -> np.ndarray:
    """T[..., j, k, t], the mean response of an estimate-j job declaring k.

    M holds joint matrices (..., n, n) and U response planes (..., n, n, B).
    The sum over true sizes runs in a fixed order, so each element rounds
    as it would alone; rows whose estimate has zero probability are NaN.
    """
    T = M[..., 0, :, None, None] * U[..., 0, None, :, :]
    for i in range(1, M.shape[-1]):
        T = T + M[..., i, :, None, None] * U[..., i, None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        return T / M.sum(axis=-2)[..., None, None]


def relevant_size_moments(config: SystemConfig, kind: Policy, b: float) -> MomentTable:
    """Relevant-size moment table for the given trust policy and punishment b."""
    a1, d1, a2, d2 = (a[0] for a in CubeFamily([config], kind).coeffs)
    m1 = a1 + b * d1
    return MomentTable(kind=kind, b=float(b), m1=m1, m2=a2 + b * d2, rho=config.lam * m1)


def response_cube(config: SystemConfig, kind: Policy, bs: np.ndarray):
    """(U, U_punished, U_unpunished) arrays of shape (n, n, len(bs)).

    The conditional planes hold NaN where i <= k (no overrun is possible,
    so the punishment coin never matters).
    """
    bs = np.atleast_1d(np.asarray(bs, dtype=float))
    family = CubeFamily([config], kind)
    U, punished, spared = family._cube([0], bs[None])
    Upun, Uunp = np.full((2,) + U.shape, np.nan)
    Upun[family.moved], Uunp[family.moved] = punished, spared
    return U[:, :, 0], Upun[:, :, 0], Uunp[:, :, 0]


@dataclass(frozen=True)
class UCell:
    unconditional: float
    punished: float | None
    unpunished: float | None


def mean_response_u(config: SystemConfig, kind: Policy, b: float, i: int, k: int) -> UCell:
    """Mean response for a true-size-z_i job declaring z_k (0-based i, k)."""
    check_punishment(b)
    U, Upun, Uunp = response_cube(config, kind, np.array([b]))
    if i <= k:
        return UCell(float(U[i, k, 0]), None, None)
    return UCell(float(U[i, k, 0]), float(Upun[i, k, 0]), float(Uunp[i, k, 0]))


@dataclass(frozen=True)
class ResponseTable:
    """All mean response times for one (policy, b) pair.

    U[i, k]: true size index i, declared index k.  T[j, k]: internal
    estimate j, declared k; rows with zero estimate-marginal are NaN and
    listed in undefined_estimates.  overall is the honest-equilibrium mean.
    """

    kind: Policy
    b: float
    U: np.ndarray
    u_punished: np.ndarray
    u_unpunished: np.ndarray
    T: np.ndarray
    overall: float
    undefined_estimates: tuple[int, ...]


def response_table(config: SystemConfig, kind: Policy, b: float) -> ResponseTable:
    check_punishment(b)
    U, Upun, Uunp = response_cube(config, kind, np.array([b]))
    M = config.matrix.entries
    return ResponseTable(
        kind=kind, b=float(b), U=U[:, :, 0], u_punished=Upun[:, :, 0], u_unpunished=Uunp[:, :, 0],
        T=estimate_means(M, U)[:, :, 0], overall=float(overall_curve(config, kind, [b])[0]),
        undefined_estimates=tuple(np.flatnonzero(M.sum(axis=0) == 0).tolist()),
    )


def overall_curve(config: SystemConfig, kind: Policy, bs) -> np.ndarray:
    """Honest-equilibrium overall mean response over a b-grid."""
    U, _, _ = response_cube(config, kind, bs)
    return np.einsum("ij,ijb->b", config.matrix.entries, U)


def rank_function(grid, kind: Policy, k: int, punished: bool, age: float) -> int:
    """Current rank (1..n+1) of a job declaring index k at the given age, from its rank path."""
    _require_trust(kind)
    n = len(grid.sizes)
    if not 0 <= k < n:
        raise ValueError(f"declared index {k} out of range for n={n}")
    policy = PolicySpec(kind)
    crossings = rank_boundaries(policy, grid.sizes, k, punished)
    ranks = [initial_rank(policy, k)] + [rank for _, rank in crossings]
    return ranks[bisect_right([at for at, _ in crossings], age)]


def fcfs_mean_response(config: SystemConfig) -> float:
    """First-come first-served mean response (single-queue identity)."""
    rho = config.load
    return config.mean_size + config.lam * config.mean_size_sq / (2.0 * (1.0 - rho))


def scf_mean_response(config: SystemConfig) -> tuple[float, np.ndarray]:
    """Smallest Class First: overall and per-true-size mean responses.

    SCF serves the job whose smallest still-possible size is least, i.e.
    blind rank = min {ell : age < z_ell}.  Its rank path gives a size-z_i
    job final rank i + 1 and service min(z_i, z_ell) at ranks <= ell.
    """
    xle, final = rank_path_table(PolicySpec(Policy.SCF), config.sizes)
    S = config.matrix.size_marginal
    rows = xle[:, 0, 0].T.copy()     # (ell, i): one contiguous row per rank level
    m1 = np.vecdot(rows, S)
    m2 = np.vecdot(rows**2, S)
    per_size = _level_response(config.lam, m2, config.lam * m1, config.sizes, final[:, 0, 0])
    return float(S @ per_size), per_size
