"""Closed-form mean response times for rank-based M/G/1 scheduling.

The trust policies are analyzed through their relevant-size moments: for
each rank level ell, the first two moments of the service a generic honest
job receives while its rank is <= ell.  Mean response times then follow
from the age-based-priority queueing formula

    E[U] = lam * E[S^2_{<=w}] / (2 (1 - rho_{<w}) (1 - rho_{<=w}))
           + z_i / (1 - rho_{<w})

where w is the job's final (worst) rank.  A punished job has w = n+1, an
honest or overestimating job has w = k (its declared class), and an
unpunished underestimator climbs to w = i under MeasuredTrust or stays at
w = k under BlindTrust.

The service each (true size i, estimate j) cell receives at ranks <= ell
comes from one (ell, i, j) case table built by broadcasting.  Moment tables
are linear in the punishment probability b, m[ell](b) = a[ell] + b d[ell],
so the cube formula evaluates a whole vector of b values in one pass with
no Python loops.  It is written over a leading config axis: a CubeFamily
stacks the coefficients of many configs of one size n, built once, and
evaluates each config at its own b values in one cube; response_cube is
the family of one.  Each element is computed with the same operations in
the same order as a scalar evaluation of its config at its b, so any cube
agrees bit for bit with single-config, single-b cubes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Policy, SystemConfig, check_punishment

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


def _case_table(z: np.ndarray, kind: Policy) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic service at ranks <= ell, spared and punished, as (v0, v1).

    z holds the sizes on its last axis, (..., n); both arrays have shape
    (..., n, n, n), indexed [..., ell - 1, true size i, estimate j] for
    ranks ell = 1..n.  An honest job sits in class j until age z_j and
    receives nothing at ranks below j + 1.  If its size exceeds z_j it is
    either punished to rank n+1 (service z_j by then) or, when spared,
    climbs class by class (MeasuredTrust, z_min(i, ell-1)) or keeps class j
    (BlindTrust, z_i).  A job that fits (i <= j) receives z_i.
    """
    n = z.shape[-1]
    ell = np.arange(1, n + 1)[:, None, None]
    i = np.arange(n)[None, :, None]
    j = np.arange(n)[None, None, :]
    reached = j + 1 <= ell
    spared = z[..., np.minimum(i, ell - 1)] if kind == Policy.MEASURED_TRUST else z[..., i]
    v0 = np.where(reached, spared, 0.0)
    v1 = np.where(reached, z[..., np.minimum(i, j)], 0.0)
    return v0, v1


def _rank_sums(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum over (i, j) of M * v[..., ell, :, :], for every rank ell: shape (..., n).

    M has shape (..., n, n) and v (..., n, n, n); each sum runs over one
    contiguous row of n^2 products, so a batch sums as each member alone.
    """
    return (M[..., None, :, :] * v).reshape(v.shape[:-2] + (-1,)).sum(axis=-1)


def relevant_size_moments(config: SystemConfig, kind: Policy, b: float) -> MomentTable:
    """Relevant-size moment table for the given trust policy and punishment b."""
    _require_trust(kind)
    n = config.n
    M = config.matrix.entries
    z = config.sizes
    v0, v1 = _case_table(z, kind)
    m1 = np.zeros(n + 2)
    m2 = np.zeros(n + 2)
    m1[1:n + 1] = _rank_sums(M, b * v1 + (1.0 - b) * v0)
    m2[1:n + 1] = _rank_sums(M, b * v1**2 + (1.0 - b) * v0**2)
    zi = np.broadcast_to(z[:, None], (n, n))
    m1[n + 1] = float((M * zi).sum())
    m2[n + 1] = float((M * zi**2).sum())
    return MomentTable(kind=kind, b=float(b), m1=m1, m2=m2, rho=config.lam * m1)


def _moment_coeffs(z: np.ndarray, M: np.ndarray, kind: Policy):
    """Arrays (a1, d1, a2, d2) with m1[ell](b) = a1[ell] + b d1[ell], ditto m2.

    z (C, n) and M (C, n, n) hold the sizes and joint matrices of C configs;
    each array has shape (C, n+2), built for all configs in one broadcast.
    """
    C, n = z.shape
    v0, v1 = _case_table(z, kind)
    a1, d1, a2, d2 = (np.zeros((C, n + 2)) for _ in range(4))
    a1[:, 1:n + 1] = _rank_sums(M, v0)
    d1[:, 1:n + 1] = _rank_sums(M, v1 - v0)
    a2[:, 1:n + 1] = _rank_sums(M, v0**2)
    d2[:, 1:n + 1] = _rank_sums(M, v1**2 - v0**2)
    zi = z[:, :, None]
    a1[:, n + 1] = (M * zi).reshape(C, -1).sum(axis=1)
    a2[:, n + 1] = (M * zi**2).reshape(C, -1).sum(axis=1)
    return a1, d1, a2, d2


def _cube(kind: Policy, lam, z, a1, d1, a2, d2, bs):
    """The cube formula for C configs of one size n, as (U, punished, spared, overrun).

    lam has shape (C,), z (C, n), the moment coefficients (C, n+2) and bs
    (C, B): config c is evaluated at its own b values bs[c].  The (C, B)
    axes trail, so each array operation runs over all of them at once.  U
    has shape (n, n, C, B); punished and spared, an overrun's response with
    and without punishment, broadcast against it; overrun is the i > k mask.
    """
    n = z.shape[1]
    lam = lam[:, None]
    m2 = a2.T[:, :, None] + d2.T[:, :, None] * bs
    rho = lam * (a1.T[:, :, None] + d1.T[:, :, None] * bs)
    rho_total = rho[n + 1]
    # queue[k]: queueing delay shared by every job whose final rank is k + 1
    queue = lam * m2[1:n + 1] / (2.0 * (1.0 - rho[:n]) * (1.0 - rho[1:n + 1]))
    queue_punished = lam * m2[n + 1] / (2.0 * (1.0 - rho[n]) * (1.0 - rho_total))
    # honest[i, k]: a size-z_i job that finishes at rank k + 1
    z = z.T[:, None, :, None]
    honest = queue[None] + z / (1.0 - rho[None, :n])
    punished = (queue_punished + z[:, 0] / (1.0 - rho[n]))[:, None]
    idx = np.arange(n)
    # a spared MeasuredTrust overrun climbs to its own rank i + 1
    spared = honest[idx, idx][:, None] if kind == Policy.MEASURED_TRUST else honest
    overrun = (idx[:, None] > idx[None, :])[:, :, None, None]
    U = np.where(overrun, bs * punished + (1.0 - bs) * spared, honest)
    return U, punished, spared, overrun


def response_cube(config: SystemConfig, kind: Policy, bs: np.ndarray):
    """(U, U_punished, U_unpunished) arrays of shape (n, n, len(bs)).

    The conditional planes hold NaN where i <= k (no overrun is possible,
    so the punishment coin never matters).
    """
    _require_trust(kind)
    bs = np.atleast_1d(np.asarray(bs, dtype=float))
    coeffs = _moment_coeffs(config.sizes[None], config.matrix.entries[None], kind)
    U, punished, spared, overrun = _cube(kind, np.array([config.lam], dtype=float),
                                         config.sizes[None], *coeffs, bs[None])
    Upun = np.where(overrun, punished, np.nan)
    Uunp = np.where(overrun, spared, np.nan)
    return U[:, :, 0], Upun[:, :, 0], Uunp[:, :, 0]


class CubeFamily:
    """The cube formula's inputs for configs of one size n, stacked on a leading axis.

    The moment coefficients of each config are built once, here, so a
    lockstep search over the whole family costs one cube per step.
    """

    def __init__(self, configs, kind: Policy):
        _require_trust(kind)
        self.configs = tuple(configs)
        self.kind = kind
        if len({config.n for config in self.configs}) != 1:
            raise ValueError("a cube family needs at least one config, all of one size n")
        self.lam = np.array([config.lam for config in self.configs], dtype=float)
        self.sizes = np.array([config.sizes for config in self.configs])
        self.entries = np.array([config.matrix.entries for config in self.configs])
        self.coeffs = _moment_coeffs(self.sizes, self.entries, kind)

    def __len__(self) -> int:
        return len(self.configs)

    def cube(self, rows, bs: np.ndarray) -> np.ndarray:
        """response_cube's U of configs rows, row r at its own b values bs[r]: (R, n, n, B)."""
        if not len(rows):
            return np.empty((0,) + self.entries.shape[1:] + bs.shape[1:])
        U, _, _, _ = _cube(self.kind, self.lam[rows], self.sizes[rows],
                           *(a[rows] for a in self.coeffs), bs)
        return U.transpose(2, 0, 1, 3).copy()

    def overall(self, rows, bs: np.ndarray) -> np.ndarray:
        """overall_curve of configs rows, row r at its own b values bs[r]: shape (R, B)."""
        return np.einsum("rij,rijb->rb", self.entries[rows], self.cube(rows, bs))


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
    U3, Upun3, Uunp3 = response_cube(config, kind, np.array([b]))
    U, Upun, Uunp = U3[:, :, 0], Upun3[:, :, 0], Uunp3[:, :, 0]
    M = config.matrix.entries
    R = config.matrix.estimate_marginal
    n = config.n
    T = np.full((n, n), np.nan)
    undefined = []
    for j in range(n):
        if R[j] > 0:
            T[j, :] = M[:, j] @ U / R[j]
        else:
            undefined.append(j)
    overall = float((M * U).sum())  # sum_j R_j T_jj with honest declarations k = j
    return ResponseTable(
        kind=kind, b=float(b), U=U, u_punished=Upun, u_unpunished=Uunp,
        T=T, overall=overall, undefined_estimates=tuple(undefined),
    )


def overall_curve(config: SystemConfig, kind: Policy, bs) -> np.ndarray:
    """Honest-equilibrium overall mean response over a b-grid."""
    U, _, _ = response_cube(config, kind, bs)
    return np.einsum("ij,ijb->b", config.matrix.entries, U)


def rank_function(grid, kind: Policy, k: int, punished: bool, age: float) -> int:
    """Current rank (1..n+1) of a job declaring index k at the given age."""
    _require_trust(kind)
    z = grid.sizes
    n = len(z)
    if not 0 <= k < n:
        raise ValueError(f"declared index {k} out of range for n={n}")
    if age < z[k]:
        return k + 1
    if punished:
        return n + 1
    if kind == Policy.BLIND_TRUST:
        return k + 1
    return int(np.searchsorted(z, age, side="right")) + 1


def fcfs_mean_response(config: SystemConfig) -> float:
    """First-come first-served mean response (single-queue identity)."""
    rho = config.load
    return config.mean_size + config.lam * config.mean_size_sq / (2.0 * (1.0 - rho))


def scf_mean_response(config: SystemConfig) -> tuple[float, np.ndarray]:
    """Smallest Class First: overall and per-true-size mean responses.

    SCF serves the job whose smallest still-possible size is least, i.e.
    blind rank = min {ell : age < z_ell}.  A size-z_i job then has final
    rank i and the relevant size at rank ell is min(S, z_ell).
    """
    z = config.sizes
    lam = config.lam
    S = config.matrix.size_marginal
    n = config.n
    capped1 = np.array([0.0] + [float(S @ np.minimum(z, z[i])) for i in range(n)])
    capped2 = np.array([0.0] + [float(S @ np.minimum(z, z[i]) ** 2) for i in range(n)])
    rho = lam * capped1
    per_size = np.empty(n)
    for i in range(n):
        per_size[i] = (
            lam * capped2[i + 1] / (2.0 * (1.0 - rho[i]) * (1.0 - rho[i + 1]))
            + z[i] / (1.0 - rho[i])
        )
    return float(S @ per_size), per_size
