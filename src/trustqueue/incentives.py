"""Incentive compatibility verdicts and punishment-probability regions.

A policy is incentive compatible at b when no internal-estimate class j
gains by declaring some other class k: delta[j][k] = E[T_jk] - E[T_jj] >= 0
for every pair (weakly, with a small tolerance).  For MeasuredTrust each
pairwise difference is monotone in b (single crossing), so its feasible set
is one-sided and the region is a single interval: every pair is evaluated
at b = 0 and b = 1 in one response cube, and the pairs whose sign changes
are bisected together, one cube per step over all their midpoints.  For
BlindTrust the region is scanned on a dense grid and its endpoints are
refined by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Policy, SystemConfig, check_punishment
from .soap import fcfs_mean_response, overall_curve, response_cube, scf_mean_response

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


def delta_grid(config: SystemConfig, kind: Policy, bs) -> np.ndarray:
    """deltas[j, k, t] over a b-grid; rows with zero estimate marginal are NaN."""
    bs = np.atleast_1d(np.asarray(bs, dtype=float))
    U, _, _ = response_cube(config, kind, bs)
    M = config.matrix.entries
    R = config.matrix.estimate_marginal
    n = config.n
    out = np.full((n, n, len(bs)), np.nan)
    for j in range(n):
        if R[j] <= 0:
            continue
        Tj = np.tensordot(M[:, j], U, axes=(0, 0)) / R[j]   # (k, B)
        out[j] = Tj - Tj[j][None, :]
    return out


def ic_indicator(config: SystemConfig, kind: Policy, bs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Boolean array over bs: True where every defined delta >= -tol."""
    d = delta_grid(config, kind, bs)
    with np.errstate(invalid="ignore"):
        bad = d < -tol
    return ~np.nan_to_num(bad, nan=False).any(axis=(0, 1))


def ic_check(config: SystemConfig, kind: Policy, b: float, tol: float = DEFAULT_TOL) -> ICReport:
    """Exact incentive check at one punishment probability."""
    check_punishment(b)
    d = delta_grid(config, kind, np.array([b]))[:, :, 0]
    violations = []
    n = config.n
    for j in range(n):
        for k in range(n):
            if j == k or np.isnan(d[j, k]):
                continue
            if d[j, k] < -tol:
                violations.append((j, k, float(d[j, k])))
    return ICReport(kind=kind, b=float(b), tol=tol, deltas=d,
                    violations=tuple(sorted(violations, key=lambda v: v[2])))


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


def _bisect_scalar(f, lo: float, hi: float, f_lo: float, tol_b: float) -> float:
    """_bisect for one root of a scalar function f(b)."""
    return float(_bisect(lambda bs, _: [f(bs[0])], lo, hi, f_lo, tol_b)[0])


def _pair_delta_fn(config: SystemConfig, kind: Policy, j: int, k: int):
    M = config.matrix.entries
    R = config.matrix.estimate_marginal
    col = M[:, j] / R[j]

    def delta(b: float) -> float:
        U, _, _ = response_cube(config, kind, np.array([b]))
        Uk = U[:, k, 0]
        Uj = U[:, j, 0]
        return float(col @ (Uk - Uj))

    return delta


def pair_threshold(config: SystemConfig, kind: Policy, j: int, k: int,
                   tol_b: float = DEFAULT_TOL_B, grid_step: float = DEFAULT_GRID) -> list[float]:
    """Roots of b -> delta[j][k](b) in [0, 1].

    MeasuredTrust exploits the single-crossing structure: compare the signs
    at b = 0 and b = 1 and bisect if they differ.  BlindTrust scans a grid
    and bisects every bracketing cell; root pairs closer than grid_step can
    be missed or merged.
    """
    R = config.matrix.estimate_marginal
    if R[j] <= 0:
        raise UndefinedColumnError(f"estimate class {j} has zero probability")
    if j == k:
        raise ValueError("honest declaration has no threshold")
    delta = _pair_delta_fn(config, kind, j, k)
    if kind == Policy.MEASURED_TRUST:
        d0, d1 = delta(0.0), delta(1.0)
        if d0 == 0.0:
            return [0.0]
        if (d0 < 0) == (d1 < 0):
            return []
        return [_bisect_scalar(delta, 0.0, 1.0, d0, tol_b)]
    bs = _scan_grid(grid_step)
    vals = np.array([delta(float(b)) for b in bs])
    roots = []
    for t in range(len(bs) - 1):
        if vals[t] == 0.0:
            roots.append(float(bs[t]))
        elif (vals[t] < 0) != (vals[t + 1] < 0):
            roots.append(_bisect_scalar(delta, float(bs[t]), float(bs[t + 1]), vals[t], tol_b))
    if vals[-1] == 0.0:
        roots.append(1.0)
    return roots


def _pairs(config: SystemConfig):
    R = config.matrix.estimate_marginal
    n = config.n
    return [(j, k) for j in range(n) for k in range(n) if j != k and R[j] > 0]


def _mt_region(config: SystemConfig, tol: float, tol_b: float) -> tuple[float, float] | None:
    """Intersection of the one-sided feasible sets of all pairs, or None.

    Every pair is evaluated at b = 0 and b = 1 in one response cube; the
    pairs whose sign changes are then bisected together, one cube per step
    over all their midpoints.
    """
    pairs = _pairs(config)
    if not pairs:
        return 0.0, 1.0
    js, ks = np.array(pairs).T
    M = config.matrix.entries
    R = config.matrix.estimate_marginal
    cols = (M[:, js] / R[js]).T         # cols[p]: weights of pair p over true sizes

    def f(bs, p):
        """delta[j][k] + tol of pairs p, each at its own b."""
        U, _, _ = response_cube(config, Policy.MEASURED_TRUST, bs)
        Ub = U.transpose(2, 1, 0)       # [b, declared, true size]
        t = np.arange(len(bs))
        return np.vecdot(cols[p], Ub[t, ks[p]] - Ub[t, js[p]]) + tol

    P = len(pairs)
    f0, f1 = f(np.repeat([0.0, 1.0], P), np.tile(np.arange(P), 2)).reshape(2, P)
    if np.any((f0 < 0) & (f1 < 0)):
        return None
    cross = np.flatnonzero(~((f0 >= 0) & (f1 >= 0)))
    roots = _bisect(lambda bs, todo: f(bs, cross[todo]),
                    np.zeros(len(cross)), np.ones(len(cross)), f0[cross], tol_b)
    right = f0[cross] < 0   # feasible to the right, [root, 1]; else to the left, [0, root]
    lo = float(np.max(roots[right], initial=0.0))
    hi = float(np.min(roots[~right], initial=1.0))
    if lo > hi:
        return None
    return lo, hi


def _check_step(grid_step: float) -> None:
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"b step must be in (0, 1], got {grid_step:g}")


def _scan_grid(grid_step: float) -> np.ndarray:
    """The b-grid 0, grid_step, 2 grid_step, ..., 1 that region scans walk."""
    _check_step(grid_step)
    bs = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    bs[-1] = 1.0
    return bs


def _scan_region(indicator_fn, boundary_fn, grid_step: float, tol_b: float) -> list[BInterval]:
    """Maximal true-runs of indicator_fn on a grid, endpoints refined by bisection."""
    bs = _scan_grid(grid_step)
    ok = indicator_fn(bs)
    intervals = []
    t = 0
    while t < len(bs):
        if not ok[t]:
            t += 1
            continue
        t0 = t
        while t + 1 < len(bs) and ok[t + 1]:
            t += 1
        lo = float(bs[t0])
        hi = float(bs[t])
        if t0 > 0:
            g_lo = boundary_fn(float(bs[t0 - 1]))
            if g_lo < 0:
                lo = _bisect_scalar(boundary_fn, float(bs[t0 - 1]), lo, g_lo, tol_b)
        if t < len(bs) - 1:
            g_hi = boundary_fn(float(bs[t + 1]))
            if g_hi < 0:
                hi = _bisect_scalar(boundary_fn, hi, float(bs[t + 1]), boundary_fn(hi), tol_b)
        intervals.append(BInterval(lo, hi))
        t += 1
    return intervals


def ic_region(config: SystemConfig, kind: Policy,
              grid_step: float = DEFAULT_GRID, tol_b: float = DEFAULT_TOL_B,
              tol: float = DEFAULT_TOL) -> BIntervalSet:
    """All punishment probabilities where the policy is incentive compatible."""
    _check_step(grid_step)
    if kind == Policy.MEASURED_TRUST:
        span = _mt_region(config, tol, tol_b)
        intervals = () if span is None else (BInterval(*span),)
        result = BIntervalSet(intervals=intervals, grid_step=grid_step, tol_b=tol_b)
        if not result.is_empty:
            mid = 0.5 * (result.intervals[0].lo + result.intervals[0].hi)
            if not ic_check(config, kind, mid, tol).verdict:
                raise RuntimeError("single-interval construction produced an infeasible interior")
        return result

    def boundary(b: float) -> float:
        d = delta_grid(config, kind, np.array([b]))[:, :, 0]
        return float(np.nanmin(d + tol)) if not np.isnan(d).all() else tol

    intervals = _scan_region(
        lambda bs: ic_indicator(config, kind, bs, tol), boundary, grid_step, tol_b
    )
    return BIntervalSet(intervals=tuple(intervals), grid_step=grid_step, tol_b=tol_b)


def social_benefit_region(config: SystemConfig, kind: Policy, baseline: Policy,
                          grid_step: float = DEFAULT_GRID,
                          tol_b: float = DEFAULT_TOL_B) -> BIntervalSet:
    """Punishment probabilities where the trust policy beats a blind baseline."""
    if baseline == Policy.FCFS:
        target = fcfs_mean_response(config)
    elif baseline == Policy.SCF:
        target, _ = scf_mean_response(config)
    else:
        raise ValueError(f"baseline must be a blind policy, got {baseline}")

    def gain(bs):
        return target - overall_curve(config, kind, np.atleast_1d(bs))

    intervals = _scan_region(
        lambda bs: gain(bs) >= 0.0, lambda b: float(gain(b)[0]), grid_step, tol_b
    )
    return BIntervalSet(intervals=tuple(intervals), grid_step=grid_step, tol_b=tol_b)
