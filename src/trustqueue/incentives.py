"""Incentive compatibility verdicts and punishment-probability regions.

A policy is incentive compatible at b when no internal-estimate class j
gains by declaring some other class k: delta[j][k] = E[T_jk] - E[T_jj] >= 0
for every pair (weakly, with a small tolerance).

Regions are exact.  The real roots of the pairs' polynomial numerators
(numerators.roots), with b = 0 and b = 1, cut [0, 1] into cells where no
pair changes sign.  Each cell is decided at its midpoint, by the
numerators' signs where they are certain and by ic_check's rule
elsewhere; feasible neighbours merge, and each endpoint is snapped inward
to the nearest b where ic_check passes.  MeasuredTrust and BlindTrust are
alike, and a whole CubeFamily is solved at once, each config as alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Policy, SystemConfig, check_punishment
from .numerators import Numerators, roots
from .soap import (CubeFamily, estimate_means, fcfs_mean_response, overall_curve,
                   response_cube, scf_mean_response)

DEFAULT_TOL = 1e-9      # slack on delta >= 0, in time units
DEFAULT_GRID = 1e-3     # b-grid step for scans
DEFAULT_TOL_B = 1e-6    # bisection tolerance on b, where a search bisects


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


def _deltas(M: np.ndarray, U: np.ndarray) -> np.ndarray:
    """deltas[..., j, k, t] from joint matrices M (..., n, n) and U planes (..., n, n, B).

    Rows with zero estimate marginal are NaN.
    """
    T = estimate_means(M, U)
    honest = np.arange(M.shape[-1])
    return T - T[..., honest, honest, :][..., None, :]


def delta_grid(config: SystemConfig, kind: Policy, bs) -> np.ndarray:
    """deltas[j, k, t] over a b-grid; rows with zero estimate marginal are NaN."""
    bs = np.atleast_1d(np.asarray(bs, dtype=float))
    U, _, _ = response_cube(config, kind, bs)
    return _deltas(config.matrix.entries, U)


def _feasible(d: np.ndarray, tol: float) -> np.ndarray:
    """d's shape without its (j, k) axes: True where every defined delta d[..., j, k, t] >= -tol."""
    return ~(d < -tol).any(axis=(-3, -2))       # NaN (undefined) compares False


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
    family, col = CubeFamily([config], kind), config.matrix.entries[:, j] / R[j]

    def delta(b, todo=None):     # todo: _bisect's root indices, all of this one pair
        U = family.cube(np.zeros(len(b), dtype=int), b[:, None])[:, :, :, 0]
        return np.vecdot(col, U[:, :, k] - U[:, :, j])

    vals = delta(bs)
    zero = vals[:-1] == 0.0
    cells = np.flatnonzero(~zero & ((vals[:-1] < 0) != (vals[1:] < 0)))
    roots = bs[:-1].copy()
    roots[cells] = _bisect(delta, bs[cells], bs[cells + 1], vals[cells], tol_b)
    if kind == Policy.MEASURED_TRUST:
        return [float(roots[0])] if zero[0] or cells.size else []
    found = zero.copy()
    found[cells] = True
    return [float(b) for b in roots[found]] + ([1.0] if vals[-1] == 0.0 else [])


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


def _scan_region(ok, gain, bs: np.ndarray, tol_b: float) -> list[BInterval]:
    """Maximal true-runs of the indicator ok on the grid bs.

    A run's end is refined by bisection where gain, the boundary function,
    is negative at the grid point beyond it; every end is bisected together.
    """
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.asarray(ok, np.int8), [0]))))
    start, stop = edges[::2], edges[1::2] - 1
    lo, hi = bs[start], bs[stop]
    left, right = np.flatnonzero(start > 0), np.flatnonzero(stop < len(bs) - 1)
    g = gain(np.concatenate((bs[start[left] - 1], bs[stop[right] + 1])))
    g_lo, g_hi = g[:len(left)], g[len(left):]
    left, g_lo = left[g_lo < 0], g_lo[g_lo < 0]
    right = right[g_hi < 0]
    ends_at = _bisect(lambda b, todo: gain(b), np.concatenate((bs[start[left] - 1], hi[right])),
                      np.concatenate((lo[left], bs[stop[right] + 1])),
                      np.concatenate((g_lo, gain(hi[right]))), tol_b)
    lo[left], hi[right] = ends_at[:len(left)], ends_at[len(left):]
    return [BInterval(float(a), float(b)) for a, b in zip(lo, hi)]


def _passes(family: CubeFamily, rows: np.ndarray, bs: np.ndarray, tol: float) -> np.ndarray:
    """ic_check's verdict for config rows[r] at bs[r], from one cube."""
    return _feasible(_deltas(family.entries[rows], family.cube(rows, bs[:, None])), tol)[:, 0]


def _ic_regions(family: CubeFamily, grid_step: float = DEFAULT_GRID,
                tol_b: float = DEFAULT_TOL_B, tol: float = DEFAULT_TOL) -> list[BIntervalSet]:
    """ic_region of every config of the family; grid_step and tol_b are only validated."""
    _check_step(grid_step)
    _check_tol_b(tol_b)
    num = Numerators(family, tol)
    C = len(family)
    cuts = roots(num.coef, num.owner, C)      # sorted, NaN last
    cuts = np.sort(np.column_stack((np.zeros(C), cuts, np.ones(C))), axis=1)
    mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    owner, cell = np.nonzero(~np.isnan(mids))
    b = mids[owner, cell]
    sign = np.ones(mids.shape)      # each cell's worst certain sign over its config's pairs
    np.minimum.at(sign, num.owner, num.sign(mids[num.owner]))
    ok, unsure = sign[owner, cell] > 0, sign[owner, cell] == 0
    ok[unsure] = _passes(family, owner[unsure], b[unsure], tol)
    # runs of feasible cells: [cuts[first], cuts[last + 1]], snapped toward mids[first], mids[last]
    feasible = np.zeros((C, mids.shape[1] + 2), dtype=bool)
    feasible[owner, cell + 1] = ok
    run, first = np.nonzero(feasible[:, 1:-1] & ~feasible[:, :-2])
    _, last = np.nonzero(feasible[:, 1:-1] & ~feasible[:, 2:])
    ends = np.concatenate((cuts[run, first], cuts[run, last + 1]))
    toward = np.concatenate((mids[run, first], mids[run, last]))
    at = _snap(family, np.tile(run, 2), ends, toward, tol)
    intervals = [[] for _ in range(C)]
    for c, lo, hi in zip(run.tolist(), at[:len(run)].tolist(), at[len(run):].tolist()):
        intervals[c].append(BInterval(lo, hi))
    return [BIntervalSet(intervals=tuple(ivs), grid_step=grid_step, tol_b=tol_b)
            for ivs in intervals]


def _snap(family: CubeFamily, rows: np.ndarray, ends: np.ndarray, toward: np.ndarray,
          tol: float) -> np.ndarray:
    """Each end moved toward its cell's midpoint, which passes, until ic_check's rule passes.

    End r tries 1, 2, 4, ... ulps inward, never past toward[r]: one cube a round.
    """
    at = ends.copy()
    step = np.spacing(np.maximum(np.abs(ends), np.abs(toward)))
    todo = np.arange(len(at))
    while todo.size:
        todo = todo[(at[todo] != toward[todo]) & ~_passes(family, rows[todo], at[todo], tol)]
        gap = toward[todo] - ends[todo]
        at[todo] = np.where(np.abs(gap) > step[todo], ends[todo] + np.copysign(step[todo], gap),
                            toward[todo])
        step[todo] *= 2.0
    return at


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
    intervals = _scan_region(target - overall_curve(config, kind, bs) >= 0.0,
                             lambda b: target - family.overall(np.zeros(len(b), dtype=int),
                                                               b[:, None])[:, 0],
                             bs, tol_b)
    return BIntervalSet(intervals=tuple(intervals), grid_step=grid_step, tol_b=tol_b)
