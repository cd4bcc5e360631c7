"""Incentive compatibility verdicts and punishment-probability regions.

A policy is incentive compatible at b when no internal-estimate class j
gains by declaring some other class k: delta[j][k] = E[T_jk] - E[T_jj] >= 0
for every pair (weakly, with a small tolerance).

Regions are exact.  The real roots of polynomial numerators
(numerators.roots), each pair's for IC regions and (target - E[T]) times
a positive product for social benefit, cut [0, 1] with b = 0 and b = 1
into cells where none changes sign.  Each cell is decided at its midpoint,
by the numerators' signs where they are certain and by the exact rule
elsewhere (ic_check's, or E[T] <= target); passing neighbours merge, and
each endpoint is snapped inward to the nearest b where the exact rule
passes.  A pair threshold is its numerator's sign changes.  MeasuredTrust
and BlindTrust are alike, and a whole CubeFamily is solved at once, each
config as alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Policy, SystemConfig
from .numerators import Numerators, benefit, certified_empty, roots, sign
from .soap import CubeFamily, estimate_means, overall_curve, response_cube

DEFAULT_TOL = 1e-9      # slack on delta >= 0, in time units
DEFAULT_GRID = 1e-3     # b step ic_region accepts; validated, changes no result
DEFAULT_TOL_B = 1e-6    # b tolerance ic_region accepts; validated, changes no result


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
    """Disjoint sorted closed subintervals of [0, 1], exact.

    grid_step and tol_b record ic_region's inputs, and are the defaults
    elsewhere; they shape no interval.  perfbench/workloads.py reads tol_b.
    """

    intervals: tuple[BInterval, ...]
    grid_step: float = DEFAULT_GRID
    tol_b: float = DEFAULT_TOL_B

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


def _check_tol(tol: float) -> None:
    """Raise ValueError unless the slack tol is finite and >= 0 (NaN is not)."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol:g}")


def ic_indicator(config: SystemConfig, kind: Policy, bs, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Boolean array over bs: True where every defined delta >= -tol."""
    _check_tol(tol)
    return _feasible(delta_grid(config, kind, bs), tol)


def ic_check(config: SystemConfig, kind: Policy, b: float, tol: float = DEFAULT_TOL) -> ICReport:
    """Exact incentive check at one punishment probability."""
    _check_tol(tol)
    d = delta_grid(config, kind, np.array([b]))[:, :, 0]
    return ICReport(kind=kind, b=float(b), tol=tol, deltas=d, violations=_violations(d, tol))


def _violations(d: np.ndarray, tol: float) -> tuple[tuple[int, int, float], ...]:
    """(j, k, delta) of every defined off-diagonal delta below -tol, most negative first."""
    n = len(d)
    found = [(j, k, float(d[j, k])) for j in range(n) for k in range(n)
             if j != k and d[j, k] < -tol]      # NaN (undefined) compares False
    return tuple(sorted(found, key=lambda v: v[2]))


def pair_threshold(config: SystemConfig, kind: Policy, j: int, k: int) -> list[float]:
    """Roots of b -> delta[j][k](b) in [0, 1].

    They are the sign changes of the pair's numerator (numerators.roots),
    and b = 0 or b = 1 where delta is exactly 0 there.  A root no certain
    sign separates from such a zero end is that zero's rounding, not a root.
    """
    for name, index in (("j", j), ("k", k)):
        if not 0 <= index < config.n:
            raise ValueError(f"{name} = {index} out of range for n={config.n}")
    if config.matrix.estimate_marginal[j] <= 0:
        raise UndefinedColumnError(f"estimate class {j} has zero probability")
    if j == k:
        raise ValueError("honest declaration has no threshold")
    num = Numerators(CubeFamily([config], kind), tol=0.0)
    coef = num.coef[(num.js == j) & (num.ks == k)]
    ends = [end for end, d in zip((0.0, 1.0), delta_grid(config, kind, [0.0, 1.0])[j, k])
            if d == 0.0]
    inner = [float(b) for b in roots(coef, np.zeros(1, dtype=int), 1)[0]
             if all(sign(coef, np.array([0.5 * (b + end)]))[0] != 0 for end in ends)]
    return sorted(ends + inner)


def _check_step(grid_step: float) -> None:
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"b step must be in (0, 1], got {grid_step:g}")


def _ic_regions(family: CubeFamily, tol: float = DEFAULT_TOL) -> list[BIntervalSet]:
    """ic_region of every config of the family."""
    num = Numerators(family, tol)

    def passes(rows, bs):       # ic_check's rule, from one cube
        return _feasible(_deltas(family.entries[rows], family.cube(rows, bs[:, None])), tol)[:, 0]

    return [BIntervalSet(ivs) for ivs in _regions(num.coef, num.owner, len(family), passes)]


def _regions(coef: np.ndarray, owner: np.ndarray, count: int,
             passes) -> list[tuple[BInterval, ...]]:
    """The intervals of [0, 1] where passes holds, for each of count configs.

    Series coef[r], scaled as numerators scales it, belongs to config owner[r].
    passes(rows, bs) is the exact verdict for config rows[r] at bs[r]; up to
    rounding, it holds where every series of the config is >= 0.  The roots,
    with b = 0 and b = 1, cut [0, 1] into cells, each decided at its midpoint
    by the certain signs or else by passes; runs of passing cells merge, and
    each end is snapped inward until passes holds there.  A config that
    numerators.certified_empty marks would fail on its signs in every cell:
    its series are dropped before roots and it gets no cell.
    """
    gone = certified_empty(coef, owner, count)
    live = ~gone[owner]
    coef, owner = coef[live], owner[live]
    cuts = roots(coef, owner, count)      # sorted, NaN last
    cuts = np.sort(np.column_stack((np.zeros(count), cuts, np.ones(count))), axis=1)
    mids = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
    rows, cell = np.nonzero(~np.isnan(mids) & ~gone[:, None])
    b = mids[rows, cell]
    worst = np.ones(mids.shape)      # each cell's worst certain sign over its config's series
    np.minimum.at(worst, owner, sign(coef, mids[owner]))
    ok, unsure = worst[rows, cell] > 0, worst[rows, cell] == 0
    ok[unsure] = passes(rows[unsure], b[unsure])
    # runs of passing cells: [cuts[first], cuts[last + 1]], snapped toward mids[first], mids[last]
    feasible = np.zeros((count, mids.shape[1] + 2), dtype=bool)
    feasible[rows, cell + 1] = ok
    run, first = np.nonzero(feasible[:, 1:-1] & ~feasible[:, :-2])
    _, last = np.nonzero(feasible[:, 1:-1] & ~feasible[:, 2:])
    ends = np.concatenate((cuts[run, first], cuts[run, last + 1]))
    toward = np.concatenate((mids[run, first], mids[run, last]))
    at = _snap(passes, np.tile(run, 2), ends, toward)
    intervals = [[] for _ in range(count)]
    for c, lo, hi in zip(run.tolist(), at[:len(run)].tolist(), at[len(run):].tolist()):
        intervals[c].append(BInterval(lo, hi))
    return [tuple(ivs) for ivs in intervals]


def _snap(passes, rows: np.ndarray, ends: np.ndarray, toward: np.ndarray) -> np.ndarray:
    """Each end moved toward its cell's midpoint, which passes, until passes holds.

    End r tries 1, 2, 4, ... ulps inward, never past toward[r]: one call a round.
    """
    at = ends.copy()
    step = np.spacing(np.maximum(np.abs(ends), np.abs(toward)))
    todo = np.arange(len(at))
    while todo.size:
        todo = todo[(at[todo] != toward[todo]) & ~passes(rows[todo], at[todo])]
        gap = toward[todo] - ends[todo]
        at[todo] = np.where(np.abs(gap) > step[todo], ends[todo] + np.copysign(step[todo], gap),
                            toward[todo])
        step[todo] *= 2.0
    return at


def ic_region(config: SystemConfig, kind: Policy,
              grid_step: float = DEFAULT_GRID, tol_b: float = DEFAULT_TOL_B,
              tol: float = DEFAULT_TOL) -> BIntervalSet:
    """All punishment probabilities where the policy is incentive compatible.

    grid_step and tol_b are validated and recorded in the result; they shape no interval.
    """
    _check_step(grid_step)      # perfbench/workloads.py passes grid_step=
    if not (np.isfinite(tol_b) and tol_b > 0.0):
        raise ValueError(f"b tolerance must be finite and positive, got {tol_b:g}")
    _check_tol(tol)
    (region,) = _ic_regions(CubeFamily([config], kind), tol)
    return BIntervalSet(region.intervals, grid_step, tol_b)


def social_benefit_region(config: SystemConfig, kind: Policy, baseline: Policy) -> BIntervalSet:
    """Punishment probabilities where the trust policy's E[T] is at most a blind baseline's.

    E[T] <= target holds exactly at every endpoint.
    """
    if baseline.uses_estimates:
        raise ValueError(f"baseline must be a blind policy, got {baseline}")
    target = float(overall_curve(config, baseline, [0.0])[0])
    family = CubeFamily([config], kind)

    def passes(rows, bs):       # E[T] <= target, E[T] summed as overall_curve sums it
        return target - family.overall(rows, bs[:, None])[:, 0] >= 0.0

    (intervals,) = _regions(benefit(family, target), np.zeros(1, dtype=int), 1, passes)
    return BIntervalSet(intervals)
