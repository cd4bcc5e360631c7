"""Reference configurations and the (error rate, punishment) sweep harness.

Three presets ship built in so every analysis runs without external data:

* ``three-class``: sizes {1, 2, 3} with a correlated size/estimate matrix
  and lambda = 0.5 (load 0.8725).
* ``four-class``: geometric sizes 0.4/0.8/1.6/3.2 with probabilities
  1/2, 1/4, 1/8, 1/8 and lambda = 0.8; estimates follow the uniform-error
  family parameterized by an error rate x.
* ``two-class-rare``: sizes {1, 1.1} with probabilities {0.99, 0.01},
  perfect estimates, lambda = 0.8 — a near-deterministic workload where
  BlindTrust needs punishment probabilities close to 1.

The best-b curve solves all its error rates together, per policy, over a
CubeFamily built from the error matrices of every rate at once: the exact
regions of the whole family come from its pairs' numerator roots, and
E[T]'s stationary points from one node cube and its numerator's roots.
The candidates of every (error rate, interval) pair, its endpoints and the
stationary points inside it, are evaluated in one more cube.  Each pair's
result is that of the pair alone, so the curve equals one built error
rate by error rate.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .incentives import DEFAULT_TOL_B, _ic_regions, _check_tol_b, ic_indicator
from .incentives import ic_region  # noqa: F401  (perfbench's tracer rebinds experiments.ic_region)
from .model import (Policy, SizeGrid, SizeEstimateMatrix, SystemConfig,
                    diagonal_matrix, uniform_error_entries, uniform_error_matrix)
from .numerators import stationary_points
from .soap import CubeFamily, fcfs_mean_response, overall_curve, scf_mean_response

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST


def three_class_example() -> SystemConfig:
    """3-class correlated-estimate workload at load 0.8725."""
    grid = SizeGrid([1.0, 2.0, 3.0])
    matrix = SizeEstimateMatrix([
        [0.425, 0.03, 0.01],
        [0.05, 0.255, 0.02],
        [0.025, 0.015, 0.17],
    ])
    return SystemConfig(lam=0.5, grid=grid, matrix=matrix)


def four_class_family() -> tuple[np.ndarray, SizeGrid, float]:
    """Size distribution, grid and arrival rate of the uniform-error family."""
    return np.array([0.5, 0.25, 0.125, 0.125]), SizeGrid([0.4, 0.8, 1.6, 3.2]), 0.8


def four_class_example(error_rate: float = 0.1) -> SystemConfig:
    probs, grid, lam = four_class_family()
    return SystemConfig(lam=lam, grid=grid,
                        matrix=uniform_error_matrix(probs, grid, error_rate))


def rare_long_job_example() -> SystemConfig:
    """Two sizes, 1% chance of the longer one, perfect estimates."""
    grid = SizeGrid([1.0, 1.1])
    return SystemConfig(lam=0.8, grid=grid,
                        matrix=diagonal_matrix([0.99, 0.01], grid))


PRESETS = {
    "three-class": three_class_example,
    "four-class": four_class_example,
    "two-class-rare": rare_long_job_example,
}


@dataclass(frozen=True)
class SweepRow:
    x: float
    b: float
    ic_mt: bool
    ic_bt: bool
    et_mt: float
    et_bt: float


@dataclass(frozen=True)
class CurveRow:
    x: float
    best_b_mt: float | None
    et_mt: float | None
    best_b_bt: float | None
    et_bt: float | None
    et_fcfs: float
    et_scf: float


def _grid(step: float, upper: float = 1.0) -> np.ndarray:
    if not 0.0 < step <= 1.0:
        raise ValueError(f"grid step must be in (0, 1], got {step:g}")
    if not 0.0 <= upper <= 1.0:
        raise ValueError(f"x max must be in [0, 1], got {upper:g}")
    count = int(round(upper / step))
    return np.round(np.linspace(0.0, upper, count + 1), 12)


def _sweep_column(args):
    size_probs, sizes, lam, x, bs = args
    grid = SizeGrid(sizes)
    config = SystemConfig(lam=lam, grid=grid,
                          matrix=uniform_error_matrix(size_probs, grid, x))
    ok_mt = ic_indicator(config, MT, bs)
    ok_bt = ic_indicator(config, BT, bs)
    et_mt = overall_curve(config, MT, bs)
    et_bt = overall_curve(config, BT, bs)
    return ok_mt, ok_bt, et_mt, et_bt


def sweep_region(size_probs, grid: SizeGrid, lam: float,
                 x_step: float = 0.005, b_step: float = 0.001,
                 x_max: float = 1.0, workers: int = 1) -> list[SweepRow]:
    """Incentive-compatibility indicators and mean responses on an (x, b) grid."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    xs = _grid(x_step, x_max)
    bs = _grid(b_step)
    tasks = [(np.asarray(size_probs, float), np.asarray(grid.sizes), lam, float(x), bs)
             for x in xs]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            columns = list(pool.map(_sweep_column, tasks))
    else:
        columns = [_sweep_column(t) for t in tasks]
    rows = []
    for x, (ok_mt, ok_bt, et_mt, et_bt) in zip(xs, columns):
        for t, b in enumerate(bs):
            rows.append(SweepRow(float(x), float(b), bool(ok_mt[t]), bool(ok_bt[t]),
                                 float(et_mt[t]), float(et_bt[t])))
    return rows


def _best_bs(family: CubeFamily, b_step: float,
             tol_b: float) -> list[tuple[float, float] | None]:
    """(best b, E[T]) of each config of the family, or None where its region is empty.

    E[T] is smooth on [0, 1], so its minimum over an interval lies at an
    endpoint or at a stationary point inside it.  The regions of every
    config come from one region search over the family, the stationary
    points from numerators.stationary_points, and the candidates of every
    interval, sorted, are evaluated in one cube that also gives the
    reported E[T], equal to overall_curve's.  Ties go to the smallest b.
    """
    regions = _ic_regions(family, grid_step=b_step, tol_b=tol_b)
    owner = np.array([c for c, region in enumerate(regions) for _ in region.intervals], dtype=int)
    best = [None] * len(family)
    if not owner.size:
        return best
    lo, hi = np.array([(iv.lo, iv.hi) for region in regions for iv in region.intervals]).T
    roots = stationary_points(family, owner)
    inside = (roots > lo[:, None]) & (roots < hi[:, None])     # NaN is never inside
    bs = np.sort(np.column_stack((lo, np.where(inside, roots, hi[:, None]), hi)), axis=1)
    # one b per cube row: each value is summed as overall_curve sums a single b
    et = family.overall(np.repeat(owner, bs.shape[1]), bs.reshape(-1, 1)).reshape(bs.shape)
    t = np.argmin(et, axis=1)       # the first of equal values: ties go to the smallest b
    rows = np.arange(len(owner))
    for c, b, e in zip(owner.tolist(), bs[rows, t].tolist(), et[rows, t].tolist()):
        if best[c] is None or e < best[c][1]:     # a config's intervals come in increasing b
            best[c] = (b, e)
    return best


def _best_b(config: SystemConfig, kind: Policy, b_step: float,
            tol_b: float) -> tuple[float, float] | None:
    return _best_bs(CubeFamily([config], kind), b_step, tol_b)[0]


def optimal_b_curve(size_probs, grid: SizeGrid, lam: float,
                    x_step: float = 0.005, b_step: float = 0.001,
                    x_max: float = 1.0, tol_b: float = DEFAULT_TOL_B) -> list[CurveRow]:
    """Per error rate: the IC-region punishment minimizing overall E[T].

    Every error rate's search runs in lockstep with the others, for each
    trust policy, over a family built from the error matrices of every x
    at once; one config, at x = 0, is validated.  Blind baseline columns
    are x-independent since neither FCFS nor SCF reads estimates.
    """
    _check_tol_b(tol_b)
    probs = np.asarray(size_probs, float)
    base_cfg = SystemConfig(lam=lam, grid=grid, matrix=diagonal_matrix(probs, grid))
    et_fcfs = fcfs_mean_response(base_cfg)
    et_scf, _ = scf_mean_response(base_cfg)
    xs = _grid(x_step, x_max)
    entries = uniform_error_entries(probs, grid, xs)
    best = {kind: _best_bs(CubeFamily.from_arrays(kind, lam, grid.sizes, entries), b_step, tol_b)
            for kind in (MT, BT)}
    return [CurveRow(
        x=float(x),
        best_b_mt=None if best_mt is None else best_mt[0],
        et_mt=None if best_mt is None else best_mt[1],
        best_b_bt=None if best_bt is None else best_bt[0],
        et_bt=None if best_bt is None else best_bt[1],
        et_fcfs=et_fcfs,
        et_scf=et_scf,
    ) for x, best_mt, best_bt in zip(xs, best[MT], best[BT])]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return f"{value:.6g}"


SWEEP_HEADER = "x,b,ic_mt,ic_bt,et_mt,et_bt"
CURVE_HEADER = "x,best_b_mt,et_mt,best_b_bt,et_bt,et_fcfs,et_scf"


def write_sweep_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for r in rows:
            fh.write(",".join([_fmt(r.x), _fmt(r.b), _fmt(r.ic_mt), _fmt(r.ic_bt),
                               _fmt(r.et_mt), _fmt(r.et_bt)]) + "\n")


def write_curve_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("# best_b ties are broken toward the smallest b\n")
        fh.write(CURVE_HEADER + "\n")
        for r in rows:
            fh.write(",".join([_fmt(r.x), _fmt(r.best_b_mt), _fmt(r.et_mt),
                               _fmt(r.best_b_bt), _fmt(r.et_bt),
                               _fmt(r.et_fcfs), _fmt(r.et_scf)]) + "\n")
