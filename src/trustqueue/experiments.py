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

The sweep and the best-b curve both build, per policy, one CubeFamily from
the error matrices of every error rate at once.  The sweep cubes it a
chunk of configs at a time over its whole b grid.  The curve's exact
regions of the whole family come from its pairs' numerator roots, and
E[T]'s stationary points from one node cube and its numerator's roots.
The candidates of every (error rate, interval) pair, its endpoints and the
stationary points inside it, are evaluated in one more cube.  Each pair's
result is that of the pair alone, so the curve equals one built error
rate by error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .incentives import DEFAULT_TOL, _check_step, _deltas, _feasible, _ic_regions
from .incentives import ic_region  # noqa: F401  (perfbench's tracer rebinds experiments.ic_region)
from .model import (Policy, SizeGrid, SizeEstimateMatrix, SystemConfig,
                    diagonal_matrix, uniform_error_entries, uniform_error_matrix)
from .numerators import stationary_points
from .soap import CubeFamily, fcfs_mean_response, scf_mean_response

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST
CHUNK = 16      # configs per sweep cube: a larger family cube faults in fresh pages


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
class Sweep:
    """The (x, b) sweep as columns: x (X,), b (B,), and flags and E[T] of shape (X, B)."""

    x: np.ndarray
    b: np.ndarray
    ic_mt: np.ndarray
    ic_bt: np.ndarray
    et_mt: np.ndarray
    et_bt: np.ndarray

    def __len__(self) -> int:
        return self.ic_mt.size


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
    count = round(upper / step)
    if abs(upper / step - count) > 1e-9 * upper / step:
        raise ValueError(f"grid step {step:g} does not divide [0, {upper:g}] into whole steps")
    return np.round(np.linspace(0.0, upper, count + 1), 12)


def _error_family(size_probs, grid: SizeGrid, lam: float, x_step: float, x_max: float):
    """The config at x = 0, validated, the x grid, and the error matrices of every x."""
    probs = np.asarray(size_probs, float)
    base_cfg = SystemConfig(lam=lam, grid=grid, matrix=diagonal_matrix(probs, grid))
    xs = _grid(x_step, x_max)
    return base_cfg, xs, uniform_error_entries(probs, grid, xs)


def sweep_region(size_probs, grid: SizeGrid, lam: float,
                 x_step: float = 0.005, b_step: float = 0.001, x_max: float = 1.0) -> Sweep:
    """Incentive-compatibility indicators and mean responses on an (x, b) grid.

    Each cell equals ic_indicator's and overall_curve's of its own config.
    """
    _, xs, entries = _error_family(size_probs, grid, lam, x_step, x_max)
    bs = _grid(b_step)
    ok = np.empty((2, len(xs), len(bs)), dtype=bool)
    et = np.empty((2, len(xs), len(bs)))
    for p, kind in enumerate((MT, BT)):
        family = CubeFamily.from_arrays(kind, lam, grid.sizes, entries)
        for start in range(0, len(xs), CHUNK):
            rows = np.arange(start, min(start + CHUNK, len(xs)))
            U = family.cube(rows, np.broadcast_to(bs, (len(rows), len(bs))))
            ok[p, rows] = _feasible(_deltas(entries[rows], U), DEFAULT_TOL)
            et[p, rows] = np.einsum("rij,rijb->rb", entries[rows], U)
    return Sweep(xs, bs, ok[0], ok[1], et[0], et[1])


def _best_bs(family: CubeFamily) -> list[tuple[float, float] | None]:
    """(best b, E[T]) of each config of the family, or None where its region is empty.

    E[T] is smooth on [0, 1], so its minimum over an interval lies at an
    endpoint or at a stationary point inside it.  The regions of every
    config come from one region search over the family, the stationary
    points from numerators.stationary_points, and the candidates of every
    interval, sorted, are evaluated in one cube that also gives the
    reported E[T], equal to overall_curve's.  Ties go to the smallest b.
    """
    regions = _ic_regions(family)
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
    # tests/test_acceptance.py passes b_step and tol_b; neither shapes the result
    return _best_bs(CubeFamily([config], kind))[0]


def optimal_b_curve(size_probs, grid: SizeGrid, lam: float,
                    x_step: float = 0.005, b_step: float = 0.001,
                    x_max: float = 1.0) -> list[CurveRow]:
    """Per error rate: the IC-region punishment minimizing overall E[T].

    Every error rate's search runs in lockstep with the others, for each
    trust policy, over a family built from the error matrices of every x
    at once; one config, at x = 0, is validated.  Blind baseline columns
    are x-independent since neither FCFS nor SCF reads estimates.
    """
    base_cfg, xs, entries = _error_family(size_probs, grid, lam, x_step, x_max)
    _check_step(b_step)     # perfbench/workloads.py passes b_step=
    et_fcfs = fcfs_mean_response(base_cfg)
    et_scf, _ = scf_mean_response(base_cfg)
    best = {kind: _best_bs(CubeFamily.from_arrays(kind, lam, grid.sizes, entries))
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
    return "" if value is None else f"{value:.6g}"


SWEEP_HEADER = "x,b,ic_mt,ic_bt,et_mt,et_bt"
CURVE_HEADER = "x,best_b_mt,et_mt,best_b_bt,et_bt,et_fcfs,et_scf"


def write_sweep_csv(sweep: Sweep, path) -> None:
    bs = [_fmt(b) for b in sweep.b.tolist()]
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for x, ok_mt, ok_bt, et_mt, et_bt in zip(
                sweep.x.tolist(), sweep.ic_mt.tolist(), sweep.ic_bt.tolist(),
                sweep.et_mt.tolist(), sweep.et_bt.tolist()):
            x = _fmt(x)
            fh.writelines(f"{x},{b},{m:d},{t:d},{e:.6g},{f:.6g}\n"
                          for b, m, t, e, f in zip(bs, ok_mt, ok_bt, et_mt, et_bt))


def write_curve_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("# best_b ties are broken toward the smallest b\n")
        fh.write(CURVE_HEADER + "\n")
        for r in rows:
            fh.write(",".join([_fmt(r.x), _fmt(r.best_b_mt), _fmt(r.et_mt),
                               _fmt(r.best_b_bt), _fmt(r.et_bt),
                               _fmt(r.et_fcfs), _fmt(r.et_scf)]) + "\n")
