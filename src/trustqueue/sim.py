"""Sample-path M/G/1 oracle for the trust policies and blind baselines.

A single server preemptively runs the lowest-rank job, breaking ties by
arrival time, and a job's rank only rises with its own age.  So a job J
with final rank w completes exactly when three amounts of work are done:
its own size, the work at ranks <= w that other jobs hold when J arrives,
and the work at ranks < w brought by later arrivals before J completes.
For each final rank level that occurs, the first amount is a Lindley
recursion over arrivals (a cumulative sum reflected at zero) and the
completion time is a first passage found with a running maximum and one
binary search.  A replication is a few numpy passes per level; the result
equals the discrete-event simulation on the same draws job by job, up to
rounding (tests/event_sim.py keeps that event loop as the reference).

The rank paths are defined once, in ranks: each job's work at ranks <= w
and its final rank w are read from ranks.rank_path_table, the table
soap's closed forms are built on too.

Replications run on ``workers`` threads.  A replication spends most of
its time in long numpy passes (the random draws, cumulative sums, running
minima and maxima, gathers and binary searches), which release the GIL,
so threads overlap them without starting processes or pickling arguments
and results.  Each replication has its own seeded generator and shares no
mutable state, so the result does not depend on the number of workers.

Honest jobs declare their internal estimate.  Sparse probe jobs declare a
uniformly random class instead, estimating the deviation response times
E[U_ik] without materially perturbing the honest equilibrium.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .model import Policy, PolicySpec, SystemConfig
from .ranks import rank_path_table

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer; derives independent per-replication seeds."""
    x &= _M64
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return (x ^ (x >> 31)) & _M64


@dataclass(frozen=True)
class SimConfig:
    job_count: int
    seed: int = 12345
    replications: int = 10
    warmup_fraction: float = 0.1
    probe_probability: float = 0.005

    def __post_init__(self):
        if self.job_count <= 0 or self.replications <= 0:
            raise ValueError("job_count and replications must be positive")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not (0.0 <= self.probe_probability < 1.0):
            raise ValueError("probe_probability must be in [0, 1)")
        recorded = self.job_count - int(self.job_count * self.warmup_fraction)
        if recorded < 2:
            raise ValueError(f"job_count {self.job_count} with warmup_fraction "
                             f"{self.warmup_fraction:g} leaves {recorded} recorded job(s) "
                             "per replication; at least 2 are needed")


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    half_width95: float
    count: int

    def contains(self, value: float) -> bool:
        return abs(value - self.mean) <= self.half_width95


@dataclass(frozen=True)
class SimResult:
    overall: SimEstimate
    per_cell: dict            # (i, k) -> SimEstimate over probe jobs
    per_class: dict           # j -> SimEstimate over honest jobs
    time_avg_in_system: SimEstimate
    arrival_rate_measured: float
    # entries left out of per_class / per_cell: seen in some replications, not in all
    dropped_classes: tuple[int, ...] = ()
    dropped_cells: tuple[tuple[int, int], ...] = ()


def _run_replication(args):
    (z, M, lam, kind_value, b, job_count, warm_frac, probe_p, seed, capture) = args
    policy = PolicySpec(Policy(kind_value), b)
    n = len(z)
    rng = np.random.default_rng(mix64(seed))

    arrivals_np = np.cumsum(rng.exponential(1.0 / lam, job_count))
    flat = (M / M.sum()).ravel()
    cells = rng.choice(n * n, size=job_count, p=flat)
    i_np = cells // n
    j_np = cells % n
    coin_np = rng.random(job_count) < b
    probe_np = rng.random(job_count) < probe_p
    k_np = np.where(probe_np, rng.integers(0, n, job_count), j_np)
    del cells

    xle, final = rank_path_table(policy, z)
    path = (i_np * n + k_np) * 2 + coin_np      # each job's row of the flattened table
    xle = np.ascontiguousarray(xle.reshape(n * n * 2, n + 2).T)
    final = final.ravel().take(path)
    sizes = z.take(i_np)
    gaps = np.diff(arrivals_np)
    next_arrival = np.append(arrivals_np[1:], np.inf)

    # A job J with final rank w completes once its own size, the work at
    # ranks <= w that others hold when J arrives, and the work at ranks < w
    # of later arrivals are done; the server is busy throughout.
    resp = np.empty(job_count)
    for w in np.flatnonzero(np.bincount(final)):
        jobs = np.flatnonzero(final == w)
        # <= w backlog found by each arrival: Lindley's recursion as a
        # cumulative sum reflected at zero
        s = np.cumsum(xle[w].take(path[:-1]) - gaps)
        s -= np.minimum.accumulate(np.minimum(s, 0.0))
        work = sizes[jobs] + np.concatenate(([0.0], s))[jobs]
        # completion is the first passage of t - (< w work arrived by t)
        # over arrival + work; G is the running max of that gap just before
        # each next arrival
        X = np.cumsum(xle[w - 1].take(path))
        G = np.maximum.accumulate(next_arrival - X)
        last = np.searchsorted(G, arrivals_np[jobs] + work - X[jobs], side="left")
        # the backlog keeps every earlier gap below a job's target, so the
        # search never lands before the job itself; the clamp is a guard
        resp[jobs] = work + (X[np.maximum(last, jobs)] - X[jobs])
    del xle, path, final, gaps, next_arrival

    warm_n = int(job_count * warm_frac)
    rec = slice(warm_n, None)
    completion = arrivals_np + resp
    t_start = arrivals_np[warm_n]
    t_end = float(completion.max())
    # time-integral of the number in system over [t_start, t_end]
    area = float(np.maximum(completion - np.maximum(arrivals_np, t_start), 0.0).sum())

    r_resp = resp[rec]
    honest = ~probe_np[rec]
    probe = ~honest
    class_cnt = np.bincount(j_np[rec][honest], minlength=n)
    class_sum = np.bincount(j_np[rec][honest], weights=r_resp[honest], minlength=n)
    cell_idx = (i_np[rec] * n + k_np[rec])[probe]
    cell_cnt = np.bincount(cell_idx, minlength=n * n).reshape(n, n)
    cell_sum = np.bincount(cell_idx, weights=r_resp[probe], minlength=n * n).reshape(n, n)

    trace = None
    if capture:
        order = warm_n + np.argsort(completion[rec], kind="stable")
        trace = list(zip(arrivals_np[order].tolist(), i_np[order].tolist(),
                         j_np[order].tolist(), k_np[order].tolist(),
                         coin_np[order].tolist(), probe_np[order].tolist(),
                         resp[order].tolist()))
    return {
        "sum_resp": float(class_sum.sum()),
        "n_resp": int(class_cnt.sum()),
        "class_sum": class_sum.tolist(),
        "class_cnt": class_cnt.tolist(),
        "cell_sum": cell_sum.tolist(),
        "cell_cnt": cell_cnt.tolist(),
        "area": area,
        "window": t_end - float(t_start),
        "arrived_in_window": job_count - warm_n,
        "trace": trace,
    }


def _combine(values, t975: np.ndarray) -> SimEstimate:
    """Mean over replications and its 95% CI half-width; t975[r - 2] is the t quantile for r."""
    arr = np.asarray(list(values), dtype=float)
    r = len(arr)
    mean = float(arr.mean())
    if r < 2:
        return SimEstimate(mean, float("inf"), r)
    half = float(t975[r - 2] * arr.std(ddof=1) / np.sqrt(r))
    return SimEstimate(mean, half, r)


def simulate(config: SystemConfig, policy: PolicySpec, sim: SimConfig,
             workers: int = 1, trace_path=None) -> SimResult:
    """Run independent replications on ``workers`` threads; combine them into 95% CI estimates.

    Threads suffice because a replication spends its time in numpy passes
    that release the GIL; the result is the same for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if config.load >= 0.98 and sim.job_count < 100_000:
        warnings.warn(
            f"load {config.load:.3f} >= 0.98 with only {sim.job_count} jobs; "
            "estimates may not have stabilized", RuntimeWarning)
    if trace_path is not None and sim.replications != 1:
        raise ValueError("per-job traces are only written for single-replication runs")

    n = config.n
    args = [
        (config.sizes, config.matrix.entries, config.lam, policy.kind.value, policy.b,
         sim.job_count, sim.warmup_fraction, sim.probe_probability, sim.seed + rep,
         trace_path is not None)
        for rep in range(sim.replications)
    ]
    if workers > 1 and sim.replications > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reps = list(pool.map(_run_replication, args))
    else:
        reps = [_run_replication(a) for a in args]

    if any(r["n_resp"] == 0 for r in reps):
        raise ValueError("a replication recorded no honest job after warm-up; "
                         "use more jobs or a lower probe probability")
    # the t quantiles for 2..replications replications, computed once
    t975 = stats.t.ppf(0.975, np.arange(1, max(sim.replications, 2)))
    est = _combine((r["sum_resp"] / r["n_resp"] for r in reps), t975)
    overall = SimEstimate(est.mean, est.half_width95, sum(r["n_resp"] for r in reps))
    per_class, dropped_classes = {}, []
    for j in range(n):
        means = [r["class_sum"][j] / r["class_cnt"][j] for r in reps if r["class_cnt"][j] > 0]
        if len(means) == len(reps):
            est = _combine(means, t975)
            per_class[j] = SimEstimate(est.mean, est.half_width95,
                                       sum(r["class_cnt"][j] for r in reps))
        elif means:
            dropped_classes.append(j)
    per_cell, dropped_cells = {}, []
    for i in range(n):
        for k in range(n):
            means = [r["cell_sum"][i][k] / r["cell_cnt"][i][k]
                     for r in reps if r["cell_cnt"][i][k] > 0]
            if len(means) == len(reps):
                est = _combine(means, t975)
                per_cell[(i, k)] = SimEstimate(est.mean, est.half_width95,
                                               sum(r["cell_cnt"][i][k] for r in reps))
            elif means:
                dropped_cells.append((i, k))
    time_avg = _combine((r["area"] / r["window"] for r in reps if r["window"] > 0), t975)
    rate = float(np.mean([r["arrived_in_window"] / r["window"] for r in reps if r["window"] > 0]))

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["arrival_time", "size_index", "estimate_index", "declared_index",
                        "punish_coin", "is_probe", "response_time"])
            for row in reps[0]["trace"]:
                w.writerow([f"{row[0]:.9g}", row[1], row[2], row[3],
                            int(row[4]), int(row[5]), f"{row[6]:.9g}"])
    return SimResult(overall=overall, per_cell=per_cell, per_class=per_class,
                     time_avg_in_system=time_avg, arrival_rate_measured=rate,
                     dropped_classes=tuple(dropped_classes), dropped_cells=tuple(dropped_cells))
