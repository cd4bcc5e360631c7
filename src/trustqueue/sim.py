"""Sample-path M/G/1 oracle for the trust policies and blind baselines.

A single server preemptively runs the lowest-rank job, breaking ties by
arrival time, and a job's rank only rises with its own age.  So a job J
with final rank w completes exactly when three amounts of work are done:
its own size, the work at ranks <= w that other jobs hold when J arrives,
and the work at ranks < w brought by later arrivals before J completes.
The second and the completion time take one scan per rank level ell:
with C the cumulative work at ranks <= ell, the running maximum of
a_{k+1} - C[k] gives level ell's Lindley backlog at each arrival and level
ell + 1's first-passage curve, which one binary search per job reads.
np.fmax.accumulate takes that maximum: no NaN arises, so it gives
np.maximum's bits, faster.  The result equals the discrete-event
simulation on the same draws job by job, up to rounding (tests/event_sim.py
keeps that event loop as the reference).

Each job's row of ranks.rank_path_table, the table soap's closed forms
read too, gives its work at ranks <= w and final rank w; draws picks the
row from the job's random draws.

``workers`` threads map over the replication seeds.  Numpy drops the GIL
only inside each pass, so every pass is an ndarray method or a ufunc,
called without numpy's Python wrappers, and two threads still run at most
about 1.4x as fast as one at 20k jobs a replication, 1.6x at 200k
(README.md).  A thread runs its replications in one set of job-length
buffers, so they fault in few fresh pages.  A replication draws from its
own seeded generator and returns one row of bin totals; the rows come back
in seed order, so the result does not depend on the workers, and one
vectorised pass turns them into every estimate.

Sparse probe jobs declare a uniformly random class, estimating the
deviation response times E[U_ik] without materially perturbing the
honest equilibrium.
"""

from __future__ import annotations

import csv
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .draws import cell_table, draw_jobs, mix64
from .model import PolicySpec, SystemConfig
from .ranks import rank_path_table


def _integer(name: str, value) -> int:
    """value as an int; numpy integers pass, bool and floats do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SimConfig:
    job_count: int
    seed: int = 12345
    replications: int = 10
    warmup_fraction: float = 0.1
    probe_probability: float = 0.005

    def __post_init__(self):
        for name in ("job_count", "seed", "replications"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
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


def _workspace(job_count: int) -> dict:
    """One thread's job-length buffers; every replication it runs overwrites all of them."""
    ws = {key: np.empty(job_count) for key in "a u s t resp c0 c1".split()}
    ws.update({key: np.empty(job_count + 1) for key in ("r0", "r1")})
    ws.update({key: np.empty(job_count, np.intp) for key in "cell path final".split()})
    ws.update({key: np.empty(job_count, bool) for key in ("coin", "mask")})
    return ws


def _tables(config: SystemConfig, policy: PolicySpec) -> tuple:
    """A call's seed-free inputs: the cell table, and xle[ell] and the final
    rank of each rank-path table row 2 * (i * n + k) + coin."""
    n = config.n
    xle, final = rank_path_table(policy, config.sizes)
    return (cell_table(config.matrix.entries),
            np.ascontiguousarray(xle.reshape(n * n * 2, n + 2).T), final.ravel())


def _run_replication(config: SystemConfig, policy: PolicySpec, sim: SimConfig, seed: int,
                     ws: dict, tables: tuple, capture: bool):
    """One replication in workspace ws: its bin totals tot and cnt (below),
    area in system, window and, if capture, trace of the recorded jobs."""
    n, N = config.n, sim.job_count
    table, xle, final = tables
    a, u, s, t, resp, cell, path, coin, mask = map(
        ws.get, "a u s t resp cell path coin mask".split())
    rng = np.random.default_rng(mix64(seed))
    probes, declared = draw_jobs(rng, n, config.lam, policy.b, sim.probe_probability, table,
                                 a, cell, path, coin, u, s, mask)
    final = final.take(path, out=ws["final"], mode="clip")

    # Level ell: C = cumsum of the work at ranks <= ell, R = running max of
    # E = (a_0, a_1 - C[0], ..., a_{N-1} - C[N-2], inf).  Arrival k finds
    # the <= ell backlog R[k] - E[k].  A job J of final rank w > 1 completes
    # at the first m with R_{w-1}[m + 1] >= a_J + work - C_{w-1}[J].
    # take's "clip" mode writes straight into out; the indices are in range.
    c, r, x, rx = ws["c0"], ws["r0"], ws["c1"], ws["r1"]
    for ell in range(1, final.max() + 1):
        c, r, x, rx = x, rx, c, r               # x, rx: level ell - 1's C and R
        jobs = np.equal(final, ell, out=mask).nonzero()[0]
        work, e, g = s[:len(jobs)], t[:len(jobs)], u[:len(jobs)]
        xle[ell].take(path, out=c, mode="clip")
        c.take(jobs, out=work, mode="clip")     # all of a job's work is at ranks <= its final rank
        c.cumsum(out=c)
        r[0], r[N] = a[0], np.inf
        np.subtract(a[1:], c[:-1], out=r[1:N])
        r.take(jobs, out=e, mode="clip")
        np.fmax.accumulate(r, out=r)
        r.take(jobs, out=g, mode="clip")
        g -= e
        work += g
        if ell > 1:
            a.take(jobs, out=e, mode="clip")
            e += work
            x.take(jobs, out=g, mode="clip")
            e -= g
            # e is nondecreasing; windowed, merging and galloping searches ran no faster
            last = rx[1:].searchsorted(e)
            # a guard: the backlog keeps the search from landing before the job
            np.maximum(last, jobs, out=last)
            x.take(last, out=e, mode="clip")
            e -= g
            work += e
        resp[jobs] = work

    warm_n = int(N * sim.warmup_fraction)
    completion = np.add(a, resp, out=ws["c0"])
    t_start = a[warm_n]
    # time-integral of the number in system over [t_start, t_end]
    np.maximum(a, t_start, out=s)
    np.subtract(completion, s, out=s)
    area = float(np.maximum(s, 0.0, out=s).sum())
    # honest jobs count in bin j, probe jobs in bin n + i * n + k
    bins = np.tile(np.arange(n), n).take(cell, out=path, mode="clip")
    bins[probes] = n + declared
    cnt = np.bincount(bins[warm_n:], minlength=n + n * n)
    tot = np.bincount(bins[warm_n:], weights=resp[warm_n:], minlength=n + n * n)

    trace = None
    if capture:
        order = warm_n + np.argsort(completion[warm_n:], kind="stable")
        i, j = np.divmod(cell, n)
        k, probe = j.copy(), np.zeros(N, bool)
        k[probes], probe[probes] = declared % n, True
        trace = list(zip(*(v[order].tolist() for v in (a, i, j, k, coin, probe, resp))))
    return tot, cnt, area, float(completion.max()) - float(t_start), trace


def simulate(config: SystemConfig, policy: PolicySpec, sim: SimConfig,
             workers: int = 1, trace_path=None) -> SimResult:
    """Run independent replications on ``workers`` threads; combine them into 95% CI estimates."""
    if _integer("workers", workers) < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if config.load >= 0.98 and sim.job_count < 100_000:
        warnings.warn(
            f"load {config.load:.3f} >= 0.98 with only {sim.job_count} jobs; "
            "estimates may not have stabilized", RuntimeWarning)
    if trace_path is not None and sim.replications != 1:
        raise ValueError("per-job traces are only written for single-replication runs")

    n, reps = config.n, sim.replications
    tables = _tables(config, policy)
    local = threading.local()       # each thread makes its workspace as it starts

    def run(seed):
        return _run_replication(config, policy, sim, seed, local.ws, tables,
                                trace_path is not None)
    with ThreadPoolExecutor(min(workers, reps), initializer=lambda: setattr(
            local, "ws", _workspace(sim.job_count))) as pool:
        tot, cnt, area, window, trace = zip(*pool.map(run, range(sim.seed, sim.seed + reps)))
    tot, cnt, window = np.array(tot), np.array(cnt), np.array(window)   # a row per replication

    honest = cnt[:, :n].sum(axis=1)
    if not honest.all():
        raise ValueError("a replication recorded no honest job after warm-up; "
                         "use more jobs or a lower probe probability")
    from scipy import special       # imported here: no other module needs scipy

    # a row per estimate: classes j, then cells (i, k), each estimated if all
    # replications see it (dropped if some do), then overall and in system
    keys = [*range(n), *((i, k) for i in range(n) for k in range(n))]
    seen = cnt.all(axis=0)
    cols = seen.nonzero()[0]
    values = np.vstack([(tot[:, cols] / cnt[:, cols]).T, tot[:, :n].sum(axis=1) / honest,
                        np.array(area) / window])
    # stdtrit is the t quantile that scipy.stats.t.ppf evaluates
    half = (special.stdtrit(reps - 1, 0.975) * values.std(axis=1, ddof=1) / np.sqrt(reps)
            if reps > 1 else np.full(len(values), np.inf))
    counts = [*cnt[:, cols].sum(axis=0).tolist(), int(honest.sum()), reps]
    *estimates, overall, in_system = map(SimEstimate, values.mean(axis=1).tolist(),
                                         half.tolist(), counts)
    found, dropped, estimates = ({}, {}), ([], []), iter(estimates)
    for e, key in enumerate(keys):
        if seen[e]:
            found[e >= n][key] = next(estimates)
        elif cnt[:, e].any():
            dropped[e >= n].append(key)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["arrival_time", "size_index", "estimate_index", "declared_index",
                        "punish_coin", "is_probe", "response_time"])
            for row in trace[0]:
                w.writerow([f"{row[0]:.9g}", row[1], row[2], row[3],
                            int(row[4]), int(row[5]), f"{row[6]:.9g}"])
    # each job arriving in the window is recorded in one bin: cnt's row sums count them
    return SimResult(overall=overall, per_cell=found[1], per_class=found[0],
                     time_avg_in_system=in_system,
                     arrival_rate_measured=float(np.mean(cnt.sum(axis=1) / window)),
                     dropped_classes=tuple(dropped[0]), dropped_cells=tuple(dropped[1]))
