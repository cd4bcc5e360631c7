"""Sample-path M/G/1 oracle for the trust policies and blind baselines.

A single server preemptively runs the lowest-rank job, breaking ties by
arrival time, and a job's rank only rises with its own age.  So a job J
with final rank w completes exactly when three amounts of work are done:
its own size, the work at ranks <= w that other jobs hold when J arrives,
and the work at ranks < w brought by later arrivals before J completes.
The second and the completion time take one scan per rank level ell:
with C the cumulative work at ranks <= ell, the running maximum of
a_{k+1} - C[k] gives level ell's Lindley backlog at each arrival and level
ell + 1's first-passage curve, which one binary search per job reads.  The
result equals the discrete-event simulation on the same draws job by job,
up to rounding (tests/event_sim.py keeps that event loop as the reference).

Each job's row of ranks.rank_path_table, the table soap's closed forms
read too, gives its work at ranks <= w and final rank w; draws picks the
row from the job's random draws.

Replications are dealt round-robin to ``workers`` threads.  Numpy drops
the GIL only inside each pass, so two threads run at most about 1.4x as
fast as one at 20k jobs a replication, 1.6x at 200k (README.md).  A thread
runs its replications in one set of job-length buffers, so they fault in
few fresh pages.  Each replication has its own seeded generator and results
return in replication order: the result does not depend on the workers.

Sparse probe jobs declare a uniformly random class, estimating the
deviation response times E[U_ik] without materially perturbing the
honest equilibrium.
"""

from __future__ import annotations

import csv
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .draws import cell_table, draw_jobs, mix64
from .model import Policy, PolicySpec, SystemConfig
from .ranks import rank_path_table

# indices here are always in range; np.take's default mode would copy ``out``
_take = partial(np.take, mode="clip")


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


def _run_replication(args, ws=None, table=None):
    """One replication; table is draws.cell_table(M), or None to build it."""
    (z, M, lam, kind_value, b, N, warm_frac, probe_p, seed, capture) = args
    n = len(z)
    ws = _workspace(N) if ws is None else ws
    a, u, s, t, resp, cell, path, coin, mask = map(
        ws.get, "a u s t resp cell path coin mask".split())
    rng = np.random.default_rng(mix64(seed))

    table = cell_table(M) if table is None else table
    probes, declared = draw_jobs(rng, n, lam, b, probe_p, table, a, cell, path, coin, u, s, mask)

    xle, final = rank_path_table(PolicySpec(Policy(kind_value), b), z)
    xle = np.ascontiguousarray(xle.reshape(n * n * 2, n + 2).T)
    final = _take(final.ravel(), path, out=ws["final"])

    # Level ell: C = cumsum of the work at ranks <= ell, R = running max of
    # E = (a_0, a_1 - C[0], ..., a_{N-1} - C[N-2], inf).  Arrival k finds
    # the <= ell backlog R[k] - E[k].  A job J of final rank w > 1 completes
    # at the first m with R_{w-1}[m + 1] >= a_J + work - C_{w-1}[J].
    c, r, x, rx = ws["c0"], ws["r0"], ws["c1"], ws["r1"]
    for ell in range(1, final.max() + 1):
        c, r, x, rx = x, rx, c, r               # x, rx: level ell - 1's C and R
        jobs = np.flatnonzero(np.equal(final, ell, out=mask))
        work, e, g = s[:len(jobs)], t[:len(jobs)], u[:len(jobs)]
        _take(xle[ell], path, out=c)
        _take(c, jobs, out=work)    # all of a job's work is at ranks <= its final rank
        np.cumsum(c, out=c)
        r[0], r[N] = a[0], np.inf
        np.subtract(a[1:], c[:-1], out=r[1:N])
        _take(r, jobs, out=e)
        np.maximum.accumulate(r, out=r)
        _take(r, jobs, out=g)
        g -= e
        work += g
        if ell > 1:
            _take(a, jobs, out=e)
            e += work
            _take(x, jobs, out=g)
            e -= g
            last = np.searchsorted(rx[1:], e)
            # a guard: the backlog keeps the search from landing before the job
            np.maximum(last, jobs, out=last)
            _take(x, last, out=e)
            e -= g
            work += e
        resp[jobs] = work

    warm_n = int(N * warm_frac)
    completion = np.add(a, resp, out=ws["c0"])
    t_start = a[warm_n]
    # time-integral of the number in system over [t_start, t_end]
    np.maximum(a, t_start, out=s)
    np.subtract(completion, s, out=s)
    area = float(np.maximum(s, 0.0, out=s).sum())
    # honest jobs count in bin j, probe jobs in bin n + i * n + k
    bins = _take(np.tile(np.arange(n), n), cell, out=path)
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
    return {
        "sum_resp": float(tot[:n].sum()),
        "n_resp": int(cnt[:n].sum()),
        "class_sum": tot[:n].tolist(),
        "class_cnt": cnt[:n].tolist(),
        "cell_sum": tot[n:].reshape(n, n).tolist(),
        "cell_cnt": cnt[n:].reshape(n, n).tolist(),
        "area": area,
        "window": float(completion.max()) - float(t_start),
        "arrived_in_window": N - warm_n,
        "trace": trace,
    }


def _combine(values, t975: np.ndarray, count: int | None = None) -> SimEstimate:
    """Mean over r replications, its 95% CI half-width (t975[r - 2] is the t
    quantile for r) and ``count``, by default r."""
    arr = np.asarray(list(values), dtype=float)
    r = len(arr)
    half = float(t975[r - 2] * arr.std(ddof=1) / np.sqrt(r)) if r > 1 else float("inf")
    return SimEstimate(float(arr.mean()), half, r if count is None else count)


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

    n = config.n
    args = [
        (config.sizes, config.matrix.entries, config.lam, policy.kind.value, policy.b,
         sim.job_count, sim.warmup_fraction, sim.probe_probability, sim.seed + rep,
         trace_path is not None)
        for rep in range(sim.replications)
    ]

    table = cell_table(config.matrix.entries)

    def run(share):                 # one thread's replications, on one workspace
        ws = _workspace(sim.job_count)
        return [_run_replication(a, ws, table) for a in share]
    shares = [args[w::workers] for w in range(min(workers, len(args)))]
    with ThreadPoolExecutor(max_workers=len(shares)) as pool:
        parts = list(pool.map(run, shares))
    reps = [None] * len(args)
    for w, part in enumerate(parts):
        reps[w::len(parts)] = part

    if any(r["n_resp"] == 0 for r in reps):
        raise ValueError("a replication recorded no honest job after warm-up; "
                         "use more jobs or a lower probe probability")
    from scipy import stats         # imported here: no other module needs scipy

    # the t quantiles for 2..replications replications, computed once
    t975 = stats.t.ppf(0.975, np.arange(1, max(sim.replications, 2)))
    overall = _combine((r["sum_resp"] / r["n_resp"] for r in reps), t975,
                       sum(r["n_resp"] for r in reps))
    # classes j, then cells (i, k): estimated if all replications see one, dropped if some do
    entries = [*range(n), *((i, k) for i in range(n) for k in range(n))]
    sums = [r["class_sum"] + sum(r["cell_sum"], []) for r in reps]
    cnts = [r["class_cnt"] + sum(r["cell_cnt"], []) for r in reps]
    found, dropped = ({}, {}), ([], [])
    for e, key in enumerate(entries):
        seen = [c[e] for c in cnts]
        if all(seen):
            found[e >= n][key] = _combine([s[e] / c[e] for s, c in zip(sums, cnts)],
                                          t975, sum(seen))
        elif any(seen):
            dropped[e >= n].append(key)
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
    return SimResult(overall=overall, per_cell=found[1], per_class=found[0],
                     time_avg_in_system=time_avg, arrival_rate_measured=rate,
                     dropped_classes=tuple(dropped[0]), dropped_cells=tuple(dropped[1]))
