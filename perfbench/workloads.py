"""The benchmark's workloads: inputs from a seed, timed rounds, and the gate.

Every call into the program goes through a module attribute
(``experiments.optimal_b_curve``, ``sim.simulate``, ...) so that the traced
run can rebind those attributes with timing wrappers.

* ``oracle``: batch ``sim.simulate`` on a two-worker pool at fixed operating
  points.  The event-loop simulator does nearly all of the work.  Its task
  is one batch over all six points.
* ``frontier``: the full-resolution best-b curve of the four-class family,
  its CSV and its SVG, plus ``ic_region`` on seeded random configs.
  Per-call overhead of ``incentives`` and ``soap`` dominates (about 8 b
  points per cube).  Its task is the curve with its CSV and SVG; the random
  configs give per-policy region latencies.

Each workload bypasses the other's hot path: a faster simulator should not
move ``frontier``, and faster regions or best b should not move ``oracle``.
"""

from __future__ import annotations

import hashlib
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "tests"))

import numpy as np  # noqa: E402
from scipy import stats  # noqa: E402

import reference  # noqa: E402  (tests/reference.py: the scalar-loop oracle)
from refkernel import reference_kernel_s  # noqa: E402
import trustqueue  # noqa: E402
from trustqueue import experiments, incentives, sim, soap, svgchart  # noqa: E402
from trustqueue.model import (Policy, PolicySpec, SizeEstimateMatrix, SizeGrid,  # noqa: E402
                              SystemConfig, uniform_error_matrix)

if Path(trustqueue.__file__).resolve().parent != ROOT / "src" / "trustqueue":
    raise ImportError(f"trustqueue was imported from {trustqueue.__file__}, "
                      f"not from this checkout's src/")

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST
WORKERS = 2                 # the pool size acceptance criterion 7 uses
PROBE_P = 0.005
SIM_SE_LIMIT = 4.0          # a correct simulator misses this well under 1 time in 1000
REL_TOL = 1e-9              # closed form against tests/reference.py


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    jobs: int = 20_000          # oracle: jobs per replication
    replications: int = 10      # oracle: replications per simulate call
    x_step: float = 0.005       # frontier: error-rate grid
    b_step: float = 0.001       # frontier: punishment grid
    configs: int = 64           # frontier: random configs, each run for MT and BT
    setups: int = 9             # fresh-interpreter set-ups per run
    min_rounds: int = 4         # rounds run even when --seconds is reached sooner; the
                                # oracle gate pools exactly these first rounds


FULL = Sizes()
TINY = Sizes(jobs=10_000, replications=4, x_step=0.1, b_step=0.01, configs=4,
             setups=1, min_rounds=2)

SAMPLE_PERIOD_S = 0.2       # how often TaskClock times the kernel during a task


class TaskClock:
    """Times a task, and the reference kernel every SAMPLE_PERIOD_S while it runs.

    A SIGALRM handler runs the kernel between the task's bytecodes; its time
    is taken out of ``task_s``.  A task whose own worker processes would
    compete with the kernel calls ``tick`` between them instead, with
    ``timer`` false.  Without samples (``sample`` false for traced rounds,
    tasks shorter than one period) the kernel is timed once, after the task.
    """

    def __init__(self, sample: bool = True, timer: bool = True):
        self.sample, self.timer = sample, timer
        self.task_s = self.kernel_s = self.spent_s = 0.0

    def tick(self, *_signal) -> None:
        if not self.sample:
            return
        t0 = perf_counter()
        self._samples.append(reference_kernel_s())
        self.spent_s += perf_counter() - t0

    def __enter__(self):
        self._samples = []
        self.spent_s = 0.0
        if self.sample and self.timer:
            signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        wall = perf_counter() - self._t0
        if self.sample and self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.task_s = wall - self.spent_s
        self.kernel_s = median(self._samples or [reference_kernel_s()])
        return False


@dataclass
class Round:
    """One timed round and its workload-specific outputs.

    ``task_s`` is the part of the round that is the workload's headline task
    (the whole round, except the random configs of the first ``frontier``
    round), net of the reference kernel's time; ``kernel_s`` is the median
    kernel time during the task.  ``seconds`` too is net of the kernel.
    """

    seconds: float
    task_s: float
    kernel_s: float
    items: int
    variant: str | None = None
    data: dict = field(default_factory=dict)
    traced: bool = False


class Workload:
    """Defaults shared by the workloads: one round kind, no pool, no simulator."""

    untraced_plan = ((None, False),)
    trace_plan = ((None, False), (None, True))    # (variant, traced) rounds, repeated
    timer = True                                  # TaskClock samples on SIGALRM

    def finish(self) -> list[tuple[str, bool]]:
        return []

    def report(self, rounds: list[Round]) -> dict:
        return {}

    def layer_metrics(self, rounds: list[Round], workers: int) -> dict[str, float]:
        return {"sim.pool_efficiency": 0.0, "sim.mean_in_system": 0.0}


def random_config(seed: int, index: int, n_range=(2, 6), max_load=0.95) -> SystemConfig:
    """Random valid workload, drawn as tests/conftest.py::random_config draws it.

    Kept as a copy so that the benchmark's inputs stay fixed when the test
    helpers change.
    """
    rng = np.random.default_rng([seed, index])
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    sizes = np.cumsum(rng.uniform(0.2, 3.0, n))
    entries = rng.uniform(0.0, 1.0, (n, n)) ** 2
    entries /= entries.sum()
    matrix = SizeEstimateMatrix(entries)
    mean_size = float(matrix.size_marginal @ sizes)
    rho = rng.uniform(0.2, max_load)
    return SystemConfig(lam=rho / mean_size, grid=SizeGrid(sizes), matrix=matrix)


def _error_config(probs, grid, lam, x) -> SystemConfig:
    return SystemConfig(lam=lam, grid=grid, matrix=uniform_error_matrix(probs, grid, x))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


class Oracle(Workload):
    """Batch simulation at fixed operating points, checked against closed forms."""

    name = "oracle"
    untraced_plan = (("pool", False),)
    trace_plan = (("pool", False), ("single", False), ("single", True))
    timer = False               # the kernel would compete with the pool's workers

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        three = experiments.three_class_example()
        four = experiments.four_class_example(0.1)
        self.points = [
            ("fcfs three-class", three, PolicySpec(Policy.FCFS)),
            ("scf three-class", three, PolicySpec(Policy.SCF)),
            ("mt b=0.43 three-class", three, PolicySpec(MT, 0.43)),
            ("bt b=0.81 three-class", three, PolicySpec(BT, 0.81)),
        ]
        for kind in (MT, BT):
            region = incentives.ic_region(four, kind)
            b = 0.5 * (region.intervals[0].lo + region.intervals[0].hi)
            self.points.append((f"{kind.value} b={b:.4f} four-class x=0.1", four,
                                PolicySpec(kind, b)))
        self.estimates = [[] for _ in self.points]     # (mean, sd, replications)
        self.in_system = [[] for _ in self.points]

    def run_round(self, index: int, variant: str | None, clock: TaskClock) -> Round:
        sz = self.sizes
        workers = WORKERS if variant == "pool" else 1
        per_point = []
        with clock:
            for p, (_, config, policy) in enumerate(self.points):
                clock.tick()        # between simulate calls, when no worker runs
                sim_seed = (self.seed * 1_000_003
                            + (index * len(self.points) + p) * sz.replications)
                cfg = sim.SimConfig(job_count=sz.jobs, seed=sim_seed,
                                    replications=sz.replications, probe_probability=PROBE_P)
                per_point.append(sim.simulate(config, policy, cfg, workers=workers))
        return Round(clock.task_s, clock.task_s, clock.kernel_s,
                     sz.jobs * sz.replications * len(self.points), variant, {"results": per_point})

    def check_round(self, rnd: Round) -> list[tuple[str, bool]]:
        """Keep the estimates of the first ``min_rounds`` rounds for the gate.

        A fixed count keeps the gate equally strict however many rounds a
        faster simulator fits into --seconds; later rounds only time.
        """
        results = rnd.data.pop("results")
        if len(self.estimates[0]) >= self.sizes.min_rounds:
            return []
        r = self.sizes.replications
        t975 = stats.t.ppf(0.975, r - 1)
        for p, res in enumerate(results):
            sd = res.overall.half_width95 * np.sqrt(r) / t975
            self.estimates[p].append((res.overall.mean, sd, r))
            self.in_system[p].append(res.time_avg_in_system.mean)
        return []

    def closed_form(self, config, policy) -> float:
        if policy.kind == Policy.FCFS:
            return soap.fcfs_mean_response(config)
        if policy.kind == Policy.SCF:
            return soap.scf_mean_response(config)[0]
        return soap.response_table(config, policy.kind, policy.b).overall

    def finish(self) -> list[tuple[str, bool]]:
        """Each point's mean over the gated rounds lies within 4 SE of its closed form."""
        checks = []
        for (label, config, policy), est in zip(self.points, self.estimates):
            total = sum(r for _, _, r in est)
            mean = sum(m * r for m, _, r in est) / total
            pooled_var = sum(sd * sd * (r - 1) for _, sd, r in est) / sum(r - 1 for *_, r in est)
            se = np.sqrt(pooled_var / total)
            analytic = self.closed_form(config, policy)
            checks.append((f"{label}: sim {mean:.4f} vs closed form {analytic:.4f} "
                           f"({(mean - analytic) / se:+.2f} se)",
                           abs(mean - analytic) <= SIM_SE_LIMIT * se))
        return checks

    def layer_metrics(self, rounds: list[Round], workers: int) -> dict[str, float]:
        pooled = median(r.seconds for r in rounds if r.variant == "pool")
        single = median(r.seconds for r in rounds if r.variant == "single" and not r.traced)
        return {"sim.pool_efficiency": single / (workers * pooled),
                "sim.mean_in_system": fmean(fmean(v) for v in self.in_system)}

    def record(self) -> dict:
        return {"points": [label for label, *_ in self.points],
                "jobs_per_round": self.sizes.jobs * self.sizes.replications * len(self.points),
                "gated_rounds": len(self.estimates[0]),
                "mean_in_system": fmean(fmean(v) for v in self.in_system)}


class Frontier(Workload):
    """Best-b curve at full resolution, its CSV and SVG, and IC regions of random configs."""

    name = "frontier"

    def __init__(self, seed: int, sizes: Sizes):
        self.sizes = sizes
        self.family = experiments.four_class_family()
        self.configs = [random_config(seed, c) for c in range(sizes.configs)]
        self.latency_ms = {MT: [], BT: []}
        self.curve = None
        self.csv_path = OUT / "curve.csv"
        self.svg_path = OUT / "curve.svg"
        self.curve_csv_sha256 = None
        self.strict_endpoint_failures = 0

    def run_round(self, index: int, variant: str | None, clock: TaskClock) -> Round:
        """The curve; the first round, which is never traced, also runs the random configs."""
        probs, grid, lam = self.family
        with clock:
            curve = experiments.optimal_b_curve(probs, grid, lam, x_step=self.sizes.x_step,
                                                b_step=self.sizes.b_step)
            experiments.write_curve_csv(curve, self.csv_path)
            self.svg_path.write_text(svgchart.curve_chart([
                {"x": r.x, "et_mt": r.et_mt, "et_bt": r.et_bt, "et_fcfs": r.et_fcfs,
                 "et_scf": r.et_scf} for r in curve]))
        t0 = perf_counter()
        regions = []
        latency = {MT: [], BT: []}
        for config in self.configs if index == 0 else ():
            for kind in (MT, BT):
                t = perf_counter()
                regions.append((config, kind, incentives.ic_region(config, kind)))
                latency[kind].append(1e3 * (perf_counter() - t))
        seconds = clock.task_s + perf_counter() - t0
        return Round(seconds, clock.task_s, clock.kernel_s, len(curve) + len(regions), variant,
                     {"curve": curve, "regions": regions, "latency_ms": latency})

    def check_round(self, rnd: Round) -> list[tuple[str, bool]]:
        """Every best b lies in its region, passes ic_check and has the reference E[T].

        ``ic_region`` promises its endpoints to within ``tol_b``, and the best
        b often is an endpoint, so ic_check is gated at the point of b's
        interval nearest b that lies ``tol_b`` inside it.  Best b that fail
        the strict ic_check at b itself are counted, not gated.

        The curve is deterministic, so only the first round's is checked; so
        are the random configs' regions, whose midpoints must pass ic_check.
        """
        data = rnd.data
        for kind in (MT, BT):
            self.latency_ms[kind].extend(data["latency_ms"][kind])
        checks = []
        for config, kind, region in data.pop("regions"):
            for iv in region.intervals:
                checks.append((f"{kind.value} region midpoint on random config",
                               incentives.ic_check(config, kind, 0.5 * (iv.lo + iv.hi)).verdict))
        curve = data.pop("curve")
        if self.curve is not None:
            return checks
        self.curve = curve
        self.curve_csv_sha256 = sha256(self.csv_path)
        probs, grid, lam = self.family
        for row in curve:
            config = _error_config(probs, grid, lam, row.x)
            for kind, b, et in ((MT, row.best_b_mt, row.et_mt), (BT, row.best_b_bt, row.et_bt)):
                if b is None:
                    continue
                where = f"{kind.value} x={row.x:g} b={b:.6f}"
                region = incentives.ic_region(config, kind, grid_step=self.sizes.b_step)
                checks.append((f"{where} in region", region.contains(b)))
                checks.append((f"{where} passes ic_check within tol_b",
                               incentives.ic_check(config, kind, _inward(region, b)).verdict))
                self.strict_endpoint_failures += not incentives.ic_check(config, kind, b).verdict
                checks.append((f"{where} E[T] matches reference",
                               _close(et, reference.overall(config, kind, b))))
        return checks

    def report(self, rounds: list[Round]) -> dict:
        out = {}
        for kind in (MT, BT):
            lat = self.latency_ms[kind]
            if len(lat) >= 2:
                deciles = quantiles(lat, n=10)
                out[f"region_{kind.value}_p50_ms"] = (median(lat), "ms")
                out[f"region_{kind.value}_p90_ms"] = (deciles[8], "ms")
        return out

    def record(self) -> dict:
        return {"curve_points": len(self.curve), "random_configs": len(self.configs),
                "region_samples": {k.value: len(v) for k, v in self.latency_ms.items()},
                "four_class_curve_csv_sha256": self.curve_csv_sha256,
                "strict_endpoint_failures": self.strict_endpoint_failures}


def _inward(region, b: float) -> float:
    """The point of b's interval nearest b that lies at least tol_b inside it."""
    for iv in region.intervals:
        if iv.contains(b):
            lo, hi = iv.lo + region.tol_b, iv.hi - region.tol_b
            return 0.5 * (iv.lo + iv.hi) if lo > hi else min(max(b, lo), hi)
    return b


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


WORKLOADS = {w.name: w for w in (Oracle, Frontier)}
