#!/usr/bin/env python3
"""Benchmark of trustqueue: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {oracle,frontier} --seed N \\
        --seconds S --trace {0,1} [--tiny]

The run repeats the workload's round until S seconds of its task have been
measured (and at least ``min_rounds`` rounds), checks every output against
the package's oracles, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with the
program untouched.  Their times are scaled to a reference speed: each is
multiplied by REF_KERNEL_S over the time of a fixed reference kernel run
next to it (refkernel.py), which cancels the host's speed drift.  The wall
times are printed too, and kept in the run record.

``--trace 1`` alternates untraced rounds with traced ones, in which the
module-boundary functions are rebound with timing wrappers, and reports
the per-layer metrics.  ``--tiny`` shrinks every size
for the smoke test.  Spans and a run record (machine, versions, commit,
seed, sizes, CSV digests) are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_samples(workload: str, seed: int, tiny: bool, count: int) -> list[tuple[float, float]]:
    """(wall time, reference kernel time) of fresh interpreters that import and build the inputs.

    The wall time excludes the kernel, which the interpreter runs before and after its set-up.
    """
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), workload, str(seed)]
                             + (["--tiny"] if tiny else []), check=True, timeout=120,
                             capture_output=True, text=True)
        wall = perf_counter() - t0
        kernel_s, kernel_total_s = map(float, out.stdout.split())
        samples.append((wall - kernel_total_s, kernel_s))
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def machine_record(seed: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": commit,
            "seed": seed}


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload; return the result object and write the run record."""
    # imported here, after main() has checked for the sources they import
    from tracing import Tracer, per_layer
    from refkernel import REF_KERNEL_S
    from workloads import FULL, OUT, TINY, WORKERS, WORKLOADS, TaskClock

    sizes = TINY if tiny else FULL
    OUT.mkdir(exist_ok=True)
    setup = [] if trace else setup_samples(workload_name, seed, tiny, sizes.setups)
    t0 = perf_counter()
    workload = WORKLOADS[workload_name](seed, sizes)
    build_s = perf_counter() - t0

    tracer = Tracer()
    plan = workload.trace_plan if trace else workload.untraced_plan
    rounds, checks = [], []
    measured = 0.0
    while len(rounds) < sizes.min_rounds or measured < seconds:
        for variant, traced in plan:
            index = len(rounds)
            gc.collect()        # start every round without the last one's garbage
            with tracer.round(index) if traced else nullcontext():
                rnd = workload.run_round(index, variant, TaskClock(not traced, workload.timer))
            rnd.traced = traced
            rounds.append(rnd)
            measured += rnd.task_s
            checks += workload.check_round(rnd)
    checks += workload.finish()

    untraced = [r for r in rounds if not r.traced]
    if trace:
        traced = [r for r in rounds if r.traced]
        plain = [r for r in untraced if r.variant == traced[0].variant]
        values = per_layer(tracer)
        values["trace_overhead"] = (median(r.task_s for r in traced)
                                    / median(r.task_s for r in plain) - 1.0)
        values.update(workload.layer_metrics(rounds, WORKERS))
        tracer.write(OUT / f"{workload_name}.spans.json")
        declared = SPEC["per_layer"]
    else:
        values = {"setup_s": median(wall * REF_KERNEL_S / k for wall, k in setup),
                  "peak_rss_mb": peak_rss_mb(),
                  "task_s": median(r.task_s * REF_KERNEL_S / r.kernel_s for r in untraced)}
        declared = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    named = workload.report(untraced)
    if not trace:
        named["setup_wall_s"] = (median(wall for wall, _ in setup), "s")
        named["task_wall_s"] = (median(r.task_s for r in untraced), "s")
    failed = [label for label, ok in checks if not ok]
    named["fail_frac"] = (len(failed) / len(checks) if checks else 1.0, "ratio")

    record = {"workload": workload_name, "trace": trace, "seconds": seconds,
              **machine_record(seed), "sizes": asdict(sizes), "build_s": build_s,
              "ref_kernel_s": REF_KERNEL_S,
              "setup_samples": [{"wall_s": w, "kernel_s": k} for w, k in setup],
              "rounds": [{"variant": r.variant, "traced": r.traced, "seconds": r.seconds,
                          "task_s": r.task_s, "kernel_s": r.kernel_s, "items": r.items}
                         for r in rounds],
              "workload_record": workload.record(),
              "metrics": metrics, "named": {k: {"value": v, "unit": u}
                                            for k, (v, u) in named.items()},
              "checks": len(checks), "failed_checks": failed}
    (OUT / f"{workload_name}.record.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": bool(checks) and not failed, "attempted": len(checks),
            "failed": len(failed), "metrics": metrics, "named": named}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "trustqueue" / "__init__.py").is_file():
        print(f"no trustqueue sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    named = result.pop("named")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in named.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
