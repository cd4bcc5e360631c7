"""Command-line surface: analysis, region finding, sweeps, simulation, charts.

Exit codes: 0 on success, 1 on validation or I/O problems, 3 when the
offered load makes the queue unstable (argparse's usage errors exit 2).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import experiments, svgchart
from .incentives import ic_check, ic_region, social_benefit_region
from .model import ConfigError, OverloadedError, Policy, PolicySpec, load_config
from .sim import SimConfig, simulate
from .soap import fcfs_mean_response, response_table, scf_mean_response

POLICIES = {p.value: p for p in Policy}
TRUST = ("mt", "bt")    # the policies that read the declared class


def _config_from_args(args):
    error_rate = getattr(args, "error_rate", None)     # sweep and curve have none
    if error_rate is not None and (args.config or args.preset != "four-class"):
        raise ConfigError("--error-rate applies only to the four-class preset")
    if args.config:
        return load_config(args.config)
    if args.preset not in experiments.PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r}; see 'trustqueue preset list'")
    if error_rate is not None:
        return experiments.four_class_example(error_rate)
    return experiments.PRESETS[args.preset]()


def _family_from_args(args):
    if args.preset == "four-class" and not args.config:    # exact probabilities, not row sums
        return experiments.four_class_family()
    cfg = _config_from_args(args)
    return cfg.matrix.size_marginal, cfg.grid, cfg.lam


def _print_matrix(label, m):
    print(label)
    for row in np.atleast_2d(m):
        print("  " + " ".join(f"{v:10.4f}" for v in row))


def _spans(region) -> str:
    return ", ".join(f"[{iv.lo:.4f}, {iv.hi:.4f}]" for iv in region.intervals) or "empty"


def cmd_analyze(args) -> int:
    policy = PolicySpec(POLICIES[args.policy], args.b)
    kind, b = policy.kind, policy.b
    config = _config_from_args(args)
    print(f"lambda = {config.lam:g}, load rho = {config.load:.6g}, "
          f"E[S] = {config.mean_size:.6g}")
    if kind == Policy.FCFS:
        print(f"FCFS mean response: {fcfs_mean_response(config):.6g}")
        return 0
    if kind == Policy.SCF:
        overall, per_size = scf_mean_response(config)
        print(f"SCF mean response: {overall:.6g}")
        _print_matrix("per true size:", per_size)
        return 0
    table = response_table(config, kind, b)
    _print_matrix("U[i][k] (rows: true size, cols: declared):", table.U)
    _print_matrix("T[j][k] (rows: internal estimate, cols: declared):", table.T)
    print(f"overall mean response: {table.overall:.6g}")
    report = ic_check(config, kind, b)
    if report.verdict:
        print(f"incentive compatible at b = {b:g}")
    else:
        print(f"NOT incentive compatible at b = {b:g}; violations:")
        for j, k, delta in report.violations:
            print(f"  estimate class {j} gains {-delta:.6g} by declaring {k}")
    return 0


def cmd_ic_region(args) -> int:
    config = _config_from_args(args)
    kind = POLICIES[args.policy]
    region = ic_region(config, kind)
    social = [(baseline, social_benefit_region(config, kind, baseline))
              for baseline in (Policy.FCFS, Policy.SCF)]
    print(f"incentive compatible region: {_spans(region)}")
    for baseline, sb in social:
        print(f"socially beneficial vs {baseline.value}: {_spans(sb)}")
    return 0


def cmd_sweep(args) -> int:
    probs, grid, lam = _family_from_args(args)
    sweep = experiments.sweep_region(probs, grid, lam, x_step=args.x_step,
                                     b_step=args.b_step, x_max=args.x_max)
    experiments.write_sweep_csv(sweep, args.out)
    feasible = sweep.x[sweep.ic_mt.any(axis=1)]
    print(f"wrote {len(sweep)} rows to {args.out}")
    if feasible.size:
        print(f"largest error rate with an incentive compatible b (measured trust): "
              f"{feasible.max():g}")
    return 0


def cmd_curve(args) -> int:
    probs, grid, lam = _family_from_args(args)
    rows = experiments.optimal_b_curve(probs, grid, lam, x_step=args.x_step, x_max=args.x_max)
    experiments.write_curve_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    policy = PolicySpec(POLICIES[args.policy], args.b)
    sim_cfg = SimConfig(job_count=args.jobs, seed=args.seed, replications=args.reps,
                        warmup_fraction=args.warmup, probe_probability=args.probe_prob)
    result = simulate(config, policy, sim_cfg, workers=args.workers, trace_path=args.trace)
    o = result.overall
    single = sim_cfg.replications == 1
    note = "no CI: 1 replication" if single else f"95% CI over {sim_cfg.replications} replications"

    def ci(est) -> str:
        return f" ({note})" if single else f" +- {est.half_width95:.3g}"

    print(f"overall mean response: {o.mean:.6g}{'' if single else ci(o)} ({note}, {o.count} jobs)")
    for j, est in sorted(result.per_class.items()):
        print(f"  honest estimate class {j}: {est.mean:.6g}{ci(est)}")
    probes = args.policy in TRUST
    if result.per_cell and probes:
        print("probe deviation estimates U[i][k]:")
        for (i, k), est in sorted(result.per_cell.items()):
            print(f"  i={i} k={k}: {est.mean:.6g}{ci(est)} ({est.count} probes)")
    dropped = ([f"honest estimate class {j}" for j in result.dropped_classes]
               + [f"probe cell i={i} k={k}" for i, k in result.dropped_cells if probes])
    if dropped:
        print(f"left out, seen in only some of the {sim_cfg.replications} replications: "
              + ", ".join(dropped))
    print(f"time-average jobs in system: {result.time_avg_in_system.mean:.6g} "
          f"(arrival rate measured {result.arrival_rate_measured:.6g})")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header row")
    for i, r in enumerate(rows[1:], 1):
        if len(r) != len(rows[0]):
            raise ValueError(f"{path}: data row {i} has {len(r)} fields, the header {len(rows[0])}")
    return rows[0], rows[1:]


def cmd_plot(args) -> int:
    header, data = _read_csv(args.csv)
    if header == experiments.SWEEP_HEADER.split(","):
        rows = [(float(r[0]), float(r[1]), r[2] == "1", r[3] == "1") for r in data]
        doc = svgchart.sweep_chart(rows)
    elif header == experiments.CURVE_HEADER.split(","):
        rows = [
            {"x": float(r[0]),
             "et_mt": float(r[2]) if r[2] else None,
             "et_bt": float(r[4]) if r[4] else None,
             "et_fcfs": float(r[5]), "et_scf": float(r[6])}
            for r in data
        ]
        doc = svgchart.curve_chart(rows)
    else:
        raise ValueError(f"unrecognized CSV schema: {','.join(header)}")
    with open(args.out, "w") as fh:
        fh.write(doc)
    print(f"wrote {args.out}")
    return 0


def cmd_preset(args) -> int:
    for name, builder in experiments.PRESETS.items():     # "list" is the only action
        cfg = builder()
        print(f"{name}: n={cfg.n}, lambda={cfg.lam:g}, load={cfg.load:.4g}")
    return 0


def _add_config_options(p, default_preset):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", default=default_preset,
                   help="built-in preset name (see 'preset list')")


def _add_single_config_options(p):
    _add_config_options(p, "three-class")
    p.add_argument("--error-rate", type=float,
                   help="error rate of the four-class preset (default 0.1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustqueue",
        description="Mean response times and incentive analysis for "
                    "estimate-based M/G/1 scheduling with punishments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form response tables and IC verdict")
    _add_single_config_options(p)
    p.add_argument("--policy", choices=list(POLICIES), default="mt")
    p.add_argument("--b", type=float, default=0.0, help="punishment probability")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("ic-region", help="incentive compatible punishment region")
    _add_single_config_options(p)
    p.add_argument("--policy", choices=TRUST, default="mt")
    p.set_defaults(fn=cmd_ic_region)

    p = sub.add_parser("sweep", help="(error rate, b) incentive sweep to CSV")
    _add_config_options(p, "four-class")
    p.add_argument("--x-step", type=float, default=0.005)
    p.add_argument("--b-step", type=float, default=0.001)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("curve", help="best-b mean response curve to CSV")
    _add_config_options(p, "four-class")
    p.add_argument("--x-step", type=float, default=0.005)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("simulate", help="sample-path simulation with 95%% CIs")
    _add_single_config_options(p)
    p.add_argument("--policy", choices=list(POLICIES), default="mt")
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--jobs", type=int, default=100_000)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--probe-prob", type=float, default=0.005)
    p.add_argument("--warmup", type=float, default=0.1)
    p.add_argument("--workers", type=int, default=1, help="threads that run replications")
    p.add_argument("--trace", help="write per-job trace CSV (single replication only)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("plot", help="render a sweep or curve CSV as SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("preset", help="built-in configurations")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=cmd_preset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:    # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OverloadedError) else 1


if __name__ == "__main__":
    sys.exit(main())
