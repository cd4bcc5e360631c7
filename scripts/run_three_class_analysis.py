#!/usr/bin/env python3
"""Full closed-form + simulation walkthrough of the three-class workload.

Prints response tables, incentive regions and social-benefit regions for
both trust policies, then cross-checks a few operating points against the
sample-path simulation oracle.
"""

import argparse

import numpy as np

from trustqueue.experiments import three_class_example
from trustqueue.incentives import ic_region, social_benefit_region
from trustqueue.model import Policy, PolicySpec
from trustqueue.sim import SimConfig, simulate
from trustqueue.soap import fcfs_mean_response, response_table, scf_mean_response


def spans(region):
    if region.is_empty:
        return "empty"
    return ", ".join(f"[{iv.lo:.4f}, {iv.hi:.4f}]" for iv in region.intervals)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=200_000)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    config = three_class_example()
    print(f"lambda = {config.lam}, E[S] = {config.mean_size:.4f}, "
          f"load = {config.load:.4f}")
    print(f"FCFS mean response: {fcfs_mean_response(config):.4f}")
    scf, per_size = scf_mean_response(config)
    print(f"SCF mean response:  {scf:.4f}  per size: {np.round(per_size, 3)}")

    for kind in (Policy.MEASURED_TRUST, Policy.BLIND_TRUST):
        region = ic_region(config, kind)
        print(f"\n{kind.name}: incentive compatible b: {spans(region)}")
        print(f"  socially beneficial vs FCFS: "
              f"{spans(social_benefit_region(config, kind, Policy.FCFS))}")
        if not region.is_empty:
            mid = 0.5 * (region.span.lo + region.span.hi)
            table = response_table(config, kind, mid)
            print(f"  overall E[T] at b = {mid:.3f}: {table.overall:.4f}")
            print("  honest-class means:",
                  np.round([table.T[j, j] for j in range(config.n)], 3))

    print("\nsimulation cross-checks:")
    sim_cfg = SimConfig(job_count=args.jobs, seed=args.seed, replications=args.reps,
                        probe_probability=0.0)
    for label, policy, analytic in (
        ("FCFS", PolicySpec(Policy.FCFS), fcfs_mean_response(config)),
        ("MT b=0.15", PolicySpec(Policy.MEASURED_TRUST, 0.15),
         response_table(config, Policy.MEASURED_TRUST, 0.15).overall),
        ("BT b=0.285", PolicySpec(Policy.BLIND_TRUST, 0.285),
         response_table(config, Policy.BLIND_TRUST, 0.285).overall),
        ("SCF", PolicySpec(Policy.SCF), scf),
    ):
        res = simulate(config, policy, sim_cfg, workers=args.workers)
        flag = "ok" if res.overall.contains(analytic) else "MISMATCH"
        print(f"  {label:11s} analytic {analytic:8.4f}   "
              f"sim {res.overall.mean:8.4f} +- {res.overall.half_width95:.4f}  [{flag}]")


if __name__ == "__main__":
    main()
