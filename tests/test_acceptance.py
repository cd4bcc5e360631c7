"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria 2, 3, 4 and 5 assert externally published reference
values; the engine reproduces the model's validated closed forms (which the
simulation oracle confirms to tight CIs, criterion 7), and those published
values are not attainable from this model — see docs/reference-gap.md.  The
assertions are kept faithful rather than loosened.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_config
from trustqueue.experiments import (_best_b, four_class_example, four_class_family,
                                    rare_long_job_example, three_class_example)
from trustqueue.incentives import ic_indicator, ic_region
from trustqueue.model import Policy, PolicySpec, SystemConfig, uniform_error_matrix
from trustqueue.sim import SimConfig, simulate
from trustqueue.soap import (fcfs_mean_response, overall_curve, relevant_size_moments,
                             response_table)

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST
WORKERS = 2

BIG = SimConfig(job_count=1_000_000, seed=20_240_817, replications=10,
                probe_probability=0.0)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    if not ok:
        pytest.fail(f"criterion {number}: {detail}")


def round_in(lo: float, hi: float) -> tuple[float, float]:
    """Endpoints at two decimals, rounded toward the interval interior."""
    return (math.ceil(lo * 100 - 1e-9) / 100, math.floor(hi * 100 + 1e-9) / 100)


def test_criterion_1_fcfs_closed_form():
    config = three_class_example()
    t0 = time.perf_counter()
    for _ in range(100):
        value = fcfs_mean_response(config)
    per_call = (time.perf_counter() - t0) / 100
    ok = abs(value - 8.912) <= 0.001 and per_call < 1e-3
    report(1, ok, f"FCFS = {value:.6f} (target 8.912 +- 0.001), {per_call*1e6:.0f} us/call")


def test_criterion_2_three_class_ic_intervals():
    config = three_class_example()
    details = []
    ok = True
    for kind, lo_t, hi_t in ((MT, 0.15, 0.70), (BT, 0.81, 0.85)):
        region = ic_region(config, kind)
        if region.is_empty:
            ok = False
            details.append(f"{kind.value}: empty (target [{lo_t}, {hi_t}])")
            continue
        span = region.span
        lo2, hi2 = round_in(span.lo, span.hi)
        ok &= abs(lo2 - lo_t) <= 0.01 + 1e-9 and abs(hi2 - hi_t) <= 0.01 + 1e-9
        details.append(f"{kind.value}: computed [{span.lo:.4f}, {span.hi:.4f}] -> "
                       f"[{lo2:.2f}, {hi2:.2f}] (target [{lo_t}, {hi_t}] +- 0.01)")
    report(2, ok, "; ".join(details))


def test_criterion_3_three_class_overall_means():
    config = three_class_example()
    targets = [(MT, 0.15, 7.199), (MT, 0.43, 7.000), (MT, 0.71, 7.276),
               (BT, 0.81, 6.553), (BT, 0.85, 6.792)]
    details = []
    ok = True
    for kind, b, target in targets:
        got = response_table(config, kind, b).overall
        good = abs(got - target) <= 0.002
        ok &= good
        details.append(f"{kind.value}@{b}: {got:.3f} (target {target})")
    report(3, ok, "; ".join(details))


def _frontier(kind: Policy, x_step=0.005, b_step=0.001):
    probs, grid, lam = four_class_family()
    bs = np.round(np.arange(0.0, 1.0 + b_step / 2, b_step), 12)
    best = None
    for x in np.round(np.arange(0.0, 1.0 + x_step / 2, x_step), 12):
        config = SystemConfig(lam=lam, grid=grid,
                              matrix=uniform_error_matrix(probs, grid, float(x)))
        mask = ic_indicator(config, kind, bs)
        if mask.any():
            feasible_b = bs[mask]
            best = (float(x), float(feasible_b[0]), float(feasible_b[-1]))
    return best


def test_criterion_4_four_class_frontier():
    details = []
    ok = True
    for kind, x_t, b_t in ((MT, 0.33, 0.501), (BT, 0.23, 0.799)):
        got = _frontier(kind)
        if got is None:
            ok = False
            details.append(f"{kind.value}: no feasible x")
            continue
        x, b_lo, b_hi = got
        good_x = abs(x - x_t) <= 0.005 + 1e-9
        good_b = (b_lo - 0.002) <= b_t <= (b_hi + 0.002)
        ok &= good_x and good_b
        details.append(f"{kind.value}: max x = {x:.3f} with IC b in [{b_lo:.3f}, {b_hi:.3f}] "
                       f"(target x {x_t}, b near {b_t})")
    report(4, ok, "; ".join(details))


def test_criterion_5_rare_long_job_counterexample():
    region = ic_region(rare_long_job_example(), BT)
    lo = region.span.lo if not region.is_empty else float("nan")
    ok = (not region.is_empty) and all(iv.lo >= 0.98 - 0.005 for iv in region.intervals)
    report(5, ok, f"BT IC region starts at {lo:.4f} (required >= 0.975)")


def test_criterion_6_single_interval_property():
    t0 = time.perf_counter()
    bs = np.round(np.arange(0.0, 1.0005, 1e-3), 12)
    worst = 0
    for seed in range(100):
        config = random_config(seed, n_range=(2, 5), max_load=0.95)
        ok_grid = ic_indicator(config, MT, bs)
        runs = int(((~ok_grid[:-1]) & ok_grid[1:]).sum()) + int(ok_grid[0])
        worst = max(worst, runs)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1 and elapsed < 60
    report(6, ok, f"max IC runs over 100 random configs: {worst} ({elapsed:.1f}s)")


def test_criterion_7_oracle_equivalence():
    three = three_class_example()
    four = four_class_example(0.1)
    cases = [
        ("fcfs three-class", three, PolicySpec(Policy.FCFS), fcfs_mean_response(three)),
        ("mt b=0.43 three-class", three, PolicySpec(MT, 0.43),
         response_table(three, MT, 0.43).overall),
        ("bt b=0.81 three-class", three, PolicySpec(BT, 0.81),
         response_table(three, BT, 0.81).overall),
    ]
    for kind in (MT, BT):
        best = _best_b(four, kind, b_step=1e-3, tol_b=1e-6)
        assert best is not None, "error rate 0.1 must be feasible"
        b_star, et = best
        cases.append((f"{kind.value} b*={b_star:.3f} four-class", four,
                      PolicySpec(kind, b_star), et))

    details = []
    ok = True
    for label, config, policy, analytic in cases:
        res = simulate(config, policy, BIG, workers=WORKERS)
        good = res.overall.contains(analytic)
        ok &= good
        details.append(f"{label}: analytic {analytic:.4f} vs sim {res.overall.mean:.4f} "
                       f"+- {res.overall.half_width95:.4f}")

    # probe estimates of the deviation responses at the default rate
    analytic_u = response_table(three, MT, 0.43).U
    cell_ok = True
    res = simulate(three, PolicySpec(MT, 0.43),
                   SimConfig(job_count=1_000_000, seed=20_240_817, replications=10,
                             probe_probability=0.005), workers=WORKERS)
    for (i, k), est in res.per_cell.items():
        if not est.contains(analytic_u[i, k]):
            cell_ok = False
            details.append(f"cell ({i},{k}) at p=0.005: {est.mean:.3f} "
                           f"+- {est.half_width95:.3f} vs {analytic_u[i, k]:.3f}")

    # probe-bias check at two rates: the job count scales inversely with the
    # rate so both runs observe the same number of probes and the weighted
    # mean absolute deviation isolates the O(p) equilibrium perturbation
    discrepancy = {}
    for rate, jobs in ((0.02, 1_000_000), (0.005, 4_000_000)):
        sim_cfg = SimConfig(job_count=jobs, seed=20_240_817, replications=10,
                            probe_probability=rate)
        probe_res = simulate(three, PolicySpec(MT, 0.43), sim_cfg, workers=WORKERS)
        num = den = 0.0
        for (i, k), est in probe_res.per_cell.items():
            num += est.count * abs(est.mean - analytic_u[i, k])
            den += est.count
        discrepancy[rate] = num / den
    shrink_ok = discrepancy[0.005] <= discrepancy[0.02]
    ok &= cell_ok and shrink_ok
    details.append(f"probe discrepancy (equal probe budgets) p=0.02: "
                   f"{discrepancy[0.02]:.4f}, p=0.005: {discrepancy[0.005]:.4f}")
    report(7, ok, "; ".join(details))


def test_criterion_8_small_noise_convergence():
    probs, grid, lam = four_class_family()
    xs = [0.3, 0.2, 0.1, 0.05, 0.01]
    lows, highs = {}, {}
    for x in xs:
        config = SystemConfig(lam=lam, grid=grid,
                              matrix=uniform_error_matrix(probs, grid, x))
        region = ic_region(config, MT)
        # empty regions use the vacuous convention lower=+inf, upper=-inf
        lows[x] = region.span.lo if not region.is_empty else float("inf")
        highs[x] = region.span.hi if not region.is_empty else float("-inf")
    monotone = all(lows[a] >= lows[b] for a, b in zip(xs, xs[1:])) and \
        all(highs[a] <= highs[b] for a, b in zip(xs, xs[1:]))

    def widens(outer, inner):
        # strictly higher, except once the endpoint saturates at b = 1
        return outer > inner or outer == inner == 1.0

    strict = (lows[0.01] < lows[0.05] < lows[0.1]
              and widens(highs[0.01], highs[0.05]) and widens(highs[0.05], highs[0.1]))
    ok = monotone and strict
    spans = ", ".join(
        f"x={x}: " + ("empty" if math.isinf(lows[x]) else f"[{lows[x]:.3f}, {highs[x]:.3f}]")
        for x in xs)
    report(8, ok, spans)


def test_criterion_9_structural_identities():
    t0 = time.perf_counter()
    ok = True
    issues = []
    for seed in range(30):
        config = random_config(seed + 1000)
        n = config.n
        rng = np.random.default_rng(seed)
        for b in rng.uniform(0.0, 1.0, 3):
            table = response_table(config, MT, float(b))
            for i in range(n):
                for k in range(i):
                    for k2 in range(i):
                        if abs(table.U[i, k] - table.U[i, k2]) > 1e-9:
                            ok = False
                            issues.append(f"indifference {seed}")
                    if abs(table.u_unpunished[i, k] - table.U[i, i]) > 1e-9:
                        ok = False
                        issues.append(f"spared-overrun {seed}")
        for kind in (MT, BT):
            zero = relevant_size_moments(config, kind, 0.0)
            if abs(zero.rho[n] - config.load) > 1e-9:
                ok = False
                issues.append(f"b=0 load {seed}")
            prev1 = prev2 = None
            for b in np.arange(0.0, 1.0005, 0.05):
                t = relevant_size_moments(config, kind, float(b))
                if np.any(np.diff(t.m1) < -1e-9) or np.any(np.diff(t.m2) < -1e-9):
                    ok = False
                    issues.append(f"rank-monotone {seed}")
                if prev1 is not None and (np.any(t.m1 > prev1 + 1e-9)
                                          or np.any(t.m2 > prev2 + 1e-9)):
                    ok = False
                    issues.append(f"b-monotone {seed}")
                prev1, prev2 = t.m1, t.m2
    elapsed = time.perf_counter() - t0
    report(9, ok, ("all identities hold to 1e-9 on 30 random configs"
                   if ok else "; ".join(sorted(set(issues)))) + f" ({elapsed:.1f}s)")
