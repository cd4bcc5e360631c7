from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from conftest import random_config
from trustqueue import incentives
from trustqueue.experiments import (PRESETS, four_class_example, rare_long_job_example,
                                    three_class_example)
from trustqueue.incentives import (DEFAULT_TOL, UndefinedColumnError, _ic_regions,
                                   delta_grid, ic_check, ic_indicator, ic_region,
                                   pair_threshold, social_benefit_region)
from trustqueue.numerators import (Numerators, _to_pieces, _value, certified_empty, roots, sign,
                                   stationary_points)
from trustqueue.model import ConfigError, Policy, SizeGrid, diagonal_matrix, validate_config
from trustqueue.soap import (CubeFamily, fcfs_mean_response, overall_curve, response_cube,
                             scf_mean_response)

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST

# hand-derived (classic preemptive-priority formulas): the rare-long-job
# workload has a single binding pair (j=1 declaring 0) with
# delta(b) = 12.61995 b - 11.95885, root at b = 0.947575
RARE_BT_THRESHOLD = 0.947575


def test_verdict_matches_deltas(three_class):
    report = ic_check(three_class, MT, 0.1)
    assert report.verdict and report.violations == ()
    report = ic_check(three_class, MT, 0.02)
    assert not report.verdict
    assert all(d < 0 for _, _, d in report.violations)


def test_low_b_violations_are_underestimates(three_class):
    # with weak punishment, lying means declaring a smaller class
    for kind in (MT, BT):
        report = ic_check(three_class, kind, 0.02)
        assert report.violations and all(k < j for j, k, _ in report.violations)


def test_high_b_violations_are_overestimates(three_class):
    for kind in (MT, BT):
        report = ic_check(three_class, kind, 0.9)
        assert report.violations and all(k > j for j, k, _ in report.violations)


def test_pair_threshold_rare_long_job(rare_long_job):
    roots = pair_threshold(rare_long_job, BT, j=1, k=0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(RARE_BT_THRESHOLD, abs=1e-4)


def test_rare_long_job_region(rare_long_job):
    region = ic_region(rare_long_job, BT)
    assert len(region.intervals) == 1
    iv = region.intervals[0]
    assert iv.lo == pytest.approx(RARE_BT_THRESHOLD, abs=1e-3)
    assert iv.hi == 1.0


def _scalar_pair_scan(config, kind, j, k, tol_b=1e-6, grid_step=1e-3):
    """An independent grid scan for delta[j][k]'s roots, one b and one bracket at a time."""
    col = config.matrix.entries[:, j] / config.matrix.estimate_marginal[j]

    def delta(b):
        U = response_cube(config, kind, [b])[0][:, :, 0]
        return float(col @ (U[:, k] - U[:, j]))

    def bisect(lo, hi, f_lo):
        while hi - lo > tol_b:
            mid = 0.5 * (lo + hi)
            f_mid = delta(mid)
            if f_mid == 0.0:
                lo = hi = mid
            elif (f_mid < 0) == (f_lo < 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    bs = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    bs[-1] = 1.0
    vals = [delta(float(b)) for b in bs]
    roots = []
    for t in range(len(bs) - 1):
        if vals[t] == 0.0:
            roots.append(float(bs[t]))
        elif (vals[t] < 0) != (vals[t + 1] < 0):
            roots.append(bisect(float(bs[t]), float(bs[t + 1]), vals[t]))
    return roots + ([1.0] if vals[-1] == 0.0 else [])


def test_pair_threshold_blind_trust_matches_scalar_scan(three_class, rare_long_job):
    # the three-class BlindTrust region [0.2843, 0.2867] ends at the roots of
    # two different pairs; (0, 2) has no root.  MeasuredTrust runs the same cases.
    cases = [(three_class, 0, 1), (three_class, 2, 0), (three_class, 0, 2),
             (rare_long_job, 1, 0)]
    for kind in (BT, MT):
        for config, j, k in cases:
            roots = pair_threshold(config, kind, j, k)
            scan = _scalar_pair_scan(config, kind, j, k)
            assert len(roots) == len(scan), (kind, j, k)
            for root, near in zip(roots, scan):
                assert abs(root - near) <= 0.5e-6
                if 0.0 < root < 1.0:     # an exact sign change of delta itself
                    d = delta_grid(config, kind, [root - 1e-9, root + 1e-9])[j, k]
                    assert (d[0] < 0) != (d[1] < 0), (kind, j, k, root, d)
                else:
                    assert delta_grid(config, kind, [root])[j, k, 0] == 0.0
    assert pair_threshold(three_class, BT, 0, 1)[0] > pair_threshold(three_class, BT, 2, 0)[0]


def test_pair_threshold_reports_an_exact_zero_end_alone(rare_long_job):
    # delta is exactly 0 at b = 0 here, and the numerator's root near it is
    # that zero's rounding: the end is reported, the rounding is not
    assert delta_grid(rare_long_job, MT, [0.0])[1, 0, 0] == 0.0
    assert pair_threshold(rare_long_job, MT, 1, 0) == [0.0]


def test_pair_threshold_argument_errors(three_class):
    with pytest.raises(ValueError):
        pair_threshold(three_class, MT, j=1, k=1)
    for j, k, name in [(-1, 0, "j = -1"), (3, 0, "j = 3"), (0, -1, "k = -1"), (1, 3, "k = 3")]:
        with pytest.raises(ValueError, match=f"{name} out of range for n=3"):
            pair_threshold(three_class, MT, j, k)
    entries = np.array([
        [0.40, 0.0, 0.06],
        [0.20, 0.0, 0.10],
        [0.04, 0.0, 0.20],
    ])
    config = validate_config(0.4, [1, 2, 3], entries)
    with pytest.raises(UndefinedColumnError):
        pair_threshold(config, MT, j=1, k=0)


def test_perfect_estimates_disincentivize_overestimates():
    grid = SizeGrid([1.0, 2.0, 3.0])
    config = validate_config(0.4, [1, 2, 3], diagonal_matrix([0.5, 0.3, 0.2], grid).entries)
    bs = np.round(np.arange(0, 1.0005, 1e-3), 10)
    d = delta_grid(config, MT, bs)
    for j in range(3):
        for k in range(j + 1, 3):
            assert pair_threshold(config, MT, j, k) == []
            assert np.all(d[j, k] > 0)


@given(st.integers(0, 2**31), st.sampled_from([MT, BT]))
@settings(max_examples=25, deadline=None)
def test_pair_threshold_brackets_sign_change(seed, kind):
    config = random_config(seed)
    rng = np.random.default_rng(seed + 1)
    j = int(rng.integers(0, config.n))
    k = int(rng.integers(0, config.n))
    if j == k:
        k = (k + 1) % config.n
    d = delta_grid(config, kind, np.array([0.0, 1.0]))[j, k]
    roots = pair_threshold(config, kind, j, k)
    if (d[0] < 0) != (d[1] < 0):
        assert roots, "sign change must yield a root"
    for root in roots:
        lo = delta_grid(config, kind, np.array([max(0.0, root - 1e-4)]))[j, k, 0]
        hi = delta_grid(config, kind, np.array([min(1.0, root + 1e-4)]))[j, k, 0]
        assert min(abs(lo), abs(hi)) < 1e-2 or (lo < 0) != (hi < 0)


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_mt_single_interval_on_dense_grid(seed):
    config = random_config(seed)
    bs = np.round(np.arange(0, 1.0005, 1e-3), 10)
    ok = ic_indicator(config, MT, bs)
    runs = int(((~ok[:-1]) & ok[1:]).sum()) + int(ok[0])
    assert runs <= 1


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_mt_pair_feasible_sets_one_sided(seed):
    # k > j: feasible prefix [0, b_jk]; k < j: feasible suffix [b_jk, 1]
    config = random_config(seed)
    bs = np.round(np.arange(0, 1.0005, 1e-2), 10)
    d = delta_grid(config, MT, bs)
    for j in range(config.n):
        for k in range(config.n):
            if j == k or np.isnan(d[j, k, 0]):
                continue
            feas = d[j, k] >= -1e-9
            switches = int((feas[:-1] != feas[1:]).sum())
            assert switches <= 1
            if switches == 1:
                assert feas[0] if k > j else feas[-1]


@given(st.integers(0, 2**31), st.sampled_from([MT, BT]))
@settings(max_examples=12, deadline=None)
def test_region_consistency(seed, kind):
    config = random_config(seed)
    region = ic_region(config, kind)
    for iv in region.intervals:
        mid = 0.5 * (iv.lo + iv.hi)
        assert ic_check(config, kind, mid).verdict
    for b in np.linspace(0.0, 1.0, 41):
        inside = region.contains(float(b))
        if inside:
            continue
        if all(min(abs(b - iv.lo), abs(b - iv.hi)) > region.grid_step
               for iv in region.intervals):
            assert not ic_check(config, kind, float(b)).verdict


@given(st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_mt_region_equals_pair_intersection(seed):
    config = random_config(seed)
    region = ic_region(config, MT)
    lo, hi = 0.0, 1.0
    d = delta_grid(config, MT, np.array([0.0, 1.0]))
    for j in range(config.n):
        for k in range(config.n):
            if j == k or np.isnan(d[j, k, 0]):
                continue
            roots = pair_threshold(config, MT, j, k)
            if not roots:
                if d[j, k, 0] < -1e-9 and d[j, k, 1] < -1e-9:
                    lo, hi = 1.0, 0.0  # infeasible everywhere
                continue
            if k > j:
                hi = min(hi, roots[0])
            else:
                lo = max(lo, roots[0])
    if lo > hi + 2e-6:
        assert region.is_empty
    elif not region.is_empty:
        iv = region.intervals[0]
        assert iv.lo == pytest.approx(lo, abs=2e-6)
        assert iv.hi == pytest.approx(hi, abs=2e-6)


@given(st.integers(0, 2**31))
@settings(max_examples=12, deadline=None)
def test_bt_region_matches_dense_indicator(seed):
    config = random_config(seed)
    region = ic_region(config, BT)
    bs = np.round(np.arange(0, 1.0005, 1e-3), 10)
    ok = ic_indicator(config, BT, bs)
    for b, flag in zip(bs, ok):
        if flag:
            assert region.contains(float(b), slack=2e-3)


def test_three_class_regions(three_class):
    # frozen from the validated engine (simulator-confirmed formulas)
    mt = ic_region(three_class, MT).intervals[0]
    assert mt.lo == pytest.approx(0.0530, abs=2e-3)
    assert mt.hi == pytest.approx(0.2118, abs=2e-3)
    bt = ic_region(three_class, BT).intervals[0]
    assert bt.lo == pytest.approx(0.2843, abs=2e-3)
    assert bt.hi == pytest.approx(0.2867, abs=2e-3)


def test_social_benefit_three_class(three_class):
    region = social_benefit_region(three_class, MT, Policy.FCFS)
    assert len(region.intervals) == 1
    iv = region.intervals[0]
    assert iv.lo == 0.0
    # the whole incentive compatible range is also socially beneficial
    assert iv.hi > ic_region(three_class, MT).intervals[0].hi
    # boundary value: E[T] at the right endpoint equals the FCFS value
    et = overall_curve(three_class, MT, [iv.hi])[0]
    assert et == pytest.approx(fcfs_mean_response(three_class), abs=1e-4)


def test_social_benefit_single_class():
    config = validate_config(0.3, [2.0], [[1.0]])
    for kind in (MT, BT):
        region = social_benefit_region(config, kind, Policy.FCFS)
        assert len(region.intervals) == 1
        assert region.intervals[0].lo == 0.0
        assert region.intervals[0].hi == 1.0


def test_social_benefit_vs_scf(three_class):
    # SCF is much worse than the trust policies on this workload
    region = social_benefit_region(three_class, MT, Policy.SCF)
    assert region.intervals[0].lo == 0.0 and region.intervals[0].hi == 1.0


@pytest.mark.parametrize("kind", [MT, BT])
def test_every_social_benefit_endpoint_beats_its_baseline(kind):
    configs = [build() for build in PRESETS.values()] + [four_class_example(0.1698)]
    configs += [random_config(seed, n_range=(1, 8)) for seed in range(200)]
    count = 0
    for config in configs:
        for baseline, target in ((Policy.FCFS, fcfs_mean_response(config)),
                                 (Policy.SCF, scf_mean_response(config)[0])):
            for iv in social_benefit_region(config, kind, baseline).intervals:
                for b in (iv.lo, iv.hi):
                    count += 1
                    assert target - overall_curve(config, kind, [b])[0] >= 0, (baseline, b)
    assert count > 400


def test_delta_grid_undefined_column():
    entries = np.array([
        [0.40, 0.0, 0.06],
        [0.20, 0.0, 0.10],
        [0.04, 0.0, 0.20],
    ])
    config = validate_config(0.4, [1, 2, 3], entries)
    d = delta_grid(config, MT, np.array([0.5]))
    assert np.isnan(d[1]).all()
    assert np.isfinite(d[0, 1, 0])
    report = ic_check(config, MT, 0.5)
    assert all(j != 1 for j, _, _ in report.violations)


@pytest.mark.parametrize("kind", [MT, BT])
def test_delta_grid_columns_equal_single_b(kind):
    # a b's deltas must not depend on the other b values computed with it:
    # ic_check at one b and a region scan over a grid give the same verdict
    bs = np.linspace(0.0, 1.0, 101)
    for seed in range(10):
        config = random_config(seed, n_range=(2, 8))
        grid = delta_grid(config, kind, bs)
        for t, b in enumerate(bs):
            assert np.array_equal(grid[:, :, t], delta_grid(config, kind, [b])[:, :, 0],
                                  equal_nan=True), (seed, b)


@pytest.mark.parametrize("b", [float("nan"), -0.1, 1.5])
def test_ic_check_rejects_invalid_b(three_class, b):
    with pytest.raises(ConfigError, match=r"punishment probability must be in \[0, 1\]"):
        ic_check(three_class, MT, b)


@pytest.mark.parametrize("kind", [MT, BT])
@pytest.mark.parametrize("step", [0.0, -0.01, 2.0])
def test_ic_region_rejects_bad_step(three_class, kind, step):
    with pytest.raises(ValueError, match=r"step must be in \(0, 1\]"):
        ic_region(three_class, kind, grid_step=step)


@pytest.mark.parametrize("tol_b", [0.0, -1.0, float("nan"), float("inf")])
def test_region_searches_reject_bad_tol_b(three_class, tol_b):
    for kind in (MT, BT):
        with pytest.raises(ValueError, match="b tolerance must be finite and positive"):
            ic_region(three_class, kind, tol_b=tol_b)


ZERO_COLUMN = validate_config(0.4, [1, 2, 3], [[0.40, 0.0, 0.06],
                                               [0.20, 0.0, 0.10],
                                               [0.04, 0.0, 0.20]])


def _region_families():
    """(name, configs, grid steps) of the families whose regions are compared."""
    xs = np.round(np.linspace(0.0, 1.0, 2001), 12)
    yield "four-class, 2001 error rates", [four_class_example(float(x)) for x in xs], (1e-3,)
    for n in range(1, 9):
        configs = [random_config(100 * n + s, n_range=(n, n), max_load=0.98) for s in range(8)]
        yield f"random, n = {n}", configs, (1e-3, 0.05, 1.0)
    # pairs of the zero column drop out, so its pair count differs from its neighbour's
    yield "zero-probability estimate column", [ZERO_COLUMN, three_class_example()], (1e-3, 0.05, 1.0)
    yield "two-class-rare", [rare_long_job_example()], (1e-3, 0.05, 1.0)


@pytest.mark.parametrize("kind", [MT, BT])
def test_numerator_signs_leave_regions_unchanged(kind):
    # a cell is decided by the numerators' signs wherever every pair's sign is
    # certain; there the verdict must be ic_check's, so signs never change a region
    decided = 0
    for name, configs, _ in _region_families():
        family = CubeFamily(configs, kind)
        num = Numerators(family, DEFAULT_TOL)
        bs = np.full((len(configs), 61), np.nan)
        for c, region in enumerate(_ic_regions(family)):
            ends = [b for iv in region.intervals for b in (iv.lo, iv.hi)][:10]
            near = np.clip(np.add.outer(ends, [-1e-7, 0.0, 1e-7]).ravel(), 0.0, 1.0)
            bs[c, :21 + len(near)] = np.concatenate((np.linspace(0.0, 1.0, 21), near))
        worst = np.ones(bs.shape)
        np.minimum.at(worst, num.owner, sign(num.coef, bs[num.owner]))
        for c, config in enumerate(configs):
            # a config with no pair series has worst 1 everywhere, its NaN padding too
            certain = (worst[c] != 0) & ~np.isnan(bs[c])
            decided += int(certain.sum())
            verdict = ic_indicator(config, kind, bs[c][certain])     # ic_check at every b
            assert np.array_equal(verdict, worst[c][certain] > 0), (name, c)
    assert decided > 40_000


def _region_endpoints(kind):
    for name, configs, _ in _region_families():
        for config, region in zip(configs, _ic_regions(CubeFamily(configs, kind))):
            yield name, config, [b for iv in region.intervals for b in (iv.lo, iv.hi)]


@pytest.mark.parametrize("kind", [MT, BT])
def test_every_region_endpoint_passes_the_strict_ic_check(kind):
    count = 0
    for name, config, ends in _region_endpoints(kind):
        for b in ends:
            count += 1
            assert ic_check(config, kind, b).verdict, (name, b)
    assert count > 500


def test_measured_trust_pairs_cross_at_most_once():
    for name, configs, _ in _region_families():
        coef = Numerators(CubeFamily(configs, MT), DEFAULT_TOL).coef
        assert roots(coef, np.arange(len(coef)), len(coef)).shape[1] <= 1, name


def test_narrow_blind_trust_region_near_its_frontier():
    # a grid scan with step 1e-3 misses this region; the numerator roots do not
    config = four_class_example(0.1698)
    region = ic_region(config, BT)
    assert len(region.intervals) == 1
    iv = region.intervals[0]
    assert iv.lo == pytest.approx(0.399668, abs=1e-6)
    assert iv.hi == pytest.approx(0.399823, abs=1e-6)
    for b in (iv.lo, 0.5 * (iv.lo + iv.hi), iv.hi):
        assert ic_check(config, BT, b).verdict
    for b in (iv.lo - 1e-7, iv.hi + 1e-7):
        assert not ic_check(config, BT, b).verdict


def _roots_of(coef_rows):
    """roots of each Chebyshev series (in 2 b - 1) given directly."""
    coef = np.array(coef_rows, dtype=float)
    return roots(coef, np.arange(len(coef)), len(coef))


def _series(zeros, scale=1e9, degree=5):
    """Chebyshev coefficients in x = 2 b - 1 of scale * prod (x - (2 z - 1)), padded to degree."""
    c = chebyshev.chebfromroots([2.0 * z - 1.0 for z in zeros]) * scale
    return np.pad(c, (0, degree + 1 - len(c)))


def test_numerator_roots_split_rows_with_several_roots():
    rows = [_series([0.2, 0.5, 0.9]), _series([0.1, 0.35, 0.6, 0.85]),
            _series([0.3, 0.3 + 1e-4]), _series([0.5, 0.5]), _series([0.25]),
            _series([1.5, -0.5]), _series([0.01, 0.99, 0.5, 0.7, 0.2])]
    found = _roots_of(rows)
    expect = [[0.2, 0.5, 0.9], [0.1, 0.35, 0.6, 0.85], [0.3, 0.3 + 1e-4], [], [0.25], [],
              [0.01, 0.2, 0.5, 0.7, 0.99]]
    for r, want in zip(found, expect):
        got = r[~np.isnan(r)]
        # a double root is a touch, not a sign change, and no root lies outside (0, 1)
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_numerator_roots_ignore_rounding_noise():
    # coefficients within the margin: no sign is certain, so no root is claimed
    rng = np.random.default_rng(3)
    assert np.isnan(_roots_of(rng.uniform(-0.4, 0.4, (50, 6)))).all()


@pytest.mark.parametrize("kind", [MT, BT])
def test_numerator_signs_agree_with_pair_deltas(kind):
    rng = np.random.default_rng(5)
    for n in range(2, 9):
        configs = [random_config(1000 * n + s, n_range=(n, n), max_load=0.98) for s in range(4)]
        num = Numerators(CubeFamily(configs, kind), DEFAULT_TOL)
        bs = rng.uniform(0.0, 1.0, (len(num.owner), 50))
        signs = sign(num.coef, bs)
        delta = np.empty(bs.shape)
        for c, config in enumerate(configs):
            r = np.flatnonzero(num.owner == c)
            d = delta_grid(config, kind, bs[r].ravel()).reshape(config.n, config.n, len(r), 50)
            delta[r] = d[num.js[r], num.ks[r], np.arange(len(r))]
        certain = signs != 0
        assert certain.mean() > 0.99
        assert np.array_equal(signs[certain], np.sign(delta + DEFAULT_TOL)[certain])


@pytest.mark.parametrize("kind", [MT, BT])
def test_stationary_points_find_every_turn_of_the_mean_response(kind):
    bs = np.linspace(0.0, 1.0, 2001)
    turns = 0
    for n in range(1, 9):
        configs = [random_config(2000 * n + s, n_range=(n, n), max_load=0.98) for s in range(25)]
        roots = stationary_points(CubeFamily(configs, kind), np.arange(len(configs)))
        for config, r in zip(configs, roots):
            slope = np.sign(np.diff(overall_curve(config, kind, bs)))
            # E[T] turns between grid points t and t + 2: a root lies within that cell pair
            for t in np.flatnonzero(slope[:-1] * slope[1:] < 0):
                turns += 1
                assert np.any((r >= bs[t]) & (r <= bs[t + 2])), (n, bs[t + 1], r)
    assert turns >= 5


def _certified(configs, kind):
    num = Numerators(CubeFamily(configs, kind), DEFAULT_TOL)
    return certified_empty(num.coef, num.owner, len(configs))


@pytest.mark.parametrize("kind", [MT, BT])
def test_certified_configs_fail_the_ic_check_everywhere(kind):
    # the certificate skips a config's roots; ic_check's rule, from response_cube,
    # must then fail at every b, on the four-class family and on random configs
    xs = np.round(np.linspace(0.0, 1.0, 201), 12)
    family = [four_class_example(float(x)) for x in xs]
    randoms = [[random_config(5000 * n + s, n_range=(n, n), max_load=0.98) for s in range(30)]
               for n in range(2, 7)]
    bs = np.linspace(0.0, 1.0, 1001)
    checked = 0
    for configs in [family] + randoms:
        for config, certified in zip(configs, _certified(configs, kind)):
            if certified:
                checked += 1
                assert not ic_indicator(config, kind, bs).any()     # ic_check at every b
                assert not ic_check(config, kind, 0.5).verdict
    assert checked > 240
    # the floor keeps the pruning from silently doing nothing
    empty = [region.is_empty for region in _ic_regions(CubeFamily(family, kind))]
    certified = _certified(family, kind)
    assert certified.sum() >= {MT: 140, BT: 160}[kind]
    assert not (certified & ~np.array(empty)).any()


def test_region_search_finds_no_roots_for_certified_configs(monkeypatch):
    configs = [four_class_example(float(x)) for x in np.round(np.linspace(0.0, 1.0, 201), 12)]
    num = Numerators(CubeFamily(configs, MT), DEFAULT_TOL)
    live = ~certified_empty(num.coef, num.owner, len(configs))[num.owner]
    seen = []
    monkeypatch.setattr(incentives, "roots",
                        lambda coef, *args: seen.append(coef) or roots(coef, *args))
    _ic_regions(CubeFamily(configs, MT))
    assert len(seen) == 1 and np.array_equal(seen[0], num.coef[live])
    assert live.sum() < 0.3 * len(live)


def test_piece_matrix_gives_bernstein_forms_of_each_eighth():
    rng = np.random.default_rng(11)
    coef = Numerators(CubeFamily([random_config(s, n_range=(4, 4)) for s in range(5)], BT),
                      DEFAULT_TOL).coef
    for d in range(1, 10):
        rows = rng.normal(0.0, 1.0, (20, d + 1)) * 10.0 ** rng.uniform(-3, 9, (20, 1))
        if d == coef.shape[1] - 1:
            rows = np.concatenate((rows, coef))
        pieces = (rows @ _to_pieces(d)).reshape(len(rows), 8, d + 1)
        t = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 30)))    # within each piece
        basis = np.array([comb(d, j) * t ** j * (1.0 - t) ** (d - j) for j in range(d + 1)])
        size = np.abs(rows).sum(axis=1)[:, None]        # |series| <= size on [0, 1]
        for m in range(8):
            value = _value(rows.T[:, :, None], (m + t[None, :]) / 8.0)
            assert np.all(np.abs(pieces[:, m] @ basis - value) <= 1e-12 * size), (d, m)


@pytest.mark.parametrize("kind, lo, hi", [(BT, 0.165, 0.19), (MT, 0.215, 0.27)])
def test_family_regions_equal_single_regions_where_the_certificate_starts(kind, lo, hi):
    # regions turn empty at the low end; the certificate starts to hold near the high end
    configs = [four_class_example(float(x)) for x in np.round(np.arange(lo, hi, 5e-4), 12)]
    regions = _ic_regions(CubeFamily(configs, kind))
    assert regions == [ic_region(config, kind) for config in configs]
    certified = _certified(configs, kind)
    empty = np.array([region.is_empty for region in regions])
    assert certified.any() and (empty & ~certified).any() and (~empty).any()
