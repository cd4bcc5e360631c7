import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import random_config
from trustqueue import rank_boundaries
from trustqueue.experiments import four_class_example, rare_long_job_example, three_class_example
from trustqueue.incentives import delta_grid, ic_check, ic_indicator, ic_region
from trustqueue.model import ConfigError, Policy, SizeGrid, diagonal_matrix, validate_config
from trustqueue.soap import (CubeFamily, estimate_means, fcfs_mean_response, overall_curve,
                             rank_function, relevant_size_moments, response_cube, response_table,
                             scf_mean_response)

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST

# hand-derived constants for the three-class workload (lambda = 0.5)
FCFS_THREE_CLASS = 8.911666666666667      # 1.745 + 0.5 * 3.655 / (2 * 0.1275)
SCF_THREE_CLASS = 13.000994623655914      # sum S_i * per_size[i], worked by hand
FCFS_FOUR_CLASS = 4.68                    # 1 + 0.8 * 1.84 / 0.4


@pytest.mark.parametrize("b", [0.0, 0.43, 1.0])
def test_first_rank_moment_three_class(three_class, b):
    # column j=1 carries mass 0.5 and every MeasuredTrust ell=1 case value is z_1 = 1;
    # BlindTrust differs: a spared underestimator consumes its whole size at rank 1
    table = relevant_size_moments(three_class, MT, b)
    assert table.m1[1] == pytest.approx(0.5, abs=1e-12)
    bt = relevant_size_moments(three_class, BT, 0.0)
    assert bt.m1[1] == pytest.approx(0.6, abs=1e-12)  # 0.425 + 0.05*2 + 0.025*3


@pytest.mark.parametrize("kind", [MT, BT])
def test_moment_table_edges(three_class, kind):
    table = relevant_size_moments(three_class, kind, 0.37)
    assert table.m1[0] == 0.0 and table.m2[0] == 0.0
    assert table.m1[4] == pytest.approx(1.745, abs=1e-12)
    assert table.m2[4] == pytest.approx(3.655, abs=1e-12)
    assert table.rho[4] == pytest.approx(0.8725, abs=1e-12)


@given(st.integers(0, 2**31), st.floats(0.0, 1.0), st.sampled_from([MT, BT]))
@settings(max_examples=40, deadline=None)
def test_moments_match_reference(seed, b, kind):
    config = random_config(seed)
    table = relevant_size_moments(config, kind, b)
    m1, m2, rho = reference.moments(config, kind, b)
    np.testing.assert_allclose(table.m1, m1, atol=1e-12)
    np.testing.assert_allclose(table.m2, m2, atol=1e-12)
    np.testing.assert_allclose(table.rho, rho, atol=1e-12)


@given(st.integers(0, 2**31), st.floats(0.0, 1.0), st.sampled_from([MT, BT]))
@settings(max_examples=40, deadline=None)
def test_responses_match_reference(seed, b, kind):
    config = random_config(seed, n_range=(2, 8))
    table = response_table(config, kind, b)
    # the conditional planes are NaN exactly where no overrun is possible
    no_overrun = np.arange(config.n)[:, None] <= np.arange(config.n)[None, :]
    np.testing.assert_array_equal(np.isnan(table.u_punished), no_overrun)
    np.testing.assert_array_equal(np.isnan(table.u_unpunished), no_overrun)
    for i in range(config.n):
        for k in range(config.n):
            u, pun, spared = reference.u_value(config, kind, b, i, k)
            assert table.U[i, k] == pytest.approx(u, rel=1e-12)
            if i > k:
                assert table.u_punished[i, k] == pytest.approx(pun, rel=1e-12)
                assert table.u_unpunished[i, k] == pytest.approx(spared, rel=1e-12)


@given(st.integers(0, 2**31), st.sampled_from([MT, BT]))
@settings(max_examples=30, deadline=None)
def test_cube_over_b_vector_equals_single_b_cubes(seed, kind):
    # batched callers (region bisection) rely on each b column being bit-identical
    config = random_config(seed, n_range=(2, 8))
    bs = np.concatenate([[0.0, 1.0], np.random.default_rng(seed).uniform(0.0, 1.0, 6)])
    cube = response_cube(config, kind, bs)
    for t, b in enumerate(bs):
        for whole, single in zip(cube, response_cube(config, kind, [b])):
            assert np.array_equal(whole[:, :, t], single[:, :, 0], equal_nan=True)


@pytest.mark.parametrize("kind", [MT, BT])
def test_empty_system_limit(kind):
    config = validate_config(1e-9, [1, 2, 3],
                             [[0.425, 0.03, 0.01], [0.05, 0.255, 0.02], [0.025, 0.015, 0.17]])
    table = response_table(config, kind, 0.5)
    for i in range(3):
        for k in range(3):
            assert table.U[i, k] == pytest.approx(config.sizes[i], abs=1e-6)


def test_underestimate_indifference_exact(three_class):
    # a size-3 job's response does not depend on which underestimate it declares
    table = response_table(three_class, MT, 0.43)
    assert table.U[2, 0] == table.U[2, 1]


@given(st.integers(0, 2**31), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_underestimate_indifference_random(seed, b):
    config = random_config(seed)
    table = response_table(config, MT, b)
    for i in range(2, config.n):
        for k in range(i - 1):
            assert table.U[i, k] == table.U[i, k + 1]


def test_spared_overrun_equals_honest(three_class):
    # an unpunished MeasuredTrust underestimator ends up exactly like an honest job
    for b in (0.1, 0.43, 0.9):
        table = response_table(three_class, MT, b)
        assert table.u_unpunished[2, 1] == table.U[2, 2]
        assert table.u_unpunished[2, 0] == table.U[2, 2]
        assert table.u_unpunished[1, 0] == table.U[1, 1]


@given(st.integers(0, 2**31), st.floats(0.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_blind_trust_spared_matches_safe_form(seed, b):
    # the spared-overrun formula is the same expression as the i <= k case
    config = random_config(seed)
    table = response_table(config, BT, b)
    for i in range(config.n):
        for k in range(i):
            _, _, spared = reference.u_value(config, BT, b, i, k)
            assert table.u_unpunished[i, k] == pytest.approx(spared, rel=1e-12)


@given(st.integers(0, 2**31), st.floats(0.0, 1.0), st.sampled_from([MT, BT]))
@settings(max_examples=40, deadline=None)
def test_response_at_least_size(seed, b, kind):
    config = random_config(seed)
    table = response_table(config, kind, b)
    for i in range(config.n):
        assert np.all(table.U[i, :] >= config.sizes[i] - 1e-12)


@given(st.integers(0, 2**31), st.floats(0.0, 1.0), st.sampled_from([MT, BT]))
@settings(max_examples=40, deadline=None)
def test_moment_monotone_in_rank(seed, b, kind):
    table = relevant_size_moments(random_config(seed), kind, b)
    assert np.all(np.diff(table.m1) >= -1e-12)
    assert np.all(np.diff(table.m2) >= -1e-12)


@given(st.integers(0, 2**31), st.sampled_from([MT, BT]))
@settings(max_examples=25, deadline=None)
def test_moments_nonincreasing_in_b(seed, kind):
    config = random_config(seed)
    bs = np.round(np.arange(0, 1.001, 0.01), 10)
    m1 = np.array([relevant_size_moments(config, kind, b).m1 for b in bs])
    m2 = np.array([relevant_size_moments(config, kind, b).m2 for b in bs])
    assert np.all(np.diff(m1, axis=0) <= 1e-12)
    assert np.all(np.diff(m2, axis=0) <= 1e-12)


@given(st.integers(0, 2**31), st.sampled_from([MT, BT]))
@settings(max_examples=40, deadline=None)
def test_zero_punishment_load_identity(seed, kind):
    config = random_config(seed)
    table = relevant_size_moments(config, kind, 0.0)
    assert table.rho[config.n] == pytest.approx(config.load, abs=1e-12)


@given(st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_derivative_ordering_measured_trust(seed):
    # slope of E[T_jk] in b weakly decreases as the declaration k grows
    config = random_config(seed)
    bs = np.round(np.arange(0, 1.001, 0.01), 10)
    M = config.matrix.entries
    R = config.matrix.estimate_marginal
    tables = [response_table(config, MT, b) for b in bs]
    for j in range(config.n):
        if R[j] <= 0:
            continue
        T = np.array([[M[:, j] @ t.U[:, k] / R[j] for k in range(config.n)] for t in tables])
        slopes = np.diff(T, axis=0)  # (len(bs)-1, n), column k
        for k in range(config.n - 1):
            assert np.all(slopes[:, k] >= slopes[:, k + 1] - 1e-9)


def test_response_table_conditionals(three_class):
    table = response_table(three_class, MT, 0.43)
    assert table.U[2, 0] == pytest.approx(
        0.43 * table.u_punished[2, 0] + 0.57 * table.u_unpunished[2, 0], rel=1e-12)
    assert np.isnan(table.u_punished[0, 2]) and np.isnan(table.u_unpunished[0, 2])


def test_fcfs_three_class(three_class):
    assert fcfs_mean_response(three_class) == pytest.approx(FCFS_THREE_CLASS, abs=1e-12)


def test_fcfs_four_class(four_class):
    assert fcfs_mean_response(four_class) == pytest.approx(FCFS_FOUR_CLASS, abs=1e-12)


def test_fcfs_empty_system_limit():
    config = validate_config(1e-12, [1, 2, 3], np.diag([0.465, 0.325, 0.21]))
    assert fcfs_mean_response(config) == pytest.approx(config.mean_size, abs=1e-9)


def test_scf_three_class(three_class):
    overall, per_size = scf_mean_response(three_class)
    assert overall == pytest.approx(SCF_THREE_CLASS, rel=1e-12)
    assert per_size[0] == pytest.approx(1.5, rel=1e-12)  # hand: 0.5/(2*0.5) + 1


def test_scf_single_class_equals_fcfs():
    config = validate_config(0.3, [2.0], [[1.0]])
    overall, _ = scf_mean_response(config)
    assert overall == pytest.approx(fcfs_mean_response(config), rel=1e-12)


@pytest.mark.parametrize("kind", [MT, BT])
@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
def test_single_class_trust_policies_equal_fcfs(kind, b):
    # with one size class every policy degenerates to FCFS
    config = validate_config(0.3, [2.0], [[1.0]])
    table = response_table(config, kind, b)
    assert table.overall == pytest.approx(fcfs_mean_response(config), rel=1e-12)


def test_scf_point_mass_equals_fcfs():
    grid = SizeGrid([1, 2, 3])
    config = validate_config(0.5, [1, 2, 3], diagonal_matrix([1.0, 0.0, 0.0], grid).entries)
    overall, _ = scf_mean_response(config)
    assert overall == pytest.approx(fcfs_mean_response(config), rel=1e-12)


def _psjf_mean_response(lam, probs, sizes):
    """Preemptive shortest job first with exact sizes, from its closed form.

    E[T_i] = z_i / (1 - s_{<i}) + lam sum_{l<=i} p_l z_l^2 / (2 (1 - s_{<i}) (1 - s_{<=i})),
    with s_{<i} = lam sum_{l<i} p_l z_l.
    """
    total, below, second = 0.0, 0.0, 0.0
    for p, z in zip(probs, sizes):
        upto = below + lam * p * z
        second += p * z * z
        total += p * (z / (1 - below) + lam * second / (2 * (1 - below) * (1 - upto)))
        below = upto
    return total


@pytest.mark.parametrize("preset", [three_class_example, four_class_example,
                                    rare_long_job_example])
def test_perfect_estimates_give_preemptive_sjf_at_every_b(preset):
    # with a diagonal matrix no job overruns, so neither the punishment nor
    # the trust policy matters and each class is served as under PSJF
    config = preset()
    probs = config.matrix.size_marginal
    perfect = validate_config(config.lam, config.sizes,
                              diagonal_matrix(probs, config.grid).entries)
    expected = _psjf_mean_response(config.lam, probs, config.sizes)
    for kind in (MT, BT):
        np.testing.assert_allclose(overall_curve(perfect, kind, np.linspace(0.0, 1.0, 11)),
                                   expected, rtol=1e-12, atol=0)
    if preset is three_class_example:
        assert expected == pytest.approx(6.62945, abs=5e-6)


@given(st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_scf_matches_reference(seed):
    config = random_config(seed, n_range=(1, 8))
    overall, per_size = scf_mean_response(config)
    ref_overall, ref_per_size = reference.scf(config)
    assert overall == pytest.approx(ref_overall, rel=1e-12)
    np.testing.assert_allclose(per_size, ref_per_size, rtol=1e-12)
    # FCFS against the Pollaczek-Khinchine mean E[S] + lam E[S^2] / (2 (1 - rho))
    S, z = config.matrix.size_marginal, config.sizes
    es, es2 = float(S @ z), float(S @ z**2)
    pk = es + config.lam * es2 / (2.0 * (1.0 - config.lam * es))
    assert fcfs_mean_response(config) == pytest.approx(pk, rel=1e-12)


@pytest.mark.parametrize("kind", [Policy.FCFS, Policy.SCF])
def test_blind_policies_through_the_cube(kind):
    # the punishment coin moves no blind job, so U depends only on the true size
    for config in (three_class_example(), four_class_example(), rare_long_job_example()):
        mean = fcfs_mean_response(config) if kind == Policy.FCFS else scf_mean_response(config)[0]
        U = response_table(config, kind, 0.0).U
        assert (U == U[:, :1]).all()
        for b in (0.37, 1.0):
            table = response_table(config, kind, b)
            assert (table.U == U).all() and table.overall == mean
            assert np.isnan(table.u_punished).all() and np.isnan(table.u_unpunished).all()
        assert (ic_check(config, kind, 0.5).deltas == 0.0).all()
        assert [(iv.lo, iv.hi) for iv in ic_region(config, kind).intervals] == [(0.0, 1.0)]


def test_rank_function_cases():
    grid = SizeGrid([1, 2, 3])
    assert rank_function(grid, MT, k=1, punished=False, age=0.5) == 2
    assert rank_function(grid, MT, k=0, punished=False, age=1.5) == 2
    assert rank_function(grid, MT, k=0, punished=False, age=2.5) == 3
    assert rank_function(grid, MT, k=0, punished=True, age=1.5) == 4
    assert rank_function(grid, BT, k=0, punished=False, age=2.5) == 1
    assert rank_function(grid, BT, k=0, punished=True, age=2.5) == 4
    for k in range(3):
        for age, rank in ((0.5, 1), (1.5, 2), (2.5, 3)):
            assert rank_function(grid, Policy.FCFS, k=k, punished=True, age=age) == 1
            assert rank_function(grid, Policy.SCF, k=k, punished=False, age=age) == rank


@given(st.integers(0, 2**31), st.booleans(), st.sampled_from(list(Policy)))
@settings(max_examples=40, deadline=None)
def test_rank_function_monotone_in_age(seed, punished, kind):
    config = random_config(seed)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, config.n))
    ages = np.sort(rng.uniform(0, float(config.sizes[-1]) * 1.2, 25))
    ranks = [rank_function(config.grid, kind, k, punished, a) for a in ages]
    assert all(r1 <= r2 for r1, r2 in zip(ranks, ranks[1:]))
    assert all(1 <= r <= config.n + 1 for r in ranks)


def test_rank_function_spared_measured_trust_tops_out_at_rank_n():
    # an unpunished MeasuredTrust job climbs to rank n, never to the punished rank n+1
    grid = SizeGrid([1, 2, 3])
    for k in range(3):
        for age in (3.0, 3.5):
            assert rank_function(grid, MT, k=k, punished=False, age=age) == 3


@given(st.integers(0, 2**31), st.booleans(), st.sampled_from([MT, BT]))
@settings(max_examples=40, deadline=None)
def test_rank_function_follows_rank_boundaries(seed, punished, kind):
    config = random_config(seed)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, config.n))
    crossings = rank_boundaries(kind, config.sizes, k, punished)
    ages = np.concatenate((config.sizes, rng.uniform(0, float(config.sizes[-1]) * 1.2, 25)))
    for age in ages:
        expected = k + 1
        for at, rank in crossings:
            if age >= at:
                expected = rank
        assert rank_function(config.grid, kind, k, punished, age) == expected


def test_response_table_overall_consistent(three_class):
    table = response_table(three_class, MT, 0.3)
    R = three_class.matrix.estimate_marginal
    assert table.overall == pytest.approx(sum(R[j] * table.T[j, j] for j in range(3)),
                                          rel=1e-12)
    curve = overall_curve(three_class, MT, [0.3])
    assert curve[0] == pytest.approx(table.overall, rel=1e-12)


def test_response_table_equals_what_the_verdicts_decide_on():
    # analyze prints T and overall: they must be the numbers ic_check and the curve use
    rng = np.random.default_rng(11)
    for seed in range(200):
        config = random_config(seed, n_range=(1, 8))
        for kind in (MT, BT):
            for b in (0.0, 1.0, float(rng.uniform())):
                table = response_table(config, kind, b)
                U = response_cube(config, kind, [b])[0]
                assert np.array_equal(table.T, estimate_means(config.matrix.entries, U)[:, :, 0],
                                      equal_nan=True), (seed, kind, b)
                assert table.overall == overall_curve(config, kind, [b])[0], (seed, kind, b)


def test_zero_probability_estimate_column():
    # estimates never equal the middle size: column 1 empty
    entries = np.array([
        [0.40, 0.0, 0.06],
        [0.20, 0.0, 0.10],
        [0.04, 0.0, 0.20],
    ])
    config = validate_config(0.4, [1, 2, 3], entries)
    table = response_table(config, MT, 0.5)
    assert table.undefined_estimates == (1,)
    assert np.isnan(table.T[1]).all()
    assert np.isfinite(table.T[0]).all() and np.isfinite(table.T[2]).all()
    assert np.isfinite(table.overall)


@pytest.mark.parametrize("b", [float("nan"), -0.1, 1.5])
def test_library_rejects_invalid_b(three_class, b):
    single = [response_table, relevant_size_moments]
    grid = [response_cube, overall_curve, delta_grid, ic_indicator]
    calls = [(f, b) for f in single] + [(f, bs) for f in grid for bs in ([b], [0.3, b, 0.7])]
    for f, arg in calls:
        for kind in (MT, BT):
            with pytest.raises(ConfigError, match=r"punishment probability must be in \[0, 1\]"):
                f(three_class, kind, arg)


@pytest.mark.parametrize("kind", [Policy.MEASURED_TRUST, Policy.BLIND_TRUST])
def test_family_moment_coefficients_match_moment_tables(kind):
    # one broadcast builds every config's coefficients; none may take another's values
    configs = [random_config(seed, n_range=(5, 5)) for seed in range(6)]
    a1, d1, a2, d2 = CubeFamily(configs, kind).coeffs
    for c, config in enumerate(configs):
        at0 = relevant_size_moments(config, kind, 0.0)
        at1 = relevant_size_moments(config, kind, 1.0)
        assert np.array_equal(a1[c], at0.m1) and np.array_equal(a2[c], at0.m2)
        np.testing.assert_allclose(a1[c] + d1[c], at1.m1, rtol=1e-13)
        np.testing.assert_allclose(a2[c] + d2[c], at1.m2, rtol=1e-13)
