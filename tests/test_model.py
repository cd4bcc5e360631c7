import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustqueue.model import (BadLambdaError, ConfigError, MatrixNotNormalizedError,
                              NegativeEntryError, NonIncreasingSizesError,
                              OverloadedError, PolicySpec, Policy, SizeEstimateMatrix,
                              SizeGrid, diagonal_matrix, load_config,
                              uniform_error_matrix, validate_config)

THREE_CLASS_MATRIX = [
    [0.425, 0.03, 0.01],
    [0.05, 0.255, 0.02],
    [0.025, 0.015, 0.17],
]


def test_three_class_config_is_valid():
    cfg = validate_config(0.5, [1, 2, 3], THREE_CLASS_MATRIX)
    assert cfg.load == pytest.approx(0.8725, abs=1e-12)  # 0.5 * 1.745, by hand
    assert cfg.mean_size == pytest.approx(1.745, abs=1e-12)


def test_unnormalized_matrix_rejected():
    bad = np.array(THREE_CLASS_MATRIX) * 0.9
    with pytest.raises(MatrixNotNormalizedError):
        validate_config(0.5, [1, 2, 3], bad)


def test_overloaded_rejected():
    # uniform sizes {1,2,3}: E[S] = 2, so lambda = 1 gives rho = 2
    uniform = np.full((3, 3), 1 / 9)
    with pytest.raises(OverloadedError):
        validate_config(1.0, [1, 2, 3], uniform)


def test_negative_entry_rejected():
    bad = np.array(THREE_CLASS_MATRIX)
    bad[0, 1] = -0.03
    bad[0, 0] += 0.06
    with pytest.raises(NegativeEntryError):
        SizeEstimateMatrix(bad)
    # NaN compares False against both the sign and the normalization checks
    bad[0, 1] = np.nan
    with pytest.raises(NegativeEntryError, match="got nan"):
        SizeEstimateMatrix(bad)
    with pytest.raises(NegativeEntryError, match="got nan"):
        uniform_error_matrix([np.nan, 1.0], SizeGrid([1, 2]), 0.1)


@pytest.mark.parametrize("sizes", [[2, 1, 3], [1, 1, 2], [0, 1, 2], [-1, 1, 2]])
def test_bad_size_grids_rejected(sizes):
    with pytest.raises(NonIncreasingSizesError):
        SizeGrid(sizes)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan")])
def test_bad_lambda_rejected(lam):
    with pytest.raises(BadLambdaError):
        validate_config(lam, [1, 2, 3], THREE_CLASS_MATRIX)


def test_non_square_matrix_rejected():
    with pytest.raises(ConfigError):
        SizeEstimateMatrix([[0.5, 0.25, 0.25]])


def test_policy_spec_bounds():
    PolicySpec(Policy.MEASURED_TRUST, 0.0)
    PolicySpec(Policy.BLIND_TRUST, 1.0)
    with pytest.raises(ConfigError):
        PolicySpec(Policy.MEASURED_TRUST, 1.2)


def test_marginals_recomputed():
    m = SizeEstimateMatrix(THREE_CLASS_MATRIX)
    np.testing.assert_allclose(m.size_marginal, [0.465, 0.325, 0.21], atol=1e-15)
    np.testing.assert_allclose(m.estimate_marginal, [0.5, 0.3, 0.2], atol=1e-15)


def test_uniform_error_entries_by_hand():
    # 4-class distribution, x = 0.3: diag = S_1 (1 - x) = 0.35, off = S_1 x / 3 = 0.05
    grid = SizeGrid([0.4, 0.8, 1.6, 3.2])
    m = uniform_error_matrix([0.5, 0.25, 0.125, 0.125], grid, 0.3)
    assert m.entries[0, 0] == pytest.approx(0.35, abs=1e-15)
    assert m.entries[0, 1] == pytest.approx(0.05, abs=1e-15)


def test_uniform_error_zero_is_diagonal():
    grid = SizeGrid([1, 2, 3])
    m = uniform_error_matrix([0.2, 0.3, 0.5], grid, 0.0)
    assert np.all(m.entries == np.diag([0.2, 0.3, 0.5]))


def test_single_class_error_rate():
    grid = SizeGrid([2.0])
    assert uniform_error_matrix([1.0], grid, 0.0).entries[0, 0] == 1.0
    with pytest.raises(ConfigError):
        uniform_error_matrix([1.0], grid, 0.1)


@st.composite
def dist_and_x(draw):
    n = draw(st.integers(2, 6))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    total = sum(weights)
    x = draw(st.floats(0.0, 1.0))
    return [w / total for w in weights], x


@given(dist_and_x())
@settings(max_examples=60)
def test_uniform_error_rows_sum_to_dist(dx):
    probs, x = dx
    grid = SizeGrid(np.arange(1, len(probs) + 1, dtype=float))
    m = uniform_error_matrix(probs, grid, x)
    assert abs(m.entries.sum() - 1.0) <= 1e-12
    assert np.all(m.entries >= 0)
    np.testing.assert_allclose(m.entries.sum(axis=1), probs, atol=1e-12)


@given(dist_and_x(), st.floats(1e-6, 0.05))
@settings(max_examples=60)
def test_uniform_error_continuity_in_x(dx, delta):
    probs, x = dx
    x = min(x, 1.0 - delta)
    grid = SizeGrid(np.arange(1, len(probs) + 1, dtype=float))
    a = uniform_error_matrix(probs, grid, x).entries
    b = uniform_error_matrix(probs, grid, x + delta).entries
    assert np.abs(a - b).max() <= delta * max(probs) + 1e-12


@given(dist_and_x())
@settings(max_examples=30)
def test_diagonal_equals_zero_error(dx):
    probs, _ = dx
    grid = SizeGrid(np.arange(1, len(probs) + 1, dtype=float))
    assert np.all(diagonal_matrix(probs, grid).entries
                  == uniform_error_matrix(probs, grid, 0.0).entries)


def test_load_config_matrix_layout(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": 0.5, "sizes": [1, 2, 3],
                                "matrix": THREE_CLASS_MATRIX}))
    cfg = load_config(path)
    assert cfg.lam == 0.5
    assert cfg.load == pytest.approx(0.8725)


def test_load_config_error_rate_layout(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": 0.8, "sizes": [0.4, 0.8, 1.6, 3.2],
                                "size_probs": [0.5, 0.25, 0.125, 0.125],
                                "error_rate": 0.3}))
    cfg = load_config(path)
    assert cfg.matrix.entries[0, 0] == pytest.approx(0.35)
    np.testing.assert_allclose(cfg.matrix.size_marginal, [0.5, 0.25, 0.125, 0.125],
                               atol=1e-12)


def test_load_config_missing_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda": 0.5, "sizes": [1, 2]}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_near_normalized_matrix_renormalized():
    m = np.array(THREE_CLASS_MATRIX)
    m[0, 0] += 5e-13  # inside the 1e-12 tolerance
    got = SizeEstimateMatrix(m)
    assert got.entries.sum() == pytest.approx(1.0, abs=1e-15)
