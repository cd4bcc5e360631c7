import numpy as np
import pytest

from trustqueue.draws import BUCKETS, cell_table, lookup
from trustqueue.experiments import four_class_example, three_class_example


def _uniforms(cdf, seed=0):
    """Random uniforms plus every bucket edge, every cdf value below 1 and its
    neighbours, 0 and the largest double below 1."""
    below_one = cdf[cdf < 1.0]
    points = [np.random.default_rng(seed).random(20_000), np.arange(BUCKETS) / BUCKETS,
              below_one, np.nextafter(below_one, 0.0), np.nextafter(below_one, 1.0),
              [0.0, np.nextafter(1.0, 0.0)]]
    u = np.concatenate(points)
    return u[u < 1.0]


def _lookup(table, u):
    scratch = np.empty(len(u), np.intp), np.empty(len(u)), np.empty(len(u), bool)
    return lookup(table, u, np.empty(len(u), np.intp), *scratch)


def _clustered():
    """Four cells of probability 1e-5 in a row: their cdf values share one bucket."""
    M = np.full((3, 3), 1e-5)
    M[0, 0], M[2, 2] = 0.6, 0.4 - 7e-5
    M[1, 2] = 1e-5
    return M


CASES = {
    "three-class": three_class_example().matrix.entries,
    "diagonal (four-class, x = 0)": four_class_example(0.0).matrix.entries,
    "cell of probability 1e-12": np.array([[0.3, 1e-12], [0.3, 0.4 - 1e-12]]),
    "several cells in one bucket": _clustered(),
    "n = 1": np.array([[1.0]]),
    "cdf values on bucket edges": np.full((2, 2), 0.25),
}


@pytest.mark.parametrize("name", CASES)
def test_lookup_equals_searchsorted_bit_for_bit(name):
    table = cell_table(CASES[name])
    cdf = table[0]
    u = _uniforms(cdf)
    assert np.array_equal(_lookup(table, u), cdf.searchsorted(u, side="right"))


def test_pass_count_is_the_most_cdf_values_inside_one_bucket():
    assert cell_table(CASES["n = 1"])[2] == 0
    assert cell_table(CASES["cdf values on bucket edges"])[2] == 0
    assert cell_table(CASES["cell of probability 1e-12"])[2] == 2
    cdf, start, passes = cell_table(CASES["several cells in one bucket"])
    assert passes >= 4
    # one pass fewer misses some u: the count is tight
    u = _uniforms(cdf)
    assert not np.array_equal(_lookup((cdf, start, passes - 1), u),
                              cdf.searchsorted(u, side="right"))


@pytest.mark.parametrize("name", CASES)
def test_lookup_draws_what_rng_choice_draws(name):
    M = CASES[name]
    cells = np.random.default_rng(7).choice(M.size, size=5_000, p=(M / M.sum()).ravel())
    u = np.random.default_rng(7).random(5_000)
    assert np.array_equal(_lookup(cell_table(M), u), cells)
