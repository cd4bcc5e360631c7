import ast
import csv
import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import random_config
from event_sim import run_replication as event_replication
from trustqueue import sim
from trustqueue.experiments import four_class_example, three_class_example
from trustqueue.incentives import ic_region
from trustqueue.model import Policy, PolicySpec, validate_config
from trustqueue.ranks import rank_boundaries, rank_path_table
from trustqueue.sim import SimConfig, _run_replication, _tables, _workspace, mix64, simulate
from trustqueue.soap import (fcfs_mean_response, response_table, scf_mean_response)

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST

# sha256 of repr(simulate(...)) at the six oracle points and of one trace CSV;
# any change to the draws, the sample paths or the estimates changes it
SIM_SHA256 = "ac9a0e934a63d4cdd5d57bd21bcfa68eda004b85e6da2cac27bbb7c4a4f13bf6"

THREE_CLASS_MATRIX = [
    [0.425, 0.03, 0.01],
    [0.05, 0.255, 0.02],
    [0.025, 0.015, 0.17],
]


def test_rank_boundaries_cases():
    grid = np.array([1.0, 2.0, 3.0])
    assert rank_boundaries(MT, grid, k=0, punished=False) == [(1.0, 2), (2.0, 3)]
    assert rank_boundaries(MT, grid, k=0, punished=True) == [(1.0, 4)]
    assert rank_boundaries(MT, grid, k=2, punished=False) == []
    assert rank_boundaries(BT, grid, k=1, punished=False) == []
    assert rank_boundaries(BT, grid, k=1, punished=True) == [(2.0, 4)]
    assert rank_boundaries(Policy.FCFS, grid, k=1, punished=True) == []
    assert rank_boundaries(Policy.SCF, grid, k=2, punished=False) \
        == [(1.0, 2), (2.0, 3)]


def test_mix64_stable():
    # the replication seed-splitting rule is part of the reproducibility contract
    assert mix64(0) == 16294208416658607535
    assert mix64(12345) != mix64(12346)


def test_determinism(three_class):
    sim_cfg = SimConfig(job_count=20_000, seed=99, replications=2)
    a = simulate(three_class, PolicySpec(MT, 0.3), sim_cfg)
    b = simulate(three_class, PolicySpec(MT, 0.3), sim_cfg)
    assert a.overall == b.overall
    assert a.per_cell == b.per_cell
    assert a.time_avg_in_system == b.time_avg_in_system


def test_fcfs_matches_closed_form(three_class):
    res = simulate(three_class, PolicySpec(Policy.FCFS),
                   SimConfig(job_count=150_000, seed=4, replications=5))
    assert res.overall.contains(fcfs_mean_response(three_class))


def test_empty_system_limit():
    config = validate_config(0.001, [1, 2, 3], THREE_CLASS_MATRIX)
    res = simulate(config, PolicySpec(MT, 0.5),
                   SimConfig(job_count=20_000, seed=5, replications=3))
    assert res.overall.contains(config.mean_size)


def test_measured_trust_matches_closed_form(three_class):
    analytic = response_table(three_class, MT, 0.43)
    res = simulate(three_class, PolicySpec(MT, 0.43),
                   SimConfig(job_count=150_000, seed=6, replications=5,
                             probe_probability=0.0))
    assert res.overall.contains(analytic.overall)
    for j, est in res.per_class.items():
        assert est.contains(analytic.T[j, j]), (j, est, analytic.T[j, j])


def test_blind_trust_matches_closed_form(three_class):
    analytic = response_table(three_class, BT, 0.81)
    res = simulate(three_class, PolicySpec(BT, 0.81),
                   SimConfig(job_count=150_000, seed=7, replications=5,
                             probe_probability=0.0))
    assert res.overall.contains(analytic.overall)


def test_scf_matches_closed_form(three_class):
    overall, _ = scf_mean_response(three_class)
    res = simulate(three_class, PolicySpec(Policy.SCF),
                   SimConfig(job_count=150_000, seed=8, replications=5))
    assert res.overall.contains(overall)


def test_probe_cells_match_closed_form(three_class):
    # default sparse probe rate: the O(p) equilibrium perturbation sits well
    # inside the replication CI at this scale
    analytic = response_table(three_class, MT, 0.43)
    res = simulate(three_class, PolicySpec(MT, 0.43),
                   SimConfig(job_count=200_000, seed=9, replications=5,
                             probe_probability=0.005))
    assert res.per_cell, "probes should populate every (i, k) cell"
    for (i, k), est in res.per_cell.items():
        assert est.contains(analytic.U[i, k]), ((i, k), est, analytic.U[i, k])


def test_entries_seen_in_only_some_replications_are_named(three_class):
    # about 2 probes per replication, so no probe cell is seen in all three
    res = simulate(three_class, PolicySpec(MT, 0.4),
                   SimConfig(job_count=200, seed=12345, replications=3,
                             probe_probability=0.01))
    assert res.per_cell == {} and res.dropped_cells
    assert set(res.per_class) == {0, 1, 2} and res.dropped_classes == ()
    res = simulate(three_class, PolicySpec(MT, 0.4),
                   SimConfig(job_count=200, seed=12345, replications=3, probe_probability=0.0))
    assert res.per_cell == {} and res.dropped_cells == ()


def test_littles_law(three_class):
    res = simulate(three_class, PolicySpec(MT, 0.43),
                   SimConfig(job_count=150_000, seed=10, replications=5,
                             probe_probability=0.0))
    expected_n = res.arrival_rate_measured * res.overall.mean
    slack = 3 * res.time_avg_in_system.half_width95 + 0.02 * expected_n
    assert abs(res.time_avg_in_system.mean - expected_n) <= slack


def test_not_stabilized_warning():
    config = validate_config(0.985 / 1.745, [1, 2, 3], THREE_CLASS_MATRIX)
    with pytest.warns(RuntimeWarning):
        simulate(config, PolicySpec(Policy.FCFS),
                 SimConfig(job_count=5_000, seed=2, replications=1))


def test_trace_output(three_class, tmp_path):
    path = tmp_path / "trace.csv"
    sim_cfg = SimConfig(job_count=3_000, seed=12, replications=1)
    simulate(three_class, PolicySpec(MT, 0.4), sim_cfg, trace_path=path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    # warmup prefix is excluded from the trace
    assert 0 < len(rows) <= 2_700
    sizes = [1.0, 2.0, 3.0]
    for row in rows:
        assert float(row["response_time"]) >= sizes[int(row["size_index"])] - 1e-9
        assert row["punish_coin"] in ("0", "1") and row["is_probe"] in ("0", "1")
        assert 0 <= int(row["declared_index"]) < 3


def test_trace_requires_single_replication(three_class, tmp_path):
    with pytest.raises(ValueError):
        simulate(three_class, PolicySpec(MT, 0.4),
                 SimConfig(job_count=1_000, seed=1, replications=2),
                 trace_path=tmp_path / "t.csv")


@pytest.mark.parametrize("policy", [PolicySpec(Policy.FCFS), PolicySpec(Policy.SCF),
                                    PolicySpec(MT, 0.43), PolicySpec(BT, 0.81),
                                    PolicySpec(BT, 0.5)])
def test_whole_result_independent_of_worker_count(three_class, policy):
    # a probe rate high enough that every replication records every cell
    sim_cfg = SimConfig(job_count=6_000, seed=33, replications=4, probe_probability=0.2)
    results = [simulate(three_class, policy, sim_cfg, workers=w) for w in (1, 2, 3)]
    assert len(results[0].per_cell) == 9 and not results[0].dropped_cells
    assert results[1] == results[0]
    assert results[2] == results[0]
    # ten replications on three threads, each taking the next seed as it frees up
    ten = replace(sim_cfg, replications=10)
    assert simulate(three_class, policy, ten, workers=3) == simulate(three_class, policy, ten)


@pytest.mark.parametrize("workers", [0, -3])
def test_simulate_rejects_fewer_than_one_worker(three_class, workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        simulate(three_class, PolicySpec(MT, 0.43), SimConfig(job_count=1_000), workers=workers)


@pytest.mark.parametrize("job_count, warmup", [(1, 0.1), (1, 0.0), (2, 0.5), (10, 0.9)])
def test_sim_config_rejects_fewer_than_two_recorded_jobs(job_count, warmup):
    with pytest.raises(ValueError, match="at least 2 are needed"):
        SimConfig(job_count=job_count, warmup_fraction=warmup)


@pytest.mark.parametrize("field, value", [("job_count", 2000.0), ("replications", 2.0),
                                          ("seed", 1.5), ("replications", True),
                                          ("job_count", "2000")])
def test_sim_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
        SimConfig(**{"job_count": 2_000, field: value})


@pytest.mark.parametrize("workers", [1.5, 2.0, True])
def test_simulate_rejects_non_integer_workers(three_class, workers):
    with pytest.raises(ValueError, match="workers must be an integer, got"):
        simulate(three_class, PolicySpec(MT, 0.43), SimConfig(job_count=1_000), workers=workers)


def test_numpy_integer_counts_run_as_python_ints(three_class):
    sim_cfg = SimConfig(job_count=np.int64(2_000), seed=np.uint32(3), replications=np.int16(2))
    assert sim_cfg == SimConfig(job_count=2_000, seed=3, replications=2)
    assert {type(v) for v in (sim_cfg.job_count, sim_cfg.seed, sim_cfg.replications)} == {int}
    policy = PolicySpec(MT, 0.4)
    assert (simulate(three_class, policy, sim_cfg, workers=np.int64(2))
            == simulate(three_class, policy, SimConfig(job_count=2_000, seed=3, replications=2)))


def test_sim_config_accepts_two_recorded_jobs():
    SimConfig(job_count=2, warmup_fraction=0.1)
    SimConfig(job_count=10, warmup_fraction=0.8)


# --- per-job equality with the discrete-event oracle on shared draws ---

def _case(config, policy, job_count, seed, probe_p, warmup=0.1):
    sim_cfg = SimConfig(job_count=job_count, warmup_fraction=warmup, probe_probability=probe_p)
    return config, policy, sim_cfg, seed


def _replicate(case, ws):
    """sim's replication of the case, with its trace, in workspace ws."""
    config, policy, sim_cfg, seed = case
    return _run_replication(config, policy, sim_cfg, seed, ws, _tables(config, policy), True)


def _event_loop(case):
    """event_sim's replication of the case, its result dict as sim's bin totals."""
    config, policy, sim_cfg, seed = case
    got = event_replication((config.sizes, config.matrix.entries, config.lam, policy.kind.value,
                             policy.b, sim_cfg.job_count, sim_cfg.warmup_fraction,
                             sim_cfg.probe_probability, seed, True))
    tot = got["class_sum"] + sum(got["cell_sum"], [])
    cnt = got["class_cnt"] + sum(got["cell_cnt"], [])
    return np.array(tot), np.array(cnt), got["area"], got["window"], got["trace"]


def _assert_matches_event_loop(case):
    got = _replicate(case, _workspace(case[2].job_count))
    want = _event_loop(case)
    np.testing.assert_array_equal(got[1], want[1])
    for g, w, key in zip(got[::2], want[::2], ("tot", "area", "window")):
        np.testing.assert_allclose(g, w, rtol=1e-9, atol=0, err_msg=key)
    got_rows, want_rows = np.array(got[4], dtype=float), np.array(want[4], dtype=float)
    assert got_rows.shape == want_rows.shape
    # same jobs in the same completion order, same per-job fields
    np.testing.assert_array_equal(got_rows[:, :6], want_rows[:, :6])
    assert np.max(np.abs(got_rows[:, 6] - want_rows[:, 6])) <= 1e-8


def _oracle_points():
    three = three_class_example()
    four = four_class_example(0.1)
    points = [(three, PolicySpec(Policy.FCFS)), (three, PolicySpec(Policy.SCF)),
              (three, PolicySpec(MT, 0.43)), (three, PolicySpec(BT, 0.81))]
    for kind in (MT, BT):
        iv = ic_region(four, kind).intervals[0]
        points.append((four, PolicySpec(kind, 0.5 * (iv.lo + iv.hi))))
    return points


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replication_matches_event_loop_at_benchmark_points(seed):
    for config, policy in _oracle_points():
        _assert_matches_event_loop(_case(config, policy, 20_000, seed, 0.005))


@pytest.mark.parametrize("c", range(24))
def test_replication_matches_event_loop_on_random_configs(c):
    config = random_config(500 + c, n_range=(2, 6), max_load=0.97)
    b = float(np.random.default_rng(c).uniform())
    for kind in Policy:
        _assert_matches_event_loop(_case(config, PolicySpec(kind, b), 3_000, 100 + c, 0.02))
    # b = 0 leaves the punishment level empty, b = 1 punishes every overrun
    for kind in (MT, BT):
        for edge in (0.0, 1.0):
            _assert_matches_event_loop(
                _case(config, PolicySpec(kind, edge), 3_000, 100 + c, 0.02))


def _gapped_config():
    """Three classes, none of size 2 or estimate 2: rank level 2 is always empty."""
    return validate_config(0.2, [1, 2, 3], [[0.5, 0.0, 0.1], [0.0, 0.0, 0.0], [0.1, 0.0, 0.3]])


def _final_ranks(case, result):
    """Each traced job's final rank, in arrival order."""
    rows = sorted(result[4])
    i, k, coin = (np.array([row[c] for row in rows], dtype=int) for c in (1, 3, 4))
    _, final = rank_path_table(case[1].kind, case[0].sizes)
    return final[i, k, coin]


def test_replication_raises_no_floating_point_warning(three_class):
    # every policy at b = 0, 0.5 and 1, on a config whose job 0 ends above
    # level 1 and on one with an empty level below an occupied one
    seen_job0_above_1 = seen_gap = False
    for config in (three_class, _gapped_config()):
        for kind in Policy:
            for b in (0.0, 0.5, 1.0):
                case = _case(config, PolicySpec(kind, b), 2_000, 4, 0.02, warmup=0.0)
                with np.errstate(all="raise"):
                    got = _replicate(case, _workspace(2_000))
                final = _final_ranks(case, got)
                levels = np.bincount(final)
                seen_job0_above_1 |= bool(final[0] > 1)
                seen_gap |= bool((levels[1:] == 0).any())
                _assert_matches_event_loop(case)
    assert seen_job0_above_1 and seen_gap


def _filled_workspace(job_count):
    ws = _workspace(job_count)
    for buf in ws.values():
        buf.fill(np.nan if buf.dtype.kind == "f" else True if buf.dtype == bool else -1)
    return ws


def test_reused_workspace_leaks_nothing(three_class, four_class):
    # A has more rank levels than B; on one workspace, each run must equal
    # the same run on a fresh one
    a = _case(four_class, PolicySpec(MT, 0.3), 4_000, 7, 0.05)
    b = _case(three_class, PolicySpec(Policy.SCF), 4_000, 8, 0.05)
    ws = _filled_workspace(4_000)
    for case in (a, b, a):
        got, want = _replicate(case, ws), _replicate(case, _filled_workspace(4_000))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2:] == want[2:]


def test_rank_path_table_three_class_mt():
    xle, final = rank_path_table(MT, np.array([1.0, 2.0, 3.0]))
    # size 3 declaring 0, spared: climbs 1 -> 2 -> 3; punished: 1 -> 4 at age 1
    assert xle[2, 0, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 3.0]
    assert final[2, 0, 0] == 3
    assert xle[2, 0, 1].tolist() == [0.0, 1.0, 1.0, 1.0, 3.0]
    assert final[2, 0, 1] == 4
    # a job that fits its declaration never crosses: completion wins the tie
    assert xle[1, 1, 1].tolist() == [0.0, 0.0, 2.0, 2.0, 2.0]
    assert final[1, 1, 1] == 2


def test_rank_path_table_is_shared_and_read_only():
    # the table depends only on the policy kind and the sizes, and every caller shares it
    sizes = np.array([1.0, 2.0, 3.0])
    xle, final = rank_path_table(MT, sizes)
    again, final_again = rank_path_table(MT, sizes.tolist())
    assert np.array_equal(xle, again) and np.array_equal(final, final_again)
    with pytest.raises(ValueError):
        xle[2, 0, 0, 1] = 7.0
    with pytest.raises(ValueError):
        final[2, 0, 0] = 1


def test_simulate_output_digest(tmp_path):
    # the benchmark's oracle points: the b of each four-class point is the
    # midpoint of its x = 0.1 IC region, written out so that only sim is pinned
    three, four = three_class_example(), four_class_example(0.1)
    points = [(three, PolicySpec(Policy.FCFS)), (three, PolicySpec(Policy.SCF)),
              (three, PolicySpec(MT, 0.43)), (three, PolicySpec(BT, 0.81)),
              (four, PolicySpec(MT, 0.306767031766712)),
              (four, PolicySpec(BT, 0.4862362759818982))]
    digest = hashlib.sha256()
    for p, (config, policy) in enumerate(points):
        sim_cfg = SimConfig(job_count=20_000, seed=8_100 + 4 * p, replications=4)
        digest.update(repr(simulate(config, policy, sim_cfg, workers=2)).encode())
    path = tmp_path / "trace.csv"
    simulate(four, PolicySpec(MT, 0.3), SimConfig(job_count=5_000, seed=77, replications=1,
                                                  probe_probability=0.05), trace_path=path)
    digest.update(path.read_bytes())
    assert digest.hexdigest() == SIM_SHA256



def _scalar_estimate(values, count):
    """One column's estimate, computed alone: its own 1-d mean and standard
    deviation and scipy.stats' t quantile, independent of simulate's pass."""
    from scipy import stats

    r = len(values)
    if r == 1:
        return sim.SimEstimate(float(values.mean()), float("inf"), int(count))
    half = stats.t.ppf(0.975, r - 1) * values.std(ddof=1) / np.sqrt(r)
    return sim.SimEstimate(float(values.mean()), float(half), int(count))


@pytest.mark.parametrize("reps", [1, 2, 3, 10])
def test_estimates_equal_the_scalar_per_column_formula(three_class, reps):
    # about 18 recorded probes a replication: some cells are seen in every
    # replication and some only in a few, which are dropped
    config, policy = three_class, PolicySpec(MT, 0.4)
    sim_cfg = SimConfig(job_count=2_000, seed=70, replications=reps, probe_probability=0.01)
    res = simulate(config, policy, sim_cfg, workers=2)
    ws, tables = _workspace(2_000), _tables(config, policy)
    rows = [_run_replication(config, policy, sim_cfg, seed, ws, tables, False)
            for seed in range(70, 70 + reps)]
    tot, cnt, area, window = (np.array(v) for v in list(zip(*rows))[:4])
    n = config.n
    keys = [*range(n), *((i, k) for i in range(n) for k in range(n))]
    want = ({}, {})
    for e, key in enumerate(keys):
        if cnt[:, e].all():
            want[e >= n][key] = _scalar_estimate(tot[:, e] / cnt[:, e], cnt[:, e].sum())
    honest = cnt[:, :n].sum(axis=1)
    assert res.overall == _scalar_estimate(tot[:, :n].sum(axis=1) / honest, honest.sum())
    assert res.time_avg_in_system == _scalar_estimate(area / window, reps)
    assert (res.per_class, res.per_cell) == want
    assert res.per_cell and bool(res.dropped_cells) == (reps > 1)
    assert (res.overall.half_width95 == np.inf) == (reps == 1)


def test_simulate_loads_scipy_special_but_not_scipy_stats():
    # scipy.stats adds about 0.7 s to scipy.special's import, and simulate needs one t quantile
    code = ("import sys\n"
            "from trustqueue.model import Policy, PolicySpec, validate_config\n"
            "from trustqueue.sim import SimConfig, simulate\n"
            f"config = validate_config(0.5, [1, 2, 3], {THREE_CLASS_MATRIX})\n"
            "simulate(config, PolicySpec(Policy.MEASURED_TRUST, 0.43),\n"
            "         SimConfig(job_count=2_000, replications=4))\n"
            "sys.exit(('scipy.stats' in sys.modules) + 2 * ('scipy.special' not in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

# the code the simulator cross-checks, which it must therefore never read
CHECKED = {"soap", "incentives", "numerators", "experiments"}
SOURCE = Path(sim.__file__).parent


def _local_imports(source: str) -> set[str]:
    """The trustqueue modules that source's import statements name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return {name for name in names if (SOURCE / f"{name}.py").exists()}


def test_oracle_imports_none_of_the_code_it_checks():
    for planted in ("from .soap import x", "from . import incentives",
                    "import trustqueue.numerators", "from trustqueue.experiments import y"):
        assert _local_imports(planted) & CHECKED, planted
    # sim and draws, and every module they reach through imports
    seen, todo = set(), ["sim", "draws"]
    while todo:
        module = todo.pop()
        seen.add(module)
        todo += _local_imports((SOURCE / f"{module}.py").read_text()) - seen
    assert seen >= {"sim", "draws", "ranks", "model"} and not seen & CHECKED
