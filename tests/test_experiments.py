import hashlib
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from conftest import random_config
from trustqueue.experiments import (CURVE_HEADER, SWEEP_HEADER, _best_b, _best_bs, _grid,
                                    four_class_example, four_class_family,
                                    optimal_b_curve, rare_long_job_example,
                                    sweep_region, three_class_example,
                                    write_curve_csv, write_sweep_csv)
from trustqueue.incentives import _ic_regions, ic_check, ic_indicator, ic_region
from trustqueue.model import (ConfigError, MatrixNotNormalizedError, OverloadedError, Policy,
                              SizeGrid, SystemConfig, uniform_error_entries, uniform_error_matrix)
from trustqueue.soap import CubeFamily, fcfs_mean_response, overall_curve, scf_mean_response

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST

# sha256 of the full-resolution four-class curve CSV (x step 0.005, b step 0.001)
FULL_CURVE_SHA256 = "855a073afde3678d75cae79afc28d5607dc29e9a82dc8dd1edfe69200f0e5d44"
# sha256 of the four-class sweep CSV (x step 0.01, b step 0.001: 101,101 rows)
SWEEP_SHA256 = "f2cdb5311032838a35ba4ef5b9dfa04e50ff78b028eaca00bd843bb41a0337e0"


def test_three_class_preset_facts():
    cfg = three_class_example()
    assert cfg.load == pytest.approx(0.8725, abs=1e-12)
    # estimate-3 column: 0.01 + 0.02 + 0.17 = 0.2, and 85% of it is true size 3
    R = cfg.matrix.estimate_marginal
    assert R[2] == pytest.approx(0.2, abs=1e-12)
    assert cfg.matrix.entries[2, 2] / R[2] == pytest.approx(0.85, abs=1e-12)


def test_four_class_preset_facts():
    probs, grid, lam = four_class_family()
    assert probs @ grid.sizes == pytest.approx(1.0, abs=1e-12)
    assert lam == 0.8


def test_rare_long_job_preset_facts():
    cfg = rare_long_job_example()
    assert cfg.load == pytest.approx(0.8008, abs=1e-12)
    assert np.all(cfg.matrix.entries == np.diag([0.99, 0.01]))


def test_sweep_grid_shape_and_flags():
    probs, grid, lam = four_class_family()
    sweep = sweep_region(probs, grid, lam, x_step=0.05, b_step=0.02, x_max=0.3)
    assert len(sweep) == 7 * 51
    assert sweep.x.shape == (7,) and sweep.b.shape == (51,)
    assert all(a.shape == (7, 51) for a in (sweep.ic_mt, sweep.ic_bt, sweep.et_mt, sweep.et_bt))
    # every cell carries finite mean responses
    assert np.isfinite(sweep.et_mt).all() and np.isfinite(sweep.et_bt).all()
    # IC flags agree with a direct check on a few cells
    for r, t in [(0, 13), (3, 47), (5, 16)]:
        cfg = SystemConfig(lam=lam, grid=grid,
                           matrix=uniform_error_matrix(probs, grid, float(sweep.x[r])))
        assert sweep.ic_mt[r, t] == ic_check(cfg, MT, float(sweep.b[t])).verdict


def test_sweep_zero_error_interval_is_widest():
    probs, grid, lam = four_class_family()
    sweep = sweep_region(probs, grid, lam, x_step=0.05, b_step=0.01, x_max=0.2)
    runs = {x: (sweep.b[ok].min(), sweep.b[ok].max())
            for x, ok in zip(sweep.x.tolist(), sweep.ic_mt) if ok.any()}
    assert 0.0 in runs
    lo0, hi0 = runs[0.0]
    for x, (lo, hi) in runs.items():
        assert lo0 <= lo and hi0 >= hi


def test_sweep_columns_equal_each_configs_indicator_and_curve():
    # ic_indicator and overall_curve of one config per x are the per-x sweep the
    # family sweep replaced, kept here as its reference
    # the presets' 21 error rates take two chunks of the family cube
    families = [(*four_class_family(), 0.05)] + [
        (cfg.matrix.size_marginal, cfg.grid, cfg.lam, 0.05)
        for cfg in (three_class_example(), rare_long_job_example())]
    rng = np.random.default_rng(23)
    for n in (2, 2, 3, 3, 4, 4, 5, 5, 6, 6):
        grid = SizeGrid(np.cumsum(rng.uniform(0.2, 3.0, n)))
        probs = rng.dirichlet(np.ones(n))
        families.append((probs, grid, rng.uniform(0.3, 0.95) / (probs @ grid.sizes), 0.1))
    for probs, grid, lam, x_step in families:
        sweep = sweep_region(probs, grid, lam, x_step=x_step, b_step=0.02)
        for r, x in enumerate(sweep.x.tolist()):
            config = SystemConfig(lam=lam, grid=grid,
                                  matrix=uniform_error_matrix(probs, grid, x))
            for kind, ok, et in ((MT, sweep.ic_mt, sweep.et_mt), (BT, sweep.ic_bt, sweep.et_bt)):
                assert np.array_equal(ok[r], ic_indicator(config, kind, sweep.b)), (kind, x)
                assert np.array_equal(et[r], overall_curve(config, kind, sweep.b)), (kind, x)
                t = int(rng.integers(len(sweep.b)))
                assert reference.overall(config, kind, float(sweep.b[t])) == \
                    pytest.approx(et[r, t], rel=1e-12, abs=0)


def test_error_sweep_script_writes_the_sweep_and_both_charts(tmp_path, monkeypatch, capsys):
    script = Path(__file__).parents[1] / "scripts" / "run_error_sweep.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--out-dir", str(tmp_path), "--x-max", "0.04"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["curve.csv", "curve.svg", "sweep.csv", "sweep.svg"]
    probs, grid, lam = four_class_family()
    write_sweep_csv(sweep_region(probs, grid, lam, x_step=0.02, b_step=0.005, x_max=0.04),
                    tmp_path / "expected.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert "  measured trust feasible up to x = 0.04\n" in out
    assert "  blind trust feasible up to x = 0.04\n" in out


def test_three_class_script_prints_the_library_baselines(monkeypatch, capsys):
    script = Path(__file__).parents[1] / "scripts" / "run_three_class_analysis.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--jobs", "4000", "--reps", "2",
                                      "--workers", "1"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    config = three_class_example()
    assert f"FCFS mean response: {fcfs_mean_response(config):.4f}\n" in out
    assert f"SCF mean response:  {scf_mean_response(config)[0]:.4f}  " in out
    # at this size the simulation's ok/MISMATCH flags are noise; only the lines are checked
    checks = out.split("simulation cross-checks:\n")[1].splitlines()
    assert [line.split()[0] for line in checks] == ["FCFS", "MT", "BT", "SCF"]
    assert all(" analytic " in line and " sim " in line for line in checks)


def test_curve_baselines_and_feasibility():
    probs, grid, lam = four_class_family()
    rows = optimal_b_curve(probs, grid, lam, x_step=0.05, b_step=0.01, x_max=0.4)
    assert all(r.et_fcfs == pytest.approx(4.68, abs=1e-9) for r in rows)
    assert len({r.et_scf for r in rows}) == 1  # blind baseline ignores x
    feasible = [r for r in rows if r.best_b_mt is not None]
    infeasible = [r for r in rows if r.best_b_mt is None]
    assert feasible and infeasible
    for r in feasible:
        assert r.et_mt < r.et_fcfs and r.et_mt < r.et_scf
    for r in infeasible:
        assert r.et_mt is None
    # large error rates are the infeasible ones
    assert max(r.x for r in feasible) < min(r.x for r in infeasible)


def test_curve_best_b_minimizes_within_region():
    probs, grid, lam = four_class_family()
    from trustqueue.model import SystemConfig, uniform_error_matrix
    rows = optimal_b_curve(probs, grid, lam, x_step=0.05, b_step=0.01, x_max=0.1)
    for r in rows:
        if r.best_b_mt is None:
            continue
        cfg = SystemConfig(lam=lam, grid=grid,
                           matrix=uniform_error_matrix(probs, grid, r.x))
        region = ic_region(cfg, MT, grid_step=0.01)
        assert region.contains(r.best_b_mt, slack=1e-6)
        grid_b = [b for b in np.arange(0, 1.0001, 0.01) if region.contains(float(b))]
        values = overall_curve(cfg, MT, grid_b)
        assert r.et_mt <= values.min() + 1e-9


def test_sweep_csv_deterministic(tmp_path):
    probs, grid, lam = four_class_family()
    rows = sweep_region(probs, grid, lam, x_step=0.1, b_step=0.05, x_max=0.2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows, p1)
    write_sweep_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[2] in ("0", "1") and first[3] in ("0", "1")


def test_curve_csv_schema(tmp_path):
    probs, grid, lam = four_class_family()
    rows = optimal_b_curve(probs, grid, lam, x_step=0.2, b_step=0.02, x_max=0.4)
    path = tmp_path / "curve.csv"
    write_curve_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")          # tie-breaking note
    assert lines[1] == CURVE_HEADER
    infeasible = [ln for ln in lines[2:] if ",,," in ln or ln.split(",")[1] == ""]
    assert infeasible, "large x rows should have empty best-b columns"


def test_curve_csv_matches_committed_bytes(tmp_path):
    # the committed file pins the curve CSV: any change to the region or
    # best-b arithmetic that shows at 6 significant digits breaks it
    expected = Path(__file__).parent / "data" / "curve_four_class_coarse.csv"
    probs, grid, lam = four_class_family()
    path = tmp_path / "curve.csv"
    write_curve_csv(optimal_b_curve(probs, grid, lam, x_step=0.05, b_step=0.001), path)
    assert path.read_bytes() == expected.read_bytes()


def test_full_resolution_curve_csv_digest(tmp_path):
    probs, grid, lam = four_class_family()
    path = tmp_path / "curve.csv"
    write_curve_csv(optimal_b_curve(probs, grid, lam), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_CURVE_SHA256


def test_sweep_csv_digest(tmp_path):
    probs, grid, lam = four_class_family()
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep_region(probs, grid, lam, x_step=0.01, b_step=0.001), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_SHA256


def test_family_of_one_equals_member_of_whole_family():
    # each config's search runs in lockstep with 200 others; none may leak into
    # another.  Each lone config is built as the benchmark's frontier check builds it.
    probs, grid, lam = four_class_family()
    xs = _grid(0.005)
    rows = optimal_b_curve(probs, grid, lam)
    entries = uniform_error_entries(probs, grid, xs)
    for kind, b_col, et_col in ((MT, "best_b_mt", "et_mt"), (BT, "best_b_bt", "et_bt")):
        regions = _ic_regions(CubeFamily.from_arrays(kind, lam, grid.sizes, entries))
        for x, region, row in zip(xs, regions, rows):
            config = SystemConfig(lam=lam, grid=grid,
                                  matrix=uniform_error_matrix(probs, grid, float(x)))
            assert ic_region(config, kind) == region, (kind, x)
            best = _best_b(config, kind, b_step=1e-3, tol_b=1e-6)
            assert best == ((getattr(row, b_col), getattr(row, et_col))
                            if getattr(row, b_col) is not None else None), (kind, x)
            if best is not None:
                assert region.contains(best[0])


def test_random_family_members_equal_lone_configs():
    for n in range(1, 9):
        configs = [random_config(300 * n + s, n_range=(n, n), max_load=0.98) for s in range(12)]
        configs += _random_error_family(n, 12, seed=40 + n)
        for kind in (MT, BT):
            regions = _ic_regions(CubeFamily(configs, kind))
            for config, region, best in zip(configs, regions,
                                            _best_bs(CubeFamily(configs, kind))):
                assert ic_region(config, kind) == region, (n, kind)
                assert _best_b(config, kind, b_step=1e-3, tol_b=1e-6) == best, (n, kind)


def test_error_entries_equal_uniform_error_matrices():
    probs, grid, _ = four_class_family()
    cases = [(probs, grid, _grid(0.005)), (probs, grid, np.linspace(0.0, 1.0, 37))]
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for _ in range(5):
            cases.append((rng.dirichlet(np.ones(n)), SizeGrid(np.cumsum(rng.uniform(0.2, 3.0, n))),
                          np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, 30)))))
    for probs, grid, xs in cases:
        entries = uniform_error_entries(probs, grid, xs)
        for x, m in zip(xs, entries):
            matrix = uniform_error_matrix(probs, grid, float(x))
            assert np.array_equal(m, matrix.entries)
            assert np.array_equal(m.sum(axis=0), matrix.estimate_marginal)
            assert np.array_equal(m.sum(axis=1), matrix.size_marginal)


@pytest.mark.parametrize("probs, sizes, lam, xs, error, message", [
    ([0.5, 0.5], [1.0, 2.0], 0.8, [0.0, 1.5], ConfigError, r"rate must be in \[0, 1\], got 1.5"),
    ([0.5, 0.5], [1.0, 2.0], 0.8, [float("nan")], ConfigError, "got nan"),
    ([0.5, 0.6], [1.0, 2.0], 0.8, [0.1], MatrixNotNormalizedError, "probabilities sum to 1.1"),
    ([0.5, 0.5], [1.0, 2.0, 3.0], 0.8, [0.1], ConfigError, "2 entries for a 3-point grid"),
    ([1.0], [1.0], 0.5, [0.0, 0.1], ConfigError, "a 1-point grid has no wrong estimate"),
])
def test_error_entries_reject_what_uniform_error_matrix_rejects(probs, sizes, lam, xs, error,
                                                                message):
    grid = SizeGrid(sizes)
    with pytest.raises(error, match=message):
        uniform_error_entries(probs, grid, xs)
    with pytest.raises(error, match=message):
        for x in xs:
            uniform_error_matrix(probs, grid, x)


@pytest.mark.parametrize("probs, sizes, lam, x_max, error, message", [
    ([0.5, 0.5], [1.0, 2.0], 0.8, 0.5, OverloadedError, "offered load rho = 1.2 >= 1"),
    ([0.5, 0.6], [1.0, 2.0], 0.5, 0.5, MatrixNotNormalizedError, "probabilities sum to 1.1"),
    ([1.0], [1.0], 0.5, 0.5, ConfigError, "a 1-point grid has no wrong estimate to err to"),
    ([0.5, 0.5], [1.0, 2.0], 0.5, 1.5, ValueError, r"x max must be in \[0, 1\], got 1.5"),
])
def test_curve_rejects_invalid_inputs(probs, sizes, lam, x_max, error, message):
    for build in (optimal_b_curve, sweep_region):
        with pytest.raises(error, match=message):
            build(probs, SizeGrid(sizes), lam, x_step=0.25, b_step=0.05, x_max=x_max)


@pytest.mark.parametrize("x_max", [float("inf"), float("nan"), -1.0, 1.5])
def test_grids_reject_x_max_outside_unit_interval(x_max):
    probs, grid, lam = four_class_family()
    for build in (optimal_b_curve, sweep_region):
        with pytest.raises(ValueError, match=r"x max must be in \[0, 1\]"):
            build(probs, grid, lam, x_step=0.1, b_step=0.05, x_max=x_max)


@pytest.mark.parametrize("step, upper", [(0.7, 1.0), (0.3, 1.0), (0.005, 0.333), (0.4, 0.5)])
def test_grids_reject_a_step_that_does_not_divide_the_range(step, upper):
    probs, grid, lam = four_class_family()
    message = rf"grid step {step:g} does not divide \[0, {upper:g}\] into whole steps"
    with pytest.raises(ValueError, match=message):
        _grid(step, upper)
    for build in (optimal_b_curve, sweep_region):
        with pytest.raises(ValueError, match=message):
            build(probs, grid, lam, x_step=step, b_step=0.05, x_max=upper)
    if upper == 1.0:       # the sweep's b grid spans [0, 1]
        with pytest.raises(ValueError, match=message):
            sweep_region(probs, grid, lam, x_step=0.5, b_step=step)


@pytest.mark.parametrize("step, upper, count", [(0.05, 0.3, 7), (0.005, 1.0, 201), (0.25, 0.0, 1),
                                                (0.1, 0.7, 8), (1.0, 1.0, 2)])
def test_grids_accept_a_step_that_divides_the_range_up_to_rounding(step, upper, count):
    # 0.3 / 0.05 = 5.999999999999999 and 0.7 / 0.1 = 6.999999999999999 in floating point
    xs = _grid(step, upper)
    assert len(xs) == count and xs[0] == 0.0 and xs[-1] == upper


@pytest.mark.parametrize("b_step", [0.0, -0.01, 2.0, float("nan")])
def test_curve_rejects_a_b_step_outside_unit_interval(b_step):
    probs, grid, lam = four_class_family()
    with pytest.raises(ValueError, match=r"b step must be in \(0, 1\]"):
        optimal_b_curve(probs, grid, lam, x_step=0.5, b_step=b_step)


def _random_error_family(n: int, count: int, seed: int) -> list[SystemConfig]:
    """Random sizes, size probabilities, loads and error rates of the uniform-error family."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        grid = SizeGrid(np.cumsum(rng.uniform(0.2, 3.0, n)))
        probs = rng.dirichlet(np.ones(n))
        x = rng.uniform(0.0, 0.2) if n > 1 else 0.0
        configs.append(SystemConfig(lam=rng.uniform(0.3, 0.95) / (probs @ grid.sizes), grid=grid,
                                    matrix=uniform_error_matrix(probs, grid, x)))
    return configs


def _check_against_reference_scan(config, kind, best):
    region = ic_region(config, kind)
    if best is None:
        assert region.is_empty
        return
    b, et = best
    assert region.contains(b)
    # the scalar-loop oracle at 20,001 points inside each interval and at both ends
    scan = min(reference.overall(config, kind, np.linspace(iv.lo, iv.hi, 20_003)).min()
               for iv in region.intervals)
    assert et <= scan * (1 + 1e-12)


def test_best_b_is_no_worse_than_a_dense_reference_scan():
    probs, grid, lam = four_class_family()
    for row in optimal_b_curve(probs, grid, lam, x_step=0.05):
        config = four_class_example(row.x)
        for kind, b, et in ((MT, row.best_b_mt, row.et_mt), (BT, row.best_b_bt, row.et_bt)):
            _check_against_reference_scan(config, kind, None if b is None else (b, et))
    for n in range(1, 7):
        configs = _random_error_family(n, 6, seed=n)
        for kind in (MT, BT):
            for config, best in zip(configs, _best_bs(CubeFamily(configs, kind))):
                _check_against_reference_scan(config, kind, best)


def test_flat_mean_response_gives_the_lower_endpoint():
    # with no wrong estimate (x = 0), or one class, no job ever overruns, so
    # E[T] does not depend on b and the tie rule picks the region's lower end
    cases = [(four_class_example(0.0), kind) for kind in (MT, BT)]
    cases += [(config, kind) for config in _random_error_family(1, 4, seed=0) for kind in (MT, BT)]
    for config, kind in cases:
        assert len(set(overall_curve(config, kind, np.linspace(0.0, 1.0, 11)))) == 1
        b, _ = _best_b(config, kind, b_step=1e-3, tol_b=1e-6)
        assert b == ic_region(config, kind).intervals[0].lo
    assert _best_b(four_class_example(0.0), MT, b_step=1e-3, tol_b=1e-6)[0] == 0.0


def test_reported_mean_response_is_overall_curve_at_best_b():
    probs, grid, lam = four_class_family()
    for row in optimal_b_curve(probs, grid, lam):
        config = four_class_example(row.x)
        for kind, b, et in ((MT, row.best_b_mt, row.et_mt), (BT, row.best_b_bt, row.et_bt)):
            if b is not None:
                assert et == overall_curve(config, kind, [b])[0]
