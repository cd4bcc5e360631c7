import hashlib
from pathlib import Path

import numpy as np
import pytest

from trustqueue.experiments import (CURVE_HEADER, SWEEP_HEADER, _best_b, _grid,
                                    four_class_example, four_class_family,
                                    optimal_b_curve, rare_long_job_example,
                                    sweep_region, three_class_example,
                                    write_curve_csv, write_sweep_csv)
from trustqueue.incentives import _ic_regions, ic_check, ic_region
from trustqueue.model import Policy
from trustqueue.soap import CubeFamily, overall_curve

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST

# sha256 of the full-resolution four-class curve CSV (x step 0.005, b step 0.001)
FULL_CURVE_SHA256 = "9ba5d1cf29885406fe922ece1289803e08574ad821d66bc47e18f3b1437733cb"
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
    rows = sweep_region(probs, grid, lam, x_step=0.05, b_step=0.02, x_max=0.3)
    assert len(rows) == 7 * 51
    by_x = {}
    for r in rows:
        by_x.setdefault(r.x, []).append(r)
    # every row carries finite mean responses
    assert all(np.isfinite(r.et_mt) and np.isfinite(r.et_bt) for r in rows)
    # IC flags agree with a direct check on a few cells
    cfg_x = {x: None for x in by_x}
    some = [rows[13], rows[200], rows[271]]
    from trustqueue.model import SystemConfig, uniform_error_matrix
    for r in some:
        cfg = SystemConfig(lam=lam, grid=grid,
                           matrix=uniform_error_matrix(probs, grid, r.x))
        assert r.ic_mt == ic_check(cfg, MT, r.b).verdict


def test_sweep_zero_error_interval_is_widest():
    probs, grid, lam = four_class_family()
    rows = sweep_region(probs, grid, lam, x_step=0.05, b_step=0.01, x_max=0.2)
    runs = {}
    for r in rows:
        if r.ic_mt:
            lo, hi = runs.get(r.x, (1.0, 0.0))
            runs[r.x] = (min(lo, r.b), max(hi, r.b))
    assert 0.0 in runs
    lo0, hi0 = runs[0.0]
    for x, (lo, hi) in runs.items():
        assert lo0 <= lo and hi0 >= hi


def test_sweep_workers_deterministic():
    probs, grid, lam = four_class_family()
    a = sweep_region(probs, grid, lam, x_step=0.1, b_step=0.05, x_max=0.2)
    b = sweep_region(probs, grid, lam, x_step=0.1, b_step=0.05, x_max=0.2, workers=2)
    assert a == b


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_fewer_than_one_worker(workers):
    probs, grid, lam = four_class_family()
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        sweep_region(probs, grid, lam, x_step=0.1, b_step=0.05, x_max=0.2, workers=workers)


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
    # each config's search runs in lockstep with 200 others; none may leak into another
    probs, grid, lam = four_class_family()
    xs = _grid(0.005)
    rows = {row.x: row for row in optimal_b_curve(probs, grid, lam)}
    configs = [four_class_example(float(x)) for x in xs]
    for kind, b_col, et_col in ((MT, "best_b_mt", "et_mt"), (BT, "best_b_bt", "et_bt")):
        regions = _ic_regions(CubeFamily(configs, kind))
        for x in (0.0, 0.05, 0.1, 0.17):
            c = int(np.flatnonzero(xs == x)[0])
            alone = ic_region(four_class_example(x), kind)
            assert alone == regions[c]
            best = _best_b(four_class_example(x), kind, b_step=1e-3, tol_b=1e-6)
            row = rows[x]
            assert best == ((getattr(row, b_col), getattr(row, et_col))
                            if getattr(row, b_col) is not None else None)


@pytest.mark.parametrize("tol_b", [0.0, -1.0, float("nan"), float("inf")])
def test_curve_rejects_bad_tol_b(tol_b):
    probs, grid, lam = four_class_family()
    with pytest.raises(ValueError, match="b tolerance must be finite and positive"):
        optimal_b_curve(probs, grid, lam, x_step=0.5, tol_b=tol_b)
