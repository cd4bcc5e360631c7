"""Incentive verdicts and region endpoints against the exact rational oracle, tests/exact.py."""

import ast
from pathlib import Path

import numpy as np
import pytest

import exact
from conftest import random_config
from trustqueue.experiments import PRESETS, four_class_example
from trustqueue.incentives import ic_check, ic_region
from trustqueue.model import Policy

MT = Policy.MEASURED_TRUST
BT = Policy.BLIND_TRUST
# How far a region endpoint may lie from the exact boundary: 64 ulps of the
# endpoint, or of b = 1/2 below it.  A float delta rounds by about
# eps (T_jk + T_jj) at every b, so its root by that over delta's slope, near
# b = 0 too: random seed 42's MT region starts at b = 0.0038, 9e-17 (203 of
# its ulps) inside the exact region, where the float delta already reads 0.
ULPS = 64

# the presets, four-class toward both frontiers and 60 random configs with n <= 5
CASES = ([(name, build()) for name, build in PRESETS.items()]
         + [(f"four-class, x = {x}", four_class_example(x)) for x in (0.05, 0.1, 0.2, 0.215)]
         + [(f"random, seed {seed}", random_config(seed)) for seed in range(60)])


def _endpoints(config, kind):
    """Every endpoint of config's region in (0, 1), with +1 where the region lies right of it."""
    return [(end, inward) for iv in ic_region(config, kind).intervals
            for end, inward in ((iv.lo, 1.0), (iv.hi, -1.0)) if 0.0 < end < 1.0]


@pytest.mark.parametrize("kind", [MT, BT])
def test_every_region_endpoint_is_the_exact_boundary_to_64_ulps(kind):
    count = 0
    for name, config in CASES:
        for end, inward in _endpoints(config, kind):
            count += 1
            step = inward * ULPS * float(np.spacing(max(end, 0.5)))
            assert exact.verdict(config, kind, end + step), (name, end, "fails inside")
            assert not exact.verdict(config, kind, end - step), (name, end, "passes outside")
    assert count >= 20


@pytest.mark.parametrize("kind", [MT, BT])
def test_ic_check_gives_the_exact_verdict_away_from_the_endpoints(kind):
    # uniform b, and b within 1e-3 of each endpoint but more than 1e-6 from every one
    rng = np.random.default_rng(31)
    count = passed = 0
    for name, config in CASES:
        ends = np.array([end for end, _ in _endpoints(config, kind)])
        near = np.concatenate((ends - rng.uniform(1e-6, 1e-3, len(ends)),
                               ends + rng.uniform(1e-6, 1e-3, len(ends))))
        for b in np.concatenate((rng.uniform(0.0, 1.0, 2), np.clip(near, 0.0, 1.0))).tolist():
            if np.all(np.abs(ends - b) > 1e-6):
                count += 1
                truth = exact.verdict(config, kind, b)
                passed += truth
                assert ic_check(config, kind, b).verdict == truth, (name, b)
    assert count > 150 and passed > 25


# the code the exact oracle checks, which it must therefore never read
CHECKED = {"soap", "ranks", "incentives", "numerators", "experiments"}
TESTS = Path(__file__).parent
SOURCE = TESTS.parent / "src" / "trustqueue"


def _imported_files(source: str) -> set[Path]:
    """The test helpers and trustqueue modules that source's import statements name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return {path for name in names for path in (TESTS / f"{name}.py", SOURCE / f"{name}.py")
            if path.exists()}


def test_exact_oracle_imports_none_of_the_code_it_checks():
    for planted in ("from trustqueue.soap import x", "from trustqueue import incentives",
                    "import trustqueue.numerators", "from trustqueue.ranks import y"):
        assert {path.stem for path in _imported_files(planted)} & CHECKED, planted
    # exact, and every file it reaches through imports
    seen, todo = set(), [TESTS / "exact.py"]
    while todo:
        path = todo.pop()
        seen.add(path)
        todo += _imported_files(path.read_text()) - seen
    names = {path.stem for path in seen}
    assert names >= {"exact", "reference", "model"} and not names & CHECKED
