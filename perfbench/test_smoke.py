"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert " fail_frac " in out.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_closed_form_raises_fail_frac(workload, monkeypatch):
    import run
    from workloads import incentives, soap

    honest = run.run(workload, 3, 0, trace=False, tiny=True)
    assert honest["correct"] and honest["named"]["fail_frac"][0] == 0
    cube = soap.response_cube

    def doubled(*args, **kwargs):
        return tuple(2.0 * u for u in cube(*args, **kwargs))

    monkeypatch.setattr(soap, "response_cube", doubled)
    monkeypatch.setattr(incentives, "response_cube", doubled)
    perturbed = run.run(workload, 3, 0, trace=False, tiny=True)
    assert perturbed["named"]["fail_frac"][0] > honest["named"]["fail_frac"][0]
    assert not perturbed["correct"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
