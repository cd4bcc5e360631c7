import ast
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from trustqueue import cli
from trustqueue.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

THREE_CLASS = {
    "lambda": 0.5,
    "sizes": [1, 2, 3],
    "matrix": [[0.425, 0.03, 0.01], [0.05, 0.255, 0.02], [0.025, 0.015, 0.17]],
}


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_importing_the_cli_leaves_scipy_unloaded():
    # only simulate needs scipy, whose import takes about a second
    code = "import sys, trustqueue.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_analyze_preset(capsys):
    code, out, _ = run(["analyze", "--preset", "three-class", "--policy", "mt",
                        "--b", "0.1"], capsys)
    assert code == 0
    assert "U[i][k]" in out and "T[j][k]" in out
    assert "incentive compatible at b = 0.1" in out


def test_analyze_fcfs(capsys):
    code, out, _ = run(["analyze", "--preset", "three-class", "--policy", "fcfs"], capsys)
    assert code == 0
    assert "8.91167" in out


def test_analyze_detects_violation(capsys):
    code, out, _ = run(["analyze", "--preset", "three-class", "--policy", "mt",
                        "--b", "0.02"], capsys)
    assert code == 0
    assert "NOT incentive compatible" in out
    assert "declaring" in out


@pytest.mark.parametrize("b", ["nan", "2", "-0.1"])
def test_analyze_rejects_invalid_b(b, capsys):
    code, out, err = run(["analyze", "--preset", "three-class", "--policy", "mt",
                          "--b", b], capsys)
    assert code == 1
    assert "punishment probability" in err
    assert "incentive compatible" not in out


def test_analyze_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(THREE_CLASS))
    code, out, _ = run(["analyze", "--config", str(path), "--policy", "scf"], capsys)
    assert code == 0
    assert "SCF mean response" in out


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = dict(THREE_CLASS)
    bad["matrix"] = [[0.5, 0.5], [0.5, 0.5]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["analyze", "--config", str(path)], capsys)
    assert code == 1
    assert "error" in err
    # wrong JSON types, and NaN, which json reads and which compares False
    two = '"lambda": 0.1, "sizes": [1, 2]'
    for text, command in (
            ("[1, 2]", ["analyze"]),
            ('{"lambda": null, "sizes": [1, 2], "size_probs": [0.5, 0.5]}', ["analyze"]),
            ('{%s, "size_probs": [0.5, 0.5], "error_rate": null}' % two, ["analyze"]),
            ('{%s, "matrix": [[NaN, 0], [0, 1]]}' % two, ["analyze"]),
            ('{%s, "matrix": [[NaN, 0], [0, 1]]}' % two, ["ic-region"]),
            ('{%s, "size_probs": [NaN, 1]}' % two, ["analyze", "--policy", "fcfs"]),
            # keys it would not read, and JSON booleans where numbers belong
            ('{%s, "size_probs": [0.5, 0.5], "error-rate": 0.3}' % two, ["ic-region"]),
            ('{%s, "matrix": [[0.5, 0], [0, 0.5]], "error_rate": 0.3}' % two, ["ic-region"]),
            ('{"lambda": true, "sizes": [0.1, 0.2], "size_probs": [0.5, 0.5]}', ["analyze"]),
            ('{%s, "size_probs": [0.5, 0.5], "error_rate": true}' % two, ["ic-region"]),
            ('{"lambda": 0.1, "sizes": [true, 2], "size_probs": [0.5, 0.5]}', ["analyze"])):
        path.write_text(text)
        code, out, err = run(command + ["--config", str(path)], capsys)
        assert code == 1, text
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, text
    # a value nested deeper or shallower than its key's numbers, or a ragged matrix
    for key, text in (
            ("matrix", '{%s, "matrix": [[0.5, 0.5], [0]]}' % two),
            ("sizes", '{"lambda": 0.1, "sizes": [1, [2, 3]], "size_probs": [0.5, 0.5]}'),
            ("size_probs", '{%s, "size_probs": [0.5, [0.25, 0.25]]}' % two),
            ("size_probs", '{%s, "size_probs": [[0.5, 0.5]]}' % two),
            ("lambda", '{"lambda": [0.1], "sizes": [1, 2], "size_probs": [0.5, 0.5]}')):
        path.write_text(text)
        code, out, err = run(["analyze", "--config", str(path)], capsys)
        assert code == 1, text
        assert out == "" and err.startswith(f"error: config file value {key!r} must be "), text
        assert err.count("\n") == 1, text


@pytest.mark.parametrize("key, text", [
    ("error_rate", '{"lambda": 0.1, "sizes": [1, 2], "size_probs": [0.5, 0.5], "error_rate": 1%s}'),
    ("sizes", '{"lambda": 0.1, "sizes": [1, 1%s], "size_probs": [0.5, 0.5]}'),
], ids=["error-rate", "sizes"])
def test_config_integer_too_large_for_a_float_exits_1(key, text, tmp_path, capsys):
    # json reads 1 followed by 400 zeros as an int, which float() cannot convert
    path = tmp_path / "c.json"
    path.write_text(text % ("0" * 400))
    assert run(["analyze", "--config", str(path)], capsys) == (
        1, "", f"error: config file value {key!r} holds an integer too large for a float\n")


@pytest.mark.parametrize("text, message", [
    ('{"sizes": [1, 2], "size_probs": [0.5, 0.5]}', "config file missing required key 'lambda'"),
    ('{"lambda": 0.1, "sizes": [1, 2, 3], "matrix": [[0.5, 0], [0, 0.5]]}',
     "grid has 3 sizes but matrix is 2x2"),
], ids=["no-lambda", "grid-matrix-mismatch"])
def test_incomplete_config_exits_1(text, message, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert run(["ic-region", "--config", str(path)], capsys) == (1, "", f"error: {message}\n")


def test_overloaded_config_exits_3(tmp_path, capsys):
    bad = dict(THREE_CLASS)
    bad["lambda"] = 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(["analyze", "--config", str(path)], capsys)
    assert code == 3
    assert "unstable" in err


def test_missing_config_file_exits_1(capsys):
    code, _, err = run(["analyze", "--config", "/nonexistent/cfg.json"], capsys)
    assert code == 1


def test_unknown_preset_exits_1(tmp_path, capsys):
    for name in ("bogus", ""):
        for command in (["ic-region"], ["curve", "--out", str(tmp_path / "c.csv")]):
            code, out, err = run(command + ["--preset", name], capsys)
            assert (code, out) == (1, ""), (name, command)
            assert err == f"error: unknown preset {name!r}; see 'trustqueue preset list'\n"
    assert not (tmp_path / "c.csv").exists()


def test_ic_region_output(capsys):
    code, out, _ = run(["ic-region", "--preset", "two-class-rare", "--policy", "bt"],
                       capsys)
    assert code == 0
    assert "[0.9476, 1.0000]" in out
    assert "socially beneficial vs fcfs: empty" in out


@pytest.mark.parametrize("argv", [
    ["sweep", "--x-step", "0"],
    ["sweep", "--b-step", "-0.01"],
    ["curve", "--x-step", "2"],
    ["curve", "--x-step", "nan"],
])
def test_grid_step_outside_unit_interval_exits_1(argv, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, _, err = run(argv + ["--out", str(out_csv)], capsys)
    assert code == 1
    assert "step must be in (0, 1]" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv, message", [
    (["curve", "--x-step", "0.7"], "grid step 0.7 does not divide [0, 1]"),
    (["sweep", "--x-step", "0.3"], "grid step 0.3 does not divide [0, 1]"),
    (["sweep", "--b-step", "0.3"], "grid step 0.3 does not divide [0, 1]"),
    (["curve", "--x-max", "0.333"], "grid step 0.005 does not divide [0, 0.333]"),
])
def test_grid_step_that_does_not_divide_the_range_exits_1(argv, message, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, out, err = run(argv + ["--out", str(out_csv)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message} into whole steps\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["curve", "sweep"])
@pytest.mark.parametrize("x_max", ["inf", "nan", "-1", "1.5"])
def test_x_max_outside_unit_interval_exits_1(command, x_max, tmp_path, capsys):
    out_csv = tmp_path / "out.csv"
    code, out, err = run([command, "--x-step", "0.1", f"--x-max={x_max}",
                          "--out", str(out_csv)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: x max must be in [0, 1], got {float(x_max):g}\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("command", ["analyze", "ic-region", "simulate"])
@pytest.mark.parametrize("source", [["--preset", "three-class"], ["--preset", "two-class-rare"],
                                    ["--preset", "four-class", "--config", "CONFIG"]])
def test_error_rate_outside_the_four_class_preset_exits_1(command, source, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(THREE_CLASS))
    argv = [command] + [str(path) if a == "CONFIG" else a for a in source] + ["--error-rate", "5"]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --error-rate applies only to the four-class preset\n"


def test_four_class_error_rate_defaults_to_one_tenth(capsys):
    code, default, _ = run(["ic-region", "--preset", "four-class"], capsys)
    assert code == 0
    assert run(["ic-region", "--preset", "four-class", "--error-rate", "0.1"], capsys)[1] == default
    assert run(["ic-region", "--preset", "four-class", "--error-rate", "0.2"], capsys)[1] != default


def test_ic_region_prints_an_empty_region(capsys):
    code, out, _ = run(["ic-region", "--preset", "four-class", "--error-rate", "0.3"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "incentive compatible region: empty"


def test_ic_region_rejects_blind_policy(capsys):
    with pytest.raises(SystemExit):
        main(["ic-region", "--preset", "three-class", "--policy", "fcfs"])


def test_sweep_curve_plot_roundtrip(tmp_path, capsys):
    sweep_csv = tmp_path / "sweep.csv"
    code, out, _ = run(["sweep", "--preset", "four-class", "--x-step", "0.1",
                        "--b-step", "0.05", "--x-max", "0.2",
                        "--out", str(sweep_csv)], capsys)
    assert code == 0 and sweep_csv.exists()
    assert "largest error rate" in out

    svg = tmp_path / "sweep.svg"
    code, out, _ = run(["plot", "--csv", str(sweep_csv), "--out", str(svg)], capsys)
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "<rect" in body

    curve_csv = tmp_path / "curve.csv"
    code, out, _ = run(["curve", "--preset", "four-class", "--x-step", "0.1", "--x-max", "0.3",
                        "--out", str(curve_csv)], capsys)
    assert code == 0 and curve_csv.exists()

    svg2 = tmp_path / "curve.svg"
    code, out, _ = run(["plot", "--csv", str(curve_csv), "--out", str(svg2)], capsys)
    assert code == 0
    assert "polyline" in svg2.read_text()


@pytest.mark.parametrize("command, rows", [(["curve"], 3), (["sweep", "--b-step", "0.05"], 3 * 21)],
                         ids=["curve", "sweep"])
def test_sweep_and_curve_read_a_config_or_any_preset(command, rows, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(THREE_CLASS))
    written = {}
    for name, source in (("config", ["--config", str(path)]),
                         ("three-class", ["--preset", "three-class"]),
                         ("two-class-rare", ["--preset", "two-class-rare"])):
        out_csv = tmp_path / f"{name}.csv"
        code, out, _ = run([*command, *source, "--x-step", "0.1", "--x-max", "0.2",
                            "--out", str(out_csv)], capsys)
        assert code == 0 and out.startswith(f"wrote {rows} rows to "), name
        written[name] = out_csv.read_bytes()
    # the config file holds the three-class preset
    assert written["config"] == written["three-class"] != written["two-class-rare"]


def test_size_probs_config_curve_matches_the_four_class_preset(tmp_path, capsys):
    # a curve spans its own error rates, so a file's error_rate leaves it unchanged
    family = {"lambda": 0.8, "sizes": [0.4, 0.8, 1.6, 3.2], "size_probs": [0.5, 0.25, 0.125, 0.125]}
    written = []
    for source in ({}, family, {**family, "error_rate": 0.3}):
        path, out_csv = tmp_path / "c.json", tmp_path / f"curve{len(written)}.csv"
        path.write_text(json.dumps(source))
        args = ["--config", str(path)] if source else ["--preset", "four-class"]
        code, _, _ = run(["curve", *args, "--x-step", "0.05", "--out", str(out_csv)], capsys)
        assert code == 0
        written.append(out_csv.read_bytes())
    assert written[0] == written[1] == written[2]


def test_plot_empty_region_sweep(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("x,b,ic_mt,ic_bt,et_mt,et_bt\n"
                    "0,0,0,0,5.1,5.2\n0,0.5,0,0,5.0,5.1\n0.1,0,0,0,5.3,5.4\n")
    svg = tmp_path / "empty.svg"
    code, _, _ = run(["plot", "--csv", str(path), "--out", str(svg)], capsys)
    assert code == 0
    assert "<svg" in svg.read_text()


def test_plot_unknown_schema_exits_1(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    code, _, err = run(["plot", "--csv", str(path), "--out", str(tmp_path / "o.svg")],
                       capsys)
    assert code == 1
    assert "schema" in err


@pytest.mark.parametrize("body", [
    "",
    "# a comment and no header\n",
    "x,b,ic_mt,ic_bt,et_mt,et_bt\n0,0,0,0,5.1,5.2\n0,0.5,0\n",
    "x,best_b_mt,et_mt,best_b_bt,et_bt,et_fcfs,et_scf\n0,0.4,5.0,0.3\n",
], ids=["empty", "comment-only", "short-sweep-row", "short-curve-row"])
def test_plot_rejects_a_csv_without_header_or_with_short_rows(tmp_path, capsys, body):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    svg = tmp_path / "o.svg"
    code, _, err = run(["plot", "--csv", str(path), "--out", str(svg)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert not svg.exists()


def test_simulate_deterministic_output(tmp_path, capsys):
    args = ["simulate", "--preset", "three-class", "--policy", "mt", "--b", "0.43",
            "--jobs", "20000", "--reps", "2", "--seed", "5"]
    code, out1, _ = run(args, capsys)
    assert code == 0
    assert "overall mean response" in out1 and "+-" in out1
    code, out2, _ = run(args, capsys)
    assert out1 == out2


def test_simulate_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(["simulate", "--preset", "three-class", "--policy", "bt",
                        "--b", "0.5", "--jobs", "5000", "--reps", "1",
                        "--trace", str(trace)], capsys)
    assert code == 0
    header = trace.read_text().splitlines()[0]
    assert header == ("arrival_time,size_index,estimate_index,declared_index,"
                      "punish_coin,is_probe,response_time")


def test_simulate_trace_rows_in_completion_order(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = run(["simulate", "--preset", "three-class", "--policy", "mt",
                      "--b", "0.4", "--jobs", "5000", "--reps", "1", "--probe-prob", "0.02",
                      "--trace", str(trace)], capsys)
    assert code == 0
    with open(trace) as fh:
        done = [float(r["arrival_time"]) + float(r["response_time"])
                for r in csv.DictReader(fh)]
    assert len(done) == 4500
    slack = 1e-8 * done[-1]     # both columns are printed to 9 significant digits
    assert all(later >= earlier - slack for earlier, later in zip(done, done[1:]))


def test_simulate_reports_recorded_job_count(capsys):
    # 3 replications x (2000 jobs - 200 warm-up), none of them probes
    code, out, _ = run(["simulate", "--preset", "three-class", "--policy", "mt",
                        "--b", "0.4", "--jobs", "2000", "--reps", "3",
                        "--probe-prob", "0"], capsys)
    assert code == 0
    assert "(95% CI over 3 replications, 5400 jobs)" in out


def test_simulate_without_honest_jobs_exits_1(capsys):
    code, out, err = run(["simulate", "--preset", "three-class", "--policy", "mt",
                          "--b", "0.4", "--jobs", "10", "--reps", "3",
                          "--probe-prob", "0.9"], capsys)
    assert code == 1
    assert out == ""
    assert "no honest job" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_worker(workers, capsys):
    code, out, err = run(["simulate", "--preset", "three-class", "--policy", "mt",
                          "--b", "0.4", "--jobs", "2000", "--reps", "3",
                          "--workers", workers], capsys)
    assert code == 1
    assert out == ""
    assert f"workers must be at least 1, got {workers}" in err
    assert "Traceback" not in err


def test_simulate_rejects_one_job_replications(capsys):
    code, out, err = run(["simulate", "--preset", "three-class", "--policy", "mt",
                          "--b", "0.4", "--jobs", "1", "--reps", "3"], capsys)
    assert code == 1
    assert out == ""
    assert "leaves 1 recorded job(s) per replication; at least 2 are needed" in err


def test_simulate_single_replication_prints_no_interval(capsys):
    code, out, _ = run(["simulate", "--preset", "three-class", "--policy", "mt",
                        "--b", "0.4", "--jobs", "5000", "--reps", "1",
                        "--probe-prob", "0.05"], capsys)
    assert code == 0
    assert "inf" not in out and "+-" not in out
    assert re.search(r"overall mean response: \S+ \(no CI: 1 replication, \d+ jobs\)", out)
    estimates = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert len(estimates) == 3 + 9      # every class and every probe cell
    assert all("(no CI: 1 replication)" in ln for ln in estimates)


def test_simulate_names_entries_missing_from_some_replications(capsys):
    # about 2 probes per replication: no probe cell is seen in all 3 of them
    code, out, _ = run(["simulate", "--preset", "three-class", "--policy", "mt",
                        "--jobs", "200", "--reps", "3", "--probe-prob", "0.01"], capsys)
    assert code == 0
    assert "probe deviation estimates" not in out
    [line] = [ln for ln in out.splitlines() if ln.startswith("left out")]
    assert line.startswith("left out, seen in only some of the 3 replications: probe cell i=")


def test_unwritable_output_exits_1(capsys):
    code, _, err = run(["sweep", "--preset", "four-class", "--x-step", "0.2",
                        "--b-step", "0.2", "--out", "/nonexistent/dir/o.csv"], capsys)
    assert code == 1


def test_preset_list(capsys):
    code, out, _ = run(["preset", "list"], capsys)
    assert code == 0
    for name in ("three-class", "four-class", "two-class-rare"):
        assert name in out


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("analyze", "ic-region", "sweep", "curve", "simulate", "plot", "preset"):
        assert command in out
    assert "sample-path simulation with 95% CIs" in out


# every option each subcommand reads; an option its command ignores does not belong here
OPTIONS = {
    "analyze": {"--config", "--preset", "--error-rate", "--policy", "--b"},
    "ic-region": {"--config", "--preset", "--error-rate", "--policy"},
    "sweep": {"--config", "--preset", "--x-step", "--b-step", "--x-max", "--out"},
    "curve": {"--config", "--preset", "--x-step", "--x-max", "--out"},
    "simulate": {"--config", "--preset", "--error-rate", "--policy", "--b", "--jobs", "--reps",
                 "--seed", "--probe-prob", "--warmup", "--workers", "--trace"},
    "plot": {"--csv", "--out"},
    "preset": set(),
}


@pytest.mark.parametrize("command", OPTIONS)
def test_subcommand_help_lists_exactly_the_options_it_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert listed == OPTIONS[command] | {"--help"}


def _stderr_writers(source):
    """Names of the functions other than main whose code reads sys.stderr."""
    return sorted({fn.name for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, ast.FunctionDef) and fn.name != "main"
                   for node in ast.walk(fn)
                   if isinstance(node, ast.Attribute) and node.attr == "stderr"
                   and isinstance(node.value, ast.Name) and node.value.id == "sys"})


def test_only_main_writes_to_stderr():
    # main prints every failure as one "error:" line; the check sees a planted writer
    planted = "def main():\n    print(file=sys.stderr)\ndef cmd():\n    sys.stderr.write('x')\n"
    assert _stderr_writers(planted) == ["cmd"]
    assert _stderr_writers(Path(cli.__file__).read_text()) == []


def test_readme_command_line_examples_parse():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "trustqueue"
        args = build_parser().parse_args(argv[1:])
        assert args.fn.__name__ == "cmd_" + argv[1].replace("-", "_")
