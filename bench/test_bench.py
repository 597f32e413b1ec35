"""Self-check of the benchmark, in its fast mode.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at minimal size (`--quick`), traced and untraced, and
checks that every metric named in BENCHMARK.json is printed with its unit and
that the per-layer self times partition the traced `cli.main` time. It also
feeds deliberately wrong outputs through each correctness gate and checks
that each one counts as a failure.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    lines, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(line.startswith("ops_failed_frac 0.0 ") for line in lines)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_are_emitted_and_partition_main(workload):
    _, result = _run(workload, 1)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    value = {k: v["value"] for k, v in metrics.items()}
    self_times = ["specfile.loads_s"] + [
        f"{layer}.self_s" for layer in ("cli", "expressions", "linalg", "lapack",
                                        "nonholonomic", "lagrangian", "dynamics",
                                        "sampling", "symmetry", "systems")
    ] + ["report.render_s"]
    assert sum(value[k] for k in self_times) == pytest.approx(value["trace.main_s"],
                                                              rel=1e-9)
    wl = workloads.make(workload, 7, "unused", quick=True)
    steps = sum(c.work for c in wl.full) if wl.unit == "steps" else 0
    assert value["dynamics.steps"] == steps
    assert (value["dynamics.field_evals_per_step"] > 0) == (steps > 0)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "traj-regular", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ------------------------------------------------------------------ the gates

REGULAR_REPORT = """\
command: simulate
drift_max: 2.3e-13
mode: constrained
monitor_deviation:
  plane: 1.1e-12
  px: 4.0e-13
  twist: 9.7e-12
  vy: 0
steps: 2
"""
REGULAR_CSV = "t,x1,x2,x3,x4,x5,x6,u1,drift\n" + "".join(
    f"{t},0,1,0,2,3,2,0,1e-16\n" for t in (0, 0.001, 0.002))

SINGULAR_REPORT = """\
command: simulate
mode: second-order
monitor_deviation:
  metric: 0
steps: 2
x0: [0, 0, 0, 0, 1.25, 0.75, 0, 0]
"""
SINGULAR_CSV = "t,x1,x2,x3,x4,x5,x6,x7,x8,drift\n" + "".join(
    f"{t},{1.25 * t},{0.75 * t},0,0,1.25,0.75,0,0,0\n" for t in (0, 1, 2))

CHECK_REPORT = "command: check-symmetry\npassed: true\npoint_count: 3\n"

ANALYZE_REPORT = """\
command: analyze
point_000:
  base_regular: true
  projector_residual: 4.2e-16
  regular: true
point_001:
  base_regular: true
  projector_residual: 3.1e-16
  regular: true
point_count: 2
"""
SINGULAR_ANALYZE_REPORT = """\
command: analyze
point_000:
  base_regular: false
  sode_unique: true
point_count: 1
"""

GATES = [
    # (gate, good report, good csv, [(what is wrong, rc, report, csv)])
    (workloads.gate_traj_regular(2), REGULAR_REPORT, REGULAR_CSV, [
        ("exit code", 3, REGULAR_REPORT, REGULAR_CSV),
        ("drift", 0, REGULAR_REPORT.replace("2.3e-13", "2.3e-6"), REGULAR_CSV),
        ("monitor", 0, REGULAR_REPORT.replace("9.7e-12", "9.7e-4"), REGULAR_CSV),
        ("monitor missing", 0, REGULAR_REPORT.replace("  vy: 0\n", ""), REGULAR_CSV),
        ("row missing", 0, REGULAR_REPORT, REGULAR_CSV.rsplit("0.002", 1)[0]),
        ("non-finite row", 0, REGULAR_REPORT, REGULAR_CSV.replace(",3,", ",nan,")),
        ("no csv", 0, REGULAR_REPORT, None),
    ]),
    (workloads.gate_traj_singular(2), SINGULAR_REPORT, SINGULAR_CSV, [
        ("mode", 0, SINGULAR_REPORT.replace("second-order", "explicit"), SINGULAR_CSV),
        ("off the line", 0, SINGULAR_REPORT, SINGULAR_CSV.replace("2,2.5,", "2,2.5000001,")),
        ("metric", 0, SINGULAR_REPORT.replace("metric: 0", "metric: 1e-5"), SINGULAR_CSV),
    ]),
    (workloads.gate_check(3), CHECK_REPORT, None, [
        ("not passed", 1, CHECK_REPORT.replace("true", "false"), None),
        ("point count", 0, CHECK_REPORT.replace("3", "2"), None),
    ]),
    (workloads.gate_analyze(2, singular=False), ANALYZE_REPORT, None, [
        ("residual", 0, ANALYZE_REPORT.replace("3.1e-16", "3.1e-6"), None),
        ("not regular", 0, ANALYZE_REPORT.replace("regular: true\npoint_001",
                                                  "regular: false\npoint_001"), None),
        ("point missing", 0, ANALYZE_REPORT.split("point_001")[0] + "point_count: 2\n", None),
    ]),
    (workloads.gate_analyze(1, singular=True), SINGULAR_ANALYZE_REPORT, None, [
        ("not unique", 0, SINGULAR_ANALYZE_REPORT.replace("unique: true", "unique: false"), None),
        ("regular base", 0, SINGULAR_ANALYZE_REPORT.replace("false", "true"), None),
    ]),
]


@pytest.mark.parametrize("gate,report,csv_text,wrongs", GATES)
def test_gates_pass_good_and_fail_wrong_output(gate, report, csv_text, wrongs):
    assert gate(0, report, csv_text) == []
    for what, rc, bad_report, bad_csv in wrongs:
        assert gate(rc, bad_report, bad_csv), what


def test_a_failed_gate_counts_as_a_failed_operation(tmp_path):
    runner = run.Runner(ROOT, str(tmp_path))
    good = workloads.Command(["check-symmetry", "--scenario", "example1", "--points", "1"],
                             1, workloads.gate_check(1))
    wrong_count = workloads.Command(good.argv, 1, workloads.gate_check(2))
    usage_error = workloads.Command(["check-symmetry", "--scenario", "nosuch"], 1,
                                    workloads.gate_check(1))
    for cmd in (good, wrong_count, usage_error):
        runner.invoke(cmd)
    assert runner.attempted == 3
    assert [argv for argv, _ in runner.failures] == [
        " ".join(wrong_count.argv), " ".join(usage_error.argv)]
