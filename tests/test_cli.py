import warnings

import numpy as np

from linsing import cli
from linsing.cli import main

BAD_SYMMETRY_SPEC = """
# same flow as example1, but the candidate V = f fails to descend
[vars]
names = x, y

[system]
f = 1, y

[constraints]
phi = y - 2

[forces]
Delta = x, 1

[symmetry]
V = 1, y
box = x:-2:2, y:0.5:4
"""


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_analyze_scenario_point(capsys):
    code, out, err = _run(
        capsys, "analyze", "--scenario", "example1", "--at", "x=0.5"
    )
    assert code == 0 and err == ""
    assert "point_000:" in out
    assert "at: [0.5, 2]" in out  # y lifted onto the constraint line
    assert "regular: true" in out
    assert "D: [1]" in out
    assert "X: [0, 0]" in out  # 1 - a*x at x = 1/2
    assert "u: [-2]" in out  # D u = -dphi.Y with Y = (1, a)


def test_analyze_is_byte_stable(capsys):
    argv = ("analyze", "--scenario", "rosenberg", "--points", "4")
    code1, out1, _ = _run(capsys, *argv)
    code2, out2, _ = _run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_param_override_changes_the_report(capsys):
    _, base, _ = _run(capsys, "analyze", "--scenario", "example1", "--at", "x=1")
    code, out, _ = _run(
        capsys, "analyze", "--scenario", "example1", "--at", "x=1",
        "--param", "a=3",
    )
    assert code == 0
    assert out != base
    assert "at: [1, 3]" in out  # lift now lands on y = 3
    assert "X: [-2, 0]" in out  # 1 - a*x with a = 3


def test_analyze_rejects_unknown_flags_and_points(capsys):
    code, _, err = _run(capsys, "analyze", "--at", "x=1")
    assert code == 2 and "--scenario or --spec" in err
    code, _, err = _run(capsys, "analyze", "--scenario", "nope", "--at", "x=1")
    assert code == 2 and "unknown scenario" in err
    code, _, err = _run(
        capsys, "analyze", "--scenario", "example1", "--at", "w=1"
    )
    assert code == 2 and "unknown variable" in err
    code, _, err = _run(
        capsys, "analyze", "--scenario", "example1", "--at", "x=1,x=2"
    )
    assert code == 2 and "assigned twice" in err
    code, _, err = _run(
        capsys, "analyze", "--scenario", "example1", "--at", "x=1",
        "--tol-rank", "-1",
    )
    assert code == 2 and "positive" in err
    for flag in ("--tol-rank", "--tol-img"):
        for value in ("nan", "inf"):
            code, _, err = _run(
                capsys, "analyze", "--scenario", "example1", "--at", "x=1", flag, value,
            )
            assert code == 2 and f"{flag} must be positive and finite" in err


def test_analyze_off_manifold_point_is_an_evaluation_error(capsys):
    code, _, err = _run(
        capsys, "analyze", "--scenario", "example1", "--at", "x=0,y=7"
    )
    assert code == 3
    assert "violates the constraints" in err


def test_analyze_spec_file_from_disk(tmp_path, capsys):
    path = tmp_path / "toy.lss"
    path.write_text("[vars]\nnames = x\n\n[system]\nf = -x\n")
    code, out, _ = _run(capsys, "analyze", "--spec", str(path), "--at", "x=2")
    assert code == 0
    assert "rank_A: 1" in out
    assert "X0: [-2]" in out
    code, _, err = _run(capsys, "analyze", "--spec", str(tmp_path / "no.lss"))
    assert code == 2 and "cannot read" in err


def test_simulate_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = _run(
        capsys, "simulate", "--scenario", "rosenberg",
        "--x0", "x=0,y=1,z=0,x'=2,y'=3",
        "--t1", "0.1", "--dt", "0.01",
        "--out", str(out_csv), "--quiet-time",
    )
    assert code == 0
    assert "mode: constrained" in out
    assert "steps: 10" in out
    assert "drift_max:" in out and "monitor_deviation:" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,x5,x6,u1,drift"
    assert len(lines) == 12
    first = np.array([float(v) for v in lines[1].split(",")])
    assert np.allclose(first[1:7], [0.0, 1.0, 0.0, 2.0, 3.0, 2.0])


def test_simulate_second_order_mode(tmp_path, capsys):
    # relparticle-L1 has a singular Lagrangian: the run goes through the
    # stacked second-order solve, and with U = 0 the motion is a straight line
    out_csv = tmp_path / "traj.csv"
    code, out, _ = _run(
        capsys, "simulate", "--scenario", "relparticle-L1",
        "--x0", "q1=0.1,q2=0.2,q3=-0.3,q4=0.4,q2'=0.3,q3'=-0.2,q4'=0.1",
        "--t1", "0.5", "--dt", "0.01", "--out", str(out_csv), "--quiet-time",
    )
    assert code == 0
    assert "mode: second-order" in out
    rows = [[float(v) for v in line.split(",")]
            for line in out_csv.read_text().splitlines()[1:]]
    q0, v0 = np.array(rows[0][1:5]), np.array(rows[0][5:9])
    last = np.array(rows[-1])
    assert last[0] == 0.5
    assert np.max(np.abs(last[1:5] - (q0 + 0.5 * v0))) <= 1e-8
    assert np.max(np.abs(last[5:9] - v0)) <= 1e-8


def test_simulate_singular_explicit_system_is_an_evaluation_error(tmp_path, capsys):
    path = tmp_path / "singular.lss"
    path.write_text("[vars]\nnames = x, y\n\n[system]\nA = 1, 0; 0, 0\nf = 1, 0\n")
    code, _, err = _run(
        capsys, "simulate", "--spec", str(path), "--x0", "x=0,y=0",
        "--t1", "1", "--dt", "0.1",
    )
    assert code == 3
    assert "no unique solution" in err


def test_numerical_failures_exit_3(monkeypatch, capsys):
    def singular(args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "cmd_analyze", singular)
    code, _, err = _run(capsys, "analyze", "--scenario", "example1")
    assert code == 3 and "Singular matrix" in err

    def bad_value(args):
        raise ValueError("not a number")

    monkeypatch.setattr(cli, "cmd_analyze", bad_value)
    code, _, err = _run(capsys, "analyze", "--scenario", "example1")
    assert code == 2 and "not a number" in err


def test_simulate_usage_errors(capsys):
    code, _, err = _run(
        capsys, "simulate", "--scenario", "example1",
        "--x0", "x=0", "--t1", "1", "--dt", "0",
    )
    assert code == 2 and "--dt" in err
    code, _, err = _run(
        capsys, "simulate", "--scenario", "example1",
        "--x0", "x=0", "--dt", "0.1",
    )
    assert code == 2 and "--t1" in err
    code, _, err = _run(
        capsys, "simulate", "--scenario", "example1", "--t1", "1", "--dt", "0.1",
    )
    assert code == 2 and "--x0" in err


def test_check_symmetry_passes_on_example1(capsys):
    code, out, _ = _run(
        capsys, "check-symmetry", "--scenario", "example1", "--points", "60"
    )
    assert code == 0
    assert "symmetry_passed: true" in out
    assert "descends: true" in out
    assert "passed: true" in out


def test_check_symmetry_fails_when_candidate_does_not_descend(tmp_path, capsys):
    path = tmp_path / "bad.lss"
    path.write_text(BAD_SYMMETRY_SPEC)
    code, out, _ = _run(
        capsys, "check-symmetry", "--spec", str(path), "--points", "40"
    )
    assert code == 1
    assert "symmetry_passed: true" in out  # V = f is always a base symmetry
    assert "descends: false" in out
    assert "passed: false" in out


def test_check_symmetry_box_override(capsys):
    code, out, _ = _run(
        capsys, "check-symmetry", "--scenario", "example1", "--points", "40",
        "--box", "y:1:3",
    )
    assert code == 0 and "passed: true" in out
    code, _, err = _run(
        capsys, "check-symmetry", "--scenario", "example1", "--box", "y:3:1"
    )
    assert code == 2 and "empty --box range" in err
    code, _, err = _run(
        capsys, "check-symmetry", "--scenario", "example1", "--box", "w:0:1"
    )
    assert code == 2 and "unknown variable" in err


def test_check_constant(capsys):
    code, out, _ = _run(
        capsys, "check-constant", "--scenario", "example1", "--points", "30"
    )
    assert code == 0
    assert "level:" in out
    assert "constrained_conserved: true" in out
    assert "consistent: true" in out
    code, out, _ = _run(
        capsys, "check-constant", "--scenario", "rosenberg", "--points", "20"
    )
    assert code == 0
    for name in ("plane", "px", "twist", "vy"):
        assert f"{name}:" in out


def test_scenario_list_dump_and_selftest(capsys):
    code, out, _ = _run(capsys, "scenario", "--list")
    assert code == 0
    assert out.splitlines() == [
        "example1", "relparticle-L1", "relparticle-L2", "rosenberg",
    ]
    code, out, _ = _run(capsys, "scenario", "--dump", "example1")
    assert code == 0 and "[system]" in out and "phi = y - a" in out
    code, out, _ = _run(capsys, "scenario", "--self-test", "example1")
    assert code == 0
    assert "ok: true" in out
    code, _, err = _run(capsys, "scenario")
    assert code == 2 and "one of" in err


def test_simulate_rejects_a_step_that_does_not_divide_t1(tmp_path, capsys):
    path = tmp_path / "decay.lss"
    path.write_text("[vars]\nnames = x\n\n[system]\nA = 1\nf = -x\n")
    code, out, err = _run(
        capsys, "simulate", "--spec", str(path), "--x0", "x=1",
        "--t1", "1", "--dt", "0.3",
    )
    assert code == 2 and out == ""
    assert "does not divide" in err


def test_overflowing_constants_are_reported_not_crashed_on(tmp_path, capsys):
    # a literal that overflows is a spec error; a product that overflows is
    # an evaluation error; neither may end in a traceback
    for text, want_code, want_msg in (
        ("1e400*x", 2, "number 1e400 is out of range (byte offset 0)"),
        ("1e308*10*x", 3, "non-finite right-hand side"),
    ):
        path = tmp_path / "big.lss"
        path.write_text(f"[vars]\nnames = x\n\n[system]\nA = 1\nf = {text}\n")
        code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1")
        assert code == want_code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert want_msg in err
    for value in ("1e400", "1e308*10", "nan"):
        code, _, err = _run(capsys, "analyze", "--scenario", "example1", "--at", f"x={value}")
        assert code == 2 and f"bad value for 'x': {value} is not finite" in err


def test_simulate_blow_up_is_a_non_finite_error(tmp_path, capsys):
    path = tmp_path / "cubic.lss"
    path.write_text("[vars]\nnames = x\n\n[system]\nA = 1\nf = x*x*x\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails here
        code, out, err = _run(
            capsys, "simulate", "--spec", str(path), "--x0", "x=1",
            "--t1", "2", "--dt", "0.01",
        )
    assert code == 3 and out == ""
    assert err.startswith("error: non-finite value in step 51 from t = 0.51")
    assert "Warning" not in err

