import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linsing import cli, linalg
from linsing.cli import main
from linsing.linalg import DEFAULT_TOLERANCES
from linsing.nonholonomic import PointDynamics
from linsing.specfile import loads

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


@pytest.mark.parametrize("cmd, scenario", [
    ("analyze", "example1"), ("check-symmetry", "example1"), ("check-constant", "rosenberg"),
])
@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_must_be_positive(capsys, cmd, scenario, points):
    # zero points used to pass check-symmetry, crash check-constant, and a
    # negative count leaked a numpy error
    code, out, err = _run(capsys, cmd, "--scenario", scenario, "--points", points)
    assert code == 2 and out == ""
    assert "--points must be a positive integer" in err


@pytest.mark.parametrize("cmd, scenario", [
    ("check-symmetry", "example1"), ("check-constant", "rosenberg"),
])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_tol_must_be_positive_and_finite(capsys, cmd, scenario, tol):
    code, out, err = _run(capsys, cmd, "--scenario", scenario, "--tol", tol)
    assert code == 2 and out == ""
    assert "--tol must be positive and finite" in err


def test_one_point_is_a_valid_sample(capsys):
    for cmd, scenario in (("check-symmetry", "example1"), ("check-constant", "rosenberg"),
                          ("analyze", "example1")):
        code, out, _ = _run(capsys, cmd, "--scenario", scenario, "--points", "1")
        assert code == 0 and "point_count: 1" in out


def test_analyze_off_manifold_point_is_an_evaluation_error(capsys):
    code, _, err = _run(
        capsys, "analyze", "--scenario", "example1", "--at", "x=0,y=7"
    )
    assert code == 3
    assert "violates the constraints" in err


def test_a_point_whose_constraint_residual_is_nan_is_off_the_manifold(tmp_path, capsys):
    # x*x - y*y is inf - inf = nan at x = y = 1e200, where every field of the
    # flow is finite: the point is refused, not analysed as regular
    path = tmp_path / "cone.lss"
    path.write_text("[vars]\nnames = x, y\n\n[system]\nf = 1, 1\n\n"
                    "[constraints]\nphi = x*x - y*y\n\n[forces]\nDelta = 1, -1\n")
    for at in (["x=1e200,y=1e200"], ["x=1,y=1", "x=1e200,y=1e200"]):
        argv = [arg for a in at for arg in ("--at", a)]
        code, out, err = _run(capsys, "analyze", "--spec", str(path), *argv)
        assert code == 3 and out == ""
        assert "violates the constraints: max |phi| = nan" in err


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


@pytest.mark.parametrize("flag", ["--t1", "--dt"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_simulate_times_must_be_finite(capsys, flag, value):
    # --t1 inf ended in an OverflowError traceback with exit 1, and a NaN in
    # Python's "cannot convert float NaN to integer"
    times = {"--t1": "1", "--dt": "0.1", flag: value}
    code, out, err = _run(capsys, "simulate", "--scenario", "rosenberg",
                          "--x0", "x=0,y=1,z=0,x'=1,y'=1",
                          *(arg for pair in times.items() for arg in pair))
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be positive and finite\n"


def test_simulate_refuses_a_step_count_that_is_not_finite(capsys):
    code, out, err = _run(capsys, "simulate", "--scenario", "rosenberg",
                          "--x0", "x=0,y=0,z=0,x'=1,y'=1", "--t1", "1e300", "--dt", "1e-300")
    assert code == 2 and out == ""
    assert err == "error: t1 = 1e+300 over dt = 1e-300 is not a finite number of steps\n"


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


@pytest.mark.parametrize("argv, err_text", [
    (["analyze", "--at", "x=1", "--param", "a=1,a=3"], "'a' assigned twice in --param"),
    (["analyze", "--at", "x=1", "--param", "a=1", "--param", "a=3"],
     "'a' assigned twice in --param"),
    (["analyze", "--at", "x=1, x=2"], "'x' assigned twice in --at"),
    (["simulate", "--x0", "x=1,x=2", "--t1", "1", "--dt", "0.1"], "'x' assigned twice in --x0"),
    (["check-symmetry", "--box", "x:0:1,x:2:3"], "--box names 'x' twice"),
    (["analyze", "--at", "x=1", "--param", "noequals"], "bad --param entry 'noequals'"),
    (["analyze", "--at", "x=1", "--param", "a="], "bad --param entry 'a='"),
    (["analyze", "--at", "=1"], "bad --at entry '=1'"),
    (["analyze", "--at", "x=1", "--param", "2bad=1"], "bad parameter name '2bad'"),
    (["analyze", "--at", "x=1", "--param", "sin=2"], "parameter name 'sin' shadows a function"),
], ids=["param", "two-params", "at", "x0", "box", "no-equals", "no-value", "no-name",
        "bad-name", "function-name"])
def test_name_lists_refuse_a_repeat_and_a_piece_that_is_not_an_assignment(argv, err_text,
                                                                           capsys):
    code, out, err = _run(capsys, argv[0], "--scenario", "example1", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err_text in err


def test_name_lists_split_on_commas_and_skip_empty_pieces(capsys):
    _, want, _ = _run(capsys, "analyze", "--scenario", "example1", "--at", "x=1",
                      "--param", "a=3", "--param", "k=2*a")
    code, out, _ = _run(capsys, "analyze", "--scenario", "example1", "--at", " x = 1 ,",
                        "--param", "a = 3, ,k=2*a,")
    assert code == 0 and out == want
    assert "  k: 2*a\n" in out  # a parameter prints as it was written


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


@pytest.mark.parametrize("box, message", [
    ("x:-inf:inf", "--box bounds in 'x:-inf:inf' are not finite"),
    ("y:1:nan", "--box bounds in 'y:1:nan' are not finite"),
    ("x:-1e308:1e308", "--box range in 'x:-1e308:1e308' is too wide: hi - lo overflows"),
])
def test_a_box_override_must_be_finite_and_of_finite_width(box, message, capsys):
    # such a box would draw NaN or inf sample points
    code, out, err = _run(capsys, "check-symmetry", "--scenario", "example1", "--box", box)
    assert code == 2 and out == "" and message in err


def test_a_spec_box_of_infinite_width_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "wide.lss"
    path.write_text("[vars]\nnames = x, y\n\n[system]\nf = 1, y\n\n"
                    "[symmetry]\nV = 1, 0\nbox = x:-1e308:1e308\n")
    for cmd in ("analyze", "check-symmetry"):
        code, out, err = _run(capsys, cmd, "--spec", str(path), "--points", "3")
        assert code == 2 and out == ""
        assert "box range in 'x:-1e308:1e308' is too wide" in err
        assert "[section symmetry] (line 9)" in err


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


def test_scenario_self_test_runs_the_declared_checks(capsys):
    code, out, err = _run(capsys, "scenario", "--self-test", "all")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "all_ok: true"
    for name in cli.SCENARIOS:
        block = lines.index(f"{name}:")
        assert lines[block + 1] == "  check_constant:"
        for key in ("check_symmetry", "simulate"):
            assert f"  {key}:" in lines[block:]
        assert "  ok: true" in lines[block:]
    assert out.count("    passed: true") == 8
    assert out.count("    command: simulate") == 4
    assert "passed: false" not in out and "ok: false" not in out
    _, again, _ = _run(capsys, "scenario", "--self-test", "all")
    assert again == out


def test_scenario_self_test_fails_on_a_bad_candidate(monkeypatch, capsys):
    text = cli.scenario_text
    monkeypatch.setattr(
        cli, "scenario_text",
        lambda name: BAD_SYMMETRY_SPEC if name == "example1" else text(name),
    )
    code, out, _ = _run(capsys, "scenario", "--self-test", "example1")
    assert code == 1
    assert "descends: false" in out
    assert "  ok: false" in out and "all_ok: false" in out


def test_analyze_names_a_division_by_zero(tmp_path, capsys):
    path = tmp_path / "inverse.lss"
    path.write_text("[vars]\nnames = x\n\n[system]\nA = 1\nf = 1/x\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=0")
    assert code == 3 and out == ""
    assert err == "error: division by zero in subexpression '1/x'\n"


def test_simulate_rejects_a_step_that_does_not_divide_t1(tmp_path, capsys):
    path = tmp_path / "decay.lss"
    path.write_text("[vars]\nnames = x\n\n[system]\nA = 1\nf = -x\n")
    code, out, err = _run(
        capsys, "simulate", "--spec", str(path), "--x0", "x=1",
        "--t1", "1", "--dt", "0.3",
    )
    assert code == 2 and out == ""
    assert "does not divide" in err


_ROSENBERG = loads(cli.scenario_text("rosenberg"))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6))
@example([-0.7306471193089544, 6.02214076e23, -0.0, 5e-324, -2.5e-310, 1.5e-300])
def test_repr_written_values_parse_to_the_bits_of_float(values):
    # as the benchmark writes --x0: name=repr(value), joined by commas
    names = _ROSENBERG.variables
    text = ",".join(f"{k}={v!r}" for k, v in zip(names, values))
    got = cli._parse_assignments(text, _ROSENBERG, "--x0")
    assert [got[k].hex() for k in names] == [float(repr(v)).hex() for v in values]


def test_a_value_may_carry_a_unary_plus(capsys):
    # +1 is 1, as some tools write a positive number
    plain = _run(capsys, "analyze", "--scenario", "example1", "--at", "x=1")
    signed = _run(capsys, "analyze", "--scenario", "example1", "--at", "x=+1")
    assert plain[0] == 0 and signed == plain


def test_overflowing_constants_are_reported_not_crashed_on(tmp_path, capsys):
    # a literal that overflows is a spec error; a product that overflows is
    # an evaluation error; neither may end in a traceback
    for text, want_code, want_msg in (
        ("1e400*x", 2, "number 1e400 is out of range (byte offset 0)"),
        ("1e308*10*x", 3, "a value of the flow's fields is not finite at this point"),
    ):
        path = tmp_path / "big.lss"
        path.write_text(f"[vars]\nnames = x\n\n[system]\nA = 1\nf = {text}\n")
        code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1")
        assert code == want_code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert want_msg in err
    # --at values are read by the spec's constant grammar, as report_scale is
    for value, msg in (("1e400", "number 1e400 is out of range (byte offset 0)"),
                       ("1e308*10", "1e308*10 is not finite"),
                       ("nan", "undeclared variable 'nan' (byte offset 0)"),
                       ("-inf", "undeclared variable 'inf' (byte offset 1)"),
                       ("1_0", "unexpected '_0' (byte offset 1)")):
        code, out, err = _run(capsys, "analyze", "--scenario", "example1", "--at", f"x={value}")
        assert code == 2 and out == ""
        assert err == f"error: bad value for 'x': {msg}\n"
    # a report_scale that overflows is a spec error, not a report of -inf multipliers
    path = tmp_path / "scale.lss"
    path.write_text("[vars]\nnames = x, y\n[system]\nf = 1, y\n[constraints]\n"
                    "phi = y - 2\nreport_scale = 1e308*10\n[forces]\nDelta = x, 1\n")
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=0.5")
    assert code == 2 and out == ""
    assert err == ("error: expected a constant number: 1e308*10 is not finite "
                   "[section constraints] (line 7)\n")


def test_a_singular_base_is_refused_with_its_rank(tmp_path, capsys):
    path = tmp_path / "sing.lss"
    path.write_text("[vars]\nnames = x, y\n[system]\nA = 1, 0; 0, 0\nf = 1, 0\n"
                    "[constraints]\nphi = y - 2\n[forces]\nDelta = x, 1\n")
    code, out, err = _run(capsys, "simulate", "--spec", str(path), "--x0", "x=0.5,y=2",
                          "--t1", "0.1", "--dt", "0.01")
    assert code == 3 and out == ""
    assert err == "error: base morphism A(x) is not invertible at this point (rank 1 of 2)\n"


@pytest.mark.parametrize("argv", [
    ["check-constant", "--scenario", "rosenberg"],
    ["analyze", "--scenario", "example1"],
])
def test_an_override_that_nothing_uses_is_a_spec_error(argv, capsys):
    code, out, err = _run(capsys, *argv, "--param", "zz=1")
    assert code == 2 and out == ""
    assert err.startswith("error: override of unknown parameter 'zz'")


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


# an inf force entry at x = 10, whose products with B^-1 = I and dphi = (0, 1)
# are all symbolic zeros but one: no NaN downstream would flag it
NON_FINITE_FORCE_SPEC = """
[vars]
names = x, y

[system]
A = 1, 0; 0, 1
f = 1, 1

[constraints]
phi = y

[forces]
Delta = 1e308*x*x, 1
"""


@pytest.mark.parametrize("argv", [
    ["analyze", "--at", "x=10,y=0"],
    ["simulate", "--x0", "x=10,y=0", "--t1", "0.01", "--dt", "0.001"],
])
def test_a_non_finite_kernel_value_fails_the_evaluation(argv, tmp_path, capsys):
    path = tmp_path / "inf.lss"
    path.write_text(NON_FINITE_FORCE_SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails here
        code, out, err = _run(capsys, argv[0], "--spec", str(path), *argv[1:])
    assert code == 3 and out == ""
    assert err == "error: a value of the flow's fields is not finite at this point\n"



@pytest.mark.parametrize("argv", [
    ["analyze", "--at", "x=10,y=0"],
    ["simulate", "--x0", "x=10,y=0", "--t1", "0.01", "--dt", "0.001"],
])
def test_a_d_that_overflows_from_finite_entries_fails_the_kernel_screen(argv, tmp_path,
                                                                         capsys):
    # dphi = (0, 1e200) and Gamma = (1, 1e200) are finite; the kernel's
    # D = 1e200 * 1e200 is not
    path = tmp_path / "overflow.lss"
    path.write_text(NON_FINITE_FORCE_SPEC.replace("phi = y", "phi = 1e200*y")
                    .replace("1e308*x*x, 1", "1, 1e200"))
    code, out, err = _run(capsys, argv[0], "--spec", str(path), *argv[1:])
    assert code == 3 and out == ""
    assert err == "error: a value of the flow's fields is not finite at this point\n"

# A = I is inverted at construction: `simulate` takes no probe at x0, and an
# error there comes from the run's first evaluation, as `analyze` reports it
DEGENERATE_AT_X0_SPEC = """
[vars]
names = x, y

[system]
A = 1, 0; 0, 1
f = {f}

[constraints]
phi = y

[forces]
Delta = {delta}
"""


@pytest.mark.parametrize("command, point_flag", [
    (["simulate", "--t1", "0.1", "--dt", "0.01"], "--x0"),
    (["analyze"], "--at"),
])
@pytest.mark.parametrize("f, delta, x0, message", [
    # D = dphi . Gamma = 0 at x = 1, and -dphi . Y = -1 is not in its image
    ("1, 1", "x, 0", "x=1,y=0",
     "no multiplier solves the tangency condition (residual 1.000e+00)"),
    ("1, 1", "x, 0", "x=0,y=0", "transported force frame is linearly dependent"),
    # the kernel's first faulting value, Y = B^-1 f, is folded from f
    ("sqrt(x), 1", "1, x", "x=-1,y=0", "sqrt of a negative number in subexpression 'sqrt(x)'"),
])
def test_an_error_at_x0_of_an_inverted_base_exits_3(command, point_flag, f, delta, x0, message,
                                                    tmp_path, capsys):
    path = tmp_path / "x0.lss"
    path.write_text(DEGENERATE_AT_X0_SPEC.format(f=f, delta=delta))
    code, out, err = _run(capsys, command[0], "--spec", str(path), point_flag, x0, *command[1:])
    assert code == 3 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("scenario", ["rosenberg", "relparticle-L2", "example1"])
def test_an_inverted_base_takes_no_stacked_solve_to_name_its_mode(scenario, monkeypatch):
    spec = loads(cli.scenario_text(scenario))
    x0 = cli._default_points(spec, 1)[0]
    calls = []
    stacked = linalg._solve_stack

    def counted(*args):
        calls.append(args[0].shape)
        return stacked(*args)

    monkeypatch.setattr(linalg, "_solve_stack", counted)
    dyn, mode = cli._make_field(spec, x0, DEFAULT_TOLERANCES)
    assert mode == "constrained" and dyn.base_inverse is not None
    assert calls == []


def test_a_non_finite_symmetry_residual_fails_the_check(tmp_path, capsys):
    # V overflows: its Jacobian holds inf, so r_f is inf and r_A is NaN, which a
    # max fold would drop and report as 0 with the check passed
    path = tmp_path / "overflow.lss"
    path.write_text("[vars]\nnames = x, y\n\n[system]\nf = 1, y\n\n"
                    "[symmetry]\nV = 1e308*10*x, 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails here
        code, out, err = _run(capsys, "check-symmetry", "--spec", str(path), "--points", "20")
    assert code == 3 and out == ""
    assert err.startswith("error: the residual r_f is not finite")


@pytest.mark.parametrize("scenario,residual", [
    ("relparticle-L1", "X_h"),  # a singular base: the second-order branch
    ("relparticle-L2", "Y_h"),  # a regular base: the descent check
])
def test_a_non_finite_constant_residual_fails_the_check(scenario, residual, tmp_path,
                                                         capsys):
    # the gradient of the metric is inf - inf = NaN wherever exp(2*(1.1 - q1'))
    # exceeds 1, which a max fold would drop and report as 0 with the check passed
    text = cli.scenario_text(scenario).replace(
        "metric = q1'^2 - q2'^2 - q3'^2 - q4'^2",
        "metric = 1e308*exp(2*(1.1 - q1')) - 1e308*exp(2*(1.1 - q1'))")
    path = tmp_path / "nan.lss"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails here
        code, out, err = _run(capsys, "check-constant", "--spec", str(path), "--points", "50")
    assert code == 3 and out == ""
    assert err.startswith(f"error: the residual {residual} is not finite")


def test_second_order_mode_reports_multipliers(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, _, _ = _run(
        capsys, "simulate", "--scenario", "relparticle-L1", "--param", "U=q1",
        "--x0", "q1=0.1,q2=0.2,q3=-0.3,q4=0.4,q2'=0.3,q3'=-0.2,q4'=0.1",
        "--t1", "0.1", "--dt", "0.01", "--out", str(out_csv), "--quiet-time",
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,x5,x6,x7,x8,u1,drift"
    assert all(len(line.split(",")) == 11 for line in lines[1:])
    code, out, _ = _run(capsys, "analyze", "--scenario", "relparticle-L1",
                        "--points", "2")
    assert code == 0
    assert out.count("sode_consistent: true") == 2
    assert out.count("\n  u: [") == 2


def test_projection_stops_at_the_rounding_floor_of_large_states(capsys):
    # at x' = 1e6 the rounding error of phi = z' - y*x' exceeds 1e-10: the
    # projection accepts max |phi| at the floor measured from its Jacobian
    code, out, err = _run(
        capsys, "simulate", "--scenario", "rosenberg",
        "--x0", "x=0,y=1,z=0,x'=1e6,y'=1", "--t1", "0.01", "--dt", "1e-3",
        "--quiet-time",
    )
    assert code == 0 and err == ""
    drift = float(out.split("drift_max: ")[1].split("\n")[0])
    assert 0.0 < drift <= 1e-8


TWO_FORCE_SPEC = """
[vars]
names = x, y

[system]
f = 1, y

[constraints]
phi = y - 2

[forces]
Delta = x, 1; 0, 1
"""

# A is I on y = 0 but varies, so the bordered matrix is solved; D = x
NEAR_SINGULAR_D_SPEC = """
[vars]
names = x, y

[system]
A = 1, 0; 0, 1 + 1e-6*y^2
f = 1, 0

[constraints]
phi = y

[forces]
Delta = 1, x
"""


def _report_fields(out, *names):
    lines = dict(line.strip().split(": ", 1) for line in out.splitlines() if ": " in line)
    return tuple(lines.get(name) for name in names)


def test_analyze_reports_a_surjective_point_that_is_not_regular(tmp_path, capsys):
    # two force directions on a curve in the plane: rank D = 1 = a < m = 2, and
    # T_xM + H_x is not direct, so there is no projector to report
    path = tmp_path / "two.lss"
    path.write_text(TWO_FORCE_SPEC)
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=0.5,y=2")
    assert code == 0 and err == ""
    assert _report_fields(out, "surjective", "injective", "regular", "rank_D",
                          "multiplier_gauged") == ("true", "false", "false", "1", "true")
    assert "projector_residual" not in out


def test_analyze_without_a_multiplier_still_exits_3(tmp_path, capsys):
    # two constraints, one force: D = (1, x) and -dphi . Y = -(2, 1) is not in its image
    path = tmp_path / "over.lss"
    path.write_text("[vars]\nnames = x, y\n\n[system]\nf = 1, y\n\n"
                    "[constraints]\nphi = y - 2, x - 1\n\n[forces]\nDelta = x, 1\n")
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1,y=2")
    assert code == 3 and out == ""
    assert "no multiplier solves the tangency condition" in err


def test_a_varying_base_decides_rank_d_once_by_its_solve(tmp_path, capsys):
    # at x = 3e-10 the bordered solve finds D rank-deficient and gauges u to 0;
    # the report says so instead of judging D regular on its own and failing
    # to split T_xM + H_x
    path = tmp_path / "near.lss"
    path.write_text(NEAR_SINGULAR_D_SPEC)
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=3e-10,y=0")
    assert code == 0 and err == ""
    assert _report_fields(out, "rank_D", "multiplier_gauged", "regular", "u") == \
        ("0", "true", "false", "[0]")
    assert "projector_residual" not in out
    code, out, _ = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1e-6,y=0")
    assert code == 0
    assert _report_fields(out, "rank_D", "multiplier_gauged", "regular") == \
        ("1", "false", "true")
    assert "projector_residual" in out


def test_a_tiny_regular_d_gives_projectors_from_the_same_d(tmp_path, capsys):
    # at x = 1e-12 the 1x1 D = 1e-12 is regular by its own cut-off: the
    # projectors come from that D, where a second rank decision on
    # [ker dphi, Gamma] once called the same split degenerate (exit 3)
    text = NEAR_SINGULAR_D_SPEC.replace("1 + 1e-6*y^2", "1")
    path = tmp_path / "tiny.lss"
    path.write_text(text)
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1e-12,y=0")
    assert code == 0 and err == ""
    assert _report_fields(out, "rank_D", "regular", "projector_residual") == ("1", "true", "0")
    spec, x = loads(text), np.array([1e-12, 0.0])
    doc = cli._point_docs(spec, x[None], DEFAULT_TOLERANCES)[0]
    xf, u, _ = PointDynamics(spec.gnh).solve(x)
    assert doc["X"].tobytes() == np.array(xf).tobytes() and doc["u"].tobytes() == u.tobytes()


@pytest.mark.parametrize("text, section, line, message", [
    # one force section of length 1 where the fibre has k = 2
    ("[vars]\nnames = x, y\n[system]\nf = 1, y\n[constraints]\nphi = y - 2\n"
     "[forces]\nDelta = x\n", "forces", 8, "force sections live in the target fibre"),
    # A with one row, f with two entries
    ("[vars]\nnames = x, y\n[system]\nA = 1, 0\nf = 1, y\n",
     "system", 4, "A has 1 rows but f has 2 entries"),
    # a finite candidate's Phi with one row of two columns
    ("[vars]\nnames = x, y\n[system]\nf = 1, y\n[symmetry]\npsi = x + 1, y\nPhi = 1, 0\n",
     "symmetry", 7, "fibre component must be a square matrix field"),
], ids=["forces", "system", "symmetry"])
def test_spec_parts_that_do_not_fit_are_usage_errors(text, section, line, message,
                                                     tmp_path, capsys):
    path = tmp_path / "misfit.lss"
    path.write_text(text)
    for argv in (("analyze", "--at", "x=0,y=2"), ("check-symmetry", "--points", "3")):
        code, out, err = _run(capsys, argv[0], "--spec", str(path), *argv[1:])
        assert code == 2 and out == ""
        assert message in err and f"[section {section}] (line {line})" in err


DEEP_SPEC = """[vars]
names = x, y

[system]
A = 1, 0; 0, 1
f = {f}, 1

[constraints]
phi = {phi}

[forces]
Delta = 1, x
"""


def test_a_sum_of_two_thousand_terms_is_analysed(tmp_path, capsys):
    # the codegen numbering and the derivative walk keep their own stacks
    path = tmp_path / "deep.lss"
    path.write_text(DEEP_SPEC.format(f=" + ".join(["x"] * 2000),
                                     phi="y + " + " + ".join(["x*y"] * 2000)))
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1,y=0")
    assert code == 0 and err == ""
    assert "regular: true" in out


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


def test_nesting_up_to_the_parser_bound_runs(tmp_path, capsys):
    path = tmp_path / "nested.lss"
    path.write_text(DEEP_SPEC.format(f=_nested(200), phi="y"))
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1,y=0")
    assert code == 0 and err == ""


def test_deeper_nesting_is_a_spec_error(tmp_path, capsys):
    message = "expression is nested more than 200 levels deep"
    path = tmp_path / "nested.lss"
    path.write_text(DEEP_SPEC.format(f=_nested(250), phi="y"))
    code, out, err = _run(capsys, "analyze", "--spec", str(path), "--at", "x=1,y=0")
    assert code == 2 and out == ""
    assert message in err and "[section system] (line 6)" in err
    # the same bound reads --at, --x0 and --param values
    deep = _nested(250).replace("x", "1")
    for argv in (("analyze", "--scenario", "example1", "--at", f"x={deep}"),
                 ("simulate", "--scenario", "rosenberg", "--x0", f"x={deep}",
                  "--t1", "0.01", "--dt", "0.001"),
                 ("analyze", "--scenario", "example1", "--param", f"a={deep}")):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "" and message in err
