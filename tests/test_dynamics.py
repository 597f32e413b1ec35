import io
import math

import numpy as np
import pytest

from linsing.dynamics import Trajectory, integrate, monitor
from linsing.errors import NonFiniteError, ProjectionDivergenceError, ShapeError
from linsing.expressions import ExpressionField
from linsing.nonholonomic import SubmanifoldSpec


def test_fourth_order_convergence_on_logistic_flow():
    # halving the step must shrink the endpoint error ~16x for RK4
    def field(x):
        return x * (1.0 - x)

    def exact(t, x0=0.1):
        return 1.0 / (1.0 + (1.0 / x0 - 1.0) * math.exp(-t))

    errs = []
    for dt in (0.1, 0.05):
        traj = integrate(field, np.array([0.1]), t1=1.0, dt=dt)
        errs.append(abs(traj.states[-1, 0] - exact(1.0)))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_constant_field_is_integrated_exactly():
    traj = integrate(lambda x: np.array([2.0, -1.0]), np.array([0.0, 5.0]), 3.0, 0.5)
    assert traj.steps == 6
    assert np.allclose(traj.times, 0.5 * np.arange(7))
    assert np.max(np.abs(traj.states[-1] - np.array([6.0, 2.0]))) < 1e-13
    assert traj.multipliers.shape == (7, 0)
    assert np.all(traj.drift == 0.0)


def test_step_validation():
    f = lambda x: x
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), 1.0, -0.1)
    with pytest.raises(ValueError):
        integrate(f, np.array([1.0]), 0.0, 0.1)


def test_projection_keeps_states_on_circle():
    circle = SubmanifoldSpec(
        ExpressionField.vector(["x^2 + y^2 - 1"], ("x", "y"))
    )

    def rotation(x):
        return np.array([-x[1], x[0]])

    traj = integrate(rotation, np.array([1.0, 0.0]), 20.0, 1e-2, project=circle)
    assert np.max(traj.drift) < 1e-9
    # a full revolution every 2*pi: check the angle, not just the radius
    theta = math.atan2(traj.states[-1, 1], traj.states[-1, 0])
    assert abs(theta - math.atan2(math.sin(20.0), math.cos(20.0))) < 1e-5
    # slightly off-manifold seeds are pulled on before the run starts
    traj = integrate(
        rotation, np.array([1.0 + 1e-4, 0.0]), 0.1, 0.05, project=circle
    )
    assert abs(np.hypot(*traj.states[0]) - 1.0) < 1e-9


def test_projection_divergence_raises():
    # phi = x^2 + y^2 has a single zero with vanishing gradient: Gauss-Newton
    # halves the distance per iteration and cannot reach 1e-10 from far away
    cusp = SubmanifoldSpec(ExpressionField.vector(["x^2 + y^2"], ("x", "y")))
    with pytest.raises(ProjectionDivergenceError) as err:
        integrate(lambda x: np.zeros(2), np.array([1000.0, 0.0]), 1.0, 1.0, project=cusp)
    assert err.value.step_index == -1  # the seed itself

    with pytest.raises(ProjectionDivergenceError) as err:
        integrate(
            lambda x: np.array([1000.0, 0.0]),
            np.array([0.0, 0.0]),
            1.0,
            1.0,
            project=cusp,
        )
    assert err.value.step_index == 0


def test_multiplier_series_is_recorded():
    traj = integrate(
        lambda x: np.array([1.0]),
        np.array([0.0]),
        1.0,
        0.25,
        multiplier_fn=lambda x: np.array([2.0 * x[0]]),
    )
    assert traj.multipliers.shape == (5, 1)
    assert np.allclose(traj.multipliers[:, 0], 2.0 * traj.states[:, 0])


def test_csv_round_trip():
    traj = integrate(
        lambda x: np.array([1.0, -0.5]),
        np.array([0.25, 1.0 / 3.0]),
        0.3,
        0.1,
        multiplier_fn=lambda x: np.array([x[0] * x[1]]),
    )
    buf = io.StringIO()
    traj.write_csv(buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "t,x1,x2,u1,drift"
    assert lines[-1] == ""  # trailing newline
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == traj.steps + 1
    # %.17g survives the float round trip bit-for-bit
    for i, row in enumerate(rows):
        assert float(row[1]) == traj.states[i, 0]
        assert float(row[2]) == traj.states[i, 1]
        assert float(row[3]) == traj.multipliers[i, 0]


def test_csv_writes_to_path(tmp_path):
    traj = integrate(lambda x: np.array([1.0]), np.array([0.0]), 0.2, 0.1)
    target = tmp_path / "run.csv"
    traj.write_csv(str(target))
    content = target.read_bytes()
    assert content.startswith(b"t,x1,drift\n")
    assert b"\r" not in content  # LF endings regardless of platform


def test_monitor_tracks_deviation_from_seed_value():
    circle = SubmanifoldSpec(
        ExpressionField.vector(["x^2 + y^2 - 1"], ("x", "y"))
    )
    traj = integrate(
        lambda x: np.array([-x[1], x[0]]),
        np.array([1.0, 0.0]),
        5.0,
        1e-2,
        project=circle,
    )
    radius = ExpressionField.scalar("x^2 + y^2", ("x", "y"))
    res = monitor(traj, radius, name="radius")
    assert res.max_abs_deviation < 1e-9
    assert "radius" in traj.monitors
    assert len(res.series) == traj.steps + 1

    # a non-conserved quantity shows an O(1) deviation
    res2 = monitor(traj, ExpressionField.scalar("x", ("x", "y")))
    assert res2.max_abs_deviation > 0.5
    assert res2.name == "x"

    with pytest.raises(ShapeError):
        monitor(traj, ExpressionField.vector(["x"], ("x", "y")))


def test_trajectory_steps_property():
    t = Trajectory(
        0.0,
        0.5,
        np.array([0.0, 0.5, 1.0]),
        np.zeros((3, 1)),
        np.zeros((3, 0)),
        np.zeros(3),
    )
    assert t.steps == 2


def test_step_that_does_not_divide_the_span_is_rejected():
    with pytest.raises(ValueError, match="does not divide"):
        integrate(lambda x: -x, np.array([1.0]), 1.0, 0.3)


def test_a_blow_up_stops_with_a_non_finite_error_naming_the_step():
    # x' = x^3 from x = 1 blows up at t = 1/2; no inf state is ever stored
    with pytest.raises(NonFiniteError) as err:
        integrate(lambda x: x**3, np.array([1.0]), 2.0, 0.01)
    assert str(err.value) == "non-finite value in step 51 from t = 0.51: the state overflowed"

    def solver_field(x):
        raise NonFiniteError("a linear solve has a non-finite right-hand side")

    with pytest.raises(NonFiniteError) as err:
        integrate(solver_field, np.array([1.0]), 1.0, 0.5)
    assert "in step 0 from t = 0: a linear solve" in str(err.value)
