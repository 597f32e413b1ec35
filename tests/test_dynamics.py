import io
import math

import numpy as np
import pytest

from linsing.cli import scenario_text
from linsing.dynamics import Trajectory, integrate, monitor
from linsing.errors import NonFiniteError, ProjectionDivergenceError, ShapeError
from linsing.expressions import ExpressionField
from linsing.nonholonomic import SubmanifoldSpec
from linsing.nonholonomic import PointDynamics, Projection
from linsing.specfile import loads
from oracles import integrate_arrays


def test_fourth_order_convergence_on_logistic_flow():
    # halving the step must shrink the endpoint error ~16x for RK4
    def field(x):
        return [v * (1.0 - v) for v in x]

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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("which", ["t1", "dt"])
def test_non_finite_times_are_rejected(which, bad):
    times = {"t1": 1.0, "dt": 0.1, which: bad}
    with pytest.raises(ValueError, match="must be finite"):
        integrate(lambda x: x, np.array([1.0]), times["t1"], times["dt"])


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


def test_csv_rows_are_the_per_value_format_bit_for_bit():
    rng = np.random.default_rng(9)
    states = rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-300, 300, (3000, 3))
    states[0] = [-0.0, 5e-324, 1.0 / 3.0]
    traj = Trajectory(0.1, 0.1 * np.arange(3000), states, states[:, :1] * 7.0,
                      np.abs(states[:, 2]))
    buf = io.StringIO()
    traj.write_csv(buf)
    rows = np.column_stack([traj.times, states, traj.multipliers, traj.drift]).tolist()
    want = "t,x1,x2,x3,u1,drift\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert buf.getvalue() == want


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


def test_monitor_series_is_the_value_at_each_state_bit_for_bit():
    spec = loads(scenario_text("rosenberg"))
    dyn = PointDynamics(spec.gnh)
    x0 = np.array([0.3, -0.4, 0.1, 1.2, -0.7, -0.4 * 1.2])
    traj = integrate(dyn.field, x0, 0.5, 1e-3, project=spec.constraints)
    assert sorted(spec.constants) == ["plane", "px", "twist", "vy"]
    for name, h in spec.constants.items():
        series = monitor(traj, h, name).series
        want = np.array([h(s) for s in traj.states])
        assert series.shape == want.shape and series.tobytes() == want.tobytes()


def test_trajectory_steps_property():
    t = Trajectory(
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
        integrate(lambda x: [v * v * v for v in x], np.array([1.0]), 2.0, 0.01)
    assert str(err.value) == "non-finite value in step 51 from t = 0.51: the state overflowed"
    # a finite state whose entries sum past the float range is not stopped
    big = integrate(lambda x: np.zeros(2), np.array([1e308, 1e308]), 0.2, 0.1)
    assert np.array_equal(big.states[-1], [1e308, 1e308])

    def solver_field(x):
        raise NonFiniteError("a linear solve has a non-finite right-hand side")

    with pytest.raises(NonFiniteError) as err:
        integrate(solver_field, np.array([1.0]), 1.0, 0.5)
    assert "in step 0 from t = 0: a linear solve" in str(err.value)


def test_drift_is_the_projection_residual_through_a_retry():
    spec = loads(scenario_text("rosenberg"), name="rosenberg")

    class FailsOnce(SubmanifoldSpec):
        """Reports the third projection as diverged, forcing a quarter-step retry."""

        calls = 0
        residual_calls = 0

        def project(self, x):
            res = super().project(x)
            self.calls += 1
            if self.calls == 3:
                return Projection(res[0], False, res[2], res.residual)
            return res

        def residual(self, x):
            self.residual_calls += 1
            return super().residual(x)

    manifold = FailsOnce(spec.constraints.phi)
    dyn = PointDynamics(spec.gnh)
    x0 = np.array([0.0, 1.0, 0.0, 2.0, 3.0, 2.0])
    traj = integrate(dyn.field, x0, 0.05, 0.01, project=manifold,
                     multiplier_fn=dyn.multipliers)
    assert manifold.calls == 5 + 4  # one projection per step, four for the retry
    assert manifold.residual_calls == 2  # the seed's on-M test and its drift
    for state, drift in zip(traj.states, traj.drift):
        assert drift == spec.constraints.residual(state)


@pytest.mark.parametrize("name, x0, dt, steps, second_order", [
    ("rosenberg", [0.3, -0.4, 0.1, 1.2, -0.7, -0.4 * 1.2], 1e-3, 500, False),
    # q1' on the mass shell, as `simulate` lifts it
    ("relparticle-L1", [0.2, -0.3, 0.5, 0.1, 1.0356157588604171, 0.1, -0.2, 0.15],
     2e-3, 100, True),
])
def test_stepping_on_floats_is_stepping_on_arrays_bit_for_bit(name, x0, dt, steps, second_order):
    spec = loads(scenario_text(name), name=name)
    dyn = PointDynamics(spec.gnh, second_order=second_order)
    traj = integrate(dyn.field, np.array(x0), steps * dt, dt, project=spec.constraints,
                     multiplier_fn=dyn.multipliers)
    states, mults, drift = integrate_arrays(dyn.field, x0, dt, steps, spec.constraints,
                                            dyn.multipliers)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.multipliers.tobytes() == mults.tobytes()
    assert traj.drift.tobytes() == drift.tobytes()


def test_the_memo_tells_a_negative_zero_from_a_positive_one():
    spec = loads(scenario_text("rosenberg"))
    dyn = PointDynamics(spec.gnh)
    solve, points = dyn.field_and_multipliers, []

    def counted(x):
        points.append(list(x))
        return solve(x)

    dyn.field_and_multipliers = counted
    plus, minus = [0.0, 1.0, 0.0, 2.0, 3.0, 2.0], [-0.0, 1.0, 0.0, 2.0, 3.0, 2.0]
    for x in (plus, minus, minus):
        dyn.field(x)
        dyn.multipliers(x)
    assert [math.copysign(1.0, p[0]) for p in points] == [1.0, -1.0]
