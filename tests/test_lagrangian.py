import numpy as np
import pytest

from linsing.errors import (
    InconsistentSystemError,
    MaxRankViolatedError,
    NotOnManifoldError,
)
from linsing.expressions import ExpressionField, evaluate, parse
from linsing.lagrangian import (
    build_lagrangian_model,
    build_lagrangian_system,
    chetaev_frame,
)
from linsing.linalg import kernel_basis, rank
from linsing.nonholonomic import GeneralizedNonholonomicSystem, PointDynamics, SubmanifoldSpec
from linsing.systems import consistency_at


def test_momenta_and_energy():
    m = build_lagrangian_model("(x'^2 + y'^2)/2 - x*y", ("x", "y"))
    assert m.variables == ("x", "y", "x'", "y'")
    env = {"x": 1.0, "y": 2.0, "x'": 3.0, "y'": 4.0}
    assert evaluate(m.momenta[0], env) == 3.0
    assert evaluate(m.momenta[1], env) == 4.0
    # E = sum v p - L = kinetic + potential
    assert m.energy_field(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(
        0.5 * (9 + 16) + 2.0
    )


def test_explicit_velocity_names():
    m = build_lagrangian_model("vx^2/2", ("x",), ("vx",))
    assert m.variables == ("x", "vx")
    assert evaluate(m.momenta[0], {"x": 0.0, "vx": 3.0}) == 3.0


def test_omega_matrix_against_hand_computation():
    # L = x y x' + x' y' has momenta p1 = x y + y', p2 = x', so
    # N - N^T = [[0, -x], [x, 0]] and W = [[0, 1], [1, 0]]
    m = build_lagrangian_model("x*y*x' + x'*y'", ("x", "y"))
    A = m.omega_matrix_field()(np.array([2.0, 3.0, 5.0, 7.0]))
    expected = np.array(
        [
            [0.0, -2.0, 0.0, -1.0],
            [2.0, 0.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.allclose(A, expected)
    # E = x' y' for this L
    assert m.energy_field(np.array([2.0, 3.0, 5.0, 7.0])) == pytest.approx(35.0)


def test_omega_matrix_is_antisymmetric():
    rng = np.random.default_rng(4)
    m = build_lagrangian_model(
        "(1 + x^2)*x'^2/2 + x*y*x'*y' + y'^2/2 - cos(x) + x^3*y", ("x", "y")
    )
    of = m.omega_matrix_field()
    for _ in range(20):
        p = rng.uniform(-2, 2, size=4)
        A = of(p)
        assert np.max(np.abs(A + A.T)) < 1e-12


def _is_regular(model, x):
    """L is regular at x iff the velocity Hessian W(x), the lower-left block of
    the omega matrix, has full rank n, equivalently iff the omega matrix has
    full rank 2n; the two routes must agree."""
    omega, n = model.omega_matrix_field()(x), model.nq
    regular = rank(omega[n:, :n]) == n
    assert regular == (rank(omega) == 2 * n)
    return regular


def test_regularity_two_route_criterion():
    x = np.array([0.3, -1.0, 0.8, 0.2])
    regular = build_lagrangian_model("(x'^2 + y'^2)/2 - x*y", ("x", "y"))
    assert _is_regular(regular, x)
    # degenerate: no y' dependence at all
    degenerate = build_lagrangian_model("x'^2/2 + y", ("x", "y"))
    assert not _is_regular(degenerate, x)


# --------------------------------------------------------------- Chetaev frame

def test_chetaev_frame_slots():
    m = build_lagrangian_model("(x'^2 + y'^2 + z'^2)/2", ("x", "y", "z"))
    phi = ExpressionField.vector(["z' - y*x'"], m.variables)
    fr = chetaev_frame(m, phi)
    # velocity gradient (-y, 0, 1) lands in the dq slots, dv slots stay zero
    assert fr.shape == (6, 1)
    col = fr(np.array([0.0, 1.0, 0.0, 2.0, 3.0, 2.0]))[:, 0]
    assert np.allclose(col, [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def test_chetaev_frame_rejects_velocity_free_constraints():
    m = build_lagrangian_model("x'^2/2", ("x",))
    phi = ExpressionField.vector(["x - 1"], m.variables)
    with pytest.raises(MaxRankViolatedError):
        chetaev_frame(m, phi)


# ------------------------------------------------- constrained free particle

def _nonholonomic(model, phi):
    """The Lagrangian's base, the constraint submanifold and its Chetaev frame,
    assembled as a spec file's [lagrangian] and [constraints] sections are."""
    return GeneralizedNonholonomicSystem(build_lagrangian_system(model), phi,
                                         chetaev_frame(model, phi))


STATE = np.array([0.0, 1.0, 0.0, 2.0, 3.0, 2.0])


def _skate():
    """Free particle with the knife-edge constraint z' = y x'."""
    m = build_lagrangian_model("(x'^2 + y'^2 + z'^2)/2", ("x", "y", "z"))
    phi = SubmanifoldSpec(ExpressionField.vector(["z' - y*x'"], m.variables))
    return m, phi, _nonholonomic(m, phi)


def test_knife_edge_frozen_point_values():
    m, phi, gnh = _skate()
    assert phi.is_on(STATE)
    pa = PointDynamics(gnh).analysis(STATE)
    cls = pa.classification
    assert cls.regular
    assert np.allclose(cls.d_matrix, [[-2.0]], atol=1e-13)

    y = pa.y
    assert np.allclose(y, [2.0, 3.0, 2.0, 0.0, 0.0, 0.0])
    x_dot = pa.field
    assert abs(pa.multipliers.u[0] + 3.0) < 1e-12
    assert np.max(np.abs(x_dot - np.array([2.0, 3.0, 2.0, -3.0, 0.0, 3.0]))) < 1e-12

    # projector route gives the same field
    P, _ = pa.projectors
    assert np.max(np.abs(P @ y - x_dot)) < 1e-12


def test_knife_edge_sode_route_agrees():
    m, phi, gnh = _skate()
    sode_x, _, sol = PointDynamics(gnh, second_order=True).solve(STATE)
    assert sol.kernel.dim == 0
    x_dot = PointDynamics(gnh).field(STATE)
    assert np.max(np.abs(sode_x - x_dot)) < 1e-10
    with pytest.raises(NotOnManifoldError):
        phi.require_on(np.array([[0.0, 1.0, 0.0, 2.0, 3.0, 9.0]]))


# ----------------------------------------------------- relativistic particles

Q4 = ("q1", "q2", "q3", "q4")
METRIC = "q1'^2 - q2'^2 - q3'^2 - q4'^2"


def _onshell_state(q=(0.0, 0.0, 0.0, 0.0), v=(1.25, 0.75, 0.0, 0.0)):
    s = np.array(list(q) + list(v))
    assert abs((v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2) - 1.0) < 1e-12
    return s


def test_quadratic_relativistic_energy_and_multiplier():
    # L = -g(v,v)/2 - U with U = q1; mass-shell constraint g(v,v) = 1
    m = build_lagrangian_model(f"-({METRIC})/2 - q1", Q4)
    s = _onshell_state()
    # E = -g(v,v)/2 + U
    g = s[4] ** 2 - s[5] ** 2 - s[6] ** 2 - s[7] ** 2
    assert m.energy_field(s) == pytest.approx(-g / 2 + s[0])

    phi = SubmanifoldSpec(ExpressionField.vector([f"{METRIC} - 1"], m.variables))
    gnh = _nonholonomic(m, phi)
    dyn = PointDynamics(gnh)
    pa = dyn.analysis(s)
    assert pa.classification.regular
    # D = 4 c^2 / m on the mass shell
    assert np.allclose(pa.classification.d_matrix, [[4.0]], atol=1e-12)

    assert np.allclose(pa.y[:4], s[4:], atol=1e-13)
    # u = -v1/2, so the conventionally scaled multiplier 2u equals -v1
    assert abs(2.0 * pa.multipliers.u[0] + s[4]) < 1e-12

    rng = np.random.default_rng(2)
    for _ in range(10):
        v_sp = rng.uniform(-1, 1, size=3)
        v0 = np.sqrt(1.0 + v_sp @ v_sp)
        s2 = np.concatenate([rng.uniform(-1, 1, size=4), [v0], v_sp])
        assert abs(2.0 * dyn.multipliers(s2)[0] + s2[4]) < 1e-10


def test_homogeneous_relativistic_lagrangian_is_singular():
    m = build_lagrangian_model(f"-sqrt({METRIC})", Q4)
    s = _onshell_state()
    # E vanishes identically for the homogeneous Lagrangian (here U = 0)
    assert abs(m.energy_field(s)) < 1e-12

    A = m.omega_matrix_field()(s)
    assert rank(A) == 6
    assert not _is_regular(m, s)
    # the kernel is spanned by (v; 0) and (0; v)
    v = s[4:]
    k1 = np.concatenate([v, np.zeros(4)])
    k2 = np.concatenate([np.zeros(4), v])
    assert np.max(np.abs(A @ k1)) < 1e-12
    assert np.max(np.abs(A @ k2)) < 1e-12
    kern = kernel_basis(A)
    assert kern.dim == 2


def test_homogeneous_lagrangian_with_linear_potential_is_obstructed():
    # dE = (dU; 0) pairs the kernel direction (v; 0) to <dU, v> = k v1 != 0,
    # so the unrestricted problem is inconsistent at timelike points
    m = build_lagrangian_model(f"-sqrt({METRIC}) - q1", Q4)
    sys = build_lagrangian_system(m)
    s = _onshell_state()
    res = consistency_at(sys, s)
    assert not res.consistent
    assert res.rank_A == 6

    free = build_lagrangian_model(f"-sqrt({METRIC})", Q4)
    assert consistency_at(build_lagrangian_system(free), s).consistent


def test_homogeneous_sode_matches_quadratic_dynamics():
    # with U = 0 both formulations must produce straight world lines
    m1 = build_lagrangian_model(f"-sqrt({METRIC})", Q4)
    m2 = build_lagrangian_model(f"-({METRIC})/2", Q4)
    phi = SubmanifoldSpec(
        ExpressionField.vector([f"{METRIC} - 1"], m1.variables)
    )
    sode = PointDynamics(_nonholonomic(m1, phi), second_order=True)
    dyn2 = PointDynamics(_nonholonomic(m2, phi))
    rng = np.random.default_rng(6)
    for _ in range(10):
        v_sp = rng.uniform(-0.8, 0.8, size=3)
        v0 = np.sqrt(1.0 + v_sp @ v_sp)
        s = np.concatenate([rng.uniform(-1, 1, size=4), [v0], v_sp])
        x1, _, sol = sode.solve(s)
        assert sol.kernel.dim == 0
        assert np.max(np.abs(x1 - dyn2.field(s))) < 1e-10
        assert np.max(np.abs(x1 - np.concatenate([s[4:], np.zeros(4)]))) < 1e-10


def test_sode_reports_infeasible_points():
    # L = x'^2/2 + y leaves y without a velocity but with a nonzero force:
    # the y-row of the stacked problem reads 0 = -1. A constraint on y' would
    # absorb it through its Chetaev force, but a constraint on x' cannot.
    m = build_lagrangian_model("x'^2/2 + y", ("x", "y"))
    s = np.array([0.0, 0.0, 1.0, 0.0])

    absorbed = SubmanifoldSpec(ExpressionField.vector(["y' - 0"], m.variables))
    dyn = PointDynamics(_nonholonomic(m, absorbed), second_order=True)
    assert dyn.solve(s)[2].residual < 1e-12

    blocked = SubmanifoldSpec(ExpressionField.vector(["x' - 1"], m.variables))
    assert blocked.is_on(s)
    with pytest.raises(InconsistentSystemError):
        PointDynamics(_nonholonomic(m, blocked), second_order=True).solve(s)
