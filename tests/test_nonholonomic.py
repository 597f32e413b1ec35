import numpy as np
import pytest

from linsing.errors import (
    BaseNotRegularError,
    FrameDegenerateError,
    InconsistentSystemError,
    NotComplementaryError,
    NotOnManifoldError,
    ShapeError,
)
from linsing.dynamics import integrate
from linsing.expressions import ExpressionField
from linsing.nonholonomic import (
    ForceFrame,
    GeneralizedNonholonomicSystem,
    H_frame_at,
    D_matrix_at,
    PointDynamics,
    SubmanifoldSpec,
    classify_at,
    constrained_field_at,
    multipliers_at,
    projectors_at,
    unconstrained_solution_at,
)
from linsing.systems import identity_system, make_system

V = ("x", "y")


def _example_flow(a=2.0):
    """Planar flow x' = 1, y' = y restricted to {y = a} with force x dx + dy.

    Everything is solvable by hand: Gamma = (x, 1), D = [1], u = -a and the
    constrained field is (1 - a x, 0).
    """
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    constraints = SubmanifoldSpec(ExpressionField.vector([f"y - {a}"], V))
    forces = ForceFrame([ExpressionField.vector(["x", "1"], V)])
    return GeneralizedNonholonomicSystem(base, constraints, forces)


# ------------------------------------------------------------- submanifolds

def test_submanifold_basics():
    m = SubmanifoldSpec(ExpressionField.vector(["x^2 + y^2 - 1"], V))
    assert m.codim == 1
    p = np.array([1.0, 0.0])
    assert m.is_on(p)
    assert np.allclose(m.jacobian(p), [[2.0, 0.0]])
    assert not m.is_on(np.array([1.0, 1.0]))


def test_project_onto_circle():
    m = SubmanifoldSpec(ExpressionField.vector(["x^2 + y^2 - 1"], V))
    x, ok, iters = m.project(np.array([2.0, 1.0]))
    assert ok and iters < 10
    assert abs(np.hypot(*x) - 1.0) < 1e-10
    # the Gauss-Newton step moves along the gradient: direction is preserved
    assert abs(x[0] / x[1] - 2.0) < 1e-9


def test_lift_solves_for_chosen_coordinates():
    m = SubmanifoldSpec(ExpressionField.vector(["y - x^2"], V))
    x, ok, _ = m.lift(np.array([2.0, 0.0]), free_indices=[1])
    assert ok
    assert np.allclose(x, [2.0, 4.0], atol=1e-10)
    # fixed coordinates stay put
    assert x[0] == 2.0


def test_force_frame_validation():
    with pytest.raises(ShapeError):
        ForceFrame([])
    with pytest.raises(ShapeError):
        ForceFrame(
            [
                ExpressionField.vector(["1", "0"], V),
                ExpressionField.vector(["1"], ("x",)),
            ]
        )
    fr = ForceFrame([ExpressionField.vector(["x", "1"], V)])
    assert fr.m == 1 and fr.k == 2
    assert np.allclose(fr.at(np.array([3.0, 0.0])), [[3.0], [1.0]])


def test_system_wiring_validation():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    phi_other = SubmanifoldSpec(ExpressionField.vector(["u - 2"], ("u", "v")))
    forces = ForceFrame([ExpressionField.vector(["x", "1"], V)])
    with pytest.raises(ShapeError):
        GeneralizedNonholonomicSystem(base, phi_other, forces)
    bad_forces = ForceFrame([ExpressionField.vector(["x", "1", "0"], ("x", "y", "z"))])
    with pytest.raises(ShapeError):
        GeneralizedNonholonomicSystem(base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)), bad_forces)


# ------------------------------------------------- the worked planar example

def test_planar_example_frozen_chain():
    gnh = _example_flow(a=2.0)
    for x1 in np.linspace(-2.0, 2.0, 20):
        p = np.array([x1, 2.0])
        gamma = H_frame_at(gnh, p)
        assert np.allclose(gamma, [[x1], [1.0]], atol=1e-14)
        d = D_matrix_at(gnh, p)
        assert np.allclose(d, [[1.0]], atol=1e-14)
        cls = classify_at(gnh, p)
        assert cls.regular and cls.surjective and cls.injective
        assert cls.rank_d == 1

        y = unconstrained_solution_at(gnh, p)
        assert np.allclose(y, [1.0, 2.0])
        x_dot, mult = constrained_field_at(gnh, p)
        assert not mult.gauged
        assert abs(mult.u[0] + 2.0) < 1e-12
        assert np.max(np.abs(x_dot - np.array([1.0 - 2.0 * x1, 0.0]))) < 1e-12


def test_planar_example_projectors():
    gnh = _example_flow(a=2.0)
    for x1 in (-1.5, 0.0, 0.7, 2.0):
        p = np.array([x1, 2.0])
        P, Q = projectors_at(gnh, p)
        assert np.allclose(P + Q, np.eye(2), atol=1e-13)
        assert np.allclose(P @ P, P, atol=1e-13)
        # ∂y maps to -x ∂x under the oblique projector
        assert np.allclose(P @ np.array([0.0, 1.0]), [-x1, 0.0], atol=1e-13)
        # the constrained field is exactly the projected free field
        y = unconstrained_solution_at(gnh, p)
        x_dot, _ = constrained_field_at(gnh, p, y_at=y)
        assert np.max(np.abs(P @ y - x_dot)) < 1e-12


def test_point_dynamics_matches_direct_path():
    gnh = _example_flow(a=2.0)
    pd = PointDynamics(gnh)
    for x1 in (-1.0, 0.3, 1.8):
        p = np.array([x1, 2.0])
        direct, mult = constrained_field_at(gnh, p)
        assert np.max(np.abs(pd.field(p) - direct)) < 1e-13
        assert np.max(np.abs(pd.multipliers(p) - mult.u)) < 1e-13
        assert np.allclose(pd.unconstrained(p), unconstrained_solution_at(gnh, p))


def test_integrate_reuses_the_k1_solve_for_the_multipliers():
    gnh = _example_flow(a=2.0)
    pd = PointDynamics(gnh)
    calls = []
    solve = pd.field_and_multipliers

    def counted(x):
        calls.append(x)
        return solve(x)

    pd.field_and_multipliers = counted
    steps = 10
    traj = integrate(pd.field, np.array([0.3, 2.0]), 1.0, 1.0 / steps,
                     project=gnh.constraints, multiplier_fn=pd.multipliers)
    assert traj.steps == steps
    assert len(calls) == 4 * steps + 1  # k1..k4 per step, plus u at the seed
    assert np.allclose(traj.multipliers[:, 0], -2.0)


# ---------------------------------------------------------- error taxonomy

def test_off_manifold_points_are_rejected():
    gnh = _example_flow()
    with pytest.raises(NotOnManifoldError):
        H_frame_at(gnh, np.array([0.0, 1.0]))
    with pytest.raises(NotOnManifoldError):
        classify_at(gnh, np.array([0.0, 2.5]))


def test_singular_base_raises():
    A = ExpressionField.matrix([["1", "0"], ["0", "0"]], V)
    f = ExpressionField.vector(["1", "0"], V)
    base = make_system(A, f)
    gnh = GeneralizedNonholonomicSystem(
        base,
        SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)),
        ForceFrame([ExpressionField.vector(["x", "1"], V)]),
    )
    with pytest.raises(BaseNotRegularError):
        unconstrained_solution_at(gnh, np.array([0.0, 2.0]))
    with pytest.raises(BaseNotRegularError):
        PointDynamics(gnh)  # constant singular base caught up front


def test_degenerate_force_frame_raises():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    forces = ForceFrame(
        [
            ExpressionField.vector(["x", "1"], V),
            ExpressionField.vector(["2*x", "2"], V),  # parallel section
        ]
    )
    gnh = GeneralizedNonholonomicSystem(
        base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)), forces
    )
    with pytest.raises(FrameDegenerateError):
        H_frame_at(gnh, np.array([1.0, 2.0]))
    # the evaluator checks the frame only once D comes back singular
    with pytest.raises(FrameDegenerateError):
        constrained_field_at(gnh, np.array([1.0, 2.0]))


def test_tangency_condition_can_be_unsolvable():
    # force pointing along the constraint surface: D = 0 but dphi.Y != 0
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    gnh = GeneralizedNonholonomicSystem(
        base,
        SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)),
        ForceFrame([ExpressionField.vector(["1", "0"], V)]),
    )
    p = np.array([0.5, 2.0])
    y = unconstrained_solution_at(gnh, p)
    with pytest.raises(InconsistentSystemError):
        multipliers_at(gnh, p, y)
    # the same geometry breaks the splitting T_xM ⊕ H_x
    with pytest.raises(NotComplementaryError):
        projectors_at(gnh, p)
    # the integrator's evaluator refuses too, instead of a least-squares u
    with pytest.raises(InconsistentSystemError):
        PointDynamics(gnh).field(p)


def test_surjective_but_not_injective_classification():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    forces = ForceFrame(
        [
            ExpressionField.vector(["x", "1"], V),
            ExpressionField.vector(["0", "1"], V),
        ]
    )
    gnh = GeneralizedNonholonomicSystem(
        base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)), forces
    )
    p = np.array([0.5, 2.0])
    cls = classify_at(gnh, p)
    assert cls.surjective and not cls.injective and not cls.regular
    mult = multipliers_at(gnh, p, unconstrained_solution_at(gnh, p))
    assert mult.gauged  # one-parameter family; minimum-norm representative
    assert mult.residual < 1e-12
    # any representative still produces a field tangent to M
    x_dot, _ = constrained_field_at(gnh, p)
    assert abs(gnh.constraints.jacobian(p) @ x_dot) < 1e-12
    # the integrator's evaluator picks the same gauged representative
    assert np.array_equal(PointDynamics(gnh).multipliers(p), mult.u)


def test_injective_but_not_surjective_classification():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    constraints = SubmanifoldSpec(ExpressionField.vector(["y - 2", "x - 1"], V))
    forces = ForceFrame([ExpressionField.vector(["x", "1"], V)])
    gnh = GeneralizedNonholonomicSystem(base, constraints, forces)
    p = np.array([1.0, 2.0])
    cls = classify_at(gnh, p)
    assert cls.injective and not cls.surjective and not cls.regular
    with pytest.raises(InconsistentSystemError):
        multipliers_at(gnh, p, unconstrained_solution_at(gnh, p))


# ------------------------------------------------------- random regular flows

def test_constrained_field_is_tangent_and_projected():
    # random polynomial flows with one linear constraint: at every regular
    # point the multiplier field equals P Y and is tangent to M
    rng = np.random.default_rng(11)
    names = ("x", "y", "z")
    for trial in range(25):
        coeff = rng.integers(-3, 4, size=(3, 3)).astype(float)
        f = ExpressionField.vector(
            [
                f"{coeff[i,0]} + {coeff[i,1]}*{names[i]} + {coeff[i,2]}*{names[(i+1)%3]}^2"
                for i in range(3)
            ],
            names,
        )
        base = identity_system(f)
        w = rng.integers(-2, 3, size=3).astype(float)
        w[2] = 1.0  # keep the constraint solvable for z
        phi = SubmanifoldSpec(
            ExpressionField.vector(
                [f"{w[0]}*x + {w[1]}*y + {w[2]}*z - 1"], names
            )
        )
        delta = rng.integers(-2, 3, size=3).astype(float)
        if abs(w @ delta) < 0.5:
            delta[2] += np.sign(w @ delta + 0.5) or 1.0
        if abs(w @ delta) < 0.5:
            continue
        forces = ForceFrame(
            [ExpressionField.vector([str(v) for v in delta], names)]
        )
        gnh = GeneralizedNonholonomicSystem(base, phi, forces)
        pt = rng.uniform(-1, 1, size=3)
        pt[2] = (1.0 - w[0] * pt[0] - w[1] * pt[1]) / w[2]
        assert phi.is_on(pt)

        cls = classify_at(gnh, pt)
        assert cls.regular
        x_dot, _ = constrained_field_at(gnh, pt)
        assert abs(phi.jacobian(pt) @ x_dot) < 1e-10
        P, _ = projectors_at(gnh, pt)
        y = unconstrained_solution_at(gnh, pt)
        assert np.max(np.abs(P @ y - x_dot)) < 1e-10
