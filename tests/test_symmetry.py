import math

import numpy as np
import pytest

from linsing.errors import NonFiniteError, ShapeError
from linsing.expressions import ExpressionField, derivative
from linsing.linalg import DEFAULT_TOLERANCES
from linsing.nonholonomic import (
    GeneralizedNonholonomicSystem,
    PointDynamics,
    SubmanifoldSpec,
)
from linsing.symmetry import (
    _directional_field,
    check_descent,
    check_inf_symmetry,
    check_symmetry,
    constant_descent,
    finite_candidate,
    infinitesimal_candidate,
)
from linsing.systems import LinearlySingularSystem, identity_system
from conftest import euler_step_candidate

V2 = ("x", "y")


def _planar_flow():
    return identity_system(ExpressionField.vector(["1", "y"], V2))


def _planar_constrained(delta=("x", "1")):
    base = _planar_flow()
    constraints = SubmanifoldSpec(ExpressionField.vector(["y - 2"], V2))
    forces = ExpressionField.matrix([[e] for e in delta], V2)
    return GeneralizedNonholonomicSystem(base, constraints, forces)


def _good_generator():
    """V = (1 + 2 log(y e^-x / 2), 0): an exact symmetry of x' = 1, y' = y."""
    return infinitesimal_candidate(
        ExpressionField.vector(["1 + 2*log(y*exp(-x)/2)", "0"], V2)
    )


# --------------------------------------------------------- candidate wiring

def test_candidate_validation():
    with pytest.raises(ShapeError):
        finite_candidate(
            ExpressionField.matrix([["x"]], ("x",)),
            ExpressionField.matrix([["1"]], ("x",)),
        )
    with pytest.raises(ShapeError):
        infinitesimal_candidate(
            ExpressionField.vector(["x", "y"], V2),
            ExpressionField.matrix([["1", "0"]], V2),
        )
    cand = _good_generator()
    assert cand.kind == "infinitesimal"
    # default fibre action is the Jacobian of the generator
    p = np.array([0.5, 2.0])
    assert np.allclose(cand.fibre(p), cand.base.jacobian_at(p))


def test_kind_mismatch_is_rejected():
    sys = _planar_flow()
    inf = _good_generator()
    fin = euler_step_candidate(inf, 1e-3)
    pts = [np.array([0.0, 1.0])]
    with pytest.raises(ShapeError):
        check_symmetry(sys, inf, pts)
    with pytest.raises(ShapeError):
        check_inf_symmetry(sys, fin, pts)


# ------------------------------------------------------ infinitesimal checks

def test_exact_generator_passes_everywhere():
    sys = _planar_flow()
    pts = [np.array([x, y]) for x in (-1.0, 0.0, 2.0) for y in (0.5, 2.0, 4.0)]
    res = check_inf_symmetry(sys, _good_generator(), pts)
    assert res.passed
    assert res.r_f < 1e-12 and res.r_A < 1e-12


def test_flow_along_itself_is_a_symmetry_but_need_not_descend():
    sys = _planar_flow()
    cand = infinitesimal_candidate(ExpressionField.vector(["1", "y"], V2))
    pts = [np.array([0.3, 1.7]), np.array([-2.0, 0.4])]
    assert check_inf_symmetry(sys, cand, pts).passed

    gnh = _planar_constrained()
    on_m = [np.array([0.0, 2.0]), np.array([1.0, 2.0])]
    desc = check_descent(gnh, cand, on_m)
    assert not desc.tangent_to_M
    assert abs(desc.tangency_residual - 2.0) < 1e-12
    assert not desc.preserves_forces
    # at x = 1 the transported-force defect (-1, 1) is orthogonal to the
    # force direction (1, 1), so the full norm sqrt(2) survives
    assert abs(desc.force_residual - math.sqrt(2.0)) < 1e-12
    assert not desc.descends


def test_good_generator_descends_and_restricts():
    gnh = _planar_constrained()
    cand = _good_generator()
    on_m = [np.array([x, 2.0]) for x in np.linspace(-1.5, 1.5, 10)]
    desc = check_descent(gnh, cand, on_m)
    assert desc.descends
    assert desc.tangency_residual < 1e-12
    assert desc.force_residual < 1e-12

    # restriction to the chart x on M: the reduced flow is x' = 1 - 2x and
    # the restricted generator is exactly its own right-hand side
    for x in np.linspace(-1.5, 1.5, 7):
        v = cand.base(np.array([x, 2.0]))
        assert abs(v[0] - (1.0 - 2.0 * x)) < 1e-12

    reduced = identity_system(ExpressionField.vector(["1 - 2*x"], ("x",)))
    reduced_cand = infinitesimal_candidate(
        ExpressionField.vector(["1 - 2*x"], ("x",))
    )
    res = check_inf_symmetry(
        reduced, reduced_cand, [np.array([x]) for x in np.linspace(-1.5, 1.5, 7)]
    )
    assert res.passed and res.r_f < 1e-14


# ------------------------------------------------------------- finite checks

def test_finite_translation_scaling_is_exact():
    sys = _planar_flow()
    s = 0.7
    psi = ExpressionField.vector([f"x + {s}", f"exp({s})*y"], V2)
    phi_m = ExpressionField.matrix([["1", "0"], ["0", f"exp({s})"]], V2)
    res = check_symmetry(sys, finite_candidate(psi, phi_m), [
        np.array([0.0, 1.0]), np.array([2.0, 3.0]), np.array([-1.0, 0.2]),
    ])
    assert res.passed
    assert res.r_f == 0.0 and res.r_A == 0.0


def test_degenerate_fibre_map_is_rejected():
    sys = _planar_flow()
    psi = ExpressionField.vector(["x", "y"], V2)
    phi_m = ExpressionField.matrix([["1", "0"], ["0", "0"]], V2)
    with pytest.raises(ShapeError):
        check_symmetry(sys, finite_candidate(psi, phi_m), [np.array([0.0, 1.0])])


def test_finite_descent_requires_force_invariance():
    gnh = _planar_constrained()  # force x dx + dy moves under x-translation
    psi = ExpressionField.vector(["x + 1", "y"], V2)
    phi_m = ExpressionField.matrix([["1", "0"], ["0", "1"]], V2)
    cand = finite_candidate(psi, phi_m)
    assert check_symmetry(_planar_flow(), cand, [np.array([0.3, 1.0])]).passed

    on_m = [np.array([0.0, 2.0]), np.array([0.8, 2.0])]
    desc = check_descent(gnh, cand, on_m)
    assert desc.tangent_to_M
    assert not desc.preserves_forces

    # with a translation-invariant force the same map descends
    gnh_inv = _planar_constrained(delta=("0", "1"))
    desc = check_descent(gnh_inv, cand, on_m)
    assert desc.descends
    assert desc.force_residual < 1e-14


# -------------------------------------------------- finite/infinitesimal link

def test_euler_flow_residual_scales_quadratically():
    # x' = x^2 with generator V = f: psi_eps = x + eps x^2 gives the exact
    # defect f(psi) - Phi f = eps^2 x^4, so halving eps divides r_f by 4
    sys = identity_system(ExpressionField.vector(["x^2"], ("x",)))
    cand = infinitesimal_candidate(ExpressionField.vector(["x^2"], ("x",)))
    pts = [np.array([v]) for v in (0.5, 1.0, 1.5)]
    assert check_inf_symmetry(sys, cand, pts).passed

    eps = 1e-3
    r1 = check_symmetry(sys, euler_step_candidate(cand, eps), pts, tol=1.0).r_f
    r2 = check_symmetry(sys, euler_step_candidate(cand, eps / 2), pts, tol=1.0).r_f
    assert abs(r1 - eps**2 * 1.5**4) < 1e-12
    assert 3.9 < r1 / r2 < 4.1


def test_euler_flow_residual_quadratic_on_singular_matrix_route():
    # A = [[1 + x^2]], f = [x], V = x/(1+x^2): exact infinitesimal symmetry
    # whose finite Euler step violates the A-condition only at O(eps^2)
    A = ExpressionField.matrix([["1 + x^2"]], ("x",))
    f = ExpressionField.vector(["x"], ("x",))
    sys = LinearlySingularSystem(A, f)
    cand = infinitesimal_candidate(
        ExpressionField.vector(["x/(1 + x^2)"], ("x",)),
        ExpressionField.matrix([["1/(1 + x^2)"]], ("x",)),
    )
    pts = [np.array([v]) for v in (0.4, 1.0, 2.0)]
    res = check_inf_symmetry(sys, cand, pts)
    assert res.passed and res.r_A < 1e-14

    eps = 1e-3
    ra1 = check_symmetry(sys, euler_step_candidate(cand, eps), pts, tol=1.0).r_A
    ra2 = check_symmetry(sys, euler_step_candidate(cand, eps / 2), pts, tol=1.0).r_A
    assert ra1 > 0.0
    assert 3.5 < ra1 / ra2 < 4.5


# -------------------------------------------------------- constants of motion

def _descent(gnh, h, points_on_m):
    return constant_descent(h, points_on_m, PointDynamics(gnh).flows(points_on_m))


def test_constant_descent_conditional_equivalence():
    gnh = _planar_constrained()
    on_m = [np.array([x, 2.0]) for x in np.linspace(-1.0, 1.0, 9)]

    # h = y e^-x is conserved by the free flow but not by the constrained one;
    # the Gamma-pairing detects exactly that obstruction
    h = ExpressionField.scalar("y*exp(-x)", V2)
    res = _descent(gnh, h, on_m)
    assert res.base_conserved
    assert not res.gamma_derivative_small
    assert not res.constrained_conserved
    assert res.consistent
    assert res.max_Y_h < 1e-12
    assert res.max_X_h > 0.5

    # h = y is not even conserved upstream: the equivalence is vacuous
    res = _descent(gnh, ExpressionField.scalar("y", V2), on_m)
    assert not res.base_conserved
    assert res.constrained_conserved  # X has no y-component on M
    assert res.consistent

    with pytest.raises(ShapeError):
        _descent(gnh, ExpressionField.vector(["y"], V2), on_m)


def test_constant_descent_on_knife_edge_velocities():
    from linsing.lagrangian import build_lagrangian_model, build_lagrangian_system, chetaev_frame

    m = build_lagrangian_model("(x'^2 + y'^2 + z'^2)/2", ("x", "y", "z"))
    phi = SubmanifoldSpec(ExpressionField.vector(["z' - y*x'"], m.variables))
    gnh = GeneralizedNonholonomicSystem(build_lagrangian_system(m), phi, chetaev_frame(m, phi))
    rng = np.random.default_rng(15)
    pts = []
    while len(pts) < 8:
        s = rng.uniform(-2, 2, size=6)
        s[5] = s[1] * s[3]  # z' = y x'
        pts.append(s)

    # y' survives the constraint forces: its Gamma-pairing vanishes
    vy = ExpressionField.scalar("y'", m.variables)
    res = _descent(gnh, vy, pts)
    assert res.base_conserved and res.gamma_derivative_small
    assert res.constrained_conserved and res.consistent

    # z' does not: the force has a dz-slot component
    vz = ExpressionField.scalar("z'", m.variables)
    res = _descent(gnh, vz, pts)
    assert res.base_conserved
    assert not res.gamma_derivative_small
    assert not res.constrained_conserved
    assert res.consistent


# ------------------------------------------------ D_V A as one directional field

def _reference_directional_derivative(mat_field, x, v):
    """(D_V A)(x) as sum_j (dA/dx_j)(x) * V_j(x), one partial field per variable,
    each entry differentiated on its own."""
    out = np.zeros(mat_field.shape)
    for j, name in enumerate(mat_field.variables):
        pf = ExpressionField([derivative(e, name) for e in mat_field.entries],
                             mat_field.variables, mat_field.shape)
        out += pf(x) * v[j]
    return out


DIRECTIONAL_CASES = [
    ([["1 + x^2"]], ["x/(1 + x^2)"]),
    ([["1 + x^2", "x*y"], ["sin(y)", "2 + y^2*x"]], ["x/(1 + x^2)", "exp(-y)*x"]),
    ([["1 + x^2", "x*y"], ["sin(y)", "2 + y^2*x"]], ["0", "y^2 - x"]),
    ([["1 + x^2", "x*y"], ["sin(y)", "2 + y^2*x"]], ["1", "0"]),
    # three terms: the order of the sum shows in the last bits
    ([["x*y + z^2", "exp(x*z)", "y"], ["sin(y)*x", "1 + x^2*y*z", "z*x"],
      ["x", "y*z", "2 + x^2"]],
     ["x/(1 + x^2)", "exp(-y)*x", "cos(z)*y"]),
]


@pytest.mark.parametrize("a_rows,v_exprs", DIRECTIONAL_CASES)
def test_directional_field_equals_the_sum_of_partials_bit_for_bit(a_rows, v_exprs):
    variables = ("x", "y", "z")[:len(v_exprs)]
    a = ExpressionField.matrix(a_rows, variables)
    v = ExpressionField.vector(v_exprs, variables)
    dva = _directional_field(a, v)
    rng = np.random.default_rng(3)
    pts = [rng.uniform(-2.0, 2.0, size=len(variables)) for _ in range(25)]
    for x in pts:
        want = _reference_directional_derivative(a, x, v(x))
        # equal as numbers: a skipped zero term may only flip the sign of a zero
        assert np.array_equal(dva(x), want)
    # and so the A-residual of the linearized check is unchanged
    sys = LinearlySingularSystem(a, ExpressionField.vector(["x"] * len(a_rows), variables))
    cand = infinitesimal_candidate(v)
    r_a = max(float(np.max(np.abs(
        _reference_directional_derivative(a, x, v(x)) + a(x) @ v.jacobian_at(x)
        - cand.fibre(x) @ a(x)))) for x in pts)
    assert check_inf_symmetry(sys, cand, pts, tol=1e9).r_A == r_a


@pytest.mark.parametrize("a_rows,v_exprs", DIRECTIONAL_CASES)
def test_directional_field_of_f_matches_its_jacobian_applied_to_v(a_rows, v_exprs):
    # D_V f as check_inf_symmetry now forms it, against Df(x) @ V(x) as it did
    variables = ("x", "y", "z")[:len(v_exprs)]
    f = ExpressionField.vector([e for row in a_rows for e in row], variables)
    v = ExpressionField.vector(v_exprs, variables)
    dvf = _directional_field(f, v)
    jf = f.jacobian_field()
    one_term = sum(e != "0" for e in v_exprs) == 1
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.uniform(-2.0, 2.0, size=len(variables))
        got = dvf(x)
        assert np.array_equal(got, _reference_directional_derivative(f, x, v(x)))
        if one_term:
            assert np.array_equal(got, jf(x) @ v(x))
        else:
            # a matrix-vector product may sum (and fuse) in another order
            assert np.allclose(got, jf(x) @ v(x), rtol=1e-15, atol=1e-15)


def test_residual_folds_reject_non_finite_values():
    sys = _planar_flow()
    pts = [np.array([0.5, 1.0]), np.array([1.0, 2.0])]
    nan_v = infinitesimal_candidate(ExpressionField.vector(["1e308*10*x", "0"], V2))
    with pytest.raises(NonFiniteError, match="r_f"):
        check_inf_symmetry(sys, nan_v, pts)
    overflowing = identity_system(ExpressionField.vector(["1", "y*1e300*1e10"], V2))
    shift = finite_candidate(ExpressionField.vector(["x + 1", "y"], V2),
                             ExpressionField.matrix([["1", "0"], ["0", "1"]], V2))
    with pytest.raises(NonFiniteError, match="r_f"):  # inf - inf
        check_symmetry(overflowing, shift, pts, tols=DEFAULT_TOLERANCES)
    h = ExpressionField.scalar("x", V2)
    flows = [(np.array([math.nan, 0.0]), np.zeros(2))] * 2
    with pytest.raises(NonFiniteError, match="Y_h"):
        constant_descent(h, pts, flows)
