import collections

import numpy as np
import pytest

from oracles import NotComplementaryError, complement_projectors, kernel_basis
from test_checked_route import _same_consistency

from linsing import cli
from linsing.errors import (
    BaseNotRegularError,
    FrameDegenerateError,
    InconsistentSystemError,
    NonFiniteError,
    NotOnManifoldError,
    ShapeError,
)
from linsing.dynamics import integrate
from linsing.expressions import ExpressionField
from linsing import linalg
from linsing.linalg import Tolerances
from linsing.nonholonomic import GeneralizedNonholonomicSystem, PointDynamics, SubmanifoldSpec
from linsing.sampling import halton_box, on_manifold_sample
from linsing.specfile import loads
from linsing.systems import LinearlySingularSystem, identity_system

V = ("x", "y")


def _example_flow(a=2.0):
    """Planar flow x' = 1, y' = y restricted to {y = a} with force x dx + dy.

    Everything is solvable by hand: Gamma = (x, 1), D = [1], u = -a and the
    constrained field is (1 - a x, 0).
    """
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    constraints = SubmanifoldSpec(ExpressionField.vector([f"y - {a}"], V))
    forces = ExpressionField.matrix([["x"], ["1"]], V)
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


# --------------------------------------------------- batch Gauss-Newton lift

def _lstsq_lift(m, x, free, max_iter):
    """The one-point Gauss-Newton loop with numpy's lstsq step (its own rank
    cut-off, eps * max(M, N) * s_max): the reference for the batch lift."""
    target = Tolerances.projection_target
    rounding = Tolerances.projection_rounding * np.finfo(float).eps
    x = np.asarray(x, dtype=float).copy()
    for it in range(max_iter + 1):
        vals = m.values(x)
        worst = float(np.max(np.abs(vals)))
        if worst <= target or it == max_iter:
            return x, worst <= target, it, worst
        j = m.jacobian(x)
        if worst <= rounding * float(np.max(np.abs(j) @ np.abs(x))):
            return x, True, it, worst
        x[free] = x[free] - np.linalg.lstsq(j[:, free], vals, rcond=None)[0]


def _free(n, which):
    # all coordinates (sampling), and subsets like the ones `--at` lifts solve for
    return {"all": list(range(n)), "last": [n - 1], "back half": list(range(n // 2, n))}[which]


@pytest.mark.parametrize("which", ["all", "last", "back half"])
@pytest.mark.parametrize("name", cli.SCENARIOS)
def test_batch_lift_matches_the_lstsq_loop_bit_for_bit(name, which):
    spec = loads(cli.scenario_text(name), name=name)
    free = _free(len(spec.variables), which)
    raw = halton_box(spec.variables, spec.box, 120)
    got = spec.constraints.lift(raw, free, 50)
    for i, row in enumerate(raw):
        point, ok, it, res = _lstsq_lift(spec.constraints, row, free, 50)
        assert np.array_equal(got[0][i], point), i
        assert (got[1][i], got[2][i], got.residual[i]) == (ok, it, res), i
        one = spec.constraints.lift(row, free, 50)
        assert np.array_equal(one[0], point) and (one[1], one[2], one.residual) == (ok, it, res)


def test_batch_lift_ends_a_row_with_a_zero_step_as_the_loop_would():
    # relparticle-L1 with q1' = 0, the start `--x0` lifts take: dphi/dq1' = 2 q1'
    # is 0, so the step is 0 and the loop repeats itself up to the cap
    spec = loads(cli.scenario_text("relparticle-L1"), name="relparticle-L1")
    raw = halton_box(spec.variables, spec.box, 6)
    raw[::2, 4] = 0.0
    got = spec.constraints.lift(raw, [4], 50)
    for i, row in enumerate(raw):
        point, ok, it, res = _lstsq_lift(spec.constraints, row, [4], 50)
        assert np.array_equal(got[0][i], point)
        assert (got[1][i], got[2][i], got.residual[i]) == (ok, it, res)
        assert (it, ok) == ((50, False) if i % 2 == 0 else (it, True))


TWO_CONSTRAINTS = ["x^2 + y^2 + z^2 - 1", "x*y - z/4"]
# rank 1 everywhere: the second constraint is twice the first
DEPENDENT_CONSTRAINTS = ["x^2 + y^2 - 1", "2*x^2 + 2*y^2 - 2"]


@pytest.mark.parametrize("phi,which", [
    (TWO_CONSTRAINTS, "all"), (TWO_CONSTRAINTS, "back half"), (DEPENDENT_CONSTRAINTS, "all"),
])
def test_batch_lift_with_several_constraints_agrees_with_the_lstsq_loop(phi, which):
    variables = ("x", "y", "z")
    m = SubmanifoldSpec(ExpressionField.vector(phi, variables))
    free = _free(3, which)
    raw = halton_box(variables, {v: (-2.0, 2.0) for v in variables}, 150)
    got = m.lift(raw, free, 50)
    quick = 0
    for i, row in enumerate(raw):
        point, ok, it, _ = _lstsq_lift(m, row, free, 50)
        # the SVD step differs from lstsq's in the last bits, which a row that
        # wanders for many steps amplifies: only the verdicts are compared there
        assert got[1][i] == ok, i
        if ok:
            assert m.residual(got[0][i]) <= Tolerances.projection_target
        if ok and it <= 10:
            quick += 1
            assert got[2][i] == it
            assert np.allclose(got[0][i], point, rtol=0.0, atol=1e-12)
    assert quick >= 50


def test_projection_of_a_non_finite_constraint_value_is_a_typed_error():
    m = SubmanifoldSpec(ExpressionField.vector(["1e308*10*x - y"], V))
    with pytest.raises(NonFiniteError):
        m.project(np.array([1.0, 0.0]))
    with pytest.raises(NonFiniteError):
        m.lift(np.array([[0.5, 0.5], [1.0, 0.0]]), [0, 1], 20)
    # inf - inf: a NaN value is not on target, so a single point goes on to
    # Gauss-Newton, which rejects it
    m = SubmanifoldSpec(ExpressionField.vector(["y", "1e308*10*x - 1e308*10*x"], V))
    with pytest.raises(NonFiniteError):
        m.project(np.array([1.0, 0.0]))
    with pytest.raises(NonFiniteError):
        m.lift(np.array([1.0, 0.0]), [1])


def test_a_point_on_target_returns_at_once_with_its_residual():
    m = SubmanifoldSpec(ExpressionField.vector(["x^2 + y^2 - 1", "-x*y*1e-12"], V))
    points = [np.array([np.cos(t), np.sin(t)]) for t in np.linspace(0.0, 3.0, 7)]
    points.append(np.array([0.0, 1.0]))  # phi = (0, -0)
    for p in points:
        proj = m.project(p)
        assert proj[1] and proj[2] == 0
        assert np.array_equal(proj[0], p) and proj[0] is not p
        assert proj.residual.hex() == float(np.max(np.abs(m.phi(p)))).hex()


def test_sampler_projects_in_batches_without_lstsq(monkeypatch):
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def forbidden(*args, **kwargs):
        raise AssertionError("lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    monkeypatch.setattr(SubmanifoldSpec, "lift", counted("batches", SubmanifoldSpec.lift))
    monkeypatch.setattr(SubmanifoldSpec, "project", counted("project", SubmanifoldSpec.project))
    rosenberg = loads(cli.scenario_text("rosenberg"), name="rosenberg")
    variables = ("x", "y", "z")
    two = SubmanifoldSpec(ExpressionField.vector(TWO_CONSTRAINTS, variables))
    cap = Tolerances.projection_iterations + 1
    for m, names, box, kind in ((rosenberg.constraints, rosenberg.variables, rosenberg.box, "qr"),
                                (two, variables, {v: (-2.0, 2.0) for v in variables}, "svd")):
        counts.clear()
        pts = on_manifold_sample(m, names, box, 200)
        assert len(pts) == 200
        assert counts["project"] == 0
        # one factorization call per iteration of a batch: QR for one
        # constraint, a stacked SVD for several
        assert 0 < counts[kind] <= cap * counts["batches"]
        assert counts["svd" if kind == "qr" else "qr"] == 0


def test_force_frame_validation():
    # the frame is a k x m matrix field over the base's variables, m >= 1
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    on_m = SubmanifoldSpec(ExpressionField.vector(["y - 2"], V))
    for bad in (
        ExpressionField([], V, (2, 0)),                             # no column
        ExpressionField.matrix([["x"], ["1"], ["0"]], V),           # 3 rows, k = 2
        ExpressionField.vector(["x", "1"], V),                      # not a matrix
        ExpressionField.matrix([["x"], ["1"]], ("x", "y", "z")),    # other variables
    ):
        with pytest.raises(ShapeError):
            GeneralizedNonholonomicSystem(base, on_m, bad)
    gnh = GeneralizedNonholonomicSystem(base, on_m, ExpressionField.matrix([["x", "0"], ["1", "1"]], V))
    assert (gnh.m, gnh.a) == (2, 1)
    assert np.array_equal(gnh.forces(np.array([3.0, 0.0])), [[3.0, 0.0], [1.0, 1.0]])


def test_system_wiring_validation():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    phi_other = SubmanifoldSpec(ExpressionField.vector(["u - 2"], ("u", "v")))
    forces = ExpressionField.matrix([["x"], ["1"]], V)
    with pytest.raises(ShapeError):
        GeneralizedNonholonomicSystem(base, phi_other, forces)
    bad_forces = ExpressionField.matrix([["x"], ["1"], ["0"]], ("x", "y", "z"))
    with pytest.raises(ShapeError):
        GeneralizedNonholonomicSystem(base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)), bad_forces)


# ------------------------------------------------- the worked planar example

def test_planar_example_frozen_chain():
    gnh = _example_flow(a=2.0)
    dyn = PointDynamics(gnh)
    for x1 in np.linspace(-2.0, 2.0, 20):
        p = np.array([x1, 2.0])
        pa = dyn.analysis(p)
        cls = pa.classification
        assert np.allclose(cls.d_matrix, [[1.0]], atol=1e-14)
        assert cls.regular and cls.surjective and cls.injective
        assert cls.rank_d == 1

        assert np.allclose(pa.y, [1.0, 2.0])
        x_dot, mult = pa.field, pa.multipliers
        assert not mult.gauged
        assert abs(mult.u[0] + 2.0) < 1e-12
        assert np.max(np.abs(x_dot - np.array([1.0 - 2.0 * x1, 0.0]))) < 1e-12


def test_planar_example_projectors():
    gnh = _example_flow(a=2.0)
    dyn = PointDynamics(gnh)
    for x1 in (-1.5, 0.0, 0.7, 2.0):
        p = np.array([x1, 2.0])
        pa = dyn.analysis(p)
        P, Q = pa.projectors
        assert np.allclose(P + Q, np.eye(2), atol=1e-13)
        assert np.allclose(P @ P, P, atol=1e-13)
        # ∂y maps to -x ∂x under the oblique projector
        assert np.allclose(P @ np.array([0.0, 1.0]), [-x1, 0.0], atol=1e-13)
        # the constrained field is exactly the projected free field
        assert np.max(np.abs(P @ pa.y - pa.field)) < 1e-12


def test_point_dynamics_matches_direct_path():
    # the hand solution of `_example_flow`: Y = (1, a), u = -a, X = (1 - a x, 0)
    gnh = _example_flow(a=2.0)
    pd = PointDynamics(gnh)
    for x1 in (-1.0, 0.3, 1.8):
        p = np.array([x1, 2.0])
        direct = np.array([1.0 - 2.0 * x1, 0.0])
        assert np.max(np.abs(pd.field(p) - direct)) < 1e-13
        assert np.max(np.abs(pd.multipliers(p) + 2.0)) < 1e-13
        assert np.allclose(pd.analysis(p).y, [1.0, 2.0])
        assert np.array_equal(pd.solve(p)[0], pd.field(p))


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
        gnh.constraints.require_on(np.array([0.0, 1.0]))
    with pytest.raises(NotOnManifoldError):
        gnh.constraints.require_on(np.array([[0.0, 2.0], [0.0, 2.5]]))


def test_a_nan_constraint_residual_is_off_the_manifold():
    # x*x - y*y overflows to inf - inf = nan at x = y = 1e200: a point whose
    # residual cannot be measured is not on M
    constraints = SubmanifoldSpec(ExpressionField.vector(["x*x - y*y"], V))
    with pytest.raises(NotOnManifoldError, match=r"max \|phi\| = nan"):
        constraints.require_on(np.array([1e200, 1e200]))
    with pytest.raises(NotOnManifoldError, match=r"max \|phi\| = nan"):
        constraints.require_on(np.array([[1.0, 1.0], [1e200, 1e200]]))
    assert not constraints.is_on(np.array([1e200, 1e200]))


CONSTANT_SINGULAR_SPEC = """
[vars]
names = x, y
[system]
A = 1, 0; 0, 0
f = 1, 0
[constraints]
phi = y - 2
[forces]
Delta = x, 1
"""


def test_singular_base_raises():
    gnh = loads(CONSTANT_SINGULAR_SPEC).gnh
    dyn = PointDynamics(gnh)  # a constant singular base is decided per point, not refused
    pts = np.array([[0.5, 2.0], [-1.0, 2.0], [3.0, 2.0]])
    want = [linalg.solve_affine(gnh.base.A(x), gnh.base.f(x)) for x in pts]
    errors = dyn.analyses(pts)
    for err, res in zip(errors, want):
        assert isinstance(err, BaseNotRegularError) and gnh.base.n - res.kernel.dim == 1
        _same_consistency(err.solution, res)
    for x, res in zip(pts, want):
        with pytest.raises(BaseNotRegularError) as err:
            dyn.analysis(x)
        _same_consistency(err.value.solution, res)
    with pytest.raises(BaseNotRegularError) as err:
        dyn.flows(pts)
    _same_consistency(err.value.solution, want[0])
    # singular base, regular constrained system: the bordered solve finds X
    xf, u, _ = dyn.solve(pts[0])
    assert np.allclose(xf, [1.0, 0.0], rtol=0.0, atol=1e-15)
    assert abs(u[0]) <= 1e-15
    # the second-order system solves without base rows, so it has none to check
    with pytest.raises(TypeError, match="no base rows"):
        PointDynamics(gnh, second_order=True).analyses(np.array([[0.0, 2.0]]))


def test_degenerate_force_frame_raises():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    forces = ExpressionField.matrix([["x", "2*x"], ["1", "2"]], V)  # parallel sections
    gnh = GeneralizedNonholonomicSystem(
        base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)), forces
    )
    dyn = PointDynamics(gnh)
    with pytest.raises(FrameDegenerateError):
        dyn.analysis(np.array([1.0, 2.0]))
    # the evaluator checks the frame only once D comes back singular
    with pytest.raises(FrameDegenerateError):
        dyn.solve(np.array([1.0, 2.0]))


def test_tangency_condition_can_be_unsolvable():
    # force pointing along the constraint surface: D = 0 but dphi.Y != 0
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    gnh = GeneralizedNonholonomicSystem(
        base,
        SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)),
        ExpressionField.matrix([["1"], ["0"]], V),
    )
    p = np.array([0.5, 2.0])
    dyn = PointDynamics(gnh)
    with pytest.raises(InconsistentSystemError):
        dyn.analysis(p)
    # the integrator's evaluator refuses too, instead of a least-squares u
    with pytest.raises(InconsistentSystemError):
        dyn.field(p)
    # the same geometry breaks the splitting T_xM ⊕ H_x
    with pytest.raises(NotComplementaryError):
        complement_projectors(kernel_basis(gnh.constraints.jacobian(p)), gnh.forces(p))


def test_surjective_but_not_injective_classification():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    forces = ExpressionField.matrix([["x", "0"], ["1", "1"]], V)
    gnh = GeneralizedNonholonomicSystem(
        base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], V)), forces
    )
    p = np.array([0.5, 2.0])
    dyn = PointDynamics(gnh)
    # two force directions at a point of a curve in the plane: D has rank 1,
    # and T_xM + H_x is not direct, so there are no projectors
    pa = dyn.analysis(p)
    cls = pa.classification
    assert (cls.rank_d, cls.surjective, cls.injective, cls.regular) == (1, True, False, False)
    assert pa.projectors is None
    y = dyn.flows(p[None])[0, 0]
    jphi = gnh.constraints.jacobian(p)
    d = jphi @ gnh.forces(p)  # B = I: Gamma is the frame itself
    assert linalg.rank(d) == 1 < 2  # surjective, not injective
    assert np.array_equal(cls.d_matrix, d) and np.array_equal(pa.y, y)
    x_dot, u, sol = dyn.solve(p)
    assert sol.kernel.dim > 0  # one-parameter family; minimum-norm representative
    assert sol.residual < 1e-12
    assert np.allclose(u, linalg.solve_affine(d, -(jphi @ y)).x0)
    assert pa.multipliers.gauged and np.array_equal(pa.multipliers.u, u)
    assert np.array_equal(pa.field, x_dot)
    # any representative still produces a field tangent to M
    assert abs(jphi @ x_dot) < 1e-12
    # the integrator's evaluator picks the same gauged representative
    assert np.array_equal(dyn.multipliers(p), u)


def test_injective_but_not_surjective_classification():
    base = identity_system(ExpressionField.vector(["1", "y"], V))
    constraints = SubmanifoldSpec(ExpressionField.vector(["y - 2", "x - 1"], V))
    forces = ExpressionField.matrix([["x"], ["1"]], V)
    gnh = GeneralizedNonholonomicSystem(base, constraints, forces)
    p = np.array([1.0, 2.0])
    # -dphi . Y = -(2, 1) is not in the image of D = (1, x): no multiplier
    with pytest.raises(InconsistentSystemError):
        PointDynamics(gnh).analysis(p)
    # with f = (1, 1), -dphi . Y = -(1, 1) lies in the image of D = (1, x): u = -1
    # solves it, but M is a point and H_x a line, so no projectors split R^2
    consistent = GeneralizedNonholonomicSystem(
        identity_system(ExpressionField.vector(["1", "1"], V)), constraints, forces)
    dyn = PointDynamics(consistent)
    d = constraints.jacobian(p) @ forces(p)  # B = I: Gamma is the frame itself
    assert linalg.rank(d) == 1 < 2  # injective, not surjective
    x_dot, u, sol = dyn.solve(p)
    assert sol.kernel.dim == 0 and np.allclose(u, [-1.0]) and np.allclose(x_dot, [0.0, 0.0])
    pa = dyn.analysis(p)
    cls = pa.classification
    assert (cls.rank_d, cls.surjective, cls.injective, cls.regular) == (1, False, True, False)
    assert pa.projectors is None and not pa.multipliers.gauged
    assert np.array_equal(pa.field, x_dot) and np.array_equal(pa.multipliers.u, u)


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
        forces = ExpressionField.matrix([[str(v)] for v in delta], names)
        gnh = GeneralizedNonholonomicSystem(base, phi, forces)
        pt = rng.uniform(-1, 1, size=3)
        pt[2] = (1.0 - w[0] * pt[0] - w[1] * pt[1]) / w[2]
        assert phi.is_on(pt)

        pa = PointDynamics(gnh).analysis(pt)
        assert pa.classification.regular
        x_dot = pa.field
        assert abs(phi.jacobian(pt) @ x_dot) < 1e-10
        assert np.max(np.abs(pa.projectors[0] @ pa.y - x_dot)) < 1e-10


def _random_projector_case(rng):
    """(gnh, points) of a random system over n <= 4 variables with a constant
    base A, a = m in {1, 2} linear constraints and forces affine in the first
    variable, and points of M spread along ker dphi."""
    while True:
        a = int(rng.integers(1, 3))
        n = int(rng.integers(a, 5))
        names = tuple("xyzw"[:n])
        base_mat = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        if np.linalg.cond(base_mat) < 1e3:
            break
    dphi, x0 = rng.normal(size=(a, n)), rng.normal(size=n)
    delta0, delta1 = rng.normal(size=(n, a)), rng.normal(size=(n, a))

    def text(v):
        return repr(float(v))

    base = LinearlySingularSystem(
        ExpressionField.matrix([[text(v) for v in row] for row in base_mat], names),
        ExpressionField.vector([text(v) for v in rng.normal(size=n)], names))
    phi = ExpressionField.vector(
        [" + ".join(f"{text(c)}*{v}" for c, v in zip(row, names)) + f" - {text(row @ x0)}"
         for row in dphi], names)
    forces = ExpressionField.matrix(
        [[f"{text(c0)} + {text(c1)}*x" for c0, c1 in zip(r0, r1)]
         for r0, r1 in zip(delta0, delta1)], names)
    tangent = np.linalg.svd(dphi)[2][a:].T
    points = x0 + rng.normal(size=(6, n - a)) @ tangent.T
    return GeneralizedNonholonomicSystem(base, SubmanifoldSpec(phi), forces), points


def test_projectors_split_the_space_and_agree_with_the_geometric_oracle():
    # P = I - Gamma D^-1 dphi, from the D that decided regularity, is the
    # projector onto T_xM = ker dphi along H_x = span Gamma: P^2 = P, P Gamma
    # = 0, dphi P = 0, P + Q = I, and it agrees with the oracle built from a
    # kernel basis of dphi and the inverse of [ker dphi, Gamma]
    rng = np.random.default_rng(2705)
    checked = 0
    for _ in range(60):
        gnh, points = _random_projector_case(rng)
        for x, pa in zip(points, PointDynamics(gnh).analyses(points)):
            if not pa.classification.regular:
                continue
            p, q = pa.projectors
            jphi = gnh.constraints.jacobian(x)
            gamma = np.linalg.solve(gnh.base.A(x), gnh.forces(x))
            scale = max(1.0, np.max(np.abs(p)), np.max(np.abs(q)))
            eps = 1e-12 * scale * max(1.0, np.max(np.abs(gamma)), np.max(np.abs(jphi)))
            assert np.max(np.abs(p @ p - p)) <= 1e-12 * scale ** 2
            assert np.max(np.abs(p @ gamma)) <= eps
            assert np.max(np.abs(jphi @ p)) <= eps
            assert np.max(np.abs(p + q - np.eye(len(x)))) <= 1e-15 * scale
            want, _ = complement_projectors(kernel_basis(jphi), gamma)
            cond = np.linalg.cond(pa.classification.d_matrix)
            assert np.max(np.abs(p - want)) <= 1e-12 * cond * scale
            checked += 1
    assert checked >= 300

