"""The flow evaluator against two independent routes, and its cost per evaluation.

`PointDynamics` solves one system per evaluation: the Schur complement
D u = -dphi . Y for a constant base, the bordered system in (X, u) otherwise.
The reference routes, which the package itself does not use:
  * `_schur_oracle`: Y and Gamma by LU solves with B, then D u = -dphi . Y and
    X = Y + Gamma u;
  * `_cokernel_oracle`: the second-order solve, with the base rows relaxed
    along span Delta by a cokernel basis, stacked with the tangency rows and
    X_q = v; u is read off the base rows' residual, A X - dE = Delta u;
  * `_full_bordered_oracle`: the second-order solve of the whole bordered
    system, the rows X_q = v solved along with the rest rather than
    substituted.
Whether the first-order flow is unique is checked against the paper's induced
quotient map T_xM -> R^k / span Delta (`oracles.induced_quotient_matrix`).
"""

import collections
import warnings

import numpy as np
import pytest

from oracles import cokernel_basis, induced_quotient_matrix, kernel_basis
from test_acceptance import _knife_edge_points, _mass_shell_points, _scenario

from linsing import linalg, nonholonomic
from linsing.errors import (DomainEvalError, FrameDegenerateError, InconsistentSystemError,
                            NonFiniteError)
from linsing.expressions import ExpressionField
from linsing.nonholonomic import GeneralizedNonholonomicSystem, PointDynamics, SubmanifoldSpec
from linsing.sampling import on_manifold_sample
from linsing.specfile import loads
from linsing.systems import LinearlySingularSystem

# position-dependent mass: the base B varies, so the bordered matrix is solved
VARYING_BASE_SPEC = """
[vars]
q = x, y, z

[lagrangian]
L = ((1 + x^2)*x'^2 + y'^2 + z'^2)/2 - y

[constraints]
phi = z' - y*x'
"""

EXPLICIT_SPEC = """
[vars]
names = x, y

[system]
A = 2, x; 0.5, 1 + y^2
f = -y, x
"""


def _schur_oracle(gnh, x):
    b = gnh.base.A(x)
    y = np.linalg.solve(b, gnh.base.f(x))
    gamma = np.linalg.solve(b, gnh.forces(x))
    jphi = gnh.constraints.jacobian(x)
    sol = linalg.solve_affine(jphi @ gamma, -(jphi @ y))
    assert sol.consistent
    return y + gamma @ sol.x0, sol.x0


def _cokernel_oracle(spec, x):
    n = spec.model.nq
    a_mat = spec.system.A(x)
    g = spec.system.f(x)
    delta = spec.forces(x)
    comp = cokernel_basis(delta).vectors
    stacked = np.vstack([comp.T @ a_mat, spec.constraints.jacobian(x),
                         np.hstack([np.eye(n), np.zeros((n, n))])])
    rhs = np.concatenate([comp.T @ g, np.zeros(spec.constraints.codim), x[n:]])
    sol = linalg.solve_affine(stacked, rhs)
    assert sol.consistent and sol.kernel.dim == 0
    u = np.linalg.lstsq(delta, a_mat @ sol.x0 - g, rcond=None)[0]
    return sol.x0, u


def _full_bordered_oracle(gnh, x):
    """(X, u, sol) of the minimum-norm solve of [A, -Delta; dphi, 0; I, 0, 0]
    (X, u) = (g, 0, v), the rows X_q = v kept, with u then gauged to its
    minimum norm over the solution set."""
    k, n, a, m = gnh.base.k, gnh.n, gnh.a, gnh.m
    s = n // 2
    mat = np.zeros((k + a + s, n + m))
    mat[:k, :n], mat[:k, n:] = gnh.base.A(x), -gnh.forces(x)
    mat[k:k + a, :n] = gnh.constraints.jacobian(x)
    mat[k + a:, :s] = np.eye(s)
    rhs = np.concatenate([gnh.base.f(x), np.zeros(a), x[n - s:]])
    sol = linalg.solve_affine(mat, rhs)
    z = sol.x0
    if sol.kernel.dim > 0:
        ker = sol.kernel.vectors
        z = z + ker @ linalg.solve_affine(ker[n:], -z[n:]).x0
    return z[:n], z[n:], sol


def _assert_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * max(1.0, float(np.max(np.abs(want))))


def _sample(spec, count=20):
    pts = on_manifold_sample(spec.constraints, spec.variables, spec.box, count)
    assert len(pts) == count
    return list(pts)


def _varying_base_points(count):
    rng = np.random.default_rng(17)
    pts = []
    for _ in range(count):
        x, y, z, vx, vy = rng.uniform(-1.5, 1.5, size=5)
        pts.append(np.array([x, y, z, vx, vy, y * vx]))
    return pts


@pytest.mark.parametrize("name,overrides", [
    ("example1", {}), ("rosenberg", {}), ("relparticle-L2", {}),
    ("relparticle-L2", {"U": "q1"}),
])
def test_constrained_mode_matches_the_schur_route(name, overrides):
    spec = _scenario(name, **overrides)
    dyn = PointDynamics(spec.gnh)
    for x in _sample(spec):
        xf, u = dyn.field_and_multipliers(x)
        want_x, want_u = _schur_oracle(spec.gnh, x)
        _assert_close(xf, want_x)
        _assert_close(u, want_u)


def test_bordered_solve_of_a_varying_base_matches_the_schur_route():
    spec = loads(VARYING_BASE_SPEC)
    assert not spec.system.A.is_constant
    dyn = PointDynamics(spec.gnh)
    sode = PointDynamics(spec.gnh, second_order=True)
    for x in _varying_base_points(20):
        xf, u = dyn.field_and_multipliers(x)
        want_x, want_u = _schur_oracle(spec.gnh, x)
        _assert_close(xf, want_x)
        _assert_close(u, want_u)
        # the bordered second-order rows change nothing for a regular base
        sode_x, sode_u, sol = sode.solve(x)
        assert sol.kernel.dim == 0
        _assert_close(sode_x, want_x)
        _assert_close(sode_u, want_u)
        _assert_close(sode_x, _cokernel_oracle(spec, x)[0])
    # the second-order system has no base rows to analyse or to solve Y from
    with pytest.raises(TypeError, match="no base rows"):
        sode.analysis(x)
    with pytest.raises(TypeError, match="no base rows"):
        sode.flows(np.array([x, x]))


def _first_order_spec(a_rows, f, phi, delta_columns):
    """A [system] spec over x, y or x, y, z from the rows of A, the entries of
    f and phi, and the columns of Delta, each given as text or numbers."""
    def join(row):
        return ", ".join(map(str, row))

    names = ("x", "y", "z")[:len(f)]
    return loads(f"[vars]\nnames = {', '.join(names)}\n\n[system]\n"
                 f"A = {'; '.join(map(join, a_rows))}\nf = {join(f)}\n\n"
                 f"[constraints]\nphi = {join(phi)}\n\n"
                 f"[forces]\nDelta = {'; '.join(map(join, delta_columns))}\n")


def _integer_matrix(rng, rows, cols, rank):
    """A random rows x cols matrix of small integers of exactly this rank."""
    while True:
        mat = rng.integers(-1, 2, size=(rows, rank)) @ rng.integers(-1, 2, size=(rank, cols))
        if np.linalg.matrix_rank(mat) == rank:
            return mat


def _random_constant_cases(count, rng):
    """(spec, x, None) of constant first-order specs over x, y, z with k = 3,
    rank A cycling through 1, 2 and 3, and one or two independent constraints
    and forces, all small integers, so that no rank lies near its cut-off. x
    lies on M, and f = A X0 - Delta u0 with dphi X0 = 0, so the bordered
    system has a solution."""
    for i in range(count):
        a = _integer_matrix(rng, 3, 3, 1 + i % 3)
        constraints = int(rng.integers(1, 3))
        dphi = _integer_matrix(rng, constraints, 3, constraints)
        forces = int(rng.integers(1, 3))
        delta = _integer_matrix(rng, 3, forces, forces)
        x = rng.integers(-2, 3, size=3)
        x0 = np.cross(dphi[0], dphi[1] if constraints == 2 else rng.integers(-1, 2, size=3))
        f = a @ x0 - delta @ rng.integers(-1, 2, size=forces)
        phi = [f"{r[0]}*x + {r[1]}*y + {r[2]}*z - ({r @ x})" for r in dphi]
        yield _first_order_spec(a.tolist(), f.tolist(), phi, delta.T.tolist()), x, None


def test_the_bordered_decision_is_the_injectivity_of_the_induced_quotient_map():
    # In the linearly singular framework the constrained flow is unique iff the
    # induced map T_xM -> R^k / span Delta is injective. With an independent
    # frame that is a trivial kernel of [A, -Delta; dphi, 0], or of D for a
    # regular constant base. The oracle decides it on explicit bases. The hand
    # points, of singular bases, give the kernel dimension too.
    sing = ([[1, 0], [0, 0]], [1, 0], ["y - 2"])
    cases = [(_first_order_spec(*sing, [["x", 1]]), [x, 2.0], 0) for x in (0.5, 0.0, -3.0)]
    cases += [(_first_order_spec([[1, 0], [0, "x"]], *sing[1:], [["x", 1]]), [x, 2.0], 0)
              for x in (0.5, 0.0, -0.5)]
    cases += [(_first_order_spec(*sing, [[1, 0]]), [x, 2.0], 1) for x in (0.5, 0.0)]
    cases += _random_constant_cases(30, np.random.default_rng(2604))
    verdicts = collections.Counter()
    for spec, x, want in cases:
        x = np.array(x, dtype=float)
        tangent = kernel_basis(spec.constraints.jacobian(x))
        quotient = induced_quotient_matrix(spec.system.A(x), tangent, spec.forces(x))
        # an absolute cut-off: the data are small integers, and a quotient map
        # that is zero holds rounding noise, which a relative one counts as rank
        injective = np.linalg.matrix_rank(quotient, tol=1e-8) == tangent.dim
        dim = PointDynamics(spec.gnh).solve(x)[2].kernel.dim
        assert (dim == 0) == injective
        assert want is None or dim == want
        verdicts[injective] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("overrides", [{}, {"U": "q1"}])
def test_second_order_mode_matches_the_cokernel_route(overrides):
    spec = _scenario("relparticle-L1", **overrides)
    dyn = PointDynamics(spec.gnh, second_order=True)
    for x in _sample(spec) + _mass_shell_points(10):
        xf, u = dyn.field_and_multipliers(x)
        want_x, want_u = _cokernel_oracle(spec, x)
        _assert_close(xf, want_x)
        _assert_close(u, want_u)
        # an evaluator built for this point alone gives the same bits
        fresh_x, fresh_u, sol = PointDynamics(spec.gnh, second_order=True).solve(x)
        assert sol.kernel.dim == 0
        assert np.array_equal(fresh_x, xf) and np.array_equal(fresh_u, u)


@pytest.mark.parametrize("overrides", [
    {}, {"U": "q1"},
    {"e": "0.3", "A2": "q3"},  # N - N^T != 0, so A_q v is not 0
    None,                      # a regular varying base
], ids=["U=0", "U=q1", "A2=q3", "varying-base"])
def test_second_order_mode_matches_the_full_bordered_solve(overrides):
    # the X_q = v rows substituted: X_q is v bit for bit, (w, u) agree with
    # the full solve to rounding, and so do its kernel and its verdict
    if overrides is None:
        spec = loads(VARYING_BASE_SPEC)
        pts = np.array(_varying_base_points(20))
    else:
        spec = _scenario("relparticle-L1", **overrides)
        pts = np.array(_sample(spec) + _mass_shell_points(10))
    dyn = PointDynamics(spec.gnh, second_order=True)
    s = spec.gnh.n // 2
    xf, u, sol, errors = dyn.solves(pts)
    for i, x in enumerate(pts):
        want_x, want_u, want = _full_bordered_oracle(spec.gnh, x)
        assert bool(sol.consistent[i]) == bool(want.consistent)
        assert sol.kernel[i].dim == want.kernel.dim
        assert xf[i, :s].tobytes() == x[s:].tobytes()
        _assert_close(xf[i, s:], want_x[s:])
        _assert_close(u[i], want_u)
        # the stacked solve is the per-point solve bit for bit
        if errors[i] is not None:
            with pytest.raises(InconsistentSystemError):
                dyn.solve(x)
            continue
        x1, u1, sol1 = dyn.solve(x)
        assert np.array(x1).tobytes() == xf[i].tobytes() and u1.tobytes() == u[i].tobytes()
        assert sol1.residual == sol.residual[i] and sol1.kernel.dim == sol.kernel[i].dim


def _two_force_system(a_text):
    # D = dphi . B^-1 Delta has rank 1 of 2: u is gauged to its minimum norm
    v = ("x", "y")
    base = LinearlySingularSystem(ExpressionField.matrix(a_text, v), ExpressionField.vector(["1", "y"], v))
    forces = ExpressionField.matrix([["x", "0"], ["1", "1"]], v)
    return GeneralizedNonholonomicSystem(
        base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], v)), forces)


@pytest.mark.parametrize("a_text", [
    [["1", "0"], ["0", "1"]],         # constant: the Schur complement
    [["1", "0"], ["0", "1 + x^2"]],   # varying: the bordered matrix
])
def test_gauged_multipliers_are_the_minimum_norm_representative(a_text):
    gnh = _two_force_system(a_text)
    dyn = PointDynamics(gnh)
    for x1 in (-0.7, 0.5, 1.3):
        p = np.array([x1, 2.0])
        xf, u, sol = dyn.solve(p)
        assert sol.kernel.dim > 0  # gauged
        want_x, want_u = _schur_oracle(gnh, p)
        _assert_close(u, want_u)
        _assert_close(xf, want_x)
        assert np.array_equal(PointDynamics(gnh).multipliers(p), u)


def _mixed_gauge_system(a_text):
    # D = diag(x, x (x - 0.5)): kernel dimension 2 at x = 0, 1 at x = 0.5 and
    # 0 elsewhere, and f keeps -dphi . Y in the image of D at every point
    v = ("x", "y", "z", "w")
    base = LinearlySingularSystem(ExpressionField.matrix(a_text, v),
                                  ExpressionField.vector(["1", "y", "x", "2*x*(x - 0.5)"], v))
    forces = ExpressionField.matrix([["1", "0"], ["0", "1"], ["x", "0"], ["0", "x*(x - 0.5)"]], v)
    phi = ExpressionField.vector(["z - 2", "w - 1"], v)
    return GeneralizedNonholonomicSystem(base, SubmanifoldSpec(phi), forces)


@pytest.mark.parametrize("a_text", [
    [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    [["1", "0", "0", "0"], ["0", "1 + x^2", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
])
def test_a_batch_of_gauged_and_ungauged_rows_is_solve_at_each_point_bit_for_bit(a_text):
    gnh = _mixed_gauge_system(a_text)
    dyn = PointDynamics(gnh)
    pts = np.array([[x1, 0.3, 2.0, 1.0] for x1 in (0.0, 0.5, 1.3, -0.7, 0.0, 0.5, 2.0)])
    xf, u, sol, errors = dyn.solves(pts)
    analyses = dyn.analyses(pts)
    assert errors == [None] * len(pts)
    assert [k.dim for k in sol.kernel] == [2, 1, 0, 0, 2, 1, 0]
    for i, p in enumerate(pts):
        x1, u1, sol1 = dyn.solve(p)
        assert sol1.kernel.dim == sol.kernel[i].dim
        assert np.array(x1).tobytes() == xf[i].tobytes() and u1.tobytes() == u[i].tobytes()
        pa = analyses[i]
        assert pa.field.tobytes() == xf[i].tobytes()
        assert pa.multipliers.u.tobytes() == u[i].tobytes()
        assert pa.multipliers.gauged == (sol1.kernel.dim > 0)
        want_x, want_u = _schur_oracle(gnh, p)
        _assert_close(u1, want_u)
        _assert_close(x1, want_x)


def test_schur_path_is_the_arithmetic_of_separate_field_calls_bit_for_bit():
    # two force columns: the kernel's frame is a row-major view of its buffer
    gnh = _two_force_system([["2", "0.3"], ["0.1", "1.7"]])
    dyn = PointDynamics(gnh)
    b_inv = np.linalg.inv(gnh.base.A(np.zeros(2)))
    for x1 in (-0.7, 0.5, 1.3):
        p = np.array([x1, 2.0])
        gamma = b_inv @ gnh.forces(p)
        y = b_inv @ gnh.base.f(p)
        jphi = gnh.constraints.jacobian(p)
        # D and dphi . Y summed left to right, as the kernel folds them, are
        # numpy's products to rounding
        d = np.array([[_sum_from_zero(row, col) for col in gamma.T] for row in jphi])
        c = np.array([_sum_from_zero(row, y) for row in jphi])
        rounding = 4 * np.finfo(float).eps * (np.abs(jphi) @ np.abs(np.column_stack([gamma, y])))
        assert np.all(np.abs(np.column_stack([d, c]) - jphi @ np.column_stack([gamma, y]))
                      <= rounding)
        sol = linalg.solve_affine(d, -c)
        xf, u, _ = dyn.solve(p)
        assert np.array_equal(xf, y + gamma @ sol.x0) and np.array_equal(u, sol.x0)


def _counting(monkeypatch):
    """Counts rank decisions (`linalg._svd_rank`, the one function that makes
    them), LAPACK SVDs and LU solves."""
    calls = collections.Counter()
    for module, name, key in ((linalg, "_svd_rank", "rank"),
                              (np.linalg, "svd", "svd"), (np.linalg, "solve", "solve")):
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _key=key, **kwargs):
            calls[_key] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


MODES = ["constrained", "constrained-varying-base", "second-order", "explicit"]
# the kernel test also pins the layout of a frame of two force columns
KERNEL_MODES = MODES + ["constrained-two-forces"]


def _mode(mode):
    """(evaluator, its system, sample points) of one flow mode."""
    if mode == "constrained":
        gnh = _scenario("rosenberg").gnh
        return PointDynamics(gnh), gnh, _knife_edge_points(5)
    if mode == "constrained-two-forces":
        gnh = _two_force_system([["2", "0.3"], ["0.1", "1.7"]])
        return PointDynamics(gnh), gnh, [np.array([x1, 2.0]) for x1 in (-0.7, 0.5, 1.3)]
    if mode == "constrained-varying-base":
        gnh = loads(VARYING_BASE_SPEC).gnh
        return PointDynamics(gnh), gnh, _varying_base_points(5)
    if mode == "second-order":
        gnh = _scenario("relparticle-L1").gnh
        return PointDynamics(gnh, second_order=True), gnh, _mass_shell_points(5)
    system = loads(EXPLICIT_SPEC).system
    return PointDynamics(system), system, [np.array([0.3, -0.2]), np.array([1.5, 2.0])]


@pytest.mark.parametrize("mode", MODES)
def test_one_svd_and_no_solve_per_evaluation(mode, monkeypatch):
    dyn, _, points = _mode(mode)
    calls = _counting(monkeypatch)
    # rosenberg's Schur complement is 1x1: its factors come in closed form
    svds = {"svd": 1} if mode != "constrained" else {}
    for x in points:
        calls.clear()
        dyn.field_and_multipliers(x)
        assert calls == {"rank": 1, **svds}


def test_a_second_order_evaluation_factors_the_reduced_system(monkeypatch):
    # relparticle-L1: 8 base rows and 1 tangency row over the 4 unknowns of
    # w = X_v and 1 multiplier, the 4 rows X_q = v substituted
    dyn, gnh, points = _mode("second-order")
    shapes = []
    orig = linalg._svd_rank

    def recorded(mat, *args, **kwargs):
        shapes.append(np.shape(mat))
        return orig(mat, *args, **kwargs)

    monkeypatch.setattr(linalg, "_svd_rank", recorded)
    for x in points:
        shapes.clear()
        dyn.field_and_multipliers(x)
        assert shapes == [(gnh.base.k + gnh.a, gnh.n // 2 + gnh.m)] == [(9, 5)]


def _sum_from_zero(coeffs, values):
    """sum_l coeffs[l] * values[l] on Python floats, from +0, left to right,
    leaving out the terms whose coefficient is 0 and multiplying by no 1."""
    total = 0.0
    for c, v in zip(coeffs.tolist(), values.tolist()):
        if c != 0.0:
            total += v if c == 1.0 else c * v
    return total


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_one_kernel_call_and_no_field_call_per_evaluation(mode, monkeypatch):
    dyn, system, points = _mode(mode)
    gnh = system if isinstance(system, GeneralizedNonholonomicSystem) else None
    base = system if gnh is None else gnh.base
    schur = mode in ("constrained", "constrained-two-forces")
    calls = collections.Counter()
    dyn.solve(points[0])  # compiles the kernel
    kernel = dyn._kernel
    seen = []

    def counted_kernel(point):
        calls["kernel"] += 1
        seen.append(kernel(point))
        return seen[-1]

    def no_field_call(field, point):
        raise AssertionError("a field was evaluated outside the kernel")

    dyn._kernel = counted_kernel
    for x in points:
        with monkeypatch.context() as patch:
            patch.setattr(ExpressionField, "__call__", no_field_call)
            calls.clear()
            xf, u, _ = dyn.solve(x)
        assert calls == {"kernel": 1}
        vals = np.array(seen[-1])
        if mode != "constrained":  # every route but the 1x1 Schur solve reads the buffer
            assert dyn._vals.tobytes() == vals.tobytes()
        forces = dphi = None
        if gnh is not None:
            forces, dphi = gnh.forces(x), gnh.constraints.jacobian(x)
        if schur:
            # the kernel holds dphi bit for bit, row-major, and nothing of the
            # forces or f but what Gamma and Y are folded from
            want = dphi.ravel()
            assert vals[:len(want)].tobytes() == want.tobytes()
            # then Gamma = B^-1 Delta and Y = B^-1 f, folded in: each entry
            # the sum from +0, left to right, of its products with the nonzero
            # entries of B^-1, bit for bit; numpy's products too where B^-1 is
            # a signed permutation (rosenberg)
            b_inv = np.linalg.inv(base.A(np.zeros(base.n)))
            assert dyn.base_inverse.tobytes() == b_inv.tobytes()
            gamma_y = np.column_stack([forces, base.f(x)])
            summed = np.array([[_sum_from_zero(row, col) for col in gamma_y.T] for row in b_inv])
            folded = np.concatenate([summed[:, :-1].ravel(), summed[:, -1]])
            rest = vals[len(want):len(want) + folded.size]
            assert rest.tobytes() == folded.tobytes()
            if mode == "constrained":
                numpy_products = np.concatenate([(b_inv @ forces).ravel(), b_inv @ base.f(x)])
                assert rest.tobytes() == numpy_products.tobytes()
            # then D = dphi . Gamma and c = dphi . Y, folded alike from the
            # kernel's own dphi, Gamma and Y
            d_c = np.array([[_sum_from_zero(row, col) for col in summed.T] for row in dphi])
            d_then_c = np.concatenate([d_c[:, :-1].ravel(), d_c[:, -1]])
            assert vals[len(want) + folded.size:].tobytes() == d_then_c.tobytes()
            # the views the solve reads are dphi, Gamma, Y, D and c, in that order
            assert [v.shape for v in dyn._views] == [dphi.shape, forces.shape, (base.n,),
                                                     (gnh.a, gnh.m), (gnh.a,)]
        else:
            # the bordered system, its right-hand side and then its matrix
            # row-major: [A_v, -Delta; dphi_v, 0] and (g - A_q v, -dphi_q v),
            # X_q = v substituted in the second-order mode (s = n/2), and
            # [A, -Delta; dphi, 0], (g, 0) otherwise (s = 0)
            s = base.n // 2 if mode == "second-order" else 0
            a_mat, g, v = base.A(x), base.f(x), x[base.n - s:]
            mat, rhs = a_mat[:, s:], g - a_mat[:, :s] @ v
            if gnh is not None:
                mat = np.block([[mat, -forces], [dphi[:, s:], np.zeros((gnh.a, gnh.m))]])
                rhs = np.concatenate([rhs, -(dphi[:, :s] @ v) if s else np.zeros(gnh.a)])
            assert len(vals) == len(rhs) + mat.size
            assert vals[len(rhs):].tobytes() == mat.tobytes()
            if s:  # the products are summed in another order than numpy's
                _assert_close(vals[:len(rhs)], rhs, rel=1e-13)
            else:
                assert vals[:len(rhs)].tobytes() == rhs.tobytes()
        # nothing returned aliases the kernel's buffer
        assert not np.shares_memory(xf, dyn._vals) and not np.shares_memory(u, dyn._vals)


# the constant-base specs the Schur kernel runs on: the bundled ones, and one
# with a dense inverse, two constraints and two forces
FOLD_CASES = [("example1", {}), ("rosenberg", {}), ("relparticle-L2", {}),
              ("relparticle-L2", {"U": "q1"}), ("two-constraints", {})]


def _fold_case(name, overrides):
    """(evaluator, points of M) of a constant-base spec of FOLD_CASES."""
    if name == "two-constraints":
        spec = _first_order_spec([[2, 0.3, 0], [0.1, 1.7, 0.2], [0, 0.4, 1.1]],
                                 ["x*y", "sin(z)", "1 + x"], ["z - x*y", "y - 1"],
                                 [[1, "x", 0], [0, 1, "y"]])
        pts = [np.array([t, 1.0, t]) for t in np.linspace(-1.5, 1.5, 7)]
    else:
        spec = _scenario(name, **overrides)
        pts = _sample(spec)
    dyn = PointDynamics(spec.gnh)
    assert dyn.base_inverse is not None
    return dyn, np.array(pts)


@pytest.mark.parametrize("name,overrides", FOLD_CASES)
def test_the_kernel_folds_d_and_c_left_to_right(name, overrides):
    # D = dphi . Gamma and c = dphi . Y are the same bits on every BLAS
    # build, and numpy's products to the rounding of the sum
    dyn, pts = _fold_case(name, overrides)
    eps = np.finfo(float).eps
    for jphi, gamma, y, d, c in zip(*dyn._evaluate_rows(pts)):
        want_d = np.array([[_sum_from_zero(row, col) for col in gamma.T] for row in jphi])
        want_c = np.array([_sum_from_zero(row, y) for row in jphi])
        assert d.tobytes() == want_d.tobytes() and c.tobytes() == want_c.tobytes()
        assert np.all(np.abs(d - jphi @ gamma) <= 4 * eps * (np.abs(jphi) @ np.abs(gamma)))
        assert np.all(np.abs(c - jphi @ y) <= 4 * eps * (np.abs(jphi) @ np.abs(y)))


@pytest.mark.parametrize("name,overrides", FOLD_CASES)
def test_solve_solves_and_analyses_read_one_d_bit_for_bit(name, overrides, monkeypatch):
    dyn, pts = _fold_case(name, overrides)
    solved = []  # the matrix of each linear solve, in call order
    for fn in ("solve_affine", "_scalar_solve"):
        def recorded(mat, *args, _orig=getattr(linalg, fn)):
            solved.append(np.array(mat, dtype=float))
            return _orig(mat, *args)

        monkeypatch.setattr(linalg, fn, recorded)
    xs, us, _, errors = dyn.solves(pts)
    assert errors == [None] * len(pts)
    d_stack = solved[0]
    analyses = dyn.analyses(pts)
    for i, p in enumerate(pts):
        solved.clear()
        xf, u, _ = dyn.solve(p)
        pa = analyses[i]
        d = solved[0].reshape(d_stack[i].shape)
        assert d.tobytes() == d_stack[i].tobytes() == pa.classification.d_matrix.tobytes()
        assert np.array(xf).tobytes() == xs[i].tobytes() == pa.field.tobytes()
        assert u.tobytes() == us[i].tobytes() == pa.multipliers.u.tobytes()


def test_a_regular_one_by_one_solve_leaves_the_buffer_unwritten():
    # rosenberg's 1x1 Schur solve runs on the runner's list of floats
    dyn = PointDynamics(_scenario("rosenberg").gnh)
    x = _knife_edge_points(1)[0]
    want = dyn.solve(x)
    dyn._vals[:] = np.nan
    xf, u, sol = dyn.solve(x)
    assert sol.kernel.dim == 0 and sol.consistent
    assert np.isnan(dyn._vals).all()
    assert xf == want[0] and u.tobytes() == want[1].tobytes()


def test_the_scalar_route_builds_no_solution_set_at_full_rank(monkeypatch):
    # X and u come from the scalar solve's floats; only `solve` packages them
    dyn = PointDynamics(_scenario("rosenberg").gnh)
    points = _knife_edge_points(20)
    built = []
    init = linalg.AffineSolutionSet.__init__
    monkeypatch.setattr(linalg.AffineSolutionSet, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    pairs = [dyn.field_and_multipliers(x) for x in points]
    memo = [(dyn.field(x), dyn.multipliers(x)) for x in points]
    assert built == []
    for x, (xf, u), (mx, mu) in zip(points, pairs, memo):
        want_x, want_u, sol = dyn.solve(x)
        assert sol.kernel.dim == 0 and sol.consistent
        assert np.array(xf).tobytes() == np.array(mx).tobytes() == np.array(want_x).tobytes()
        assert np.array(u).tobytes() == mu.tobytes() == want_u.tobytes()
    assert len(built) == len(points)


@pytest.mark.parametrize("delta, error", [
    (["1", "x"], InconsistentSystemError),  # D = x and dphi . Y = 1: no multiplier
    (["x", "x"], FrameDegenerateError),     # Gamma = (x, x) vanishes with D = x
])
def test_a_vanishing_one_by_one_d_is_checked_through_the_gamma_view(delta, error, monkeypatch):
    dyn = PointDynamics(_first_order_spec([[1, 0], [0, 1]], [1, 1], ["y"], [delta]).gnh)
    frames = []
    check = nonholonomic._require_independent
    monkeypatch.setattr(nonholonomic, "_require_independent",
                        lambda frame, *args: frames.append(frame.copy()) or check(frame, *args))
    dyn.solve(np.array([1.0, 0.0]))  # D = 1: regular, nothing checked
    dyn._vals[:] = np.nan
    with pytest.raises(error):
        dyn.solve(np.array([0.0, 0.0]))
    gamma = np.array([[1.0], [0.0]]) if delta[0] == "1" else np.zeros((2, 1))
    assert len(frames) == 1 and frames[0].tobytes() == gamma.tobytes()
    assert not np.isnan(dyn._vals).any()


def _faulting_system(a_text, forces_text, f_text):
    v = ("x", "y")
    base = LinearlySingularSystem(ExpressionField.matrix(a_text, v), ExpressionField.vector(f_text, v))
    forces = ExpressionField.matrix([[e] for e in forces_text], v)
    return GeneralizedNonholonomicSystem(
        base, SubmanifoldSpec(ExpressionField.vector(["y - 2"], v)), forces)


@pytest.mark.parametrize("a_text", [
    [["1", "0"], ["0", "1"]],         # constant: the Schur complement
    [["1", "0"], ["0", "1 + x^2"]],   # varying: the bordered matrix
])
@pytest.mark.parametrize("forces_text, f_text", [
    (["1/x", "1"], ["1", "y"]),       # a force column holds 1/x
    (["x", "1"], ["1/x", "y"]),       # f holds 1/x
])
def test_a_fault_names_its_subexpression_on_both_paths(a_text, forces_text, f_text):
    dyn = PointDynamics(_faulting_system(a_text, forces_text, f_text))
    with pytest.raises(DomainEvalError, match=r"division by zero in subexpression '1/x'"):
        dyn.solve(np.array([0.0, 2.0]))


@pytest.mark.parametrize("a_text, named", [
    ([["1", "0"], ["0", "1"]], "1/x"),             # Schur: forces are read before f
    ([["1", "0"], ["0", "1 + x^2"]], "log(x)"),    # bordered: f is read before forces
])
def test_the_first_fault_in_read_order_is_named(a_text, named):
    dyn = PointDynamics(_faulting_system(a_text, ["1/x", "1"], ["log(x)", "y"]))
    with pytest.raises(DomainEvalError) as err:
        dyn.solve(np.array([0.0, 2.0]))
    assert err.value.subexpression == named


@pytest.mark.parametrize("a_text, routes", [
    ([["1", "0"], ["0", "1"]], ("solve", "analysis", "flows")),
    # A and f, which decide the base's regularity, are finite here
    ([["1", "0"], ["0", "1 + x^2"]], ("solve", "analysis", "flows")),
])
def test_a_non_finite_kernel_value_raises_from_the_evaluation(a_text, routes):
    # the force entry is inf at x = 10; B^-1 = I and dphi = (0, 1) multiply it
    # by symbolic zeros only, which the fold drops, so no NaN reaches the solve
    dyn = PointDynamics(_faulting_system(a_text, ["1e308*x*x", "1"], ["1", "1"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a leaked numpy RuntimeWarning fails here
        for route in routes:
            with pytest.raises(NonFiniteError, match="flow's fields is not finite"):
                point = np.array([10.0, 2.0])
                getattr(dyn, route)(point[None] if route == "flows" else point)
