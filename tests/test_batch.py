"""The sample-point commands evaluate their sample as one batch.

`check-symmetry`, `check-constant` and `analyze` evaluate each field once over
the whole sample and take one stacked SVD per quantity. The point-by-point
loops they replaced are kept here as oracles: residuals, point reports and
gauges must come out bit for bit as the loops give them, and the number of
SVDs must not grow with the sample.
"""

import collections
import math

import numpy as np
import pytest

from test_acceptance import _scenario
from conftest import euler_step_candidate
from test_bordered import VARYING_BASE_SPEC, _varying_base_points
from oracles import kernel_basis
from test_checked_route import DENSE_INVERSE_SPEC, _count_sources

from linsing import cli, linalg, report
from linsing.errors import (
    BaseNotRegularError,
    InconsistentSystemError,
    NonFiniteError,
    ShapeError,
    raise_first,
)
from linsing.expressions import Const, ExpressionField, add, derivative, derivatives, mul, to_text
from linsing.lagrangian import chetaev_frame
from linsing.linalg import DEFAULT_TOLERANCES
from linsing.nonholonomic import (
    MultiplierResult,
    PointAnalysis,
    PointClassification,
    PointDynamics,
)
from linsing.sampling import halton_box, on_manifold_sample
from linsing.specfile import loads
from linsing.symmetry import (
    _directional_field,
    check_descent,
    check_inf_symmetry,
    check_symmetry,
    constant_descent,
    max_rate,
)

SCENARIOS = cli.SCENARIOS


# ------------------------------------------------------------------ oracles

def _fix_signs_loop(columns):
    """The column loop `linalg._fix_signs` replaced."""
    out = np.array(columns, dtype=float, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            out[:, j] = -col
    return out


def _worst_loop(current, values, name):
    value = float(np.max(np.abs(values)))
    if not math.isfinite(value):
        raise NonFiniteError(f"the residual {name} is not finite ({value})")
    return max(current, value)


def _check_symmetry_loop(sys, cand, points, tols=DEFAULT_TOLERANCES):
    r_f = r_a = 0.0
    jpsi = cand.base.jacobian_field()
    with np.errstate(over="ignore", invalid="ignore"):
        for x in points:
            y, dpsi = cand.base(x), jpsi(x)
            if linalg.rank(dpsi, tols) < sys.n:
                raise ShapeError("base map is not invertible at a sample point")
            phi_m = cand.fibre(x)
            if linalg.rank(phi_m, tols) < sys.k:
                raise ShapeError("fibre map is not invertible at a sample point")
            r_f = _worst_loop(r_f, sys.f(y) - phi_m @ sys.f(x), "r_f")
            r_a = _worst_loop(r_a, sys.A(y) @ dpsi - phi_m @ sys.A(x), "r_A")
    return r_f, r_a


def _check_inf_symmetry_loop(sys, cand, points):
    dvf = _directional_field(sys.f, cand.base)
    jv = cand.base.jacobian_field()
    dva = _directional_field(sys.A, cand.base)
    r_f = r_a = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for x in points:
            lam, a = cand.fibre(x), sys.A(x)
            r_f = _worst_loop(r_f, dvf(x) - lam @ sys.f(x), "r_f")
            r_a = _worst_loop(r_a, dva(x) + a @ jv(x) - lam @ a, "r_A")
    return r_f, r_a


def _check_descent_loop(gnh, cand, points, tols=DEFAULT_TOLERANCES):
    forces = gnh.forces
    dv_forces = _directional_field(forces, cand.base) if cand.kind == "infinitesimal" else None
    tang = force = 0.0
    for x in points:
        if cand.kind == "finite":
            y = cand.base(x)
            tang = _worst_loop(tang, gnh.constraints.values(y), "tangency_residual")
            target, moved = forces(y), cand.fibre(x) @ forces(x)
        else:
            tang = _worst_loop(tang, gnh.constraints.jacobian(x) @ cand.base(x),
                               "tangency_residual")
            target = forces(x)
            moved = cand.fibre(x) @ target - dv_forces(x)
        force = _worst_loop(force, [linalg.solve_affine(target, col, tols).residual
                                    for col in moved.T], "force_residual")
    return tang, force


def _rates_loop(h, points, flows):
    dh = h.gradient()
    worst = [0.0, 0.0, 0.0]
    for x, (y, xf) in zip(points, flows):
        g = dh(x)
        for i, (v, name) in enumerate(((y, "Y_h"), (y - xf, "Gamma_h"), (xf, "X_h"))):
            worst[i] = _worst_loop(worst[i], g @ v, name)
    return tuple(worst)


def _analysis_loop(dyn, x):
    """`PointDynamics.analysis` as the point-by-point route took it."""
    gnh, tols = dyn.gnh, dyn.tols
    if dyn.base_inverse is not None:
        # the kernel's dphi, Gamma, Y and D at x, as the solve reads them
        jphi, gamma, y, d, _ = (v[0] for v in dyn._evaluate_rows(np.asarray(x, dtype=float)[None]))
        xf, u, sol = dyn.solve(x)
    else:
        g, b = gnh.base.f(x), gnh.base.A(x)
        base = linalg.solve_affine(b, g, tols)
        rank_b = gnh.base.n - base.kernel.dim
        if gnh.base.k != gnh.base.n or rank_b < gnh.base.n:
            raise BaseNotRegularError("singular", base)
        gamma = np.linalg.solve(b, gnh.forces(x))
        jphi = gnh.constraints.jacobian(x)
        d = jphi @ gamma
        y = base.x0
        xf, u, sol = dyn.solve(x)
    rank = gnh.m - sol.kernel.dim
    regular = gnh.a == gnh.m and rank == gnh.a
    cls = PointClassification(d, rank, surjective=rank == gnh.a, injective=rank == gnh.m,
                              regular=regular)
    projectors = None
    if regular:
        q = gamma @ np.linalg.solve(d, jphi)
        projectors = (np.eye(gnh.n) - q, q)
    return PointAnalysis(cls, y, np.array(xf), MultiplierResult(u, sol.kernel.dim > 0, sol.residual),
                         projectors)


def _point_doc_loop(spec, x, tols, dyn, sode):
    """One point's `analyze` report as the point-by-point loop made it."""
    doc = {"at": np.asarray(x, dtype=float)}
    if spec.constraints is not None:
        doc["phi_residual"] = spec.constraints.residual(x)
    if spec.gnh is None:
        res = linalg.solve_affine(spec.system.A(x), spec.system.f(x), tols)
        doc.update(rank_A=spec.system.n - res.kernel.dim, consistent=res.consistent,
                   consistency_residual=res.residual)
        if res.consistent:
            doc["X0"] = res.x0
            doc["solution_kernel_dim"] = res.kernel.dim
        return doc
    try:
        pa = _analysis_loop(dyn, x)
    except BaseNotRegularError as exc:
        res = exc.solution
        doc.update(base_regular=False, rank_base=spec.system.n - res.kernel.dim,
                   base_kernel_dim=res.kernel.dim,
                   consistent=res.consistent, consistency_residual=res.residual)
        try:
            xf, u, sol = sode.solve(x)
        except InconsistentSystemError:
            doc["sode_consistent"] = False
        else:
            doc.update(sode_consistent=True, sode_unique=sol.kernel.dim == 0, X=np.array(xf), u=u,
                       sode_kernel_dim=sol.kernel.dim)
        return doc
    cls, mult = pa.classification, pa.multipliers
    doc.update(base_regular=True, D=cls.d_matrix, rank_D=cls.rank_d,
               surjective=cls.surjective, injective=cls.injective, regular=cls.regular,
               Y=pa.y, u=mult.u, X=pa.field, multiplier_gauged=mult.gauged)
    if pa.projectors is not None:
        doc["projector_residual"] = float(np.max(np.abs(pa.projectors[0] @ pa.y - pa.field)))
    if spec.report_scale != 1.0:
        doc["u_scaled"] = mult.u * spec.report_scale
    return doc


def _bits(value):
    """A report value as its bits: arrays and floats by their bytes."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


# ------------------------------------------------------------- the gauge

def _gauge_cases():
    rng = np.random.default_rng(11)
    cases = []
    for shape in [(8, 1), (8, 3), (5, 5), (3, 0), (0, 2), (1, 1)]:
        for _ in range(20):
            cols = rng.standard_normal(shape)
            if cols.size:
                cols[:, ::2] *= rng.choice([1.0, 1e-13, 0.0, -0.0], size=cols[:, ::2].shape)
                cols[rng.random(shape) < 0.3] = 0.0
                cols[rng.random(shape) < 0.2] = -0.0
                if shape[1] > 1:
                    cols[:, 1] = 0.0  # a zero column
                    cols[:, -1] = rng.choice([5e-13, -5e-13, -0.0], size=shape[0])
            cases.append(cols)
    # a leading entry of exactly +-1e-12 is negligible: the next one decides
    cases.append(np.array([[1e-12, -1e-12, -0.0, 1e-12],
                           [-0.5, 0.5, -1e-12, 1e-12],
                           [0.25, -0.25, -3.0, -0.0]]))
    return cases


def test_vectorised_gauge_is_the_column_loop_bit_for_bit():
    for cols in _gauge_cases():
        assert linalg._fix_signs(cols).tobytes() == _fix_signs_loop(cols).tobytes()


def test_gauge_of_a_stack_is_the_gauge_of_each_matrix():
    cases = [c for c in _gauge_cases() if c.shape == (8, 3)]
    stack = np.stack(cases)
    got = linalg._fix_signs(stack)
    for one, want in zip(got, cases):
        assert one.tobytes() == _fix_signs_loop(want).tobytes()


# --------------------------------------------- stacked linear algebra

@pytest.mark.parametrize("shape", [(13, 9), (9, 5), (8, 8), (1, 8), (8, 1), (1, 1), (3, 2)])
def test_stacked_solves_and_ranks_are_each_matrix_alone(shape):
    rng = np.random.default_rng(sum(shape))
    mats = rng.standard_normal((9,) + shape)
    mats[1] = 0.0
    mats[2, :, -1] = mats[2, :, 0]  # rank deficient
    if shape == (1, 1):
        mats[3], mats[4] = 1e-200, -1e200  # outside the closed form's range
    b = rng.standard_normal((9, shape[0]))
    b[5] = mats[5] @ rng.standard_normal(shape[1])  # consistent
    stacked = linalg.solve_affine(mats, b)
    assert list(linalg.rank(mats)) == [linalg.rank(m) for m in mats]
    for i, (mat, rhs) in enumerate(zip(mats, b)):
        one = linalg.solve_affine(mat, rhs)
        got = stacked.item(i)
        assert got.x0.tobytes() == one.x0.tobytes()
        assert got.kernel.vectors.shape == one.kernel.vectors.shape
        assert got.kernel.vectors.tobytes() == one.kernel.vectors.tobytes()
        assert (got.residual, got.consistent, got.tol_used) == (
            one.residual, one.consistent, one.tol_used)
        assert kernel_basis(mats)[i].vectors.tobytes() == kernel_basis(mat).vectors.tobytes()


def test_stacked_projectors_are_each_pair_alone():
    # one stacked LU solve of D against dphi gives each point's projectors as
    # the point's analysis alone does, on a constant and on a varying base
    dense, varying = loads(DENSE_INVERSE_SPEC), loads(VARYING_BASE_SPEC)
    for spec, pts in ((dense, _sample(dense, 8)), (varying, _varying_base_points(8))):
        pts = np.asarray(pts)
        dyn = PointDynamics(spec.gnh)
        for x, pa in zip(pts, dyn.analyses(pts)):
            (p, q), (p1, q1) = pa.projectors, dyn.analysis(x).projectors
            assert p.tobytes() == p1.tobytes() and q.tobytes() == q1.tobytes()


# ------------------------------------------------- route agreement

def _sample(spec, count):
    if spec.constraints is None:
        return halton_box(spec.variables, spec.box, count)
    pts = on_manifold_sample(spec.constraints, spec.variables, spec.box, count)
    assert len(pts) == count
    return pts


@pytest.mark.parametrize("name", SCENARIOS)
def test_check_routines_give_the_loop_residuals_bit_for_bit(name):
    spec = _scenario(name)
    cand = spec.symmetry
    box_pts = halton_box(spec.variables, spec.box, 40)
    chk = check_inf_symmetry(spec.system, cand, box_pts)
    assert (chk.r_f, chk.r_A) == _check_inf_symmetry_loop(spec.system, cand, box_pts)
    finite = euler_step_candidate(cand, 1e-3)
    chk = check_symmetry(spec.system, finite, box_pts)
    assert (chk.r_f, chk.r_A) == _check_symmetry_loop(spec.system, finite, box_pts)
    if spec.gnh is None:
        return
    pts = _sample(spec, 20)
    for c in (cand, finite):
        dsc = check_descent(spec.gnh, c, pts)
        assert (dsc.tangency_residual, dsc.force_residual) == \
            _check_descent_loop(spec.gnh, c, pts)


@pytest.mark.parametrize("name", ["rosenberg", "relparticle-L2", "example1"])
def test_flow_samples_and_rates_are_the_loop_bit_for_bit(name):
    spec = _scenario(name)
    pts = _sample(spec, 30)
    dyn = PointDynamics(spec.gnh)
    flows = dyn.flows(pts)
    for x, (y, xf) in zip(pts, flows):
        y1, x1 = dyn.analysis(x).y, dyn.solve(x)[0]
        assert y.tobytes() == y1.tobytes() and xf.tobytes() == np.array(x1).tobytes()
    for h in spec.constants.values():
        res = constant_descent(h, pts, flows)
        assert (res.max_Y_h, res.max_Gamma_h, res.max_X_h) == _rates_loop(h, pts, flows)
        assert max_rate(h, pts, flows[:, 1]) == res.max_X_h


def test_second_order_solves_are_the_loop_bit_for_bit():
    spec = _scenario("relparticle-L1")
    pts = _sample(spec, 20)
    sode = PointDynamics(spec.gnh, second_order=True)
    xf, u, sol, errors = sode.solves(pts)
    assert errors == [None] * len(pts)
    for i, x in enumerate(pts):
        x1, u1, sol1 = sode.solve(x)
        assert xf[i].tobytes() == np.array(x1).tobytes() and u[i].tobytes() == u1.tobytes()
        assert sol.item(i).residual == sol1.residual


ANALYZE_SPECS = {name: _scenario(name) for name in SCENARIOS}
ANALYZE_SPECS["relparticle-L2-U=q1"] = _scenario("relparticle-L2", U="q1", e="0.3", A2="q3")
ANALYZE_SPECS["relparticle-L1-U=q1"] = _scenario("relparticle-L1", U="q1")  # no second-order solution
ANALYZE_SPECS["varying-base"] = loads(VARYING_BASE_SPEC, name="varying")


@pytest.mark.parametrize("spec", ANALYZE_SPECS.values(), ids=ANALYZE_SPECS.keys())
def test_analyze_reports_each_point_as_the_loop_did(spec):
    tols = DEFAULT_TOLERANCES
    pts = _varying_base_points(12) if spec.name == "varying" else _sample(spec, 12)
    docs = cli._point_docs(spec, np.asarray(pts), tols)
    for x, doc in zip(pts, docs):
        want = _point_doc_loop(spec, x, tols, PointDynamics(spec.gnh, tols),
                               PointDynamics(spec.gnh, tols, second_order=True))
        assert report.render(doc) == report.render(want)
        assert {k: _bits(v) for k, v in doc.items()} == {k: _bits(v) for k, v in want.items()}


# explicit systems whose A(x) is regular, of rank 1 with f in its image, and
# of rank 1 with f outside it except where x*y = 1, as at the sample's first
# point (-1, -1)
EXPLICIT_SYSTEMS = {
    "regular": ("A = 1, x; 0, x*x + 1\nf = y, 1", {2}, {True}),
    "rank-1": ("A = 1, x; x, x*x\nf = y, x*y", {1}, {True}),
    "inconsistent": ("A = 1, x; x, x*x\nf = y, 1", {1}, {False, True}),
}


@pytest.mark.parametrize("system, ranks, verdicts", EXPLICIT_SYSTEMS.values(),
                         ids=EXPLICIT_SYSTEMS.keys())
def test_explicit_analyze_reports_the_solve_of_a_and_f_bit_for_bit(
        system, ranks, verdicts, tmp_path, monkeypatch, capsys):
    text = f"[vars]\nnames = x, y\n\n[system]\n{system}\n"
    path = tmp_path / "explicit.lss"
    path.write_text(text)
    sources = _count_sources(monkeypatch)
    assert cli.main(["analyze", "--spec", str(path), "--points", "40"]) == 0
    out = capsys.readouterr().out
    assert sources == [6]  # one kernel: f's 2 entries and A's 4, together
    spec = loads(text, name=str(path))
    pts = halton_box(spec.variables, spec.box, 40)
    want = {"command": "analyze", "input": spec.name, "params": {}, "point_count": 40}
    for i, x in enumerate(pts):
        want[f"point_{i:03d}"] = _point_doc_loop(spec, x, DEFAULT_TOLERANCES, None, None)
    assert out == report.render(want)
    docs = cli._point_docs(spec, pts, DEFAULT_TOLERANCES)
    for i, doc in enumerate(docs):
        assert {k: _bits(v) for k, v in doc.items()} == \
            {k: _bits(v) for k, v in want[f"point_{i:03d}"].items()}
    assert {doc["rank_A"] for doc in docs} == ranks
    assert {doc["consistent"] for doc in docs} == verdicts


def test_non_finite_residuals_name_the_residual_at_any_point():
    spec = _scenario("example1")
    pts = halton_box(spec.variables, spec.box, 6)
    pts[3] = [0.5, 1e308]  # Lambda f = (2 y^2, 0) overflows there
    blowup = ExpressionField.vector(["y*y", "0"], spec.variables)
    cand = type(spec.symmetry)("infinitesimal", blowup, blowup.jacobian_field())
    with pytest.raises(NonFiniteError, match="the residual r_f is not finite"):
        check_inf_symmetry(spec.system, cand, pts)
    h = ExpressionField.scalar("x", spec.variables)
    flows = np.zeros((6, 2, 2))
    flows[4, 1, 0] = math.inf
    with pytest.raises(NonFiniteError, match=r"the residual Gamma_h is not finite \(inf\)"):
        constant_descent(h, pts, flows)
    with pytest.raises(NonFiniteError, match=r"the residual X_h is not finite \(inf\)"):
        max_rate(h, pts, flows[:, 1])


def test_a_batch_raises_the_fault_the_loop_meets_first():
    def checks(first_bad, second_bad):
        return ((np.array(first_bad), lambda i: ShapeError(f"first at {i}")),
                (np.array(second_bad), lambda i: NonFiniteError(f"second at {i}")))

    with pytest.raises(NonFiniteError, match="second at 1"):
        raise_first(*checks([False, False, True], [False, True, True]))
    with pytest.raises(ShapeError, match="first at 1"):  # the same point: check order
        raise_first(*checks([False, True, False], [False, True, False]))
    raise_first(*checks([False] * 3, [False] * 3))


@pytest.mark.parametrize("name", ["relparticle-L2", "relparticle-L1", "rosenberg"])
def test_one_point_and_at_give_the_batch_row(name, capsys):
    def point_doc(*args):
        assert cli.main(["analyze", "--scenario", name, *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("point_000:") + 1
        end = start
        while end < len(lines) and lines[end].startswith("  "):
            end += 1
        return lines[start:end]

    batch = point_doc("--points", "5")
    assert point_doc("--points", "1") == batch
    spec = _scenario(name)
    x = cli._default_points(spec, 1)[0]
    at = ",".join(f"{v}={float(c)!r}" for v, c in zip(spec.variables, x))
    assert point_doc("--at", at) == batch


# ---------------------------------------------- work that does not grow

def _count_svds(monkeypatch):
    calls = collections.Counter()
    orig = np.linalg.svd

    def counted(*args, **kwargs):
        calls["svd"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["analyze", "--scenario", "relparticle-L2"],
    ["analyze", "--scenario", "relparticle-L1"],
    ["check-symmetry", "--scenario", "relparticle-L1"],
    ["check-constant", "--scenario", "rosenberg"],
])
def test_the_number_of_svds_does_not_grow_with_the_sample(argv, monkeypatch, capsys):
    counts = []
    for points in ("5", "50"):
        calls = _count_svds(monkeypatch)
        assert cli.main(argv + ["--points", points]) == 0
        capsys.readouterr()
        counts.append(calls["svd"])
    assert counts[0] == counts[1]


# ------------------------------------------------- a dependent frame

DEPENDENT_FRAME_SPEC = """
[vars]
names = x, y

[system]
A = {a}
f = 1, y

[constraints]
phi = y - 2

[forces]
Delta = x, 2*x; 1, 2
"""


@pytest.mark.parametrize("a_text", ["1, 0; 0, 1", "1, 0; 0, 1 + x^2"],
                         ids=["schur", "bordered"])
def test_a_dependent_frame_fails_analyze_on_both_routes(a_text, tmp_path, capsys):
    path = tmp_path / "dependent.lss"
    path.write_text(DEPENDENT_FRAME_SPEC.format(a=a_text))
    code = cli.main(["analyze", "--spec", str(path), "--at", "x=0.5,y=2", "--at", "x=1,y=2"])
    err = capsys.readouterr().err
    assert code == 3 and "transported force frame is linearly dependent" in err


# ------------------------------------------------ shared derivative memo

def _fields_of(spec):
    fields = [spec.system.A, spec.system.f]
    if spec.gnh is not None:
        fields += [spec.gnh.forces, spec.constraints.phi]
    return fields


@pytest.mark.parametrize("name", SCENARIOS)
def test_shared_memo_derivatives_print_as_entry_by_entry_ones(name):
    spec = _scenario(name)
    v = spec.symmetry.base
    for fld in _fields_of(spec):
        dvf = _directional_field(fld, v)
        for e, got in zip(fld.entries, dvf.entries):
            want = Const(0.0)
            for var, ve in zip(fld.variables, v.entries):
                if not (isinstance(ve, Const) and ve.value == 0.0):
                    want = add(want, mul(derivative(e, var), ve))
            assert to_text(got) == to_text(want)
        for var in fld.variables:
            assert [to_text(e) for e in derivatives(fld.entries, var)] == \
                [to_text(derivative(e, var)) for e in fld.entries]
        if len(fld.shape) == 1:
            jac = fld.jacobian_field()
            want = [to_text(derivative(e, var)) for e in fld.entries for var in fld.variables]
            assert [to_text(e) for e in jac.entries] == want
    if spec.model is not None:
        model = spec.model
        for i, vi in enumerate(model.v_names):
            assert [to_text(e) for e in model._w[i]] == \
                [to_text(derivative(p, vi)) for p in model.momenta]
        for a, qa in enumerate(model.q_names):
            assert [to_text(e) for e in model._n_qv[a]] == \
                [to_text(derivative(p, qa)) for p in model.momenta]
        if spec.constraints is not None:
            frame = chetaev_frame(model, spec.constraints)
            n = model.nq
            vjac = [derivative(e, vn) for e in spec.constraints.phi.entries for vn in model.v_names]
            a = spec.constraints.codim
            want = [vjac[j * n + i] for i in range(n) for j in range(a)]
            assert [to_text(e) for e in frame.entries[:n * a]] == [to_text(e) for e in want]
