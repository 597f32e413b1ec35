"""The check commands evaluate each sample point once, through one evaluator.

`check-constant` and `analyze` build one `PointDynamics` per flow mode and
reuse it at every point. Their numbers are checked against a dense reference
built afresh per point from the fields (LU solves with B = A(x)): bit for bit
on the bundled scenarios, whose B^-1 is exact in binary, and to a relative
1e-13 where it is not. Counters pin the mechanism: evaluators built, kernels
compiled, rank decisions made, partial derivative fields compiled.
"""

import collections

import numpy as np
import pytest

from test_acceptance import _scenario
from test_bordered import VARYING_BASE_SPEC, _counting, _varying_base_points

from linsing import cli, expressions, linalg
from linsing.errors import BaseNotRegularError
from linsing.expressions import ExpressionField
from linsing.linalg import DEFAULT_TOLERANCES
from linsing.nonholonomic import PointAnalysis, PointDynamics
from linsing.sampling import on_manifold_sample
from linsing.specfile import loads
from linsing.symmetry import constant_descent
from linsing.systems import consistency_rows


# a constant base whose inverse is inexact in binary: routes through B^-1 and
# through LU solves with B differ in the last bits here
INEXACT_BASE_SPEC = """
[vars]
names = x, y

[system]
A = 3, 1; 1, 7
f = 1 + x*y, y - x

[constraints]
phi = y - 2 - x^2/5

[forces]
Delta = x, 1

[constant]
level = y - x^2/5
p = x*y
"""

# a dense B^-1, inexact in binary, two constraints and two force columns: each
# entry of the folded Gamma = B^-1 Delta and Y = B^-1 f is a rounded sum
DENSE_INVERSE_SPEC = """
[vars]
names = x, y, z

[system]
A = 2, 1, 0; 1, 3, 1; 0, 1, 4
f = 1 + x*y, y - z, x*z

[constraints]
phi = y - 2 - x^2/5, z - x*y/3

[forces]
Delta = 1 + x, 3, 1; z, 1, 4
"""


def _points(spec, count):
    if not spec.system.A.is_constant:
        return _varying_base_points(count)
    pts = on_manifold_sample(spec.constraints, spec.variables, spec.box, count)
    assert len(pts) == count
    return list(pts)


def _dense_reference(gnh, x):
    """(Y, Gamma, dphi, D, u, X) at x: Y and Gamma by LU solves with B = A(x),
    D = dphi . Gamma, u from D u = -dphi . Y and X = Y + Gamma u."""
    b = gnh.base.A(x)
    y = np.linalg.solve(b, gnh.base.f(x))
    gamma = np.linalg.solve(b, gnh.forces(x))
    jphi = gnh.constraints.jacobian(x)
    d = jphi @ gamma
    u = linalg.solve_affine(d, -(jphi @ y)).x0
    return y, gamma, jphi, d, u, y + gamma @ u


def _same(got, want, exact):
    """Equal bit for bit, or else to a relative 1e-13 of the reference's size."""
    if exact:
        return np.array_equal(got, want)
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _exact(spec):
    """The bundled scenarios invert B exactly: the reference then matches bit for bit."""
    return spec.name in cli.SCENARIOS


def _reference_constant_check(gnh, h, pts):
    """(max Y.h, max (Y - X).h, max X.h) from the dense reference."""
    dh = h.gradient()
    worst = np.zeros(3)
    for x in pts:
        y, xf = (_dense_reference(gnh, x)[i] for i in (0, 5))
        g = dh(x)
        worst = np.maximum(worst, [abs(float(g @ y)), abs(float(g @ (y - xf))),
                                   abs(float(g @ xf))])
    return tuple(float(w) for w in worst)


@pytest.mark.parametrize("spec", [
    _scenario("rosenberg"), _scenario("relparticle-L2"), loads(INEXACT_BASE_SPEC),
], ids=["rosenberg", "relparticle-L2", "inexact-base"])
def test_constant_report_equals_the_descent_check_bit_for_bit(spec):
    doc, _ = cli.constant_report(spec, DEFAULT_TOLERANCES, 30)
    pts = _points(spec, 30)
    flows = PointDynamics(spec.gnh).flows(pts)
    for cname, h in spec.constants.items():
        res = constant_descent(h, pts, flows)
        assert doc[cname] == {
            "base_conserved": res.base_conserved,
            "Gamma_h_max": res.max_Gamma_h,
            "constrained_conserved": res.constrained_conserved,
            "X_h_max": res.max_X_h,
            "consistent": res.consistent,
        }
        got = (res.max_Y_h, res.max_Gamma_h, res.max_X_h)
        want = _reference_constant_check(spec.gnh, h, pts)
        assert got == want if _exact(spec) else got == pytest.approx(want, abs=1e-13)
    for x, (y, xf) in zip(pts, flows):
        want = _dense_reference(spec.gnh, x)
        assert _same(y, want[0], _exact(spec)) and _same(xf, want[5], _exact(spec))


def test_descent_check_of_a_varying_base_equals_the_per_call_routes():
    # Y is an LU solve with B(x), as in the reference; X comes from the
    # bordered solve, which agrees with the reference's Schur route to rounding
    spec = loads(VARYING_BASE_SPEC)
    pts = _varying_base_points(10)
    flows = PointDynamics(spec.gnh).flows(pts)
    for x, (y, xf) in zip(pts, flows):
        want = _dense_reference(spec.gnh, x)
        assert np.array_equal(y, want[0]) and _same(xf, want[5], exact=False)
    for expr in ("y'", "x'*(1 + x^2)"):
        h = ExpressionField.scalar(expr, spec.variables)
        res = constant_descent(h, pts, flows)
        assert (res.max_Y_h, res.max_Gamma_h, res.max_X_h) == \
            pytest.approx(_reference_constant_check(spec.gnh, h, pts), abs=1e-13)


@pytest.mark.parametrize("spec", [
    _scenario("example1"), _scenario("rosenberg"), _scenario("relparticle-L2"),
    _scenario("relparticle-L2", U="q1"), loads(INEXACT_BASE_SPEC), loads(VARYING_BASE_SPEC),
], ids=["example1", "rosenberg", "relparticle-L2", "relparticle-L2-U", "inexact-base",
        "varying-base"])
def test_point_analysis_equals_the_checked_routes_bit_for_bit(spec):
    exact = _exact(spec)
    varying = not spec.system.A.is_constant
    dyn = PointDynamics(spec.gnh)
    for x in _points(spec, 10):
        pa = dyn.analysis(x)
        y, gamma, jphi, d, u, xf = _dense_reference(spec.gnh, x)
        cls = pa.classification
        # a varying base takes Y and Gamma by LU, as the reference does
        assert _same(cls.d_matrix, d, exact or varying) and _same(pa.y, y, exact or varying)
        assert cls.rank_d == linalg.rank(d) == 1
        assert cls.regular and cls.surjective and cls.injective
        assert _same(pa.field, xf, exact) and _same(pa.multipliers.u, u, exact)
        assert not pa.multipliers.gauged
        p, q = linalg.complement_projectors(linalg.kernel_basis(jphi), gamma)
        assert _same(pa.projectors[0], p, exact or varying)
        assert _same(pa.projectors[1], q, exact or varying)


def test_a_dense_inverse_agrees_with_the_dense_reference():
    spec = loads(DENSE_INVERSE_SPEC)
    dyn = PointDynamics(spec.gnh)
    for x in _points(spec, 20):
        y, gamma, jphi, d, u, xf = _dense_reference(spec.gnh, x)
        got_x, got_u, sol = dyn.solve(x)
        pa = dyn.analysis(x)
        assert sol.kernel.dim == 0 and pa.classification.regular
        assert pa.classification.rank_d == 2 and not pa.multipliers.gauged
        p, q = linalg.complement_projectors(linalg.kernel_basis(jphi), gamma)
        for got, want in ((got_x, xf), (got_u, u), (pa.field, xf), (pa.multipliers.u, u),
                          (pa.y, y), (pa.classification.d_matrix, d),
                          (pa.projectors[0], p), (pa.projectors[1], q)):
            assert _same(got, want, exact=False)


@pytest.mark.parametrize("spec", [loads(INEXACT_BASE_SPEC), loads(DENSE_INVERSE_SPEC),
                                  loads(VARYING_BASE_SPEC)],
                         ids=["inexact-base", "dense-inverse", "varying-base"])
def test_analysis_reports_what_the_flow_evaluator_computes(spec):
    dyn = PointDynamics(spec.gnh)
    for x in _points(spec, 30):
        pa = dyn.analysis(x)
        xf, u, _ = dyn.solve(x)
        assert np.array_equal(pa.field, xf) and np.array_equal(pa.multipliers.u, u)
        assert np.array_equal(pa.y, dyn.flows(np.asarray(x)[None])[0, 0])


def _count_sources(monkeypatch):
    """The entry count of each expression list whose source is generated."""
    sources = []
    orig = expressions._compiled_source

    def counted(exprs, variables):
        sources.append(len(exprs))
        return orig(exprs, variables)

    monkeypatch.setattr(expressions, "_compiled_source", counted)
    return sources


def test_analysis_and_flow_samples_compile_one_kernel_per_evaluator(monkeypatch):
    # one kernel source per evaluator: its scalar runner serves each analysis,
    # and its vectorised target evaluates the sample of `flows` in one call
    spec = _scenario("rosenberg")
    pts = _points(spec, 40)  # the sampler compiles phi and its Jacobian
    sources = _count_sources(monkeypatch)

    def no_field_call(field, point):
        raise AssertionError("a field was evaluated outside the kernel")

    for dyn in (PointDynamics(spec.gnh), PointDynamics(spec.gnh)):
        before = len(sources)
        dyn.analysis(pts[0])
        kernel, calls = dyn._compiled, []
        rows = kernel.rows
        kernel.rows = lambda points: calls.append(len(points)) or rows(points)
        with monkeypatch.context() as patch:
            patch.setattr(ExpressionField, "__call__", no_field_call)
            for x in pts:
                dyn.analysis(x)
        assert calls == [1] * len(pts)  # one kernel evaluation per analysis
        dyn.flows(pts)
        assert calls[len(pts):] == [len(pts)]  # one over the whole sample
        assert len(sources) == before + 1


def _count_evaluators(monkeypatch):
    built = collections.Counter()
    orig = PointDynamics.__init__

    def counted(self, system, tols=DEFAULT_TOLERANCES, second_order=False):
        built[second_order] += 1
        orig(self, system, tols, second_order)

    monkeypatch.setattr(PointDynamics, "__init__", counted)
    return built


def test_check_constant_builds_one_evaluator_and_one_svd_per_point(monkeypatch, capsys):
    built = _count_evaluators(monkeypatch)
    calls = _counting(monkeypatch)
    code = cli.main(["check-constant", "--scenario", "rosenberg", "--points", "50"])
    assert code == 0 and "passed: true" in capsys.readouterr().out
    assert built == {False: 1}
    assert calls["rank"] <= 50 + 2


@pytest.mark.parametrize("name,modes", [
    ("rosenberg", {False: 1}),
    ("relparticle-L2", {False: 1}),
    # the base is singular at every point: the constrained evaluator finds that,
    # the second-order one solves
    ("relparticle-L1", {False: 1, True: 1}),
])
def test_analyze_builds_one_evaluator_per_mode(name, modes, monkeypatch, capsys):
    built = _count_evaluators(monkeypatch)
    code = cli.main(["analyze", "--scenario", name, "--points", "6"])
    assert code == 0 and capsys.readouterr().out.count("point_0") == 6
    assert built == modes


@pytest.mark.parametrize("name,singular,ranks", [
    # the stacked base solve (it decides the ranks and the consistency reports
    # together) and the stacked second-order solve
    ("relparticle-L1", True, 2),
    # a constant base: its rank once; then, over the sample, the stacked solve
    # of D u = -dphi . Y, which also decides rank D, and the projectors' two
    ("relparticle-L2", False, 4),
])
def test_analyze_decides_each_rank_once_per_sample(name, singular, ranks,
                                                   monkeypatch, capsys):
    calls = _counting(monkeypatch)
    code = cli.main(["analyze", "--scenario", name, "--points", "10"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("base_regular: false") == (10 if singular else 0)
    assert calls["rank"] == ranks


# relparticle-L1 (8 variables): phi and dphi, A (8x8) and f, and the 54 entries
# of the second-order kernel; its first-order kernel would have 90
L1_PHI, L1_BASE, L1_SECOND_ORDER = [1, 8], [64, 8], [54]


def test_a_singular_varying_base_compiles_no_first_order_kernel(monkeypatch, capsys):
    # the base is singular at every point of relparticle-L1: A and f decide
    # that, and the first-order kernel is never built
    sources = _count_sources(monkeypatch)
    assert cli.main(["analyze", "--scenario", "relparticle-L1", "--points", "50"]) == 0
    assert capsys.readouterr().out.count("base_regular: false") == 50
    assert sources == L1_PHI + L1_BASE + L1_SECOND_ORDER
    spec = _scenario("relparticle-L1")
    pts = on_manifold_sample(spec.constraints, spec.variables, spec.box, 10)
    del sources[:]
    out = PointDynamics(spec.gnh).analyses(pts)
    assert all(isinstance(err, BaseNotRegularError) for err in out)
    assert sources == L1_BASE


def test_the_flow_mode_probe_compiles_no_first_order_kernel(monkeypatch):
    spec = _scenario("relparticle-L1")
    x0 = on_manifold_sample(spec.constraints, spec.variables, spec.box, 1)[0]
    sources = _count_sources(monkeypatch)
    _, mode = cli._make_field(spec, x0, DEFAULT_TOLERANCES)
    assert mode == "second-order"
    assert sources == L1_BASE + L1_SECOND_ORDER


# a varying base singular only at x = 0, where f is not in the image of A
MIXED_BASE_SPEC = """
[vars]
names = x, y

[system]
A = 1, 0; 0, x
f = 1, 1

[constraints]
phi = y - x

[forces]
Delta = 1, 1
"""


def _same_consistency(got, want):
    assert (got.consistent, got.residual, got.rank_A) == \
        (want.consistent, want.residual, want.rank_A)
    assert got.solution.x0.tobytes() == want.solution.x0.tobytes()
    assert got.solution.kernel.vectors.tobytes() == want.solution.kernel.vectors.tobytes()


def test_a_varying_base_is_decided_from_a_and_f_at_each_row():
    spec = loads(MIXED_BASE_SPEC)
    pts = np.array([[-1.0, -1.0], [0.5, 0.5], [0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])
    singular = [2, 4]
    want = consistency_rows(spec.system, pts)
    dyn = PointDynamics(spec.gnh)
    errors = dyn.base_errors(pts)
    out = dyn.analyses(pts)
    for i, x in enumerate(pts):
        if i in singular:
            assert not want[i].consistent and want[i].rank_A == 1
            for err in (errors[i], out[i]):
                assert isinstance(err, BaseNotRegularError)
                _same_consistency(err.consistency, want[i])
        else:
            assert errors[i] is None and isinstance(out[i], PointAnalysis)
            xf, u, _ = dyn.solve(x)
            assert np.array_equal(out[i].field, xf) and np.array_equal(out[i].multipliers.u, u)
    with pytest.raises(BaseNotRegularError) as err:
        dyn.flows(pts)
    _same_consistency(err.value.consistency, want[singular[0]])
    regular = np.delete(pts, singular, axis=0)
    assert np.array_equal(dyn.flows(regular)[:, 0],
                          [pa.y for i, pa in enumerate(out) if i not in singular])
