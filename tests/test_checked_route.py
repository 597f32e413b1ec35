"""The check commands evaluate each sample point once, through one evaluator.

`check-constant` and `analyze` build one `PointDynamics` per flow mode and
reuse it at every point; their numbers must equal, bit for bit, the checked
`*_at` routes, which build everything afresh per call and serve here as the
reference. Counters pin the mechanism: evaluators built, rank decisions made,
partial derivative fields compiled.
"""

import collections

import numpy as np
import pytest

from test_acceptance import _scenario
from test_bordered import VARYING_BASE_SPEC, _counting, _varying_base_points

from linsing import cli
from linsing.expressions import ExpressionField
from linsing.linalg import DEFAULT_TOLERANCES
from linsing.nonholonomic import (
    PointDynamics,
    classify_at,
    constrained_field_at,
    projectors_at,
    unconstrained_solution_at,
)
from linsing.sampling import on_manifold_sample
from linsing.specfile import loads
from linsing.symmetry import check_constant_descent


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


def _points(spec, count):
    pts = on_manifold_sample(spec.constraints, spec.variables, spec.box, count)
    assert len(pts) == count
    return list(pts)


def _reference_constant_check(gnh, h, pts):
    """(max Y.h, max (Y - X).h, max X.h) by the per-call checked routes."""
    dh = h.gradient()
    worst = np.zeros(3)
    for x in pts:
        y = unconstrained_solution_at(gnh, x)
        xf, _ = constrained_field_at(gnh, x, y)
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
    for cname, h in spec.constants.items():
        res = check_constant_descent(spec.gnh, h, pts)
        assert doc[cname] == {
            "base_conserved": res.base_conserved,
            "Gamma_h_max": res.max_Gamma_h,
            "constrained_conserved": res.constrained_conserved,
            "X_h_max": res.max_X_h,
            "consistent": res.consistent,
        }
        assert (res.max_Y_h, res.max_Gamma_h, res.max_X_h) == \
            _reference_constant_check(spec.gnh, h, pts)


def test_descent_check_of_a_varying_base_equals_the_per_call_routes():
    spec = loads(VARYING_BASE_SPEC)
    pts = _varying_base_points(10)
    for expr in ("y'", "x'*(1 + x^2)"):
        h = ExpressionField.scalar(expr, spec.variables)
        res = check_constant_descent(spec.gnh, h, pts)
        assert (res.max_Y_h, res.max_Gamma_h, res.max_X_h) == \
            _reference_constant_check(spec.gnh, h, pts)


@pytest.mark.parametrize("spec", [
    _scenario("example1"), _scenario("rosenberg"), _scenario("relparticle-L2"),
    _scenario("relparticle-L2", U="q1"), loads(INEXACT_BASE_SPEC), loads(VARYING_BASE_SPEC),
], ids=["example1", "rosenberg", "relparticle-L2", "relparticle-L2-U", "inexact-base",
        "varying-base"])
def test_point_analysis_equals_the_checked_routes_bit_for_bit(spec):
    pts = (_varying_base_points(10) if not spec.system.A.is_constant
           else _points(spec, 10))
    dyn = PointDynamics(spec.gnh)
    for x in pts:
        pa = dyn.analysis(x)
        cls = classify_at(spec.gnh, x)
        y = unconstrained_solution_at(spec.gnh, x)
        xf, mult = constrained_field_at(spec.gnh, x, y)
        p, q = projectors_at(spec.gnh, x)
        assert np.array_equal(pa.classification.d_matrix, cls.d_matrix)
        assert pa.classification == cls
        assert np.array_equal(pa.y, y)
        assert np.array_equal(pa.field, xf)
        assert np.array_equal(pa.multipliers.u, mult.u)
        assert pa.multipliers.gauged == mult.gauged
        assert np.array_equal(pa.projectors[0], p) and np.array_equal(pa.projectors[1], q)


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


@pytest.mark.parametrize("name,singular,svds", [
    # the base SVD (it decides the rank and the consistency report together)
    # and the second-order solve at each singular point
    ("relparticle-L1", True, 10 + 10),
    # a regular varying base: the base SVD in place of the rank test, then the
    # frame, D and projector ranks and the bordered solve, as before
    ("relparticle-L2", False, 51),
])
def test_analyze_factors_a_varying_base_once_per_point(name, singular, svds,
                                                       monkeypatch, capsys):
    calls = _counting(monkeypatch)
    code = cli.main(["analyze", "--scenario", name, "--points", "10"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("base_regular: false") == (10 if singular else 0)
    assert calls["rank"] == svds


def test_check_symmetry_takes_no_partial_derivative_fields(monkeypatch, capsys):
    taken = []
    orig = ExpressionField.partial_fields

    def counted(self):
        taken.append(self.shape)
        return orig(self)

    monkeypatch.setattr(ExpressionField, "partial_fields", counted)
    code = cli.main(["check-symmetry", "--scenario", "relparticle-L1", "--points", "20"])
    assert code == 0 and "passed: true" in capsys.readouterr().out
    assert taken == []
