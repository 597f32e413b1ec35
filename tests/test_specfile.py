import math
from importlib import resources

import numpy as np
import pytest

from linsing import cli
from linsing.errors import SpecFileError
from linsing.expressions import Call, Const, Neg, Pow, Var, _compiled_source
from linsing.specfile import load, loads

MINIMAL = """
[vars]
names = x, y

[system]
f = 1, y
"""


def test_minimal_system_file():
    spec = loads(MINIMAL)
    assert spec.kind == "system"
    assert spec.variables == ["x", "y"]
    assert spec.constraints is None and spec.gnh is None, "nothing else declared"
    assert np.allclose(spec.system.A(np.zeros(2)), np.eye(2))
    assert np.allclose(spec.system.f(np.array([0.0, 3.0])), [1.0, 3.0])


def test_spec_files_do_not_share_their_constants():
    text = "[vars]\nnames = x\n[system]\nf = x\n"
    first, second = loads(text), loads(text)
    first.constants["h"] = first.system.f
    assert second.constants == {} and loads(text).constants == {}


def test_full_system_file():
    spec = loads(
        """
        [params]
        a = 2
        b = a + 1        # chains resolve before parsing

        [vars]
        names = x, y

        [system]
        A = 1, 0; 0, b - 2
        f = a, y

        [constraints]
        phi = y - a

        [forces]
        Delta = x, 1; 0, 1

        [symmetry]
        V = b*x, 0
        box = x:-1:1, y:0.5:4

        [constant]
        level = y
        drift2 = y*exp(-x)
        """
    )
    p = np.array([0.5, 2.0])
    assert np.allclose(spec.system.A(p), [[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(spec.system.f(p), [2.0, 2.0])
    assert spec.constraints.codim == 1
    assert spec.forces.shape == (2, 2)
    assert np.array_equal(spec.forces(p), [[0.5, 0.0], [1.0, 1.0]])  # a section per column
    assert spec.gnh is not None
    assert spec.symmetry.kind == "infinitesimal"
    assert np.allclose(spec.symmetry.base(p), [1.5, 0.0])
    assert spec.box == {"x": (-1.0, 1.0), "y": (0.5, 4.0)}
    assert sorted(spec.constants) == ["drift2", "level"]
    assert spec.constants["level"](p) == 2.0
    assert spec.report_scale == 1.0


def test_lagrangian_file_defaults_to_chetaev_forces():
    spec = loads(
        """
        [vars]
        q = x, y

        [lagrangian]
        L = (x'^2 + y'^2)/2

        [constraints]
        phi = y' - x'
        report_scale = 2
        """
    )
    assert spec.kind == "lagrangian"
    assert spec.variables == ["x", "y", "x'", "y'"]
    assert spec.model is not None
    assert spec.report_scale == 2.0
    # Chetaev column (-1, 1) in the dq slots
    col = spec.forces(np.zeros(4))[:, 0]
    assert np.allclose(col, [-1.0, 1.0, 0.0, 0.0])
    assert spec.gnh is not None


def test_parameter_chains_and_cycles():
    spec = loads(
        """
        [params]
        a = 2
        b = a + 1
        c = 2*b

        [vars]
        names = x

        [system]
        f = c*x
        """
    )
    assert spec.system.f(np.array([1.0]))[0] == 6.0

    with pytest.raises(SpecFileError) as err:
        loads(
            """
            [params]
            a = b
            b = a

            [vars]
            names = x

            [system]
            f = a
            """
        )
    assert "cyclic" in str(err.value)


def test_param_overrides_take_precedence():
    text = """
    [params]
    a = 2

    [vars]
    names = x

    [system]
    f = a*x
    """
    assert loads(text).system.f(np.array([3.0]))[0] == 6.0
    spec = loads(text, param_overrides={"a": "5"})
    assert spec.system.f(np.array([3.0]))[0] == 15.0
    # overrides may introduce brand-new parameters referenced by others
    spec = loads(text, param_overrides={"a": "k + 1", "k": "9"})
    assert spec.system.f(np.array([1.0]))[0] == 10.0


def test_an_override_must_be_declared_or_used():
    text = """
    [vars]
    names = x

    [system]
    f = k2*x + 1e5*a
    """
    # an undeclared name is used when an entry or another override has it as a token
    spec = loads(text, param_overrides={"a": "1", "k2": "b", "b": "3"})
    assert spec.system.f(np.array([2.0]))[0] == 6.0 + 1e5
    # a longer name or a number's exponent is not a use of it
    for name in ("k", "e5", "zz"):
        with pytest.raises(SpecFileError, match=f"unknown parameter '{name}'"):
            loads(text, param_overrides={"a": "1", "k2": "1", name: "2"})


CHAINED = """
[params]
a = 2
b = a + 1
c = 2*b
unused = c^a

[vars]
q = x, y

[lagrangian]
L = m*(x'^2 + y'^2)/2 - c*U - -b*x

[constraints]
phi = y' - k*x'
report_scale = c/a

[symmetry]
V = 0, 1, 0, 0
box = x:-1:1, y:-1:1, x':-1:1, y':-1:1

[constant]
h = b*y' - c*x'^a
"""

# CHAINED with each parameter, and the overrides below, written inline in parentheses
INLINE = """
[vars]
q = x, y

[lagrangian]
L = (0.5)*(x'^2 + y'^2)/2 - (2*(2 + 1))*(x) - -(2 + 1)*x

[constraints]
phi = y' - (-(2 + 1))*x'
report_scale = (2*(2 + 1))/(2)

[symmetry]
V = 0, 1, 0, 0
box = x:-1:1, y:-1:1, x':-1:1, y':-1:1

[constant]
h = (2 + 1)*y' - (2*(2 + 1))*x'^(2)
"""


def _fields(spec):
    return [spec.system.A, spec.system.f, spec.constraints.phi, spec.forces,
            spec.symmetry.base, *spec.constants.values()]


def _structure(e):
    """A node as nested tuples of its type and fields, equal for equal trees:
    nodes themselves compare by identity."""
    if isinstance(e, Const):
        return ("Const", e.value)
    if isinstance(e, Var):
        return ("Var", e.name)
    if isinstance(e, Call):
        return ("Call", e.fn, _structure(e.arg))
    if isinstance(e, Neg):
        return ("Neg", _structure(e.a))
    if isinstance(e, Pow):
        return ("Pow", _structure(e.base), _structure(e.exponent))
    return (type(e).__name__, _structure(e.a), _structure(e.b))


def test_parameters_are_the_nodes_of_their_texts_in_parentheses():
    spec = loads(CHAINED, param_overrides={"m": "1/2", "k": "-b", "U": "x"})
    inline = loads(INLINE)
    assert spec.params == {"a": "2", "b": "a + 1", "c": "2*b", "unused": "c^a",
                           "m": "1/2", "k": "-b", "U": "x"}
    assert spec.report_scale == inline.report_scale == 3.0
    for got, want in zip(_fields(spec), _fields(inline), strict=True):
        assert [_structure(e) for e in got.entries] == [_structure(e) for e in want.entries]
        assert _compiled_source(got.entries, got.variables) == \
            _compiled_source(want.entries, want.variables)


def test_an_unparsable_override_is_reported_in_its_own_text():
    text = "[params]\na = 2\nk = 1\n[vars]\nnames = x\n[system]\nf = k*x\n"
    with pytest.raises(SpecFileError) as err:
        loads(text, param_overrides={"k": "a +"})
    assert str(err.value) == ("unexpected end of input (byte offset 3) in parameter 'k' = 'a +'"
                              " [section params]")
    assert (err.value.section, err.value.line) == ("params", 0)


@pytest.mark.parametrize("params, line, message", [
    ("a = 1\nbad = 1 +\n", 3, "unexpected end of input (byte offset 3) in parameter 'bad'"),
    ("a = 1\nbad = zz\n", 3, "undeclared variable 'zz' in parameter 'bad' = 'zz'"),
    ("a = b\nb = 2*a\n", 2, "cyclic parameter definitions through 'a'"),
    ("a = 1\nb = b\n", 3, "cyclic parameter definitions through 'b'"),
    ("a = 1\nsin = 2\n", 3, "parameter name 'sin' shadows a function"),
], ids=["syntax", "undeclared", "cycle", "self", "function"])
def test_a_parameter_that_nothing_uses_is_still_checked_at_its_line(params, line, message):
    with pytest.raises(SpecFileError) as err:
        loads(f"[params]\n{params}[vars]\nnames = x\n[system]\nf = a*x\n")
    assert message in str(err.value)
    assert (err.value.section, err.value.line) == ("params", line)


def test_an_override_named_like_a_function_or_badly_is_a_spec_error():
    text = "[vars]\nnames = x\n[system]\nf = sin(x)\n"
    with pytest.raises(SpecFileError, match="parameter name 'sin' shadows a function"):
        loads(text, param_overrides={"sin": "2"})
    for name in ("2bad", "a'"):
        with pytest.raises(SpecFileError, match="bad parameter name"):
            loads(text, param_overrides={name: "2"})


def test_a_box_that_names_a_variable_twice_is_a_spec_error():
    with pytest.raises(SpecFileError) as err:
        loads("[vars]\nnames = x\n[system]\nf = 1\n[symmetry]\nV = 1\n"
              "box = x:0:1, x:2:3\n")
    assert "box names 'x' twice" in str(err.value)
    assert (err.value.section, err.value.line) == ("symmetry", 7)


def test_substitution_reaches_every_list_slot():
    spec = loads(
        """
        [params]
        k = 3

        [vars]
        names = x, y

        [system]
        A = k, 0; 0, k
        f = k*x, k
        """
    )
    p = np.array([2.0, 0.0])
    assert np.allclose(spec.system.A(p), 3.0 * np.eye(2))
    assert np.allclose(spec.system.f(p), [6.0, 3.0])


# ------------------------------------------------------------- error reports

def _err(text):
    with pytest.raises(SpecFileError) as err:
        loads(text)
    return err.value


def test_structural_errors():
    e = _err("[vars]\nnames = x\n")
    assert "exactly one of" in str(e)
    e = _err("[vars]\nnames = x\n[system]\nf = x\n[lagrangian]\nL = x'^2\n")
    assert "exactly one of" in str(e)
    e = _err("[system]\nf = 1\n")
    assert e.section == "vars"
    e = _err("[wat]\nf = 1\n")
    assert "unknown section" in str(e) and e.line == 1
    e = _err("[vars]\nnames = x\n[vars]\nnames = y\n")
    assert "duplicate section" in str(e)
    e = _err("f = 1\n")
    assert "before any" in str(e)
    e = _err("[vars]\nnames = x\nnames = y\n[system]\nf = 1\n")
    assert "duplicate entry" in str(e) and e.line == 3
    e = _err("[vars]\nnames = x\n[system]\nf =\n")
    assert "empty value" in str(e)
    e = _err("[vars]\nnames = x\n[system]\n2bad = 1\n")
    assert "bad entry name" in str(e)
    e = _err("[vars]\nnames = x\n[system]\njust a line\n")
    assert "name = value" in str(e)


def test_variable_declaration_errors():
    e = _err("[vars]\nnames = x, 2y\n[system]\nf = x, 1\n")
    assert "bad variable name" in str(e)
    e = _err("[vars]\nnames = x, x\n[system]\nf = x, 1\n")
    assert "duplicate variable names" in str(e)
    e = _err("[vars]\nnames = sin\n[system]\nf = 1\n")
    assert "shadows a function" in str(e)
    e = _err("[params]\na = 1\n[vars]\nnames = a\n[system]\nf = 1\n")
    assert "collides with a parameter" in str(e)
    e = _err("[vars]\nq = x\n[system]\nf = x\n")
    assert "needs 'names" in str(e)
    e = _err("[vars]\nnames = x\n[lagrangian]\nL = x'^2\n")
    assert "needs 'q" in str(e)


def test_expression_errors_carry_section_and_line():
    e = _err("[vars]\nnames = x, y\n[system]\nf = x, z\n")
    assert e.section == "system"
    assert e.line == 4
    assert "'z'" in str(e)
    e = _err("[vars]\nnames = x\n[system]\nf = x +* 1\n")
    assert e.section == "system" and e.line == 4


def test_matrix_shape_errors():
    e = _err("[vars]\nnames = x, y\n[system]\nA = 1, 0; 1\nf = x, y\n")
    assert "ragged" in str(e)
    e = _err("[vars]\nnames = x, y\n[system]\nA = 1; 0\nf = x, y\n")
    assert "expected 2 columns" in str(e)
    e = _err("[vars]\nnames = x, y\n[system]\nf = x,, y\n")
    assert "empty component" in str(e)


def test_constraint_force_pairing_rules():
    e = _err(
        "[vars]\nnames = x, y\n[system]\nf = 1, y\n[forces]\nDelta = x, 1\n"
    )
    assert "[forces] requires [constraints]" in str(e)
    e = _err(
        "[vars]\nnames = x, y\n[system]\nf = 1, y\n[constraints]\nphi = y - 2\n"
    )
    assert "needs [forces]" in str(e)
    e = _err(
        "[vars]\nnames = x, y\n[system]\nf = 1, y\n"
        "[constraints]\nphi = y - 2\nreport_scale = x\n[forces]\nDelta = x, 1\n"
    )
    assert "constant number" in str(e)


@pytest.mark.parametrize("box, message", [
    ("x:-inf:1", "box bounds in 'x:-inf:1' are not finite"),
    ("x:0:nan", "box bounds in 'x:0:nan' are not finite"),
    ("x:-1e308:1e308", "box range in 'x:-1e308:1e308' is too wide: hi - lo overflows"),
])
def test_a_box_range_must_be_finite_and_of_finite_width(box, message):
    e = _err(f"[vars]\nnames = x, y\n[system]\nf = 1, y\n[symmetry]\nV = 1, 0\nbox = {box}\n")
    assert message in str(e)
    assert (e.section, e.line) == ("symmetry", 7)


@pytest.mark.parametrize("bound", ["1_0", "nan", "inf", "-inf", "1e400", "1e300*1e300", "b"])
def test_a_box_bound_is_a_finite_constant_of_the_grammar(bound):
    # `float()` reads 1_0, nan, inf and -inf; the expression grammar does not
    e = _err("[vars]\nnames = x, y\n[system]\nf = 1, y\n[symmetry]\nV = 1, 0\n"
             f"box = x:0:{bound}\n")
    assert f"box bounds in 'x:0:{bound}' are not finite numbers: " in str(e)
    assert (e.section, e.line) == ("symmetry", 7)


def test_box_bounds_are_constant_expressions_in_the_parameters():
    text = ("[params]\na = 2\n[vars]\nnames = x, y\n[system]\nf = 1, y\n"
            "[symmetry]\nV = 1, 0\nbox = x:-a:a, y:a/4:2*a + 1e-3\n")
    assert loads(text).box == {"x": (-2.0, 2.0), "y": (0.5, 4.001)}
    assert loads(text, param_overrides={"a": "3"}).box == {"x": (-3.0, 3.0), "y": (0.75, 6.001)}
    # an override that only the box uses is used
    only = text.replace("[params]\na = 2\n", "")
    assert loads(only, param_overrides={"a": "1"}).box["x"] == (-1.0, 1.0)


@pytest.mark.parametrize("name", ["example1", "relparticle-L1", "relparticle-L2", "rosenberg"])
def test_bundled_boxes_parse_to_the_floats_of_their_numbers(name):
    text = cli.scenario_text(name)
    entry = next(line for line in text.splitlines() if line.startswith("box = "))
    pieces = [piece.strip().split(":") for piece in entry[len("box = "):].split("#")[0].split(",")]
    want = {var: (float(lo), float(hi)) for var, lo, hi in pieces}
    got = loads(text).box
    assert got == want and all(math.copysign(1.0, g) == math.copysign(1.0, w)
                               for var in want for g, w in zip(got[var], want[var]))


def test_symmetry_section_errors():
    base = "[vars]\nnames = x, y\n[system]\nf = 1, y\n[symmetry]\n"
    e = _err(base + "V = x\n")
    assert "one component per variable" in str(e)
    e = _err(base + "psi = x, y\n")
    assert "both psi and Phi" in str(e)
    e = _err(base + "V = x, y\npsi = x, y\nPhi = 1, 0; 0, 1\n")
    assert "not both" in str(e)
    e = _err(base + "box = x:-1:1\n")
    assert "missing V or psi" in str(e)
    e = _err(base + "V = x, y\nbox = x:1\n")
    assert "name:lo:hi" in str(e)
    e = _err(base + "V = x, y\nbox = z:0:1\n")
    assert "unknown variable" in str(e)
    e = _err(base + "V = x, y\nbox = x:2:1\n")
    assert "empty box range" in str(e)
    e = _err(base + "V = x, y\nLambda = 1, 0\n")
    assert "Lambda must be square" in str(e) or "expected 2 columns" in str(e)
    e = _err(base + "V = x, y\nwhatever = 1\n")
    assert "unknown entry" in str(e)
    # the default Lambda = DV is n x n, which a fibre of k != n entries cannot take
    e = _err("[vars]\nnames = x, y\n[system]\nA = 1, 1\nf = 1\n[symmetry]\nV = 1, 0\n")
    assert "V without Lambda needs k = n" in str(e) and "k = 1" in str(e)
    assert (e.section, e.line) == ("symmetry", 7)


def test_load_missing_file():
    with pytest.raises(SpecFileError) as err:
        load("/nonexistent/path.lss")
    assert "cannot read" in str(err.value)


# ------------------------------------------------------ bundled descriptions

def _scenario(name):
    return (resources.files("linsing") / "scenarios" / f"{name}.lss").read_text()


def test_bundled_scenarios_load():
    ex1 = loads(_scenario("example1"), name="example1")
    assert ex1.kind == "system"
    assert ex1.gnh is not None and ex1.symmetry is not None
    assert ex1.box is not None
    assert "level" in ex1.constants

    ros = loads(_scenario("rosenberg"))
    assert ros.kind == "lagrangian"
    assert ros.variables == ["x", "y", "z", "x'", "y'", "z'"]
    assert ros.forces.shape == (6, 1)  # Chetaev default
    assert sorted(ros.constants) == ["plane", "px", "twist", "vy"]

    l2 = loads(_scenario("relparticle-L2"))
    assert l2.report_scale == 2.0
    assert l2.model is not None
    assert l2.constraints.codim == 1

    l1 = loads(_scenario("relparticle-L1"))
    assert l1.report_scale == 1.0
    assert "metric" in l1.constants


def test_scenario_overrides_change_the_model():
    l2 = loads(_scenario("relparticle-L2"), param_overrides={"U": "q1"})
    s = np.array([0.0] * 4 + [1.25, 0.75, 0.0, 0.0])
    # E = -g(v,v)/2 + U picks up the q1 term
    base = loads(_scenario("relparticle-L2"))
    assert l2.model.energy_field(s) == pytest.approx(
        base.model.energy_field(s) + s[0]
    )
