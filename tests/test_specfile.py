from importlib import resources

import numpy as np
import pytest

from linsing.errors import SpecFileError
from linsing.specfile import load, loads, parse_param_overrides

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


def test_parse_param_overrides():
    assert parse_param_overrides(["a=1", "b=2*a, c = 3"]) == {
        "a": "1",
        "b": "2*a",
        "c": "3",
    }
    assert parse_param_overrides(None) == {}
    with pytest.raises(SpecFileError):
        parse_param_overrides(["noequals"])
    with pytest.raises(SpecFileError):
        parse_param_overrides(["2bad=1"])
    with pytest.raises(SpecFileError):
        parse_param_overrides(["a="])


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
