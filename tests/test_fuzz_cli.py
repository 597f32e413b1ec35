"""Mutated spec files through the commands: an exit code, never a traceback.

Each example is a bundled `.lss` text with bytes deleted, bytes inserted or a
fragment of another bundled text spliced in, and one drawn `--param` override.
Whatever the text has become, the check commands, and `simulate` on a text
that `loads` accepts, must end with one of the documented exit codes (0 success, 1 a check failed, 2 usage error,
3 evaluation error), and `specfile.loads` must never let a ShapeError out:
parts of a spec that do not fit together are a SpecFileError (a usage error).
"""

import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from linsing.cli import SCENARIOS, main, scenario_text
from linsing.errors import LinsingError, ShapeError
from linsing.specfile import loads

TEXTS = [scenario_text(name).encode("utf-8") for name in SCENARIOS]
PARAMS = [tuple(loads(scenario_text(name)).params) for name in SCENARIOS]
ODD_NAMES = ("x", "sin", "zz")  # a variable's, a function's, one that no entry uses
VALUES = ("2", "-0.5", "3*(1 + 1)", "1e-3", "q1", "1e308*10", "k*")
COMMANDS = (
    ("analyze", "--points", "2"),
    ("check-constant", "--points", "3"),
    ("check-symmetry", "--points", "3"),
)


@st.composite
def mutated_specs(draw):
    """(text, name, value): a mutated bundled text and a parameter override,
    whose name is mostly one of that text's parameters."""
    index = draw(st.integers(0, len(TEXTS) - 1))
    text = TEXTS[index]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("delete", "insert", "splice")))
        if kind == "delete":
            end = draw(st.integers(at, min(len(text), at + 24)))
            text = text[:at] + text[end:]
        elif kind == "insert":
            text = text[:at] + draw(st.binary(min_size=1, max_size=6)) + text[at:]
        else:
            other = draw(st.sampled_from(TEXTS))
            start = draw(st.integers(0, len(other)))
            end = draw(st.integers(start, min(len(other), start + 60)))
            text = text[:at] + other[start:end] + text[at:]
    name = draw(st.sampled_from(PARAMS[index] * 3 + ODD_NAMES))
    return text, name, draw(st.sampled_from(VALUES))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(example=mutated_specs())
def test_mutated_specs_end_in_an_exit_code(example, tmp_path, capsys):
    text, name, value = example
    path = tmp_path / "mutated.lss"
    path.write_bytes(text)
    commands = list(COMMANDS)
    try:
        spec = loads(text.decode("utf-8", errors="replace"), param_overrides={name: value})
    except ShapeError as exc:
        raise AssertionError(f"loads let a ShapeError out: {exc}") from exc
    except LinsingError:
        pass
    else:
        commands.append(("simulate", "--x0", f"{spec.variables[0]}=0.25",
                         "--t1", "0.05", "--dt", "0.01", "--quiet-time"))
    for cmd, *flags in commands:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([cmd, "--spec", str(path), "--param", f"{name}={value}", *flags])
        capsys.readouterr()
        assert code in (0, 1, 2, 3), (cmd, text, name, value)
