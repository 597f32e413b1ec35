"""Line-oriented text format for describing systems, constraints, forces,
symmetry candidates, and constants of motion.

A file is a sequence of ``[section]`` headers with ``name = value`` entries;
``#`` starts a comment. Recognized sections:

``[params]``
    Named constants. Each value is an expression, parsed once in the state
    variables and the other parameters; an entry that names a parameter holds
    that parameter's expression, as if its text were written there in
    parentheses. Overrides (``loads``' `param_overrides`, the CLI's
    ``--param``) replace values or add parameters that an entry uses.
``[vars]``
    ``names = x, y`` declares state variables directly, or ``q = x, y``
    declares configuration variables for a Lagrangian (velocities are the
    primed names ``x'``, ``y'``).
``[system]``
    ``f`` (vector entries, comma-separated) and optional ``A`` (rows
    separated by ``;``); A defaults to the identity.
``[lagrangian]``
    ``L = <expr>`` over q and primed velocity names.
``[constraints]``
    ``phi`` entries (comma-separated) cutting the submanifold, and optional
    ``report_scale`` applied to multipliers in reports.
``[forces]``
    ``Delta`` sections separated by ``;`` with comma-separated components;
    each section is one column of the k x m force frame. Optional for
    Lagrangian files, where it defaults to the Chetaev frame.
``[symmetry]``
    Either ``V`` (+ optional ``Lambda`` rows) for an infinitesimal candidate
    or ``psi`` + ``Phi`` for a finite one, plus an optional sampling ``box``
    of ``name:lo:hi`` ranges.
``[constant]``
    Named scalar fields, used as trajectory monitors and descent-check
    candidates.

Exactly one of [system] / [lagrangian] must be present.
"""

from __future__ import annotations

import math
import re

from .errors import (
    ExprSyntaxError,
    LinsingError,
    NonFiniteError,
    ShapeError,
    SpecFileError,
    UndeclaredVariableError,
)
from .expressions import FUNCTIONS, ExpressionField, evaluate, parse
from .lagrangian import build_lagrangian_model, build_lagrangian_system, chetaev_frame
from .nonholonomic import GeneralizedNonholonomicSystem, SubmanifoldSpec
from .symmetry import finite_candidate, infinitesimal_candidate
from .systems import LinearlySingularSystem, identity_system

__all__ = ["SpecFile", "constant_value", "load", "loads", "parse_box"]

_SECTIONS = (
    "params",
    "vars",
    "system",
    "lagrangian",
    "constraints",
    "forces",
    "symmetry",
    "constant",
)

_HEADER_RE = re.compile(r"^\[([A-Za-z][A-Za-z0-9_-]*)\]$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*'?$")


class _Entry:
    def __init__(self, value, line):
        self.value = value
        self.line = line


class SpecFile:
    """A loaded and validated system description."""

    def __init__(self, kind, variables, params, system=None, model=None, constraints=None,
                 forces=None, gnh=None, symmetry=None, box=None, constants=None,
                 report_scale=1.0, name=""):
        self.kind = kind                # "system" | "lagrangian"
        self.variables = variables
        self.params = params            # name -> value text as written, overrides applied
        self.system = system            # a LinearlySingularSystem
        self.model = model              # a LagrangianModel
        self.constraints = constraints  # a SubmanifoldSpec
        self.forces = forces            # ExpressionField (k, m), one column per force section
        self.gnh = gnh                  # a GeneralizedNonholonomicSystem
        self.symmetry = symmetry        # a SymmetryCandidate
        self.box = box
        self.constants = {} if constants is None else constants
        self.report_scale = report_scale
        self.name = name


def _split_sections(text):
    """Raw pass: section -> ordered {name: _Entry}, with line numbers."""
    sections = {}
    section, current = "", None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SECTIONS:
                raise SpecFileError(name, lineno, f"unknown section [{name}]")
            if name in sections:
                raise SpecFileError(name, lineno, f"duplicate section [{name}]")
            section, current = name, sections.setdefault(name, {})
            continue
        if current is None:
            raise SpecFileError("", lineno, "entry before any [section] header")
        if "=" not in line:
            raise SpecFileError(section, lineno, "expected 'name = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _NAME_RE.match(key):
            raise SpecFileError(section, lineno, f"bad entry name {key!r}")
        if key in current:
            raise SpecFileError(section, lineno, f"duplicate entry {key!r}")
        if not value:
            raise SpecFileError(section, lineno, f"empty value for {key!r}")
        current[key] = _Entry(value, lineno)
    return sections


def _reject_unknown(name, sec, known):
    """Raise SpecFileError at the first entry, by name, of section `name` not in `known`."""
    extra = sorted(set(sec) - known)
    if extra:
        raise SpecFileError(name, sec[extra[0]].line, f"unknown entry {extra[0]!r}")


def _parse_entry(section, line, text, variables, params, name=None):
    """parse(text, variables, params), with an error raised as a SpecFileError
    at `line` that quotes `text` and, for a parameter's text, names it `name`."""
    where = repr(text) if name is None else f"parameter {name!r} = {text!r}"
    try:
        return parse(text, variables, params)
    except UndeclaredVariableError as exc:
        raise SpecFileError(section, line,
                            f"undeclared variable {exc.name!r} in {where}") from exc
    except ExprSyntaxError as exc:
        raise SpecFileError(section, line, f"{exc} in {where}") from exc


class _Params:
    """The parameters as the parser looks them up: name -> expression node.

    Each of `texts` is parsed once, on its first lookup, in `variables` and the
    other parameters; a lookup of it during that parse is a cycle. `used` holds
    the names looked up. Errors are at the parameter's line in `lines` (0 for
    an override)."""

    def __init__(self, texts, variables, lines):
        self.texts, self.variables, self.lines = texts, variables, lines
        self.nodes, self.used = {}, set()

    def __contains__(self, name):
        return name in self.texts

    def __getitem__(self, name):
        self.used.add(name)
        return self.node(name)

    def node(self, name):
        line = self.lines.get(name, 0)
        if name not in self.nodes:
            self.nodes[name] = None  # being parsed: a lookup of `name` now is a cycle
            self.nodes[name] = _parse_entry("params", line, self.texts[name],
                                            self.variables, self, name)
        elif self.nodes[name] is None:
            raise SpecFileError("params", line,
                                f"cyclic parameter definitions through {name!r}")
        return self.nodes[name]


def _vector_field(section, entry, variables, params):
    parts = [p.strip() for p in entry.value.split(",")]
    if any(not p for p in parts):
        raise SpecFileError(section, entry.line, "empty component in list")
    return ExpressionField.vector(
        [_parse_entry(section, entry.line, p, variables, params) for p in parts], variables
    )


def _matrix_field(section, entry, variables, params, expect_cols=None):
    rows = [r.strip() for r in entry.value.split(";")]
    table = []
    for r in rows:
        parts = [p.strip() for p in r.split(",")]
        if any(not p for p in parts):
            raise SpecFileError(section, entry.line, "empty component in matrix row")
        table.append([_parse_entry(section, entry.line, p, variables, params) for p in parts])
    width = len(table[0])
    if any(len(r) != width for r in table):
        raise SpecFileError(section, entry.line, "ragged matrix rows")
    if expect_cols is not None and width != expect_cols:
        raise SpecFileError(
            section, entry.line,
            f"expected {expect_cols} columns, found {width}",
        )
    return ExpressionField.matrix(table, variables)


def _assembled(section, line, build, *args):
    """build(*args), with a ShapeError (parts that do not fit together) raised
    as a SpecFileError naming the section and line."""
    try:
        return build(*args)
    except ShapeError as exc:
        raise SpecFileError(section, line, str(exc)) from exc


def _check_name(section, line, name, kind):
    """A variable's or parameter's name is an identifier without a prime, and
    not a function's."""
    if not _NAME_RE.match(name) or name.endswith("'"):
        raise SpecFileError(section, line, f"bad {kind} name {name!r}")
    if name in FUNCTIONS:
        raise SpecFileError(section, line, f"{kind} name {name!r} shadows a function")


def _names_list(section, entry, params):
    names = [n.strip() for n in entry.value.split(",")]
    for n in names:
        _check_name(section, entry.line, n, "variable")
        if n in params:
            raise SpecFileError(section, entry.line,
                                f"variable name {n!r} collides with a parameter")
    if len(set(names)) != len(names):
        raise SpecFileError(section, entry.line, "duplicate variable names")
    return names


def _constant(text, params):
    value = float(evaluate(parse(text, [], params), {}))
    if not math.isfinite(value):
        raise NonFiniteError(f"{text} is not finite")
    return value


def constant_value(text, params):
    """Value of a constant expression such as ``2*a``, whose names are the
    parameters `params` (name -> value text, as `SpecFile.params` holds them),
    each resolved as `loads` resolves it.

    Raises LinsingError (syntax, a name that is not a parameter, a domain
    fault, a value that is not finite) when the text is not a finite number.
    """
    return _constant(text, _Params(params, None, {}))


def parse_box(text, variables, params, label="box"):
    """``name:lo:hi,...`` -> {name: (lo, hi)}, each range finite, non-empty and
    of finite width, each bound a constant expression read as `constant_value`
    reads it in the parameters `params`; messages call the input `label`."""
    return _box(text, variables, _Params(params, None, {}), label, "", 0)


def _box(text, variables, params, label, section, line):
    box = {}
    for piece in text.split(","):
        piece = piece.strip()
        parts = piece.split(":")
        if len(parts) != 3:
            raise SpecFileError(section, line,
                                f"{label} entry {piece!r} is not name:lo:hi")
        name = parts[0].strip()
        if name not in variables:
            raise SpecFileError(section, line,
                                f"{label} names unknown variable {name!r}")
        if name in box:
            raise SpecFileError(section, line, f"{label} names {name!r} twice")
        try:  # each bound is finite, or `_constant` raises
            lo, hi = _constant(parts[1], params), _constant(parts[2], params)
        except LinsingError as exc:
            raise SpecFileError(section, line,
                                f"{label} bounds in {piece!r} are not finite numbers: {exc}"
                                ) from exc
        if not lo < hi:
            raise SpecFileError(section, line,
                                f"empty {label} range in {piece!r}")
        if not math.isfinite(hi - lo):
            raise SpecFileError(section, line,
                                f"{label} range in {piece!r} is too wide: hi - lo overflows")
        box[name] = (lo, hi)
    return box


def loads(text, name="", param_overrides=None):
    """Parse spec text into a validated :class:`SpecFile`.

    `param_overrides` maps parameter names to value texts. Each replaces the
    ``[params]`` value of its name, or adds a parameter that an entry or
    another parameter uses; any other name is a SpecFileError.
    """
    sections = _split_sections(text)

    has_system = "system" in sections
    has_lagr = "lagrangian" in sections
    if has_system == has_lagr:
        raise SpecFileError(
            "system" if has_system else "",
            0,
            "exactly one of [system] or [lagrangian] is required",
        )
    if "vars" not in sections:
        raise SpecFileError("vars", 0, "missing [vars] section")

    params_sec = sections.get("params", {})
    overrides = param_overrides or {}
    texts = {key: entry.value for key, entry in params_sec.items()} | overrides
    lines = {key: entry.line for key, entry in params_sec.items() if key not in overrides}
    for key in texts:
        _check_name("params", lines.get(key, 0), key, "parameter")

    vars_sec = sections["vars"]
    if has_system:
        if "names" not in vars_sec:
            raise SpecFileError("vars", 0, "[system] file needs 'names = ...'")
        if "q" in vars_sec:
            raise SpecFileError("vars", vars_sec["q"].line,
                                "'q' is only for [lagrangian] files")
        variables = _names_list("vars", vars_sec["names"], texts)
        q_names = None
    else:
        if "q" not in vars_sec:
            raise SpecFileError("vars", 0, "[lagrangian] file needs 'q = ...'")
        if "names" in vars_sec:
            raise SpecFileError("vars", vars_sec["names"].line,
                                "'names' is only for [system] files")
        q_names = _names_list("vars", vars_sec["q"], texts)
        variables = q_names + [n + "'" for n in q_names]

    params = _Params(texts, variables, lines)
    for key in texts:  # every parameter parses, whether an entry uses it or not
        params.node(key)

    spec = SpecFile(
        kind="system" if has_system else "lagrangian",
        variables=variables,
        params=texts,
        name=name,
    )

    if has_system:
        sec = sections["system"]
        if "f" not in sec:
            raise SpecFileError("system", 0, "missing 'f = ...'")
        f = _vector_field("system", sec["f"], variables, params)
        if "A" in sec:
            a = _matrix_field("system", sec["A"], variables, params,
                              expect_cols=len(variables))
            spec.system = _assembled("system", sec["A"].line, LinearlySingularSystem, a, f)
        else:
            spec.system = identity_system(f)
        _reject_unknown("system", sec, {"f", "A"})
    else:
        sec = sections["lagrangian"]
        if "L" not in sec:
            raise SpecFileError("lagrangian", 0, "missing 'L = ...'")
        _reject_unknown("lagrangian", sec, {"L"})
        entry = sec["L"]
        lexpr = _parse_entry("lagrangian", entry.line, entry.value, variables, params)
        spec.model = build_lagrangian_model(lexpr, q_names)
        spec.system = build_lagrangian_system(spec.model)

    if "constraints" in sections:
        sec = sections["constraints"]
        if "phi" not in sec:
            raise SpecFileError("constraints", 0, "missing 'phi = ...'")
        phi = _vector_field("constraints", sec["phi"], variables, params)
        spec.constraints = SubmanifoldSpec(phi)
        if "report_scale" in sec:
            entry = sec["report_scale"]
            try:
                spec.report_scale = _constant(entry.value, params)
            except LinsingError as exc:
                raise SpecFileError("constraints", entry.line,
                                    f"expected a constant number: {exc}") from exc
        _reject_unknown("constraints", sec, {"phi", "report_scale"})

    if "forces" in sections:
        sec = sections["forces"]
        if "Delta" not in sec:
            raise SpecFileError("forces", 0, "missing 'Delta = ...'")
        if spec.constraints is None:
            raise SpecFileError("forces", sec["Delta"].line,
                                "[forces] requires [constraints]")
        # one row per section, transposed: each section is a column of the frame
        by_section = _matrix_field("forces", sec["Delta"], variables, params)
        width = by_section.shape[1]
        spec.forces = ExpressionField.matrix(
            [by_section.entries[i::width] for i in range(width)], variables)
        _reject_unknown("forces", sec, {"Delta"})
    elif spec.constraints is not None and spec.model is not None:
        spec.forces = chetaev_frame(spec.model, spec.constraints)
    elif spec.constraints is not None:
        raise SpecFileError("constraints", 0,
                            "[system] file with [constraints] needs [forces]")

    if spec.constraints is not None:
        # only a [forces] frame can fail to fit: the Chetaev frame has k rows
        line = sections["forces"]["Delta"].line if "forces" in sections else 0
        spec.gnh = _assembled("forces", line, GeneralizedNonholonomicSystem,
                              spec.system, spec.constraints, spec.forces)

    if "symmetry" in sections:
        sec = sections["symmetry"]
        inf_keys = {"V", "Lambda"} & set(sec)
        fin_keys = {"psi", "Phi"} & set(sec)
        if inf_keys and fin_keys:
            raise SpecFileError("symmetry", 0,
                                "give either V/Lambda or psi/Phi, not both")
        if "V" in sec:
            v = _vector_field("symmetry", sec["V"], variables, params)
            if v.shape[0] != len(variables):
                raise SpecFileError("symmetry", sec["V"].line,
                                    "V must have one component per variable")
            lam = None
            if "Lambda" not in sec and spec.system.k != len(variables):
                n = len(variables)
                raise SpecFileError("symmetry", sec["V"].line,
                                    f"V without Lambda needs k = n: the default Lambda = DV "
                                    f"is {n}x{n}, the fibre has k = {spec.system.k}; give Lambda")
            if "Lambda" in sec:
                lam = _matrix_field("symmetry", sec["Lambda"], variables, params,
                                    expect_cols=spec.system.k)
                if lam.shape[0] != spec.system.k:
                    raise SpecFileError("symmetry", sec["Lambda"].line,
                                        "Lambda must be square of fibre size")
            spec.symmetry = infinitesimal_candidate(v, lam)
        elif "psi" in sec:
            if "Phi" not in sec:
                raise SpecFileError("symmetry", sec["psi"].line,
                                    "finite candidate needs both psi and Phi")
            psi = _vector_field("symmetry", sec["psi"], variables, params)
            if psi.shape[0] != len(variables):
                raise SpecFileError("symmetry", sec["psi"].line,
                                    "psi must have one component per variable")
            phi_m = _matrix_field("symmetry", sec["Phi"], variables, params,
                                  expect_cols=spec.system.k)
            spec.symmetry = _assembled("symmetry", sec["Phi"].line, finite_candidate,
                                       psi, phi_m)
        elif fin_keys or inf_keys:
            raise SpecFileError("symmetry", 0,
                                "finite candidate needs both psi and Phi")
        else:
            raise SpecFileError("symmetry", 0, "missing V or psi/Phi")
        if "box" in sec:
            spec.box = _box(sec["box"].value, variables, params, "box", "symmetry",
                            sec["box"].line)
        _reject_unknown("symmetry", sec, {"V", "Lambda", "psi", "Phi", "box"})

    for cname, entry in sections.get("constant", {}).items():
        expr = _parse_entry("constant", entry.line, entry.value, variables, params)
        spec.constants[cname] = ExpressionField.scalar(expr, variables)

    # an override must replace a [params] entry or be looked up by an entry
    # or a parameter; any other would be ignored
    unknown = [key for key in overrides if key not in params_sec and key not in params.used]
    if unknown:
        raise SpecFileError("params", 0, f"override of unknown parameter {unknown[0]!r}: "
                                         "no [params] entry has that name and no entry uses it")
    return spec


def load(path, param_overrides=None):
    """Read and parse a spec file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError("", 0, f"cannot read {path}: {exc}") from exc
    return loads(text, name=str(path), param_overrides=param_overrides)
