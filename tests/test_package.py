import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import linsing
from linsing import cli


def test_public_names_resolve_and_are_not_modules():
    assert len(linsing.__all__) == len(set(linsing.__all__))
    for name in linsing.__all__:
        value = getattr(linsing, name)
        assert not isinstance(value, types.ModuleType), name
    for name in ("DEFAULT_TOLERANCES", "NonFiniteError", "integrate", "solve_affine"):
        assert name in linsing.__all__
    assert "errors" not in linsing.__all__ and "__version__" not in linsing.__all__


def test_cli_import_builds_no_dataclass_and_nodes_have_no_dict():
    # start-up is most of a short CLI run: the records and expression nodes are
    # plain classes, so `dataclasses` never loads and no class body execs
    # generated code; nodes keep their fields in slots
    env = dict(os.environ, PYTHONPATH=str(Path(linsing.__file__).parents[1]))
    code = ("import linsing.cli, sys\n"
            "from linsing import expressions as ex\n"
            "assert 'dataclasses' not in sys.modules\n"
            "e = ex.parse('-(x + 1)*y/z - sqrt(x)^y')\n"
            "nodes = [e, e.a, e.b, e.a.a, e.a.a.a, e.a.a.a.a, e.a.a.a.a.b, e.a.b, e.b.base,"
            " ex.Token('OP', '+', 0)]\n"
            "kinds = ['Sub', 'Div', 'Pow', 'Mul', 'Neg', 'Add', 'Const', 'Var', 'Call', 'Token']\n"
            "assert [type(n).__name__ for n in nodes] == kinds, nodes\n"
            "assert not [n for n in nodes if hasattr(n, '__dict__')]\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(Path(linsing.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("linsing"):
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert offenders == []


# the private attributes a module reads off another object today: the float
# error context, and the scalar solve and its packaging into a solution set,
# that the Schur route shares with linalg, and the compiled constraints that
# the projection's early return runs
PRIVATE_READS = {"linalg._float_errors", "linalg._scalar_solve", "linalg._scalar_solution",
                 "self.phi._compiled"}


def test_no_module_reads_a_private_attribute_of_another_object():
    # x._name is another object's internals, unless x is self or cls: what a
    # caller needs is a public attribute of its own
    offenders = []
    for path in sorted(Path(linsing.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute) and node.attr.startswith("_")):
                continue
            owner = ast.unparse(node.value)
            read = f"{owner}.{node.attr}"
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            if not (dunder or owner in ("self", "cls") or read in PRIVATE_READS):
                offenders.append(f"{path.name}:{node.lineno}: {read}")
    assert offenders == []


def test_every_rank_cut_off_comes_from_the_tolerance_policy():
    # numpy's lstsq, pinv and matrix_rank each pick their own singular-value
    # cut-off; linsing's ranks are decided by `Tolerances.rank_tol` alone
    offenders = []
    for path in sorted(Path(linsing.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.alias):
                names.add(node.name)
            offenders += [f"{path.name}:{getattr(node, 'lineno', '?')}: {n}"
                          for n in sorted(names & {"lstsq", "pinv", "matrix_rank"})]
    assert offenders == []


# public names kept although no package module calls them
UNCALLED_PUBLIC_NAMES = {
    # the derivative-array constraint algorithm, a library entry point
    "constraint_algorithm_sample",
    # the single-point analysis the README shows
    "PointDynamics.analysis",
}


def _names_outside_their_definitions(tree):
    """The names and attributes of a module, each counted only where it
    appears outside every function or method of that name: a definition that
    names itself, or a method that calls the function it shares a name with,
    is not a caller."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", None) or node.attr
            if name not in enclosing:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_every_public_function_is_called_from_the_package():
    # a function or method that no module of the package names, as a name or
    # an attribute outside its own definitions, serves only tests: it belongs
    # in tests/ or nowhere. Private helpers are held to it too, so a refactor
    # cannot leave a dead one behind; dunders are called by Python itself
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(linsing.__file__).parent.glob("*.py"))}
    defined = []
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{f.name}", f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)]
    named = set()
    for file, tree in trees.items():
        if file != "__init__.py":
            named |= _names_outside_their_definitions(tree)
    uncalled = sorted(qual for qual, name in defined
                      if not (name.startswith("__") and name.endswith("__"))
                      and name not in named and qual not in UNCALLED_PUBLIC_NAMES)
    assert uncalled == []


# the functions of the package that call themselves, each with what bounds
# the depth of its recursion
SELF_CALLING = {
    # one call per level of a factor's nesting, refused past _MAX_PARSE_DEPTH
    "expressions._Parser.parse_factor",
    # one call per level of a report's nesting: the package's reports nest a
    # few dictionaries and lists deep
    "report._render_into",
    "report._format_value",
}


def _self_calling(module, tree):
    """The qualified names of the functions and methods of a module tree that
    call themselves: a function by its name, a method through self or cls."""
    found = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}", True)
            elif isinstance(child, ast.FunctionDef):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if (not in_class and isinstance(func, ast.Name) and func.id == child.name
                            or in_class and isinstance(func, ast.Attribute)
                            and func.attr == child.name and isinstance(func.value, ast.Name)
                            and func.value.id in ("self", "cls")):
                        found.append(f"{scope}.{child.name}")
                        break
                visit(child, f"{scope}.{child.name}", False)
            else:
                visit(child, scope, in_class)

    visit(tree, module, False)
    return found


def test_no_function_of_the_package_calls_itself_unbounded():
    # a recursive walk of an expression fails with RecursionError on a long
    # sum; every walk of the DAG goes through `expressions._post_order`
    found = []
    for path in sorted(Path(linsing.__file__).parent.glob("*.py")):
        found += _self_calling(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(found) - SELF_CALLING) == []
    assert SELF_CALLING <= set(found)  # an entry that no longer recurses leaves the list


def test_every_error_class_is_raised_by_the_package():
    # an error class that no module outside errors.py constructs is dead: the
    # caller that catches it waits for an error the package never raises
    package = Path(linsing.__file__).parent
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    built = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "errors.py":
            built |= {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Call)}
    assert sorted(classes - built - {"LinsingError"}) == []


def test_the_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's "Library use" block, run as written on example1's file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "model.lss").write_text(cli.scenario_text("example1"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["cls"].regular and scope["P"].shape == (2, 2)
    assert np.allclose(scope["P"] @ scope["pa"].y, scope["X"], rtol=0.0, atol=1e-15)


def test_every_method_the_benchmark_traces_exists():
    # bench/spans.py wraps these methods by name and records nothing for a
    # missing one, so a renamed hot path would read as zero field evaluations
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.METHODS
    missing = [f"{module}.{cls}.{method}" for module, cls, method in spans.METHODS
               if method not in vars(getattr(importlib.import_module(module), cls))]
    assert missing == []
