import ast
import types
from pathlib import Path

import linsing


def test_public_names_resolve_and_are_not_modules():
    assert len(linsing.__all__) == len(set(linsing.__all__))
    for name in linsing.__all__:
        value = getattr(linsing, name)
        assert not isinstance(value, types.ModuleType), name
    for name in ("DEFAULT_TOLERANCES", "NonFiniteError", "integrate", "solve_affine"):
        assert name in linsing.__all__
    assert "errors" not in linsing.__all__ and "__version__" not in linsing.__all__


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
    # the paper's quotient maps, which acceptance criteria 6 and 7 check
    "subspace_classify", "induced_quotient_matrix", "reduced_solve",
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
    # a public function or method that no module of the package names, as a
    # name or an attribute outside its own definitions, serves only tests: it
    # belongs in tests/ or nowhere
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
    uncalled = sorted(qual for qual, name in defined if not name.startswith("_")
                      and name not in named and qual not in UNCALLED_PUBLIC_NAMES)
    assert uncalled == []
