import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linsing.errors import (
    DomainEvalError,
    ExprSyntaxError,
    ShapeError,
    UndeclaredVariableError,
)
from linsing import cli, expressions
from linsing.expressions import (
    Add,
    Call,
    Compiled,
    Const,
    ExpressionField,
    Mul,
    Sub,
    Var,
    add,
    derivative,
    div,
    evaluate,
    free_variables,
    mul,
    neg,
    parse,
    pow_,
    sub,
    to_text,
    tokenize,
)
from linsing.specfile import loads
from conftest import call, expression_corpus
from oracles import eval_dual, fd_jacobian


# ------------------------------------------------------------------- parsing

def test_precedence_and_associativity():
    env = {"x": 3.0, "y": 2.0}
    assert evaluate(parse("2 + 3*4"), env) == 14.0
    assert evaluate(parse("2*3^2"), env) == 18.0
    # power is right-associative
    assert evaluate(parse("2^3^2"), env) == 512.0
    # + and - associate left
    assert evaluate(parse("10 - 4 - 3"), env) == 3.0
    assert evaluate(parse("8/4/2"), env) == 1.0
    assert evaluate(parse("x*y - y"), env) == 4.0


def test_unary_minus_binds_looser_than_power():
    # -x^2 means -(x^2), not (-x)^2
    assert evaluate(parse("-x^2"), {"x": 3.0}) == -9.0
    assert evaluate(parse("(-x)^2"), {"x": 3.0}) == 9.0
    assert evaluate(parse("--x"), {"x": 5.0}) == 5.0
    # unary plus binds as unary minus and returns its operand: +x is x
    assert evaluate(parse("+x^2"), {"x": 3.0}) == 9.0
    assert evaluate(parse("-+x"), {"x": 5.0}) == -5.0
    assert evaluate(parse("2*+3"), {}) == 6.0
    assert evaluate(parse("x^+2"), {"x": 3.0}) == 9.0
    assert math.copysign(1.0, evaluate(parse("+x"), {"x": -0.0})) == -1.0


def test_function_calls_and_primed_names():
    assert evaluate(parse("sin(0)"), {}) == 0.0
    assert abs(evaluate(parse("exp(log(7))"), {}) - 7.0) < 1e-14
    # identifiers may carry a trailing prime (velocity coordinates)
    e = parse("x' + 1", variables=("x'",))
    assert evaluate(e, {"x'": 2.0}) == 3.0


def test_comments_are_stripped():
    e = parse("1 + x # trailing comment\n + 1", variables=("x",))
    assert evaluate(e, {"x": 0.5}) == 2.5


def test_syntax_error_carries_byte_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x +* y")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse("")
    assert err.value.offset == 0
    with pytest.raises(ExprSyntaxError):
        parse("sin(x")
    with pytest.raises(ExprSyntaxError) as err:
        parse("foo(x)")
    assert err.value.offset == 0


def test_overflowing_number_is_a_syntax_error_at_its_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("2*x + 1e400")
    assert err.value.offset == 6
    assert "out of range" in str(err.value)


def test_constant_folding_never_makes_a_non_finite_constant():
    e = parse("1e308*10*x", ["x"])
    assert isinstance(e, Mul) and isinstance(e.a, Mul)  # 1e308*10 stays unfolded
    field = ExpressionField.scalar(e, ("x",))
    assert field(np.array([1.0])) == math.inf  # compiles: no bare name `inf`
    assert isinstance(parse("1e300*10"), Const)  # finite products still fold


def test_offsets_count_bytes_not_characters():
    # "π" encodes to two bytes; the stray "$" after it sits at byte 4
    with pytest.raises(ExprSyntaxError) as err:
        tokenize("π")
    assert err.value.offset == 0
    with pytest.raises(ExprSyntaxError) as err:
        tokenize("xπ $")
    assert err.value.offset == 1  # the π itself is rejected first
    toks = tokenize("x  y")
    assert [t.offset for t in toks] == [0, 3, 4]


def test_undeclared_variable_rejected_when_variables_given():
    with pytest.raises(UndeclaredVariableError) as err:
        parse("x + q", variables=("x", "y"))
    assert err.value.name == "q"
    assert err.value.offset == 4
    # without a declaration list every identifier is accepted
    assert sorted(free_variables(parse("x + q"))) == ["q", "x"]
    assert free_variables(parse("x + q"), parse("q * y")) == {"q", "x", "y"}


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x + 1 )")
    with pytest.raises(ExprSyntaxError):
        parse("1 2")


@pytest.mark.parametrize("nest", [
    lambda d: "(" * d + "x" + ")" * d,         # parentheses
    lambda d: "sin(" * d + "x" + ")" * d,      # function calls
    lambda d: "-" * d + "x",                   # signs
    lambda d: "^".join(["x"] * (d + 1)),       # exponents, right-associative
])
def test_nesting_beyond_the_bound_is_a_syntax_error(nest):
    depth = expressions._MAX_PARSE_DEPTH
    parse(nest(depth))
    with pytest.raises(ExprSyntaxError, match=f"nested more than {depth} levels deep"):
        parse(nest(depth + 1))


# ------------------------------------------------------------ printing

def test_print_round_trip_handwritten():
    cases = [
        "-x^2",
        "(x + y)*z",
        "x - (y - z)",
        "x/(y*z)",
        "2^x^2",
        "sin(x + 1)^2",
        "-(x + y)/3",
        "x^(y + 1)",
        "abs(x)*sign(y)",
    ]
    for text in cases:
        e = parse(text)
        printed = to_text(e)
        again = parse(printed)
        assert to_text(again) == printed
        # and the two trees agree numerically
        env = {"x": 1.3, "y": 0.7, "z": -0.4}
        assert abs(evaluate(e, env) - evaluate(again, env)) < 1e-14


def test_print_round_trip_random_corpus():
    for e, variables, point in expression_corpus(200, seed=11):
        printed = to_text(e)
        again = parse(printed, variables=variables)
        assert to_text(again) == printed
        v1 = evaluate(e, dict(zip(variables, point)))
        v2 = evaluate(again, dict(zip(variables, point)))
        assert v1 == v2


def test_number_printing():
    assert to_text(Const(2.0)) == "2"
    assert to_text(Const(-2.0)) == "-2"
    assert to_text(Const(0.5)) == "0.5"
    assert to_text(mul(Const(-3.0), Var("x"))) == "-3*x"
    with pytest.raises(ValueError):
        to_text(Const(float("nan")))


@st.composite
def small_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return Const(draw(st.floats(-9, 9, allow_nan=False).map(lambda v: round(v, 2))))
        return Var(draw(st.sampled_from(["x", "y"])))
    kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "call"]))
    a = draw(small_exprs(depth=depth + 1))
    if kind == "neg":
        return neg(a)
    if kind == "call":
        return call(draw(st.sampled_from(["sin", "cos", "exp", "asinh"])), a)
    if kind == "pow":
        return pow_(a, Const(float(draw(st.integers(0, 3)))))
    b = draw(small_exprs(depth=depth + 1))
    return {"add": add, "sub": sub, "mul": mul, "div": div}[kind](a, b)


@settings(max_examples=200, deadline=None)
@given(small_exprs())
def test_print_parse_fixed_point_property(e):
    printed = to_text(e)
    assert to_text(parse(printed)) == printed


# ------------------------------------------------------------ evaluation

def test_domain_faults_name_the_subexpression():
    with pytest.raises(DomainEvalError) as err:
        evaluate(parse("sqrt(x)"), {"x": -1.0})
    assert "sqrt(x)" in str(err.value)
    with pytest.raises(DomainEvalError):
        evaluate(parse("log(0)"), {})
    with pytest.raises(DomainEvalError):
        evaluate(parse("1/(x - x)"), {"x": 4.0})
    with pytest.raises(DomainEvalError):
        evaluate(parse("(-1)^0.5"), {})
    with pytest.raises(DomainEvalError):
        evaluate(parse("exp(x)"), {"x": 1e4})  # overflow


def test_evaluate_missing_binding():
    with pytest.raises(UndeclaredVariableError):
        evaluate(parse("x + y"), {"x": 1.0})


def test_constant_folding_keeps_faulting_constants_unfolded():
    # 1/0 cannot fold to a constant; it must still raise at evaluation time
    e = div(Const(1.0), Const(0.0))
    with pytest.raises(DomainEvalError):
        evaluate(e, {})
    assert to_text(e) == "1/0"
    # ordinary constants do fold
    assert isinstance(add(Const(1.0), Const(2.0)), Const)
    assert mul(Const(0.0), Var("x")).value == 0.0
    assert to_text(pow_(Var("x"), Const(0.0))) == "1"


BUNDLED_SCENARIOS = ["example1", "relparticle-L1", "relparticle-L2", "rosenberg"]


def _bundled_sources(name, patch, capsys):
    """The `_compiled_source` texts that the bundled commands generate on one
    scenario, in the order they are generated."""
    texts = []
    generate = expressions._compiled_source
    patch.setattr(expressions, "_compiled_source",
                  lambda exprs, variables: texts.append(generate(exprs, variables)) or texts[-1])
    for argv in (["analyze", "--scenario", name, "--points", "20"],
                 ["check-symmetry", "--scenario", name, "--points", "20"],
                 ["check-constant", "--scenario", name, "--points", "20"],
                 ["scenario", "--self-test", name]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    return texts


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_folding_on_floats_generates_the_sources_of_folding_by_evaluation(name, monkeypatch,
                                                                           capsys):
    # the folding builders apply the float operation to two constants;
    # folding through the tree walk `evaluate` gives the same nodes, so every
    # command generates the same source text
    def sources(fold):
        folds = [0]

        def counted_fold(*args):
            folds[0] += 1
            return fold(*args)

        with monkeypatch.context() as patch:
            patch.setattr(expressions, "_fold", counted_fold)
            texts = _bundled_sources(name, patch, capsys)
        assert folds[0] > 0 and texts
        return texts

    def by_evaluation(kind, a, b, op):
        node = kind(a, b)
        try:
            value = evaluate(node, {})
        except (DomainEvalError, OverflowError):
            return node
        return Const(value) if math.isfinite(value) else node

    assert sources(expressions._fold) == sources(by_evaluation)


# ------------------------------------------------------------ derivatives

def test_derivative_basic_rules():
    x = 1.3
    d = derivative(parse("sin(x^2)"), "x")
    assert abs(evaluate(d, {"x": x}) - math.cos(x * x) * 2 * x) < 1e-14
    d = derivative(parse("x*exp(x)"), "x")
    assert abs(evaluate(d, {"x": x}) - (1 + x) * math.exp(x)) < 1e-14
    d = derivative(parse("asinh(x)"), "x")
    assert abs(evaluate(d, {"x": x}) - 1 / math.sqrt(x * x + 1)) < 1e-14
    assert evaluate(derivative(parse("y"), "x"), {"y": 7.0}) == 0.0


def test_derivative_abs_and_sign():
    d = derivative(parse("abs(x)"), "x")
    assert evaluate(d, {"x": -3.0}) == -1.0
    assert evaluate(d, {"x": 2.0}) == 1.0
    assert evaluate(derivative(parse("sign(x)"), "x"), {"x": 5.0}) == 0.0


def test_derivative_variable_exponent():
    # d/dx x^x = x^x (log x + 1)
    d = derivative(parse("x^x"), "x")
    x = 1.7
    expect = math.pow(x, x) * (math.log(x) + 1.0)
    assert abs(evaluate(d, {"x": x}) - expect) < 1e-13


def _operands(node):
    """The operands of an expression node, left to right."""
    if isinstance(node, (Const, Var)):
        return ()
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, expressions.Neg):
        return (node.a,)
    if isinstance(node, expressions.Pow):
        return (node.base, node.exponent)
    return (node.a, node.b)


def _recursive_post_order(exprs):
    """The nodes of the DAG of `exprs` as a recursive walk finishes them,
    children left to right: the reference for the walk with its own stack."""
    done, out = set(), []

    def walk(node):
        if id(node) not in done:
            for child in _operands(node):
                walk(child)
            done.add(id(node))
            out.append(node)

    for e in exprs:
        walk(e)
    return out


def _recursive_derivatives(exprs, var):
    """`derivatives` as a recursive walk with one memo."""
    memo = {}

    def d(node):
        if id(node) not in memo:
            memo[id(node)] = expressions._derivative_node(node, var, d)
        return memo[id(node)]

    return [d(e) for e in exprs]


def _graph(exprs):
    """The node graph of `exprs`, shared nodes included, as plain data: per
    node its type, payload and children's positions, then the roots'."""
    nodes = _recursive_post_order(exprs)
    at = {id(node): i for i, node in enumerate(nodes)}
    payload = {Const: lambda n: repr(n.value), Var: lambda n: n.name, Call: lambda n: n.fn}
    return ([(type(n).__name__, payload.get(type(n), lambda n: None)(n),
              [at[id(c)] for c in _operands(n)]) for n in nodes],
            [at[id(e)] for e in exprs])


def _shared_corpus(seed):
    """Lists of corpus expressions with subtrees shared within and between them."""
    for e, variables, _ in expression_corpus(100, seed=seed):
        yield [e, Add(e, e), Mul(e, Call("sin", e)), Const(2.5), Var(variables[0])], variables


def test_the_walk_with_its_own_stack_finishes_nodes_as_a_recursive_walk():
    for exprs, _ in _shared_corpus(37):
        assert list(map(id, expressions._post_order(exprs))) == \
            list(map(id, _recursive_post_order(exprs)))


@pytest.mark.parametrize("name", [None] + BUNDLED_SCENARIOS)
def test_derivatives_build_the_nodes_of_a_recursive_walk(name):
    if name is None:
        cases = list(_shared_corpus(41))
    else:  # every field of a bundled scenario, as one list
        spec = loads(cli.scenario_text(name))
        fields = [spec.system.A, spec.system.f, spec.constraints.phi, spec.forces]
        cases = [([e for fld in fields for e in fld.entries], spec.variables)]
    for exprs, variables in cases:
        for var in variables:
            assert _graph(expressions.derivatives(exprs, var)) == \
                _graph(_recursive_derivatives(exprs, var))


def test_symbolic_derivative_matches_dual_numbers():
    # two independent differentiation routes must agree tightly
    for e, variables, point in expression_corpus(300, seed=23):
        _, grad_dual = eval_dual(e, variables, point)
        env = dict(zip(variables, point))
        for j, name in enumerate(variables):
            g = evaluate(derivative(e, name), env)
            scale = max(1.0, np.max(np.abs(grad_dual)))
            assert abs(g - grad_dual[j]) <= 1e-12 * scale


def test_dual_numbers_match_finite_differences():
    for e, variables, point in expression_corpus(200, seed=5):
        _, grad = eval_dual(e, variables, point)
        field = ExpressionField.scalar(e, variables)
        fd = fd_jacobian(field, point)[0]
        scale = max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(grad - fd)) <= 1e-6 * scale


def test_dual_sqrt_derivative_at_zero_raises():
    with pytest.raises(DomainEvalError):
        eval_dual(parse("sqrt(x)"), ("x",), np.array([0.0]))


# ------------------------------------------------------ expression fields

def test_field_shapes_and_calls():
    f = ExpressionField.vector(["x + y", "x*y"], ("x", "y"))
    out = f(np.array([2.0, 3.0]))
    assert out.shape == (2,)
    assert np.allclose(out, [5.0, 6.0])

    m = ExpressionField.matrix([["1", "x"], ["y", "x*y"]], ("x", "y"))
    out = m(np.array([2.0, 3.0]))
    assert out.shape == (2, 2)
    assert np.allclose(out, [[1, 2], [3, 6]])

    s = ExpressionField.scalar("x^2", ("x",))
    assert s(np.array([3.0])) == 9.0


def test_field_shape_errors():
    with pytest.raises(ShapeError):
        ExpressionField(
            [Const(1.0)], ("x",), (2,)
        )
    with pytest.raises(ShapeError):
        ExpressionField.matrix([["x", "1"], ["y"]], ("x", "y"))
    with pytest.raises(UndeclaredVariableError):
        ExpressionField.vector(["x + z"], ("x", "y"))
    # one walk over all entries finds them; the first entry that has one names it
    with pytest.raises(UndeclaredVariableError) as err:
        ExpressionField.vector([parse("x"), parse("w + z"), parse("a")], ("x", "y"))
    assert err.value.name == "w"
    with pytest.raises(ShapeError):
        ExpressionField.vector(["x"], ("x",)).gradient()
    with pytest.raises(ShapeError):
        ExpressionField.scalar("x", ("x",)).jacobian_field()


def test_field_jacobian_matches_finite_differences():
    f = ExpressionField.vector(
        ["sin(x*y)", "x^2 - z", "exp(z/4) + y"], ("x", "y", "z")
    )
    pt = np.array([0.7, -1.1, 0.4])
    J = f.jacobian_at(pt)
    assert J.shape == (3, 3)
    assert np.max(np.abs(J - fd_jacobian(f, pt))) < 1e-7


def test_field_gradient_and_hessian():
    s = ExpressionField.scalar("x^2*y + sin(y)", ("x", "y"))
    pt = np.array([1.5, 0.3])
    g = s.gradient()(pt)
    assert np.allclose(g, [2 * 1.5 * 0.3, 1.5**2 + math.cos(0.3)])
    H = s.gradient().jacobian_field()(pt)
    assert H.shape == (2, 2)
    assert np.allclose(H, H.T)
    assert abs(H[0, 0] - 2 * 0.3) < 1e-14
    assert abs(H[0, 1] - 2 * 1.5) < 1e-14


def test_field_is_constant():
    f = ExpressionField.vector(["x + y", "y^2"], ("x", "y"))
    c = ExpressionField.matrix([["1", "0"], ["0", "1"]], ("x", "y"))
    assert c.is_constant
    assert not f.is_constant


def test_compiled_evaluation_matches_tree_walk():
    for e, variables, point in expression_corpus(150, seed=77):
        field = ExpressionField.scalar(e, variables)
        fast = field(point)
        slow = evaluate(e, dict(zip(variables, point)))
        assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))


def test_compiled_field_computes_a_shared_subtree_once(monkeypatch):
    calls = []

    def counting_sqrt(u):
        calls.append(u)
        return math.sqrt(u)

    monkeypatch.setitem(expressions.FUNCTIONS, "sqrt", counting_sqrt)
    # four separately parsed copies of one sqrt(...) subtree
    f = ExpressionField.vector(
        ["sqrt(x*x + 1)", "y*sqrt(x*x + 1)", "sqrt(x*x + 1)/y", "sqrt(x*x + 1) + x"],
        ("x", "y"),
    )
    out = f(np.array([2.0, 3.0]))
    assert len(calls) == 1
    r = math.sqrt(5.0)
    assert list(out) == [r, 3.0 * r, r / 3.0, r + 2.0]
    f(np.array([2.0, 3.0]))
    assert len(calls) == 2


def test_compiled_keeps_signed_zero_constants_apart():
    # raw nodes: the folding constructors would turn both products into 0
    run = Compiled(
        [Mul(Var("x"), Const(0.0)), Mul(Var("x"), Const(-0.0))], ("x",)
    ).scalar()
    a, b = run(np.array([1.0]))
    assert math.copysign(1.0, a) == 1.0
    assert math.copysign(1.0, b) == -1.0


def test_compiled_shared_subtrees_match_tree_walk_bit_for_bit():
    for e, variables, point in expression_corpus(150, seed=91):
        # raw nodes, so that `e` is one object shared by all three entries
        exprs = [e, Add(e, e), Mul(e, Call("sin", e))]
        run = Compiled(exprs, variables).scalar()
        env = dict(zip(variables, point))
        try:
            expected = [evaluate(x, env) for x in exprs]
        except DomainEvalError:
            with pytest.raises(DomainEvalError):
                run(point)
            continue
        got = run(point)
        assert [v.hex() for v in got] == [v.hex() for v in expected], to_text(e)


def test_fault_in_a_shared_subtree_names_it():
    s = Call("sqrt", Sub(Var("x"), Const(2.0)))
    f = ExpressionField([Add(s, Var("y")), Mul(s, s), s], ("x", "y"), (3,))
    assert np.array_equal(f(np.array([6.0, 1.0])), [3.0, 4.0, 2.0])
    with pytest.raises(DomainEvalError) as err:
        f(np.array([1.0, 1.0]))
    assert "sqrt(x - 2)" in str(err.value)
    # at an ndarray point a division by zero is a fault, not inf and a warning
    with pytest.raises(DomainEvalError) as err:
        ExpressionField.vector(["1/x"], ("x",))(np.array([0.0]))
    assert "division by zero in subexpression '1/x'" in str(err.value)


@pytest.mark.parametrize("terms", [200, 250, 900])
def test_a_deep_sum_is_held_in_locals_and_keeps_its_bits(terms):
    # a left-deep sum inlined whole nests one parenthesis per term, and
    # CPython's tokenizer refuses a line nested 200 levels deep
    variables = ("x", "y")
    fld = ExpressionField.vector([" + ".join(["x*y"] * terms), "1"], variables)
    point = np.array([0.1, 0.3])
    total = 0.1 * 0.3
    for _ in range(terms - 1):
        total += 0.1 * 0.3
    assert fld(point).tobytes() == np.array([total, 1.0]).tobytes()
    assert fld.rows(np.array([point, point])).tobytes() == np.array([[total, 1.0]] * 2).tobytes()
    depth = worst = 0
    for ch in expressions._compiled_source(fld.entries, variables):
        depth += (ch in "([") - (ch in ")]")
        worst = max(worst, depth)
    assert worst <= expressions._MAX_NESTING + 2  # the list and a variable's index


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_the_nesting_bound_changes_no_bundled_source(name, monkeypatch, capsys):
    with monkeypatch.context() as patch:
        bounded = _bundled_sources(name, patch, capsys)
    with monkeypatch.context() as patch:
        patch.setattr(expressions, "_MAX_NESTING", math.inf)
        unbounded = _bundled_sources(name, patch, capsys)
    assert bounded == unbounded


# ------------------------------------------------------------ vectorised target

def test_vectorised_target_matches_the_scalar_runner_bit_for_bit():
    rng = np.random.default_rng(17)
    for e, variables, point in expression_corpus(150, seed=91):
        # shared subtrees, a constant entry and a bare variable entry
        exprs = [e, Add(e, e), Mul(e, Call("sin", e)), Const(2.5), Var(variables[0])]
        compiled = Compiled(exprs, variables)
        run = compiled.scalar()
        pts = np.vstack([point, rng.uniform(-3.0, 3.0, size=(6, len(variables)))])
        got = compiled.rows(pts)
        assert got.shape == (len(pts), len(exprs))
        for p, row in zip(pts, got):
            assert [v.hex() for v in run(p)] == [float(v).hex() for v in row], to_text(e)


@pytest.mark.parametrize("text", [
    "sqrt(x - 2)",
    "1/x",
    "sign(1/x)",  # numpy alone would give sign(inf) = 1 and hide the fault
    "1/(1/x)",
    "log(x)",
    "exp(1000*x)",
    "(x - 1)^0.5",
])
def test_vectorised_target_raises_the_scalar_fault_of_the_first_faulting_row(text):
    f = ExpressionField.vector([text, "x + y"], ("x", "y"))
    pts = np.array([[3.0, 1.0], [0.0, 2.0], [-1.0, 3.0], [4.0, 0.5]])
    first = None
    for p in pts:
        try:
            f(p)
        except DomainEvalError as exc:
            first = str(exc)
            break
    assert first is not None
    with pytest.raises(DomainEvalError) as err:
        f.rows(pts)
    assert str(err.value) == first


def test_vectorised_target_keeps_legitimate_infinities_and_non_finite_points():
    f = ExpressionField.vector(["1e308*10*x", "sign(x/y)"], ("x", "y"))
    pts = np.array([[1.0, 1.0], [0.0, 2.0], [-1.0, 3.0], [math.inf, 1.0]])
    want = np.array([f(p) for p in pts])
    assert np.isinf(want[0, 0]) and np.isnan(want[1, 0])
    np.testing.assert_array_equal(f.rows(pts), want)
    # the scalar runner raises at inf/0, where numpy would return inf silently
    with pytest.raises(DomainEvalError):
        f.rows(np.array([[1.0, 1.0], [math.inf, 0.0]]))


def test_field_rows_have_the_field_shape_and_one_row_takes_the_scalar_runner():
    v = ("x", "y")
    fields = [ExpressionField.scalar("x*y", v), ExpressionField.vector(["x", "sin(y)"], v),
              ExpressionField.matrix([["x", "1"], ["y^3", "x/2"]], v)]
    pts = np.array([[0.5, -1.25], [2.0, 3.0], [-0.75, 0.1]])
    for f in fields:
        got = f.rows(pts)
        assert got.shape == (3,) + f.shape
        for p, row in zip(pts, got):
            assert np.array_equal(row, f(p))
        assert f.rows(pts[:1]).shape == (1,) + f.shape
        assert f.rows(pts[:0]).shape == (0,) + f.shape
