"""Small expression language: parsing, exact symbolic differentiation, fast evaluation.

The grammar is deliberately tiny (arithmetic, powers, eight named functions) but the
identifiers allow trailing apostrophes so velocity coordinates can be written x', y'.
Differentiation is closed over the node set; `abs` differentiates to `sign`, which is
defined to be 0 at 0.

Expressions are DAGs: derivatives share nodes with their source. `derivative` and
`free_variables` visit each shared node once per call, and `Compiled` computes
each structurally equal subtree once per evaluation, with bit-identical arithmetic,
at one point or over a batch of points. These walks keep their own stacks, so a
sum of any length is differentiated and compiled; the parser, which recurses,
refuses nesting deeper than `_MAX_PARSE_DEPTH`.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import (
    DomainEvalError,
    ExprSyntaxError,
    ShapeError,
    UndeclaredVariableError,
)


# --------------------------------------------------------------------------- AST

class Expr:
    """Base class for expression nodes. Nodes are immutable by contract (no
    code assigns a field after construction) and are compared and hashed by
    identity; structurally equal subtrees are found by value numbering
    (`_compiled_source`), not by `==`."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class _Binary(Expr):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent


class Neg(Expr):
    __slots__ = ("a",)

    def __init__(self, a):
        self.a = a


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn, arg):
        self.fn = fn
        self.arg = arg


def _sign(x):
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


# `sign` is not part of the public grammar but is needed so that abs has a
# derivative inside the language; the parser accepts it as a harmless superset.
FUNCTIONS = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "asinh": math.asinh,
    "abs": abs,
    "sign": _sign,
}


# ------------------------------------------------------ folding constructors

def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def _fold(kind, a, b, op):
    """The node kind(a, b) of two constants folded to a constant by its float
    operation `op`; the node is kept where the operation faults (a division
    by zero, a power outside its domain) or overflows: a constant is always
    finite."""
    try:
        value = op(a.value, b.value)
    except (ArithmeticError, ValueError):
        return kind(a, b)
    return Const(value) if math.isfinite(value) else kind(a, b)


def add(a, b):
    if _is_const(a) and _is_const(b):
        return _fold(Add, a, b, operator.add)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return _fold(Sub, a, b, operator.sub)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return _fold(Mul, a, b, operator.mul)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a, b):
    if _is_const(a) and _is_const(b):
        return _fold(Div, a, b, operator.truediv)
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def pow_(a, b):
    if _is_const(a) and _is_const(b):
        return _fold(Pow, a, b, math.pow)
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Const(1.0)
    return Pow(a, b)


def neg(a):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


# ----------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<NUM>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<OP>[-+*/^()])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind, text, offset):
        self.kind = kind  # NUM | IDENT | OP | EOF
        self.text = text
        self.offset = offset  # byte offset into the original text


def tokenize(text):
    tokens = []
    i = 0
    boff = 0  # running byte offset
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                boff += len(text[i].encode("utf-8"))
                i += 1
            continue
        if ch.isspace():
            boff += len(ch.encode("utf-8"))
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character '{ch}'", boff)
        kind = m.lastgroup
        tok_text = m.group()
        tokens.append(Token(kind, tok_text, boff))
        boff += len(tok_text.encode("utf-8"))
        i = m.end()
    tokens.append(Token("EOF", "", boff))
    return tokens


# -------------------------------------------------------------------- parser

# the deepest a factor may sit inside parentheses, function calls, unary
# signs and exponents: each level costs the recursive parser up to four frames
_MAX_PARSE_DEPTH = 200


class _Parser:
    def __init__(self, tokens, variables, params):
        self.tokens = tokens
        self.pos = 0
        self.depth = -1  # of the factor being parsed: 0 at the top level
        self.variables = set(variables) if variables is not None else None
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExprSyntaxError(f"expected '{op}'", tok.offset)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def parse_factor(self):
        tok = self.peek()
        self.depth += 1
        if self.depth > _MAX_PARSE_DEPTH:
            raise ExprSyntaxError(f"expression is nested more than {_MAX_PARSE_DEPTH} levels deep",
                                  tok.offset)
        if tok.kind == "OP" and tok.text in ("-", "+"):  # +x is x, -0.0 included
            self.advance()
            operand = self.parse_factor()
            node = neg(operand) if tok.text == "-" else operand
        else:
            node = self.parse_base()
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "^":
                self.advance()
                node = pow_(node, self.parse_factor())
        self.depth -= 1
        return node

    def parse_base(self):
        tok = self.advance()
        if tok.kind == "NUM":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text} is out of range", tok.offset)
            return Const(value)
        if tok.kind == "IDENT":
            if tok.text in self.params:
                return self.params[tok.text]
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function '{tok.text}'", tok.offset)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if self.variables is not None and tok.text not in self.variables:
                raise UndeclaredVariableError(tok.text, tok.offset)
            return Var(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"unexpected {'end of input' if tok.kind == 'EOF' else repr(tok.text)}",
            tok.offset,
        )


def parse(text, variables=None, params=None):
    """Parse `text` into an Expr.

    Parameters
    ----------
    text : str
        Expression source; `#` starts a comment that runs to end of line.
    variables : sequence of str, optional
        Declared variable names. When given, any other identifier raises
        UndeclaredVariableError. When omitted, all identifiers are accepted.
    params : mapping of str to Expr, optional
        An identifier that is `in` it stands for its node (``params[name]``),
        as if the node's text were written there in parentheses.
    """
    parser = _Parser(tokenize(text), variables, {} if params is None else params)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.offset)
    return node


# ------------------------------------------------------------ pretty-printer

# precedence levels: +,- : 1   *,/ : 2   unary- : 3   ^ : 4   atoms : 5

def _fmt_number(v):
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"cannot print non-finite constant {v}")
    if v < 0:
        return "-" + _fmt_number(-v)
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def _print(e, level):
    if isinstance(e, Const):
        s = _fmt_number(e.value)
        return f"({s})" if (s.startswith("-") and level > 3) else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = f"{_print(e.a, 1)} + {_print(e.b, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(e, Sub):
        s = f"{_print(e.a, 1)} - {_print(e.b, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(e, Mul):
        s = f"{_print(e.a, 2)}*{_print(e.b, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(e, Div):
        s = f"{_print(e.a, 2)}/{_print(e.b, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(e, Neg):
        s = f"-{_print(e.a, 3)}"
        return f"({s})" if level > 3 else s
    if isinstance(e, Pow):
        s = f"{_print(e.base, 5)}^{_print(e.exponent, 3)}"
        return f"({s})" if level > 4 else s
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg, 0)})"
    raise TypeError(f"not an expression node: {e!r}")


def to_text(e):
    """Render an Expr to canonical text; parse(to_text(e)) prints identically."""
    return _print(e, 0)


# -------------------------------------------------------------- tree evaluate

def evaluate(e, env):
    """Evaluate with a name -> value binding; raises DomainEvalError on faults."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UndeclaredVariableError(e.name) from None
    if isinstance(e, Add):
        return evaluate(e.a, env) + evaluate(e.b, env)
    if isinstance(e, Sub):
        return evaluate(e.a, env) - evaluate(e.b, env)
    if isinstance(e, Mul):
        return evaluate(e.a, env) * evaluate(e.b, env)
    if isinstance(e, Div):
        num = evaluate(e.a, env)
        den = evaluate(e.b, env)
        if den == 0.0:
            raise DomainEvalError("division by zero", to_text(e))
        return num / den
    if isinstance(e, Neg):
        return -evaluate(e.a, env)
    if isinstance(e, Pow):
        b = evaluate(e.base, env)
        x = evaluate(e.exponent, env)
        try:
            return math.pow(b, x)
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(f"invalid power ({exc})", to_text(e)) from None
    if isinstance(e, Call):
        u = evaluate(e.arg, env)
        if e.fn == "sqrt" and u < 0.0:
            raise DomainEvalError("sqrt of a negative number", to_text(e))
        if e.fn == "log" and u <= 0.0:
            raise DomainEvalError("log of a non-positive number", to_text(e))
        try:
            return FUNCTIONS[e.fn](u)
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(f"{e.fn} domain fault ({exc})", to_text(e)) from None
    raise TypeError(f"not an expression node: {e!r}")


# ------------------------------------------------------ symbolic derivative

def derivative(e, var):
    """Exact partial derivative with respect to the variable named `var`.

    `e` is walked as a DAG: a node shared by several parents is differentiated
    once per call, and its derivative is shared the same way.
    """
    return derivatives([e], var)[0]


def derivatives(exprs, var):
    """`derivative` of each expression with respect to `var`, with one memo for
    them all: a subtree shared between the expressions (the entries of a field)
    is differentiated once."""
    return derivative_columns(exprs, [var])[0]


def derivative_columns(exprs, variables):
    """`derivatives` of the expressions with respect to each of `variables` in
    turn, one list per variable, from one walk of their DAG."""
    order = _post_order(exprs)  # children first, so each node finds theirs
    columns = []
    for var in variables:
        memo = {}  # node -> derivative; nodes hash by identity
        d = memo.__getitem__
        for node in order:
            memo[node] = _derivative_node(node, var, d)
        columns.append([memo[e] for e in exprs])
    return columns


def _derivative_node(e, var, d):
    """Derivative of one node; `d` gives the derivatives of its children."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Add):
        return add(d(e.a), d(e.b))
    if isinstance(e, Sub):
        return sub(d(e.a), d(e.b))
    if isinstance(e, Mul):
        return add(mul(d(e.a), e.b), mul(e.a, d(e.b)))
    if isinstance(e, Div):
        return div(
            sub(mul(d(e.a), e.b), mul(e.a, d(e.b))),
            mul(e.b, e.b),
        )
    if isinstance(e, Neg):
        return neg(d(e.a))
    if isinstance(e, Pow):
        du = d(e.base)
        dw = d(e.exponent)
        if isinstance(e.exponent, Const):
            c = e.exponent.value
            return mul(mul(Const(c), pow_(e.base, Const(c - 1.0))), du)
        # u^w = exp(w log u):  d = u^w (dw log u + w du / u)
        return mul(
            pow_(e.base, e.exponent),
            add(mul(dw, Call("log", e.base)), div(mul(e.exponent, du), e.base)),
        )
    if isinstance(e, Call):
        u = e.arg
        du = d(u)
        if e.fn == "sqrt":
            return div(du, mul(Const(2.0), Call("sqrt", u)))
        if e.fn == "sin":
            return mul(Call("cos", u), du)
        if e.fn == "cos":
            return neg(mul(Call("sin", u), du))
        if e.fn == "tan":
            return div(du, pow_(Call("cos", u), Const(2.0)))
        if e.fn == "exp":
            return mul(Call("exp", u), du)
        if e.fn == "log":
            return div(du, u)
        if e.fn == "asinh":
            return div(du, Call("sqrt", add(mul(u, u), Const(1.0))))
        if e.fn == "abs":
            return mul(Call("sign", u), du)
        if e.fn == "sign":
            return Const(0.0)
    raise TypeError(f"not an expression node: {e!r}")


# the operands, left to right, of the inner nodes that are not binary
_OPERANDS = {Neg: lambda node: (node.a,), Pow: lambda node: (node.base, node.exponent),
             Call: lambda node: (node.arg,)}
_FINISH = object()  # on `_post_order`'s stack, above a node whose operands are done


def _post_order(exprs):
    """Each node of the DAG of `exprs` once, children before parents, as a
    list: the order in which a recursive walk of the expressions in turn, each
    node's operands left to right, would finish them. The walk keeps its own
    stack, so an expression of any depth is walked."""
    done, order = set(), []  # the finished nodes, which hash by identity
    stack = list(reversed(exprs))
    while stack:
        node = stack.pop()
        if node is _FINISH:
            node = stack.pop()
        elif node in done:
            continue
        elif isinstance(node, _Binary):  # most nodes; finished operands are not pushed
            stack += (node, _FINISH)
            if node.b not in done:
                stack.append(node.b)
            if node.a not in done:
                stack.append(node.a)
            continue
        elif not isinstance(node, (Const, Var)):
            operands = _OPERANDS.get(type(node))
            if operands is None:
                raise TypeError(f"not an expression node: {node!r}")
            stack += (node, _FINISH)
            stack += operands(node)[::-1]
            continue
        done.add(node)
        order.append(node)
    return order


def free_variables(*exprs):
    """Set of variable names in the expressions, one DAG (each shared node visited once)."""
    out = set()
    seen = set()  # ids of visited nodes, all kept alive by `exprs`
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack.append(node.a)
            stack.append(node.b)
        elif isinstance(node, Neg):
            stack.append(node.a)
        elif isinstance(node, Pow):
            stack.append(node.base)
            stack.append(node.exponent)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return out


# ------------------------------------------------------------------- codegen

_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}

# the deepest parenthesis nesting an inlined value may reach before it is held
# in a local: CPython's tokenizer refuses a line nested 200 levels deep
_MAX_NESTING = 100


def _compiled_source(exprs, variables):
    """Source of `def _compiled(_x)`, returning the list of the expressions' values.

    The expressions are numbered as one DAG: structurally equal subtrees get one
    value number, and a non-leaf one used more than once is computed once per
    call into a local, as is one whose text would nest more than _MAX_NESTING
    parentheses deep. `_x[i]` is the value of variable i; the operators and the
    `_fn_*` and `_pow` names are bound by the namespace the source runs in.
    """
    idx = {name: i for i, name in enumerate(variables)}
    number_of = {}  # node -> value number; nodes hash by identity
    number_by_key = {}  # (type, payload, child numbers) -> value number
    texts = []  # value number -> source text, or the `_tN` local holding it
    depths = []  # value number -> parenthesis nesting of its text
    uses = []  # value number -> references from parents and top-level entries
    lines = []

    for node in _post_order(exprs):
        kind = type(node)
        if kind is Const:
            # repr, not the float: 0.0 == -0.0 and they hash equal
            key = (Const, repr(node.value), ())
        elif kind is Var:
            key = (Var, node.name, ())
        elif kind is Call:
            key = (Call, node.fn, (number_of[node.arg],))
        elif kind is Neg:
            key = (Neg, None, (number_of[node.a],))
        elif kind is Pow:
            key = (Pow, None, (number_of[node.base], number_of[node.exponent]))
        else:
            key = (kind, None, (number_of[node.a], number_of[node.b]))
        k = number_by_key.get(key)
        if k is None:
            k = number_by_key[key] = len(uses)
            uses.append(0)
            for child in key[2]:
                uses[child] += 1
        number_of[node] = k

    roots = [number_of[e] for e in exprs]
    for k in roots:
        uses[k] += 1
    # numbers are allocated in post-order, so each local precedes its first use
    for k, (kind, payload, kids) in enumerate(number_by_key):
        args = [texts[c] for c in kids]
        if kind is Const:
            text = payload
        elif kind is Var:
            text = f"_x[{idx[payload]}]"
        elif kind is Call:
            text = f"_fn_{payload}({args[0]})"
        elif kind is Neg:
            text = f"(-{args[0]})"
        elif kind is Pow:
            text = f"_pow({args[0]}, {args[1]})"
        else:
            text = f"({args[0]} {_BINARY_OPS[kind]} {args[1]})"
        depth = 1 + max((depths[c] for c in kids), default=-1)  # a leaf nests 0
        if kids and (uses[k] > 1 or depth > _MAX_NESTING):
            lines.append(f"    _t{k} = {text}\n")
            text, depth = f"_t{k}", 0
        texts.append(text)
        depths.append(depth)
    body = ", ".join(texts[k] for k in roots)
    return "def _compiled(_x):\n" + "".join(lines) + f"    return [{body}]\n"


def _define(src, namespace):
    exec(src, namespace)  # noqa: S102 - source is generated from our own AST
    return namespace["_compiled"]


def _scalar_target(exprs, variables, src):
    """A fast callable, seq -> list[float], of `exprs` from their generated
    source `src`. Every operation stays the same IEEE operation on the same
    operands, so results are bit-identical to computing each tree in full. On
    any arithmetic fault the slow tree evaluator re-runs to produce a precise
    DomainEvalError naming the subexpression."""
    ns = {"_pow": math.pow}
    for fname, impl in FUNCTIONS.items():
        ns[f"_fn_{fname}"] = impl
    fast = _define(src, ns)
    names = list(variables)

    def runner(point):
        if isinstance(point, np.ndarray):
            # Python floats: x/0 raises ZeroDivisionError where numpy scalars
            # would return inf with a RuntimeWarning
            point = point.tolist()
        try:
            return fast(point)
        except (ValueError, ZeroDivisionError, OverflowError):
            # the tree walk re-runs the fault and raises DomainEvalError naming it
            env = dict(zip(names, point))
            return [evaluate(e, env) for e in exprs]

    return runner


def _over_column(fn):
    """`fn` applied to each value of a column (or to a single float), through
    the same Python function the scalar runner calls."""

    def mapped(*args):
        if not any(isinstance(a, np.ndarray) for a in args):
            return fn(*args)
        cols = np.broadcast_arrays(*args)
        return np.fromiter(map(fn, *(c.tolist() for c in cols)), float, cols[0].size)

    return mapped


def _row_namespace():
    # numpy ufuncs only where they are the same IEEE operation as the scalar
    # runner's: the arithmetic operators, negation, sqrt and abs
    ns = {f"_fn_{fname}": _over_column(impl) for fname, impl in FUNCTIONS.items()}
    ns.update(_pow=_over_column(math.pow), _fn_sqrt=np.sqrt, _fn_abs=np.abs)
    return ns


def _row_target(src, scalar):
    """The vectorised target of the generated source `src`: an (N, n) array of
    points -> an (N, m) array whose row i is bit for bit the scalar runner's
    values at points[i]; `scalar()` returns that runner.

    The source runs once over columns of values. Where the scalar runner
    raises (a division by zero, an overflow, a domain fault), numpy would go on
    with an inf or a NaN that a later operation can hide, so any floating-point
    exception in the vectorised run sends every row through the scalar runner,
    in row order: a DomainEvalError names the subexpression as before. Rows
    whose point or value is not finite also take the scalar runner."""
    fast = _define(src, _row_namespace())

    def rows(points):
        points = np.asarray(points, dtype=float)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                values = fast(np.ascontiguousarray(points.T))
        except (ValueError, ArithmeticError):
            run = scalar()
            return np.array([run(p) for p in points], dtype=float).reshape(len(points), -1)
        out = np.empty((len(points), len(values)))
        for j, v in enumerate(values):
            out[:, j] = v
        redo = ~(np.isfinite(points).all(axis=1) & np.isfinite(out).all(axis=1))
        for i in np.flatnonzero(redo):
            out[i] = scalar()(points[i])
        return out

    return rows


class Compiled:
    """The scalar runner and the vectorised target of one list of expressions.

    The source is generated once, and each target is compiled from it on first
    use: a list evaluated only over batches never compiles its scalar runner
    unless a fault sends a row through it.
    """

    def __init__(self, exprs, variables):
        self.exprs, self.variables = list(exprs), tuple(variables)
        self._src = self._scalar = self._rows = None

    def scalar(self):
        """The scalar runner: a point -> the list of values (see `_scalar_target`)."""
        if self._scalar is None:
            self._scalar = _scalar_target(self.exprs, self.variables, self._source())
        return self._scalar

    def rows(self, points):
        """(N, len(exprs)) values at the rows of an (N, n) array of points, row i
        bit for bit `scalar()(points[i])` (see `_row_target`). A batch of one
        row takes the scalar runner, and compiles no vectorised target."""
        points = np.asarray(points, dtype=float)
        if len(points) == 1:
            return np.array(self.scalar()(points[0]), dtype=float)[None]
        if self._rows is None:
            self._rows = _row_target(self._source(), self.scalar)
        return self._rows(points).reshape(len(points), len(self.exprs))

    def _source(self):
        if self._src is None:
            self._src = _compiled_source(self.exprs, self.variables)
        return self._src


# ---------------------------------------------------------- expression fields

class ExpressionField:
    """A scalar, vector or matrix of expressions over a fixed variable tuple.

    Calling the field evaluates it at a point (1-d array-like ordered like
    `variables`) and returns a float / 1-d / 2-d ndarray.
    """

    def __init__(self, entries, variables, shape):
        self.variables = tuple(variables)
        self.entries = tuple(entries)  # flat, row-major
        self.shape = tuple(shape)
        expected = int(np.prod(self.shape)) if self.shape else 1
        if len(self.entries) != expected:
            raise ShapeError(
                f"{len(self.entries)} entries for shape {self.shape}"
            )
        extra = free_variables(*self.entries) - set(self.variables)
        if extra:  # the first entry that has one names it
            first = next(e for e in self.entries if free_variables(e) & extra)
            raise UndeclaredVariableError(sorted(free_variables(first) & extra)[0])
        self._compiled = Compiled(self.entries, self.variables)
        self._jac = None
        self._grad = None

    # -- constructors -------------------------------------------------------
    @staticmethod
    def scalar(expr, variables):
        expr = parse(expr, variables) if isinstance(expr, str) else expr
        return ExpressionField([expr], variables, ())

    @staticmethod
    def vector(exprs, variables):
        exprs = [parse(e, variables) if isinstance(e, str) else e for e in exprs]
        return ExpressionField(exprs, variables, (len(exprs),))

    @staticmethod
    def matrix(rows, variables):
        flat = []
        ncols = None
        for row in rows:
            row = [parse(e, variables) if isinstance(e, str) else e for e in row]
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ShapeError("ragged matrix rows")
            flat.extend(row)
        return ExpressionField(flat, variables, (len(rows), ncols))

    # -- evaluation ----------------------------------------------------------
    @property
    def is_constant(self):
        return all(isinstance(e, Const) for e in self.entries)

    def __call__(self, point):
        vals = self._compiled.scalar()(point)
        if self.shape == ():
            return vals[0]
        out = np.array(vals, dtype=float)
        return out.reshape(self.shape) if len(self.shape) == 2 else out

    def rows(self, points):
        """Values at each row of an (N, n) array of points, as an (N, *shape)
        array; row i is bit for bit the field at points[i] (see `Compiled.rows`).
        A batch of one row takes the scalar runner."""
        points = np.asarray(points, dtype=float)
        return self._compiled.rows(points).reshape((len(points),) + self.shape)

    # -- calculus ------------------------------------------------------------
    def gradient(self):
        if self.shape != ():
            raise ShapeError("gradient needs a scalar field")
        if self._grad is None:
            self._grad = ExpressionField.vector(
                [col[0] for col in derivative_columns(self.entries, self.variables)],
                self.variables,
            )
        return self._grad

    def jacobian_field(self):
        if len(self.shape) != 1:
            raise ShapeError("jacobian needs a vector field")
        if self._jac is None:
            columns = derivative_columns(self.entries, self.variables)
            self._jac = ExpressionField.matrix(list(zip(*columns)), self.variables)
        return self._jac

    def jacobian_at(self, point):
        return self.jacobian_field()(point)

    def pretty(self):
        if self.shape == ():
            return to_text(self.entries[0])
        if len(self.shape) == 1:
            return "[" + ", ".join(to_text(e) for e in self.entries) + "]"
        r, c = self.shape
        rows = []
        for i in range(r):
            rows.append(", ".join(to_text(e) for e in self.entries[i * c : (i + 1) * c]))
        return "[" + "; ".join(rows) + "]"

