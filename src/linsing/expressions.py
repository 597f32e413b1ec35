"""Small expression language: parsing, exact symbolic differentiation, fast evaluation.

The grammar is deliberately tiny (arithmetic, powers, eight named functions) but the
identifiers allow trailing apostrophes so velocity coordinates can be written x', y'.
Differentiation is closed over the node set; `abs` differentiates to `sign`, which is
defined to be 0 at 0.

Expressions are DAGs: derivatives share nodes with their source. `derivative` and
`free_variables` visit each shared node once per call, and `compile_exprs` computes
each structurally equal subtree once per evaluation, with bit-identical arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainEvalError,
    ExprSyntaxError,
    ShapeError,
    UndeclaredVariableError,
)


# --------------------------------------------------------------------------- AST

class Expr:
    """Base class for expression nodes. Nodes are immutable and hashable."""

    __slots__ = ()

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


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


def _try_fold(node):
    """Fold a node whose children are all constants; keep it if evaluation faults
    or overflows (a constant is always finite)."""
    try:
        value = evaluate(node, {})
    except (DomainEvalError, OverflowError):
        return node
    return Const(value) if math.isfinite(value) else node


def add(a, b):
    if _is_const(a) and _is_const(b):
        return _try_fold(Add(a, b))
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a, b):
    if _is_const(a) and _is_const(b):
        return _try_fold(Sub(a, b))
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    return Sub(a, b)


def mul(a, b):
    if _is_const(a) and _is_const(b):
        return _try_fold(Mul(a, b))
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a, b):
    if _is_const(a) and _is_const(b):
        return _try_fold(Div(a, b))
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


def pow_(a, b):
    if _is_const(a) and _is_const(b):
        return _try_fold(Pow(a, b))
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


def call(fn, arg):
    if fn not in FUNCTIONS:
        raise ValueError(f"unknown function '{fn}'")
    if _is_const(arg):
        return _try_fold(Call(fn, arg))
    return Call(fn, arg)


# ----------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<NUM>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<OP>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # NUM | IDENT | OP | EOF
    text: str
    offset: int  # byte offset into the original text


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

class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = set(variables) if variables is not None else None

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
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return neg(self.parse_factor())
        base = self.parse_base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            return pow_(base, self.parse_factor())
        return base

    def parse_base(self):
        tok = self.advance()
        if tok.kind == "NUM":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text} is out of range", tok.offset)
            return Const(value)
        if tok.kind == "IDENT":
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


def parse(text, variables=None):
    """Parse `text` into an Expr.

    Parameters
    ----------
    text : str
        Expression source; `#` starts a comment that runs to end of line.
    variables : sequence of str, optional
        Declared variable names. When given, any other identifier raises
        UndeclaredVariableError. When omitted, all identifiers are accepted.
    """
    parser = _Parser(tokenize(text), variables)
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
    memo = {}  # id(node) -> derivative; every key is a node kept alive by `e`

    def d(node):
        out = memo.get(id(node))
        if out is None:
            out = memo[id(node)] = _derivative_node(node, var, d)
        return out

    return d(e)


def _derivative_node(e, var, d):
    """Derivative of one node; `d` differentiates its children."""
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


def free_variables(e):
    """Set of variable names appearing in the expression (each shared node visited once)."""
    out = set()
    seen = set()  # ids of visited nodes, all kept alive by `e`
    stack = [e]
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


def substitute(e, mapping):
    """Replace variables by expressions (or numbers); rebuilds with folding."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        repl = mapping.get(e.name)
        if repl is None:
            return e
        return Const(float(repl)) if isinstance(repl, (int, float)) else repl
    if isinstance(e, Add):
        return add(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Sub):
        return sub(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Mul):
        return mul(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Div):
        return div(substitute(e.a, mapping), substitute(e.b, mapping))
    if isinstance(e, Neg):
        return neg(substitute(e.a, mapping))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, mapping), substitute(e.exponent, mapping))
    if isinstance(e, Call):
        return call(e.fn, substitute(e.arg, mapping))
    raise TypeError(f"not an expression node: {e!r}")


# -------------------------------------------------- dual-number forward mode

def eval_dual(e, variables, point):
    """Forward-mode evaluation: returns (value, gradient ndarray).

    Independent of the symbolic differentiator; used as a cross-check oracle.
    """
    idx = {name: i for i, name in enumerate(variables)}
    n = len(variables)

    def rec(node):
        if isinstance(node, Const):
            return node.value, np.zeros(n)
        if isinstance(node, Var):
            g = np.zeros(n)
            g[idx[node.name]] = 1.0
            return float(point[idx[node.name]]), g
        if isinstance(node, Add):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            return va + vb, ga + gb
        if isinstance(node, Sub):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            return va - vb, ga - gb
        if isinstance(node, Mul):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            return va * vb, va * gb + vb * ga
        if isinstance(node, Div):
            va, ga = rec(node.a)
            vb, gb = rec(node.b)
            if vb == 0.0:
                raise DomainEvalError("division by zero", to_text(node))
            return va / vb, (ga * vb - va * gb) / (vb * vb)
        if isinstance(node, Neg):
            va, ga = rec(node.a)
            return -va, -ga
        if isinstance(node, Pow):
            vb_, gb_ = rec(node.base)
            ve, ge = rec(node.exponent)
            try:
                val = math.pow(vb_, ve)
            except (ValueError, OverflowError) as exc:
                raise DomainEvalError(f"invalid power ({exc})", to_text(node)) from None
            if isinstance(node.exponent, Const):
                if ve == 0.0:
                    grad = 0.0 * gb_
                else:
                    try:
                        grad = ve * math.pow(vb_, ve - 1.0) * gb_
                    except (ValueError, OverflowError) as exc:
                        raise DomainEvalError(
                            f"invalid power ({exc})", to_text(node)
                        ) from None
            else:
                if vb_ <= 0.0:
                    raise DomainEvalError("power with non-constant exponent needs a positive base", to_text(node))
                grad = val * (ge * math.log(vb_) + ve * gb_ / vb_)
            return val, grad
        if isinstance(node, Call):
            vu, gu = rec(node.arg)
            fn = node.fn
            if fn == "sqrt":
                if vu < 0.0:
                    raise DomainEvalError("sqrt of a negative number", to_text(node))
                if vu == 0.0:
                    raise DomainEvalError("sqrt derivative at zero", to_text(node))
                val = math.sqrt(vu)
                return val, gu / (2.0 * val)
            if fn == "sin":
                return math.sin(vu), math.cos(vu) * gu
            if fn == "cos":
                return math.cos(vu), -math.sin(vu) * gu
            if fn == "tan":
                c = math.cos(vu)
                return math.tan(vu), gu / (c * c)
            if fn == "exp":
                val = math.exp(vu)
                return val, val * gu
            if fn == "log":
                if vu <= 0.0:
                    raise DomainEvalError("log of a non-positive number", to_text(node))
                return math.log(vu), gu / vu
            if fn == "asinh":
                return math.asinh(vu), gu / math.sqrt(vu * vu + 1.0)
            if fn == "abs":
                return abs(vu), _sign(vu) * gu
            if fn == "sign":
                return _sign(vu), 0.0 * gu
        raise TypeError(f"not an expression node: {node!r}")

    return rec(e)


# ------------------------------------------------------------------- codegen

_BINARY_OPS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def compile_exprs(exprs, variables):
    """Compile a flat list of expressions into one fast callable seq -> list[float].

    The expressions are compiled as one DAG: structurally equal subtrees get one
    value number, and a non-leaf one used more than once is computed once per
    call into a local. Every operation stays the same IEEE operation on the same
    operands, so results are bit-identical to computing each tree in full.

    On any arithmetic fault the slow tree evaluator re-runs to produce a precise
    DomainEvalError naming the subexpression.
    """
    idx = {name: i for i, name in enumerate(variables)}
    number_of = {}  # id(node) -> value number; keys are nodes kept alive by `exprs`
    number_by_key = {}  # (type, payload, child numbers) -> value number
    texts = []  # value number -> source text, or the `_tN` local holding it
    uses = []  # value number -> references from parents and top-level entries
    lines = []

    def number(node):
        k = number_of.get(id(node))
        if k is not None:
            return k
        if isinstance(node, Const):
            # repr, not the float: 0.0 == -0.0 and they hash equal
            key = (Const, repr(node.value), ())
        elif isinstance(node, Var):
            key = (Var, node.name, ())
        elif isinstance(node, Call):
            key = (Call, node.fn, (number(node.arg),))
        elif isinstance(node, Neg):
            key = (Neg, None, (number(node.a),))
        elif isinstance(node, Pow):
            key = (Pow, None, (number(node.base), number(node.exponent)))
        elif type(node) in _BINARY_OPS:
            key = (type(node), None, (number(node.a), number(node.b)))
        else:
            raise TypeError(f"not an expression node: {node!r}")
        k = number_by_key.get(key)
        if k is None:
            k = number_by_key[key] = len(uses)
            uses.append(0)
            for child in key[2]:
                uses[child] += 1
        number_of[id(node)] = k
        return k

    roots = [number(e) for e in exprs]
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
        if kids and uses[k] > 1:
            lines.append(f"    _t{k} = {text}\n")
            text = f"_t{k}"
        texts.append(text)
    body = ", ".join(texts[k] for k in roots)
    src = "def _compiled(_x):\n" + "".join(lines) + f"    return [{body}]\n"
    ns = {"_pow": math.pow}
    for fname, impl in FUNCTIONS.items():
        ns[f"_fn_{fname}"] = impl
    exec(src, ns)  # noqa: S102 - source is generated from our own AST
    fast = ns["_compiled"]
    names = list(variables)

    def runner(point):
        try:
            return fast(point)
        except (ValueError, ZeroDivisionError, OverflowError):
            env = {name: point[i] for i, name in enumerate(names)}
            out = [evaluate(e, env) for e in exprs]
            return out  # pragma: no cover - only reached if fast path misfired

    return runner


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
        for e in self.entries:
            extra = free_variables(e) - set(self.variables)
            if extra:
                raise UndeclaredVariableError(sorted(extra)[0])
        self._runner = None
        self._jac = None
        self._grad = None
        self._hess = None
        self._partials = None

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

    @staticmethod
    def constant_matrix(mat, variables):
        mat = np.asarray(mat, dtype=float)
        return ExpressionField.matrix(
            [[Const(float(v)) for v in row] for row in mat], variables
        )

    # -- evaluation ----------------------------------------------------------
    @property
    def is_constant(self):
        return all(isinstance(e, Const) for e in self.entries)

    def __call__(self, point):
        if self._runner is None:
            self._runner = compile_exprs(list(self.entries), self.variables)
        vals = self._runner(point)
        if self.shape == ():
            return vals[0]
        out = np.array(vals, dtype=float)
        return out.reshape(self.shape) if len(self.shape) == 2 else out

    # -- calculus ------------------------------------------------------------
    def partial(self, var):
        """Entry-wise partial derivative field with the same shape."""
        return ExpressionField(
            [derivative(e, var) for e in self.entries], self.variables, self.shape
        )

    def gradient(self):
        if self.shape != ():
            raise ShapeError("gradient needs a scalar field")
        if self._grad is None:
            self._grad = ExpressionField.vector(
                [derivative(self.entries[0], v) for v in self.variables],
                self.variables,
            )
        return self._grad

    def jacobian_field(self):
        if len(self.shape) != 1:
            raise ShapeError("jacobian needs a vector field")
        if self._jac is None:
            self._jac = ExpressionField.matrix(
                [[derivative(e, v) for v in self.variables] for e in self.entries],
                self.variables,
            )
        return self._jac

    def jacobian_at(self, point):
        return self.jacobian_field()(point)

    def hessian_field(self):
        if self.shape != ():
            raise ShapeError("hessian needs a scalar field")
        if self._hess is None:
            grads = [derivative(self.entries[0], v) for v in self.variables]
            self._hess = ExpressionField.matrix(
                [[derivative(g, v) for v in self.variables] for g in grads],
                self.variables,
            )
        return self._hess

    def partial_fields(self):
        """List of d(field)/d(x_j) fields, one per variable (same shape each)."""
        if self._partials is None:
            self._partials = [self.partial(v) for v in self.variables]
        return self._partials

    def substitute(self, mapping):
        """New field with variables replaced by expressions/numbers."""
        new_entries = [substitute(e, mapping) for e in self.entries]
        kept = [v for v in self.variables if v not in mapping]
        return ExpressionField(new_entries, kept, self.shape)

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


def fd_jacobian(field, point, rel_step=1e-6):
    """Central finite-difference Jacobian; step h = rel_step*max(1,|x_i|) per axis."""
    point = np.asarray(point, dtype=float)
    base = np.atleast_1d(np.asarray(field(point), dtype=float))
    n = len(point)
    out = np.empty((base.size, n))
    for j in range(n):
        h = rel_step * max(1.0, abs(point[j]))
        xp = point.copy()
        xm = point.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.atleast_1d(np.asarray(field(xp), dtype=float))
        fm = np.atleast_1d(np.asarray(field(xm), dtype=float))
        out[:, j] = (fp - fm) / (2.0 * h)
    return out
