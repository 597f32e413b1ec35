"""Reference differentiators that the tests check linsing against.

`eval_dual` differentiates by forward-mode dual numbers and `fd_jacobian` by
central finite differences. Neither calls linsing's tree evaluator, its
compiled runners or its symbolic `derivative`: they read the expression nodes
and call fields, so an agreement is between independent routes.
"""

import math

import numpy as np

from linsing.errors import DomainEvalError
from linsing.expressions import Add, Call, Const, Div, Mul, Neg, Pow, Sub, Var, to_text


def _sign(x):
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


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
