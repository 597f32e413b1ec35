"""Shared helpers: a deterministic corpus of random, domain-safe expressions,
the function-node builder that makes it, and the Euler step of an
infinitesimal symmetry candidate.

The generator guards every partial function (safe denominators, positive
sqrt/log arguments, damped exp) so that the produced expressions evaluate
finitely on all of R^n.  That makes them usable both for symbolic-vs-dual
derivative cross-checks and for central finite differences.
"""

import math
import random

import numpy as np

from linsing.errors import DomainEvalError
from linsing.expressions import (
    Call,
    Const,
    ExpressionField,
    Var,
    add,
    div,
    evaluate,
    free_variables,
    mul,
    pow_,
    sub,
)
from linsing.symmetry import finite_candidate
from oracles import eval_dual


def call(fn, arg):
    """The node fn(arg), folded to its value when arg is a constant and the
    value is finite, as linsing's builders `add`, `mul`, ... fold theirs."""
    node = Call(fn, arg)
    if not isinstance(arg, Const):
        return node
    try:
        value = evaluate(node, {})
    except (DomainEvalError, OverflowError):
        return node
    return Const(value) if math.isfinite(value) else node


def random_expr(rng, variables, depth):
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.35:
            return Const(round(rng.uniform(-2.0, 2.0), 3))
        return Var(rng.choice(variables))
    r = rng.random()
    a = random_expr(rng, variables, depth - 1)
    if r < 0.55:
        b = random_expr(rng, variables, depth - 1)
        if r < 0.20:
            return add(a, b)
        if r < 0.35:
            return sub(a, b)
        if r < 0.47:
            return mul(a, b)
        # denominator bounded away from zero everywhere
        return div(a, add(Const(2.0), mul(b, b)))
    if r < 0.62:
        return pow_(add(Const(1.0), mul(a, a)), Const(float(rng.choice([2, 3]))))
    if r < 0.70:
        return call("exp", div(a, Const(8.0)))
    if r < 0.78:
        return call("sqrt", add(Const(1.0), mul(a, a)))
    if r < 0.86:
        return call("log", add(Const(1.5), mul(a, a)))
    if r < 0.93:
        return call("sin", a)
    if r < 0.98:
        return call("cos", a)
    return call("asinh", a)


def expression_corpus(count, nvars=3, depth=3, seed=20260814, bound=1e4):
    """Deterministic list of (expr, variables, point) triples.

    Every triple evaluates finitely with |value| and |gradient| below
    `bound`, keeping finite differences well conditioned.  Constant
    expressions are skipped.
    """
    rng = random.Random(seed)
    variables = tuple("xyzuvw"[:nvars])
    out = []
    while len(out) < count:
        e = random_expr(rng, variables, depth)
        if not free_variables(e):
            continue
        point = np.array([rng.uniform(-2.0, 2.0) for _ in variables])
        try:
            val, grad = eval_dual(e, variables, point)
        except DomainEvalError:
            continue
        if not np.isfinite(val) or abs(val) > bound:
            continue
        if not np.all(np.isfinite(grad)) or np.max(np.abs(grad)) > bound:
            continue
        out.append((e, variables, point))
    return out


def euler_step_candidate(cand, eps):
    """Finite candidate (x + eps V(x), I + eps Lambda(x)) from an infinitesimal
    one: a symmetry up to O(eps^2) when the infinitesimal conditions hold."""
    variables, k, step = cand.base.variables, cand.fibre.shape[0], Const(eps)
    base = [add(Var(name), mul(step, e)) for name, e in zip(variables, cand.base.entries)]
    fibre = [add(Const(float(i == j)), mul(step, cand.fibre.entries[i * k + j]))
             for i in range(k) for j in range(k)]
    return finite_candidate(ExpressionField.vector(base, variables),
                            ExpressionField(fibre, variables, (k, k)))
