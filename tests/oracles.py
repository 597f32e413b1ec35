"""Reference routes that the tests check linsing against.

`eval_dual` differentiates by forward-mode dual numbers and `fd_jacobian` by
central finite differences. Neither calls linsing's tree evaluator, its
compiled runners or its symbolic `derivative`: they read the expression nodes
and call fields, so an agreement is between independent routes.

`recursive_evaluate` and `recursive_text` are the tree evaluator and printer
as recursive walks, one call per node visit: the references for linsing's
`evaluate` and `to_text`, which fold one rule per node over the DAG's walk.

`integrate_arrays` steps RK4 on numpy arrays, where `integrate` steps on
Python floats: the same IEEE operations, so the two agree bit for bit.

`subspace_classify`, `induced_quotient_matrix` and `reduced_solve` state the
paper's quotient-bundle formulation on explicit bases: the pairing matrix
D_ij = <alpha^i, v_j>, and the induced map E0 -> F/F0 represented on an
orthonormal complement of F0. The flow evaluator never forms the quotient; it
solves one bordered or Schur-complement system, so these are an independent
route to the same rank decisions.

`complement_projectors(kernel_basis(dphi), Gamma)` is the geometric
construction of the projectors onto T_xM = ker dphi along H_x = span Gamma:
a basis of each subspace from an SVD, and the inverse of the two side by
side. `PointDynamics.analyses` forms P = I - Gamma D^{-1} dphi from the D its
multiplier solve decided regular, so the two are independent routes to P.
"""

import math

import numpy as np

from linsing.errors import DomainEvalError, ShapeError, UndeclaredVariableError, raise_first
from linsing.expressions import (
    FUNCTIONS,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    to_text,
)
from linsing.linalg import (
    DEFAULT_TOLERANCES,
    SubspaceBasis,
    _fix_signs,
    _kernels,
    _svd_rank,
    rank,
    solve_affine,
)


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


def recursive_text(e):
    """`to_text` as a recursive walk: each node printed at the level its parent needs."""
    return _print(e, 0)


def recursive_evaluate(e, env):
    """`evaluate` as a recursive walk: a shared node is evaluated once per path to it."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return float(env[e.name])
        except KeyError:
            raise UndeclaredVariableError(e.name) from None
    if isinstance(e, Add):
        return recursive_evaluate(e.a, env) + recursive_evaluate(e.b, env)
    if isinstance(e, Sub):
        return recursive_evaluate(e.a, env) - recursive_evaluate(e.b, env)
    if isinstance(e, Mul):
        return recursive_evaluate(e.a, env) * recursive_evaluate(e.b, env)
    if isinstance(e, Div):
        num = recursive_evaluate(e.a, env)
        den = recursive_evaluate(e.b, env)
        if den == 0.0:
            raise DomainEvalError("division by zero", recursive_text(e))
        return num / den
    if isinstance(e, Neg):
        return -recursive_evaluate(e.a, env)
    if isinstance(e, Pow):
        b = recursive_evaluate(e.base, env)
        x = recursive_evaluate(e.exponent, env)
        try:
            return math.pow(b, x)
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(f"invalid power ({exc})", recursive_text(e)) from None
    if isinstance(e, Call):
        u = recursive_evaluate(e.arg, env)
        if e.fn == "sqrt" and u < 0.0:
            raise DomainEvalError("sqrt of a negative number", recursive_text(e))
        if e.fn == "log" and u <= 0.0:
            raise DomainEvalError("log of a non-positive number", recursive_text(e))
        try:
            return FUNCTIONS[e.fn](u)
        except (ValueError, OverflowError) as exc:
            raise DomainEvalError(f"{e.fn} domain fault ({exc})", recursive_text(e)) from None
    raise TypeError(f"not an expression node: {e!r}")


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


def rk4_step_arrays(field_fn, x, dt):
    """One classical RK4 step on numpy arrays: the formula `integrate` stepped
    with before it stepped on Python floats."""

    def rate(y):
        return np.asarray(field_fn(y), dtype=float)

    k1 = rate(x)
    k2 = rate(x + 0.5 * dt * k1)
    k3 = rate(x + 0.5 * dt * k2)
    k4 = rate(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_arrays(field_fn, x0, dt, steps, project, multiplier_fn):
    """(states, multipliers, drift) of `steps` steps of `rk4_step_arrays` from
    x0, a point of M, each projected onto M; the multipliers are recorded at
    every state. A projection that fails raises AssertionError."""
    x = np.asarray(x0, dtype=float)
    states, mults, drift = [x], [multiplier_fn(x)], [project.residual(x)]
    for _ in range(steps):
        x, ok, _ = proj = project.project(rk4_step_arrays(field_fn, x, dt))
        assert ok
        states.append(x)
        mults.append(multiplier_fn(x))
        drift.append(proj.residual)
    return np.array(states), np.array(mults, dtype=float), np.array(drift)


def kernel_basis(mat, tols=DEFAULT_TOLERANCES):
    """Right null space of `mat` in the deterministic gauge; for a stack of
    matrices, the list of their null spaces."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[-2] == 0:
        eye = _fix_signs(np.eye(mat.shape[-1]))
        return SubspaceBasis(eye) if mat.ndim == 2 else [SubspaceBasis(eye) for _ in mat]
    (_, _, vt), r, _ = _svd_rank(mat, tols)
    if mat.ndim == 2:
        return SubspaceBasis(_fix_signs(vt[r:].T))
    return _kernels(vt, r)


class NotComplementaryError(Exception):
    """The two subspaces do not span the ambient space as a direct sum."""


def complement_projectors(first, second, tols=DEFAULT_TOLERANCES):
    """Projectors (P, Q) onto `first` along `second` and vice versa.

    Raises NotComplementaryError unless the two column families are jointly a
    basis of the ambient space. Stacks of families, (N, n, .) arrays, give
    stacks of projectors, and the error names the first pair that fails.
    """
    e = first.vectors if isinstance(first, SubspaceBasis) else np.asarray(first, dtype=float)
    f = second.vectors if isinstance(second, SubspaceBasis) else np.asarray(second, dtype=float)
    if e.shape[-2] != f.shape[-2]:
        raise ShapeError("ambient dimensions differ")
    n = e.shape[-2]
    if e.shape[-1] + f.shape[-1] != n:
        raise NotComplementaryError(
            f"dimensions {e.shape[-1]} + {f.shape[-1]} != ambient {n}"
        )
    stacked = np.concatenate([e, f], axis=-1)
    raise_first((np.atleast_1d(rank(stacked, tols) < n),
                 lambda i: NotComplementaryError("subspaces overlap or are degenerate")))
    inv = np.linalg.inv(stacked)
    p = e @ inv[..., : e.shape[-1], :]
    q = np.eye(n) - p
    return p, q


def cokernel_basis(mat, tols=DEFAULT_TOLERANCES):
    """Left null space of `mat` (complement of the image) in the same gauge."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[1] == 0:
        return SubspaceBasis(_fix_signs(np.eye(mat.shape[0])))
    (u, _, _), r, _ = _svd_rank(mat, tols)
    return SubspaceBasis(_fix_signs(u[:, r:]))


class SubspaceClassification:
    """Verdict of the rank tests on D_ij = <alpha_i, v_j>."""

    def __init__(self, d_matrix, rank_d, sum_full, intersection_zero, direct_sum):
        self.d_matrix = d_matrix
        self.rank_d = rank_d
        self.sum_full = sum_full  # span(annihilated subspace) + span(frame) = ambient
        self.intersection_zero = intersection_zero
        self.direct_sum = direct_sum


def subspace_classify(annihilator, frame, tols=DEFAULT_TOLERANCES):
    """Classify the relative position of ker(annihilator) and span(frame).

    Parameters
    ----------
    annihilator : (n, p) array
        Columns are covectors alpha^i cutting out the first subspace E = ker alpha.
    frame : (n, q) array
        Columns span the second subspace F.

    The pairing matrix D_ij = <alpha^i, v_j> decides everything:
    E + F full iff rank D = p; E ∩ F = 0 iff rank D = q; direct sum iff both
    (square invertible D).
    """
    alpha = annihilator.vectors if isinstance(annihilator, SubspaceBasis) else np.asarray(annihilator, dtype=float)
    v = frame.vectors if isinstance(frame, SubspaceBasis) else np.asarray(frame, dtype=float)
    if alpha.shape[0] != v.shape[0]:
        raise ShapeError("ambient dimensions differ")
    d = alpha.T @ v
    p, q = alpha.shape[1], v.shape[1]
    r = rank(d, tols)
    return SubspaceClassification(
        d_matrix=d,
        rank_d=r,
        sum_full=(r == p),
        intersection_zero=(r == q),
        direct_sum=(p == q and r == p),
    )


def orthonormal_complement(basis, ambient_dim=None, tols=DEFAULT_TOLERANCES):
    """Orthonormal basis of the orthogonal complement of span(columns)."""
    b = basis.vectors if isinstance(basis, SubspaceBasis) else np.asarray(basis, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if b.shape[1] == 0:
        n = b.shape[0] if ambient_dim is None else ambient_dim
        return SubspaceBasis(np.eye(n))
    return cokernel_basis(b, tols)


def induced_quotient_matrix(f_mat, domain_basis, mod_basis, tols=DEFAULT_TOLERANCES):
    """Matrix of the induced map E0 -> F/F0, x + F0-classes represented on an
    orthonormal complement of F0 (the quotient is never materialized).

    Parameters
    ----------
    f_mat : (dimF, dimE) array
    domain_basis : (dimE, e) array — basis of the restricted domain E0
    mod_basis : (dimF, s) array — basis of the subspace F0 being quotiented out
    """
    f_mat = np.asarray(f_mat, dtype=float)
    j = domain_basis.vectors if isinstance(domain_basis, SubspaceBasis) else np.asarray(domain_basis, dtype=float)
    w = orthonormal_complement(mod_basis, ambient_dim=f_mat.shape[0], tols=tols)
    return w.vectors.T @ f_mat @ j


def reduced_solve(f_mat, domain_basis, mod_basis, b, tols=DEFAULT_TOLERANCES):
    """Solve the induced equation f0(x) = [b] on the quotient representation.

    Returns the AffineSolutionSet in E0-coordinates (coefficients against the
    columns of domain_basis).
    """
    f_mat = np.asarray(f_mat, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    j = domain_basis.vectors if isinstance(domain_basis, SubspaceBasis) else np.asarray(domain_basis, dtype=float)
    w = orthonormal_complement(mod_basis, ambient_dim=f_mat.shape[0], tols=tols)
    return solve_affine(w.vectors.T @ f_mat @ j, w.vectors.T @ b, tols)
