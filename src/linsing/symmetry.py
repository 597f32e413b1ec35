"""Symmetries of linearly singular systems and their descent to the constrained
dynamics, plus constants of motion.

A finite symmetry candidate is a pair (psi, Phi): a base diffeomorphism and a
fibre matrix field. It is accepted when f(psi(x)) = Phi(x) f(x) and
A(psi(x)) Dpsi(x) = Phi(x) A(x) within tolerance. The infinitesimal version
(V, Lambda) checks the linearized conditions Df.V = Lambda f and
(D_V A) + A.DV = Lambda A, obtained by differentiating the flow (the vector
field lifts to the tangent bundle by the complete lift (V, DV.u)).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import NonFiniteError, ShapeError, raise_first
from .expressions import Const, ExpressionField, add, derivatives, mul

__all__ = [
    "SymmetryCandidate",
    "finite_candidate",
    "infinitesimal_candidate",
    "check_symmetry",
    "check_inf_symmetry",
    "check_descent",
    "constant_descent",
    "max_rate",
]


class SymmetryCandidate:
    def __init__(self, kind, base, fibre):
        self.kind = kind    # "finite" | "infinitesimal"
        self.base = base    # psi (n -> n) or V (n,)
        self.fibre = fibre  # Phi or Lambda, (k, k)
        if self.kind not in ("finite", "infinitesimal"):
            raise ShapeError("kind must be 'finite' or 'infinitesimal'")
        if len(self.base.shape) != 1:
            raise ShapeError("base component must be a vector field")
        if len(self.fibre.shape) != 2 or self.fibre.shape[0] != self.fibre.shape[1]:
            raise ShapeError("fibre component must be a square matrix field")


def finite_candidate(psi, phi_matrix):
    return SymmetryCandidate("finite", psi, phi_matrix)


def infinitesimal_candidate(v_field, lambda_matrix=None):
    """Infinitesimal candidate; Lambda defaults to the Jacobian DV (the natural
    fibre action on an explicit system, where the fibre is the tangent space)."""
    if lambda_matrix is None:
        lambda_matrix = v_field.jacobian_field()
    return SymmetryCandidate("infinitesimal", v_field, lambda_matrix)


def _worst(values, name):
    """(largest |value| over the sample, or 0, check): the first axis of
    `values` runs over the sample points, and the check is the `raise_first`
    pair that raises NonFiniteError, naming the residual, at the first point
    whose residual is not finite (a max fold would drop a NaN and report 0)."""
    worst = np.abs(values).max(axis=tuple(range(1, np.ndim(values))), initial=0.0)
    check = (~np.isfinite(worst),
             lambda i: NonFiniteError(f"the residual {name} is not finite ({worst[i]})"))
    return float(worst.max(initial=0.0)), check


def _times(mats, vecs):
    """Each matrix of a stack applied to its vector: (N, k, n), (N, n) -> (N, k)."""
    return (mats @ vecs[..., None])[..., 0]


def _dots(a, b):
    """a_i . b_i for the rows of two (N, n) arrays, each the dot product of its row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class SymmetryCheck:
    def __init__(self, r_f, r_A, passed, tol):
        self.r_f = r_f
        self.r_A = r_A
        self.passed = passed
        self.tol = tol


def check_symmetry(sys, cand, points, tol=1e-8, tols=linalg.DEFAULT_TOLERANCES):
    """Residuals of the finite symmetry conditions over the sample points, as
    one batch: each field is evaluated over the sample and the ranks of Dpsi
    and Phi are decided by stacked SVDs. An error raises for the first point
    at which a point-by-point check would raise it."""
    if cand.kind != "finite":
        raise ShapeError("check_symmetry needs a finite candidate")
    x = np.asarray(points, dtype=float)
    y = cand.base.rows(x)
    dpsi = cand.base.jacobian_field().rows(x)
    phi_m = cand.fibre.rows(x)
    with linalg._float_errors():  # `_worst` reports a non-finite residual
        r_f, f_check = _worst(sys.f.rows(y) - _times(phi_m, sys.f.rows(x)), "r_f")
        r_a, a_check = _worst(sys.A.rows(y) @ dpsi - phi_m @ sys.A.rows(x), "r_A")
    raise_first(
        (linalg.rank(dpsi, tols) < sys.n,
         lambda i: ShapeError("base map is not invertible at a sample point")),
        (linalg.rank(phi_m, tols) < sys.k,
         lambda i: ShapeError("fibre map is not invertible at a sample point")),
        f_check, a_check)
    return SymmetryCheck(r_f, r_a, r_f <= tol and r_a <= tol, tol)


def _directional_field(mat_field, v_field):
    """D_V of a matrix field as one matrix field: each entry is the sum over the
    variables, in order, of d(entry)/dx_j * V_j, with each V_j that is the
    constant 0 left out (its terms are exact zeros). The entries are
    differentiated together, one variable at a time (`derivatives`)."""
    entries = [Const(0.0)] * len(mat_field.entries)
    for name, ve in zip(mat_field.variables, v_field.entries):
        if not (isinstance(ve, Const) and ve.value == 0.0):
            entries = [add(acc, mul(de, ve))
                       for acc, de in zip(entries, derivatives(mat_field.entries, name))]
    return ExpressionField(entries, mat_field.variables, mat_field.shape)


def check_inf_symmetry(sys, cand, points, tol=1e-8):
    """Residuals of the linearized symmetry conditions over the sample points.

    D_V f and D_V A are built once per call, each as one field (see
    `_directional_field`), and every field is evaluated once over the whole
    sample; the products are stacked.
    """
    if cand.kind != "infinitesimal":
        raise ShapeError("check_inf_symmetry needs an infinitesimal candidate")
    dvf = _directional_field(sys.f, cand.base)
    jv = cand.base.jacobian_field()
    dva = _directional_field(sys.A, cand.base)
    x = np.asarray(points, dtype=float)
    lam = cand.fibre.rows(x)
    a = sys.A.rows(x)
    with linalg._float_errors():
        r_f, f_check = _worst(dvf.rows(x) - _times(lam, sys.f.rows(x)), "r_f")
        r_a, a_check = _worst(dva.rows(x) + a @ jv.rows(x) - lam @ a, "r_A")
    raise_first(f_check, a_check)
    return SymmetryCheck(r_f, r_a, r_f <= tol and r_a <= tol, tol)


class DescentCheck:
    def __init__(self, tangent_to_M, preserves_forces, descends, tangency_residual,
                 force_residual, tol):
        self.tangent_to_M = tangent_to_M
        self.preserves_forces = preserves_forces
        self.descends = descends
        self.tangency_residual = tangency_residual
        self.force_residual = force_residual
        self.tol = tol


def check_descent(gnh, cand, points_on_m, tol=1e-8, tols=linalg.DEFAULT_TOLERANCES):
    """Does an accepted symmetry descend to the constrained dynamics?

    Tangency: the candidate preserves M (finite: phi(psi(x)) = 0; infinitesimal:
    V.phi = 0 on M). Force preservation: the fibre action maps the force span
    into the force span (least-squares residual of each transported column).
    An infinitesimal candidate transports the frame as Lambda Delta - D_V Delta,
    with D_V Delta built once per call as one field (see `_directional_field`).
    Each field is evaluated once over the sample, and each column's
    least-squares residuals come from one stacked solve.
    """
    forces = gnh.forces
    x = np.asarray(points_on_m, dtype=float)
    with linalg._float_errors():
        if cand.kind == "finite":
            y = cand.base.rows(x)
            tang, tang_check = _worst(gnh.constraints.phi.rows(y), "tangency_residual")
            target = forces.rows(y)
            moved = cand.fibre.rows(x) @ forces.rows(x)
        else:
            dv_forces = _directional_field(forces, cand.base)
            tang, tang_check = _worst(
                _times(gnh.constraints.phi.jacobian_field().rows(x), cand.base.rows(x)),
                "tangency_residual")
            target = forces.rows(x)
            moved = cand.fibre.rows(x) @ target - dv_forces.rows(x)
        raise_first(tang_check)
        residuals = [linalg.solve_affine(target, moved[:, :, j], tols).residual
                     for j in range(moved.shape[2])]
        force, force_check = _worst(np.stack(residuals, axis=1), "force_residual")
    raise_first(force_check)
    tangent = tang <= tol
    preserves = force <= tol
    return DescentCheck(tangent, preserves, tangent and preserves, tang, force, tol)


class ConstantDescentCheck:
    def __init__(self, base_conserved, gamma_derivative_small, constrained_conserved,
                 max_Y_h, max_Gamma_h, max_X_h, consistent, tol):
        self.base_conserved = base_conserved
        self.gamma_derivative_small = gamma_derivative_small
        self.constrained_conserved = constrained_conserved
        self.max_Y_h = max_Y_h
        self.max_Gamma_h = max_Gamma_h
        self.max_X_h = max_X_h
        # conditional equivalence: given base_conserved, the rest agree
        self.consistent = consistent
        self.tol = tol


def constant_descent(h, points_on_m, flows, tol=1e-8):
    """ConstantDescentCheck of a scalar field h from the (Y, X) pairs that
    `PointDynamics.flows` gives at the points of M.

    Y.h, (Y - X).h and X.h over the sample: when h is conserved for Y,
    conservation for the constrained X is equivalent to (Y - X).h = 0, and the
    `consistent` flag verifies that equivalence numerically. dh is evaluated
    once over the sample and each rate is one stacked product."""
    g = h.gradient().rows(np.asarray(points_on_m, dtype=float))
    flows = np.asarray(flows, dtype=float)
    y, xfield = flows[:, 0], flows[:, 1]
    with linalg._float_errors():
        max_yh, y_check = _worst(_dots(g, y), "Y_h")
        max_gh, g_check = _worst(_dots(g, y - xfield), "Gamma_h")
        max_xh, x_check = _worst(_dots(g, xfield), "X_h")
    raise_first(y_check, g_check, x_check)
    base_ok = max_yh <= tol
    gamma_ok = max_gh <= tol
    constrained_ok = max_xh <= tol
    consistent = (not base_ok) or (constrained_ok == gamma_ok)
    return ConstantDescentCheck(
        base_ok, gamma_ok, constrained_ok, max_yh, max_gh, max_xh, consistent, tol
    )


def max_rate(h, points, fields):
    """max |X.h| = max |dh(x) . X| over the points and the field X at each, as
    one stacked product; a non-finite value raises NonFiniteError."""
    g = h.gradient().rows(np.asarray(points, dtype=float))
    with linalg._float_errors():
        worst, check = _worst(_dots(g, np.asarray(fields, dtype=float)), "X_h")
    raise_first(check)
    return worst
