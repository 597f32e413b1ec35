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

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NonFiniteError, ShapeError
from .expressions import Const, ExpressionField, Var, add, derivative, mul

__all__ = [
    "SymmetryCandidate",
    "finite_candidate",
    "infinitesimal_candidate",
    "euler_flow_candidate",
    "check_symmetry",
    "check_inf_symmetry",
    "check_descent",
    "flow_samples",
    "constant_descent",
    "max_rate",
]


@dataclass
class SymmetryCandidate:
    kind: str                 # "finite" | "infinitesimal"
    base: ExpressionField     # psi (n -> n) or V (n,)
    fibre: ExpressionField    # Phi or Lambda, (k, k)

    def __post_init__(self):
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


def euler_flow_candidate(cand, eps):
    """Finite candidate (x + eps V(x), I + eps Lambda(x)) from an infinitesimal one."""
    if cand.kind != "infinitesimal":
        raise ShapeError("euler_flow_candidate needs an infinitesimal candidate")
    variables = cand.base.variables
    base = ExpressionField.vector(
        [add(Var(name), mul(Const(eps), e)) for name, e in zip(variables, cand.base.entries)],
        variables,
    )
    k = cand.fibre.shape[0]
    entries = []
    for i in range(k):
        for j in range(k):
            e = mul(Const(eps), cand.fibre.entries[i * k + j])
            if i == j:
                e = add(Const(1.0), e)
            entries.append(e)
    fibre = ExpressionField(entries, variables, (k, k))
    return SymmetryCandidate("finite", base, fibre)


def _residual_errors():
    """numpy's overflow and invalid-value warnings off: `_worst` reports a
    non-finite residual as an error instead."""
    return np.errstate(over="ignore", invalid="ignore")


def _worst(current, values, name):
    """max(current, max |values|); a non-finite value raises NonFiniteError
    (a max fold would drop a NaN and report the residual as 0)."""
    value = float(np.max(np.abs(values)))
    if not math.isfinite(value):
        raise NonFiniteError(f"the residual {name} is not finite ({value})")
    return max(current, value)


@dataclass
class SymmetryCheck:
    r_f: float
    r_A: float
    passed: bool
    tol: float


def check_symmetry(sys, cand, points, tol=1e-8, tols=linalg.DEFAULT_TOLERANCES):
    """Residuals of the finite symmetry conditions over the sample points."""
    if cand.kind != "finite":
        raise ShapeError("check_symmetry needs a finite candidate")
    r_f = 0.0
    r_a = 0.0
    jpsi = cand.base.jacobian_field()
    with _residual_errors():
        for x in points:
            y = cand.base(x)
            dpsi = jpsi(x)
            if linalg.rank(dpsi, tols) < sys.n:
                raise ShapeError("base map is not invertible at a sample point")
            phi_m = cand.fibre(x)
            if linalg.rank(phi_m, tols) < sys.k:
                raise ShapeError("fibre map is not invertible at a sample point")
            r_f = _worst(r_f, sys.f_at(y) - phi_m @ sys.f_at(x), "r_f")
            r_a = _worst(r_a, sys.A_at(y) @ dpsi - phi_m @ sys.A_at(x), "r_A")
    return SymmetryCheck(r_f, r_a, r_f <= tol and r_a <= tol, tol)


def _directional_field(mat_field, v_field):
    """D_V of a matrix field as one matrix field: each entry is the sum over the
    variables, in order, of d(entry)/dx_j * V_j, with each V_j that is the
    constant 0 left out (its terms are exact zeros)."""
    terms = [(name, ve) for name, ve in zip(mat_field.variables, v_field.entries)
             if not (isinstance(ve, Const) and ve.value == 0.0)]
    entries = []
    for e in mat_field.entries:
        acc = Const(0.0)
        for name, ve in terms:
            acc = add(acc, mul(derivative(e, name), ve))
        entries.append(acc)
    return ExpressionField(entries, mat_field.variables, mat_field.shape)


def check_inf_symmetry(sys, cand, points, tol=1e-8):
    """Residuals of the linearized symmetry conditions over the sample points.

    D_V f and D_V A are built once per call, each as one field (see
    `_directional_field`), and A is evaluated once per point.
    """
    if cand.kind != "infinitesimal":
        raise ShapeError("check_inf_symmetry needs an infinitesimal candidate")
    dvf = _directional_field(sys.f, cand.base)
    jv = cand.base.jacobian_field()
    dva = _directional_field(sys.A, cand.base)
    r_f = 0.0
    r_a = 0.0
    with _residual_errors():
        for x in points:
            lam = cand.fibre(x)
            a = sys.A_at(x)
            r_f = _worst(r_f, dvf(x) - lam @ sys.f_at(x), "r_f")
            r_a = _worst(r_a, dva(x) + a @ jv(x) - lam @ a, "r_A")
    return SymmetryCheck(r_f, r_a, r_f <= tol and r_a <= tol, tol)


@dataclass
class DescentCheck:
    tangent_to_M: bool
    preserves_forces: bool
    descends: bool
    tangency_residual: float
    force_residual: float
    tol: float


def check_descent(gnh, cand, points_on_m, tol=1e-8, tols=linalg.DEFAULT_TOLERANCES):
    """Does an accepted symmetry descend to the constrained dynamics?

    Tangency: the candidate preserves M (finite: phi(psi(x)) = 0; infinitesimal:
    V.phi = 0 on M). Force preservation: the fibre action maps the force span
    into the force span (least-squares residual of each transported column).
    An infinitesimal candidate transports the frame as Lambda Delta - D_V Delta,
    with D_V Delta built once per call as one field (see `_directional_field`).
    """
    forces = gnh.forces
    dv_forces = _directional_field(forces, cand.base) if cand.kind == "infinitesimal" else None
    tang = 0.0
    force = 0.0
    with _residual_errors():
        for x in points_on_m:
            if cand.kind == "finite":
                y = cand.base(x)
                tang = _worst(tang, gnh.constraints.values(y), "tangency_residual")
                target = forces(y)
                moved = cand.fibre(x) @ forces(x)
            else:
                tang = _worst(tang, gnh.constraints.jacobian(x) @ cand.base(x),
                              "tangency_residual")
                target = forces(x)
                moved = cand.fibre(x) @ target - dv_forces(x)
            force = _worst(force, [linalg.solve_affine(target, col, tols).residual
                                   for col in moved.T], "force_residual")
    tangent = tang <= tol
    preserves = force <= tol
    return DescentCheck(tangent, preserves, tangent and preserves, tang, force, tol)


@dataclass
class ConstantDescentCheck:
    base_conserved: bool
    gamma_derivative_small: bool
    constrained_conserved: bool
    max_Y_h: float
    max_Gamma_h: float
    max_X_h: float
    consistent: bool  # conditional equivalence: given base_conserved, the rest agree
    tol: float


def flow_samples(dyn, points_on_m):
    """(Y, X) at each point of M through one PointDynamics: the point checked on
    M, then Y = B^{-1} g and X from one evaluation (`PointDynamics.flow`)."""
    require_on = dyn.gnh.constraints.require_on
    out = []
    for x in points_on_m:
        require_on(x)
        out.append(dyn.flow(x))
    return out


def constant_descent(h, points_on_m, flows, tol=1e-8):
    """ConstantDescentCheck of a scalar field h from the `flow_samples` pairs.

    Y.h, (Y - X).h and X.h over the sample: when h is conserved for Y,
    conservation for the constrained X is equivalent to (Y - X).h = 0, and the
    `consistent` flag verifies that equivalence numerically."""
    dh = h.gradient()
    max_yh = 0.0
    max_gh = 0.0
    max_xh = 0.0
    with _residual_errors():
        for x, (y, xfield) in zip(points_on_m, flows):
            g = dh(x)
            max_yh = _worst(max_yh, g @ y, "Y_h")
            max_gh = _worst(max_gh, g @ (y - xfield), "Gamma_h")
            max_xh = _worst(max_xh, g @ xfield, "X_h")
    base_ok = max_yh <= tol
    gamma_ok = max_gh <= tol
    constrained_ok = max_xh <= tol
    consistent = (not base_ok) or (constrained_ok == gamma_ok)
    return ConstantDescentCheck(
        base_ok, gamma_ok, constrained_ok, max_yh, max_gh, max_xh, consistent, tol
    )


def max_rate(h, points, fields):
    """max |X.h| = max |dh(x) . X| over the points and the field X at each;
    a non-finite value raises NonFiniteError."""
    dh = h.gradient()
    worst = 0.0
    with _residual_errors():
        for x, xfield in zip(points, fields):
            worst = _worst(worst, dh(x) @ xfield, "X_h")
    return worst
