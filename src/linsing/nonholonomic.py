"""Generalized nonholonomic systems: a base pair (B, g), a constraint submanifold
M = {phi = 0}, and a frame of constraint-force directions.

The quotient bundle never gets materialized: everything runs through the
transported frame Gamma_mu = B^{-1} Delta_mu, the pairing matrix
D = dphi . Gamma, and span residuals. `PointDynamics` is the one evaluator of the
constrained field; the *_at functions check that the point is on M, then call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BaseNotRegularError,
    FrameDegenerateError,
    InconsistentSystemError,
    NotOnManifoldError,
    ShapeError,
)
from .expressions import ExpressionField
from .systems import LinearlySingularSystem

__all__ = [
    "SubmanifoldSpec",
    "ForceFrame",
    "GeneralizedNonholonomicSystem",
    "H_frame_at",
    "D_matrix_at",
    "classify_at",
    "multipliers_at",
    "constrained_field_at",
    "projectors_at",
    "unconstrained_solution_at",
    "PointDynamics",
]


@dataclass
class SubmanifoldSpec:
    """Level set M = {phi = 0} of a vector of scalar constraint expressions."""

    phi: ExpressionField  # shape (a,)

    def __post_init__(self):
        if len(self.phi.shape) != 1:
            raise ShapeError("phi must be a vector field of scalars")

    @property
    def codim(self):
        return self.phi.shape[0]

    def values(self, x):
        return self.phi(x)

    def jacobian(self, x):
        return self.phi.jacobian_at(x)

    def residual(self, x):
        """Distance to M as the on-manifold test measures it: max |phi(x)|."""
        return _max_abs(self.values(x))

    def is_on(self, x):
        return self.residual(x) <= linalg.Tolerances.on_manifold

    def require_on(self, x):
        """Raise NotOnManifoldError unless x lies on M."""
        worst = self.residual(x)
        if worst > linalg.Tolerances.on_manifold:
            raise NotOnManifoldError(
                f"point violates the constraints: max |phi| = {worst:.3e}"
            )

    def project(self, x):
        """Gauss-Newton projection onto M; returns (point, converged, iterations)."""
        return self.lift(x, range(len(x)), 20)

    def lift(self, x, free_indices, max_iter=50):
        """Newton-solve phi = 0 over the listed coordinates, holding the rest fixed,
        to max |phi| <= Tolerances.projection_target."""
        target = linalg.Tolerances.projection_target
        x = np.asarray(x, dtype=float).copy()
        free = list(free_indices)
        for it in range(max_iter):
            vals = self.values(x)
            if _max_abs(vals) <= target:
                return x, True, it
            j = self.jacobian(x)[:, free]
            step, *_ = np.linalg.lstsq(j, vals, rcond=None)
            x[free] = x[free] - step
        return x, self.residual(x) <= target, max_iter


def _max_abs(values):
    return float(np.max(np.abs(values)))


class ForceFrame:
    """An ordered frame of constraint-force sections (columns of a k x m field)."""

    def __init__(self, columns):
        self.columns = list(columns)
        if not self.columns:
            raise ShapeError("a force frame needs at least one section")
        k = self.columns[0].shape
        for c in self.columns:
            if len(c.shape) != 1 or c.shape != k:
                raise ShapeError("force sections must be vectors of equal length")
            if c.variables != self.columns[0].variables:
                raise ShapeError("force sections must share the same variables")

    @property
    def m(self):
        return len(self.columns)

    @property
    def k(self):
        return self.columns[0].shape[0]

    @property
    def variables(self):
        return self.columns[0].variables

    def at(self, x):
        return np.column_stack([c(x) for c in self.columns])


@dataclass
class GeneralizedNonholonomicSystem:
    base: LinearlySingularSystem
    constraints: SubmanifoldSpec
    forces: ForceFrame

    def __post_init__(self):
        if self.constraints.phi.variables != self.base.variables:
            raise ShapeError("constraints must use the base system's variables")
        if self.forces.variables != self.base.variables:
            raise ShapeError("forces must use the base system's variables")
        if self.forces.k != self.base.k:
            raise ShapeError(
                f"force sections live in the target fibre (length {self.base.k})"
            )

    @property
    def n(self):
        return self.base.n

    @property
    def a(self):
        return self.constraints.codim

    @property
    def m(self):
        return self.forces.m


def _regular_base_matrix(gnh, x, tols):
    b = gnh.base.A_at(x)
    if gnh.base.k != gnh.base.n or linalg.rank(b, tols) < gnh.base.n:
        raise BaseNotRegularError(
            "base morphism is not invertible at this point; "
            "use the linearly singular solve path instead"
        )
    return b


def _require_independent(gamma, m, tols):
    if linalg.rank(gamma, tols) < m:
        raise FrameDegenerateError("transported force frame is linearly dependent")


def H_frame_at(gnh, x, tols=linalg.DEFAULT_TOLERANCES):
    """Transported frame Gamma_mu = B(x)^{-1} Delta_mu(x), columns of an n x m array."""
    gnh.constraints.require_on(x)
    gamma = PointDynamics(gnh, tols).frame(x)
    _require_independent(gamma, gnh.m, tols)
    return gamma


def D_matrix_at(gnh, x, tols=linalg.DEFAULT_TOLERANCES):
    """Pairing D[alpha, mu] = dphi^alpha . Gamma_mu (an a x m matrix)."""
    gamma = H_frame_at(gnh, x, tols)
    return gnh.constraints.jacobian(x) @ gamma


@dataclass
class PointClassification:
    d_matrix: np.ndarray
    rank_d: int
    surjective: bool  # the projected-restricted morphism is onto
    injective: bool
    regular: bool


def classify_at(gnh, x, tols=linalg.DEFAULT_TOLERANCES):
    """Regularity of the restricted problem at x via ranks of the D-matrix."""
    d = D_matrix_at(gnh, x, tols)
    r = linalg.rank(d, tols)
    return PointClassification(
        d_matrix=d,
        rank_d=r,
        surjective=(r == gnh.a),
        injective=(r == gnh.m),
        regular=(gnh.a == gnh.m and r == gnh.a),
    )


@dataclass
class MultiplierResult:
    u: np.ndarray
    gauged: bool  # True when the solution is the minimum-norm representative
    residual: float


def multipliers_at(gnh, x, y_at, tols=linalg.DEFAULT_TOLERANCES):
    """Solve D u = -dphi . Y for the constraint multipliers at x.

    Unique when D is square invertible; otherwise the minimum-norm solution is
    returned with `gauged` set. Raises InconsistentSystemError when no u exists.
    """
    return constrained_field_at(gnh, x, y_at, tols)[1]


def constrained_field_at(gnh, x, y_at=None, tols=linalg.DEFAULT_TOLERANCES):
    """Value of the constrained dynamics X = Y + Gamma u at a point of M."""
    gnh.constraints.require_on(x)
    return PointDynamics(gnh, tols).evaluate(x, y_at)


def projectors_at(gnh, x, tols=linalg.DEFAULT_TOLERANCES):
    """Oblique projectors (P onto T_xM along H_x, Q = I - P)."""
    gamma = H_frame_at(gnh, x, tols)
    tm = linalg.kernel_basis(gnh.constraints.jacobian(x), tols)
    return linalg.complement_projectors(tm, gamma, tols)


def unconstrained_solution_at(gnh, x, tols=linalg.DEFAULT_TOLERANCES):
    """Y(x) = B(x)^{-1} g(x) for a regular base."""
    return PointDynamics(gnh, tols).unconstrained(x)


class PointDynamics:
    """The one evaluator of Y = B^{-1} g, Gamma = B^{-1} Delta, D = dphi . Gamma,
    the multipliers u of D u = -dphi . Y and X = Y + Gamma u, under `tols`.

    Once, here: a constant base's rank. Per call: a varying base's rank, then
    D u = -dphi . Y by `linalg.solve_affine` (gauged minimum-norm u when D is
    singular, InconsistentSystemError when no u exists), and, only when that
    solve is gauged or inconsistent, the frame's rank (FrameDegenerateError; a
    dependent frame forces rank D < m). Points are not checked against M.
    """

    def __init__(self, gnh, tols=linalg.DEFAULT_TOLERANCES):
        self.gnh = gnh
        self.tols = tols
        self._b_const = None
        if gnh.base.A.is_constant:
            self._b_const = _regular_base_matrix(gnh, np.zeros(gnh.n), tols)
        self._jphi = gnh.constraints.phi.jacobian_field()
        self._last = None  # (bytes of x, field_and_multipliers(x)) of the last solve

    def _base(self, x):
        if self._b_const is not None:
            return self._b_const
        return _regular_base_matrix(self.gnh, x, self.tols)

    def unconstrained(self, x):
        return np.linalg.solve(self._base(x), self.gnh.base.f_at(x))

    def frame(self, x):
        """Gamma = B^{-1} Delta at x, without the rank check of H_frame_at."""
        return np.linalg.solve(self._base(x), self.gnh.forces.at(x))

    def evaluate(self, x, y=None):
        """(X, MultiplierResult) at x; Y is B^{-1} g unless `y` is given."""
        y = self.unconstrained(x) if y is None else np.asarray(y, dtype=float)
        gamma = self.frame(x)
        jphi = self._jphi(x)
        sol = linalg.solve_affine(jphi @ gamma, -(jphi @ y), self.tols)
        gauged = sol.kernel.dim > 0
        if gauged or not sol.consistent:
            _require_independent(gamma, self.gnh.m, self.tols)
        if not sol.consistent:
            raise InconsistentSystemError(
                f"no multiplier solves the tangency condition (residual {sol.residual:.3e})"
            )
        return y + gamma @ sol.x0, MultiplierResult(sol.x0, gauged, sol.residual)

    def field_and_multipliers(self, x):
        xf, mult = self.evaluate(x)
        return xf, mult.u

    def _memo(self, x):
        # `integrate` records u at each stored state, which is where the next
        # RK4 step evaluates k1: one solve serves both. Points are compared by
        # value, bit for bit, which costs far less than np.array_equal.
        key = np.asarray(x, dtype=float).tobytes()
        if self._last is None or self._last[0] != key:
            self._last = (key, self.field_and_multipliers(x))
        return self._last[1]

    def field(self, x):
        return self._memo(x)[0]

    def multipliers(self, x):
        return self._memo(x)[1]
