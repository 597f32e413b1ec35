"""Lagrangian mechanics as a linearly singular system on the velocity phase space.

Coordinates are (q^1..q^n, v^1..v^n). From a Lagrangian expression L(q, v) the
model derives the momenta p_i = dL/dv^i, the energy E = v^i p_i - L, and the
matrix of the map X -> i_X omega_L, where omega_L = -d(p_i dq^i):

    A = [[ N - N^T, -W ],      W_ij = d2L/dv_i dv_j,
         [ W,        0 ]]      N_ab = d2L/dq_a dv_b.

The dynamics is A(x) X = dE(x); L is regular exactly where W is invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InconsistentSystemError, MaxRankViolatedError, ShapeError
from .expressions import Const, ExpressionField, Var, add, derivative, mul, neg, parse, sub
from .nonholonomic import ForceFrame, GeneralizedNonholonomicSystem, SubmanifoldSpec
from .systems import LinearlySingularSystem

__all__ = [
    "LagrangianModel",
    "build_lagrangian_model",
    "build_lagrangian_system",
    "regularity_of_L",
    "chetaev_frame",
    "nonholonomic_lagrangian",
    "sode_solve_at",
    "sode_solve",
    "SodeSolution",
]


@dataclass
class LagrangianModel:
    q_names: tuple
    v_names: tuple
    L: object  # Expr

    def __post_init__(self):
        if len(self.q_names) != len(self.v_names):
            raise ShapeError("need one velocity name per position name")
        self.q_names = tuple(self.q_names)
        self.v_names = tuple(self.v_names)
        self.variables = self.q_names + self.v_names
        n = self.nq
        self.momenta = [derivative(self.L, v) for v in self.v_names]
        energy = Const(0.0)
        for vname, p in zip(self.v_names, self.momenta):
            energy = add(energy, mul(Var(vname), p))
        self.energy = sub(energy, self.L)
        self.energy_field = ExpressionField([self.energy], self.variables, ())
        self._w = [
            [derivative(self.momenta[j], self.v_names[i]) for j in range(n)]
            for i in range(n)
        ]
        self._n_qv = [
            [derivative(self.momenta[b], self.q_names[a]) for b in range(n)]
            for a in range(n)
        ]
        self._omega = None
        self._hessian_field = None

    @property
    def nq(self):
        return len(self.q_names)

    def theta_field(self):
        """Cartan 1-form components (p_i in the dq slots, zeros in the dv slots)."""
        zeros = [Const(0.0)] * self.nq
        return ExpressionField.vector(list(self.momenta) + zeros, self.variables)

    def velocity_hessian_field(self):
        if self._hessian_field is None:
            self._hessian_field = ExpressionField.matrix(self._w, self.variables)
        return self._hessian_field

    def omega_matrix_field(self):
        """Matrix field of X -> i_X omega_L in the (q, v) basis."""
        if self._omega is None:
            n = self.nq
            rows = []
            for a in range(n):
                row = [sub(self._n_qv[a][b], self._n_qv[b][a]) for b in range(n)]
                row += [neg(self._w[a][b]) for b in range(n)]
                rows.append(row)
            for i in range(n):
                row = [self._w[i][b] for b in range(n)]
                row += [Const(0.0)] * n
                rows.append(row)
            self._omega = ExpressionField.matrix(rows, self.variables)
        return self._omega


def build_lagrangian_model(L, q_names, v_names=None):
    """Create a LagrangianModel; `L` may be text or an Expr.

    When `v_names` is omitted the velocities are the position names with a
    trailing apostrophe (x -> x').
    """
    q_names = list(q_names)
    if v_names is None:
        v_names = [q + "'" for q in q_names]
    variables = list(q_names) + list(v_names)
    if isinstance(L, str):
        L = parse(L, variables)
    return LagrangianModel(tuple(q_names), tuple(v_names), L)


def build_lagrangian_system(model):
    """The linearly singular system (omega-hat matrix, dE) of a Lagrangian."""
    return LinearlySingularSystem(
        model.omega_matrix_field(), model.energy_field.gradient()
    )


def regularity_of_L(model, points, tols=linalg.DEFAULT_TOLERANCES):
    """Per-point regularity verdicts, with the dual rank criterion cross-checked.

    L is regular at x iff the velocity Hessian W(x) has full rank, equivalently
    iff the omega matrix has full rank 2n; the two routes must agree.
    """
    wf = model.velocity_hessian_field()
    of = model.omega_matrix_field()
    n = model.nq
    out = []
    for x in points:
        rw = linalg.rank(wf(x), tols)
        ro = linalg.rank(of(x), tols)
        if (rw == n) != (ro == 2 * n):
            raise AssertionError(
                f"rank criteria disagree at {x}: rank W = {rw}, rank omega = {ro}"
            )
        out.append(rw == n)
    return out


def chetaev_frame(model, phi, check_points=None, tols=linalg.DEFAULT_TOLERANCES):
    """Force frame Delta^i = (dphi^i/dv^j) dq^j attached to velocity constraints.

    Raises MaxRankViolatedError when the constraints do not depend on the
    velocities at all, or (for the points supplied) when the velocity Jacobian
    dphi/dv drops rank.
    """
    if isinstance(phi, SubmanifoldSpec):
        phi = phi.phi
    a = phi.shape[0]
    n = model.nq
    columns = []
    all_zero = True
    for i in range(a):
        comps = []
        for v in model.v_names:
            d = derivative(phi.entries[i], v)
            if not (isinstance(d, Const) and d.value == 0.0):
                all_zero = False
            comps.append(d)
        comps += [Const(0.0)] * n
        columns.append(ExpressionField.vector(comps, model.variables))
    if all_zero:
        raise MaxRankViolatedError(
            "constraints are independent of the velocities; the attached frame vanishes"
        )
    if check_points is not None:
        vjac = ExpressionField.matrix(
            [[derivative(phi.entries[i], v) for v in model.v_names] for i in range(a)],
            model.variables,
        )
        for x in check_points:
            if linalg.rank(vjac(x), tols) < a:
                raise MaxRankViolatedError(
                    "velocity Jacobian of the constraints drops rank", point=np.asarray(x)
                )
    return ForceFrame(columns)


def nonholonomic_lagrangian(model, phi, forces=None, check_points=None,
                            tols=linalg.DEFAULT_TOLERANCES):
    """Bundle a Lagrangian with velocity constraints into a nonholonomic system."""
    if not isinstance(phi, SubmanifoldSpec):
        phi = SubmanifoldSpec(phi)
    if forces is None:
        forces = chetaev_frame(model, phi, check_points, tols)
    return GeneralizedNonholonomicSystem(
        base=build_lagrangian_system(model), constraints=phi, forces=forces
    )


@dataclass
class SodeSolution:
    x0: np.ndarray
    kernel: linalg.SubspaceBasis
    residual: float
    unique: bool


def sode_solve_at(model, phi, x, forces=None, tols=linalg.DEFAULT_TOLERANCES):
    """Solve the constrained equation at x for singular (or regular) Lagrangians.

    Stacks three row groups and solves by least squares:
      * force-relaxed rows  C^T A(x) X = C^T dE(x), where the columns of C span
        the complement of the force directions (so A X - dE may fall in their span),
      * tangency rows       dphi(x) X = 0,
      * second-order rows   (q-components of X) = v.

    Raises NotOnManifoldError off M and InconsistentSystemError when the stacked
    problem is infeasible; `unique` reports whether the kernel is trivial.
    """
    if not isinstance(phi, SubmanifoldSpec):
        phi = SubmanifoldSpec(phi)
    phi.require_on(x)
    return sode_solve(model, phi, x, forces, tols)


def sode_solve(model, phi, x, forces=None, tols=linalg.DEFAULT_TOLERANCES):
    """`sode_solve_at` without its on-manifold check (RK stage points lie off M)."""
    if not isinstance(phi, SubmanifoldSpec):
        phi = SubmanifoldSpec(phi)
    x = np.asarray(x, dtype=float)
    if forces is None:
        forces = chetaev_frame(model, phi, tols=tols)
    n = model.nq
    a_mat = model.omega_matrix_field()(x)
    f_vec = model.energy_field.gradient()(x)
    delta = forces.at(x)
    comp = linalg.cokernel_basis(delta, tols)  # complement of span Delta in the fibre
    relaxed_rows = comp.vectors.T @ a_mat
    relaxed_rhs = comp.vectors.T @ f_vec
    tangency = phi.jacobian(x)
    sode_rows = np.hstack([np.eye(n), np.zeros((n, n))])
    sode_rhs = x[n:]
    stacked = np.vstack([relaxed_rows, tangency, sode_rows])
    rhs = np.concatenate([relaxed_rhs, np.zeros(tangency.shape[0]), sode_rhs])
    sol = linalg.solve_affine(stacked, rhs, tols)
    if not sol.consistent:
        raise InconsistentSystemError(
            f"no second-order solution through this point (residual {sol.residual:.3e})"
        )
    return SodeSolution(sol.x0, sol.kernel, sol.residual, sol.kernel.dim == 0)
