"""Lagrangian mechanics as a linearly singular system on the velocity phase space.

Coordinates are (q^1..q^n, v^1..v^n). From a Lagrangian expression L(q, v) the
model derives the momenta p_i = dL/dv^i, the energy E = v^i p_i - L, and the
matrix of the map X -> i_X omega_L, where omega_L = -d(p_i dq^i):

    A = [[ N - N^T, -W ],      W_ij = d2L/dv_i dv_j,
         [ W,        0 ]]      N_ab = d2L/dq_a dv_b.

The dynamics is A(x) X = dE(x); L is regular exactly where W is invertible.
"""

from __future__ import annotations

from .errors import MaxRankViolatedError, ShapeError
from .expressions import (Const, ExpressionField, Var, add, derivative, derivative_columns, mul,
                          neg, parse, sub)
from .nonholonomic import SubmanifoldSpec
from .systems import LinearlySingularSystem

__all__ = [
    "LagrangianModel",
    "build_lagrangian_model",
    "build_lagrangian_system",
    "chetaev_frame",
]


class LagrangianModel:
    def __init__(self, q_names, v_names, L):
        if len(q_names) != len(v_names):
            raise ShapeError("need one velocity name per position name")
        self.q_names = tuple(q_names)
        self.v_names = tuple(v_names)
        self.L = L  # Expr
        self.variables = self.q_names + self.v_names
        self.momenta = [derivative(self.L, v) for v in self.v_names]
        energy = Const(0.0)
        for vname, p in zip(self.v_names, self.momenta):
            energy = add(energy, mul(Var(vname), p))
        self.energy = sub(energy, self.L)
        self.energy_field = ExpressionField([self.energy], self.variables, ())
        # row i of W (of N) holds the momenta differentiated by v_i (by q_i)
        columns = derivative_columns(self.momenta, self.v_names + self.q_names)
        self._w, self._n_qv = columns[:len(self.v_names)], columns[len(self.v_names):]
        self._omega = None

    @property
    def nq(self):
        return len(self.q_names)

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


def chetaev_frame(model, phi):
    """Force frame Delta^i = (dphi^i/dv^j) dq^j attached to velocity constraints:
    the (2n, a) matrix field [vjac^T; 0] of the velocity Jacobian vjac = dphi/dv.

    Raises MaxRankViolatedError when the constraints do not depend on the
    velocities at all; a frame that is degenerate at a point raises
    FrameDegenerateError when the flow is evaluated there.
    """
    if isinstance(phi, SubmanifoldSpec):
        phi = phi.phi
    a, n = phi.shape[0], model.nq
    columns = derivative_columns(phi.entries, model.v_names)
    vjac = ExpressionField.matrix(list(zip(*columns)), model.variables)
    if all(isinstance(d, Const) and d.value == 0.0 for d in vjac.entries):
        raise MaxRankViolatedError(
            "constraints are independent of the velocities; the attached frame vanishes"
        )
    rows = [list(vjac.entries[j::n]) for j in range(n)] + [[Const(0.0)] * a] * n
    return ExpressionField.matrix(rows, model.variables)

