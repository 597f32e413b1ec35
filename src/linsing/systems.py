"""Linearly singular differential equations A(x) x' = f(x).

A is a k x n matrix of expressions over the state variables, f a k-vector.
Consistency at a point means f(x) lies in the image of A(x). The constraint
algorithm differentiates A(x) x' - f(x) along solutions into a derivative array
and, at each seed point, reports the level at which it has no solution, or the
differentiation index and a consistent x' once it adds no more constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeError
from .expressions import Const, ExpressionField, Var, add, mul, sub

__all__ = [
    "LinearlySingularSystem",
    "identity_system",
    "consistency_at",
    "consistency_rows",
    "constraint_algorithm_sample",
]


@dataclass
class LinearlySingularSystem:
    """The pair (A, f): a bundle morphism matrix and a forcing section."""

    A: ExpressionField  # shape (k, n)
    f: ExpressionField  # shape (k,)

    def __post_init__(self):
        if len(self.A.shape) != 2:
            raise ShapeError("A must be a matrix field")
        if len(self.f.shape) != 1:
            raise ShapeError("f must be a vector field")
        if self.A.shape[0] != self.f.shape[0]:
            raise ShapeError(
                f"A has {self.A.shape[0]} rows but f has {self.f.shape[0]} entries"
            )
        if self.A.variables != self.f.variables:
            raise ShapeError("A and f must share the same variable tuple")

    @property
    def variables(self):
        return self.f.variables

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def k(self):
        return self.A.shape[0]


def identity_system(f):
    """Explicit system x' = f(x): A is the identity on the state space."""
    n = f.shape[0]
    rows = [[Const(1.0) if i == j else Const(0.0) for j in range(n)] for i in range(n)]
    return LinearlySingularSystem(ExpressionField.matrix(rows, f.variables), f)


@dataclass
class ConsistencyResult:
    consistent: bool
    residual: float
    rank_A: int
    solution: linalg.AffineSolutionSet


def consistency_at(sys, x, tols=linalg.DEFAULT_TOLERANCES):
    """Does f(x) lie in the image of A(x)? `consistency_rows` of a batch of one."""
    return consistency_rows(sys, np.asarray(x, dtype=float)[None], tols)[0]


def consistency_rows(sys, points, tols=linalg.DEFAULT_TOLERANCES):
    """ConsistencyResult of A v = f at each row of an (N, n) array of points,
    from one evaluation of A and f over the batch and one stacked solve; rank_A
    comes from the same solve."""
    pts = np.asarray(points, dtype=float)
    sol = linalg.solve_affine(sys.A.rows(pts), sys.f.rows(pts), tols)
    out = []
    for i in range(len(pts)):
        one = sol.item(i)
        out.append(ConsistencyResult(one.consistent, one.residual, sys.n - one.kernel.dim, one))
    return out


# ------------------------------------------ derivative-array constraint algorithm

@dataclass
class SeedClassification:
    seed: np.ndarray
    survives: bool
    failure_level: int | None
    levels_run: int
    rank_A: int
    index: int | None  # smallest level whose array fixes x'; None if none run did
    velocity: np.ndarray | None  # an x' solving the last level run; None on failure


@dataclass
class ConstraintAlgorithmResult:
    seeds: list
    warnings: list
    converged: bool
    max_levels: int


def _dot(exprs, names):
    total = Const(0.0)
    for e, name in zip(exprs, names):
        total = add(total, mul(e, Var(name)))
    return total


class _DerivativeArray:
    """G_0 = A(x) x' - f(x) and G_k = D_t G_(k-1), D_t = sum_j sum_i x^(j+1)_i
    d/dx^(j)_i; level k (G_0..G_k over x, ..., x^(k+1)) is built on first use.
    x^(j) is named `name^(j)`, which no state name (such as q1') can be."""

    def __init__(self, sys):
        self.state, self.block = list(sys.variables), sys.k
        self.names = self.state + [f"{v}^(1)" for v in self.state]
        a, n = sys.A.entries, sys.n
        self.equations = [sub(_dot(a[i * n:(i + 1) * n], self.names[n:]), fi)
                          for i, fi in enumerate(sys.f.entries)]
        self.levels = []

    def level(self, k):
        """SubmanifoldSpec of G_0..G_k = 0."""
        from .nonholonomic import SubmanifoldSpec  # nonholonomic imports this module
        while len(self.levels) <= k:
            if self.levels:
                # D_t of the last block sums the rows of the previous Jacobian
                jac = self.levels[-1].phi.jacobian_field().entries
                width, n = len(self.names), len(self.state)
                self.names += [f"{v}^({width // n})" for v in self.state]
                last = range(len(self.equations) - self.block, len(self.equations))
                self.equations += [_dot(jac[r * width:(r + 1) * width], self.names[n:])
                                   for r in last]
            shape = (len(self.equations),)
            self.levels.append(SubmanifoldSpec(ExpressionField(self.equations, self.names, shape)))
        return self.levels[k]


def _classify_seed(sys, array, seed, max_levels, tols):
    """SeedClassification of one seed, and whether its constraints settled."""
    seed = np.asarray(seed, dtype=float)
    n, level0 = sys.n, consistency_at(sys, seed, tols)
    z, found, index = level0.solution.x0, 0, None  # found: constraints on x (c_k)
    for k in range(max_levels + 1):
        spec = array.level(k)
        point, ok, _ = spec.lift(np.concatenate([seed, z]), range(n, n + len(z)))
        if not ok:
            return SeedClassification(seed, False, k, k, level0.rank_A, index, None), True
        jac = spec.jacobian(point)
        rank_deriv = linalg.rank(jac[:, n:], tols)
        if index is None and rank_deriv - linalg.rank(jac[:, 2 * n:], tols) == n:
            index = k
        found, before = linalg.rank(jac, tols) - rank_deriv, found
        if found <= before:
            break
        z = np.concatenate([point[n:], np.zeros(n)])
    verdict = SeedClassification(seed, True, None, k, level0.rank_A, index, point[n:2 * n])
    return verdict, found <= before


def constraint_algorithm_sample(sys, seeds, max_levels=None, tols=linalg.DEFAULT_TOLERANCES):
    """Run the derivative-array constraint algorithm at each seed point.

    Level k holds x at the seed and solves G_0..G_k = 0 over the derivative
    variables (`SubmanifoldSpec.lift`, from the minimum-norm x' at level 0, then
    from the previous solution with zeros appended); a lift that does not
    converge is the seed's failure level. The seed survives at the first level
    where c_k = rank dG - rank d_(x', ..., x^(k+1))G, the number of independent
    constraints on x, stops growing (c_(-1) = 0). A seed not settled by
    `max_levels` (default n + 1) survives but clears `converged` and warns.
    """
    max_levels = sys.n + 1 if max_levels is None else max_levels
    array = _DerivativeArray(sys)
    seed_results, warnings, level0_ranks = [], [], {}
    for si, seed in enumerate(seeds):
        verdict, settled = _classify_seed(sys, array, seed, max_levels, tols)
        seed_results.append(verdict)
        level0_ranks.setdefault(verdict.rank_A, []).append(si)
        if not settled:
            warnings.append(f"seed {si}: constraints still growing at level {max_levels}")
    converged = not warnings
    if len(level0_ranks) > 1:
        detail = ", ".join(f"rank {r} at seeds {ix}" for r, ix in sorted(level0_ranks.items()))
        warnings.append(f"rank of A varies across seeds at level 0: {detail}")
    return ConstraintAlgorithmResult(seed_results, warnings, converged, max_levels)
