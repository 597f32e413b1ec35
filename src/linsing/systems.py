"""Linearly singular differential equations A(x) x' = f(x).

A is a k x n matrix of expressions over the state variables, f a k-vector.
Consistency at a point means f(x) lies in the image of A(x); the sampled
constraint algorithm classifies seed points by the first level at which the
tangency-augmented problem becomes infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ShapeError
from .expressions import Const, ExpressionField, add, mul

__all__ = [
    "LinearlySingularSystem",
    "make_system",
    "identity_system",
    "consistency_at",
    "primary_constraint_values",
    "solve_at",
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

    def A_at(self, x):
        return self.A(x)

    def f_at(self, x):
        return self.f(x)


def make_system(A, f):
    """Validated constructor for LinearlySingularSystem."""
    return LinearlySingularSystem(A, f)


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
    """Does f(x) lie in the image of A(x)? rank_A comes from the same solve."""
    sol = linalg.solve_affine(sys.A_at(x), sys.f_at(x), tols)
    return ConsistencyResult(sol.consistent, sol.residual, sys.n - sol.kernel.dim, sol)


def primary_constraint_values(sys, x, tols=linalg.DEFAULT_TOLERANCES):
    """Pairings <w_i(x), f(x)> over the deterministic cokernel basis of A(x).

    All small (at tol_img) exactly when the point is consistent; the Euclidean
    norm of the vector is gauge-free.
    """
    w = linalg.cokernel_basis(sys.A_at(x), tols)
    return w.vectors.T @ sys.f_at(x)


def solve_at(sys, x, extra_rows=None, extra_rhs=None, tols=linalg.DEFAULT_TOLERANCES):
    """Solve A(x) v = f(x), optionally stacked with extra linear rows C v = d."""
    a = sys.A_at(x)
    b = sys.f_at(x)
    if extra_rows is not None:
        extra_rows = np.atleast_2d(np.asarray(extra_rows, dtype=float))
        if extra_rhs is None:
            extra_rhs = np.zeros(extra_rows.shape[0])
        a = np.vstack([a, extra_rows])
        b = np.concatenate([b, np.asarray(extra_rhs, dtype=float).reshape(-1)])
    return linalg.solve_affine(a, b, tols)


# ------------------------------------------------- sampled constraint algorithm

@dataclass
class StackedConstraint:
    """One scalar constraint discovered by the algorithm.

    `psi` is a symbolic representation in the cokernel gauge frozen at the
    originating point (exact for constant-A systems, exact at that point in
    general); `evaluator` is the pointwise, gauge-deterministic function used
    by the algorithm itself.
    """

    level: int
    psi: ExpressionField  # scalar
    seed_index: int
    cokernel_index: int
    evaluator: object = field(repr=False, default=None)
    gradient_at_seed: np.ndarray | None = field(repr=False, default=None)


@dataclass
class ConstraintStack:
    constraints: list

    def values(self, x):
        return np.array([c.psi(x) for c in self.constraints])


@dataclass
class SeedClassification:
    seed: np.ndarray
    survives: bool
    failure_level: int | None
    levels_run: int
    rank_A: int


@dataclass
class ConstraintAlgorithmResult:
    stack: ConstraintStack
    seeds: list
    warnings: list
    converged: bool
    max_levels: int


def _frozen_gauge_psi(sys, w):
    """Symbolic psi = <w, f> with the cokernel vector w frozen as constants."""
    expr = Const(0.0)
    for wi, fe in zip(w, sys.f.entries):
        expr = add(expr, mul(Const(float(wi)), fe))
    return ExpressionField([expr], sys.variables, ())


def _level0_gradient(sys, x, w, x0):
    """Exact gradient of psi_w(y) = <w(y), f(y)> at a consistent point x.

    Uses d psi . delta = w^T (Df . delta - (D_delta A) x0), valid for any
    particular solution x0 of A(x) v = f(x); the choice drops out because
    w^T (D_delta A) k = 0 for kernel vectors k.
    """
    jf = sys.f.jacobian_field()(x)
    row = w @ jf
    for j, pa in enumerate(sys.A.partial_fields()):
        row[j] -= float(w @ (pa(x) @ x0))
    return row


def constraint_algorithm_sample(sys, seeds, max_levels=None, tols=linalg.DEFAULT_TOLERANCES):
    """Run the tangency recursion pointwise over a set of seed points.

    Level 0 checks f(x) ∈ Im A(x). Each later level stacks the gradients of all
    constraints found so far on top of A(x) and re-solves; a seed is labeled
    with the first level at which the stacked problem becomes infeasible, or
    marked as surviving once no new (rank-increasing) constraints appear.

    Returns a ConstraintAlgorithmResult with the shared constraint stack (in
    the gauge of the first constraint-producing seed), per-seed labels, rank
    instability warnings and a convergence flag.
    """
    if max_levels is None:
        max_levels = sys.n + 1
    stack_entries = []
    seed_results = []
    warnings = []
    converged = True
    level0_ranks = {}

    for si, seed in enumerate(seeds):
        seed = np.asarray(seed, dtype=float)
        a = sys.A_at(seed)
        sol = linalg.solve_affine(a, sys.f_at(seed), tols)
        rank_a = sys.n - sol.kernel.dim
        level0_ranks.setdefault(rank_a, []).append(si)
        if not sol.consistent:
            seed_results.append(SeedClassification(seed, False, 0, 0, rank_a))
            continue

        # accumulated tangency rows at this seed
        rows = np.zeros((0, sys.n))
        stack_is_mine = not stack_entries or all(e.seed_index == si for e in stack_entries)
        w0 = linalg.cokernel_basis(a, tols)
        for ci in range(w0.dim):
            w = w0.vectors[:, ci].copy()
            grad = _level0_gradient(sys, seed, w, sol.x0)
            rows = np.vstack([rows, grad.reshape(1, -1)])

            def ev0(y, _w=w, _sys=sys, _tols=tols):
                # pointwise gauge: recompute the cokernel at y, keep the
                # component best aligned with the frozen direction
                wy = linalg.cokernel_basis(_sys.A_at(y), _tols)
                if wy.dim == 0:
                    return 0.0
                proj = wy.vectors @ (wy.vectors.T @ _w)
                nrm = np.linalg.norm(proj)
                if nrm < 1e-12:
                    return float(np.linalg.norm(wy.vectors.T @ _sys.f_at(y)))
                return float((proj / nrm) @ _sys.f_at(y))

            if stack_is_mine:
                stack_entries.append(
                    StackedConstraint(0, _frozen_gauge_psi(sys, w), si, ci, ev0, grad)
                )

        if w0.dim == 0:
            # regular (or at least surjective) point: nothing to add
            seed_results.append(SeedClassification(seed, True, None, 0, rank_a))
            continue

        survives = None
        failure_level = None
        level = 0
        while level < max_levels:
            level += 1
            stacked = np.vstack([a, rows])
            rhs = np.concatenate([sys.f_at(seed), np.zeros(rows.shape[0])])
            sol_l = linalg.solve_affine(stacked, rhs, tols)
            if not sol_l.consistent:
                survives = False
                failure_level = level
                break
            # candidate new constraints: cokernel directions of the stacked
            # matrix whose induced constraint function adds gradient rank
            wl = linalg.cokernel_basis(stacked, tols)
            base_rank = linalg.rank(rows, tols) if rows.size else 0
            added = False
            for ci in range(wl.dim):
                wfull = wl.vectors[:, ci]
                w_a = wfull[: sys.k]
                if np.linalg.norm(w_a) <= 1e-12:
                    continue  # pairs only the synthetic rows: no new function
                # the induced constraint function is y -> <w_a, f(y)> up to the
                # row block (constant covectors, zero rhs); its gradient at the
                # seed comes from the same exact level-0 identity
                grad = _level0_gradient(sys, seed, w_a, sol_l.x0)
                trial = np.vstack([rows, grad.reshape(1, -1)])
                if linalg.rank(trial, tols) > base_rank:
                    rows = trial
                    base_rank += 1
                    added = True

                    def ev_l(y, _wa=w_a.copy(), _sys=sys):
                        return float(_wa @ _sys.f_at(y))

                    if stack_is_mine:
                        stack_entries.append(
                            StackedConstraint(level, _frozen_gauge_psi(sys, w_a), si, ci, ev_l, grad)
                        )
            if not added:
                survives = True
                break
        if survives is None:
            converged = False
            warnings.append(
                f"seed {si}: constraint recursion still producing rows at level {max_levels}"
            )
            survives = True  # not disproven; flagged through `converged`
        seed_results.append(SeedClassification(seed, survives, failure_level, level, rank_a))

    if len(level0_ranks) > 1:
        detail = ", ".join(f"rank {r} at seeds {ix}" for r, ix in sorted(level0_ranks.items()))
        warnings.append(f"rank of A varies across seeds at level 0: {detail}")

    return ConstraintAlgorithmResult(
        ConstraintStack(stack_entries), seed_results, warnings, converged, max_levels
    )
