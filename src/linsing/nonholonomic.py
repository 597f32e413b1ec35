"""Generalized nonholonomic systems: a base pair (B, g), a constraint submanifold
M = {phi = 0}, and a frame of constraint-force directions.

The quotient bundle never gets materialized: the flow comes from one bordered
solve of the base rows, the tangency rows and the unknowns (X, u), and the
classification from the transported frame Gamma_mu = B^{-1} Delta_mu, the
pairing matrix D = dphi . Gamma, and span residuals. `PointDynamics` is the one
evaluator of the flow and of these quantities in every mode.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import linalg
from .errors import (
    BaseNotRegularError,
    FrameDegenerateError,
    InconsistentSystemError,
    NonFiniteError,
    NotOnManifoldError,
    ShapeError,
    raise_first,
)
from .expressions import Add, Compiled, Const, Var, add, mul, neg, sub

__all__ = [
    "SubmanifoldSpec",
    "Projection",
    "GeneralizedNonholonomicSystem",
    "PointDynamics",
]


class SubmanifoldSpec:
    """Level set M = {phi = 0} of a vector of scalar constraint expressions."""

    def __init__(self, phi):
        self.phi = phi  # shape (a,)
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
        """Distance to M as the on-manifold test measures it: max |phi(x)|; for
        an (N, n) batch of points, an (N,) array from one evaluation of phi."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return np.max(np.abs(self.phi.rows(x)), axis=1)
        return _max_abs(self.values(x))

    def is_on(self, x):
        return self.residual(x) <= linalg.Tolerances.on_manifold

    def require_on(self, x):
        """Raise NotOnManifoldError unless x lies on M; for a batch of points,
        naming the first point off M. A NaN residual is off M."""
        worst = np.atleast_1d(self.residual(x))
        raise_first((~(worst <= linalg.Tolerances.on_manifold), lambda i: NotOnManifoldError(
            f"point violates the constraints: max |phi| = {worst[i]:.3e}")))

    def project(self, x):
        """Gauss-Newton projection of one point onto M; returns a Projection."""
        return self.lift(x, range(len(x)), linalg.Tolerances.projection_iterations)

    def lift(self, x, free_indices, max_iter=50):
        """Gauss-Newton solve of phi = 0 over the listed coordinates, holding the
        rest fixed, for one point or for each row of an (N, n) array of points;
        returns a Projection (of arrays, one entry per row, for a batch). A
        point given as a list of floats comes back as a list of floats.

        A row stops at max |phi| <= Tolerances.projection_target, at the
        rounding floor of phi there when that is larger (measured with the
        Jacobian each step computes), or after `max_iter` steps. Each iteration
        evaluates phi and its Jacobian once over the rows still moving and takes
        their minimum-norm steps together (`linalg.min_norm_rows`, singular
        values cut by the default `Tolerances.rank_tol`). A non-finite value of
        phi or of its Jacobian at a row that must move raises NonFiniteError.
        """
        as_list = isinstance(x, list)
        if not as_list:
            x = np.asarray(x, dtype=float)
            if x.ndim == 2:
                return Projection(*self._gauss_newton(x, free_indices, max_iter, self.phi.rows(x)))
        vals = self.phi._compiled.scalar()(x)
        target = linalg.Tolerances.projection_target
        if all(abs(v) <= target for v in vals):  # every step of `integrate`; False on NaN
            return Projection(x.copy(), True, 0, max(map(abs, vals)))
        point, ok, its, res = self._gauss_newton(
            np.asarray(x, dtype=float)[None], free_indices, max_iter, np.array(vals)[None])
        point = point[0].tolist() if as_list else point[0]
        return Projection(point, bool(ok[0]), int(its[0]), float(res[0]))

    def _gauss_newton(self, x, free_indices, max_iter, vals):
        """(points, converged, iterations, residuals) of `lift` on the rows of x,
        `vals` holding phi at them."""
        target = linalg.Tolerances.projection_target
        rounding = linalg.Tolerances.projection_rounding * np.finfo(float).eps
        jac_field = self.phi.jacobian_field()
        free = np.asarray(list(free_indices), dtype=int)
        x = x.copy()
        converged = np.zeros(len(x), dtype=bool)
        iterations = np.zeros(len(x), dtype=int)
        residual = np.zeros(len(x))
        active = np.arange(len(x))  # the rows still moving, in row order
        for it in range(max_iter + 1):
            worst = np.max(np.abs(vals), axis=1)
            done = worst <= target
            if it < max_iter and not done.all():
                move = np.flatnonzero(~done)
                xm = x[active[move]]
                jac = jac_field.rows(xm)
                if not (np.isfinite(jac).all() and np.isfinite(worst[move]).all()):
                    raise NonFiniteError("the projection onto M met a non-finite "
                                         "constraint value or derivative")
                floor = rounding * np.max(np.abs(jac) @ np.abs(xm)[:, :, None], axis=(1, 2))
                at_floor = worst[move] <= floor
                done[move[at_floor]] = True
                jac = jac[~at_floor]
            stop = done if it < max_iter else np.ones_like(done)
            converged[active[done]] = True
            iterations[active[stop]] = it
            residual[active[stop]] = worst[stop]
            if stop.all():
                break
            active, vals, worst = active[~stop], vals[~stop], worst[~stop]
            cells = np.ix_(active, free)
            with linalg._float_errors():  # the next check reports it
                steps = linalg.min_norm_rows(jac[:, :, free], vals)
                x[cells] = x[cells] - steps
            # a zero step (a Jacobian of rank 0) leaves its row in place, so each
            # later iteration would repeat this one up to the cap: end it there
            still = steps.any(axis=1)
            if not still.all():
                iterations[active[~still]] = max_iter
                residual[active[~still]] = worst[~still]
                active = active[still]
                if not active.size:
                    break
            vals = self.phi.rows(x[active])
        return x, converged, iterations, residual


class Projection(tuple):
    """(point, converged, iterations), with `residual`: max |phi| at the point;
    for a batch, each holds one entry per row."""

    def __new__(cls, point, converged, iterations, residual):
        self = super().__new__(cls, (point, converged, iterations))
        self.residual = residual
        return self


def _max_abs(values):
    return float(np.max(np.abs(values)))


class GeneralizedNonholonomicSystem:
    def __init__(self, base, constraints, forces):
        self.base = base  # a LinearlySingularSystem
        self.constraints = constraints  # a SubmanifoldSpec
        self.forces = forces  # shape (k, m): column mu is the force direction Delta_mu
        if self.constraints.phi.variables != self.base.variables:
            raise ShapeError("constraints must use the base system's variables")
        if self.forces.variables != self.base.variables:
            raise ShapeError("forces must use the base system's variables")
        if len(self.forces.shape) != 2 or self.forces.shape[0] != self.base.k:
            raise ShapeError(
                f"force sections live in the target fibre: the frame needs {self.base.k} rows"
            )
        if self.forces.shape[1] < 1:
            raise ShapeError("a force frame needs at least one section")

    @property
    def n(self):
        return self.base.n

    @property
    def a(self):
        return self.constraints.codim

    @property
    def m(self):
        return self.forces.shape[1]


def _require_independent(gamma, m, tols):
    """Raise FrameDegenerateError unless the frame has rank m; for a stack of
    frames, naming the first dependent one."""
    raise_first((np.atleast_1d(linalg.rank(gamma, tols) < m), lambda i: FrameDegenerateError(
        "transported force frame is linearly dependent")))


def _dims(kernels):
    """The dimensions of a list of kernel bases, as an int array."""
    return np.array([kern.dim for kern in kernels], dtype=int)


class PointClassification:
    def __init__(self, d_matrix, rank_d, surjective, injective, regular):
        self.d_matrix = d_matrix
        self.rank_d = rank_d
        self.surjective = surjective  # the projected-restricted morphism is onto
        self.injective = injective
        self.regular = regular


class MultiplierResult:
    def __init__(self, u, gauged, residual):
        self.u = u
        self.gauged = gauged  # True when the solution is the minimum-norm representative
        self.residual = residual


class PointAnalysis:
    """What `PointDynamics.analysis` finds at a point of M with a regular base."""

    def __init__(self, classification, y, field, multipliers, projectors):
        self.classification = classification  # a PointClassification
        self.y = y  # Y = B^{-1} g
        self.field = field  # X = Y + Gamma u
        self.multipliers = multipliers  # a MultiplierResult
        # (P onto T_xM along H_x, Q = Gamma D^{-1} dphi = I - P); None unless regular
        self.projectors = projectors


def _fused_kernel(parts, variables):
    """(kernel, buffer, views, spans) of one evaluation: a `Compiled` over the
    entries of `parts`, a list of (entries, shape) in the variables, in their
    order, the buffer the scalar runner's values are written to, a fixed
    row-major view of the buffer per part, and the (start, stop, shape) of each
    part's values in a row of the kernel. Entries shared between parts are
    computed once, and a DomainEvalError names the first faulting entry in this
    order (dphi, Gamma, Y, D, c on the Schur route; rhs, matrix on the
    bordered)."""
    entries = [e for part, _ in parts for e in part]
    buf = np.empty(len(entries))
    views, spans, start = [], [], 0
    for part, shape in parts:
        stop = start + len(part)
        views.append(buf[start:stop].reshape(shape))
        spans.append((start, stop, shape))
        start = stop
    return Compiled(entries, variables), buf, views, spans


def _bordered_system(a_fld, f, forces, jphi, s):
    """[rhs, matrix], each (entries, shape), of the bordered system
    [A, -Delta; dphi, 0] (X, u) = (g, 0), or of A X = g when forces and dphi
    are None, with its first s unknowns, X_q = v for the last s variables v,
    substituted: the matrix is [A_v, -Delta; dphi_v, 0] and the rhs
    (g - A_q v, -dphi_q v), A_q being A's first s columns and A_v the rest
    (dphi alike). An rhs entry subtracts its products from g_i, or from +0,
    left to right; the folding builders leave out a product with a zero
    constant. The entries are built from checked fields and variables, so
    they are not walked again as a new ExpressionField would walk them."""
    k, n = a_fld.shape
    m = 0 if forces is None else forces.shape[1]
    neg_frame = [] if forces is None else [neg(e) for e in forces.entries]
    rows = [(a_fld.entries[i * n:(i + 1) * n], f.entries[i], neg_frame[i * m:(i + 1) * m])
            for i in range(k)]
    rows += [(jphi.entries[r * n:(r + 1) * n], Const(0.0), [Const(0.0)] * m)
             for r in range(0 if jphi is None else jphi.shape[0])]
    rhs, mat = [], []
    for coeffs, entry, tail in rows:
        for c, name in zip(coeffs, a_fld.variables[n - s:]):
            entry = sub(entry, mul(c, Var(name)))
        rhs.append(entry)
        mat += list(coeffs[s:]) + tail
    return [(rhs, (len(rows),)), (mat, (len(rows), n - s + m))]


def _fold_dot(row, col):
    """sum_i row_i * col_i as one expression: the products added to +0, left
    to right, as numpy's matrix products start their sums. A product with a
    zero constant adds nothing and is left out, and the folding `mul` drops a
    factor 1. So the entry is bit for bit the left-to-right float sum of the
    nonzero products, on every BLAS build."""
    total = Const(0.0)
    for term in map(mul, row, col):
        if isinstance(term, Const) and isinstance(total, Const):
            total = add(total, term)
        elif not (isinstance(term, Const) and term.value == 0.0):
            total = Add(total, term)
    return total


def _times(rows, entries, shape):
    """(entries, shape) of the product of a matrix, given as its rows of
    entries, with the matrix or vector of `entries` of `shape`, each entry
    folded by `_fold_dot`."""
    cols = shape[1] if len(shape) == 2 else 1
    columns = [entries[j::cols] for j in range(cols)]
    return [_fold_dot(row, col) for row in rows for col in columns], (len(rows),) + shape[1:]


def _schur_fold(b_inv, jphi, frame, f):
    """[dphi, Gamma, Y, D, c], each (entries, shape), for a constant B^{-1}:
    Gamma = B^{-1} Delta and Y = B^{-1} f over the entries of the frame and
    of f, then the Schur complement's D = dphi . Gamma and c = dphi . Y over
    those of dphi, Gamma and Y, every entry folded by `_fold_dot`. A sparse
    B^{-1} costs only its nonzero entries, and where it is a signed
    permutation (a Lagrangian base) Gamma and Y are numpy's products bit for
    bit, signed zeros included."""
    consts = [[Const(float(v)) for v in row] for row in b_inv]
    n = jphi.shape[1]
    dphi = [jphi.entries[r * n:(r + 1) * n] for r in range(jphi.shape[0])]
    gamma, y = _times(consts, frame.entries, frame.shape), _times(consts, f.entries, f.shape)
    return [(jphi.entries, jphi.shape), gamma, y, _times(dphi, *gamma), _times(dphi, *y)]


class PointDynamics:
    """The one evaluator of the flow: X and the multipliers u at a point, the
    minimum-norm solution of the bordered (saddle-point) system

        [ A      -Delta ] [X]   [ g ]   base rows
        [ dphi    0     ] [u] = [ 0 ]   tangency rows, when there are constraints

    of a GeneralizedNonholonomicSystem, or the base rows alone of a
    LinearlySingularSystem (an explicit flow). Each evaluation is one call of a
    compiled kernel over every entry it reads and one `linalg.solve_affine`.
    Construction builds the kernel's entries; its scalar runner is compiled at
    the first evaluation at one point, its vectorised target at the first
    batch (`expressions.Compiled`).

    With `second_order`, X = (X_q, w) also has X_q = v, the last n/2
    variables, substituted, not solved for: the system is
    [A_v, -Delta; dphi_v, 0] (w, u) = (g - A_q v, -dphi_q v) and X = (v, w).
    With X_q fixed, the minimum-norm (w, u) is the minimum-norm (X, u).

    A constant base B in the first-order modes that is regular is inverted
    once, at construction, from its entries, into `base_inverse` (None for
    any other base), and its kernel emits dphi, Gamma = B^{-1} Delta,
    Y = B^{-1} g, D = dphi . Gamma and c = dphi . Y, the last four folded in
    symbolically (`_schur_fold`). The solve is then of the Schur complement
    D u = -c, and X = Y + Gamma u. For one constraint and one force, D is 1x1
    and the solve runs on the runner's Python floats from start to end: the
    scalar solve, and X entry by entry.
    Otherwise (a varying base, or a constant singular one) the kernel emits
    the bordered system's right-hand side and matrix, which the solve reads as
    fixed views of its buffer.

    The bordered kernel's base rows B v = g also decide, at each point,
    whether such a base is regular: one stacked solve of them gives the
    verdict and Y = B^{-1} g where B is regular (`_base_solve`, which builds
    every BaseNotRegularError). The first-order batches (`analyses`, `flows`)
    take the verdict, Y and the flow from one kernel evaluation: `analyses`
    puts a singular point's error in place of its analysis, and `flows`
    raises the first. `solve` decides nothing: on a singular base it solves
    the bordered system as it stands.

    A non-finite kernel value raises NonFiniteError. A rank-deficient system
    gives the minimum-norm u, with X following, once the frame's rank is
    checked; no solution, or no unique one for an explicit flow, raises
    InconsistentSystemError. Points are not checked against M: the caller
    checks them. `solve` and `field_and_multipliers` return X as a list of
    floats, which `integrate` steps on, and u as an array. `analysis` reports
    what `solve` computes, Y included, from the same kernel evaluation; every
    array it returns is a copy, never a view of the kernel's buffer."""

    def __init__(self, system, tols=linalg.DEFAULT_TOLERANCES, second_order=False):
        gnh = system if isinstance(system, GeneralizedNonholonomicSystem) else None
        self.gnh, self.tols = gnh, tols
        base = system if gnh is None else gnh.base
        s = base.n // 2 if second_order else 0
        # base rows, the velocities X_q = v and the unknowns of X solved for
        self._k, self._s, self._w = base.k, s, base.n - s
        self.base_inverse = None
        if gnh is not None and not second_order and base.A.is_constant:
            # the entries' own bits, as the generated runner returns them
            b = np.array([e.value for e in base.A.entries], dtype=float).reshape(base.A.shape)
            if base.k == base.n and linalg.rank(b, tols) == base.n:
                self.base_inverse = np.linalg.inv(b)
        jphi = None if gnh is None else gnh.constraints.phi.jacobian_field()
        if self.base_inverse is not None:  # dphi, then Gamma, Y, D and c folded in
            parts = _schur_fold(self.base_inverse, jphi, gnh.forces, base.f)
        else:
            parts = _bordered_system(base.A, base.f, None if gnh is None else gnh.forces,
                                     jphi, s)
        self._compiled, self._vals, self._views, self._spans = _fused_kernel(
            parts, base.variables)
        # one constraint and one force: `_schur` reads Gamma, Y, D and c at
        # these positions of the kernel's list of floats
        self._floats = None
        if self.base_inverse is not None and gnh.a == gnh.m == 1:
            (g0, g1, _), (y0, y1, _), (at_d, _, _), (at_c, _, _) = self._spans[1:]
            self._floats = (g0, g1, y0, y1, at_d, at_c)
        self._kernel = None  # the scalar runner, compiled at the first `_evaluate`
        self._no_solution = (
            "A(x) v = f(x) has no unique solution" if gnh is None
            else "no second-order solution through this point" if second_order
            else "no multiplier solves the tangency condition")
        self._last = None  # (bytes of x, field_and_multipliers(x)) of the last solve
        self._bytes = struct.Struct(f"{base.n}d").pack  # `_memo`'s key of a point

    def _base_solve(self, views):
        """(errors, Y) from the kernel's row views: at each row a
        BaseNotRegularError (its `solution` the AffineSolutionSet of A v = f
        there), or None where the base is regular, and Y = B^{-1} g at
        each regular row. A constant base inverted at construction gives no
        errors and the folded Y; otherwise one stacked solve of the base rows
        B v = g gives both: the one place a BaseNotRegularError is built. The
        second-order system holds no base rows, and raises TypeError."""
        if self.base_inverse is not None:
            return [None] * len(views[2]), views[2]
        if self._s:
            raise TypeError("the second-order system holds no base rows")
        b, g, _, _ = self._base_rows(views)
        sol = linalg.solve_affine(b, g, self.tols)
        k, n = self._k, self._w
        ranks = n - _dims(sol.kernel)
        errors = [None] * len(b)
        for i in np.flatnonzero((ranks < n) | (k != n)).tolist():
            errors[i] = BaseNotRegularError(
                f"base morphism A(x) is not invertible at this point "
                f"(rank {ranks[i]} of {n if k == n else f'{k}x{n}'})", sol.item(i))
        return errors, sol.x0

    def analysis(self, x):
        """PointAnalysis at x, which the caller has checked lies on M: `analyses`
        of a batch of one point. A base that is singular at x raises its
        BaseNotRegularError."""
        out = self.analyses(np.asarray(x, dtype=float)[None])[0]
        if isinstance(out, BaseNotRegularError):
            raise out
        return out

    def analyses(self, points):
        """PointAnalysis at each row of an (N, n) array of points of M, as one
        batch; at a point where the base is not regular, the entry is its
        BaseNotRegularError, whose `solution` is the solve of A v = f there.

        One kernel evaluation over the points gives the fields; the rest runs
        on the rows with a regular base. For a constant base the kernel gives
        Gamma = B^{-1} Delta and Y = B^{-1} g; for a varying one, the solve of
        the base rows that decides the verdict gives Y, and Gamma is an LU
        solve with B. Either way the stacked solve that `solves` makes on the
        regular rows gives u, X and rank D,
        as m less the dimension of the solve's kernel (the kernel of D, or of
        the bordered matrix, which a regular base and an independent frame make
        the same); the frame is checked only where that kernel is not trivial,
        since a D of full column rank proves it independent. The projectors
        are built only where that solve finds D square and invertible, the one
        case T_xM = ker dphi and H_x = span Gamma split the space, from the
        same D: Q = Gamma D^{-1} dphi, one stacked LU solve, and P = I - Q.
        Each rank is decided once, as for its point alone; any other error
        raises for the first point at which its step of the batch fails."""
        gnh = self.gnh
        pts = np.asarray(points, dtype=float)
        views = self._evaluate_rows(pts)
        out, y = self._base_solve(views)
        live = np.array([i for i, err in enumerate(out) if err is None], dtype=int)
        if not live.size:
            return out
        views, y = [v[live] for v in views], y[live]
        if self.base_inverse is not None:
            jphi, gamma, _, d, _ = views
        else:
            b, _, frame, jphi = self._base_rows(views)
            gamma = np.linalg.solve(b, frame)
            with linalg._float_errors():  # an overflow gives inf, as on floats
                d = jphi @ gamma
        xf, u, sol, failed = self._solve_batch(pts[live], views)
        self._raise_failed(sol, failed)
        dims = _dims(sol.kernel)
        rank = gnh.m - dims
        regular = (gnh.a == gnh.m) & (rank == gnh.a)
        projectors = [None] * len(live)
        reg = np.flatnonzero(regular)
        if reg.size:
            # Q = Gamma D^{-1} dphi projects onto H_x along T_xM, P = I - Q
            q = gamma[reg] @ np.linalg.solve(d[reg], jphi[reg])
            p = np.eye(gnh.n) - q
            for j, i in enumerate(reg.tolist()):
                projectors[i] = (p[j], q[j])
        for j, i in enumerate(live.tolist()):
            r = int(rank[j])
            cls = PointClassification(d[j], r, surjective=r == gnh.a, injective=r == gnh.m,
                                      regular=bool(regular[j]))
            out[i] = PointAnalysis(cls, y[j], xf[j], MultiplierResult(
                u[j], bool(dims[j] > 0), float(sol.residual[j])), projectors[j])
        return out

    def flows(self, points):
        """(Y, X) at each row of an (N, n) array of points, as an (N, 2, n)
        array: Y = B^{-1} g as `analyses` gives it and `solve`'s X, from one
        kernel evaluation over the batch and one stacked solve. A non-finite
        kernel value raises first, for its first row; then the first point at
        which the base is not regular raises its BaseNotRegularError; any other
        error raises for the first point at which its step fails."""
        pts = np.asarray(points, dtype=float)
        views = self._evaluate_rows(pts)
        errors, y = self._base_solve(views)
        first = next(filter(None, errors), None)
        if first is not None:
            raise first
        xf, _, sol, failed = self._solve_batch(pts, views)
        self._raise_failed(sol, failed)
        return np.stack([y, xf], axis=1)

    def solves(self, points):
        """`solve` at each row of an (N, n) array of points, as one batch:
        (X, u, sol, errors) with X and u stacked, `sol` the stacked
        AffineSolutionSet, and errors[i] the InconsistentSystemError that
        `solve` raises at point i, or None. Any other error raises for the
        first point at which its step fails."""
        pts = np.asarray(points, dtype=float)
        xf, u, sol, failed = self._solve_batch(pts, self._evaluate_rows(pts))
        errors = [None] * len(pts)
        for i in np.flatnonzero(failed).tolist():
            errors[i] = self._inconsistent(sol.residual[i])
        return xf, u, sol, errors

    def solve(self, x):
        """(X, u, sol) at x: X as a list of floats, u as an array, and `sol`
        the solve's AffineSolutionSet (in (X, u) if bordered, and in (w, u) in
        the second-order mode). A list of floats goes to the kernel as it is."""
        vals = self._evaluate(x)
        if self.base_inverse is not None:
            return self._schur(vals)
        (rhs, mat), w = self._views, self._w
        sol = linalg.solve_affine(mat, rhs, self.tols)
        self._check(sol, mat[:self._k, w:])
        z = sol.x0 if sol.kernel.dim == 0 else self._min_norm(sol.x0, sol.kernel.vectors)
        return self._full_field(np.asarray(x, dtype=float), z[:w]).tolist(), z[w:], sol

    def _min_norm(self, z, ker):
        """z + K c with the minimum-norm u over the solution set z + K c of the
        bordered system, K its kernel basis; X follows u."""
        return z + ker @ linalg.solve_affine(ker[self._w:], -z[self._w:], self.tols).x0

    def _full_field(self, x, w):
        """X from its solved unknowns w, at x or a batch: (v, w) if second-order."""
        return np.concatenate((x[..., self._w:], w), axis=-1) if self._s else w

    def _base_rows(self, views):
        """(B, g, Delta, dphi) from the row views of [B, -Delta; dphi, 0], (g, 0)."""
        (rhs, mat), k, n = views, self._k, self._w
        return mat[:, :k, :n], rhs[:, :k], -mat[:, :k, n:], mat[:, k:, :n]

    def _evaluate(self, x):
        """The kernel's values at x, as a list of floats, also written to the
        buffer that `self._views` view, but for one constraint and one force on
        a constant base, where `_schur` reads the list and writes the buffer
        only for its check; what is computed from the views must not keep one
        past the next evaluation."""
        if self._kernel is None:
            self._kernel = self._compiled.scalar()
        vals = self._kernel(x if isinstance(x, list) else np.asarray(x, dtype=float))
        # a sum of finite values can overflow, so a non-finite one only screens
        if not math.isfinite(sum(vals)) and not all(map(math.isfinite, vals)):
            raise NonFiniteError("a value of the flow's fields is not finite at this point")
        if self._floats is None:
            self._vals[:] = vals
        return vals

    def _schur(self, vals):
        """(X, u, sol) of the Schur complement D u = -c, X = Y + Gamma u, from
        the kernel's values `vals` at a point, which hold D = dphi . Gamma and
        c = dphi . Y; X as a list of floats. The solve reads the views of the
        buffer, or for one constraint and one force the floats of `vals`."""
        if self._floats is None:
            _, gamma, y, d, c = self._views
            sol = linalg.solve_affine(d, -c, self.tols)
            self._check(sol, gamma)
            return (y + gamma.dot(sol.x0)).tolist(), sol.x0, sol
        g0, g1, y0, y1, at_d, at_c = self._floats
        sol = linalg._solve_1x1(vals[at_d], -vals[at_c], self.tols)
        if sol.kernel.dim > 0 or not sol.consistent:  # `_check` reads the Gamma view
            self._vals[:] = vals
            self._check(sol, self._views[1])
        # numpy adds Gamma u as a BLAS axpy onto zeros, which may fuse its
        # multiply and add, and so may differ from g * u in the sign of a zero;
        # Y is a sum from +0, never -0, so the sum with Y has the same bits
        u = sol.x0.item()
        return [a + g * u for a, g in zip(vals[y0:y1], vals[g0:g1])], sol.x0, sol

    def _check(self, sol, frame):
        # a dependent frame (Gamma or -Delta) forces a rank-deficient system: check it only then
        if sol.kernel.dim > 0 or not sol.consistent:
            if self.gnh is not None:
                _require_independent(frame, self.gnh.m, self.tols)
            if self.gnh is None or not sol.consistent:
                raise self._inconsistent(sol.residual)

    def _inconsistent(self, residual):
        return InconsistentSystemError(f"{self._no_solution} (residual {residual:.3e})")

    def _evaluate_rows(self, points):
        """The kernel's values at the rows of an (N, n) array of points, as one
        (N, *shape) array per field; a batch of one takes the scalar runner. A
        non-finite value raises NonFiniteError for the first row that has one."""
        vals = self._compiled.rows(points)
        raise_first((~np.isfinite(vals).all(axis=1), lambda i: NonFiniteError(
            "a value of the flow's fields is not finite at this point")))
        return [vals[:, start:stop].reshape((len(vals),) + shape)
                for start, stop, shape in self._spans]

    def _solve_batch(self, points, views):
        """`solve` at each point of a batch, from the kernel's row views, as one
        stacked solve: (X, u, sol, failed), `failed` marking the rows at which
        `solve` raises InconsistentSystemError. The Schur complement route
        solves the kernel's D u = -c stacked and forms Gamma u stacked; the
        bordered route then takes `solve`'s `_min_norm` step at each
        consistent row with a non-trivial kernel, so that row i is `solve` at
        point i."""
        if self.base_inverse is not None:
            _, gamma, y, d, c = views
            sol = linalg.solve_affine(d, -c, self.tols)
            failed = self._check_rows(sol, gamma)
            with linalg._float_errors():
                step = (gamma @ sol.x0[..., None])[..., 0]
            return y + step, sol.x0, sol, failed
        (rhs, mat), w = views, self._w
        sol = linalg.solve_affine(mat, rhs, self.tols)
        failed = self._check_rows(sol, mat[:, :self._k, w:])
        z = sol.x0.copy()
        for i in np.flatnonzero((_dims(sol.kernel) > 0) & ~failed).tolist():
            z[i] = self._min_norm(z[i], sol.kernel[i].vectors)
        return self._full_field(points, z[:, :w]), z[:, w:], sol, failed

    def _check_rows(self, sol, frame):
        """`_check` at each point of a stacked solve: the frames of the points
        with a rank-deficient or inconsistent system are checked, and the rows
        at which `_check` raises InconsistentSystemError are returned."""
        dims = _dims(sol.kernel)
        deficient = (dims > 0) | ~sol.consistent
        if self.gnh is None:
            return deficient
        if deficient.any():
            _require_independent(frame[deficient], self.gnh.m, self.tols)
        return ~sol.consistent

    def _raise_failed(self, sol, failed):
        raise_first((failed, lambda i: self._inconsistent(sol.residual[i])))

    def field_and_multipliers(self, x):
        """`solve`'s (X, u) at x: X a list of floats, u an array."""
        return self.solve(x)[:2]

    def _memo(self, x):
        # `integrate` records u at each stored state, which is where the next
        # RK4 step evaluates k1: one solve serves both. Points are compared by
        # their bytes, bit for bit: == would take -0.0 for 0.0.
        key = self._bytes(*x)
        if self._last is None or self._last[0] != key:
            self._last = (key, self.field_and_multipliers(x))
        return self._last[1]

    def field(self, x):
        return self._memo(x)[0]

    def multipliers(self, x):
        return self._memo(x)[1]
