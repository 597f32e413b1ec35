"""Pointwise dense linear algebra: ranks, null spaces, oblique projectors,
subspace classification and reduced (quotient) maps.

All rank decisions run through one tolerance policy:
tol_rank = max(rows, cols) * sigma_max * rank_factor, sigma_max coming from the
SVD whose rank is decided, and image-membership decisions use
tol_img = tol_rank * (1 + ||b||_2); no cut-off takes an SVD of its own.
Null-space bases come out of the SVD in a deterministic gauge (descending
singular values, each basis vector's first non-negligible component made
positive).

`solve_affine` solves a 1x1 system [[d]] (the Schur complement D of a system
with one constraint) on Python floats from start to end. It factors d in
closed form, u = sign(d), s = |d|, vt = 1, when
sqrt(tiny)/eps <= |d| <= eps/sqrt(tiny), about 6.7e-139 to 1.5e138. That is
the range in which LAPACK's SVD (gesdd) does not rescale the matrix, and
unscaled it returns exactly these factors, so the closed form is the SVD bit
for bit. Outside it (zero, subnormal, huge, NaN or inf entries) LAPACK runs
as for any other matrix. The IEEE operations are those of the general path:
products summed from +0 as numpy's matmul sums them, and norms as
sqrt(v * v). Its one rank decision also hands back the cut-off, which the
image tolerance reuses, and a full rank shares one read-only empty kernel
basis.

A stack of matrices, an (N, p, q) array, is factored by one stacked SVD, and
`rank`, `kernel_basis`, `solve_affine` and `complement_projectors` then decide
each matrix's rank, gauge and solution as they would for it alone: numpy's
stacked SVD, inverse and matrix products run the same LAPACK and BLAS routine
on each matrix as on the matrix alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NonFiniteError, NotComplementaryError, ShapeError, raise_first

RANK_FACTOR_DEFAULT = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Global tolerance policy; CLI flags override the two factors.

    The on-manifold test (max |phi| <= on_manifold), the Gauss-Newton
    projection target, its rounding floor and the iteration cap of a
    projection are fixed: a projection also stops once max |phi| <=
    projection_rounding * eps * max_r sum_i |dphi_r/dx_i| |x_i|, the size of
    the rounding error in phi(x) itself.
    """

    rank_factor: float = RANK_FACTOR_DEFAULT
    img_factor: float | None = None  # None: derive from the matrix at hand
    on_manifold: ClassVar[float] = 1e-8
    projection_target: ClassVar[float] = 1e-10
    projection_rounding: ClassVar[float] = 8.0
    projection_iterations: ClassVar[int] = 20

    def rank_tol(self, mat, smax):
        """Singular-value cut-off of an array `mat` whose largest singular value
        is `smax`, or of each matrix of a stack (`smax` then holds each
        matrix's largest singular value)."""
        if mat.size == 0:
            return 0.0
        return max(mat.shape[-2:]) * smax * self.rank_factor

    def img_tol(self, mat, b, smax):
        """Image-membership cut-off for `mat` x = b; for a stack, `b` holds one
        right-hand side per row and `smax` one largest singular value per matrix."""
        base = self.img_factor if self.img_factor is not None else self.rank_tol(mat, smax)
        return base * (1.0 + (_row_norms(b) if isinstance(smax, np.ndarray) else _norm(b)))


def _norm(v):
    """Euclidean norm of an array's entries: numpy's `linalg.norm` computes
    exactly sqrt(v . v) for real input, so the two agree bit for bit."""
    v = np.asarray(v, dtype=float).ravel()
    return math.sqrt(v.dot(v))


def _row_norms(v):
    """`_norm` of each row of an (N, k) array, each v . v the same dot product
    (and, as numpy's dot, silent on overflow)."""
    with _float_errors():
        return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _float_errors():
    """numpy's overflow and invalid-value warnings off, for stacked arithmetic
    that the single-matrix path does on Python floats or with numpy's dot,
    neither of which warns."""
    return np.errstate(over="ignore", invalid="ignore")


DEFAULT_TOLERANCES = Tolerances()

# LAPACK's gesdd rescales a matrix whose largest |entry| lies outside
# [sqrt(tiny)/eps, eps/sqrt(tiny)] (its smlnum and bignum); a 1x1 inside it
# factors exactly as u = sign(d), s = |d|, vt = 1
_UNSCALED_MIN = math.sqrt(sys.float_info.min) / sys.float_info.epsilon
_UNSCALED_MAX = 1.0 / _UNSCALED_MIN


def _svd_rank(mat, tols, compute_uv=True):
    """SVD of a matrix and its numerical rank under `tols`: ((u, s, vt), r), or
    (s, r) without `compute_uv`. The one place a rank is decided.

    A float d stands for the 1x1 matrix [[d]] of a scalar solve and stays on
    floats: ((u, s, vt), r, cut), the factors as floats and the cut-off that r
    was decided against; within LAPACK's unscaled range they are the closed
    form, the SVD's factors bit for bit. A stack of matrices, (N, p, q), takes
    one stacked LAPACK SVD, and r is then an (N,) array of ranks."""
    if isinstance(mat, float):
        if _UNSCALED_MIN <= abs(mat) <= _UNSCALED_MAX:
            u, s, vt = math.copysign(1.0, mat), abs(mat), 1.0
        else:
            u, s, vt = (f.item() for f in _lapack_svd(np.array([[mat]]), True))
        cut = tols.rank_tol(_ONE_BY_ONE, s)
        return (u, s, vt), int(s > cut), cut
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 3:
        return _svd_rank_stack(mat, tols, compute_uv)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {mat.shape}")
    if mat.size == 0:
        s = np.zeros(0)
        if not compute_uv:
            return s, 0
        return (np.zeros((mat.shape[0], 0)), s, np.zeros((0, mat.shape[1]))), 0
    svd = _lapack_svd(mat, compute_uv)
    s = svd[1] if compute_uv else svd
    cut = tols.rank_tol(mat, float(s[0]))
    return svd, sum(v > cut for v in s.tolist())


def _svd_rank_stack(mat, tols, compute_uv):
    """`_svd_rank` of each matrix of an (N, p, q) stack, as one stacked SVD."""
    count, p, q = mat.shape
    if p == 0 or q == 0:
        s = np.zeros((count, 0))
        ranks = np.zeros(count, dtype=int)
        if not compute_uv:
            return s, ranks
        return (np.zeros((count, p, 0)), s, np.zeros((count, 0, q))), ranks
    svd = _lapack_svd(mat, compute_uv)
    s = svd[1] if compute_uv else svd
    with _float_errors():
        cut = tols.rank_tol(mat, s[:, :1])
    return svd, np.count_nonzero(s > cut, axis=1)


# what a 1x1 cut-off scales with: its shape
_ONE_BY_ONE = np.empty((1, 1))


def _lapack_svd(mat, compute_uv):
    """numpy's SVD of a non-empty matrix, or of each matrix of a stack;
    NonFiniteError unless each largest singular value is finite (LAPACK
    rejects NaN entries)."""
    try:
        svd = np.linalg.svd(mat, full_matrices=True, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        if np.isfinite(mat).all():
            raise
        svd = None
    if svd is not None:
        s = svd[1] if compute_uv else svd
        if math.isfinite(s[0]) if s.ndim == 1 else np.isfinite(s[:, 0]).all():
            return svd
    raise NonFiniteError(f"a {mat.shape[-2]}x{mat.shape[-1]} matrix has non-finite entries")


def _fix_signs(columns):
    """Deterministic gauge: first component of each column with |c| > 1e-12
    is made positive (columns are unit vectors from an SVD). `columns` may be
    a stack, (..., n, c); a column is negated entry by entry, signed zeros
    included, and a column with no such component is left as it is."""
    out = np.array(columns, dtype=float, copy=True)
    if out.size == 0:
        return out
    big = np.abs(out) > 1e-12
    first = np.argmax(big, axis=-2)[..., None, :]  # 0 where a column has none
    flip = np.take_along_axis(big, first, axis=-2) & (np.take_along_axis(out, first, axis=-2) < 0.0)
    return np.negative(out, out=out, where=flip)


def rank(mat, tols=DEFAULT_TOLERANCES):
    """Numerical rank by singular values above the policy tolerance; an (N,)
    array of ranks for a stack of matrices."""
    return _svd_rank(mat, tols, compute_uv=False)[1]


@dataclass
class SubspaceBasis:
    """Orthonormal basis of a subspace: columns of `vectors` (ambient_dim x dim)."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ShapeError("basis must be a 2-d array of column vectors")

    @property
    def ambient_dim(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]


def kernel_basis(mat, tols=DEFAULT_TOLERANCES):
    """Right null space of `mat` in the deterministic gauge; for a stack of
    matrices, the list of their null spaces."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[-2] == 0:
        eye = _fix_signs(np.eye(mat.shape[-1]))
        return SubspaceBasis(eye) if mat.ndim == 2 else [SubspaceBasis(eye) for _ in mat]
    (_, _, vt), r = _svd_rank(mat, tols)
    if mat.ndim == 2:
        return SubspaceBasis(_fix_signs(vt[r:].T))
    return _kernels(vt, r)


def _kernels(vt, ranks):
    """[SubspaceBasis of vt_i[r_i:].T in the gauge] over a stack of right
    singular vectors, one stacked `_fix_signs` per rank; a kernel of full rank
    is an empty basis shared by its rank's matrices."""
    out = [None] * len(vt)
    q = vt.shape[-1]
    for r in sorted(set(ranks.tolist())):
        idx = np.flatnonzero(ranks == r)
        if r == q:
            empty = SubspaceBasis(np.zeros((q, 0)))
            for i in idx.tolist():
                out[i] = empty
            continue
        for i, basis in zip(idx.tolist(), _fix_signs(np.swapaxes(vt[idx, r:], 1, 2))):
            out[i] = SubspaceBasis(basis)
    return out


def cokernel_basis(mat, tols=DEFAULT_TOLERANCES):
    """Left null space of `mat` (complement of the image) in the same gauge."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[1] == 0:
        return SubspaceBasis(_fix_signs(np.eye(mat.shape[0])))
    (u, _, _), r = _svd_rank(mat, tols)
    return SubspaceBasis(_fix_signs(u[:, r:]))


@dataclass
class AffineSolutionSet:
    """Solution set {x0 + K c} of a linear problem, or its least-squares stand-in."""

    x0: np.ndarray
    kernel: SubspaceBasis
    residual: float
    consistent: bool
    tol_used: float

    def item(self, i):
        """The solution of system i of a stacked solve, as `solve_affine` of that
        system alone returns it."""
        return AffineSolutionSet(self.x0[i], self.kernel[i], float(self.residual[i]),
                                 bool(self.consistent[i]), float(self.tol_used[i]))


def solve_affine(mat, b, tols=DEFAULT_TOLERANCES):
    """Minimum-norm least-squares solve with kernel basis and consistency verdict.

    Raises NonFiniteError when `mat`, the norm of `b` or the residual is not
    finite.

    A stack of systems, `mat` (N, p, q) and `b` (N, p), is solved as one batch
    (`_solve_stack`), each system as it would be alone: the AffineSolutionSet
    then holds x0 as an (N, q) array, `kernel` as a list of N bases, and the
    residuals, verdicts and tolerances as (N,) arrays.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 3:
        return _solve_stack(mat, np.asarray(b, dtype=float), tols)
    b = np.asarray(b, dtype=float).reshape(-1)
    if mat.shape[0] != b.shape[0]:
        raise ShapeError(f"matrix rows {mat.shape[0]} != rhs length {b.shape[0]}")
    n = mat.shape[1]
    if mat.shape[0] == 0:
        x0 = np.zeros(n)
        return AffineSolutionSet(x0, SubspaceBasis(_fix_signs(np.eye(n))), 0.0, True, 0.0)
    if mat.shape == (1, 1):
        return _solve_1x1(mat.item(), b.item(), tols)
    (u, s, vt), r = _svd_rank(mat, tols)
    tol_img = tols.img_tol(mat, b, smax=float(s[0]) if s.size else 0.0)
    if not tol_img < math.inf:
        raise NonFiniteError("a linear solve has a non-finite right-hand side")
    coeff = (u[:, :r].T @ b) / s[:r] if r else np.zeros(0)
    x0 = vt[:r].T @ coeff
    residual = _norm(mat @ x0 - b)
    kern = vt[r:].T
    kern = SubspaceBasis(_fix_signs(kern) if r < n else kern)
    return _solution(x0, kern, residual, tol_img)


# the kernel of every 1x1 system of full rank
_NO_KERNEL_1X1 = SubspaceBasis(np.zeros((1, 0)))
_NO_KERNEL_1X1.vectors.flags.writeable = False


def _solve_1x1(d, b, tols):
    """`solve_affine` of [[d]] x = [b] on Python floats. Each product of x0 is
    added to +0 as matmul does (so u * b = -0 gives +0), and the norms stay
    sqrt(v * v), which differs from |v| where v * v underflows."""
    (u, s, vt), r, cut = _svd_rank(d, tols)
    base = tols.img_factor if tols.img_factor is not None else cut
    tol_img = base * (1.0 + math.sqrt(b * b))
    if not tol_img < math.inf:
        raise NonFiniteError("a linear solve has a non-finite right-hand side")
    x = 0.0 + vt * ((0.0 + u * b) / s) if r else 0.0
    res = d * x - b
    kern = _NO_KERNEL_1X1 if r else SubspaceBasis(np.ones((1, 1)))
    return _solution(np.array([x]), kern, math.sqrt(res * res), tol_img)


def _solve_stack(mat, b, tols):
    """`solve_affine` of each system of a stack: one stacked SVD, then the
    products of the general path, stacked per rank. A 1x1 system takes the
    same IEEE operations here as on `_solve_1x1`'s floats, since a product of
    one term is summed from +0 as `_solve_1x1` sums it. NonFiniteError names
    the first system at which `solve_affine` would raise."""
    count, p, q = mat.shape
    b = b.reshape(count, p)
    if p == 0:
        eye = _fix_signs(np.eye(q))
        return AffineSolutionSet(np.zeros((count, q)), [SubspaceBasis(eye) for _ in range(count)],
                                 np.zeros(count), np.ones(count, dtype=bool), np.zeros(count))
    (u, s, vt), ranks = _svd_rank(mat, tols)
    with _float_errors():
        tol_img = tols.img_tol(mat, b, s[:, 0])
    finite = tol_img < math.inf  # the systems that `solve_affine` goes on to solve
    x0 = np.zeros((count, q))
    residual = np.full(count, math.nan)
    for r in sorted(set(ranks[finite].tolist())):
        idx = np.flatnonzero((ranks == r) & finite)
        if r:
            # whole matrices are gathered first and sliced after, so that each
            # factor keeps the strides it has alone: BLAS sums a strided vector
            # in another order than a contiguous one
            coeff = (np.swapaxes(u[idx][:, :, :r], 1, 2) @ b[idx, :, None])[..., 0] / s[idx, :r]
            x0[idx] = (np.swapaxes(vt[idx][:, :r], 1, 2) @ coeff[..., None])[..., 0]
        residual[idx] = _row_norms((mat[idx] @ x0[idx, :, None])[..., 0] - b[idx])
    consistent = residual <= tol_img
    raise_first(
        (~finite, lambda i: NonFiniteError("a linear solve has a non-finite right-hand side")),
        (finite & ~(consistent | np.isfinite(residual)),
         lambda i: NonFiniteError(f"a linear solve has a non-finite residual ({residual[i]})")))
    return AffineSolutionSet(x0, _kernels(vt, ranks), residual, consistent, tol_img)


def _solution(x0, kernel, residual, tol_img):
    consistent = residual <= tol_img
    if not (consistent or math.isfinite(residual)):
        raise NonFiniteError(f"a linear solve has a non-finite residual ({residual})")
    return AffineSolutionSet(x0, kernel, residual, consistent, tol_img)


def min_norm_rows(mats, rhs, tols=DEFAULT_TOLERANCES):
    """Minimum-norm least-squares solution z_k of each system mats[k] z = rhs[k]
    of a stack, with singular values at or below `tols.rank_tol` cut.

    One-row systems take one stacked Householder QR of their transposes: the
    row is r q^T, its one singular value |r|, and z = q rhs / r is formed the
    way LAPACK's least-squares routine (gelsd) applies the same reflection, so
    it matches numpy's `lstsq` bit for bit, at about a sixth of the cost of a
    stacked SVD. Larger systems take one stacked SVD.
    """
    mats = np.asarray(mats, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if mats.shape[1] == 1:
        # reflector I - tau w w^T with w = (1, h[1:]), and r = h[0]
        h, tau = np.linalg.qr(np.swapaxes(mats, 1, 2), mode="raw")
        r, w, tau = h[:, 0, 0], h[:, 0, 1:], tau[:, 0]
        keep = np.abs(r) > tols.rank_tol(mats, np.abs(r))
        coeff = np.zeros(len(r))
        coeff[keep] = rhs[keep, 0] * (1.0 / r[keep])
        scaled = -tau * coeff
        return np.column_stack([coeff + scaled, scaled[:, None] * w])
    u, s, vt = np.linalg.svd(mats, full_matrices=False)
    keep = s > tols.rank_tol(mats, s[:, :1])
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    coeff = np.einsum("kir,ki->kr", u, rhs) * inv
    return np.einsum("krj,kr->kj", vt, coeff)


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


@dataclass
class SubspaceClassification:
    """Verdict of the rank tests on D_ij = <alpha_i, v_j>."""

    d_matrix: np.ndarray
    rank_d: int
    sum_full: bool          # span(annihilated subspace) + span(frame) = ambient
    intersection_zero: bool
    direct_sum: bool


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
