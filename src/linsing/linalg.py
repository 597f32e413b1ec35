"""Pointwise dense linear algebra: ranks, affine solves with their null
spaces, and minimum-norm least-squares steps.

All rank decisions run through one tolerance policy:
tol_rank = max(rows, cols) * sigma_max * rank_factor, sigma_max coming from the
SVD whose rank is decided; no cut-off takes an SVD of its own. Consistency
follows from the rank: a system of full row rank (r = rows) has every b in its
image, so its verdict compares nothing and its `tol_used` is inf; only a
rank-deficient one takes the image test, residual <= tol_img =
tol_rank * (1 + ||b||_2), from the cut-off that the rank decision hands back.
A norm of b, a cut-off or a residual that is not finite raises NonFiniteError.
Null-space bases come out of the SVD in a deterministic gauge (descending
singular values, each basis vector's first non-negligible component made
positive).

`solve_affine` solves a 1x1 system [[d]] (the Schur complement D of a system
with one constraint) on Python floats from start to end (`_scalar_solve`,
whose floats `_scalar_solution` packages). It factors d in closed form,
u = sign(d), s = |d|, vt = 1, when
sqrt(tiny)/eps <= |d| <= eps/sqrt(tiny), about 6.7e-139 to 1.5e138. That is
the range in which LAPACK's SVD (gesdd) does not rescale the matrix, and
unscaled it returns exactly these factors, so the closed form is the SVD bit
for bit. Outside it (zero, subnormal, huge, NaN or inf entries) LAPACK runs
as for any other matrix. The IEEE operations are those of the general path:
products summed from +0 as numpy's matmul sums them, and norms as
sqrt(v * v), scaled by max|v| only where v * v overflows from finite entries.
A full rank shares one read-only empty kernel basis.

A stack of matrices, an (N, p, q) array, is factored by one stacked SVD, and
`rank` and `solve_affine` then decide each matrix's rank, gauge and solution
as they would for it alone: numpy's stacked SVD and matrix products run the
same LAPACK and BLAS routine on each matrix as on the matrix alone.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NonFiniteError, ShapeError, raise_first

RANK_FACTOR_DEFAULT = 1e-10


class Tolerances:
    """Global tolerance policy; CLI flags override the two factors. An
    instance is immutable: assigning an attribute raises AttributeError.

    The on-manifold test (max |phi| <= on_manifold), the Gauss-Newton
    projection target, its rounding floor and the iteration cap of a
    projection are fixed: a projection also stops once max |phi| <=
    projection_rounding * eps * max_r sum_i |dphi_r/dx_i| |x_i|, the size of
    the rounding error in phi(x) itself.
    """

    on_manifold = 1e-8
    projection_target = 1e-10
    projection_rounding = 8.0
    projection_iterations = 20

    def __init__(self, rank_factor=RANK_FACTOR_DEFAULT, img_factor=None):
        object.__setattr__(self, "rank_factor", rank_factor)
        # None: derive from the matrix at hand
        object.__setattr__(self, "img_factor", img_factor)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Tolerances is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Tolerances is immutable")

    def rank_tol(self, dim, smax):
        """Singular-value cut-off of a matrix whose larger dimension is `dim` and
        whose largest singular value is `smax`, or of each matrix of a stack
        (`smax` then holds each matrix's largest singular value)."""
        return dim * smax * self.rank_factor

    def img_tol(self, cut, b):
        """Image-membership cut-off for mat x = b, `cut` being the rank cut-off
        that `_svd_rank` decided mat's rank against; for a stack, `b` holds one
        right-hand side per row and `cut` one cut-off per matrix. A float `b`
        is the right-hand side of a 1x1 system (see `_float_norm`)."""
        base = self.img_factor if self.img_factor is not None else cut
        norm = (_float_norm(b) if isinstance(b, float)
                else _row_norms(b) if b.ndim == 2 else _norm(b))
        return base * (1.0 + norm)


def _float_norm(v):
    """|v| of a float as the array norms take it: sqrt(v * v), which differs
    from |v| where v * v underflows, and |v| where v * v overflows."""
    norm = math.sqrt(v * v)
    return abs(v) if norm == math.inf else norm


def _norm(v):
    """Euclidean norm of an array's entries: sqrt(v . v), as numpy's
    `linalg.norm` computes it for real input, bit for bit (`vdot` is the same
    BLAS dot on the contiguous entries, and silent on overflow). Where v . v
    overflows from finite entries, the scaled norm max|v| * ||v / max|v|||."""
    v = np.asarray(v, dtype=float).ravel()
    norm = math.sqrt(np.vdot(v, v))
    if norm == math.inf:
        top = float(np.abs(v).max())
        if top < math.inf:
            v = v / top
            norm = top * math.sqrt(np.vdot(v, v))
    return norm


def _row_norms(v):
    """`_norm` of each row of an (N, k) array, each v . v the same dot product
    and each overflowing one scaled the same way."""
    with _float_errors():
        norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        over = norms == math.inf
        if over.any():
            top = np.abs(v).max(axis=1)
            over &= top < math.inf
            w = v[over] / top[over, None]
            norms[over] = top[over] * np.sqrt((w[:, None, :] @ w[:, :, None])[:, 0, 0])
        return norms


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
    """SVD of a matrix, its numerical rank under `tols` and the cut-off that
    the rank was decided against: ((u, s, vt), r, cut), or (s, r, cut) without
    `compute_uv`. The one place a rank is decided.

    A float d stands for the 1x1 matrix [[d]] of a scalar solve and stays on
    floats: the factors are floats, and within LAPACK's unscaled range they
    are the closed form, the SVD's factors bit for bit. A stack of matrices,
    (N, p, q), takes one stacked LAPACK SVD, and r and cut are then (N,)
    arrays."""
    if isinstance(mat, float):
        if _UNSCALED_MIN <= abs(mat) <= _UNSCALED_MAX:
            u, s, vt = math.copysign(1.0, mat), abs(mat), 1.0
        else:
            u, s, vt = (f.item() for f in _lapack_svd(np.array([[mat]]), True))
        cut = tols.rank_tol(1, s)
        return (u, s, vt), int(s > cut), cut
    mat = np.asarray(mat, dtype=float)
    if mat.ndim == 3:
        return _svd_rank_stack(mat, tols, compute_uv)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {mat.shape}")
    if mat.size == 0:
        s = np.zeros(0)
        if not compute_uv:
            return s, 0, 0.0
        return (np.zeros((mat.shape[0], 0)), s, np.zeros((0, mat.shape[1]))), 0, 0.0
    svd = _lapack_svd(mat, compute_uv)
    s = svd[1] if compute_uv else svd
    cut = tols.rank_tol(max(mat.shape), float(s[0]))
    return svd, sum(v > cut for v in s.tolist()), cut


def _svd_rank_stack(mat, tols, compute_uv):
    """`_svd_rank` of each matrix of an (N, p, q) stack, as one stacked SVD."""
    count, p, q = mat.shape
    if p == 0 or q == 0:
        s = np.zeros((count, 0))
        ranks, cut = np.zeros(count, dtype=int), np.zeros(count)
        if not compute_uv:
            return s, ranks, cut
        return (np.zeros((count, p, 0)), s, np.zeros((count, 0, q))), ranks, cut
    svd = _lapack_svd(mat, compute_uv)
    s = svd[1] if compute_uv else svd
    with _float_errors():
        cut = tols.rank_tol(max(p, q), s[:, 0])
    return svd, np.count_nonzero(s > cut[:, None], axis=1), cut


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


class SubspaceBasis:
    """Orthonormal basis of a subspace: columns of `vectors` (n x dim)."""

    def __init__(self, vectors):
        self.vectors = np.asarray(vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ShapeError("basis must be a 2-d array of column vectors")

    @property
    def dim(self):
        return self.vectors.shape[1]


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


class AffineSolutionSet:
    """Solution set {x0 + K c} of a linear problem, or its least-squares stand-in."""

    def __init__(self, x0, kernel, residual, consistent, tol_used):
        self.x0 = x0
        self.kernel = kernel
        self.residual = residual
        self.consistent = consistent
        self.tol_used = tol_used

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
        d, b = mat.item(), b.item()
        return _scalar_solution(*_scalar_solve(d, b, tols), b, tols)
    (u, s, vt), r, cut = _svd_rank(mat, tols)
    full = r == mat.shape[0]
    tol_img = math.inf if full else tols.img_tol(cut, b)
    if not (_norm(b) if full else tol_img) < math.inf:
        raise NonFiniteError(_NON_FINITE_RHS)
    coeff = (u[:, :r].T @ b) / s[:r] if r else np.zeros(0)
    x0 = vt[:r].T @ coeff
    residual = _norm(mat @ x0 - b)
    kern = vt[r:].T
    kern = SubspaceBasis(_fix_signs(kern) if r < n else kern)
    return _solution(x0, kern, residual, tol_img)


# the kernel of every 1x1 system of full rank
_NO_KERNEL_1X1 = SubspaceBasis(np.zeros((1, 0)))
_NO_KERNEL_1X1.vectors.flags.writeable = False

_NON_FINITE_RHS = "a linear solve has a non-finite right-hand side"


def _scalar_solve(d, b, tols):
    """[[d]] x = [b] on Python floats: (x, r, residual, cut), r and cut being
    `_svd_rank`'s decision on d. Each product of x is added to +0 as matmul
    does (so u * b = -0 gives +0), and the residual is the array routes' norm
    (`_float_norm`). At full rank only a non-finite residual fails."""
    (u, s, vt), r, cut = _svd_rank(d, tols)
    x = 0.0 + vt * ((0.0 + u * b) / s) if r else 0.0
    residual = _float_norm(d * x - b)
    if r and not residual < math.inf:
        raise NonFiniteError(_NON_FINITE_RHS if not math.isfinite(b) else
                             f"a linear solve has a non-finite residual ({residual})")
    return x, r, residual, cut


def _scalar_solution(x, r, residual, cut, b, tols):
    """`solve_affine`'s AffineSolutionSet of [[d]] x = [b] from `_scalar_solve`'s
    floats; only rank 0 takes the image test."""
    if r:
        return AffineSolutionSet(np.array([x]), _NO_KERNEL_1X1, residual, True, math.inf)
    tol_img = tols.img_tol(cut, b)
    if not tol_img < math.inf:
        raise NonFiniteError(_NON_FINITE_RHS)
    return _solution(np.array([x]), SubspaceBasis(np.ones((1, 1))), residual, tol_img)


def _solve_stack(mat, b, tols):
    """`solve_affine` of each system of a stack: one stacked SVD, then the
    products of the general path, stacked per rank. A 1x1 system takes the
    same IEEE operations here as on `_scalar_solve`'s floats, since a product
    of one term is summed from +0 as `_scalar_solve` sums it. NonFiniteError
    names the first system at which `solve_affine` would raise."""
    count, p, q = mat.shape
    b = b.reshape(count, p)
    if p == 0:
        eye = _fix_signs(np.eye(q))
        return AffineSolutionSet(np.zeros((count, q)), [SubspaceBasis(eye) for _ in range(count)],
                                 np.zeros(count), np.ones(count, dtype=bool), np.zeros(count))
    (u, s, vt), ranks, cut = _svd_rank(mat, tols)
    full = ranks == p
    with _float_errors():
        tol_img = np.where(full, math.inf, tols.img_tol(cut, b))
        # the systems that `solve_affine` goes on to solve
        finite = np.where(full, _row_norms(b), tol_img) < math.inf
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
    raise_first(
        (~finite, lambda i: NonFiniteError(_NON_FINITE_RHS)),
        (finite & ~np.isfinite(residual),
         lambda i: NonFiniteError(f"a linear solve has a non-finite residual ({residual[i]})")))
    return AffineSolutionSet(x0, _kernels(vt, ranks), residual, residual <= tol_img, tol_img)


def _solution(x0, kernel, residual, tol_img):
    """AffineSolutionSet of a solve; `tol_img` is inf at full row rank."""
    if not math.isfinite(residual):
        raise NonFiniteError(f"a linear solve has a non-finite residual ({residual})")
    return AffineSolutionSet(x0, kernel, residual, residual <= tol_img, tol_img)


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
        keep = np.abs(r) > tols.rank_tol(max(mats.shape[1:]), np.abs(r))
        coeff = np.zeros(len(r))
        coeff[keep] = rhs[keep, 0] * (1.0 / r[keep])
        scaled = -tau * coeff
        return np.column_stack([coeff + scaled, scaled[:, None] * w])
    u, s, vt = np.linalg.svd(mats, full_matrices=False)
    keep = s > tols.rank_tol(max(mats.shape[1:]), s[:, :1])
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    coeff = np.einsum("kir,ki->kr", u, rhs) * inv
    return np.einsum("krj,kr->kj", vt, coeff)
