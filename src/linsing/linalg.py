"""Pointwise dense linear algebra: ranks, null spaces, oblique projectors,
subspace classification and reduced (quotient) maps.

All rank decisions run through one tolerance policy:
tol_rank = max(rows, cols) * sigma_max * rank_factor, and image-membership
decisions use tol_img = tol_rank * (1 + ||b||_2). Null-space bases come out of
the SVD in a deterministic gauge (descending singular values, each basis
vector's first non-negligible component made positive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NonFiniteError, NotComplementaryError, ShapeError

RANK_FACTOR_DEFAULT = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Global tolerance policy; CLI flags override the two factors.

    The on-manifold test (max |phi| <= on_manifold) and the Gauss-Newton
    projection target are fixed.
    """

    rank_factor: float = RANK_FACTOR_DEFAULT
    img_factor: float | None = None  # None: derive from the matrix at hand
    on_manifold: ClassVar[float] = 1e-8
    projection_target: ClassVar[float] = 1e-10

    def rank_tol(self, mat, smax=None):
        mat = np.asarray(mat, dtype=float)
        if mat.size == 0:
            return 0.0
        if smax is None:
            smax = float(np.linalg.svd(mat, compute_uv=False)[0])
        return max(mat.shape) * smax * self.rank_factor

    def img_tol(self, mat, b, smax=None):
        base = self.img_factor if self.img_factor is not None else self.rank_tol(mat, smax)
        return base * (1.0 + float(np.linalg.norm(b)))


DEFAULT_TOLERANCES = Tolerances()


def _svd_rank(mat, tols, compute_uv=True):
    """SVD of a matrix and its numerical rank under `tols`: ((u, s, vt), r), or
    (s, r) without `compute_uv`. The one place a rank is decided."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {mat.shape}")
    if mat.size == 0:
        s = np.zeros(0)
        if not compute_uv:
            return s, 0
        return (np.zeros((mat.shape[0], 0)), s, np.zeros((0, mat.shape[1]))), 0
    try:
        svd = np.linalg.svd(mat, full_matrices=True, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        if np.isfinite(mat).all():
            raise
        smax = math.nan  # LAPACK rejects NaN entries
    else:
        s = svd[1] if compute_uv else svd
        smax = float(s[0])
    if not math.isfinite(smax):
        raise NonFiniteError(f"a {mat.shape[0]}x{mat.shape[1]} matrix has non-finite entries")
    return svd, int(np.count_nonzero(s > tols.rank_tol(mat, smax)))


def _fix_signs(columns):
    """Deterministic gauge: first component of each column with |c| > 1e-12
    is made positive (columns are unit vectors from an SVD)."""
    out = np.array(columns, dtype=float, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            out[:, j] = -col
    return out


def rank(mat, tols=DEFAULT_TOLERANCES):
    """Numerical rank by singular values above the policy tolerance."""
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
    """Right null space of `mat` in the deterministic gauge."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[0] == 0:
        return SubspaceBasis(_fix_signs(np.eye(mat.shape[1])))
    (_, _, vt), r = _svd_rank(mat, tols)
    return SubspaceBasis(_fix_signs(vt[r:].T))


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


def solve_affine(mat, b, tols=DEFAULT_TOLERANCES):
    """Minimum-norm least-squares solve with kernel basis and consistency verdict.

    Raises NonFiniteError when `mat`, the norm of `b` or the residual is not
    finite.
    """
    mat = np.asarray(mat, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if mat.shape[0] != b.shape[0]:
        raise ShapeError(f"matrix rows {mat.shape[0]} != rhs length {b.shape[0]}")
    n = mat.shape[1]
    if mat.shape[0] == 0:
        x0 = np.zeros(n)
        return AffineSolutionSet(x0, SubspaceBasis(_fix_signs(np.eye(n))), 0.0, True, 0.0)
    (u, s, vt), r = _svd_rank(mat, tols)
    tol_img = tols.img_tol(mat, b, smax=float(s[0]) if s.size else 0.0)
    if not tol_img < math.inf:
        raise NonFiniteError("a linear solve has a non-finite right-hand side")
    coeff = (u[:, :r].T @ b) / s[:r] if r else np.zeros(0)
    x0 = vt[:r].T @ coeff
    kern = SubspaceBasis(_fix_signs(vt[r:].T))
    residual = float(np.linalg.norm(mat @ x0 - b))
    consistent = residual <= tol_img
    if not (consistent or math.isfinite(residual)):
        raise NonFiniteError(f"a linear solve has a non-finite residual ({residual})")
    return AffineSolutionSet(x0, kern, residual, consistent, tol_img)


def complement_projectors(first, second, tols=DEFAULT_TOLERANCES):
    """Projectors (P, Q) onto `first` along `second` and vice versa.

    Raises NotComplementaryError unless the two column families are jointly a
    basis of the ambient space.
    """
    e = first.vectors if isinstance(first, SubspaceBasis) else np.asarray(first, dtype=float)
    f = second.vectors if isinstance(second, SubspaceBasis) else np.asarray(second, dtype=float)
    if e.shape[0] != f.shape[0]:
        raise ShapeError("ambient dimensions differ")
    n = e.shape[0]
    if e.shape[1] + f.shape[1] != n:
        raise NotComplementaryError(
            f"dimensions {e.shape[1]} + {f.shape[1]} != ambient {n}"
        )
    stacked = np.hstack([e, f])
    if rank(stacked, tols) < n:
        raise NotComplementaryError("subspaces overlap or are degenerate")
    inv = np.linalg.inv(stacked)
    p = e @ inv[: e.shape[1], :]
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
