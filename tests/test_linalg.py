"""Subspace toolbox tests.

The classification and quotient-map routines are cross-checked against
independent oracles built only from numpy.linalg.matrix_rank applied to
stacked bases — no tolerance policy or code shared with the implementation.
Degenerate configurations are constructed exactly (integer bases, literal
column copies) so both rank routes sit far from their thresholds.
"""

import dataclasses
import inspect
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linsing import linalg
from linsing.errors import NonFiniteError, NotComplementaryError, ShapeError
from linsing.expressions import ExpressionField
from linsing.linalg import (
    DEFAULT_TOLERANCES,
    SubspaceBasis,
    Tolerances,
    cokernel_basis,
    complement_projectors,
    induced_quotient_matrix,
    kernel_basis,
    orthonormal_complement,
    rank,
    reduced_solve,
    solve_affine,
    subspace_classify,
)
from linsing.nonholonomic import SubmanifoldSpec
from linsing.sampling import halton_box
from linsing.systems import LinearlySingularSystem, consistency_at


# --------------------------------------------------------------- rank/kernel

def test_rank_basics():
    assert rank(np.eye(4)) == 4
    assert rank(np.zeros((3, 5))) == 0
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1
    # relative tolerance: a uniformly tiny matrix still has full rank
    assert rank(1e-14 * np.eye(3)) == 3


def test_rank_threshold_scales_with_largest_singular_value():
    m = np.diag([1.0, 1e-5, 1e-12])
    assert rank(m) == 2
    # loosening the factor swallows the middle value too
    assert rank(m, Tolerances(rank_factor=1e-3)) == 1


def test_kernel_and_cokernel():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    k = kernel_basis(a)
    assert k.dim == 1 and k.ambient_dim == 2
    assert np.allclose(a @ k.vectors, 0.0)
    c = cokernel_basis(a)
    assert c.dim == 1
    assert np.allclose(c.vectors.T @ a, 0.0)
    assert kernel_basis(np.eye(3)).dim == 0


def test_kernel_gauge_is_deterministic_and_scale_free():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(2, 5))
        k1 = kernel_basis(a).vectors
        k2 = kernel_basis(3.0 * a).vectors
        # same subspace, same orthonormal representatives, same signs
        assert np.allclose(k1, k2, atol=1e-12)
        # gauge: first significant component of each column is positive
        for col in k1.T:
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0
        assert np.allclose(k1.T @ k1, np.eye(k1.shape[1]), atol=1e-12)


# -------------------------------------------------------------- solve_affine

def test_solve_affine_inconsistent_example():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    sol = solve_affine(a, np.array([0.0, 1.0]))
    assert not sol.consistent
    assert abs(sol.residual - 1.0) < 1e-14
    assert np.allclose(sol.x0, [0.0, 0.0])


def test_solve_affine_consistent_example():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    sol = solve_affine(a, np.array([3.0, 0.0]))
    assert sol.consistent
    assert np.allclose(sol.x0, [3.0, 0.0])
    assert sol.kernel.dim == 1
    assert np.allclose(np.abs(sol.kernel.vectors[:, 0]), [0.0, 1.0])


def test_solve_affine_degenerate_shapes():
    sol = solve_affine(np.zeros((0, 2)), np.zeros(0))
    assert sol.consistent and sol.kernel.dim == 2
    sol = solve_affine(np.zeros((2, 2)), np.zeros(2))
    assert sol.consistent and sol.kernel.dim == 2 and sol.residual == 0.0
    with pytest.raises(ShapeError):
        solve_affine(np.eye(2), np.zeros(3))


def test_solve_affine_random_consistent_property():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) if r else np.zeros((m, n))
        x = rng.normal(size=n)
        b = a @ x
        sol = solve_affine(a, b)
        assert sol.consistent
        assert np.linalg.norm(a @ sol.x0 - b) <= sol.tol_used + 1e-13
        # minimum-norm representative
        assert np.linalg.norm(sol.x0) <= np.linalg.norm(x) + 1e-10
        assert sol.kernel.dim == n - r
        if sol.kernel.dim:
            assert np.max(np.abs(a @ sol.kernel.vectors)) < 1e-10


# ------------------------------------------------------ oblique projectors

def test_complement_projectors_worked_example():
    e = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # span{e1, e2}
    f = np.array([[1.0], [1.0], [1.0]])
    p, q = complement_projectors(e, f)
    assert np.allclose(p + q, np.eye(3), atol=1e-13)
    assert np.allclose(p @ p, p, atol=1e-13)
    assert np.allclose(p @ q, 0.0, atol=1e-13)
    assert np.allclose(p @ e[:, 0], e[:, 0])
    assert np.allclose(p @ f[:, 0], 0.0, atol=1e-13)
    # oblique, not orthogonal: P annihilates (1,1,1), so P e3 = -e1 - e2
    assert np.allclose(p @ np.array([0.0, 0.0, 1.0]), [-1.0, -1.0, 0.0])


def test_complement_projectors_errors():
    with pytest.raises(NotComplementaryError):
        complement_projectors(np.eye(3)[:, :1], np.eye(3)[:, 1:2])
    with pytest.raises(NotComplementaryError):
        complement_projectors(np.eye(2)[:, :1], np.eye(2)[:, :1])
    with pytest.raises(ShapeError):
        complement_projectors(np.eye(3)[:, :1], np.eye(2)[:, :1])


def test_complement_projectors_random_pairs():
    # P + Q = I, P^2 = P, PQ = 0 across 1000 random complementary splits
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 7))
        m = rng.normal(size=(n, n))
        if np.linalg.cond(m) > 1e6:
            continue
        k = int(rng.integers(1, n))
        p, q = complement_projectors(m[:, :k], m[:, k:])
        assert np.max(np.abs(p + q - np.eye(n))) < 1e-8
        assert np.max(np.abs(p @ p - p)) < 1e-8
        assert np.max(np.abs(p @ q)) < 1e-8
        checked += 1


def test_complement_projectors_accepts_subspace_bases():
    e = SubspaceBasis(np.eye(2)[:, :1])
    f = SubspaceBasis(np.eye(2)[:, 1:])
    p, _ = complement_projectors(e, f)
    assert np.allclose(p, [[1.0, 0.0], [0.0, 0.0]])


# ------------------------------------------------------------ classification

def test_subspace_classify_worked_examples():
    alpha = np.array([[0.0], [0.0], [1.0]])  # E = ker(e3^T) = span{e1, e2}
    f3 = np.array([[0.0], [0.0], [1.0]])
    res = subspace_classify(alpha, f3)
    assert np.allclose(res.d_matrix, [[1.0]])
    assert res.rank_d == 1
    assert res.sum_full and res.intersection_zero and res.direct_sum

    f1 = np.array([[1.0], [0.0], [0.0]])  # now F sits inside E
    res = subspace_classify(alpha, f1)
    assert np.allclose(res.d_matrix, [[0.0]])
    assert not res.sum_full and not res.intersection_zero and not res.direct_sum

    with pytest.raises(ShapeError):
        subspace_classify(np.eye(3)[:, :1], np.eye(4)[:, :1])


def _integer_inverse_scaled(t):
    """det(T) * T^{-1} as an exact integer matrix (verified), or None."""
    det = np.linalg.det(t)
    if abs(det) < 0.5:
        return None
    s = np.rint(det * np.linalg.inv(t)).astype(np.int64)
    if not np.array_equal(s @ t.astype(np.int64), np.rint(det) * np.eye(len(t), dtype=np.int64)):
        return None
    return s


def _random_subspace_pair(rng):
    """(alpha, frame, E_basis) with exact degeneracies built over the integers.

    A random integer change of basis T fixes E = span of its first n-p
    columns; the matching rows of det(T) T^{-1} annihilate E exactly, so
    frames drawn from the T-columns pair against alpha without rounding
    noise near any rank threshold.
    """
    while True:
        n = int(rng.integers(2, 7))
        t = rng.integers(-3, 4, size=(n, n)).astype(float)
        s = _integer_inverse_scaled(t)
        if s is None:
            continue
        p = int(rng.integers(1, n))
        alpha = s[n - p :, :].T.astype(float)  # covectors killing t_1..t_{n-p}
        q = int(rng.integers(1, n))
        mode = rng.random()
        cols = []
        for _ in range(q):
            c = np.zeros(n)
            if mode < 0.35:
                # force the column inside E
                idx = rng.integers(0, n - p)
                c = t[:, idx] * float(rng.integers(1, 3))
            elif mode < 0.55:
                c = t @ rng.integers(-2, 3, size=n).astype(float)
            else:
                c = t[:, rng.integers(0, n)] + t[:, rng.integers(0, n)]
            if np.linalg.norm(c) == 0.0:
                c = t[:, int(rng.integers(0, n))]
            cols.append(c)
        frame = np.column_stack(cols)
        if np.linalg.matrix_rank(frame) < q:
            continue  # keep frame columns independent so F has dim q
        return alpha, frame, t[:, : n - p]


def test_subspace_classify_against_stacked_rank_oracle():
    rng = np.random.default_rng(7)
    seen = {True: 0, False: 0}
    for _ in range(300):
        alpha, frame, e_basis = _random_subspace_pair(rng)
        n = alpha.shape[0]
        res = subspace_classify(alpha, frame)
        stacked_rank = np.linalg.matrix_rank(np.hstack([e_basis, frame]))
        dim_e = e_basis.shape[1]
        dim_f = frame.shape[1]
        sum_full = stacked_rank == n
        intersection_zero = dim_e + dim_f == stacked_rank
        assert res.sum_full == sum_full
        assert res.intersection_zero == intersection_zero
        assert res.direct_sum == (sum_full and intersection_zero)
        seen[sum_full] += 1
    # the sweep exercised both verdicts
    assert min(seen.values()) > 10


# --------------------------------------------------------- quotient machinery

def test_orthonormal_complement():
    w = orthonormal_complement(np.eye(3)[:, :1])
    assert w.dim == 2
    assert np.allclose(w.vectors.T @ w.vectors, np.eye(2), atol=1e-13)
    assert np.allclose(w.vectors.T @ np.eye(3)[:, 0], 0.0, atol=1e-13)
    # empty basis: complement is everything
    full = orthonormal_complement(np.zeros((3, 0)), ambient_dim=3)
    assert full.dim == 3


def test_induced_quotient_matrix_worked_example():
    f = np.eye(2)
    e1 = np.array([[1.0], [0.0]])
    # restrict to span{e1}, quotient by span{e1}: the induced map vanishes
    m = induced_quotient_matrix(f, e1, e1)
    assert m.shape == (1, 1)
    assert abs(m[0, 0]) < 1e-14

    sol = reduced_solve(f, e1, e1, np.array([0.0, 1.0]))
    assert not sol.consistent  # e2 has a nonzero class mod span{e1}
    sol = reduced_solve(f, e1, e1, np.array([5.0, 0.0]))
    assert sol.consistent and sol.kernel.dim == 1


def _random_restriction_triple(rng):
    """Random (f, J, B) with J, B orthonormal; degeneracies via literal copies."""
    dim_e = int(rng.integers(2, 6))
    dim_f = int(rng.integers(2, 6))
    r = int(rng.integers(1, min(dim_e, dim_f) + 1))
    f = rng.normal(size=(dim_f, r)) @ rng.normal(size=(r, dim_e))
    e = int(rng.integers(1, dim_e + 1))
    j = np.linalg.qr(rng.normal(size=(dim_e, e)))[0]
    s = int(rng.integers(1, dim_f))
    b = rng.normal(size=(dim_f, s))
    if rng.random() < 0.4 and e >= 2 and r >= 2:
        # plant an intersection: F0 absorbs the image of one domain vector.
        # Needs e >= 2 and rank(f) >= 2 so part of f(E0) stays clear of F0 and
        # the quotient matrix keeps an O(1) scale for rank thresholds to lean
        # on; otherwise it would be pure rounding noise, which no relative
        # tolerance can classify.
        b[:, 0] = f @ j[:, 0]
        if np.linalg.norm(b[:, 0]) < 1e-9:
            b[:, 0] = rng.normal(size=dim_f)
    b = np.linalg.qr(b)[0][:, : np.linalg.matrix_rank(b)]
    return f, j, b


def test_injectivity_and_surjectivity_match_rank_oracle():
    # induced map E0 -> F/F0: injective iff E0 ∩ f^{-1}(F0) = 0,
    # surjective iff f(E0) + F0 = F; both sides via stacked matrix ranks
    rng = np.random.default_rng(19)
    inj_seen = {True: 0, False: 0}
    sur_seen = {True: 0, False: 0}
    for _ in range(300):
        f, j, b = _random_restriction_triple(rng)
        dim_f = f.shape[0]
        e, s = j.shape[1], b.shape[1]
        m = induced_quotient_matrix(f, j, b)
        assert m.shape == (dim_f - s, e)
        # rank of m under the package policy — that is the verdict being
        # checked; the oracle side sticks to raw matrix_rank on O(1) stacks
        r = rank(m)
        stacked = np.linalg.matrix_rank(np.hstack([f @ j, b]))
        injective_oracle = (e + s - stacked) == 0
        surjective_oracle = stacked == dim_f
        assert (r == e) == injective_oracle
        assert (r == dim_f - s) == surjective_oracle
        inj_seen[injective_oracle] += 1
        sur_seen[surjective_oracle] += 1
    assert min(inj_seen.values()) > 10
    assert min(sur_seen.values()) > 10


def test_reduced_solve_matches_membership_oracle():
    # f0(x) = [b] solvable iff b ∈ f(E0) + F0; unique iff the induced map
    # is injective
    rng = np.random.default_rng(29)
    con_seen = {True: 0, False: 0}
    for _ in range(300):
        f, j, b_basis = _random_restriction_triple(rng)
        e, s = j.shape[1], b_basis.shape[1]
        if rng.random() < 0.5:
            rhs = f @ j @ rng.normal(size=e) + b_basis @ rng.normal(size=s)
        else:
            rhs = rng.normal(size=f.shape[0])
        sol = reduced_solve(f, j, b_basis, rhs)
        fjb = np.hstack([f @ j, b_basis])
        consistent_oracle = np.linalg.matrix_rank(
            np.column_stack([fjb, rhs])
        ) == np.linalg.matrix_rank(fjb)
        unique_oracle = (e + s - np.linalg.matrix_rank(fjb)) == 0
        assert sol.consistent == consistent_oracle
        assert (sol.kernel.dim == 0) == unique_oracle
        if sol.consistent:
            # push the coefficient solution back through the quotient residual
            w = orthonormal_complement(b_basis, ambient_dim=f.shape[0])
            err = np.linalg.norm(w.vectors.T @ (f @ j @ sol.x0 - rhs))
            assert err < 1e-9
        con_seen[consistent_oracle] += 1
    assert min(con_seen.values()) > 10


def test_tolerance_accessors():
    tols = Tolerances()
    a = np.diag([2.0, 1.0])
    assert tols.rank_tol(a, 2.0) == 2 * 2.0 * 1e-10
    assert tols.img_tol(a, np.array([3.0, 4.0]), 2.0) == pytest.approx(
        2 * 2.0 * 1e-10 * (1.0 + 5.0)
    )
    assert DEFAULT_TOLERANCES.on_manifold == 1e-8


def test_tolerance_knobs_are_the_two_factors():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["rank_factor", "img_factor"]
    assert Tolerances.projection_target == 1e-10
    for method in (SubmanifoldSpec.is_on, SubmanifoldSpec.require_on, SubmanifoldSpec.project):
        assert list(inspect.signature(method).parameters) == ["self", "x"]
    assert list(inspect.signature(halton_box).parameters) == ["variables", "box", "count"]


# Singular values are planted log-uniformly in [1e-8, 1e8]; none lies within
# this relative distance of the cutoff, which leaves the values-only SVD of
# `rank` and the full SVD of the other routes room to differ in the last bits.
_CUTOFF_MARGIN = 1e-4


@st.composite
def planted_rank_problems(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    logs = draw(st.lists(st.floats(-8.0, 8.0), min_size=min(k, n), max_size=min(k, n)))
    s = np.sort(10.0 ** np.array(logs))[::-1]
    cutoff = max(k, n) * s[0] * DEFAULT_TOLERANCES.rank_factor
    assume(np.all(np.abs(s - cutoff) >= _CUTOFF_MARGIN * cutoff))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.normal(size=(k, k)))[0][:, : s.size]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0][:, : s.size]
    return (u * s) @ v.T, rng.normal(size=k), int(np.count_nonzero(s > cutoff))


@settings(max_examples=300, deadline=None)
@given(planted_rank_problems())
def test_every_route_decides_the_planted_rank(problem):
    a, b, r = problem
    k, n = a.shape
    assert rank(a) == r
    assert n - kernel_basis(a).dim == r
    assert k - cokernel_basis(a).dim == r
    sol = solve_affine(a, b)
    assert n - sol.kernel.dim == r
    # the norms are sqrt(v . v), bit for bit numpy's linalg.norm
    smax = np.linalg.svd(a, full_matrices=True)[1][0]
    assert sol.residual == float(np.linalg.norm(a @ sol.x0 - b))
    assert sol.tol_used == DEFAULT_TOLERANCES.rank_tol(a, smax) * (1.0 + float(np.linalg.norm(b)))
    if r == n:
        assert sol.kernel.vectors.shape == (n, 0)
    names = tuple(f"x{i}" for i in range(n))
    system = LinearlySingularSystem(
        ExpressionField.matrix([[repr(v) for v in row] for row in a.tolist()], names),
        ExpressionField.vector([str(v) for v in b], names),
    )
    res = consistency_at(system, np.zeros(n))
    assert res.rank_A == r
    assert res.rank_A + res.solution.kernel.dim == n


@st.composite
def near_cutoff_problems(draw):
    """A largest singular value of 10^e and the others planted within two
    decades of the rank cutoff, on either side of it, none within
    _CUTOFF_MARGIN of it."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2, 6))
    smax = 10.0 ** draw(st.floats(-3.0, 3.0))
    cutoff = max(k, n) * smax * DEFAULT_TOLERANCES.rank_factor
    logs = draw(st.lists(st.floats(-2.0, 2.0), min_size=min(k, n) - 1, max_size=min(k, n) - 1))
    s = np.concatenate([[smax], np.sort(cutoff * 10.0 ** np.array(logs))[::-1]])
    assume(np.all(np.abs(s - cutoff) >= _CUTOFF_MARGIN * cutoff))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.normal(size=(k, k)))[0][:, : s.size]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0][:, : s.size]
    return (u * s) @ v.T, rng.normal(size=k)


def _oracle_rank(a):
    """Singular values of the float matrix at 50 digits counted above the
    policy's cutoff, max(k, n) * sigma_max * rank_factor, taken at 50 digits."""
    with mpmath.workdps(50):
        s = mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)
        values = [s[i] for i in range(len(s))]
        cutoff = max(a.shape) * max(values) * mpmath.mpf(DEFAULT_TOLERANCES.rank_factor)
        return sum(1 for v in values if v > cutoff)


@settings(max_examples=200, deadline=None)
@given(near_cutoff_problems())
def test_rank_routes_agree_with_a_high_precision_oracle(problem):
    a, b = problem
    k, n = a.shape
    r = _oracle_rank(a)
    assert rank(a) == r
    assert n - kernel_basis(a).dim == r
    assert k - cokernel_basis(a).dim == r
    assert n - solve_affine(a, b).kernel.dim == r


def test_non_finite_input_is_a_non_finite_error():
    with pytest.raises(NonFiniteError):
        rank(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NonFiniteError):
        kernel_basis(np.array([[1.0, np.inf]]))
    with pytest.raises(NonFiniteError):
        solve_affine(np.eye(2), np.array([np.inf, 0.0]))
    with pytest.raises(NonFiniteError):
        solve_affine(np.eye(2), np.array([np.nan, 0.0]))
    # a right-hand side whose norm overflows cannot be judged against tol_img
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        solve_affine(np.eye(2), np.array([1e300, 1e300]))


# ------------------------------------------------------ 1x1 closed form

def _nudged(edge, ulps):
    for _ in range(abs(ulps)):
        edge = math.nextafter(edge, math.inf if ulps > 0 else 0.0)
    return edge


# LAPACK's gesdd leaves a matrix unscaled when its largest |entry| lies in
# [smlnum, bignum]: about 6.7e-139 and 1.5e138
_SMLNUM = math.sqrt(2.2250738585072014e-308) / 2.220446049250313e-16
_BIGNUM = 1.0 / _SMLNUM
_signs = st.sampled_from([-1.0, 1.0])
_in_range = st.builds(lambda sign, e: sign * 10.0 ** e, _signs, st.floats(-137.0, 137.0))
_edges = st.builds(lambda sign, edge, ulps: sign * _nudged(edge, ulps), _signs,
                   st.sampled_from([_SMLNUM, _BIGNUM]), st.integers(-3, 3))
# zero, subnormal and out-of-range entries, which LAPACK rescales; the bands
# next to the edges hold the magnitudes where it returns s one ulp below |d|
_rescaled = st.builds(lambda sign, mag: sign * mag, _signs, st.one_of(
    st.just(0.0), st.floats(5e-324, _SMLNUM, exclude_max=True),
    st.floats(6e-139, _SMLNUM, exclude_max=True),
    st.floats(_BIGNUM, 1.7e138, exclude_min=True), st.floats(_BIGNUM, 1.7e308, exclude_min=True)))
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
_tolerances = st.one_of(
    st.just(DEFAULT_TOLERANCES),
    st.builds(lambda f: Tolerances(img_factor=f), st.floats(1e-12, 1.0)),
    # rank_factor >= 1 cuts every singular value: rank 0, kernel [[1]]
    st.builds(lambda f: Tolerances(rank_factor=f), st.floats(1.0, 4.0)),
)


def _lapack_solve(d, b, tols):
    """solve_affine's general arithmetic on numpy's SVD of [[d]]: the factors,
    rank, x0, residual, verdict, tol_img and kernel, or None where it raises
    NonFiniteError."""
    mat, rhs = np.array([[d]]), np.array([b])
    if not math.isfinite(d):
        return None
    u, s, vt = np.linalg.svd(mat)
    r = int(s[0] > tols.rank_tol(mat, float(s[0])))
    tol_img = tols.img_tol(mat, rhs, float(s[0]))
    x0 = vt[:r].T @ ((u[:, :r].T @ rhs) / s[:r])
    residual = float(np.linalg.norm(mat @ x0 - rhs))
    consistent = residual <= tol_img
    if not tol_img < math.inf or not (consistent or math.isfinite(residual)):
        return None
    kernel = np.abs(vt[r:].T)  # the gauge: a 1-vector's one entry made positive
    return (u, s, vt), r, x0, residual, consistent, tol_img, kernel


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_in_range, _edges, _rescaled, _non_finite),
       st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False),
                 _non_finite),
       _tolerances)
def test_1x1_closed_form_matches_lapack_and_the_general_solve(d, b, tols):
    mat = np.array([[d]])
    with np.errstate(all="ignore"):
        expected = _lapack_solve(d, b, tols)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            if expected is None:
                with pytest.raises(NonFiniteError):
                    solve_affine(mat, np.array([b]), tols)
                return
            factors, r, cut = linalg._svd_rank(float(d), tols)
            sol = solve_affine(mat, np.array([b]), tols)
        values, r_values = linalg._svd_rank(mat, tols, compute_uv=False)
    # the float path runs LAPACK exactly where it rescales a 1x1
    assert (svd.call_count == 0) == (_SMLNUM <= abs(d) <= _BIGNUM)
    lapack, rank_, x0, residual, consistent, tol_img, kernel = expected
    assert all(_same_bits(f, g.item()) for f, g in zip(factors, lapack))
    assert _same_bits(cut, tols.rank_tol(mat, lapack[1].item()))
    assert _same_bits(values, lapack[1]) and r == r_values == rank_
    assert _same_bits(sol.x0, x0) and _same_bits(sol.residual, residual)
    assert sol.consistent == consistent and _same_bits(sol.tol_used, tol_img)
    assert _same_bits(sol.kernel.vectors, kernel)


def test_1x1_solves_of_full_rank_share_one_read_only_empty_kernel():
    # d = 1e-200 lies outside LAPACK's unscaled range: its factors come from LAPACK
    sols = [solve_affine(np.array([[d]]), np.array([1.0])) for d in (2.0, -3.0, 1e-200)]
    assert all(sol.kernel is sols[0].kernel for sol in sols)
    assert sols[0].kernel.vectors.shape == (1, 0)
    assert not sols[0].kernel.vectors.flags.writeable
    zero = solve_affine(np.array([[0.0]]), np.array([0.0]))  # rank 0: its own kernel
    assert zero.kernel.vectors.tolist() == [[1.0]] and zero.kernel.vectors.flags.writeable
