import numpy as np
import pytest

from oracles import cokernel_basis

from linsing.cli import scenario_text
from linsing.errors import ShapeError
from linsing.expressions import ExpressionField
from linsing.linalg import solve_affine
from linsing.nonholonomic import SubmanifoldSpec
from linsing.sampling import on_manifold_sample
from linsing.specfile import loads
from linsing.systems import (
    LinearlySingularSystem,
    constraint_algorithm_sample,
    identity_system,
)


def _toy():
    """A = [[1,0],[0,0]], f = (1, x - y): solvable exactly on the diagonal."""
    A = ExpressionField.matrix([["1", "0"], ["0", "0"]], ("x", "y"))
    f = ExpressionField.vector(["1", "x - y"], ("x", "y"))
    return LinearlySingularSystem(A, f)


def test_system_validation():
    with pytest.raises(ShapeError):
        LinearlySingularSystem(
            ExpressionField.matrix([["1", "0"]], ("x", "y")),
            ExpressionField.vector(["1", "x"], ("x", "y")),
        )
    with pytest.raises(ShapeError):
        LinearlySingularSystem(
            ExpressionField.matrix([["1"]], ("x",)),
            ExpressionField.vector(["1"], ("y",)),
        )
    sys = _toy()
    assert sys.n == 2 and sys.k == 2
    assert sys.variables == ("x", "y")


def test_identity_system():
    f = ExpressionField.vector(["1", "y"], ("x", "y"))
    sys = identity_system(f)
    assert np.allclose(sys.A(np.array([0.3, 2.0])), np.eye(2))
    x = np.array([0.3, 2.0])
    res = solve_affine(sys.A(x), sys.f(x))
    assert res.consistent and sys.n - res.kernel.dim == 2


def test_consistency_at_toy_points():
    sys = _toy()
    x = np.array([1.0, 1.0])
    on = solve_affine(sys.A(x), sys.f(x))
    assert on.consistent and on.residual < 1e-14 and sys.n - on.kernel.dim == 1
    x = np.array([1.0, 2.0])
    off = solve_affine(sys.A(x), sys.f(x))
    assert not off.consistent
    assert abs(off.residual - 1.0) < 1e-14


def _primary_constraint_values(sys, x):
    """Pairings <w_i(x), f(x)> over the deterministic cokernel basis of A(x)."""
    return cokernel_basis(sys.A(x)).vectors.T @ sys.f(x)


def test_primary_constraint_values_track_consistency():
    sys = _toy()
    # the single cokernel direction pairs f to x - y (up to the fixed gauge)
    vals = _primary_constraint_values(sys, np.array([3.0, 1.0]))
    assert vals.shape == (1,)
    assert abs(abs(vals[0]) - 2.0) < 1e-14

    rng = np.random.default_rng(14)
    for _ in range(1000):
        x = rng.uniform(-5, 5, size=2)
        res = solve_affine(sys.A(x), sys.f(x))
        vals = _primary_constraint_values(sys, x)
        small = np.linalg.norm(vals) <= res.tol_used + 1e-13
        assert small == res.consistent


def test_consistency_solution_examples():
    # explicit system points are solved uniquely
    f = ExpressionField.vector(["1", "y"], ("x", "y"))
    sys = identity_system(f)
    x = np.array([0.5, 2.0])
    sol = solve_affine(sys.A(x), sys.f(x))
    assert sol.consistent and sol.kernel.dim == 0
    assert np.allclose(sol.x0, [1.0, 2.0])

    # A = 0, f = 0: every velocity solves, kernel is the whole space
    zero = LinearlySingularSystem(
        ExpressionField.matrix([["0", "0"], ["0", "0"]], ("x", "y")),
        ExpressionField.vector(["0", "0"], ("x", "y")),
    )
    x = np.array([1.0, 1.0])
    sol = solve_affine(zero.A(x), zero.f(x))
    assert sol.consistent and sol.kernel.dim == 2


# ------------------------------------------ derivative-array constraint algorithm

def test_constraint_algorithm_on_the_toy_system():
    sys = _toy()
    seeds = [np.array([0.0, 0.0]), np.array([2.0, 2.0]), np.array([1.0, 3.0]),
             np.array([-1.5, -1.5]), np.array([4.0, 0.0])]
    res = constraint_algorithm_sample(sys, seeds)
    assert res.converged

    by_seed = res.seeds
    # diagonal seeds survive, stabilizing after one tangency level
    for i in (0, 1, 3):
        assert by_seed[i].survives
        assert by_seed[i].failure_level is None
        assert by_seed[i].levels_run == 1
        assert by_seed[i].rank_A == 1
    # off-diagonal seeds already fail the level-0 membership test
    for i in (2, 4):
        assert not by_seed[i].survives
        assert by_seed[i].failure_level == 0
    # x' = 1 and y' = x' once the constraint x = y is differentiated
    for i in (0, 1, 3):
        assert by_seed[i].index == 1
        assert np.allclose(by_seed[i].velocity, [1.0, 1.0])


def test_regular_system_settles_at_level_zero():
    sys = identity_system(ExpressionField.vector(["y", "-x"], ("x", "y")))
    res = constraint_algorithm_sample(sys, [np.array([1.0, 2.0])])
    assert res.converged
    assert res.seeds[0].survives and res.seeds[0].levels_run == 0
    assert res.seeds[0].index == 0
    assert np.allclose(res.seeds[0].velocity, [2.0, -1.0])


def test_rank_instability_warning():
    A = ExpressionField.matrix([["1", "0"], ["0", "x"]], ("x", "y"))
    f = ExpressionField.vector(["1", "0"], ("x", "y"))
    sys = LinearlySingularSystem(A, f)
    res = constraint_algorithm_sample(
        sys, [np.array([0.0, 0.0]), np.array([1.0, 0.0])]
    )
    assert any("rank of A varies" in w for w in res.warnings)


def test_varying_A_verdicts():
    # A varies along the degenerate direction: G_0 forces x = 1 and x' = y,
    # G_1 forces y = 0, and G_2 fixes y' = 0
    A = ExpressionField.matrix([["1", "0"], ["x", "0"]], ("x", "y"))
    f = ExpressionField.vector(["y", "x*y + x - 1"], ("x", "y"))
    sys = LinearlySingularSystem(A, f)
    seeds = [np.array([1.0, 0.7]), np.array([1.0, 0.0]), np.array([2.0, 0.5])]
    assert solve_affine(sys.A(seeds[0]), sys.f(seeds[0])).consistent

    res = constraint_algorithm_sample(sys, seeds)
    assert res.converged
    assert [s.survives for s in res.seeds] == [False, True, False]
    assert [s.failure_level for s in res.seeds] == [1, None, 0]
    assert [s.levels_run for s in res.seeds] == [1, 2, 0]
    assert res.seeds[1].index == 2 and np.allclose(res.seeds[1].velocity, [0.0, 0.0])


def _pendulum():
    """Cartesian pendulum: unit rod, tension l, g = 9.81; index 3."""
    names = ("x", "y", "vx", "vy", "l")
    A = ExpressionField.matrix([[repr(v) for v in row] for row in np.diag([1.0, 1.0, 1.0, 1.0, 0.0]).tolist()], names)
    f = ExpressionField.vector(["vx", "vy", "-l*x", "-l*y - 9.81", "x^2 + y^2 - 1"], names)
    return LinearlySingularSystem(A, f)


def test_pendulum_verdicts_and_levels_built_on_demand(monkeypatch):
    built = []  # codimension of each level's SubmanifoldSpec, in build order
    init = SubmanifoldSpec.__init__

    def counted(self, phi):
        init(self, phi)
        built.append(self.codim)

    monkeypatch.setattr(SubmanifoldSpec, "__init__", counted)
    sys = _pendulum()
    seeds = [
        np.array([1.0, 0.0, 0.0, 0.5, 0.25]),  # on the final manifold
        np.array([1.0, 0.0, 0.0, 0.0, 0.0]),   # on the final manifold
        np.array([1.0, 0.0, 1.0, 0.0, 0.0]),   # on M0 only: x vx + y vy != 0
        np.array([1.0, 0.0, 0.0, 0.0, 1.0]),   # on M1, not M2: tension wrong
        np.array([2.0, 0.0, 0.0, 0.0, 0.0]),   # off M0
    ]
    res = constraint_algorithm_sample(sys, seeds)
    assert res.converged and res.warnings == []
    for s in res.seeds[:2]:
        assert s.survives and s.failure_level is None
        assert s.levels_run == 3 and s.index == 3 and s.rank_A == 4
        assert np.allclose(sys.A(s.seed) @ s.velocity, sys.f(s.seed), atol=1e-12)
    # l' = -3 g vy
    assert abs(res.seeds[0].velocity[4] - (-14.715)) < 1e-9
    assert [s.failure_level for s in res.seeds[2:]] == [1, 2, 0]
    assert not any(s.survives for s in res.seeds[2:])
    assert all(s.velocity is None and s.index is None for s in res.seeds[2:])
    # levels 0..3 are built, one block of 5 equations each, not up to the cap
    assert res.max_levels == 6
    assert built == [5, 10, 15, 20]


def test_relparticle_L1_verdicts():
    # omega-hat has rank 6 of 8; a potential in q1 leaves dE outside its image
    # on the mass shell, while U = 0 gives dE = 0
    for overrides, survives in (({"U": "q1"}, False), ({}, True)):
        spec = loads(scenario_text("relparticle-L1"), param_overrides=overrides)
        seeds = on_manifold_sample(spec.constraints, spec.variables, spec.box, 3)
        res = constraint_algorithm_sample(spec.system, seeds)
        assert res.converged and len(res.seeds) == 3
        for s in res.seeds:
            assert s.rank_A == 6 and s.survives == survives
            assert s.failure_level == (None if survives else 0)


def test_max_levels_cutoff_flags_non_convergence():
    sys = _toy()
    res = constraint_algorithm_sample(sys, [np.array([0.0, 0.0])], max_levels=0)
    assert not res.converged
    assert res.warnings
