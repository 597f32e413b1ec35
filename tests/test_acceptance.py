"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL (...)`` verdict line directly on
the real stdout (bypassing pytest capture, so the lines always appear in the
run log) and then asserts the same condition at the stated tolerance.
"""

import time

import numpy as np
from scipy.stats import qmc

from conftest import expression_corpus
from oracles import (
    complement_projectors,
    eval_dual,
    induced_quotient_matrix,
    kernel_basis,
    reduced_solve,
    subspace_classify,
)
from test_linalg import _random_restriction_triple, _random_subspace_pair

from linsing import linalg, report
from linsing.cli import main, scenario_text
from linsing.dynamics import integrate, monitor
from linsing.expressions import evaluate
from linsing.nonholonomic import PointDynamics
from linsing.sampling import on_manifold_sample
from linsing.specfile import loads
from linsing.symmetry import check_descent, check_inf_symmetry


def _verdict(capsys, n, ok, details):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({details})"
    with capsys.disabled():
        print(line, flush=True)
    return ok


def _scenario(name, **overrides):
    return loads(scenario_text(name), name=name, param_overrides=overrides)


def _knife_edge_points(count, bound=5.0):
    """Quasi-random states with z' = y*x' and every coordinate in [-bound, bound]."""
    raw = qmc.Halton(d=5, scramble=False).random(4 * count)
    pts = []
    for row in raw:
        x, y, z, vx, vy = -bound + 2.0 * bound * row
        vz = y * vx
        if abs(vz) <= bound:
            pts.append(np.array([x, y, z, vx, vy, vz]))
            if len(pts) == count:
                break
    return pts


def _mass_shell_points(count, c=1.0):
    """Quasi-random timelike states on g(v, v) = c^2 (exact construction)."""
    raw = qmc.Halton(d=7, scramble=False).random(count + 1)[1:]
    pts = []
    for row in raw:
        q = -1.0 + 2.0 * row[:4]
        v_sp = -0.4 + 0.8 * row[4:]
        v1 = np.sqrt(c * c + float(v_sp @ v_sp))
        pts.append(np.concatenate([q, [v1], v_sp]))
    return pts


def test_criterion_1_knife_edge_pointwise_solution(capsys):
    # free particle with z' = y*x': field and multiplier against closed forms
    spec = _scenario("rosenberg")
    pts = _knife_edge_points(100)
    assert len(pts) == 100
    t0 = time.perf_counter()
    dyn = PointDynamics(spec.gnh)
    worst_x = worst_u = 0.0
    for s in pts:
        x, y, z, vx, vy, vz = s
        xf, u = dyn.field_and_multipliers(s)
        u_exact = -vx * vy / (1.0 + y * y)
        x_exact = np.array([
            vx, vy, y * vx,
            -y * vx * vy / (1.0 + y * y), 0.0, vx * vy / (1.0 + y * y),
        ])
        worst_x = max(worst_x, float(np.max(np.abs(xf - x_exact))))
        worst_u = max(worst_u, abs(float(u[0]) - u_exact))
    elapsed = time.perf_counter() - t0
    ok = worst_x <= 1e-9 and worst_u <= 1e-9 and elapsed < 1.0
    _verdict(capsys, 1, ok, f"100 points, |X err| {worst_x:.2e}, |u err| {worst_u:.2e}, "
                    f"{elapsed:.2f}s")
    assert worst_x <= 1e-9
    assert worst_u <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_knife_edge_trajectory(capsys):
    spec = _scenario("rosenberg")
    dyn = PointDynamics(spec.gnh)
    x0 = np.array([0.0, 1.0, 0.0, 2.0, 3.0, 2.0])
    t0 = time.perf_counter()
    traj = integrate(dyn.field, x0, 10.0, 1e-3, project=spec.constraints,
                     multiplier_fn=dyn.multipliers)
    elapsed = time.perf_counter() - t0
    drift = float(np.max(traj.drift))
    deviations = {
        name: monitor(traj, spec.constants[name], name).max_abs_deviation
        for name in sorted(spec.constants)
    }
    worst_mon = max(deviations.values())
    ok = len(deviations) == 4 and worst_mon <= 1e-6 and drift <= 1e-8 and elapsed < 5.0
    _verdict(capsys, 2, ok, f"t in [0, 10], dt 1e-3; 4 monitors <= {worst_mon:.2e}, "
                    f"drift {drift:.2e}, {elapsed:.2f}s")
    assert len(deviations) == 4
    assert worst_mon <= 1e-6
    assert drift <= 1e-8
    assert elapsed < 5.0


def test_criterion_3_planar_restriction_and_symmetry(capsys):
    a = 2.0
    spec = _scenario("example1")
    worst_d = worst_x = worst_p = 0.0
    all_regular = True
    m_pts = [np.array([x, a]) for x in np.linspace(-2.0, 2.0, 20)]
    dyn = PointDynamics(spec.gnh)
    for pt in m_pts:
        pa = dyn.analysis(pt)
        cls = pa.classification
        all_regular = all_regular and cls.regular
        worst_d = max(worst_d, float(np.max(np.abs(cls.d_matrix - np.array([[1.0]])))))
        xf, p = pa.field, pa.projectors[0]
        worst_x = max(worst_x, float(np.max(np.abs(xf - np.array([1.0 - a * pt[0], 0.0])))))
        worst_p = max(worst_p, float(np.max(np.abs(p @ np.array([0.0, 1.0]) - np.array([-pt[0], 0.0])))))
    # the declared symmetry candidate: base check on y > 0, then descent
    from linsing.sampling import halton_box
    box_pts = halton_box(spec.variables, spec.box, 200)
    chk = check_inf_symmetry(spec.system, spec.symmetry, box_pts, tol=1e-8)
    dsc = check_descent(spec.gnh, spec.symmetry, m_pts, tol=1e-8)
    # restriction of V to the chart x on M equals the reduced field 1 - a*x
    worst_r = 0.0
    for pt in m_pts:
        v = spec.symmetry.base(pt)
        worst_r = max(worst_r, float(np.max(np.abs(v - np.array([1.0 - a * pt[0], 0.0])))))
    ok = (
        all_regular and worst_d <= 1e-12 and worst_x <= 1e-12 and worst_p <= 1e-12
        and chk.passed and dsc.descends and worst_r <= 1e-8
    )
    _verdict(capsys, 3, ok, f"20 points: D err {worst_d:.2e}, X err {worst_x:.2e}, "
                    f"projector err {worst_p:.2e}; symmetry passed {chk.passed}, "
                    f"descends {dsc.descends}, restriction err {worst_r:.2e}")
    assert all_regular
    assert worst_d <= 1e-12
    assert worst_x <= 1e-12
    assert worst_p <= 1e-12
    assert chk.passed and dsc.descends
    assert worst_r <= 1e-8


def test_criterion_4_quadratic_relativistic_particle(capsys):
    pts = _mass_shell_points(50)
    # with U = k*q1, k = 1 the scaled multiplier equals -v1 on the shell
    spec_u = _scenario("relparticle-L2", U="k*q1", k="1")
    dyn_u = PointDynamics(spec_u.gnh)
    worst_u = 0.0
    for x in pts:
        lam = float(dyn_u.multipliers(x)[0]) * spec_u.report_scale
        worst_u = max(worst_u, abs(lam - (-x[4])))
    # with U = 0 the motion is straight lines on the shell
    spec0 = _scenario("relparticle-L2")
    x0 = pts[0]
    dyn = PointDynamics(spec0.gnh)
    traj = integrate(dyn.field, x0, 5.0, 1e-3, project=spec0.constraints,
                     multiplier_fn=dyn.multipliers)
    straight = np.array([np.concatenate([x0[:4] + t * x0[4:], x0[4:]])
                         for t in traj.times])
    worst_line = float(np.max(np.abs(traj.states - straight)))
    metric_drift = monitor(traj, spec0.constants["metric"], "metric").max_abs_deviation
    ok = worst_u <= 1e-9 and worst_line <= 1e-8 and metric_drift <= 1e-8
    _verdict(capsys, 4, ok, f"50 shell points: multiplier err {worst_u:.2e}; "
                    f"line err {worst_line:.2e}, metric drift {metric_drift:.2e} "
                    f"over t in [0, 5]")
    assert worst_u <= 1e-9
    assert worst_line <= 1e-8
    assert metric_drift <= 1e-8


def test_criterion_5_square_root_relativistic_particle(capsys):
    pts = _mass_shell_points(50)
    spec = _scenario("relparticle-L1")
    spec_u = _scenario("relparticle-L1", U="k*q1", k="1")
    spec_l2 = _scenario("relparticle-L2")
    dyn_l2 = PointDynamics(spec_l2.gnh)
    sode = PointDynamics(spec.gnh, second_order=True)
    ranks_ok = True
    inconsistent_ok = True
    unique_ok = True
    worst_match = 0.0
    for x in pts:
        ranks_ok = ranks_ok and linalg.rank(spec.system.A(x)) == 6
        inconsistent_ok = inconsistent_ok and not linalg.solve_affine(
            spec_u.system.A(x), spec_u.system.f(x)).consistent
        xf, _, sol = sode.solve(x)
        unique_ok = unique_ok and sol.kernel.dim == 0
        worst_match = max(worst_match, float(np.max(np.abs(np.subtract(xf, dyn_l2.field(x))))))
    ok = ranks_ok and inconsistent_ok and unique_ok and worst_match <= 1e-8
    _verdict(capsys, 5, ok, f"50 timelike points: rank 6/8 {ranks_ok}, "
                    f"U=k*q1 inconsistent {inconsistent_ok}, free solution unique "
                    f"{unique_ok}, field match {worst_match:.2e}")
    assert ranks_ok
    assert inconsistent_ok
    assert unique_ok
    assert worst_match <= 1e-8


def test_criterion_6_subspace_and_quotient_oracles(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    pair_hits = 0
    for _ in range(500):
        alpha, frame, e_basis = _random_subspace_pair(rng)
        n = alpha.shape[0]
        res = subspace_classify(alpha, frame)
        stacked = np.linalg.matrix_rank(np.hstack([e_basis, frame]))
        sum_full = stacked == n
        intersection_zero = e_basis.shape[1] + frame.shape[1] == stacked
        if (res.sum_full == sum_full
                and res.intersection_zero == intersection_zero
                and res.direct_sum == (sum_full and intersection_zero)):
            pair_hits += 1
    triple_hits = 0
    for _ in range(500):
        f, j, b = _random_restriction_triple(rng)
        dim_f = f.shape[0]
        e, s = j.shape[1], b.shape[1]
        m = induced_quotient_matrix(f, j, b)
        r = linalg.rank(m)
        fjb = np.hstack([f @ j, b])
        stacked = np.linalg.matrix_rank(fjb)
        injective_oracle = (e + s - stacked) == 0
        surjective_oracle = stacked == dim_f
        if rng.random() < 0.5:
            rhs = f @ j @ rng.normal(size=e) + b @ rng.normal(size=s)
        else:
            rhs = rng.normal(size=dim_f)
        sol = reduced_solve(f, j, b, rhs)
        consistent_oracle = np.linalg.matrix_rank(
            np.column_stack([fjb, rhs])
        ) == stacked
        if ((r == e) == injective_oracle
                and (r == dim_f - s) == surjective_oracle
                and sol.consistent == consistent_oracle
                and (sol.kernel.dim == 0) == injective_oracle):
            triple_hits += 1
    elapsed = time.perf_counter() - t0
    ok = pair_hits == 500 and triple_hits == 500 and elapsed < 10.0
    _verdict(capsys, 6, ok, f"subspace pairs {pair_hits}/500, restriction triples "
                    f"{triple_hits}/500, {elapsed:.2f}s")
    assert pair_hits == 500
    assert triple_hits == 500
    assert elapsed < 10.0


def test_criterion_7_projector_route_agreement(capsys):
    # every regular scenario point: P Y equals the multiplier-path field, P
    # agrees with the geometric projector onto ker dphi along span Gamma, and
    # the pointwise classification agrees with the generic subspace test
    cases = []
    spec = _scenario("example1")
    cases += [(spec, np.array([x, 2.0])) for x in np.linspace(-2.0, 2.0, 20)]
    ros = _scenario("rosenberg")
    cases += [(ros, s) for s in _knife_edge_points(20, bound=2.0)]
    for overrides in ({}, {"U": "q1"}):
        l2 = _scenario("relparticle-L2", **overrides)
        cases += [(l2, s) for s in _mass_shell_points(20)]
    worst = worst_p = 0.0
    agree = True
    dyns = {}
    for spec_i, x in cases:
        dyn = dyns.setdefault(id(spec_i), PointDynamics(spec_i.gnh))
        pa = dyn.analysis(x)
        worst = max(worst, float(np.max(np.abs(pa.projectors[0] @ pa.y - pa.field))))
        cls = pa.classification
        gamma = np.linalg.solve(spec_i.system.A(x), spec_i.forces(x))
        jphi = spec_i.constraints.jacobian(x)
        want, _ = complement_projectors(kernel_basis(jphi), gamma)
        # the gap relative to 1e-12 cond(D) |P|
        bound = 1e-12 * np.linalg.cond(cls.d_matrix) * max(1.0, np.max(np.abs(want)))
        worst_p = max(worst_p, float(np.max(np.abs(pa.projectors[0] - want))) / bound)
        sub = subspace_classify(jphi.T, gamma)
        agree = agree and (
            cls.surjective == sub.sum_full
            and cls.injective == sub.intersection_zero
            and cls.regular == sub.direct_sum
            and np.array_equal(cls.d_matrix, sub.d_matrix)
        )
    ok = worst <= 1e-10 and worst_p <= 1.0 and agree
    _verdict(capsys, 7, ok, f"{len(cases)} regular points: |P Y - X| {worst:.2e}, "
                    f"|P - P_geometric| / (1e-12 cond(D) |P|) {worst_p:.2e}, "
                    f"classification agreement {agree}")
    assert worst <= 1e-10
    assert worst_p <= 1.0
    assert agree


def test_criterion_8_infrastructure(tmp_path, capsys):
    # derivative engine vs central differences on a large random corpus
    worst_rel = 0.0
    for e, variables, point in expression_corpus(1000, seed=31):
        val, grad = eval_dual(e, variables, point)
        fd = np.empty(len(point))
        for jx in range(len(point)):
            h = 1e-5 * max(1.0, abs(point[jx]))
            xp = point.copy()
            xm = point.copy()
            xp[jx] += h
            xm[jx] -= h
            fd[jx] = (evaluate(e, dict(zip(variables, xp)))
                      - evaluate(e, dict(zip(variables, xm)))) / (2.0 * h)
        scale = max(1.0, abs(val), float(np.max(np.abs(grad))))
        worst_rel = max(worst_rel, float(np.max(np.abs(grad - fd))) / scale)

    # integrator order: logistic equation against its closed-form solution
    def logistic(x):
        return [v * (1.0 - v) for v in x]

    x0 = np.array([0.1])
    exact = 1.0 / (1.0 + 9.0 * np.exp(-2.0))
    err_h = abs(integrate(logistic, x0, 2.0, 0.05).states[-1, 0] - exact)
    err_h2 = abs(integrate(logistic, x0, 2.0, 0.025).states[-1, 0] - exact)
    ratio = err_h / err_h2

    # repeated runs produce byte-identical reports
    argv = ["analyze", "--scenario", "rosenberg", "--points", "5"]
    assert main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert main(list(argv)) == 0
    out2 = capsys.readouterr().out
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sim = ["simulate", "--scenario", "example1", "--x0", "x=0", "--t1", "1",
           "--dt", "0.01", "--quiet-time"]
    assert main(sim + ["--out", str(csv1)]) == 0
    sim1 = capsys.readouterr().out
    assert main(sim + ["--out", str(csv2)]) == 0
    sim2 = capsys.readouterr().out
    stable = (out1 == out2 and out1 != ""
              and sim1.replace(str(csv1), "") == sim2.replace(str(csv2), "")
              and csv1.read_bytes() == csv2.read_bytes())

    ok = worst_rel <= 1e-6 and 12.0 <= ratio <= 20.0 and stable
    _verdict(capsys, 8, ok, f"1000 expressions, AD vs FD rel err {worst_rel:.2e}; "
                    f"step-halving ratio {ratio:.1f}; byte-stable reports {stable}")
    assert worst_rel <= 1e-6
    assert 12.0 <= ratio <= 20.0
    assert stable


def test_singular_lagrangian_on_the_mass_shell_has_the_regular_multiplier():
    # the square-root Lagrangian with U = q1 is inconsistent on its own
    # (criterion 5); with the shell constraint and its Chetaev force it is a
    # regular system whose multiplier is the quadratic model's
    spec_l1 = _scenario("relparticle-L1", U="q1")
    spec_l2 = _scenario("relparticle-L2", U="q1")
    dyn_l2 = PointDynamics(spec_l2.gnh)
    sode = PointDynamics(spec_l1.gnh, second_order=True)
    worst = 0.0
    for x in _mass_shell_points(50):
        _, u, sol = sode.solve(x)
        assert sol.kernel.dim == 0
        worst = max(worst, float(np.max(np.abs(u - dyn_l2.multipliers(x)))))
    assert worst <= 1e-10
