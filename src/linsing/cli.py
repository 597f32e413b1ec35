"""Command-line front end.

Subcommands
-----------
analyze
    Pointwise reports: ranks, regularity flags, multipliers, field values,
    projector residuals. Points come from repeated ``--at`` flags (missing
    coordinates are solved from the constraints) or a quasi-random sample.
simulate
    Integrate the constrained (or explicit) dynamics and write a CSV.
check-symmetry / check-constant
    Verify the [symmetry] candidate or the [constant] entries by sampling.
scenario
    List, dump, or self-test the bundled scenario files.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 evaluation or numerical error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from importlib import resources

import numpy as np

from . import linalg, report, sampling
from .dynamics import integrate, monitor
from .errors import (
    BaseNotRegularError,
    InconsistentSystemError,
    LinsingError,
    NotOnManifoldError,
    SpecFileError,
)
from .lagrangian import sode_solve, sode_solve_at
from .nonholonomic import (
    PointDynamics,
    classify_at,
    constrained_field_at,
    projectors_at,
    unconstrained_solution_at,
)
from .specfile import _substitute_tokens, load, loads, parse_param_overrides
from .symmetry import (
    check_constant_descent,
    check_descent,
    check_inf_symmetry,
    check_symmetry,
)
from .systems import consistency_at, solve_at

SCENARIOS = ("example1", "relparticle-L1", "relparticle-L2", "rosenberg")

_USAGE = 2
_EVAL = 3


class _UsageError(Exception):
    pass


def scenario_text(name):
    if name not in SCENARIOS:
        raise _UsageError(
            f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
        )
    return (
        resources.files(__package__) / "scenarios" / f"{name}.lss"
    ).read_text(encoding="utf-8")


def _load_spec(args):
    overrides = parse_param_overrides(getattr(args, "param", None))
    if getattr(args, "scenario", None):
        return loads(scenario_text(args.scenario), name=args.scenario,
                     param_overrides=overrides)
    if getattr(args, "spec", None):
        return load(args.spec, param_overrides=overrides)
    raise _UsageError("one of --scenario or --spec is required")


def _tolerances(args):
    kwargs = {}
    for flag, key in (("tol_rank", "rank_factor"), ("tol_img", "img_factor")):
        value = getattr(args, flag, None)
        if value is not None:
            if not 0.0 < value < math.inf:
                raise _UsageError(f"--{flag.replace('_', '-')} must be positive and finite")
            kwargs[key] = value
    return linalg.Tolerances(**kwargs)


def _parse_assignments(text, spec):
    """``x=0,y'=2`` -> {name: value}; values may be constant expressions."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise _UsageError(f"bad assignment {piece!r} (expected name=value)")
        key, value = piece.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in spec.variables:
            raise _UsageError(f"unknown variable {key!r} in assignment")
        if key in out:
            raise _UsageError(f"variable {key!r} assigned twice")
        try:
            out[key] = float(value)
        except ValueError:
            from .expressions import evaluate, parse

            expanded = _substitute_tokens(value, spec.params)
            try:
                out[key] = float(evaluate(parse(expanded, []), {}))
            except LinsingError as exc:
                raise _UsageError(f"bad value for {key!r}: {exc}") from exc
        if not math.isfinite(out[key]):
            raise _UsageError(f"bad value for {key!r}: {value} is not finite")
    return out


def _build_point(spec, assignments):
    """Assemble a full state; free coordinates are Newton-solved onto M."""
    x = np.zeros(len(spec.variables))
    free = []
    for i, name in enumerate(spec.variables):
        if name in assignments:
            x[i] = assignments[name]
        else:
            free.append(i)
    if spec.constraints is None:
        return x
    if not free:
        spec.constraints.require_on(x)
        return x
    lifted, ok, _ = spec.constraints.lift(x, free)
    if not ok:
        x2 = x.copy()
        x2[free] = 1.0
        lifted, ok, _ = spec.constraints.lift(x2, free)
    if not ok:
        raise NotOnManifoldError(
            "could not solve the constraints for the unspecified coordinates; "
            "pin more of them with --at"
        )
    return lifted


def _default_points(spec, count, on_m=True):
    box = spec.box
    if spec.constraints is not None and on_m:
        pts = sampling.on_manifold_sample(spec.constraints, spec.variables, box,
                                          count)
        if len(pts) < count:
            raise NotOnManifoldError(
                "could not project enough sample points onto the constraint set; "
                "provide --at points or widen the [symmetry] box"
            )
        return pts
    return sampling.halton_box(spec.variables, box, count)


def _point_doc(spec, x, tols):
    doc = {"at": np.asarray(x, dtype=float)}
    if spec.constraints is not None:
        doc["phi_residual"] = spec.constraints.residual(x)
    if spec.gnh is not None:
        try:
            cls = classify_at(spec.gnh, x, tols)
        except BaseNotRegularError:
            return _singular_point_doc(spec, x, tols, doc)
        y = unconstrained_solution_at(spec.gnh, x, tols)
        xfield, mult = constrained_field_at(spec.gnh, x, y, tols)
        p, _ = projectors_at(spec.gnh, x, tols)
        doc.update(
            base_regular=True,
            D=cls.d_matrix,
            rank_D=cls.rank_d,
            surjective=cls.surjective,
            injective=cls.injective,
            regular=cls.regular,
            Y=y,
            u=mult.u,
            X=xfield,
            multiplier_gauged=mult.gauged,
            projector_residual=float(np.max(np.abs(p @ y - xfield))),
        )
        if spec.report_scale != 1.0:
            doc["u_scaled"] = mult.u * spec.report_scale
        return doc
    res = consistency_at(spec.system, x, tols)
    doc.update(
        rank_A=res.rank_A,
        consistent=res.consistent,
        consistency_residual=res.residual,
    )
    if res.consistent:
        doc["X0"] = res.solution.x0
        doc["solution_kernel_dim"] = res.solution.kernel.dim
    return doc


def _singular_point_doc(spec, x, tols, doc):
    res = consistency_at(spec.system, x, tols)
    doc.update(
        base_regular=False,
        rank_base=res.rank_A,
        base_kernel_dim=spec.system.n - res.rank_A,
        consistent=res.consistent,
        consistency_residual=res.residual,
    )
    if spec.model is not None and spec.constraints is not None:
        try:
            sol = sode_solve_at(spec.model, spec.constraints, x,
                                forces=spec.forces, tols=tols)
        except InconsistentSystemError:
            doc["sode_consistent"] = False
        else:
            doc["sode_consistent"] = True
            doc["sode_unique"] = sol.unique
            doc["X"] = sol.x0
            doc["sode_kernel_dim"] = sol.kernel.dim
    return doc


def cmd_analyze(args):
    spec = _load_spec(args)
    tols = _tolerances(args)
    if args.at:
        points = [_build_point(spec, _parse_assignments(a, spec)) for a in args.at]
    else:
        points = list(_default_points(spec, args.points))
    doc = {
        "command": "analyze",
        "input": spec.name,
        "params": dict(spec.params),
        "point_count": len(points),
    }
    for i, x in enumerate(points):
        doc[f"point_{i:03d}"] = _point_doc(spec, x, tols)
    sys.stdout.write(report.render(doc))
    return 0


def _make_field(spec, x0, tols):
    """(field_fn, multiplier_fn, mode) for integration, choosing the solve path."""
    if spec.gnh is not None:
        try:
            unconstrained_solution_at(spec.gnh, x0, tols)
        except BaseNotRegularError:
            if spec.model is None:
                raise
            probe = sode_solve_at(spec.model, spec.constraints, x0,
                                  forces=spec.forces, tols=tols)
            if not probe.unique:
                raise InconsistentSystemError(
                    "the second-order solution is not unique; cannot integrate"
                )

            def field_fn(x):
                return sode_solve(spec.model, spec.constraints, x,
                                  forces=spec.forces, tols=tols).x0

            return field_fn, None, "second-order"
        dyn = PointDynamics(spec.gnh, tols)
        return dyn.field, dyn.multipliers, "constrained"

    def field_fn(x):
        sol = solve_at(spec.system, x, tols=tols)
        if not sol.consistent or sol.kernel.dim > 0:
            raise InconsistentSystemError(
                f"A(x) v = f(x) has no unique solution (residual {sol.residual:.3e})"
            )
        return sol.x0

    return field_fn, None, "explicit"


def cmd_simulate(args):
    spec = _load_spec(args)
    tols = _tolerances(args)
    if args.dt is None or args.dt <= 0.0:
        raise _UsageError("--dt must be a positive number")
    if args.t1 is None or args.t1 <= 0.0:
        raise _UsageError("--t1 must be a positive number")
    if not args.x0:
        raise _UsageError("--x0 is required")
    x0 = _build_point(spec, _parse_assignments(args.x0, spec))
    field_fn, mult_fn, mode = _make_field(spec, x0, tols)
    t_start = time.perf_counter()
    traj = integrate(field_fn, x0, args.t1, args.dt, project=spec.constraints,
                     multiplier_fn=mult_fn)
    elapsed = time.perf_counter() - t_start
    doc = {
        "command": "simulate",
        "input": spec.name,
        "mode": mode,
        "x0": x0,
        "t1": float(args.t1),
        "dt": float(args.dt),
        "steps": traj.steps,
        "drift_max": float(np.max(traj.drift)) if spec.constraints else 0.0,
    }
    if spec.constants:
        mons = {}
        for name in sorted(spec.constants):
            res = monitor(traj, spec.constants[name], name)
            mons[name] = res.max_abs_deviation
        doc["monitor_deviation"] = mons
    if args.out:
        traj.write_csv(args.out)
        doc["out"] = args.out
    if not args.quiet_time:
        doc["wall_seconds"] = round(elapsed, 3)
    sys.stdout.write(report.render(doc))
    return 0


def _box_override(spec, text):
    if not text:
        return spec.box
    box = dict(spec.box or {})
    for piece in text.split(","):
        piece = piece.strip()
        parts = piece.split(":")
        if len(parts) != 3:
            raise _UsageError(f"bad --box entry {piece!r} (expected name:lo:hi)")
        name = parts[0].strip()
        if name not in spec.variables:
            raise _UsageError(f"--box names unknown variable {name!r}")
        try:
            lo, hi = float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise _UsageError(f"bad --box bounds in {piece!r}") from exc
        if not lo < hi:
            raise _UsageError(f"empty --box range in {piece!r}")
        box[name] = (lo, hi)
    return box


def cmd_check_symmetry(args):
    spec = _load_spec(args)
    tols = _tolerances(args)
    if spec.symmetry is None:
        raise _UsageError("the spec has no [symmetry] section")
    box = _box_override(spec, args.box)
    pts = sampling.halton_box(spec.variables, box, args.points)
    if spec.symmetry.kind == "finite":
        chk = check_symmetry(spec.system, spec.symmetry, pts, tol=args.tol,
                             tols=tols)
    else:
        chk = check_inf_symmetry(spec.system, spec.symmetry, pts, tol=args.tol)
    doc = {
        "command": "check-symmetry",
        "input": spec.name,
        "kind": spec.symmetry.kind,
        "point_count": len(pts),
        "r_f": chk.r_f,
        "r_A": chk.r_A,
        "symmetry_passed": chk.passed,
    }
    ok = chk.passed
    if spec.gnh is not None:
        m_pts = sampling.on_manifold_sample(spec.constraints, spec.variables,
                                            box, max(1, args.points // 4))
        if len(m_pts) == 0:
            raise NotOnManifoldError(
                "no sample point projected onto the constraint set"
            )
        dsc = check_descent(spec.gnh, spec.symmetry, m_pts, tol=args.tol,
                            tols=tols)
        doc.update(
            descent_point_count=len(m_pts),
            tangent_to_M=dsc.tangent_to_M,
            preserves_forces=dsc.preserves_forces,
            descends=dsc.descends,
            tangency_residual=dsc.tangency_residual,
            force_residual=dsc.force_residual,
        )
        ok = ok and dsc.descends
    doc["passed"] = ok
    sys.stdout.write(report.render(doc))
    return 0 if ok else 1


def cmd_check_constant(args):
    spec = _load_spec(args)
    tols = _tolerances(args)
    if not spec.constants:
        raise _UsageError("the spec has no [constant] section")
    if spec.gnh is None:
        raise _UsageError("check-constant needs [constraints] (a constrained flow)")
    pts = _default_points(spec, args.points)
    base_regular = True
    try:
        unconstrained_solution_at(spec.gnh, pts[0], tols)
    except BaseNotRegularError:
        base_regular = False
    doc = {
        "command": "check-constant",
        "input": spec.name,
        "point_count": len(pts),
        "base_regular": base_regular,
    }
    ok = True
    for name in sorted(spec.constants):
        h = spec.constants[name]
        if base_regular:
            res = check_constant_descent(spec.gnh, h, pts, tol=args.tol,
                                         tols=tols)
            doc[name] = {
                "base_conserved": res.base_conserved,
                "Gamma_h_max": res.max_Gamma_h,
                "constrained_conserved": res.constrained_conserved,
                "X_h_max": res.max_X_h,
                "consistent": res.consistent,
            }
            ok = ok and res.constrained_conserved
        else:
            dh = h.gradient()
            worst = 0.0
            for x in pts:
                sol = sode_solve_at(spec.model, spec.constraints, x,
                                    forces=spec.forces, tols=tols)
                worst = max(worst, abs(float(dh(x) @ sol.x0)))
            conserved = worst <= args.tol
            doc[name] = {"constrained_conserved": conserved, "X_h_max": worst}
            ok = ok and conserved
    doc["passed"] = ok
    sys.stdout.write(report.render(doc))
    return 0 if ok else 1


# ----------------------------------------------------------------- self-tests

def _selftest_example1():
    spec = loads(scenario_text("example1"), name="example1")
    a = 2.0
    checks = {}
    worst_x = worst_p = 0.0
    regular = True
    for xx in np.linspace(-2.0, 2.0, 20):
        pt = np.array([xx, a])
        cls = classify_at(spec.gnh, pt)
        regular = regular and cls.regular and np.allclose(cls.d_matrix, [[1.0]])
        xf, _ = constrained_field_at(spec.gnh, pt)
        worst_x = max(worst_x, float(np.max(np.abs(xf - np.array([1 - a * xx, 0.0])))))
        p, _ = projectors_at(spec.gnh, pt)
        worst_p = max(worst_p, float(np.max(np.abs(p @ np.array([0.0, 1.0]) - np.array([-xx, 0.0])))))
    checks["regular_and_D"] = regular
    checks["field_error"] = worst_x
    checks["projector_error"] = worst_p
    pts = sampling.halton_box(spec.variables, spec.box, 100)
    chk = check_inf_symmetry(spec.system, spec.symmetry, pts)
    m_pts = [np.array([xx, a]) for xx in np.linspace(-2.0, 2.0, 10)]
    dsc = check_descent(spec.gnh, spec.symmetry, m_pts)
    restr = 0.0
    for pt in m_pts:
        v = spec.symmetry.base(pt)
        restr = max(restr, float(np.max(np.abs(v - np.array([1 - a * pt[0], 0.0])))))
    checks["symmetry_residual"] = max(chk.r_f, chk.r_A)
    checks["descends"] = dsc.descends
    checks["restriction_error"] = restr
    ok = (
        regular
        and worst_x <= 1e-9
        and worst_p <= 1e-9
        and chk.passed
        and dsc.descends
        and restr <= 1e-8
    )
    return ok, checks


def _selftest_rosenberg():
    spec = loads(scenario_text("rosenberg"), name="rosenberg")
    x = _build_point(spec, {"x": 0.0, "y": 1.0, "z": 0.0, "x'": 2.0, "y'": 3.0})
    checks = {"lifted_point": x}
    xf, mult = constrained_field_at(spec.gnh, x)
    expected = np.array([2.0, 3.0, 2.0, -3.0, 0.0, 3.0])
    checks["field_error"] = float(np.max(np.abs(xf - expected)))
    checks["multiplier_error"] = float(abs(mult.u[0] + 3.0))
    dyn = PointDynamics(spec.gnh)
    traj = integrate(dyn.field, x, 1.0, 1e-3, project=spec.constraints,
                     multiplier_fn=dyn.multipliers)
    drift = float(np.max(traj.drift))
    checks["drift_max"] = drift
    worst_mon = 0.0
    for name in sorted(spec.constants):
        worst_mon = max(worst_mon, monitor(traj, spec.constants[name], name).max_abs_deviation)
    checks["monitor_deviation_max"] = worst_mon
    ok = (
        checks["field_error"] <= 1e-9
        and checks["multiplier_error"] <= 1e-9
        and drift <= 1e-8
        and worst_mon <= 1e-6
    )
    return ok, checks


def _selftest_relparticle_l2():
    spec_u = loads(scenario_text("relparticle-L2"), name="relparticle-L2",
                   param_overrides={"U": "q1"})
    pts = sampling.on_manifold_sample(spec_u.constraints, spec_u.variables,
                                      spec_u.box, 20)
    worst = 0.0
    for x in pts:
        _, mult = constrained_field_at(spec_u.gnh, x)
        lam = mult.u[0] * spec_u.report_scale
        worst = max(worst, abs(lam - (-x[4])))
    checks = {"multiplier_identity_error": worst}
    spec0 = loads(scenario_text("relparticle-L2"), name="relparticle-L2")
    x0 = _build_point(spec0, {"q1": 0.0, "q2": 0.0, "q3": 0.0, "q4": 0.0,
                              "q2'": 0.3, "q3'": -0.2, "q4'": 0.1})
    dyn = PointDynamics(spec0.gnh)
    traj = integrate(dyn.field, x0, 1.0, 1e-3, project=spec0.constraints,
                     multiplier_fn=dyn.multipliers)
    end = traj.states[-1]
    straight = x0.copy()
    straight[:4] += x0[4:]  # t1 = 1
    checks["straight_line_error"] = float(np.max(np.abs(end - straight)))
    checks["metric_drift"] = monitor(traj, spec0.constants["metric"], "metric").max_abs_deviation
    ok = (
        worst <= 1e-9
        and checks["straight_line_error"] <= 1e-8
        and checks["metric_drift"] <= 1e-8
    )
    return ok, checks


def _selftest_relparticle_l1():
    spec0 = loads(scenario_text("relparticle-L1"), name="relparticle-L1")
    pts = sampling.on_manifold_sample(spec0.constraints, spec0.variables,
                                      spec0.box, 20)
    rank_ok = True
    for x in pts:
        rank_ok = rank_ok and linalg.rank(spec0.system.A_at(x)) == 6
    checks = {"omega_rank_6": rank_ok}
    spec_u = loads(scenario_text("relparticle-L1"), name="relparticle-L1",
                   param_overrides={"U": "k*q1", "k": "1"})
    inconsistent = True
    for x in pts:
        inconsistent = inconsistent and not consistency_at(spec_u.system, x).consistent
    checks["potential_inconsistent"] = inconsistent
    spec2 = loads(scenario_text("relparticle-L2"), name="relparticle-L2")
    dyn2 = PointDynamics(spec2.gnh)
    worst = 0.0
    unique = True
    for x in pts:
        sol = sode_solve_at(spec0.model, spec0.constraints, x, forces=spec0.forces)
        unique = unique and sol.unique
        worst = max(worst, float(np.max(np.abs(sol.x0 - dyn2.field(x)))))
    checks["sode_unique"] = unique
    checks["free_field_match_error"] = worst
    ok = rank_ok and inconsistent and unique and worst <= 1e-8
    return ok, checks


_SELFTESTS = {
    "example1": _selftest_example1,
    "relparticle-L1": _selftest_relparticle_l1,
    "relparticle-L2": _selftest_relparticle_l2,
    "rosenberg": _selftest_rosenberg,
}


def cmd_scenario(args):
    if args.list:
        for name in SCENARIOS:
            sys.stdout.write(name + "\n")
        return 0
    if args.dump:
        sys.stdout.write(scenario_text(args.dump))
        return 0
    if args.self_test is not None:
        names = SCENARIOS if args.self_test == "all" else (args.self_test,)
        doc = {}
        all_ok = True
        for name in names:
            if name not in _SELFTESTS:
                raise _UsageError(
                    f"unknown scenario {name!r}; available: {', '.join(SCENARIOS)}"
                )
            ok, checks = _SELFTESTS[name]()
            checks["ok"] = ok
            doc[name] = checks
            all_ok = all_ok and ok
        doc["all_ok"] = all_ok
        sys.stdout.write(report.render(doc))
        return 0 if all_ok else 1
    raise _UsageError("scenario needs one of --list, --dump NAME, --self-test NAME|all")


# ------------------------------------------------------------------- plumbing

def _add_spec_flags(p):
    p.add_argument("--scenario", help="name of a bundled scenario")
    p.add_argument("--spec", help="path to a spec file")
    p.add_argument("--param", action="append", metavar="NAME=EXPR[,NAME=EXPR]",
                   help="override [params] entries (repeatable)")
    p.add_argument("--tol-rank", type=float, dest="tol_rank",
                   help="relative singular-value cutoff for rank decisions")
    p.add_argument("--tol-img", type=float, dest="tol_img",
                   help="relative residual cutoff for image-membership tests")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="linsing",
        description="Analyze and integrate linearly singular and constrained systems.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("analyze", help="pointwise ranks, multipliers, fields")
    _add_spec_flags(p)
    p.add_argument("--at", action="append", metavar="NAME=VAL,...",
                   help="evaluation point; missing coordinates are lifted onto M "
                        "(repeatable)")
    p.add_argument("--points", type=int, default=5,
                   help="sample size when no --at is given (default 5)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate and write CSV")
    _add_spec_flags(p)
    p.add_argument("--x0", metavar="NAME=VAL,...",
                   help="initial state (missing coordinates lifted onto M)")
    p.add_argument("--t1", type=float, help="final time (> 0)")
    p.add_argument("--dt", type=float, help="step size (> 0)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--quiet-time", action="store_true", dest="quiet_time",
                   help="omit the wall-clock line (for byte-stable output)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-symmetry", help="verify the [symmetry] candidate")
    _add_spec_flags(p)
    p.add_argument("--points", type=int, default=200,
                   help="quasi-random sample size (default 200)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="acceptance tolerance (default 1e-8)")
    p.add_argument("--box", metavar="NAME:LO:HI,...",
                   help="override sampling ranges")
    p.set_defaults(func=cmd_check_symmetry)

    p = sub.add_parser("check-constant", help="verify the [constant] entries")
    _add_spec_flags(p)
    p.add_argument("--points", type=int, default=200,
                   help="on-manifold sample size (default 200)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="acceptance tolerance (default 1e-8)")
    p.set_defaults(func=cmd_check_constant)

    p = sub.add_parser("scenario", help="bundled scenario files")
    p.add_argument("--list", action="store_true", help="list scenario names")
    p.add_argument("--dump", metavar="NAME", help="print a scenario file")
    p.add_argument("--self-test", dest="self_test", metavar="NAME|all",
                   nargs="?", const="all",
                   help="run built-in checks (default: all scenarios)")
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE
    except SpecFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE
    except (LinsingError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but it is a numerical failure
        sys.stderr.write(f"error: {exc}\n")
        return _EVAL
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE


if __name__ == "__main__":
    sys.exit(main())
