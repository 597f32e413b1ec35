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
from .nonholonomic import PointDynamics
from .specfile import constant_value, load, loads, parse_box
from .symmetry import (
    check_descent,
    check_inf_symmetry,
    check_symmetry,
    constant_descent,
    max_rate,
)

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


def _assignments(items, flag):
    """{name: value text} of the comma-separated ``name=value`` lists `items`
    of `flag`; a piece that is not name=value, or a name given twice, is a
    usage error."""
    out = {}
    for item in items or ():
        for piece in item.split(","):
            key, eq, value = (p.strip() for p in piece.partition("="))
            if not (key or eq or value):
                continue
            if not (key and eq and value):
                raise _UsageError(f"bad {flag} entry {piece.strip()!r} (expected name=value)")
            if key in out:
                raise _UsageError(f"{key!r} assigned twice in {flag}")
            out[key] = value
    return out


def _load_spec(args):
    overrides = _assignments(getattr(args, "param", None), "--param")
    if getattr(args, "scenario", None):
        return loads(scenario_text(args.scenario), name=args.scenario,
                     param_overrides=overrides)
    if getattr(args, "spec", None):
        return load(args.spec, param_overrides=overrides)
    raise _UsageError("one of --scenario or --spec is required")


def _check_flags(args):
    """A --points that is not a positive count, or a --tol, --tol-rank or
    --tol-img that is not positive and finite, is a usage error."""
    if getattr(args, "points", 1) < 1:
        raise _UsageError("--points must be a positive integer")
    for flag in ("tol", "tol_rank", "tol_img"):
        value = getattr(args, flag, None)
        if value is not None and not 0.0 < value < math.inf:
            raise _UsageError(f"--{flag.replace('_', '-')} must be positive and finite")


def _tolerances(args):
    kwargs = {}
    for flag, key in (("tol_rank", "rank_factor"), ("tol_img", "img_factor")):
        value = getattr(args, flag, None)
        if value is not None:
            kwargs[key] = value
    return linalg.Tolerances(**kwargs)


def _parse_assignments(text, spec, flag):
    """``x=0,y'=2`` -> {name: value}; values may be constant expressions."""
    out = {}
    for key, value in _assignments([text], flag).items():
        if key not in spec.variables:
            raise _UsageError(f"unknown variable {key!r} in {flag}")
        try:
            out[key] = float(value)
        except ValueError:
            try:
                out[key] = constant_value(value, spec.params)
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


def _default_points(spec, count):
    box = spec.box
    if spec.constraints is not None:
        pts = sampling.on_manifold_sample(spec.constraints, spec.variables, box,
                                          count)
        if len(pts) < count:
            raise NotOnManifoldError(
                "could not project enough sample points onto the constraint set; "
                "provide --at points or widen the [symmetry] box"
            )
        return pts
    return sampling.halton_box(spec.variables, box, count)


def _point_docs(spec, points, tols, evaluator):
    """The report of `analyze` at each row of an (N, n) array of points, as one
    batch: each field is evaluated over the sample and each rank decision is
    stacked (`PointDynamics.analyses` and `PointDynamics.solves`; on a spec
    with no constraints, the solve of A v = f is the explicit flow's). A point
    where the base is singular gets a singular-point report, with the
    second-order solve when the spec has a Lagrangian."""
    docs = [{"at": x} for x in points]
    if spec.constraints is not None:
        for doc, worst in zip(docs, spec.constraints.residual(points).tolist()):
            doc["phi_residual"] = worst
    if spec.gnh is None:
        sol = PointDynamics(spec.system, tols).solves(points)[2]
        for i, doc in enumerate(docs):
            res = sol.item(i)
            doc.update(rank_A=spec.system.n - res.kernel.dim, consistent=res.consistent,
                       consistency_residual=res.residual)
            if res.consistent:
                doc["X0"] = res.x0
                doc["solution_kernel_dim"] = res.kernel.dim
        return docs
    spec.constraints.require_on(points)
    singular = []
    for i, (doc, pa) in enumerate(zip(docs, evaluator(False).analyses(points))):
        if isinstance(pa, BaseNotRegularError):
            res = pa.consistency
            doc.update(base_regular=False, rank_base=res.rank_A,
                       base_kernel_dim=spec.system.n - res.rank_A,
                       consistent=res.consistent, consistency_residual=res.residual)
            singular.append(i)
            continue
        cls, y, mult = pa.classification, pa.y, pa.multipliers
        doc.update(
            base_regular=True,
            D=cls.d_matrix,
            rank_D=cls.rank_d,
            surjective=cls.surjective,
            injective=cls.injective,
            regular=cls.regular,
            Y=y,
            u=mult.u,
            X=pa.field,
            multiplier_gauged=mult.gauged,
        )
        if pa.projectors is not None:
            doc["projector_residual"] = float(np.max(np.abs(pa.projectors[0] @ y - pa.field)))
        if spec.report_scale != 1.0:
            doc["u_scaled"] = mult.u * spec.report_scale
    if singular and spec.model is not None:
        # a singular Lagrangian base: the second-order solve, as one batch
        xf, u, sol, errors = evaluator(True).solves(points[singular])
        for j, i in enumerate(singular):
            if errors[j] is not None:
                docs[i]["sode_consistent"] = False
                continue
            dim = sol.kernel[j].dim
            docs[i].update(sode_consistent=True, sode_unique=dim == 0, X=xf[j], u=u[j],
                           sode_kernel_dim=dim)
    return docs


def cmd_analyze(args):
    spec = _load_spec(args)
    tols = _tolerances(args)
    if args.at:
        points = [_build_point(spec, _parse_assignments(a, spec, "--at")) for a in args.at]
    else:
        points = _default_points(spec, args.points)
    dyns = {}

    def evaluator(second_order):
        """The command's PointDynamics of one mode, built on first use."""
        if second_order not in dyns:
            dyns[second_order] = PointDynamics(spec.gnh, tols, second_order=second_order)
        return dyns[second_order]

    doc = {
        "command": "analyze",
        "input": spec.name,
        "params": dict(spec.params),
        "point_count": len(points),
    }
    for i, point_doc in enumerate(_point_docs(spec, np.asarray(points, dtype=float),
                                              tols, evaluator)):
        doc[f"point_{i:03d}"] = point_doc
    sys.stdout.write(report.render(doc))
    return 0


def _make_field(spec, x0, tols):
    """(evaluator, mode) of a command's flow; the base's regularity at x0 names the
    mode, and a singular Lagrangian base adds the second-order rows."""
    if spec.gnh is None:
        return PointDynamics(spec.system, tols), "explicit"
    dyn = PointDynamics(spec.gnh, tols)
    error = dyn.base_errors(np.asarray(x0, dtype=float)[None])[0]
    if error is None:
        return dyn, "constrained"
    if spec.model is None:
        raise error
    dyn = PointDynamics(spec.gnh, tols, second_order=True)
    spec.constraints.require_on(x0)
    if dyn.solve(x0)[2].kernel.dim > 0:
        raise InconsistentSystemError("the second-order solution is not unique; cannot integrate")
    return dyn, "second-order"


# Bounds a self-test simulation must meet: drift off M, and deviation of each
# [constant] monitor from its value at x0.
_DRIFT_BOUND = 1e-8
_MONITOR_BOUND = 1e-6


def simulate_report(spec, x0, t1, dt, tols, out=None, timed=False):
    """(doc, ok) of one run; ok when drift and monitors are within the bounds above."""
    dyn, mode = _make_field(spec, x0, tols)
    t_start = time.perf_counter()
    traj = integrate(dyn.field, x0, t1, dt, project=spec.constraints,
                     multiplier_fn=dyn.multipliers)
    elapsed = time.perf_counter() - t_start
    doc = {
        "command": "simulate",
        "input": spec.name,
        "mode": mode,
        "x0": x0,
        "t1": float(t1),
        "dt": float(dt),
        "steps": traj.steps,
        "drift_max": float(np.max(traj.drift)) if spec.constraints else 0.0,
    }
    ok = doc["drift_max"] <= _DRIFT_BOUND
    if spec.constants:
        mons = {}
        for name in sorted(spec.constants):
            res = monitor(traj, spec.constants[name], name)
            mons[name] = res.max_abs_deviation
            ok = ok and res.max_abs_deviation <= _MONITOR_BOUND
        doc["monitor_deviation"] = mons
    if out:
        traj.write_csv(out)
        doc["out"] = out
    if timed:
        doc["wall_seconds"] = round(elapsed, 3)
    return doc, ok


def cmd_simulate(args):
    spec = _load_spec(args)
    tols = _tolerances(args)
    for flag in ("dt", "t1"):
        value = getattr(args, flag)
        if value is None or not 0.0 < value < math.inf:
            raise _UsageError(f"--{flag} must be positive and finite")
    if not args.x0:
        raise _UsageError("--x0 is required")
    x0 = _build_point(spec, _parse_assignments(args.x0, spec, "--x0"))
    doc, _ = simulate_report(spec, x0, args.t1, args.dt, tols, out=args.out,
                             timed=not args.quiet_time)
    sys.stdout.write(report.render(doc))
    return 0  # simulate reports drift and monitors; it does not judge them


def symmetry_report(spec, tols, points, tol=1e-8, box=None):
    """(doc, ok) of check-symmetry: the base candidate, and its descent to M."""
    if spec.symmetry is None:
        raise _UsageError("the spec has no [symmetry] section")
    box = box or spec.box
    pts = sampling.halton_box(spec.variables, box, points)
    if spec.symmetry.kind == "finite":
        chk = check_symmetry(spec.system, spec.symmetry, pts, tol=tol, tols=tols)
    else:
        chk = check_inf_symmetry(spec.system, spec.symmetry, pts, tol=tol)
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
                                            box, max(1, points // 4))
        if len(m_pts) == 0:
            raise NotOnManifoldError(
                "no sample point projected onto the constraint set"
            )
        dsc = check_descent(spec.gnh, spec.symmetry, m_pts, tol=tol, tols=tols)
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
    return doc, ok


def cmd_check_symmetry(args):
    spec = _load_spec(args)
    tols = _tolerances(args)
    box = None
    if args.box:
        box = {**(spec.box or {}), **parse_box(args.box, spec.variables, label="--box")}
    doc, ok = symmetry_report(spec, tols, args.points, tol=args.tol, box=box)
    sys.stdout.write(report.render(doc))
    return 0 if ok else 1


def constant_report(spec, tols, points, tol=1e-8):
    """(doc, ok) of check-constant: is each [constant] conserved by the flow on M."""
    if not spec.constants:
        raise _UsageError("the spec has no [constant] section")
    if spec.gnh is None:
        raise _UsageError("check-constant needs [constraints] (a constrained flow)")
    pts = _default_points(spec, points)
    dyn, mode = _make_field(spec, pts[0], tols)
    base_regular = mode == "constrained"
    # (Y, X) at each point on a regular base; the second-order X alone otherwise
    if base_regular:
        spec.constraints.require_on(pts)
        flows = dyn.flows(pts)
    else:
        flows, _, _, errors = dyn.solves(pts)
        first = next((e for e in errors if e is not None), None)
        if first is not None:
            raise first
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
            res = constant_descent(h, pts, flows, tol=tol)
            doc[name] = {
                "base_conserved": res.base_conserved,
                "Gamma_h_max": res.max_Gamma_h,
                "constrained_conserved": res.constrained_conserved,
                "X_h_max": res.max_X_h,
                "consistent": res.consistent,
            }
            ok = ok and res.constrained_conserved
        else:
            worst = max_rate(h, pts, flows)
            conserved = worst <= tol
            doc[name] = {"constrained_conserved": conserved, "X_h_max": worst}
            ok = ok and conserved
    doc["passed"] = ok
    return doc, ok


def cmd_check_constant(args):
    doc, ok = constant_report(_load_spec(args), _tolerances(args), args.points,
                              tol=args.tol)
    sys.stdout.write(report.render(doc))
    return 0 if ok else 1


def _self_test(name):
    """Report of the checks a bundled scenario declares, run by the commands' code.

    check-symmetry when it has [symmetry], check-constant when it has
    [constant] and [constraints], each at 50 points; then a 100-step simulate
    from a sampled point, judged by the drift and monitor bounds.
    """
    spec = loads(scenario_text(name), name=name)
    tols = linalg.DEFAULT_TOLERANCES
    reports = {}
    if spec.symmetry is not None:
        reports["check_symmetry"] = symmetry_report(spec, tols, 50)
    if spec.constants and spec.constraints is not None:
        reports["check_constant"] = constant_report(spec, tols, 50)
    x0 = _default_points(spec, 1)[0]
    reports["simulate"] = simulate_report(spec, x0, 1.0, 0.01, tols)
    doc = {key: sub for key, (sub, _) in reports.items()}
    doc["ok"] = all(ok for _, ok in reports.values())
    return doc


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
        doc = {name: _self_test(name) for name in names}
        doc["all_ok"] = all(doc[name]["ok"] for name in names)
        sys.stdout.write(report.render(doc))
        return 0 if doc["all_ok"] else 1
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
    p.add_argument("--t1", type=float, help="final time (> 0, finite)")
    p.add_argument("--dt", type=float, help="step size (> 0, finite)")
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
                   help="run the checks each scenario declares (default: all)")
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_flags(args)
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
