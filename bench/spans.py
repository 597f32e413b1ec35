"""Span recording around linsing's public entry points, installed from outside.

`install` replaces each entry point below with a wrapper in every namespace
that binds it: the defining module, and modules such as `linsing.cli` and
`linsing.symmetry` that hold from-imported names. Class attributes are
replaced on the class. Each call appends one span
`(name, start, end, parent, extra)` to an in-memory list; `summarize` turns
the list into additive per-layer totals once the command has finished.

A span's name is `<layer>.<entry>`; the layer is the linsing module it belongs
to, or `lapack` for the numpy/scipy dense kernels. A layer's self time is the
duration of its spans minus the part covered by their child spans, so the self
times of all layers add up to the root span, the traced `cli.main` call.
"""

import sys
import time
from collections import defaultdict

# module -> module-level functions to wrap
FUNCTIONS = {
    "linsing.specfile": ("loads",),
    "linsing.expressions": ("compile_exprs",),
    "linsing.linalg": ("rank", "solve_affine", "kernel_basis", "cokernel_basis",
                       "complement_projectors"),
    "linsing.nonholonomic": ("H_frame_at", "D_matrix_at", "classify_at",
                             "multipliers_at", "constrained_field_at",
                             "projectors_at", "unconstrained_solution_at"),
    "linsing.lagrangian": ("sode_solve_at",),
    "linsing.dynamics": ("integrate", "monitor"),
    "linsing.sampling": ("halton_box", "on_manifold_sample"),
    "linsing.symmetry": ("check_symmetry", "check_inf_symmetry", "check_descent",
                         "check_constant_descent"),
    "linsing.systems": ("consistency_at",),
    "linsing.report": ("render",),
}

# (module, class, method)
METHODS = (
    ("linsing.expressions", "ExpressionField", "__call__"),
    ("linsing.nonholonomic", "PointDynamics", "field_and_multipliers"),
    ("linsing.nonholonomic", "SubmanifoldSpec", "project"),
    ("linsing.dynamics", "Trajectory", "write_csv"),
)

# dense kernels, looked up as module attributes at call time by linsing
LAPACK = (
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "lstsq"),
    ("scipy.linalg", "lu_solve"),
)

# entry -> what to keep from its return value
EXTRA = {
    "project": lambda r: (bool(r[1]), int(r[2])),  # (converged, iterations)
    "integrate": lambda r: r.steps,
    "on_manifold_sample": len,
    "render": len,
}

class Recorder:
    """In-memory span list; one per traced process."""

    def __init__(self):
        self.spans = []
        self.missing = []  # entry points this version of linsing lacks
        self._stack = [-1]

    def wrap(self, fn, name):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        extra_of = EXTRA.get(name.split(".", 1)[1])

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                extra = extra_of(result) if extra_of and result is not None else None
                spans[idx] = (name, t0, t1, parent, extra)

        return wrapper

    def root(self, name, fn, *args):
        return self.wrap(fn, name)(*args)


def install(recorder):
    """Wrap every entry point above in the modules already imported."""
    owners = [m for n, m in list(sys.modules.items())
              if m is not None and (n == "linsing" or n.startswith("linsing."))]
    for modname, names in FUNCTIONS.items():
        layer = modname.split(".")[1]
        mod = sys.modules.get(modname)
        for name in names:
            orig = getattr(mod, name, None)
            if orig is None:
                recorder.missing.append(f"{modname}.{name}")
                continue
            wrapper = recorder.wrap(orig, f"{layer}.{name}")
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, attr, wrapper)
    for modname, clsname, meth in METHODS:
        cls = getattr(sys.modules.get(modname), clsname, None)
        orig = getattr(cls, "__dict__", {}).get(meth)
        if orig is None:
            recorder.missing.append(f"{modname}.{clsname}.{meth}")
            continue
        setattr(cls, meth, recorder.wrap(orig, f"{modname.split('.')[1]}.{meth}"))
    for modname, name in LAPACK:
        # scipy is wrapped only if linsing imported it: importing it here
        # would change what is measured
        mod = sys.modules.get(modname)
        if mod is None or not hasattr(mod, name):
            recorder.missing.append(f"{modname}.{name}")
            continue
        setattr(mod, name, recorder.wrap(getattr(mod, name), f"lapack.{name}"))


def summarize(spans):
    """Additive totals of one traced command (sum them over a workload's mix)."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    tot = defaultdict(float)
    for i, (name, t0, t1, parent, extra) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        layer, entry = name.split(".", 1)
        pname = spans[parent][0] if parent >= 0 else ""
        tot[layer + ".self_s"] += own
        if parent < 0:
            tot["trace.main_s"] += dur
        if layer == "expressions":
            if entry == "__call__":
                tot["expressions.calls"] += 1
            else:
                tot["expressions.first_call_s"] += dur
        elif layer == "linalg":
            if not pname.startswith("linalg."):
                tot["linalg.calls"] += 1
                tot["linalg.incl_s"] += dur
        elif layer == "lapack":
            tot[f"lapack.{entry}_calls"] += 1
        elif name == "nonholonomic.field_and_multipliers":
            tot["nonholonomic.fast_calls"] += 1
            tot["nonholonomic.fast_incl_s"] += dur
        elif name == "nonholonomic.project":
            tot["nonholonomic.project_calls"] += 1
            if extra is not None:
                tot["nonholonomic.project_iters"] += extra[1]
                if pname == "dynamics.integrate" and not extra[0]:
                    tot["dynamics.retries"] += 1
            if pname == "sampling.on_manifold_sample":
                tot["sampling.drawn"] += 1
        elif layer == "nonholonomic":  # the checked *_at routes
            tot["nonholonomic.checked_self_s"] += own
            if not (pname.startswith("nonholonomic.") and pname.endswith("_at")):
                tot["nonholonomic.checked_calls"] += 1
        elif name == "lagrangian.sode_solve_at":
            tot["lagrangian.sode_calls"] += 1
            tot["lagrangian.sode_incl_s"] += dur
        elif name == "dynamics.integrate":
            tot["dynamics.integrate_incl_s"] += dur
            tot["dynamics.steps"] += extra or 0
        elif name == "dynamics.monitor":
            tot["dynamics.monitor_s"] += dur
        elif name == "dynamics.write_csv":
            tot["dynamics.csv_s"] += dur
        elif name == "sampling.halton_box":
            tot["sampling.halton_s"] += dur
        elif name == "sampling.on_manifold_sample":
            tot["sampling.kept"] += extra or 0
        elif name == "systems.consistency_at":
            tot["systems.consistency_calls"] += 1
        elif name == "report.render":
            tot["report.render_s"] += dur
            tot["report.bytes"] += extra or 0
        if pname == "dynamics.integrate" and name in (
                "nonholonomic.field_and_multipliers", "lagrangian.sode_solve_at"):
            tot["dynamics.field_evals"] += 1
    return dict(tot)
