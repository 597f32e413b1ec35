"""The benchmark's workloads: seeded CLI inputs, run sizes and correctness gates.

A workload is a fixed list of `linsing` commands (its mix). The seed draws only
the command-line inputs (`--x0`, `--param`), from ranges where every gate
below holds; the program never sees the seed. Each gate checks tolerances,
not bytes, so a declared last-bit change in a solver still passes.
"""

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("traj-regular", "traj-singular", "verify-sweep")


@dataclass
class Command:
    """One CLI invocation: `linsing ARGV...`, its unit of work and its gate."""

    argv: list
    work: int            # integrator steps, or requested sample points
    gate: object         # (rc, report_text, csv_text or None) -> list of problems
    out: str = None      # CSV path the command writes, relative to the checkout


@dataclass
class Workload:
    name: str
    unit: str            # what `work` counts
    full: list           # the mix at full size
    setup: list          # the same commands shrunk to one step / one point
    inputs: dict = field(default_factory=dict)


# ------------------------------------------------------------ report parsing

def parse_report(text):
    """`key: value` lines with two-space nesting -> nested dict of strings."""
    root = {}
    stack = [(-1, root)]
    for line in text.splitlines():
        if not line.strip():
            continue
        depth = (len(line) - len(line.lstrip(" "))) // 2
        key, _, value = line.strip().partition(":")
        while stack[-1][0] >= depth:
            stack.pop()
        node = stack[-1][1]
        if value.strip():
            node[key] = value.strip()
        else:
            node[key] = {}
            stack.append((depth, node[key]))
    return root


def _vector(text):
    return [float(v) for v in text.strip("[]").split(",")]


def _number(doc, key, problems):
    try:
        return float(doc[key])
    except (KeyError, TypeError, ValueError):
        problems.append(f"report has no number {key!r}")
        return math.nan


def _at_most(value, bound, what, problems):
    if not value <= bound:  # also catches NaN
        problems.append(f"{what} = {value!r} exceeds {bound:g}")


def _csv_rows(csv_text, steps, problems):
    """Data rows of a simulate CSV, checked for count, width and finiteness."""
    if csv_text is None:
        problems.append("no CSV written")
        return []
    lines = csv_text.splitlines()
    header = lines[0].split(",") if lines else []
    if header[:1] != ["t"] or header[-1:] != ["drift"]:
        problems.append("CSV header is not t,...,drift")
    rows = []
    for line in lines[1:]:
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            problems.append("CSV has a non-numeric value")
            return []
        if len(row) != len(header) or not all(math.isfinite(v) for v in row):
            problems.append("CSV has a short or non-finite row")
            return []
        rows.append(row)
    if len(rows) != steps + 1:
        problems.append(f"CSV has {len(rows)} rows, expected {steps + 1}")
    return rows


def _simulate_report(rc, text, mode, steps, problems):
    if rc != 0:
        problems.append(f"exit code {rc}")
    doc = parse_report(text)
    if doc.get("mode") != mode:
        problems.append(f"mode {doc.get('mode')!r}, expected {mode!r}")
    if doc.get("steps") != str(steps):
        problems.append(f"steps {doc.get('steps')!r}, expected {steps}")
    return doc


# ---------------------------------------------------------------------- gates

def gate_traj_regular(steps):
    def gate(rc, text, csv_text):
        problems = []
        doc = _simulate_report(rc, text, "constrained", steps, problems)
        _at_most(_number(doc, "drift_max", problems), 1e-8, "drift_max", problems)
        mons = doc.get("monitor_deviation")
        if not isinstance(mons, dict) or len(mons) != 4:
            problems.append("expected 4 monitor deviations")
            mons = {}
        for name in mons:
            _at_most(_number(mons, name, problems), 1e-6,
                     f"monitor_deviation.{name}", problems)
        _csv_rows(csv_text, steps, problems)
        return problems
    return gate


def gate_traj_singular(steps):
    """Free relativistic particle: the trajectory is the straight line q0 + v0 t."""
    def gate(rc, text, csv_text):
        problems = []
        doc = _simulate_report(rc, text, "second-order", steps, problems)
        mons = doc.get("monitor_deviation")
        mons = mons if isinstance(mons, dict) else {}
        _at_most(_number(mons, "metric", problems), 1e-8,
                 "monitor_deviation.metric", problems)
        rows = _csv_rows(csv_text, steps, problems)
        try:
            x0 = _vector(doc["x0"])
        except (KeyError, ValueError):
            problems.append("report has no x0")
            return problems
        if rows and len(x0) == 8:
            t1, state = rows[-1][0], rows[-1][1:9]
            line = [q + v * t1 for q, v in zip(x0[:4], x0[4:])] + x0[4:]
            err = max(abs(a - b) for a, b in zip(state, line))
            _at_most(err, 1e-8, "distance of the final state from q0 + v0 t1",
                     problems)
        return problems
    return gate


def gate_check(points):
    def gate(rc, text, csv_text):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        doc = parse_report(text)
        if doc.get("passed") != "true":
            problems.append("check did not pass")
        if doc.get("point_count") != str(points):
            problems.append(f"point_count {doc.get('point_count')!r}, expected {points}")
        return problems
    return gate


def gate_analyze(points, singular):
    """Regular model: every point regular with a tiny projector residual.
    Singular model (relparticle-L1): every point has a singular base and a
    unique second-order solution."""
    def gate(rc, text, csv_text):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        doc = parse_report(text)
        if doc.get("point_count") != str(points):
            problems.append(f"point_count {doc.get('point_count')!r}, expected {points}")
        for i in range(points):
            pt = doc.get(f"point_{i:03d}")
            if not isinstance(pt, dict):
                problems.append(f"point_{i:03d} missing")
                continue
            if singular:
                if pt.get("base_regular") != "false" or pt.get("sode_unique") != "true":
                    problems.append(f"point_{i:03d}: expected a singular base "
                                    "with a unique second-order solution")
            elif pt.get("regular") != "true":
                problems.append(f"point_{i:03d} is not regular")
            else:
                _at_most(_number(pt, "projector_residual", problems), 1e-9,
                         f"point_{i:03d}.projector_residual", problems)
        return problems
    return gate


# ------------------------------------------------------------------ workloads

def _assign(values):
    return ",".join(f"{k}={v!r}" for k, v in values.items())


def _simulate(scenario, x0, dt, steps, out, gate):
    argv = ["simulate", "--scenario", scenario, "--x0", _assign(x0),
            "--t1", repr(steps * dt), "--dt", repr(dt), "--out", out]
    return Command(argv, steps, gate(steps), out)


def traj_regular(rng, work_dir, quick):
    """Knife-edge particle (rosenberg): constant 6x6 base, multipliers and a
    Gauss-Newton projection every step, 4 monitored constants."""
    x0 = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1), "z": rng.uniform(-1, 1),
          "x'": rng.uniform(-2, 2), "y'": rng.uniform(-2, 2)}
    out = f"{work_dir}/traj.csv"
    dt = 1e-3
    steps = 50 if quick else 10_000
    return Workload(
        "traj-regular", "steps",
        full=[_simulate("rosenberg", x0, dt, steps, out, gate_traj_regular)],
        setup=[_simulate("rosenberg", x0, dt, 1, out, gate_traj_regular)],
        inputs={"x0": x0},
    )


def traj_singular(rng, work_dir, quick):
    """Relativistic particle with the square-root Lagrangian (relparticle-L1):
    rank omega-hat = 6 of 8, integrated through the second-order solve. The
    seed draws a timelike initial velocity; q1' is lifted onto the shell."""
    x0 = {f"q{i}": rng.uniform(-1, 1) for i in range(1, 5)}
    x0.update({f"q{i}'": rng.uniform(-0.4, 0.4) for i in range(2, 5)})
    out = f"{work_dir}/traj.csv"
    dt = 2e-3
    steps = 20 if quick else 1_000
    return Workload(
        "traj-singular", "steps",
        full=[_simulate("relparticle-L1", x0, dt, steps, out, gate_traj_singular)],
        setup=[_simulate("relparticle-L1", x0, dt, 1, out, gate_traj_singular)],
        inputs={"x0": x0},
    )


# (subcommand, scenario, sample points at full size, gate)
SWEEP = (
    ("check-symmetry", "example1", 200, gate_check),
    ("check-symmetry", "relparticle-L1", 200, gate_check),
    ("check-constant", "rosenberg", 200, gate_check),
    ("check-constant", "relparticle-L2", 200, gate_check),
    ("analyze", "relparticle-L2", 50, lambda n: gate_analyze(n, singular=False)),
    ("analyze", "relparticle-L1", 50, lambda n: gate_analyze(n, singular=True)),
)


def _sweep_params(scenario, rng):
    """Parameter values under which the scenario's checks still hold."""
    if scenario == "example1":
        return {"a": rng.uniform(1.0, 3.0), "k": rng.uniform(0.5, 2.0)}
    if scenario.startswith("relparticle"):
        return {"m": rng.uniform(0.5, 2.0), "c": rng.uniform(0.8, 1.25)}
    return {}  # rosenberg has no parameters


def verify_sweep(rng, work_dir, quick):
    """Checked pointwise route: sampling, rank/solve_affine/projectors,
    classify_at, symmetry and constant checks, report rendering."""
    params = [_sweep_params(scenario, rng) for _, scenario, _, _ in SWEEP]

    def commands(size):
        out = []
        for (cmd, scenario, points, gate), par in zip(SWEEP, params):
            n = size or points
            argv = [cmd, "--scenario", scenario, "--points", str(n)]
            if par:
                argv += ["--param", _assign(par)]
            out.append(Command(argv, n, gate(n)))
        return out

    return Workload(
        "verify-sweep", "points",
        full=commands(2 if quick else None),
        setup=commands(1),
        inputs={"params": {f"{c}:{s}": p for (c, s, _, _), p in zip(SWEEP, params)}},
    )


def make(name, seed, work_dir, quick=False):
    by_name = {"traj-regular": traj_regular, "traj-singular": traj_singular,
               "verify-sweep": verify_sweep}
    return by_name[name](random.Random(f"{name}/{seed}"), work_dir, quick)
