"""linsing benchmark: run the CLI as a user does and report end-to-end metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a linsing checkout. Load shape: closed loop, one
client: one CLI process at a time, each a fresh interpreter, run in sequence.
Every invocation's output is checked by its workload's gate (workloads.py);
a non-zero exit or a failed gate counts as a failed operation.

--trace 0 prints the end-to-end metrics: set-up time, wall time, throughput
and peak memory. --trace 1 runs untraced and traced mixes in turn and prints
the per-layer metrics from span wrappers (spans.py) plus the tracing overhead.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from importlib import metadata

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_DEADLINE_S = 170  # a child still running then is killed: runs must end in 180 s
# every matrix is at most 14x8: BLAS threads would only add scheduler noise
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "import.s": "s", "import.modules": "count",
    "specfile.loads_s": "s",
    "expressions.calls": "count", "expressions.self_s": "s",
    "expressions.us_per_call": "us", "expressions.first_call_s": "s",
    "linalg.calls": "count", "linalg.self_s": "s", "linalg.us_per_call": "us",
    "lapack.svd_calls": "count", "lapack.solve_calls": "count",
    "lapack.lu_solve_calls": "count", "lapack.lstsq_calls": "count",
    "lapack.self_s": "s",
    "nonholonomic.fast_calls": "count", "nonholonomic.fast_us_per_call": "us",
    "nonholonomic.checked_calls": "count", "nonholonomic.checked_self_s": "s",
    "nonholonomic.project_calls": "count", "nonholonomic.project_iters": "count",
    "nonholonomic.self_s": "s",
    "lagrangian.sode_calls": "count", "lagrangian.sode_us_per_call": "us",
    "lagrangian.self_s": "s",
    "dynamics.steps": "count", "dynamics.field_evals_per_step": "count",
    "dynamics.us_per_step": "us", "dynamics.retries": "count",
    "dynamics.self_s": "s", "dynamics.monitor_s": "s", "dynamics.csv_s": "s",
    "dynamics.csv_bytes": "B",
    "sampling.halton_s": "s", "sampling.drawn": "count", "sampling.kept": "count",
    "sampling.accept_ratio": "frac", "sampling.self_s": "s",
    "symmetry.self_s": "s",
    "systems.consistency_calls": "count", "systems.self_s": "s",
    "report.render_s": "s", "report.bytes": "B",
    "cli.self_s": "s",
    "trace.main_s": "s", "trace.overhead_frac": "frac",
}


class Runner:
    """Spawns one child per command and keeps every outcome."""

    def __init__(self, root, work_dir):
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.root = root
        self.work_dir = work_dir
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src, **CHILD_THREADS)
        self.attempted = 0
        self.failures = []

    def invoke(self, cmd, trace=False):
        """Run `cmd` in a fresh interpreter; return (wall_s, child doc)."""
        result = os.path.join(self.work_dir, "child.json")
        stdout = os.path.join(self.work_dir, "stdout.txt")
        csv_path = cmd.out and os.path.join(self.root, cmd.out)
        for path in (result, stdout, csv_path):
            if path and os.path.exists(path):
                os.remove(path)
        argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), result,
                "1" if trace else "0", self.src, *cmd.argv]
        with open(stdout, "w") as out, open(os.path.join(self.work_dir, "stderr.txt"), "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(max(0.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                rc = proc.wait()
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        doc = {}
        if os.path.exists(result):
            with open(result, encoding="utf-8") as fh:
                doc = json.load(fh)
        with open(stdout, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        csv_text = None
        if csv_path and os.path.exists(csv_path):
            with open(csv_path, encoding="utf-8") as fh:
                csv_text = fh.read()
            doc["csv_bytes"] = len(csv_text)
        self.attempted += 1
        problems = cmd.gate(rc, text, csv_text)
        if problems:
            self.failures.append((" ".join(cmd.argv), problems))
        doc.setdefault("main_s", wall)
        return wall, doc

    def mix(self, commands, trace=False):
        return [self.invoke(cmd, trace) for cmd in commands]


def _per_command(mixes, key, stat):
    """`stat` of each command's samples; mixes[j][i] = (wall, doc) of command i."""
    return [stat([m[i][0] if key == "wall" else m[i][1][key] for m in mixes])
            for i in range(len(mixes[0]))]


def end_to_end(wl, setups, mixes, stat=min):
    """Set-up: median of the rounds. Full mix: `stat` of each command's
    samples, by default its best time in the run: other tenants slow this kind
    of shared host by up to 1.8x for tens of seconds at a time, and the
    minimum is the statistic least moved by that."""
    work = sum(cmd.work for cmd in wl.full)
    return {
        "setup_s": statistics.median(sum(w for w, _ in r) for r in setups),
        "wall_s": sum(_per_command(mixes, "wall", stat)),
        "work_per_s": work / sum(_per_command(mixes, "main_s", stat)),
        "peak_rss_mb": max(d.get("rss_kb", 0) for m in mixes for _, d in m) / 1024.0,
    }


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(mix):
    """Per-layer metrics of one traced mix: span totals summed over its
    commands, plus the ratios derived from them."""
    t = defaultdict(float)
    for _, doc in mix:
        for key, val in doc.get("totals", {}).items():
            t[key] += val
        t["dynamics.csv_bytes"] += doc.get("csv_bytes", 0)
    t.update({
        "import.s": sum(d.get("import_s", 0.0) for _, d in mix),
        "import.modules": max(d.get("modules", 0) for _, d in mix),
        "specfile.loads_s": t["specfile.self_s"],
        "expressions.us_per_call": _ratio(t["expressions.self_s"] - t["expressions.first_call_s"],
                                          t["expressions.calls"], 1e6),
        "linalg.us_per_call": _ratio(t["linalg.incl_s"], t["linalg.calls"], 1e6),
        "nonholonomic.fast_us_per_call": _ratio(t["nonholonomic.fast_incl_s"],
                                                t["nonholonomic.fast_calls"], 1e6),
        "lagrangian.sode_us_per_call": _ratio(t["lagrangian.sode_incl_s"],
                                              t["lagrangian.sode_calls"], 1e6),
        "dynamics.field_evals_per_step": _ratio(t["dynamics.field_evals"], t["dynamics.steps"]),
        "dynamics.us_per_step": _ratio(t["dynamics.integrate_incl_s"], t["dynamics.steps"], 1e6),
        "sampling.accept_ratio": _ratio(t["sampling.kept"], t["sampling.drawn"]),
    })
    return {name: t[name] for name in LAYER_UNITS if name != "trace.overhead_frac"}


def provenance(root):
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "child_env": CHILD_THREADS}


def measure(runner, wl, seconds, trace):
    """Closed loop over mixes until `seconds` have passed and each kind of mix
    has run at least once.

    Untraced, the full mix runs with the set-up mix before every other one.
    Traced, the full mix runs untraced and traced, in alternating order.
    """
    pattern = ("plain", "traced", "traced", "plain") if trace else ("setup", "plain", "plain")
    runs = {kind: [] for kind in pattern}
    t_end = time.perf_counter() + seconds
    for kind in itertools.cycle(pattern):
        commands = wl.setup if kind == "setup" else wl.full
        runs[kind].append(runner.mix(commands, trace=kind == "traced"))
        if time.perf_counter() >= t_end and all(runs.values()):
            return runs.get("setup", []), runs["plain"], runs.get("traced", [])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="minimal sizes (the self-check)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "linsing", "cli.py")):
        sys.stderr.write("bench: src/linsing/cli.py not found; run from the root "
                         "of a linsing checkout\n")
        return 2
    work_rel = os.path.join(".bench_run", f"{args.workload}-{os.getpid()}")
    work_dir = os.path.join(root, work_rel)
    os.makedirs(work_dir)
    try:
        wl = workloads.make(args.workload, args.seed, work_rel, quick=args.quick)
        runner = Runner(root, work_dir)
        print(f"# workload {wl.name} seed {args.seed} trace {args.trace}"
              f"{' quick' if args.quick else ''}")
        print("# provenance " + json.dumps(provenance(root), sort_keys=True))
        print("# inputs " + json.dumps(wl.inputs, sort_keys=True))
        runner.invoke(wl.setup[0])  # warm-up, discarded: writes __pycache__
        setups, untraced, traced = measure(runner, wl, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run is using it

    if args.trace:
        per_mix = [layer_metrics(m) for m in traced]
        per_mix.sort(key=lambda m: m["trace.main_s"])
        metrics = per_mix[(len(per_mix) - 1) // 2]  # the median traced mix
        plain = sum(_per_command(untraced, "main_s", min))
        metrics["trace.overhead_frac"] = _ratio(
            sum(_per_command(traced, "main_s", min)) - plain, plain)
        units = LAYER_UNITS
        note = dict.fromkeys(units, f"the traced mix with the median trace.main_s, of {len(traced)}")
        note["trace.overhead_frac"] = (f"per-command minima of {len(traced)} traced and "
                                       f"{len(untraced)} untraced mixes")
        unwrapped = sorted({e for m in traced for _, d in m for e in d.get("unwrapped", ())})
        if unwrapped:
            print("# not traced, absent from this linsing: " + ", ".join(unwrapped))
    else:
        print("# samples " + json.dumps({
            "setup_s": [round(sum(w for w, _ in r), 4) for r in setups],
            "wall_s": [[round(m[i][0], 4) for m in untraced] for i in range(len(wl.full))],
            "main_s": [[round(m[i][1]["main_s"], 4) for m in untraced]
                       for i in range(len(wl.full))],
        }))
        metrics = end_to_end(wl, setups, untraced)
        medians = end_to_end(wl, setups, untraced, statistics.median)
        units = E2E_UNITS
        n = len(untraced)
        note = {"setup_s": f"median of {len(setups)} set-up rounds",
                "wall_s": f"sum of per-command minima over {n} mixes; "
                          f"medians give {medians['wall_s']!r}",
                "work_per_s": f"{wl.unit} per second of cli.main, per-command minima "
                              f"over {n} mixes; medians give {medians['work_per_s']!r}",
                "peak_rss_mb": f"max over {n * len(wl.full)} measured children"}
    for name in sorted(units):
        print(f"{name} {metrics[name]!r} {units[name]} ({note[name]})")
    failed = len(runner.failures)
    print(f"ops_failed_frac {failed / runner.attempted!r} "
          f"({failed} of {runner.attempted} invocations)")
    for argv_text, problems in runner.failures[:10]:
        print(f"# FAILED linsing {argv_text}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
