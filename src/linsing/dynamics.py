"""Fixed-step trajectory integration with post-step constraint projection.

Classical RK4 on a uniform grid; when a submanifold is supplied, every step is
followed by a Gauss-Newton projection back onto {phi = 0}. A diverging
projection triggers one retry of the interval with four quarter-steps before
the run aborts.

The state is stepped as a list of Python floats: the stage sums are numpy's
elementwise operations on the same operands in the same order, so the states
are those of stepping arrays bit for bit, without numpy's cost per call on
vectors of a few entries. The field receives that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ProjectionDivergenceError, ShapeError

__all__ = ["Trajectory", "integrate", "monitor", "MonitorResult"]


@dataclass
class Trajectory:
    """Integration output: states on a uniform grid plus per-state diagnostics."""

    dt: float
    times: np.ndarray
    states: np.ndarray       # (steps+1, n)
    multipliers: np.ndarray  # (steps+1, m); m = 0 when unconstrained
    drift: np.ndarray        # (steps+1,) max |phi| per stored state
    monitors: dict = field(default_factory=dict)

    @property
    def steps(self):
        return len(self.times) - 1

    def write_csv(self, target):
        """CSV with header t,x1,...,xn,u1,...,um,drift; %.17g numbers, LF endings."""
        n = self.states.shape[1]
        m = self.multipliers.shape[1]
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"u{j + 1}" for j in range(m)]
            + ["drift"]
        )
        own = isinstance(target, (str, bytes))
        fh = open(target, "w", newline="\n") if own else target
        try:
            fh.write(",".join(header) + "\n")
            cols = (self.times, self.states, self.multipliers, self.drift)
            row_format = ",".join(["%.17g"] * len(header)) + "\n"
            # rows as Python floats a block at a time: all of a long
            # trajectory's would take about five times its arrays' memory
            for start in range(0, len(self.times), 1024):
                block = np.column_stack([c[start:start + 1024] for c in cols]).tolist()
                fh.writelines(row_format % tuple(row) for row in block)
        finally:
            if own:
                fh.close()


def _rk4_step(field_fn, x, dt):
    """One RK4 step on lists of floats: x + (dt/6) (((k1 + 2 k2) + 2 k3) + k4),
    each stage at x + (dt/2) k, entry by entry as numpy forms them."""
    h, c = 0.5 * dt, dt / 6.0
    k1 = field_fn(x)
    k2 = field_fn([a + h * b for a, b in zip(x, k1)])
    k3 = field_fn([a + h * b for a, b in zip(x, k2)])
    k4 = field_fn([a + dt * b for a, b in zip(x, k3)])
    return [a + c * (((p + 2.0 * q) + 2.0 * r) + s) for a, p, q, r, s in zip(x, k1, k2, k3, k4)]


def integrate(field_fn, x0, t1, dt, project=None, multiplier_fn=None):
    """Integrate x' = field_fn(x) from 0 to t1 on a uniform grid of step dt.

    `t1` and `dt` must be finite and `dt` must divide `t1` (to a
    relative 1e-9); otherwise ValueError, so the grid always ends at t1. No
    non-finite state is stored: a step that overflows, or a field that raises
    NonFiniteError, raises NonFiniteError naming the step and its start time.
    numpy's floating-point warnings are off while stepping, since that check
    reports what they would.

    Parameters
    ----------
    field_fn : callable(list of float) -> sequence of float
        Called with the state as a list of n Python floats, which it must not
        keep or change; returns the n rates, as a list or a 1-d array. The
        step is formed on Python floats with numpy's rounding, so the states
        are those of numpy's elementwise arithmetic bit for bit.
    project : SubmanifoldSpec, optional
        When given, each step, and a seed off M, is Gauss-Newton projected back
        onto {phi = 0}.
    multiplier_fn : callable(list of float) -> sequence of float, optional
        Recorded at every stored state (so u(t) can be inspected afterwards).
    """
    if not (math.isfinite(t1) and math.isfinite(dt)):
        raise ValueError("t1 and dt must be finite")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x = np.asarray(x0, dtype=float).tolist()
    steps = int(round(t1 / dt))
    if steps < 1:
        raise ValueError("t1 must span at least one step")
    if abs(steps * dt - t1) > 1e-9 * t1:
        raise ValueError(f"dt = {dt!r} does not divide the time span {t1!r}")

    if project is not None and not project.is_on(x):
        x, ok, _ = project.project(x)
        if not ok:
            raise ProjectionDivergenceError("seed projection failed to converge", -1)
    drift = np.zeros(steps + 1)
    if project is not None:
        drift[0] = project.residual(x)

    def _step(y, h, i):
        try:
            y = _rk4_step(field_fn, y, h)
            # a sum of finite values can overflow, so a non-finite one only screens
            if not math.isfinite(sum(y)) and not all(map(math.isfinite, y)):
                raise NonFiniteError("the state overflowed")
        except NonFiniteError as exc:
            raise NonFiniteError(
                f"non-finite value in step {i} from t = {i * dt:.6g}: {exc}"
            ) from exc
        if project is None:
            return y, True, 0.0
        proj = project.project(y)
        return proj[0], proj[1], proj.residual

    states = np.empty((steps + 1, len(x)))
    states[0] = x
    mults = np.zeros((steps + 1, 0))
    with np.errstate(all="ignore"):
        if multiplier_fn is not None:
            u = np.atleast_1d(np.asarray(multiplier_fn(x), dtype=float))
            mults = np.empty((steps + 1, len(u)))
            mults[0] = u
        for i in range(steps):
            y, ok, res = _step(x, dt, i)
            if not ok:
                # retry the interval with four quarter steps, then give up
                y = x
                for _ in range(4):
                    y, ok, res = _step(y, dt / 4.0, i)
                    if not ok:
                        raise ProjectionDivergenceError(
                            "post-step projection diverged", i
                        )
            x = y
            states[i + 1] = x
            drift[i + 1] = res
            if multiplier_fn is not None:
                mults[i + 1] = multiplier_fn(x)

    times = dt * np.arange(steps + 1)
    return Trajectory(dt, times, states, mults, drift)


@dataclass
class MonitorResult:
    name: str
    series: np.ndarray
    max_abs_deviation: float


def monitor(traj, h, name=None):
    """Deviation of a scalar expression field along the trajectory from its seed
    value. The series is evaluated over all states in one batch (`rows`), bit for
    bit the value at each state."""
    if h.shape != ():
        raise ShapeError("monitors must be scalar fields")
    series = h.rows(traj.states)
    dev = float(np.max(np.abs(series - series[0])))
    result = MonitorResult(name or h.pretty(), series, dev)
    traj.monitors[result.name] = result
    return result
