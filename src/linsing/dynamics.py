"""Fixed-step trajectory integration with post-step constraint projection.

Classical RK4 on a uniform grid; when a submanifold is supplied, every step is
followed by a Gauss-Newton projection back onto {phi = 0}. A diverging
projection triggers one retry of the interval with four quarter-steps before
the run aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, ProjectionDivergenceError, ShapeError

__all__ = ["Trajectory", "integrate", "monitor", "MonitorResult"]


@dataclass
class Trajectory:
    """Integration output: states on a uniform grid plus per-state diagnostics."""

    t0: float
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
            for i, t in enumerate(self.times):
                row = [t, *self.states[i], *self.multipliers[i], self.drift[i]]
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        finally:
            if own:
                fh.close()


def _rk4_step(field_fn, x, dt):
    k1 = field_fn(x)
    k2 = field_fn(x + 0.5 * dt * k1)
    k3 = field_fn(x + 0.5 * dt * k2)
    k4 = field_fn(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(field_fn, x0, t1, dt, project=None, t0=0.0, multiplier_fn=None):
    """Integrate x' = field_fn(x) from t0 to t1 on a uniform grid of step dt.

    `dt` must divide `t1 - t0` (to a relative 1e-9); otherwise ValueError, so the
    grid always ends at t1. No non-finite state is stored: a step that overflows,
    or a field that raises NonFiniteError, raises NonFiniteError naming the step
    and its start time. numpy's floating-point warnings are off while stepping,
    since that check reports what they would.

    Parameters
    ----------
    field_fn : callable(ndarray) -> ndarray
    project : SubmanifoldSpec, optional
        When given, each step, and a seed off M, is Gauss-Newton projected back
        onto {phi = 0}.
    multiplier_fn : callable(ndarray) -> ndarray, optional
        Recorded at every stored state (so u(t) can be inspected afterwards).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    x = np.asarray(x0, dtype=float).copy()
    span = t1 - t0
    steps = int(round(span / dt))
    if steps < 1:
        raise ValueError("time span shorter than one step")
    if abs(steps * dt - span) > 1e-9 * span:
        raise ValueError(f"dt = {dt!r} does not divide the time span {span!r}")

    if project is not None and not project.is_on(x):
        x, ok, _ = project.project(x)
        if not ok:
            raise ProjectionDivergenceError("seed projection failed to converge", -1)

    def _step(y, h, i):
        try:
            y = _rk4_step(field_fn, y, h)
            if not np.isfinite(y).all():
                raise NonFiniteError("the state overflowed")
        except NonFiniteError as exc:
            raise NonFiniteError(
                f"non-finite value in step {i} from t = {t0 + i * dt:.6g}: {exc}"
            ) from exc
        if project is None:
            return y, True
        y2, ok, _ = project.project(y)
        return y2, ok

    n = x.shape[0]
    states = np.empty((steps + 1, n))
    states[0] = x
    mults = []
    with np.errstate(all="ignore"):
        if multiplier_fn is not None:
            mults.append(np.atleast_1d(np.asarray(multiplier_fn(x), dtype=float)))
        for i in range(steps):
            y, ok = _step(x, dt, i)
            if not ok:
                # retry the interval with four quarter steps, then give up
                y = x
                for _ in range(4):
                    y, ok = _step(y, dt / 4.0, i)
                    if not ok:
                        raise ProjectionDivergenceError(
                            "post-step projection diverged", i
                        )
            x = y
            states[i + 1] = x
            if multiplier_fn is not None:
                mults.append(np.atleast_1d(np.asarray(multiplier_fn(x), dtype=float)))

    times = t0 + dt * np.arange(steps + 1)
    if project is not None:
        drift = np.array([project.residual(s) for s in states])
    else:
        drift = np.zeros(steps + 1)
    multipliers = (
        np.vstack(mults) if multiplier_fn is not None else np.zeros((steps + 1, 0))
    )
    return Trajectory(t0, dt, times, states, multipliers, drift)


@dataclass
class MonitorResult:
    name: str
    series: np.ndarray
    max_abs_deviation: float


def monitor(traj, h, name=None):
    """Deviation of a scalar expression field along the trajectory from its seed value."""
    if h.shape != ():
        raise ShapeError("monitors must be scalar fields")
    series = np.array([h(s) for s in traj.states])
    dev = float(np.max(np.abs(series - series[0])))
    result = MonitorResult(name or h.pretty(), series, dev)
    traj.monitors[result.name] = result
    return result
