"""Deterministic quasi-random point sampling for checks and acceptance runs."""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

__all__ = ["halton_box", "on_manifold_sample"]

_OVERSAMPLE = 3  # box points drawn per requested on-manifold point


def halton_box(variables, box, count, default_range=(-1.0, 1.0)):
    """`count` Halton points in the per-variable box (unscrambled: reruns match).

    `box` maps variable name -> (lo, hi); variables not listed use
    `default_range`.
    """
    names = list(variables)
    lo = np.array([(box or {}).get(v, default_range)[0] for v in names])
    hi = np.array([(box or {}).get(v, default_range)[1] for v in names])
    sampler = qmc.Halton(d=len(names), scramble=False)
    unit = sampler.random(count)
    return lo + unit * (hi - lo)


def on_manifold_sample(constraints, variables, box, count):
    """Quasi-random points projected onto M = {phi = 0}.

    Draws `_OVERSAMPLE * count` box points, Gauss-Newton projects each, and keeps
    the first `count` that converge onto M. Deterministic for fixed inputs.
    """
    raw = halton_box(variables, box, _OVERSAMPLE * count)
    kept = []
    for row in raw:
        point, ok, _ = constraints.project(row)
        if ok and constraints.is_on(point):
            kept.append(point)
            if len(kept) == count:
                break
    return np.array(kept)
