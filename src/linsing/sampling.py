"""Deterministic quasi-random point sampling for checks and acceptance runs."""

from __future__ import annotations

import numpy as np

__all__ = ["halton_box", "on_manifold_sample"]

_OVERSAMPLE = 3  # box points drawn per requested on-manifold point


def halton_box(variables, box, count):
    """`count` Halton points in the per-variable box (unscrambled: reruns match).

    `box` maps variable name -> (lo, hi); variables not listed use (-1, 1).
    """
    ranges = [(box or {}).get(v, (-1.0, 1.0)) for v in variables]
    lo = np.array([r[0] for r in ranges])
    hi = np.array([r[1] for r in ranges])
    return lo + _halton_unit(len(ranges), count) * (hi - lo)


def _halton_unit(d, n):
    """First `n` points of the unscrambled `d`-dimensional Halton sequence.

    Coordinate j is the radical inverse of the indices 0, 1, ..., n-1 in the
    j-th prime base, summed digit by digit from the least significant one, the
    order scipy's `qmc.Halton(d, scramble=False)` uses, so the points match it
    bit for bit.
    """
    out = np.zeros((n, d))
    for j, base in enumerate(_first_primes(d)):
        q = np.arange(n)
        f = 1.0 / base
        while np.any(q > 0):
            out[:, j] += (q % base) * f
            q //= base
            f /= base
    return out


def _first_primes(d):
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def on_manifold_sample(constraints, variables, box, count):
    """Quasi-random points projected onto M = {phi = 0}.

    Draws `_OVERSAMPLE * count` box points, Gauss-Newton projects each, and keeps
    the first `count` that converge onto M. Deterministic for fixed inputs.
    """
    raw = halton_box(variables, box, _OVERSAMPLE * count)
    kept = []
    for row in raw:
        point, ok, _ = constraints.project(row)
        if ok:
            kept.append(point)
            if len(kept) == count:
                break
    return np.array(kept)
