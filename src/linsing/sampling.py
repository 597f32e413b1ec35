"""Deterministic quasi-random point sampling for checks and acceptance runs."""

from __future__ import annotations

import numpy as np

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
    return lo + _halton_unit(len(names), count) * (hi - lo)


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
        if ok and constraints.is_on(point):
            kept.append(point)
            if len(kept) == count:
                break
    return np.array(kept)
