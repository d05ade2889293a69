"""Deterministic principal-value quadrature.

An oracle, not a route: the level shifts of ``lineshape.spectra`` are
closed forms.  The ``level_shift_closed_forms`` check of
``lineshape.verify`` (which imports this module only when it runs), the
tests and the benchmark integrate PV int_lo^hi g(t)/(pole - t) dt, g
smooth, as a symmetric window around the pole, on which the
pair-cancelled integrand (g(pole - u) - g(pole + u))/u is smooth (it
tends to -2 g'(pole) as u -> 0), plus a regular rest.  Each piece gets
20-point Gauss-Legendre panels with edges 0 and geomspace(1e-14, 1/2) of
its span from either end.  Grading toward both ends resolves a pole next
to one end and a singularity of g just past the other (4 a w^3/(w + a)^2
at w = -a); each node's distance to the pole is taken from its own end,
so none loses digits.  The default 1200 nodes per piece reach rounding
error, 600 show the convergence, and the result is reproducible bit for
bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pv_quad"]

_X, _W = np.polynomial.legendre.leggauss(20)


def _regular(g, pole: float, a: float, b: float, t, w) -> float:
    """int_a^b g(x)/(pole - x) dx for a pole outside (a, b)."""
    s = (b - a) * t
    y = g(np.concatenate((a + s, b - s))) / np.concatenate((pole - a - s, pole - b + s))
    return (b - a) * np.dot(w, y[:len(t)] + y[len(t):])


def pv_quad(g, pole: float, lo: float, hi: float, n: int = 1200) -> float:
    """Principal value of int_lo^hi g(t)/(pole - t) dt, g smooth, with n
    nodes per piece (n // 40 panels toward each end).  Works whether or not
    the pole lies inside (lo, hi)."""
    if hi <= lo:
        return 0.0
    # Offsets t in (0, 1/2) from either end, as fractions of the span.
    edges = np.concatenate(([0.0], np.geomspace(1e-14, 0.5, max(n // 40, 2))))
    mid, width = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t, w = (mid[:, None] + width[:, None] * _X).ravel(), (width[:, None] * _W).ravel()
    if not lo < pole < hi:
        return float(_regular(g, pole, lo, hi, t, w))
    half = min(pole - lo, hi - pole)
    # Symmetric window: pairwise cancellation removes the pole.
    u = np.concatenate((half * t, half - half * t))
    y = (g(pole - u) - g(pole + u)) / u
    core = half * np.dot(w, y[:len(t)] + y[len(t):])
    if pole - lo < hi - pole:
        return float(core + _regular(g, pole, pole + half, hi, t, w))
    return float(core + _regular(g, pole, lo, pole - half, t, w))
