"""Deterministic principal-value quadrature.

An oracle, not a route: the level shifts of ``lineshape.atoms`` are
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
bit.  The node count must be an int of at least 80; each count's node
table is built once (the last eight counts are kept) and is read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError

__all__ = ["pv_quad"]

# ``np.polynomial.legendre.leggauss(20)`` bit for bit, without importing
# numpy.polynomial: its ten positive nodes and weights as shortest decimals,
# mirrored (the rule is exactly symmetric in doubles).
_X_POS = np.array([0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
                   0.5108670019508271, 0.636053680726515, 0.7463319064601508,
                   0.8391169718222188, 0.912234428251326, 0.9639719272779138,
                   0.993128599185095])
_W_POS = np.array([0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
                   0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
                   0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
                   0.017614007139150893])
_X = np.concatenate((-_X_POS[::-1], _X_POS))
_W = np.concatenate((_W_POS[::-1], _W_POS))


def _regular(g, pole: float, a: float, b: float, t, w) -> float:
    """int_a^b g(x)/(pole - x) dx for a pole outside (a, b)."""
    s = (b - a) * t
    y = g(np.concatenate((a + s, b - s))) / np.concatenate((pole - a - s, pole - b + s))
    return (b - a) * np.dot(w, y[:len(t)] + y[len(t):])


@functools.lru_cache(maxsize=8)
def _nodes(n: int):
    """Offsets t in (0, 1/2) from either end, as fractions of the span, and
    their weights: n // 40 panels, as read-only arrays built once per n."""
    edges = np.concatenate(([0.0], np.geomspace(1e-14, 0.5, n // 40)))
    mid, width = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    t, w = (mid[:, None] + width[:, None] * _X).ravel(), (width[:, None] * _W).ravel()
    t.flags.writeable = w.flags.writeable = False
    return t, w


def pv_quad(g, pole: float, lo: float, hi: float, n: int = 1200) -> float:
    """Principal value of int_lo^hi g(t)/(pole - t) dt, g smooth, with n
    nodes per piece: n // 40 panels of 20 toward each end, so n must be an
    int of at least 80.  Works whether or not the pole lies inside
    (lo, hi)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 80:
        raise DomainError(f"n must be an int of at least 80, got {n!r}")
    if hi <= lo:
        return 0.0
    t, w = _nodes(n)
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
