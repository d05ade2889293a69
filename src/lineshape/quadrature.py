"""Deterministic quadrature, including principal-value pole integrals.

An oracle, not a route: the level shifts of ``lineshape.spectra`` are
closed forms.  The ``level_shift_closed_forms`` check of
``lineshape.verify`` (which imports this module only when it runs), the
tests and the benchmark integrate

    PV int_lo^hi g(t) / (pole - t) dt

with g smooth here.  The pole is handled with a symmetric window around
it: on [pole - h, pole + h] the pair-cancelled integrand
(g(pole - u) - g(pole + u))/u is smooth (it tends to -2 g'(pole) as
u -> 0), so ordinary quadrature applies; the leftover piece is regular.
Nodes are log-graded toward the pole, the default count is 4096, and
convergence can be checked by doubling.  The first graded node lies
1e-12 of the span inside its endpoint, and a rectangle adds the sliver
between them.  Everything here is fixed-grid and reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pv_quad", "smooth_quad"]


def _simpson_nonuniform(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on an arbitrary strictly increasing grid.

    The grid must contain an odd number of points (an even number of
    panels); callers here always arrange that.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    y0, y1, y2 = y[0:-1:2], y[1::2], y[2::2]
    span = h0 + h1
    return float(
        np.sum(
            span
            / 6.0
            * ((2.0 - h1 / h0) * y0 + span**2 / (h0 * h1) * y1 + (2.0 - h0 / h1) * y2)
        )
    )


def _odd(n: int) -> int:
    return n if n % 2 == 1 else n + 1


def _graded_nodes(a: float, b: float, n: int, toward: str) -> np.ndarray:
    """n nodes on [a, b], geometrically clustered toward one endpoint."""
    span = b - a
    # Twelve decades of grading resolves the pair-cancelled integrand's
    # curvature near the pole without wasting nodes far away.
    t = np.geomspace(1e-12, 1.0, n)
    if toward == "lo":
        nodes = a + span * t
        nodes[-1] = b
    else:
        nodes = b - span * t[::-1]
        nodes[0] = a
    return nodes


def smooth_quad(f, a: float, b: float, n: int = 4096, *, toward: str) -> float:
    """Integrate a smooth function on [a, b] with a fixed Simpson grid.

    ``toward`` grades the nodes toward 'lo' or 'hi' for integrands that
    vary fastest near one endpoint.
    """
    if b <= a:
        return 0.0
    x = _graded_nodes(a, b, _odd(max(n, 5)), toward)
    y = f(x)
    sliver = y[0] * (x[0] - a) if toward == "lo" else y[-1] * (b - x[-1])
    return _simpson_nonuniform(y, x) + float(sliver)


def pv_quad(g, pole: float, lo: float, hi: float, n: int = 4096) -> float:
    """Principal value of int_lo^hi g(t)/(pole - t) dt, g smooth.

    Works whether or not the pole lies inside (lo, hi).
    """
    if hi <= lo:
        return 0.0
    if not lo < pole < hi:
        # No singularity inside; grade toward the boundary nearest the pole.
        toward = "lo" if pole <= lo else "hi"
        return smooth_quad(lambda t: g(t) / (pole - t), lo, hi, n, toward=toward)

    half = min(pole - lo, hi - pole)

    # Symmetric window: pairwise cancellation removes the pole.
    def cancelled(u):
        return (g(pole - u) - g(pole + u)) / u

    nodes = _graded_nodes(0.0, half, _odd(max(n, 5)), toward="lo")
    nodes = nodes[nodes > 0.0]
    if len(nodes) % 2 == 0:
        nodes = nodes[1:]
    core = _simpson_nonuniform(cancelled(nodes), nodes)
    # Sliver [0, nodes[0]] of the cancelled integrand, which is finite there.
    core += cancelled(np.array([nodes[0]]))[0] * nodes[0]

    # Regular remainder outside the symmetric window.
    if pole - lo < hi - pole:
        rest = smooth_quad(lambda t: g(t) / (pole - t), pole + half, hi, n, toward="lo")
    else:
        rest = smooth_quad(lambda t: g(t) / (pole - t), lo, pole - half, n, toward="hi")
    return core + rest
