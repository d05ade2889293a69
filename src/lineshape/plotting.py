"""Static vector plots of spectra: self-contained SVG or a gnuplot script.

Everything is emitted with fixed canvas geometry, a fixed palette order
(Coulomb, Poincare, symmetric, Lorentzian reference, then any custom
mixtures by name) and fixed float formatting (the tables by the writer in
lineshape.spectra), so identical inputs produce byte-identical documents.
Spectra on other grids are linearly interpolated onto the first one's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectra import _CELL, Spectrum, _table

__all__ = ["PlotStyle", "emit_svg", "emit_gnuplot"]

_CANVAS_W, _CANVAS_H = 880.0, 560.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 80.0, 30.0, 58.0, 64.0

_BASE_ORDER = {"coulomb": 0, "poincare": 1, "symmetric": 2, "lorentzian": 3}
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#7f7f7f",
            "#9467bd", "#8c564b", "#e377c2", "#17becf")


@dataclass(frozen=True)
class PlotStyle:
    title: str = ""
    subtitle: str = ""
    xlabel: str = "omega_k"
    ylabel: str = "S"
    log_scale: bool = False  # plot ln(S) instead of S


def _resampled(spectra: list[Spectrum]):
    """The curves in their fixed legend and draw order (named representations
    first, then by name), on the first one's grid.  Both formats need at
    least one curve, and two points on every curve."""
    if not spectra:
        raise ConfigurationError("nothing to plot")
    if min(spec.grid.size for spec in spectra) < 2:
        raise ConfigurationError("a plot needs at least two points per curve")

    def key(spec: Spectrum):
        name = str(spec.metadata.get("representation", ""))
        return (_BASE_ORDER.get(name, len(_BASE_ORDER)), name)

    spectra = sorted(spectra, key=key)
    base = spectra[0].grid
    curves = []
    for spec in spectra:
        name = str(spec.metadata.get("representation", "?"))
        if spec.grid.shape == base.shape and np.array_equal(spec.grid, base):
            values = spec.values
        else:
            values = np.interp(base, spec.grid, spec.values)
        curves.append((name, values))
    return base, curves


def _xml(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _quoted(text: str) -> str:
    """``text`` as a gnuplot single-quoted string, each ``'`` doubled."""
    return "'" + text.replace("'", "''") + "'"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 6  # about six ticks
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-15 * span else t)
        t += step
    return ticks


def emit_svg(spectra: list[Spectrum], style: PlotStyle) -> str:
    """Render spectra to a self-contained SVG string."""
    grid, curves = _resampled(spectra)
    if style.log_scale:
        if any(np.any(values <= 0.0) for _, values in curves):
            raise ConfigurationError("log-scale plots need strictly positive values")
        curves = [(name, np.log(values)) for name, values in curves]

    x_lo, x_hi = float(grid[0]), float(grid[-1])
    all_values = np.concatenate([v for _, v in curves])
    y_lo, y_hi = float(np.min(all_values)), float(np.max(all_values))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _CANVAS_W - _MARGIN_L - _MARGIN_R
    plot_h = _CANVAS_H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS_W:.0f}" '
        f'height="{_CANVAS_H:.0f}" viewBox="0 0 {_CANVAS_W:.0f} {_CANVAS_H:.0f}">',
        f'<rect width="{_CANVAS_W:.0f}" height="{_CANVAS_H:.0f}" fill="white"/>',
    ]

    # The two element writers take coordinates already formatted.
    def text(x, y, size, body, anchor="middle", extra=""):
        lead = f'text-anchor="{anchor}" ' if anchor else ""
        parts.append(f'<text x="{x}" y="{y}" {lead}font-family="sans-serif" '
                     f'font-size="{size}"{extra}>{_xml(body)}</text>')

    def line(x1, y1, x2, y2, stroke="black", width=1):
        parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                     f'stroke="{stroke}" stroke-width="{width}"/>')

    if style.title:
        text(f"{_CANVAS_W / 2:.1f}", 24, 16, style.title)
    if style.subtitle:
        text(f"{_CANVAS_W / 2:.1f}", 44, 11, style.subtitle, extra=' fill="#555"')

    # Frame and ticks.
    x0, y0 = sx(x_lo), sy(y_lo)
    x1, y1 = sx(x_hi), sy(y_hi)
    parts.append(
        f'<rect x="{x0:.1f}" y="{y1:.1f}" width="{x1 - x0:.1f}" '
        f'height="{y0 - y1:.1f}" fill="none" stroke="black" stroke-width="1"/>'
    )
    for t in _nice_ticks(x_lo, x_hi):
        px = f"{sx(t):.2f}"
        line(px, f"{y0:.1f}", px, f"{y0 + 5:.1f}")
        text(px, f"{y0 + 20:.1f}", 11, f"{t:.6g}")
    for t in _nice_ticks(y_lo, y_hi):
        py = sy(t)
        line(f"{x0 - 5:.1f}", f"{py:.2f}", f"{x0:.1f}", f"{py:.2f}")
        text(f"{x0 - 9:.1f}", f"{py + 4:.2f}", 11, f"{t:.6g}", "end")
    text(f"{(x0 + x1) / 2:.1f}", f"{_CANVAS_H - 18:.1f}", 13, style.xlabel)
    mid = f"{(y0 + y1) / 2:.1f}"
    text(22, mid, 13, f"ln({style.ylabel})" if style.log_scale else style.ylabel,
         extra=f' transform="rotate(-90 22 {mid})"')

    # Curves.
    xs = sx(grid)
    for idx, (name, values) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = _table([xs, sy(values)], "%.3f,%.3f ")[:-1]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )

    # Legend (skipped for a single unlabeled curve).
    if len(curves) > 1 or curves[0][0] not in ("", "?"):
        lx = x1 - 170.0
        ly = y1 + 14.0
        for idx, (name, _) in enumerate(curves):
            color = _PALETTE[idx % len(_PALETTE)]
            yy = ly + 18.0 * idx
            line(f"{lx:.1f}", f"{yy:.1f}", f"{lx + 26:.1f}", f"{yy:.1f}", color, 2)
            text(f"{lx + 32:.1f}", f"{yy + 4:.1f}", 12, name, None)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_gnuplot(spectra: list[Spectrum], style: PlotStyle,
                 dat_name: str) -> tuple[str, str]:
    """Return (data file text, gnuplot script text)."""
    grid, curves = _resampled(spectra)
    header = "# omega " + " ".join(name for name, _ in curves)
    row = " ".join([_CELL] * (1 + len(curves))) + "\n"
    dat = header + "\n" + _table([grid, *(v for _, v in curves)], row)

    plots = []
    for idx, (name, _) in enumerate(curves):
        col = idx + 2
        using = f"1:(log(${col}))" if style.log_scale else f"1:{col}"
        plots.append(f"{_quoted(dat_name)} using {using} with lines title "
                     + _quoted(name))
    ylabel = f"ln({style.ylabel})" if style.log_scale else style.ylabel
    script = "\n".join(
        [
            "set terminal svg size 880,560",
            f"set title {_quoted(style.title)}",
            f"set xlabel {_quoted(style.xlabel)}",
            f"set ylabel {_quoted(ylabel)}",
            "set key top right",
            "plot " + ", \\\n     ".join(plots),
            "",
        ]
    )
    return dat, script
