"""Spontaneous-emission lineshapes, decay rates and level shifts.

Mode sums over the photon continuum are performed with the weight

    W(omega) = omega**2 / (3 pi**2)

which is the isotropic mode density omega**2 times the polarization and
angular sum of |v . e_k|^2, i.e. (8 pi / 3), divided by (2 pi)**3.  The
regularization volume never appears.  With this weight the golden-rule
decay rate of a transition with frequency w and dipole magnitude d is
w**3 d**2 / (3 pi) in natural units, identically in every representation.

The atom models here carry their dipole along a single axis; the quadratic
(diagonal) interaction term in the Coulomb-route total shift is weighted
along that same axis, which makes the axis sum rule value 1/(2 m) exactly
the condition for the Coulomb- and Poincare-route shifts to coincide mode
by mode.

Every spectrum on a frequency grid is built by one blocked sweep: after
the grid checks, its kernel is evaluated ``_BLOCK`` points at a time, on
up to two CPUs, and each block of values is checked while it is in cache.
A kernel writes each block into the output with ufunc ``out=``, its
intermediates into a scratch arena that each thread allocates once per
sweep.  Its in-place helpers (``_numerator``, ...) are the only copy of
each formula; the public point functions call them on fresh buffers.
No bit of any output depends on the block size or on the number of CPUs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .atoms import AtomModel
from .errors import ConfigurationError, DomainError, _check_real, _check_scalar
from .representations import (
    POINCARE,
    GaugeRepresentation,
    _constant_alpha,
    _mixing,
    coupling_pair,
)

__all__ = [
    "LineshapeParams",
    "Spectrum",
    "numerator",
    "gamma_onshell",
    "gamma_offshell",
    "delta_offshell",
    "total_shift",
    "total_shift_integrand",
    "lamb_shift",
    "lineshape_S",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

DEFAULT_CUTOFF = 1000.0  # in units of the reference transition frequency

CSV_COLUMNS = ("omega_k", "S", "representation", "gamma", "omega_eg",
               "lamb_shift", "cutoff")


# -- lineshape numerators --------------------------------------------------


def numerator(rep: GaugeRepresentation, omega_k, omega_eg: float):
    """Frequency dependence of the lineshape numerator, normalized on shell.

    Mode density times squared rotating coupling over its on-shell value:
    x m**2 with x = omega_k/omega_eg and m the representation's
    :func:`~lineshape.representations.mixing` factor.  That is x (Coulomb),
    x**3 (Poincare) and 4 x**3 / (1 + x)**2 (symmetric).
    """
    omega_k = _check_real(omega_k, "omega_k", "positive")
    _check_scalar(omega_eg, "omega_eg")
    x, out, tmp, _ = _scratch(omega_k.shape, 3)
    _numerator(rep, np.divide(omega_k, omega_eg, out=x), out, tmp)
    return out if out.ndim else float(out)


def _numerator(rep: GaugeRepresentation, x, out, tmp):
    """:func:`numerator` at a checked ratio x, into ``out``; ``tmp`` is scratch."""
    m = _mixing(rep, x, out, tmp)
    return np.multiply(x, np.multiply(m, m, out=m), out=m)


def _scratch(shape, floats: int) -> list:
    """``floats`` float64 buffers and a bool one, each of ``shape``: the
    scratch of the in-place helpers (``_numerator``, ...)."""
    return [*(np.empty(shape) for _ in range(floats)), np.empty(shape, bool)]


# -- decay rates -------------------------------------------------------------


def gamma_onshell(
    model: AtomModel, upper: str, lower: str,
    rep: GaugeRepresentation = POINCARE,
) -> float:
    """Golden-rule decay rate of the transition upper -> lower.

    The value w**3 |d|**2 / (3 pi) is representation independent; ``rep``
    selects the evaluation route (momentum elements for Coulomb, dipole
    elements otherwise) so the equivalence can be checked numerically.
    """
    w = model.omega(upper, lower)
    if w <= 0.0:
        raise DomainError("upper level must lie above lower level")
    if rep.kind == "coulomb":
        p = model.momentum(lower, upper)
        rate = model.charge**2 * (p * p) * w / (3.0 * math.pi * model.mass**2)
    else:
        d = model.dipole(lower, upper)
        u_on = coupling_pair(rep, w, w).u_minus
        rate = (w * w * w) * (d * d) * (u_on * u_on) / (3.0 * math.pi)
    _check_scalar(rate, "decay rate", "finite")
    return rate


def _channel_weight(rep, emitted: float, w_abs: float, downward: bool) -> float:
    """Squared coupling of an emission channel, relative to on shell."""
    pair = coupling_pair(rep, emitted, w_abs)
    u = pair.u_minus if downward else pair.u_plus
    u_on = coupling_pair(rep, w_abs, w_abs).u_minus
    return (emitted * emitted * (u * u)) / (w_abs * w_abs * (u_on * u_on))


def gamma_offshell(
    omega: float, model: AtomModel, rep: GaugeRepresentation,
    state: str | None = None,
) -> float:
    """Continuum decay rate Gamma(omega) at total energy ``omega``.

    Every dipole-connected partner n of ``state`` (default: the topmost
    level) with positive emitted frequency omega - omega_n contributes its
    golden-rule rate scaled by the representation's off-shell weight.
    Returns 0 below all thresholds.
    """
    _check_scalar(omega, "omega", "finite")
    if state is None:
        state = model.top
    total = 0.0
    for tr in model.transitions_from(state):
        emitted = omega - model.energy(tr.label)
        if emitted <= 0.0:
            continue
        w_abs = abs(tr.omega)
        d2 = tr.dipole * tr.dipole
        base = (w_abs * w_abs * w_abs) * d2 / (3.0 * math.pi)
        total += base * _channel_weight(rep, emitted, w_abs, downward=tr.omega < 0.0)
    _check_scalar(total, "decay rate", "finite")
    return total


# -- level shifts ------------------------------------------------------------


def _require_cutoff(model: AtomModel, cutoff: float):
    _check_scalar(cutoff, "cutoff")
    w_max = max((abs(a.energy - b.energy) for a in model.levels for b in model.levels),
                default=0.0)
    if cutoff <= w_max:
        raise ConfigurationError(
            f"cutoff {cutoff} must exceed every transition frequency ({w_max})"
        )


# Every shift is a sum over dipole partners of principal values
#
#     PV int_0^cutoff g(w) / (p - w) dw
#
# over the mode frequency w, with g a polynomial of degree <= 3, or
# 4 a w^3 / (w + a)^2 for the symmetric kind's off-shell shift.  Splitting
# g(w)/(p - w) = g(p)/(p - w) - [g(w) - g(p)]/(w - p) leaves g(p) times
# log|p/(p - cutoff)| minus the integral of a polynomial: Bethe's logarithm
# (Phys. Rev. 72, 339, 1947; Cohen-Tannoudji, Dupont-Roc & Grynberg,
# Atom-Photon Interactions, 1992, ch. II).  Powers are written as products,
# since float ** raises OverflowError where a product gives inf, and an inf
# or nan total is rejected as a non-finite shift.  A pole at the cutoff
# diverges unless g vanishes there; g(p) = 0 drops the log term, so a pole
# at 0 with g(0) = 0 gives no 0 * log 0.


def _log_term(g: float, p: float, cutoff: float) -> float:
    """g log|p/(p - cutoff)|, with g times the principal value of
    int_0^cutoff dw/(p - w): 0 for g = 0, infinite for a pole at 0 or the
    cutoff, in log1p form where the ratio is near 1."""
    if g == 0.0:
        return 0.0
    if p < -0.5 * cutoff or p > 2.0 * cutoff:
        return -g * math.log1p(-cutoff / p)
    if p == 0.0 or p == cutoff:
        return g * (-math.inf if p == 0.0 else math.inf)
    return g * (math.log(abs(p)) - math.log(abs(p - cutoff)))


def _pv(c, p: float, cutoff: float) -> float:
    """PV int_0^cutoff g(w)/(p - w) dw for g(w) = sum_k c[k] w^k, k <= 3.

    A zero coefficient adds nothing, so an unused power cannot overflow
    into the result.  Beyond twice the cutoff from 0 the split cancels, so
    there the series int_0^cutoff w^k/(p - w) dw = cutoff^k sum_m
    r^(m+1)/(k+m+1), r = cutoff/p, is summed instead: |r| < 1/2, so it
    stops once |r|^(m+1) sum_k |c[k]| cutoff^k, which bounds the rest,
    is below rounding.
    """
    terms = []  # (k, c[k] cutoff^k), the coefficient multiplied in first
    for k, x in enumerate(c):
        if x != 0.0:
            for _ in range(k):
                x *= cutoff
            terms.append((k, x))
    if abs(p) > 2.0 * cutoff:
        r, scale = cutoff / p, sum(abs(x) for _, x in terms)
        total, r_m = 0.0, r
        for m in range(64):
            total += r_m * sum(x / (k + m + 1) for k, x in terms)
            if not abs(r_m) * scale > 1e-17 * abs(total):  # nan stops too
                break
            r_m *= r
        return total
    c0, c1, c2, c3 = (*c, 0.0, 0.0, 0.0)[:4]
    total = _log_term(c0 + p * (c1 + p * (c2 + p * c3)), p, cutoff)
    # int_0^cutoff [g(w) - g(p)]/(w - p) dw, term by term.
    for k, x in terms:
        if k == 1:
            total -= x
        elif k == 2:
            total -= x * (p / cutoff + 0.5)
        elif k == 3:
            total -= x * ((p / cutoff) * (p / cutoff) + 0.5 * (p / cutoff) + 1.0 / 3.0)
    return total


def _pv_symmetric(a: float, p: float, cutoff: float) -> float:
    """PV int_0^cutoff 4 a w^3 / ((w + a)^2 (p - w)) dw.

    With P = p + a and h(p) = a^2 (3p + 2a)/P^2, the partial fractions

        w^3/((w + a)^2 (p - w)) = (p - 2a)/(p - w) - 1
            + h(p) [1/(p - w) + 1/(w + a)] - a^3/(P (w + a)^2)

    integrate to g(p) log|p/(p - cutoff)| - cutoff + h(p) log(S/a)
    - a^2 cutoff/(P S), S = cutoff + a, g(p) = p^3/P^2.  Near p = -a,
    where P -> 0 and these cancel, the series 1/(P - s) = -sum P^m/s^(m+1)
    in s = w + a is summed instead (|P| < 3a/4 <= 3s/4); beyond twice the
    cutoff, the polynomial part goes through :func:`_pv`.
    """
    big_p, x = p + a, cutoff / a  # x = S/a - 1
    if abs(big_p) < 0.75 * a:
        # -4 a^2 sum_m (P/a)^m J_m, J_m = int_t0^1 (1 - t)^3 t^(m-2) dt,
        # t0 = a/S; for m >= 2 the complete integral B(m - 1, 4) minus
        # the one over [0, t0].
        t0, log_s = 1.0 / (1.0 + x), math.log1p(x)
        r = big_p / a
        total = (x - 3.0 * log_s + (1.0 - t0) * (5.0 - t0) / 2.0  # J_0, J_1
                 + r * (log_s - (1.0 - t0) * (11.0 - 7.0 * t0 + 2.0 * t0 * t0) / 6.0))
        r_m, t_m = r, 1.0
        for m in range(2, 200):
            r_m *= r  # r^m
            t_m *= t0  # t0^(m-1)
            j = (6.0 / ((m - 1) * m * (m + 1) * (m + 2))
                 - t_m * (1.0 / (m - 1) - 3.0 * t0 / m
                          + 3.0 * t0 * t0 / (m + 1) - t0 * t0 * t0 / (m + 2)))
            total += r_m * j
            if not abs(r_m) * 6.0 / (m * m * m * m) > 1e-17 * abs(total):
                break
        return -4.0 * a * (a * total)
    ap = a / big_p
    h = ap * ap * (3.0 * p + 2.0 * a)
    rest = h * math.log1p(x) - a * ap * (x / (1.0 + x))
    if abs(p) > 2.0 * cutoff:
        return 4.0 * a * (_pv((-2.0 * a, 1.0), p, cutoff) + _log_term(h, p, cutoff) + rest)
    g = p * (p / big_p) * (p / big_p)
    return 4.0 * a * (_log_term(g, p, cutoff) - cutoff + rest)


def delta_offshell(
    omega: float, model: AtomModel, rep: GaugeRepresentation, cutoff: float,
    state: str | None = None, n: int = 4096,
) -> float:
    """Second-order level-shift function Delta(omega) at total energy omega.

    Principal-value integral over the mode continuum up to ``cutoff``, in
    closed form.  Downward transitions couple through u_minus, upward ones
    through u_plus; in the symmetric representation the upward
    (counter-rotating) channels therefore drop out.  Off shell the result is
    representation dependent.  ``n`` is unused: it was the node count of the
    quadrature this replaced, and leaves the signature with the benchmark
    revision of ROADMAP item 1.
    """
    _check_scalar(omega, "omega", "finite")
    _require_cutoff(model, cutoff)
    if state is None:
        state = model.top
    alpha = _constant_alpha(rep)
    total = 0.0
    for tr in model.transitions_from(state):
        a = abs(tr.omega)
        d2 = tr.dipole * tr.dipole
        downward = tr.omega < 0.0
        if d2 == 0.0 or (alpha is None and not downward):
            continue  # the symmetric kind's u_plus is 0
        coeff = a * d2 / (6.0 * math.pi * math.pi)
        pole = omega - model.energy(tr.label)
        if alpha is None:
            total += coeff * _pv_symmetric(a, pole, cutoff)
        else:
            # w^2 u^2 = (1 - alpha)^2 a w +- 2 alpha (1 - alpha) w^2 + alpha^2 w^3 / a
            mixed = 2.0 * alpha * (1.0 - alpha)
            c = (0.0, (1.0 - alpha) * (1.0 - alpha) * a,
                 mixed if downward else -mixed, alpha * alpha / a)
            total += coeff * _pv(c, pole, cutoff)
    _check_scalar(total, "level shift", "finite")
    return total


def total_shift_integrand(
    model: AtomModel, state: str, rep: GaugeRepresentation, omega_modes,
) -> np.ndarray:
    """Per-mode-frequency integrand of the on-shell total level shift.

    Includes the first-order diagonal term: the quadratic vector-potential
    term on the Coulomb route, the squared-polarization term on the
    Poincare route (folded into omega_ns/(omega_ns + w)).  Only these two
    routes define the diagonal term; other representations are rejected.
    """
    w = _check_real(omega_modes, "mode frequency", "positive")
    weight = w**2 / (3.0 * math.pi**2)
    if rep.kind == "coulomb":
        bracket = np.full_like(w, 0.5)
        for tr in model.transitions_from(state):
            p = model.momentum(tr.label, state)
            bracket -= p * p / model.mass / (tr.omega + w)
        return weight * model.charge**2 / (2.0 * model.mass * w) * bracket
    if rep.kind == "poincare":
        out = np.zeros_like(w)
        for tr in model.transitions_from(state):
            out += 0.5 * (tr.dipole * tr.dipole) * tr.omega / (tr.omega + w)
        return weight * out
    raise DomainError(
        "the diagonal interaction term is defined only on the coulomb and "
        "poincare routes"
    )


def total_shift(
    model: AtomModel, state: str, rep: GaugeRepresentation, cutoff: float,
    n: int = 4096,
) -> float:
    """On-shell total shift of ``state``: diagonal term plus second-order sum.

    Cutoff dependent (quadratically through the diagonal term); the
    TRK-saturating oscillator model yields the same value on the Coulomb
    and Poincare routes, a two-level model does not.  In closed form;
    ``n`` is unused, as in :func:`delta_offshell`.
    """
    _require_cutoff(model, cutoff)
    e2 = model.charge * model.charge
    if rep.kind == "coulomb":
        # The diagonal A^2 term, int_0^cutoff e^2 w / (12 pi^2 m) dw.
        total = e2 * (cutoff * cutoff) / (24.0 * math.pi * math.pi * model.mass)
        for tr in model.transitions_from(state):
            p = model.momentum(tr.label, state)
            if p == 0.0:
                continue
            coeff = e2 * (p * p) / (6.0 * math.pi * math.pi * model.mass * model.mass)
            # PV int_0^cutoff w / (omega_ns + w) dw; its pole is at -omega_ns.
            total += coeff * _pv((0.0, 1.0), -tr.omega, cutoff)
    elif rep.kind == "poincare":
        total = 0.0
        for tr in model.transitions_from(state):
            d2 = tr.dipole * tr.dipole
            if d2 == 0.0:
                continue
            coeff = 0.5 * d2 * tr.omega / (3.0 * math.pi * math.pi)
            total -= coeff * _pv((0.0, 0.0, 1.0), -tr.omega, cutoff)
    else:
        raise DomainError(
            "the diagonal interaction term is defined only on the coulomb and "
            "poincare routes"
        )
    _check_scalar(total, "level shift", "finite")
    return total


def lamb_shift(model: AtomModel, state: str, cutoff: float, n: int = 4096) -> float:
    """Mass-renormalized second-order shift of ``state`` (cutoff in program units).

    The per-transition kernel integrates to omega_ns^3 |r_ns|^2 / (6 pi^2)
    times log|(omega_ns + cutoff)/omega_ns|, so the value grows
    logarithmically with the cutoff; callers should echo the cutoff next to
    the number.  In closed form at any cutoff above every transition
    frequency; ``n`` is unused, as in :func:`delta_offshell`.
    """
    _require_cutoff(model, cutoff)
    e2 = model.charge * model.charge
    total = 0.0
    for tr in model.transitions_from(state):
        p = model.momentum(tr.label, state)
        if p == 0.0:
            continue
        coeff = (e2 * tr.omega * (p * p)
                 / (6.0 * math.pi * math.pi * model.mass * model.mass))
        total -= coeff * _pv((1.0,), -tr.omega, cutoff)
    _check_scalar(total, "level shift", "finite")
    return total


# -- the spectrum ------------------------------------------------------------


@dataclass(frozen=True)
class LineshapeParams:
    """Inputs of the emission lineshape.

    ``lamb_shift`` may be zero to suppress the line displacement.  With
    ``variable_width`` (experimental) the Lorentzian denominator uses the
    frequency-dependent width Gamma * numerator(omega_k) instead of the
    constant on-shell value the plotted curves use.
    """

    rep: GaugeRepresentation
    omega_eg: float
    gamma: float
    lamb_shift: float = 0.0
    variable_width: bool = False

    def __post_init__(self):
        _check_scalar(self.omega_eg, "omega_eg")
        _check_scalar(self.gamma, "gamma")
        _check_scalar(self.lamb_shift, "lamb_shift", "finite")


@dataclass
class Spectrum:
    """A sampled spectral density with provenance metadata.

    ``metadata`` echoes the inputs that entered it (representation, gamma,
    omega_eg, a lineshape's lamb_shift, ...); no cutoff entered a pulse,
    fluorescence or Lamb-line spectrum.  The density is NOT normalized to
    unit area, since the area differs between representations;
    ``np.trapezoid(values, grid)`` gives it.  The values are checked block
    by block, and no bit of any output depends on the block size.
    """

    grid: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    n_factor: np.ndarray | None = None

    def __post_init__(self):
        self.grid = _check_real(self.grid, "grid")
        self.values = _check_real(self.values, "spectral density", "non-negative")
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        _check_blocks(self.grid, self.values)
        if self.n_factor is not None:
            self.n_factor = _check_real(self.n_factor, "n_factor")
            if self.n_factor.shape != self.grid.shape:
                raise DomainError("n_factor column must match the grid length")


# Grid points per block of a spectrum sweep (512 KiB per float64 buffer;
# the pulse kernel's arena holds eight per thread).  On two threads of a
# 2-vCPU Xeon (median of 15, in one process) a detuned 1e6-point pulse
# spectrum took 36.2, 26.3, 25.4 and 32.0 ms at 16384 to 131072 points,
# and lineshape_S 11.0, 9.1, 8.1 and 8.5 ms.  Every point is computed on
# its own, so no bit of any output depends on this size.
_BLOCK = 65536


def _check_blocks(grid, values, kernel=None, n_factor=None, buffers=0) -> None:
    """Check a spectrum ``_BLOCK`` points at a time.

    The grid must be strictly increasing, each block reaching back one
    point for the pair across its edge.  Then each block of ``values``,
    filled first by ``kernel`` if given (with ``n_factor``, if that is
    given), must be finite and non-negative.  Overflow or an undefined
    result fails that test, so numpy's warnings are silenced.
    ``kernel(w, out, scratch)`` writes the block at grid points ``w`` into
    ``out`` (``values[i:j]``, or the pair with ``n_factor[i:j]``) by ufunc
    ``out=``, with the block's cut of its thread's arena: ``_scratch`` of
    ``buffers`` floats, min(``_BLOCK``, grid size) points each, allocated
    once per sweep.  The grid check reuses the bool one.  Given two
    CPUs, a helper thread fills the blocks past the middle (numpy releases
    the GIL in its loops); each thread stops at its first failing block,
    and the lowest one raises.  No bit of any output depends on the block
    size or on the number of threads.
    """
    size = min(_BLOCK, grid.size)
    arena = _scratch(size, buffers)
    order = arena[-1]
    starts = range(0, grid.size, _BLOCK)
    for i in starts:
        lo, hi = max(i - 1, 0), min(i + _BLOCK, grid.size)
        down = np.less_equal(grid[lo + 1:hi], grid[lo:hi - 1], out=order[:hi - lo - 1])
        if down.any():
            raise DomainError("grid must be strictly increasing")
    errors = [None] * len(starts)

    def fill(first, stop, arena):
        with np.errstate(all="ignore"):  # not inherited by a new thread
            for b in range(first, stop):
                i, j = starts[b], min(starts[b] + _BLOCK, grid.size)
                out = values[i:j] if n_factor is None else (values[i:j], n_factor[i:j])
                try:
                    if kernel is not None:
                        kernel(grid[i:j], out, [buffer[:j - i] for buffer in arena])
                    if not (values[i:j].min() >= 0.0 and values[i:j].max() < math.inf):
                        raise DomainError(
                            "spectral density must be finite and non-negative")
                except Exception as exc:
                    errors[b] = exc
                    return

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    split, helper = len(starts), None
    if min(cpus, len(starts)) >= 2:
        split = (grid.size + _BLOCK) // (2 * _BLOCK)  # the edge nearest the middle
        helper = threading.Thread(  # its arena is allocated on its own thread
            target=lambda: fill(split, len(starts), _scratch(size, buffers)))
        helper.start()
    try:
        fill(0, split, arena)
    finally:
        if helper is not None:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _sweep(grid, name: str, kernel, metadata: dict, buffers: int,
           with_n_factor: bool = False) -> Spectrum:
    """Spectrum of ``kernel`` on a finite, positive, strictly increasing
    1-d ``grid`` (called ``name`` in errors), evaluated and checked in
    blocks.  ``kernel(w, out, scratch)`` writes a block of values, or of
    values and n-factors ``with_n_factor``, with ``buffers`` float
    scratch buffers (see :func:`_check_blocks`).
    """
    if np.ndim(grid) != 1:
        raise DomainError(f"{name} must be a 1-d array")
    grid = _check_real(grid, name, "positive")
    values = np.empty_like(grid)
    n = np.empty_like(grid) if with_n_factor else None
    _check_blocks(grid, values, kernel, n, buffers)
    spectrum = object.__new__(Spectrum)  # __post_init__ would check again
    spectrum.grid, spectrum.values = grid, values
    spectrum.metadata, spectrum.n_factor = metadata, n
    return spectrum


def _lorentzian(delta, gamma: float, out):
    """(gamma / 2 pi) / (delta**2 + gamma**2 / 4), the Lorentzian density
    shared by all spectra, written into ``out``, which may be ``delta``."""
    np.add(np.multiply(delta, delta, out=out), gamma * gamma / 4.0, out=out)
    return np.divide(gamma / (2.0 * math.pi), out, out=out)


def lineshape_S(params: LineshapeParams, grid) -> Spectrum:
    """Emission lineshape S(omega_k) on the given frequency grid."""
    rep, omega_eg, gamma = params.rep, params.omega_eg, params.gamma

    def kernel(w, out, scratch):
        delta, tmp, _ = scratch
        _numerator(rep, np.divide(w, omega_eg, out=delta), out, tmp)
        np.subtract(np.subtract(w, omega_eg, out=delta), params.lamb_shift, out=delta)
        if params.variable_width:
            width = np.multiply(out, gamma, out=tmp)
            np.divide(np.multiply(width, width, out=width), 4.0, out=width)
            np.add(np.multiply(delta, delta, out=delta), width, out=delta)
            out *= gamma / (2.0 * math.pi)
            np.divide(out, delta, out=out)
        else:
            np.multiply(out, _lorentzian(delta, gamma, delta), out=out)

    meta = {
        "representation": params.rep.name,
        "gamma": params.gamma,
        "omega_eg": params.omega_eg,
        "lamb_shift": params.lamb_shift,
        "kind": "lineshape",
    }
    if params.variable_width:
        meta["variable_width"] = True
    return _sweep(grid, "grid", kernel, meta, 2)


# -- serialization -----------------------------------------------------------

_CELL = "%.17g"  # 17 significant digits: every float reads back bit for bit


def read_spectrum_csv(path) -> Spectrum:
    """Read back a spectrum written by :func:`write_spectrum_csv`, its numbers
    by ``np.loadtxt``.  Blank lines are skipped; a header alone gives an
    empty spectrum."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = iter(handle.readline, "")
        header = next((ln for ln in lines if ln.strip()), "").strip().split(",")
        if header == [""]:
            raise ConfigurationError(f"{path}: empty spectrum file")
        if header[: len(CSV_COLUMNS)] != list(CSV_COLUMNS):
            raise ConfigurationError(f"{path}: unexpected CSV header")
        has_n = len(header) > len(CSV_COLUMNS) and header[-1] == "n_factor"
        columns = [0, 1, 3, 4, 5, 6] + [7] * has_n  # all but the representation
        start = handle.tell()
        first = next((ln for ln in lines if ln.strip()), "")
        handle.seek(start)
        try:
            rep = first.strip().split(",")[2] if first else ""
            table = (np.loadtxt(handle, delimiter=",", usecols=columns, comments=None,
                                ndmin=2, unpack=True) if first else np.empty((7, 0)))
        except (ValueError, IndexError) as exc:
            raise ConfigurationError(f"{path}: malformed spectrum row") from exc
    constants = table[2:6, 0].tolist() if first else [0.0] * 4
    meta = dict(zip(("representation", *CSV_COLUMNS[3:]), [rep, *constants]))
    return Spectrum(table[0], table[1], meta, table[6] if has_n else None)


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Write the fixed CSV schema, one :func:`_table` row of ``.17g`` cells
    per grid point; atomic (write-then-rename).  Metadata without a
    ``lamb_shift`` or ``cutoff`` (pulse, fluorescence and Lamb-line
    spectra: none entered the result) is written as 0 and DEFAULT_CUTOFF."""
    meta = spectrum.metadata
    extra = [] if spectrum.n_factor is None else [spectrum.n_factor]
    fixed = {"gamma": 0.0, "omega_eg": 0.0, "lamb_shift": 0.0, "cutoff": DEFAULT_CUTOFF}
    cells = [_CELL, _CELL, str(meta.get("representation", "")).replace("%", "%%"),
             *(_CELL % float(meta.get(key, value)) for key, value in fixed.items()),
             *[_CELL] * len(extra)]
    header = ",".join(CSV_COLUMNS + ("n_factor",) * len(extra))
    table = _table([spectrum.grid, spectrum.values, *extra], ",".join(cells) + "\n")
    _write_text(path, header + "\n" + table)


def _table(columns, row: str) -> str:
    """Float ``columns`` as text: the %-template ``row`` (one field per
    column) once per row, filled by one ``%``.  Every table written is made
    here: CSV and gnuplot cells are ``_CELL``, SVG points ``%.3f``."""
    return (row * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-then-rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)
