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
the grid checks, its kernel is evaluated ``_BLOCK`` points at a time and
each block of values is checked, and its trapezoid area summed, while it
is in cache.  The kernels are elementwise, so blocking changes no value;
only the area, summed block by block, may differ in its last bits.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .atoms import AtomModel
from .errors import ConfigurationError, DomainError, _check_positive, _check_scalar
from .quadrature import pv_quad, smooth_quad
from .representations import POINCARE, GaugeRepresentation, _mixing, coupling_pair

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
    "lorentzian_density",
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
    omega_k = _check_positive(omega_k, "omega_k")
    _check_scalar(omega_eg, "omega_eg")
    out = _numerator(rep, omega_k / omega_eg)
    return out if np.ndim(out) else float(out)


def _numerator(rep: GaugeRepresentation, x):
    """:func:`numerator` at a frequency ratio x already checked."""
    return x * _mixing(rep, x) ** 2


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
        p2 = float(np.sum(np.abs(model.momentum(lower, upper)) ** 2))
        return model.charge**2 * p2 * w / (3.0 * math.pi * model.mass**2)
    d2 = float(np.sum(np.abs(model.dipole(lower, upper)) ** 2))
    u_on = coupling_pair(rep, w, w).u_minus
    return w**3 * d2 * u_on**2 / (3.0 * math.pi)


def _channel_weight(rep, emitted: float, w_abs: float, downward: bool) -> float:
    """Squared coupling of an emission channel, relative to on shell."""
    pair = coupling_pair(rep, emitted, w_abs)
    u = pair.u_minus if downward else pair.u_plus
    u_on = coupling_pair(rep, w_abs, w_abs).u_minus
    return (emitted**2 * u**2) / (w_abs**2 * u_on**2)


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
        d2 = float(np.sum(np.abs(tr.dipole) ** 2))
        base = w_abs**3 * d2 / (3.0 * math.pi)
        total += base * _channel_weight(rep, emitted, w_abs, downward=tr.omega < 0.0)
    return total


# -- level shifts ------------------------------------------------------------


def _pv_over_shift_kernel(gfun, omega_ns: float, cutoff: float, n: int) -> float:
    """PV int_0^cutoff gfun(w) / (omega_ns + w) dw."""
    if omega_ns > 0.0:
        return smooth_quad(lambda w: gfun(w) / (omega_ns + w), 0.0, cutoff, n,
                           toward="lo")
    # Pole at w = -omega_ns:  1/(omega_ns + w) = -1/(pole - w).
    return -pv_quad(gfun, -omega_ns, 0.0, cutoff, n)


def _require_cutoff(model: AtomModel, cutoff: float):
    _check_scalar(cutoff, "cutoff")
    w_max = max(
        (abs(a.energy - b.energy) for a in model.levels for b in model.levels),
        default=0.0,
    )
    if cutoff <= w_max:
        raise ConfigurationError(
            f"cutoff {cutoff} must exceed every transition frequency ({w_max})"
        )


def delta_offshell(
    omega: float, model: AtomModel, rep: GaugeRepresentation, cutoff: float,
    state: str | None = None, n: int = 4096,
) -> float:
    """Second-order level-shift function Delta(omega) at total energy omega.

    Principal-value integral over the mode continuum up to ``cutoff``.
    Downward transitions couple through u_minus, upward ones through
    u_plus; in the symmetric representation the upward (counter-rotating)
    channels therefore drop out.  Off shell the result is representation
    dependent.
    """
    _check_scalar(omega, "omega", "finite")
    _require_cutoff(model, cutoff)
    if state is None:
        state = model.top
    total = 0.0
    for tr in model.transitions_from(state):
        w_abs = abs(tr.omega)
        d2 = float(np.sum(np.abs(tr.dipole) ** 2))
        if d2 == 0.0:
            continue
        downward = tr.omega < 0.0

        def weight(wk, w_abs=w_abs, downward=downward):
            wk = np.asarray(wk, dtype=float)
            positive = wk > 0.0
            pair = coupling_pair(rep, np.where(positive, wk, 1.0), w_abs)
            u = pair.u_minus if downward else pair.u_plus
            # w^2 u^2 -> 0 as w -> 0+, so 0 is the continuous endpoint value.
            return np.where(positive, wk**2 * np.asarray(u) ** 2, 0.0)

        coeff = w_abs * d2 / (6.0 * math.pi**2)
        pole = omega - model.energy(tr.label)  # denominator pole - wk
        total += coeff * pv_quad(weight, pole, 0.0, cutoff, n)
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
    w = _check_positive(omega_modes, "mode frequency")
    weight = w**2 / (3.0 * math.pi**2)
    if rep.kind == "coulomb":
        bracket = np.full_like(w, 0.5)
        for tr in model.transitions_from(state):
            p2 = float(np.sum(np.abs(model.momentum(tr.label, state)) ** 2))
            bracket -= p2 / model.mass / (tr.omega + w)
        return weight * model.charge**2 / (2.0 * model.mass * w) * bracket
    if rep.kind == "poincare":
        out = np.zeros_like(w)
        for tr in model.transitions_from(state):
            d2 = float(np.sum(np.abs(tr.dipole) ** 2))
            out += 0.5 * d2 * tr.omega / (tr.omega + w)
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
    and Poincare routes, a two-level model does not.
    """
    _require_cutoff(model, cutoff)
    if rep.kind == "coulomb":
        total = smooth_quad(
            lambda w: model.charge**2 * w / (12.0 * math.pi**2 * model.mass),
            0.0, cutoff, n,
        )
        for tr in model.transitions_from(state):
            p2 = float(np.sum(np.abs(model.momentum(tr.label, state)) ** 2))
            if p2 == 0.0:
                continue
            coeff = model.charge**2 * p2 / (6.0 * math.pi**2 * model.mass**2)
            total -= coeff * _pv_over_shift_kernel(lambda w: w, tr.omega, cutoff, n)
        return total
    if rep.kind == "poincare":
        total = 0.0
        for tr in model.transitions_from(state):
            d2 = float(np.sum(np.abs(tr.dipole) ** 2))
            if d2 == 0.0:
                continue
            coeff = 0.5 * d2 * tr.omega / (3.0 * math.pi**2)
            total += coeff * _pv_over_shift_kernel(lambda w: w**2, tr.omega,
                                                   cutoff, n)
        return total
    raise DomainError(
        "the diagonal interaction term is defined only on the coulomb and "
        "poincare routes"
    )


def lamb_shift(model: AtomModel, state: str, cutoff: float, n: int = 4096) -> float:
    """Mass-renormalized second-order shift of ``state`` (cutoff in program units).

    The per-transition kernel integrates to omega_ns^3 |r_ns|^2 / (6 pi^2)
    times log|(omega_ns + cutoff)/omega_ns|, so the value grows
    logarithmically with the cutoff; callers should echo the cutoff next to
    the number.
    """
    _require_cutoff(model, cutoff)
    total = 0.0
    for tr in model.transitions_from(state):
        p2 = float(np.sum(np.abs(model.momentum(tr.label, state)) ** 2))
        if p2 == 0.0:
            continue
        coeff = model.charge**2 * tr.omega * p2 / (6.0 * math.pi**2 * model.mass**2)
        total += coeff * _pv_over_shift_kernel(lambda w: np.ones_like(w),
                                               tr.omega, cutoff, n)
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

    ``metadata`` echoes the generating parameters (representation, gamma,
    omega_eg, lamb_shift, cutoff, ...).  The density is NOT normalized to
    unit area; the numerically integrated area is recorded in the metadata
    instead, since the area itself differs between representations.
    """

    grid: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    n_factor: np.ndarray | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        area = _check_blocks(self.grid, self.values)
        if self.n_factor is not None:
            self.n_factor = np.asarray(self.n_factor, dtype=float)
            if self.n_factor.shape != self.grid.shape:
                raise DomainError("n_factor column must match the grid length")
        self._describe(area)

    def _describe(self, area: float) -> None:
        self.metadata.setdefault("area", area)
        self.metadata.setdefault(
            "normalization", "spectral density; area reported, not normalized"
        )


# Grid points per block of a spectrum sweep (256 KiB per float64
# temporary), timed on 1e6-point pulse spectra on a 2-vCPU Xeon with 2 MiB
# of L2 per core: smaller blocks pay more per-block Python overhead (about
# 0.1 ms), larger ones leave the cache; 8192 to 131072 were tried.
_BLOCK = 32768


def _check_blocks(grid, values, kernel=None, n_factor=None) -> float:
    """Check a spectrum ``_BLOCK`` points at a time; return its trapezoid area.

    The grid must be strictly increasing, each block reaching back one
    point for the pair across its edge.  Then each block of ``values``,
    filled first by ``kernel`` if given (with ``n_factor``, if that is
    given), must be finite and non-negative.  Overflow or an undefined
    result fails that test, so numpy's warnings are silenced.
    """
    for i in range(0, grid.size, _BLOCK):
        if np.any(np.diff(grid[max(i - 1, 0):i + _BLOCK]) <= 0.0):
            raise DomainError("grid must be strictly increasing")
    area = 0.0
    with np.errstate(all="ignore"):
        for i in range(0, grid.size, _BLOCK):
            j, k = i + _BLOCK, max(i - 1, 0)
            if n_factor is not None:
                values[i:j], n_factor[i:j] = kernel(grid[i:j])
            elif kernel is not None:
                values[i:j] = kernel(grid[i:j])
            if not (values[i:j].min() >= 0.0 and values[i:j].max() < math.inf):
                raise DomainError("spectral density must be finite and non-negative")
            area += float(np.trapezoid(values[k:j], grid[k:j]))
    return area


def _sweep(grid, name: str, kernel, metadata: dict,
           with_n_factor: bool = False) -> Spectrum:
    """Spectrum of ``kernel`` on a finite, positive, strictly increasing
    1-d ``grid`` (called ``name`` in errors), evaluated and checked in
    blocks.  ``kernel`` maps a block of grid points to the values there,
    or to values and n-factors ``with_n_factor``.
    """
    if np.ndim(grid) != 1:
        raise DomainError(f"{name} must be a 1-d array")
    grid = _check_positive(grid, name)
    values = np.empty_like(grid)
    n = np.empty_like(grid) if with_n_factor else None
    area = _check_blocks(grid, values, kernel, n)
    spectrum = object.__new__(Spectrum)  # __post_init__ would check again
    spectrum.grid, spectrum.values = grid, values
    spectrum.metadata, spectrum.n_factor = metadata, n
    spectrum._describe(area)
    return spectrum


def lorentzian_density(delta, gamma: float):
    """(gamma / 2 pi) / (delta**2 + gamma**2 / 4); shared by all spectra."""
    delta = np.asarray(delta, dtype=float)
    return (gamma / (2.0 * math.pi)) / (delta**2 + gamma**2 / 4.0)


def lineshape_S(params: LineshapeParams, grid) -> Spectrum:
    """Emission lineshape S(omega_k) on the given frequency grid."""

    def kernel(w):
        num = _numerator(params.rep, w / params.omega_eg)
        delta = w - params.omega_eg - params.lamb_shift
        if params.variable_width:
            gamma_w = params.gamma * num
            return num * (params.gamma / (2.0 * math.pi)) / (
                delta**2 + gamma_w**2 / 4.0
            )
        return num * lorentzian_density(delta, params.gamma)

    meta = {
        "representation": params.rep.name,
        "gamma": params.gamma,
        "omega_eg": params.omega_eg,
        "lamb_shift": params.lamb_shift,
        "cutoff": DEFAULT_CUTOFF,
        "kind": "lineshape",
    }
    if params.variable_width:
        meta["variable_width"] = True
    return _sweep(grid, "grid", kernel, meta)


# -- serialization -----------------------------------------------------------


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def read_spectrum_csv(path) -> Spectrum:
    """Read back a spectrum written by :func:`write_spectrum_csv`."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln.strip() for ln in handle if ln.strip()]
    if not lines:
        raise ConfigurationError(f"{path}: empty spectrum file")
    header = lines[0].split(",")
    if header[: len(CSV_COLUMNS)] != list(CSV_COLUMNS):
        raise ConfigurationError(f"{path}: unexpected CSV header")
    has_n = len(header) > len(CSV_COLUMNS) and header[-1] == "n_factor"
    grid, values, nfac = [], [], []
    rep = ""
    constants = [0.0, 0.0, 0.0, 0.0]
    try:
        for line in lines[1:]:
            cells = line.split(",")
            grid.append(float(cells[0]))
            values.append(float(cells[1]))
            rep = cells[2]
            constants = [float(c) for c in cells[3:7]]
            if has_n:
                nfac.append(float(cells[7]))
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"{path}: malformed spectrum row") from exc
    meta = {
        "representation": rep,
        "gamma": constants[0],
        "omega_eg": constants[1],
        "lamb_shift": constants[2],
        "cutoff": constants[3],
    }
    return Spectrum(
        grid=np.array(grid),
        values=np.array(values),
        metadata=meta,
        n_factor=np.array(nfac) if has_n else None,
    )


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Write the fixed CSV schema; atomic (write-then-rename)."""
    meta = spectrum.metadata
    header = list(CSV_COLUMNS)
    if spectrum.n_factor is not None:
        header.append("n_factor")
    rows = [",".join(header)]
    rep = str(meta.get("representation", ""))
    constants = [
        _fmt(meta.get("gamma", 0.0)),
        _fmt(meta.get("omega_eg", 0.0)),
        _fmt(meta.get("lamb_shift", 0.0)),
        _fmt(meta.get("cutoff", DEFAULT_CUTOFF)),
    ]
    for i, (w, s) in enumerate(zip(spectrum.grid, spectrum.values)):
        row = [_fmt(w), _fmt(s), rep, *constants]
        if spectrum.n_factor is not None:
            row.append(_fmt(spectrum.n_factor[i]))
        rows.append(",".join(row))
    _write_text(path, "\n".join(rows) + "\n")


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-then-rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)
