"""Resonance-fluorescence rates and the stimulated Lamb-line sweep.

The scattering rate for a sharp incident line carries a representation-
dependent frequency factor n(omega_0, omega_eg), normalized to 1 on
resonance; the stimulated microwave transition followed by a fast cascade
carries the analogous factor n'(omega_0, omega, omega').  Both are built
from the representation's mixing factor m = u_minus sqrt(x)
(:func:`~lineshape.representations.mixing`): off-shell width times squared
absorption coupling times the flux factor, which is m**4 / x for n.  The
source paper's closed-form tables are special cases, kept in
:mod:`lineshape.verify` as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_real, _check_scalar
from .representations import GaugeRepresentation, _mixing
from .spectra import Spectrum, _numerator, _sweep

__all__ = [
    "SharpLineScenario",
    "LambLineScenario",
    "n_factor",
    "fluorescence_sweep",
    "lamb_n_factor",
    "lamb_rate_sweep",
    "lamb_hydrogen_preset",
]


# -- sharp incident line -----------------------------------------------------


def n_factor(rep: GaugeRepresentation, omega_0, omega_eg: float):
    """Representation factor of the fluorescence rate, 1 on resonance.

    m**4 / x with x = omega_0/omega_eg and m the mixing factor: the
    off-shell width x m**2 times the squared absorption coupling m**2 / x
    times the flux factor 1/x.  That is 1/x (Coulomb), x**3 (Poincare) and
    16 x**3 / (1 + x)**4 (symmetric).
    """
    omega_0 = _check_real(omega_0, "omega_0", "positive")
    _check_scalar(omega_eg, "omega_eg")
    out = _n_factor(rep, omega_0 / omega_eg)
    return out if np.ndim(out) else float(out)


def _n_factor(rep: GaugeRepresentation, x):
    """:func:`n_factor` at a frequency ratio x already checked."""
    # Squared twice: numpy takes ** 4 through pow(), about three times slower.
    return (_mixing(rep, x) ** 2) ** 2 / x


@dataclass(frozen=True)
class SharpLineScenario:
    """Atom driven by monochromatic incident radiation of intensity S."""

    intensity: float
    omega_0: float
    omega_eg: float
    gamma: float
    dipole_proj: float
    rep: GaugeRepresentation

    def __post_init__(self):
        _check_scalar(self.intensity, "intensity", "non-negative")
        _check_scalar(self.omega_0, "omega_0")
        _check_scalar(self.omega_eg, "omega_eg")
        _check_scalar(self.gamma, "gamma")
        _check_scalar(self.dipole_proj, "dipole_proj", "non-negative")


def _rate_kernel(intensity, gamma, d, n, detuning):
    """Shared arithmetic of the damped scattering rates.  Scalars are
    squared by multiplying: Python's ** raises OverflowError, not inf."""
    return intensity * gamma * (d * d) / 2.0 * n / (detuning**2 + gamma * gamma / 4.0)


def fluorescence_sweep(scenario: SharpLineScenario, omega_0_grid) -> Spectrum:
    """Rate as a function of incident frequency, with the n column attached."""
    def kernel(w):
        n = _n_factor(scenario.rep, w / scenario.omega_eg)
        return _rate_kernel(scenario.intensity, scenario.gamma,
                            scenario.dipole_proj, n, w - scenario.omega_eg), n

    meta = {
        "representation": scenario.rep.name,
        "gamma": scenario.gamma,
        "omega_eg": scenario.omega_eg,
        "intensity": scenario.intensity,
        "dipole_proj": scenario.dipole_proj,
        "kind": "fluorescence",
    }
    return _sweep(omega_0_grid, "omega_0 grid", kernel, meta, with_n_factor=True)


# -- stimulated decay of a metastable state ----------------------------------


def lamb_n_factor(rep: GaugeRepresentation, omega_0, omega: float, omega_prime: float):
    """Representation factor n' of the stimulated-decay line, 1 at omega_0 = omega.

    ``omega`` is the small splitting being driven, ``omega_prime`` the fast
    cascade transition; the emitted frequency is omega + omega' - omega_0
    and must be positive.  n' is the cascade numerator at the emitted
    frequency times (m_0 / x_0)**2, with x_0 = omega_0/omega and m_0 the
    mixing factor of the driven transition: squared absorption coupling
    m_0**2 / x_0 times the flux factor 1/x_0.
    """
    omega_0 = _check_real(omega_0, "omega_0", "positive")
    _check_scalar(omega, "omega")
    _check_scalar(omega_prime, "omega_prime")
    out = _lamb_n_factor(rep, omega_0, omega, omega_prime)
    return out if np.ndim(out) else float(out)


def _lamb_n_factor(rep: GaugeRepresentation, omega_0, omega, omega_prime):
    """:func:`lamb_n_factor` at drive frequencies already checked."""
    emitted = omega + omega_prime - omega_0
    if np.any(emitted <= 0.0):
        raise DomainError("emitted frequency omega + omega' - omega_0 must be positive")
    x_0 = omega_0 / omega
    return _numerator(rep, emitted / omega_prime) * (_mixing(rep, x_0) / x_0) ** 2


@dataclass(frozen=True)
class LambLineScenario:
    """Stimulated decay of a metastable level through a fast cascade.

    ``omega`` is the driven splitting, ``omega_prime`` the cascade
    transition frequency (normally much larger), ``gamma`` the cascade
    width.  The drive frequency is the sweep grid.
    """

    intensity: float
    omega: float
    omega_prime: float
    gamma: float
    dipole_proj: float
    rep: GaugeRepresentation

    def __post_init__(self):
        _check_scalar(self.intensity, "intensity", "non-negative")
        _check_scalar(self.omega, "omega")
        _check_scalar(self.omega_prime, "omega_prime")
        _check_scalar(self.gamma, "gamma")
        _check_scalar(self.dipole_proj, "dipole_proj", "non-negative")


def lamb_rate_sweep(scenario: LambLineScenario, omega_0_grid) -> Spectrum:
    """Rate as a function of drive frequency, with the n' column attached."""
    def kernel(w):
        n = _lamb_n_factor(scenario.rep, w, scenario.omega, scenario.omega_prime)
        return _rate_kernel(scenario.intensity, scenario.gamma,
                            scenario.dipole_proj, n, w - scenario.omega), n

    meta = {
        "representation": scenario.rep.name,
        "gamma": scenario.gamma,
        "omega_eg": scenario.omega,
        "intensity": scenario.intensity,
        "dipole_proj": scenario.dipole_proj,
        "omega_prime": scenario.omega_prime,
        "kind": "lamb-line",
    }
    return _sweep(omega_0_grid, "omega_0 grid", kernel, meta, with_n_factor=True)


def lamb_hydrogen_preset(rep: GaugeRepresentation) -> LambLineScenario:
    """Named preset for the stimulated-decay sweep, at unit intensity.

    The ratios (omega'/omega = 1e3, gamma/omega = 0.6) are legibility
    placeholders chosen to make the plotted asymmetries visible; they are
    NOT physical hydrogen values.  Override any field as needed.
    """
    return LambLineScenario(
        intensity=1.0,
        omega=1.0,
        omega_prime=1000.0,
        gamma=0.6,
        dipole_proj=1.0,
        rep=rep,
    )
