"""Resonance-fluorescence rates and the stimulated Lamb-line sweep.

The scattering rate for a sharp incident line carries a representation-
dependent frequency factor n(omega_0, omega_eg), normalized to 1 on
resonance; the stimulated microwave transition followed by a fast cascade
carries the analogous factor n'(omega_0, omega, omega').  Both are built
from the representation's mixing factor m = u_minus sqrt(x) = (1 - alpha)
+ alpha x: off-shell width times squared absorption coupling times the
flux factor, which is m**4 / x for n.  The
source paper's closed-form tables are special cases, kept in
:mod:`lineshape.verify` as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_scalar
from .representations import GaugeRepresentation, _check_rep, _mixing
from .spectra import Spectrum, _numerator, _pointwise, _sweep

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
    _check_scalar(omega_eg, "omega_eg")
    return _pointwise(omega_0, "omega_0", "positive", 3, "n_factor", lambda w, s:
                      _n_factor(rep, np.divide(w, omega_eg, out=s[0]), s[1], s[2]))


def _n_factor(rep: GaugeRepresentation, x, out, tmp):
    """:func:`n_factor` at a checked ratio x, into ``out``; ``tmp`` is scratch."""
    m = _mixing(rep, x, out, tmp)
    # Squared twice: numpy takes ** 4 through pow(), about three times slower.
    np.multiply(m, m, out=m)
    return np.divide(np.multiply(m, m, out=m), x, out=m)


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
        _check_rep(self.rep)
        _check_scalar(self.intensity, "intensity", "non-negative")
        _check_scalar(self.omega_0, "omega_0")
        _check_scalar(self.omega_eg, "omega_eg")
        _check_scalar(self.gamma, "gamma")
        _check_scalar(self.dipole_proj, "dipole_proj", "non-negative")


def _rate_kernel(scenario, n, detuning, out):
    """Shared arithmetic of the damped scattering rates, written into
    ``out``; ``detuning`` is overwritten.  Scalars are squared by
    multiplying as floats: Python's ** and int products too large for a
    float raise OverflowError, not inf."""
    intensity, gamma, d = (float(v) for v in (scenario.intensity, scenario.gamma,
                                              scenario.dipole_proj))
    np.add(np.multiply(detuning, detuning, out=detuning), gamma * gamma / 4.0,
           out=detuning)
    return np.divide(np.multiply(n, intensity * gamma * (d * d) / 2.0, out=out),
                     detuning, out=out)


def fluorescence_sweep(scenario: SharpLineScenario, omega_0_grid) -> Spectrum:
    """Rate as a function of incident frequency, with the n column attached."""
    def kernel(w, out, scratch):
        (rate, n), (x, tmp, _) = out, scratch
        _n_factor(scenario.rep, np.divide(w, scenario.omega_eg, out=x), n, tmp)
        _rate_kernel(scenario, n, np.subtract(w, scenario.omega_eg, out=x), rate)

    meta = {
        "representation": scenario.rep.name,
        "gamma": scenario.gamma,
        "omega_eg": scenario.omega_eg,
        "intensity": scenario.intensity,
        "dipole_proj": scenario.dipole_proj,
        "kind": "fluorescence",
    }
    return _sweep(omega_0_grid, "omega_0 grid", kernel, meta, 2, with_n_factor=True)


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
    _check_scalar(omega, "omega")
    _check_scalar(omega_prime, "omega_prime")

    def kernel(w, scratch):
        _check_emitted(omega, omega_prime, w.max(initial=0.0))  # w > 0, or empty
        return _lamb_n_factor(rep, w, omega, omega_prime, scratch[0], scratch[1:])

    return _pointwise(omega_0, "omega_0", "positive", 4, "lamb_n_factor", kernel)


def _check_emitted(omega, omega_prime, omega_0_max) -> None:
    """Reject drive frequencies whose largest, ``omega_0_max``, closes the
    emission channel: the emitted frequency omega + omega' - omega_0 is
    least there, rounding included."""
    if not (float(omega) + float(omega_prime)) - omega_0_max > 0.0:
        raise DomainError("emitted frequency omega + omega' - omega_0 must be positive")


def _lamb_n_factor(rep: GaugeRepresentation, omega_0, omega, omega_prime,
                   out, scratch):
    """:func:`lamb_n_factor` at checked drive frequencies (see
    :func:`_check_emitted`), into ``out``."""
    x, m, tmp, *_ = scratch
    np.subtract(float(omega) + float(omega_prime), omega_0, out=x)  # emitted
    _numerator(rep, np.divide(x, omega_prime, out=x), out, m)
    m_0 = _mixing(rep, np.divide(omega_0, omega, out=x), m, tmp)  # at x = x_0
    np.divide(m_0, x, out=m_0)
    return np.multiply(out, np.multiply(m_0, m_0, out=m_0), out=out)


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
        _check_rep(self.rep)
        _check_scalar(self.intensity, "intensity", "non-negative")
        _check_scalar(self.omega, "omega")
        _check_scalar(self.omega_prime, "omega_prime")
        _check_scalar(self.gamma, "gamma")
        _check_scalar(self.dipole_proj, "dipole_proj", "non-negative")


def lamb_rate_sweep(scenario: LambLineScenario, omega_0_grid) -> Spectrum:
    """Rate as a function of drive frequency, with the n' column attached."""
    def kernel(w, out, scratch):
        rate, n = out
        # The grid is increasing, so its last point is the block's largest.
        _check_emitted(scenario.omega, scenario.omega_prime, w[-1])
        _lamb_n_factor(scenario.rep, w, scenario.omega, scenario.omega_prime, n,
                       scratch)
        _rate_kernel(scenario, n, np.subtract(w, scenario.omega, out=scratch[0]), rate)

    meta = {
        "representation": scenario.rep.name,
        "gamma": scenario.gamma,
        "omega_eg": scenario.omega,
        "intensity": scenario.intensity,
        "dipole_proj": scenario.dipole_proj,
        "omega_prime": scenario.omega_prime,
        "kind": "lamb-line",
    }
    return _sweep(omega_0_grid, "omega_0 grid", kernel, meta, 3, with_n_factor=True)


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
