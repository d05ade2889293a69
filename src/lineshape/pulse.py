"""Semi-classically driven two-level atom: pulse closed forms and emission.

A rectangular drive of amplitude Omega and duration pi/Omega (a pi-pulse)
excites the atom; afterwards the excited amplitude decays exponentially at
rate Gamma/2 and the photon-mode amplitudes accumulate a Lorentzian tail.
The rectangular shape is the only one: the closed forms are derived for
it, and :func:`lineshape.dynamics.integrate_dynamics` integrates the same
drive.
Mode amplitudes are tracked in reduced form: the per-mode coupling
prefactor (-i g* u_minus) is factored out and reattached by the spectrum
assembler through the identity

    rho(w) (L/2pi)^3 sum_pol int dTheta |g u_minus|^2
        = (Gamma / 2 pi) * numerator(w),

so no regularization volume ever appears.

Convention: the drive enters the amplitude equations as a Hermitian
coupling, i db/dt = V(t) b, so a resonant pi-pulse leaves b_e(0) = -i.
The closed-form emission amplitude carries the matching phase on its
pulse-window term, which keeps it consistent with the integrated dynamics
and makes the pulse contribution add in quadrature with the Lorentzian
tail at line center.

The pulse-window kernel has removable zeros in its denominator.  They are
factored out exactly (see ``closed_form_amplitude``), so one branch-free
expression in real arithmetic, one vectorised tan per point, serves the
whole line.  ``pulse_spectrum`` evaluates it through the blocked sweep of
:mod:`lineshape.spectra` and the two point functions through its frame,
which raises DomainError on a non-finite result.  ``_drive`` rejects a
drive whose phase mu pi/Omega overflows.

The integrated dynamics, the ODE oracle behind ``lineshape verify`` and
pulse ``trajectory: true``, live in :mod:`lineshape.dynamics`, which only
those runs import: a pulse preset run compiles none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _check_scalar
from .representations import GaugeRepresentation, coupling_pair
from .spectra import Spectrum, _lorentzian, _numerator, _pointwise, _sweep

__all__ = [
    "PulseConfig",
    "excited_amplitude_during_pulse",
    "closed_form_amplitude",
    "pulse_spectrum",
    "lorentzian_reference_spectrum",
]


@dataclass(frozen=True)
class PulseConfig:
    """Laser drive parameters of the rectangular pi-pulse.

    The drive has constant amplitude ``rabi`` on the window [-pi/rabi, 0]
    and is off outside it; the closed forms and the integrated dynamics
    both assume this shape.  It couples through the representation's own
    u_l at the carrier frequency ``omega_l``.  The integrated dynamics use
    fixed ODE settings (``_SAMPLES``, ``_RTOL``, ``_ATOL`` and ``_HORIZON``
    of :mod:`lineshape.dynamics`): 401 samples per phase, DOP853 at rtol
    1e-11 and atol 1e-13, a horizon of 8/Gamma.
    """

    rabi: float
    omega_l: float

    def __post_init__(self):
        _check_scalar(self.rabi, "rabi")
        duration = math.pi / float(self.rabi)  # the closed forms square it
        if not math.isfinite(duration * duration):
            raise DomainError("rabi amplitude is too small: (pi/rabi)**2 overflows")
        _check_scalar(self.omega_l, "omega_l")

    @property
    def duration(self) -> float:
        return math.pi / self.rabi


# -- closed forms ------------------------------------------------------------


def _drive(config: PulseConfig, rep: GaugeRepresentation, omega_0: float):
    """Drive constants: coupling u_l (u_minus at the carrier; 1 on
    resonance in every representation), laser detuning delta_l and the
    generalised Rabi frequency mu = hypot(Omega u_l, delta_l), which bounds
    the other two: a finite mu pi/Omega keeps every phase taken finite."""
    _check_scalar(omega_0, "omega_0")
    u_l = coupling_pair(rep, config.omega_l, omega_0).u_minus
    delta_l = omega_0 - config.omega_l
    mu = math.hypot(config.rabi * u_l, delta_l)
    if not math.isfinite(mu * float(config.duration)):  # float: no numpy warning
        raise DomainError("drive phase mu*pi/rabi must be finite")
    return u_l, delta_l, mu


def excited_amplitude_during_pulse(t, config: PulseConfig,
                                   rep: GaugeRepresentation, omega_0: float):
    """Excited amplitude inside the rectangular pulse window.

    b_e(t) = -i (Omega u_l / mu) exp(i delta_l (t - pi/Omega)/2)
             sin((mu/2)(t + pi/Omega)),   -pi/Omega <= t <= 0.
    """
    def kernel(t_arr, _):
        T = config.duration
        if t_arr.size and not (t_arr.min() >= -T - 1e-12 and t_arr.max() <= 1e-12):
            raise DomainError("time outside the pulse window [-pi/Omega, 0]")
        u_l, delta_l, mu = _drive(config, rep, omega_0)
        return (
            -1j
            * (config.rabi * u_l / mu)
            * np.exp(1j * delta_l * (t_arr - T) / 2.0)
            * np.sin(0.5 * mu * (t_arr + T))
        )

    return _pointwise(t, "t", "finite", 0, "excited_amplitude_during_pulse", kernel)


def _kernel_parts(P, theta: float, scratch):
    """Real and imaginary parts of the pulse-window kernel K(P) of
    :func:`closed_form_amplitude`, branch-free through P = +/- theta.
    ``P`` is overwritten.  ``scratch`` holds six float buffers and a bool
    one; the parts are returned in its first two floats.
    With t = tan(h/2), sin h = 2t/(1 + t^2) and cos h = (1 - t^2)/(1 + t^2):
    numpy vectorises float64 tan, not sin or cos (scalar libm calls).  No
    double is near enough to an odd multiple of pi/2 for t*t to overflow.
    Against 80 digits the relative error is at most 1e-14: 5.3e-15 at theta
    = 3.2, near pi, where sin(theta)/theta - s cos(phi) cancels."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cos_h, k_im, q, h, sin_h, s, *_, nonzero = scratch
    np.absolute(P, out=q)
    np.sign(P, out=P)  # K(-P) = conj K(P); Im K(0) = 0
    np.multiply(np.subtract(q, theta, out=h), 0.5, out=h)
    t = np.tan(np.multiply(h, 0.5, out=sin_h), out=sin_h)
    tt = np.multiply(t, t, out=cos_h)
    u = np.divide(1.0, np.add(tt, 1.0, out=s), out=s)
    np.multiply(np.multiply(t, 2.0, out=sin_h), u, out=sin_h)
    np.multiply(np.subtract(1.0, tt, out=cos_h), u, out=cos_h)
    s.fill(1.0)
    np.divide(sin_h, h, out=s, where=np.not_equal(h, 0.0, out=nonzero))
    inv = np.divide(1.0, np.add(q, theta, out=q), out=q)  # 1/(theta + q)
    np.subtract(np.multiply(cos_h, cos_t, out=k_im), np.multiply(sin_h, sin_t, out=h),
                out=k_im)
    np.multiply(cos_h, sin_t, out=h)
    k_re = np.add(np.multiply(sin_h, cos_t, out=cos_h), h, out=cos_h)  # cos_h spent
    np.multiply(np.multiply(k_re, s, out=k_re), inv, out=k_re)
    np.subtract(sin_t / theta, np.multiply(k_im, s, out=k_im), out=k_im)
    np.multiply(np.multiply(k_im, inv, out=k_im), P, out=k_im)
    return k_re, k_im


def _amplitude_parts(delta_k, config: PulseConfig, drive, gamma: float, scratch):
    """Real and imaginary parts of the reduced emission amplitude at the
    mode detunings ``delta_k``, for a ``gamma`` already checked and the
    constants ``drive`` of :func:`_drive`.  ``scratch`` holds seven float
    buffers and a bool one; the parts are returned in two of its floats,
    and its first float is free again.

    The tail 1/(i delta_k + Gamma/2), the kernel and its complex prefactor
    are combined in real arithmetic.  Every step is elementwise, so any
    slice of ``delta_k`` gives the same bits as the whole.
    """
    u_l, delta_l, mu = drive
    T = config.duration
    # Prefactor -2i Omega u_l e^{-i delta_l T/2} T^2/4 = z_re + i z_im.
    scale = -0.5 * config.rabi * u_l * T**2
    z_re = scale * math.sin(0.5 * delta_l * T)
    z_im = scale * math.cos(0.5 * delta_l * T)
    d, *rest = scratch
    P = np.subtract(np.multiply(delta_k, T, out=d), 0.5 * delta_l * T, out=d)
    k_re, k_im = _kernel_parts(P, 0.5 * mu * T, rest)
    tmp, re, im = rest[2:5]  # free again once K is made

    d = np.add(np.multiply(delta_k, delta_k, out=d), 0.25 * gamma * gamma, out=d)
    np.divide(0.5 * gamma, d, out=re)
    re += np.multiply(k_re, z_re, out=tmp)
    re -= np.multiply(k_im, z_im, out=tmp)
    np.multiply(k_im, z_re, out=im)
    im += np.multiply(k_re, z_im, out=tmp)
    im -= np.divide(delta_k, d, out=tmp)
    return re, im


def closed_form_amplitude(omega_k, config: PulseConfig,
                          rep: GaugeRepresentation, omega_0: float,
                          gamma: float):
    """Long-time reduced emission amplitude for general laser detuning.

    beta = 1/(i delta_k + Gamma/2) - 2i Omega u_l e^{-i delta_l T/2}
    (T^2/4) K(P), with T = pi/Omega, theta = mu T/2, P = (2 delta_k -
    delta_l) T/2 and the pulse-window kernel

        K(P) = [e^{iP} - cos theta - i (P/theta) sin theta]
               / (theta^2 - P^2).

    K(-P) = conj K(P).  With q = |P|, h = (q - theta)/2, s = sin(h)/h
    (1 at h = 0) and phi = h + theta, the zeros of theta^2 - P^2 cancel
    exactly (cos q - cos theta = -2 sin(phi) sin(h), sin q - sin theta =
    2 cos(phi) sin(h)):

        K = [s sin(phi) + i (sin(theta)/theta - s cos(phi))] / (theta + q),

    the imaginary part flipped where P < 0.  theta + q >= theta > 0, so
    the removable singularity on (Omega u_l)^2 + 4 delta_k delta_kl = 0
    needs no branch.  sin(h) and cos(h) come from one tan(h/2) per point
    (see :func:`_kernel_parts`).  Only the detuning of ``omega_k`` enters
    here, so ``omega_k`` may take either sign but must be real and finite.
    Scalar in, scalar out; arrays keep their shape.
    """
    _check_scalar(gamma, "gamma")
    drive = _drive(config, rep, omega_0)

    def kernel(w, scratch):
        delta_k, *rest = scratch
        re, im = _amplitude_parts(np.subtract(omega_0, w, out=delta_k), config,
                                  drive, gamma, rest)
        return re + 1j * im

    return _pointwise(omega_k, "omega_k", "finite", 8, "closed_form_amplitude", kernel)


# -- spectra -----------------------------------------------------------------


def pulse_spectrum(config: PulseConfig, rep: GaugeRepresentation, omega_0: float,
                   gamma: float, grid) -> Spectrum:
    """Emission spectrum after the pulse.

    S(w) = numerator(rep, w, omega_0) * (Gamma/2pi) * |beta(w)|^2 with beta
    the reduced amplitude of :func:`closed_form_amplitude`, evaluated and
    checked by the blocked sweep of :mod:`lineshape.spectra`.  Without the
    pulse-window term, beta is the Lorentzian tail alone and S is the plain
    emission lineshape :func:`~lineshape.spectra.lineshape_S`.
    """
    _check_scalar(gamma, "gamma")
    drive = _drive(config, rep, omega_0)

    def kernel(w, out, scratch):
        x, *rest = scratch
        re, im = _amplitude_parts(np.subtract(omega_0, w, out=x), config,
                                  drive, gamma, rest)
        _numerator(rep, np.divide(w, omega_0, out=x), out, rest[0])
        out *= gamma / (2.0 * math.pi)
        out *= np.add(np.multiply(re, re, out=re), np.multiply(im, im, out=im),
                      out=re)

    meta = {
        "representation": rep.name,
        "gamma": gamma,
        "omega_eg": omega_0,
        "rabi": config.rabi,
        "delta_l": omega_0 - config.omega_l,
        "kind": "pulse",
    }
    spectrum = _sweep(grid, "spectrum grid", kernel, meta, 8)
    if _zero_locus_on_grid(config, drive, omega_0, spectrum.grid):
        meta["denominator_zero_on_grid"] = True
    return spectrum


def _zero_locus_on_grid(config, drive, omega_0, grid) -> bool:
    """Whether D = (Omega u_l)^2 + 4 delta_k delta_kl is <= 0 somewhere on
    the increasing ``grid`` (the removable-singularity locus crosses the
    requested frequencies), for the constants ``drive`` of :func:`_drive`.
    D = mu^2 - (2 delta_k - delta_l)^2 is concave in omega_k, so its least
    value on the grid is at its first or its last point."""
    if grid.size == 0:
        return False
    delta_k = omega_0 - np.array([grid[0], grid[-1]])
    u_l, delta_l, _ = drive
    rabi_u = config.rabi * u_l  # squared by hand: ** raises on overflow
    D = rabi_u * rabi_u + 4.0 * delta_k * (delta_l - delta_k)
    return bool(np.any(D <= 0.0))


def lorentzian_reference_spectrum(omega_0: float, gamma: float, grid) -> Spectrum:
    """Bare Lorentzian (Gamma/2pi)/(delta_k^2 + Gamma^2/4) as a reference curve."""
    _check_scalar(gamma, "gamma")
    _check_scalar(omega_0, "omega_0")
    meta = {
        "representation": "lorentzian",
        "gamma": gamma,
        "omega_eg": omega_0,
        "kind": "reference",
    }
    return _sweep(grid, "spectrum grid", lambda w, out, _: _lorentzian(
        np.subtract(w, omega_0, out=out), gamma, out), meta, 0)
