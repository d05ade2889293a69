"""Semi-classically driven two-level atom: pulse dynamics and emission.

A rectangular drive of amplitude Omega and duration pi/Omega (a pi-pulse)
excites the atom; afterwards the excited amplitude decays exponentially at
rate Gamma/2 and the photon-mode amplitudes accumulate a Lorentzian tail.
The rectangular shape is the only one: the closed forms are derived for
it, and ``integrate_dynamics`` integrates the same drive.
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
:mod:`lineshape.spectra`.

``integrate_dynamics`` steps the pulse window with the package's own
adaptive DOP853 pair (``_ode``; Hairer, Norsett & Wanner, *Solving ODEs I*,
Sec. II.4-II.6), the ODE oracle behind ``lineshape verify`` and pulse
``trajectory: true``.  With the field retained, the t >= 0 phase is a
discrete level coupled to a discretised continuum with the drive off: a
linear system with constant coefficients, propagated exactly from its
eigenvalues (the roots of a secular equation) and closed-form
eigenvectors, in elementwise numpy.  The package needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, _check_real, _check_scalar
from .representations import GaugeRepresentation, coupling_pair
from .spectra import (
    _CELL,
    Spectrum,
    _lorentzian,
    _numerator,
    _scratch,
    _sweep,
    _table,
    _write_text,
    numerator,
)

__all__ = [
    "PulseConfig",
    "PulseTrajectory",
    "excited_amplitude_during_pulse",
    "closed_form_amplitude",
    "integrate_dynamics",
    "pulse_spectrum",
    "lorentzian_reference_spectrum",
]

# integrate_dynamics: samples per phase, DOP853 tolerances for the pulse
# window, and the post-pulse horizon in units of 1/Gamma.
_SAMPLES, _RTOL, _ATOL, _HORIZON = 401, 1e-11, 1e-13, 8.0


@dataclass(frozen=True)
class PulseConfig:
    """Laser drive parameters of the rectangular pi-pulse.

    The drive has constant amplitude ``rabi`` on the window [-pi/rabi, 0]
    and is off outside it; the closed forms and the integrated dynamics
    both assume this shape.  It couples through the representation's own
    u_l at the carrier frequency ``omega_l``.  The integrated dynamics use
    fixed ODE settings (see :func:`integrate_dynamics`): 401 samples per
    phase, DOP853 at rtol 1e-11 and atol 1e-13, a horizon of 8/Gamma.
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
    generalised Rabi frequency mu = hypot(Omega u_l, delta_l)."""
    _check_scalar(omega_0, "omega_0")
    u_l = coupling_pair(rep, config.omega_l, omega_0).u_minus
    delta_l = omega_0 - config.omega_l
    return u_l, delta_l, math.hypot(config.rabi * u_l, delta_l)


def excited_amplitude_during_pulse(t, config: PulseConfig,
                                   rep: GaugeRepresentation, omega_0: float):
    """Excited amplitude inside the rectangular pulse window.

    b_e(t) = -i (Omega u_l / mu) exp(i delta_l (t - pi/Omega)/2)
             sin((mu/2)(t + pi/Omega)),   -pi/Omega <= t <= 0.
    """
    t_arr = _check_real(t, "t")
    T = config.duration
    if t_arr.size and not (t_arr.min() >= -T - 1e-12 and t_arr.max() <= 1e-12):
        raise DomainError("time outside the pulse window [-pi/Omega, 0]")
    u_l, delta_l, mu = _drive(config, rep, omega_0)
    out = (
        -1j
        * (config.rabi * u_l / mu)
        * np.exp(1j * delta_l * (t_arr - T) / 2.0)
        * np.sin(0.5 * mu * (t_arr + T))
    )
    return out if out.ndim else complex(out)


def _expm1_over(eps):
    """(exp(i eps) - 1) / eps for real eps, stable through eps = 0."""
    eps = np.asarray(eps, dtype=float)
    return 1j * np.exp(0.5j * eps) * np.sinc(eps / (2.0 * math.pi))


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
    _check_scalar(omega_0, "omega_0")
    omega_k = _check_real(omega_k, "omega_k")
    drive = _drive(config, rep, omega_0)
    delta_k, *scratch = _scratch(omega_k.shape, 8)
    re, im = _amplitude_parts(np.subtract(omega_0, omega_k, out=delta_k), config,
                              drive, gamma, scratch)
    out = re + 1j * im
    return out if np.ndim(out) else complex(out)


# -- integrated dynamics -----------------------------------------------------


@dataclass
class PulseTrajectory:
    """Pulse-window samples, long-time modes, and the stepper's ``ode_stats``."""

    times: np.ndarray
    b_g: np.ndarray
    b_e: np.ndarray
    mode_grid: np.ndarray
    beta_pulse_end: np.ndarray
    beta_final: np.ndarray
    rwa: bool
    include_field_during_pulse: bool
    post_times: np.ndarray | None = None
    post_b_e: np.ndarray | None = None
    ode_stats: dict | None = None

    def to_csv(self, path) -> None:
        """Dump the atomic amplitudes: t,re_bg0,im_bg0,re_be0,im_be0, one
        row per sample, made by :func:`lineshape.spectra._table`."""
        columns = [self.times, self.b_g.real, self.b_g.imag,
                   self.b_e.real, self.b_e.imag]
        _write_text(path, "t,re_bg0,im_bg0,re_be0,im_be0\n"
                    + _table(columns, ",".join([_CELL] * 5) + "\n"))


def _mode_weights(mode_grid: np.ndarray, rep, omega_0: float,
                  gamma: float) -> np.ndarray:
    """|G_j|^2 for discretized modes: (Gamma/2pi) numerator(w_j) |dw_j|.

    The grid may run either way but must be strictly monotonic: the exact
    post-pulse propagation brackets one eigenvalue between each pair of
    neighbouring mode frequencies, so they must be distinct.
    """
    _check_real(mode_grid, "mode grid with field back-reaction", "positive")
    steps = np.diff(mode_grid)
    if mode_grid.size < 2 or not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise DomainError(
            "field back-reaction needs at least two distinct mode "
            "frequencies in increasing or decreasing order"
        )
    dw = np.abs(np.gradient(mode_grid))
    num = np.asarray(numerator(rep, mode_grid, omega_0))
    return gamma / (2.0 * math.pi) * num * dw


def _secular_roots(delta: np.ndarray, weights: np.ndarray):
    """Real roots nu of nu = sum_k w_k / (nu - delta_k), all w_k > 0.

    With the delta_k distinct there is exactly one root below the smallest,
    one above the largest and one in each gap between neighbours: the
    right side falls from +inf to -inf across each gap while nu rises.
    Each root is sought as an offset s from its nearer pole, nu =
    delta[pole] + s, so that nu - delta_k = (delta[pole] - delta_k) + s
    keeps full relative accuracy even next to a pole.  Each step moves s
    to the root of the model a - b/s that matches the value and slope of
    the secular function at s (exact when that pole dominates); a step
    that leaves the bracket of the root bisects it instead.  Past the
    ends, |nu| <= max|delta_k| + sqrt(sum w_k) bounds the search.

    Returns the roots nu_j and the matrix nu_j - delta_k.
    """
    order = np.argsort(delta)
    d = delta[order]

    def secular(pole, s):
        inverse = 1.0 / ((delta[pole, None] - delta) + s[:, None])
        ratio = weights * inverse
        value = delta[pole] + s - ratio.sum(axis=1)
        return value, 1.0 + (ratio * inverse).sum(axis=1)

    # Which half of each gap holds its root decides the nearer pole.
    half = 0.5 * np.diff(d)
    left = secular(order[:-1], half)[0] >= 0.0
    pole = np.concatenate(([order[0]], np.where(left, order[:-1], order[1:]),
                           [order[-1]]))
    reach = math.sqrt(weights.sum())
    lo = np.concatenate(([-(abs(d[0]) + reach)], np.where(left, 0.0, -half),
                         [0.0]))
    hi = np.concatenate(([0.0], np.where(left, half, 0.0),
                         [abs(d[-1]) + reach]))
    s = 0.5 * (lo + hi)
    for _ in range(100):
        value, slope = secular(pole, s)
        step = s * value / (value + slope * s)
        # The model converges superlinearly: after a step this small the
        # remaining error is far below rounding.
        if np.all(np.abs(step) <= 1e-9 * np.abs(s)):
            s = s - step
            return delta[pole] + s, (delta[pole, None] - delta) + s[:, None]
        below = value < 0.0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        s = s - step
        inside = (s >= lo) & (s <= hi) & (s != 0.0)
        s = np.where(inside, s, 0.5 * (lo + hi))
    raise ConfigurationError("secular equation of the mode continuum did "
                             "not converge")


def _field_free_decay(b_e0: complex, beta0: np.ndarray, delta: np.ndarray,
                      weights: np.ndarray, times: np.ndarray):
    """Exact t >= 0 evolution of the atom coupled to its discretised modes.

    With the drive off the equations are b_e' = -sum_k w_k z_k and
    z_k' = i delta_k z_k + b_e in the rotating frame z_k = y_k e^{i
    delta_k t}.  Scaled to u_k = sqrt(w_k) z_k the generator is a
    skew-Hermitian arrowhead matrix with eigenvalues i nu_j
    (:func:`_secular_roots`) and eigenvectors (1, -i sqrt(w_k) / (nu_j -
    delta_k)), so

        b_e(t) = sum_j a_j e^{i nu_j t},
        a_j = (b_e0 + i sum_k w_k y_k(0) / (nu_j - delta_k))
              / (1 + sum_k w_k / (nu_j - delta_k)^2),

    and integrating y_k' = e^{-i delta_k t} b_e gives the mode amplitudes
    at the last time through :func:`_expm1_over`, stable at nu_j = delta_k.
    No step divides by sqrt(w_k).  Returns b_e at ``times`` and y_k at
    ``times[-1]``.
    """
    from ._ode import _phasor

    nu, detune = _secular_roots(delta, weights)
    ratio = weights / detune
    amp = (b_e0 + 1j * (ratio * beta0).sum(axis=1)) / (
        1.0 + (ratio / detune).sum(axis=1)
    )

    b_e = np.empty(len(times), dtype=complex)
    block = 64  # keeps the samples x roots temporaries small
    for i in range(0, len(times), block):
        phases = _phasor(np.multiply.outer(times[i:i + block], nu))
        b_e[i:i + block] = (phases * amp).sum(axis=1)
    horizon = times[-1]
    beta = beta0 - 1j * horizon * (
        amp[:, None] * _expm1_over(detune * horizon)
    ).sum(axis=0)
    return b_e, beta


def integrate_dynamics(
    config: PulseConfig,
    rep: GaugeRepresentation,
    omega_0: float,
    gamma: float,
    mode_grid=(),
    *,
    rwa: bool = True,
    include_field_during_pulse: bool = False,
) -> PulseTrajectory:
    """Integrate the coupled amplitude equations through the pulse window.

    Default behaviour matches the closed forms: the field does not react
    back on the atom during the pulse, and for t >= 0 the excited state
    follows the exponential-decay ansatz, so each reduced mode amplitude
    picks up the analytic Lorentzian tail.  With
    ``include_field_during_pulse`` the discretized modes are retained in
    the atom equations during the pulse, and afterwards the drive-free
    decay into them over [0, 8/Gamma] is propagated exactly from the
    eigen-decomposition of the atom-plus-modes system, a beyond-closed-form
    check.  The mode grid must then be strictly monotonic, in either
    direction.

    The drive is the rectangular pi-pulse of ``config`` on [-pi/Omega, 0],
    so the t >= 0 continuation starts where it ends.  ``gamma`` and
    ``omega_0`` must be finite and positive, the mode grid a finite 1-d
    array and each flag a bool.  The ODE settings are fixed: each phase is
    sampled at 401 times, and the in-package DOP853 pair (Hairer, Norsett &
    Wanner, Sec. II.4-II.6) steps the pulse window with ``rtol`` 1e-11 and
    ``atol`` 1e-13, as in scipy's ``solve_ivp``: each step's error estimate
    over ``atol + rtol * |y|`` has an RMS over atom and modes below 1.
    :mod:`lineshape._ode` steps this one system (its nfev and step counts
    go to ``ode_stats``); the modes are kept at the pulse's end only.  The
    post-pulse phase is exact to rounding.

    Modes enter only through their detunings unless back-reaction is on.
    """
    _check_scalar(gamma, "gamma")
    _check_scalar(omega_0, "omega_0")
    for name, flag in (("rwa", rwa),
                       ("include_field_during_pulse", include_field_during_pulse)):
        if not isinstance(flag, bool):
            raise DomainError(f"{name} must be True or False, got {flag!r}")
    from ._ode import _dop853  # here: other runs skip compiling the tableau
    if np.ndim(mode_grid) != 1:
        raise DomainError("mode grid must be a finite 1-d array")
    try:
        mode_grid = _check_real(mode_grid, "mode grid")
    except DomainError as exc:  # every fault of the grid names the one rule
        raise DomainError(f"mode grid must be a finite 1-d array ({exc})") from None
    delta_modes = omega_0 - mode_grid
    u_plus, u_minus = coupling_pair(rep, config.omega_l, omega_0)
    nmodes = len(mode_grid)
    back_reaction = include_field_during_pulse and nmodes > 0
    weights = (_mode_weights(mode_grid, rep, omega_0, gamma)
               if back_reaction else None)

    # The drive D(t) of the atom; without the RWA it keeps the u_plus path.
    half_rabi, i_delta_l = 0.5 * config.rabi, 1j * (omega_0 - config.omega_l)
    i_sum_l = 1j * (omega_0 + config.omega_l)

    def drive(t):
        down = half_rabi * u_minus * np.exp(i_delta_l * t)
        return down if rwa else down + half_rabi * u_plus * np.exp(i_sum_l * t)

    y0 = np.zeros(2 + nmodes, dtype=complex)
    y0[0] = 1.0
    start = -config.duration
    t_eval = np.linspace(start, 0.0, _SAMPLES)
    atom, beta_end, ode_stats = _dop853(drive, delta_modes, weights, start, 0.0,
                                        y0, t_eval, _RTOL, _ATOL)
    post_times = post_b_e = None
    if back_reaction:
        post_times = np.linspace(0.0, _HORIZON / gamma, _SAMPLES)
        post_b_e, beta_final = _field_free_decay(atom[1, -1], beta_end, delta_modes,
                                                 weights, post_times)
    else:
        # Exponential-decay continuation for t >= 0, integrated analytically.
        beta_final = beta_end + 1.0 / (1j * delta_modes + 0.5 * gamma)

    return PulseTrajectory(
        times=t_eval, b_g=atom[0], b_e=atom[1], mode_grid=mode_grid,
        beta_pulse_end=beta_end, beta_final=beta_final, rwa=rwa,
        include_field_during_pulse=include_field_during_pulse,
        post_times=post_times, post_b_e=post_b_e, ode_stats=ode_stats)


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
    _check_scalar(omega_0, "omega_0")
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
