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
expression in real arithmetic, two trig calls per point, serves the whole
line.  ``pulse_spectrum`` evaluates it through the blocked sweep of
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

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, _check_positive, _check_scalar
from .representations import GaugeRepresentation, coupling_pair
from .spectra import (
    DEFAULT_CUTOFF,
    Spectrum,
    _numerator,
    _sweep,
    _write_text,
    lorentzian_density,
    numerator,
)

__all__ = [
    "PulseConfig",
    "PulseTrajectory",
    "laser_coupling_pair",
    "excited_amplitude_during_pulse",
    "closed_form_amplitude",
    "integrate_dynamics",
    "pulse_spectrum",
    "lorentzian_reference_spectrum",
]


@dataclass(frozen=True)
class PulseConfig:
    """Laser drive parameters of the rectangular pi-pulse.

    The drive has constant amplitude ``rabi`` on the window [-pi/rabi, 0]
    and is off outside it; the closed forms and the integrated dynamics
    both assume this shape.  ``alpha_laser`` overrides the
    representation's mixing constant for the drive coupling only (None:
    derive it from the representation at the carrier frequency).
    """

    rabi: float
    omega_l: float
    alpha_laser: float | None = None

    def __post_init__(self):
        _check_scalar(self.rabi, "rabi")
        duration = math.pi / float(self.rabi)  # the closed forms square it
        if not math.isfinite(duration * duration):
            raise DomainError("rabi amplitude is too small: (pi/rabi)**2 overflows")
        _check_scalar(self.omega_l, "omega_l")
        if self.alpha_laser is not None:
            _check_scalar(self.alpha_laser, "alpha_laser", "finite")

    @property
    def duration(self) -> float:
        return math.pi / self.rabi


def laser_coupling_pair(config: PulseConfig, rep: GaugeRepresentation,
                        omega_0: float):
    """Drive couplings u_l(+/-) at the carrier frequency.

    On resonance u_minus equals 1 in every representation, so a resonant
    pulse drives identically no matter the gauge.
    """
    _check_scalar(omega_0, "omega_0")
    if config.alpha_laser is None:
        return coupling_pair(rep, config.omega_l, omega_0)
    a = config.alpha_laser
    down = math.sqrt(omega_0 / config.omega_l)
    up = math.sqrt(config.omega_l / omega_0)
    return (1.0 - a) * down - a * up, (1.0 - a) * down + a * up


# -- closed forms ------------------------------------------------------------


def _drive(config: PulseConfig, rep: GaugeRepresentation, omega_0: float):
    """Drive constants: coupling u_l, laser detuning delta_l and the
    generalised Rabi frequency mu = hypot(Omega u_l, delta_l)."""
    u_l = laser_coupling_pair(config, rep, omega_0)[1]
    delta_l = omega_0 - config.omega_l
    return u_l, delta_l, math.hypot(config.rabi * u_l, delta_l)


def excited_amplitude_during_pulse(t, config: PulseConfig,
                                   rep: GaugeRepresentation, omega_0: float):
    """Excited amplitude inside the rectangular pulse window.

    b_e(t) = -i (Omega u_l / mu) exp(i delta_l (t - pi/Omega)/2)
             sin((mu/2)(t + pi/Omega)),   -pi/Omega <= t <= 0.
    """
    t_arr = np.asarray(t, dtype=float)
    T = config.duration
    # min and max are NaN if any time is, which then fails the test.
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


def _kernel_parts(P, theta: float):
    """Real and imaginary parts of the pulse-window kernel K(P) of
    :func:`closed_form_amplitude`, branch-free through P = +/- theta."""
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    q = np.abs(P)
    h = 0.5 * (q - theta)
    sin_h, cos_h = np.sin(h), np.cos(h)
    s = np.divide(sin_h, h, out=np.ones_like(h), where=h != 0.0)
    inv = 1.0 / (theta + q)
    k_re = s * (sin_h * cos_t + cos_h * sin_t) * inv
    k_im = (sin_t / theta - s * (cos_h * cos_t - sin_h * sin_t)) * inv
    return k_re, k_im * np.sign(P)  # K(-P) = conj K(P); Im K(0) = 0


def _amplitude_parts(delta_k, config: PulseConfig, drive, gamma: float):
    """Real and imaginary parts of the reduced emission amplitude at the
    mode detunings ``delta_k``, for a ``gamma`` already checked and the
    constants ``drive`` of :func:`_drive`.

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
    k_re, k_im = _kernel_parts(T * delta_k - 0.5 * delta_l * T, 0.5 * mu * T)

    d = delta_k * delta_k + 0.25 * gamma * gamma
    re = 0.5 * gamma / d + z_re * k_re - z_im * k_im
    im = z_re * k_im + z_im * k_re - delta_k / d
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
    needs no branch, and each point costs two real trig calls.  Only the
    detuning of ``omega_k`` enters here, so ``omega_k`` may take either
    sign but must be finite (its largest magnitude is NaN if any element
    is).  Scalar in, scalar out; arrays keep their shape.
    """
    _check_scalar(gamma, "gamma")
    _check_scalar(omega_0, "omega_0")
    omega_k = np.asarray(omega_k, dtype=float)
    _check_scalar(np.abs(omega_k).max(initial=0.0), "omega_k", "finite")
    drive = _drive(config, rep, omega_0)
    re, im = _amplitude_parts(omega_0 - omega_k, config, drive, gamma)
    out = re + 1j * im
    return out if np.ndim(out) else complex(out)


# -- integrated dynamics -----------------------------------------------------


@dataclass
class PulseTrajectory:
    """Sampled amplitudes over the pulse window plus long-time mode output."""

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

    def to_csv(self, path) -> None:
        """Dump the atomic amplitudes: t,re_bg0,im_bg0,re_be0,im_be0."""
        rows = ["t,re_bg0,im_bg0,re_be0,im_be0"]
        for t, g, e in zip(self.times, self.b_g, self.b_e):
            rows.append(
                ",".join(
                    f"{v:.17g}" for v in (t, g.real, g.imag, e.real, e.imag)
                )
            )
        _write_text(path, "\n".join(rows) + "\n")


def _mode_weights(mode_grid: np.ndarray, rep, omega_0: float,
                  gamma: float) -> np.ndarray:
    """|G_j|^2 for discretized modes: (Gamma/2pi) numerator(w_j) |dw_j|.

    The grid may run either way but must be strictly monotonic: the exact
    post-pulse propagation brackets one eigenvalue between each pair of
    neighbouring mode frequencies, so they must be distinct.
    """
    _check_positive(mode_grid, "mode grid with field back-reaction")
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
    nu, detune = _secular_roots(delta, weights)
    ratio = weights / detune
    amp = (b_e0 + 1j * (ratio * beta0).sum(axis=1)) / (
        1.0 + (ratio / detune).sum(axis=1)
    )

    b_e = np.empty(len(times), dtype=complex)
    block = 64  # keeps the samples x roots temporaries small
    for i in range(0, len(times), block):
        phases = np.exp(1j * np.multiply.outer(times[i:i + block], nu))
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
    samples: int = 401,
    rtol: float = 1e-11,
    atol: float = 1e-13,
    post_horizon: float | None = None,
) -> PulseTrajectory:
    """Integrate the coupled amplitude equations through the pulse window.

    Default behaviour matches the closed forms: the field does not react
    back on the atom during the pulse, and for t >= 0 the excited state
    follows the exponential-decay ansatz, so each reduced mode amplitude
    picks up the analytic Lorentzian tail.  With
    ``include_field_during_pulse`` the discretized modes are retained in
    the atom equations during the pulse, and afterwards the drive-free
    decay into them (``post_horizon``, default 8/Gamma, sampled at
    ``samples`` times) is propagated exactly from the eigen-decomposition
    of the atom-plus-modes system, a beyond-closed-form check.  The mode
    grid must then be strictly monotonic, in either direction.

    The drive is the rectangular pi-pulse of ``config`` on [-pi/Omega, 0],
    so the t >= 0 continuation starts where it ends.  ``gamma`` and
    ``omega_0`` must be finite and positive.  ``samples`` must be a whole
    number of at least 2: the first sample is the pulse start and the last
    the pulse end.  The mode grid must be a finite 1-d array and a given
    ``post_horizon`` finite and positive.
    The in-package DOP853 pair (Hairer, Norsett & Wanner, Sec. II.4-II.6)
    steps the pulse window.  ``rtol`` and ``atol``, finite and positive,
    mean what they mean in scipy's ``solve_ivp``: each step's error
    estimate over ``atol + rtol * |y|`` has an RMS over components below
    1; tolerances that cannot be met raise ``ConfigurationError``.  They
    govern the pulse window only; the post-pulse phase is exact to rounding.

    Modes enter only through their detunings unless back-reaction is on.
    """
    _check_scalar(gamma, "gamma")
    _check_scalar(omega_0, "omega_0")
    if (isinstance(samples, bool) or not isinstance(samples, numbers.Real)
            or not float(samples).is_integer() or samples < 2):
        raise DomainError(
            f"samples must be a whole number of at least 2, got {samples!r}"
        )
    samples = int(samples)
    from ._ode import _dop853  # here: other runs skip compiling the tableau
    _check_scalar(rtol, "rtol")
    _check_scalar(atol, "atol")
    if post_horizon is not None:
        _check_scalar(post_horizon, "post_horizon")
    mode_grid = np.asarray(mode_grid, dtype=float)
    if mode_grid.ndim != 1 or not np.all(np.isfinite(mode_grid)):
        raise DomainError("mode grid must be a finite 1-d array")
    delta_modes = omega_0 - mode_grid
    u_plus, u_minus = laser_coupling_pair(config, rep, omega_0)
    nmodes = len(mode_grid)
    back_reaction = include_field_during_pulse and nmodes > 0
    weights = (_mode_weights(mode_grid, rep, omega_0, gamma)
               if back_reaction else None)

    # Constants of the right-hand side, hoisted out of its per-call path.
    size = 2 + nmodes
    rwa_drive = 0.5 * u_minus * config.rabi
    half_rabi = 0.5 * config.rabi
    i_delta_l = 1j * (omega_0 - config.omega_l)
    i_omega_l = 1j * config.omega_l
    i_omega_0 = 1j * omega_0
    minus_i_delta = -1j * delta_modes

    def rhs(t, y):
        b_g, b_e = y[0], y[1]
        dy = np.empty(size, dtype=complex)
        if rwa:
            drive = rwa_drive * cmath.exp(i_delta_l * t)
            dy[0] = -1j * drive.conjugate() * b_e
            dy[1] = -1j * drive * b_g
        else:
            phase_l = cmath.exp(i_omega_l * t)
            up = (half_rabi * (u_plus * phase_l + u_minus / phase_l)
                  * cmath.exp(i_omega_0 * t))
            dy[0] = -1j * up.conjugate() * b_e
            dy[1] = -1j * up * b_g
        if nmodes:
            osc = np.exp(minus_i_delta * t)
            np.multiply(osc, b_e, out=dy[2:])
            if back_reaction:
                dy[1] -= np.vdot(osc, weights * y[2:])
        return dy

    y0 = np.zeros(size, dtype=complex)
    y0[0] = 1.0
    start = -config.duration
    t_eval = np.linspace(start, 0.0, samples)
    y, _ = _dop853(rhs, start, 0.0, y0, t_eval, rtol, atol)

    beta_end = y[2:, -1] if nmodes else np.zeros(0, dtype=complex)
    post_times = post_b_e = None
    if back_reaction:
        horizon = post_horizon if post_horizon is not None else 8.0 / gamma
        post_times = np.linspace(0.0, horizon, samples)
        post_b_e, beta_final = _field_free_decay(
            y[1, -1], beta_end, delta_modes, weights, post_times
        )
    else:
        # Exponential-decay continuation for t >= 0, integrated analytically.
        beta_final = beta_end + 1.0 / (1j * delta_modes + 0.5 * gamma)

    return PulseTrajectory(
        times=t_eval,
        b_g=y[0],
        b_e=y[1],
        mode_grid=mode_grid,
        beta_pulse_end=beta_end,
        beta_final=beta_final,
        rwa=rwa,
        include_field_during_pulse=include_field_during_pulse,
        post_times=post_times,
        post_b_e=post_b_e,
    )


# -- spectra -----------------------------------------------------------------


def pulse_spectrum(
    config: PulseConfig,
    rep: GaugeRepresentation,
    omega_0: float,
    gamma: float,
    grid,
    *,
    include_laser: bool = True,
) -> Spectrum:
    """Emission spectrum after the pulse.

    S(w) = numerator(rep, w, omega_0) * (Gamma/2pi) * |beta(w)|^2 with beta
    the reduced amplitude of :func:`closed_form_amplitude`, evaluated and
    checked by the blocked sweep of :mod:`lineshape.spectra`.  With
    ``include_laser=False`` the pulse-window term is dropped and the
    spectrum reduces, bit for bit, to the plain emission lineshape.
    """
    _check_scalar(gamma, "gamma")
    _check_scalar(omega_0, "omega_0")
    drive = _drive(config, rep, omega_0)
    if include_laser:
        def kernel(w):
            re, im = _amplitude_parts(omega_0 - w, config, drive, gamma)
            return _numerator(rep, w / omega_0) * (
                gamma / (2.0 * math.pi)) * (re * re + im * im)
    else:
        def kernel(w):
            return _numerator(rep, w / omega_0) * lorentzian_density(
                w - omega_0, gamma)
    meta = {
        "representation": rep.name,
        "gamma": gamma,
        "omega_eg": omega_0,
        "lamb_shift": 0.0,
        "cutoff": DEFAULT_CUTOFF,
        "rabi": config.rabi,
        "delta_l": omega_0 - config.omega_l,
        "include_laser": include_laser,
        "kind": "pulse",
    }
    spectrum = _sweep(grid, "spectrum grid", kernel, meta)
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
    D = (config.rabi * u_l) ** 2 + 4.0 * delta_k * (delta_l - delta_k)
    return bool(np.any(D <= 0.0))


def lorentzian_reference_spectrum(omega_0: float, gamma: float, grid) -> Spectrum:
    """Bare Lorentzian (Gamma/2pi)/(delta_k^2 + Gamma^2/4) as a reference curve."""
    _check_scalar(gamma, "gamma")
    _check_scalar(omega_0, "omega_0")
    meta = {
        "representation": "lorentzian",
        "gamma": gamma,
        "omega_eg": omega_0,
        "lamb_shift": 0.0,
        "cutoff": DEFAULT_CUTOFF,
        "kind": "reference",
    }
    return _sweep(grid, "spectrum grid",
                  lambda w: lorentzian_density(w - omega_0, gamma), meta)
