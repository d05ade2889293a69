"""Cross-representation invariance suite.

Each check measures a residual against a stated tolerance and records the
physical identity it probes.  Expected-failure checks are first class:
the two-level total-shift comparison is *supposed* to disagree (the model
violates the oscillator-strength sum rule), and the recorded residual
documents why invariance needs complete intermediate-state sums.

All checks are deterministic; identical inputs produce byte-identical
serialized reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__ as _version
from .atoms import (
    build_oscillator,
    build_two_level,
    delta_offshell,
    gamma_onshell,
    lamb_shift,
    total_shift,
    trk_sum,
)
from .dynamics import _expm1_over, integrate_dynamics
from .errors import DomainError, _check_scalar
from .fluorescence import lamb_n_factor, n_factor
from .pulse import (
    PulseConfig,
    _drive,
    closed_form_amplitude,
    excited_amplitude_during_pulse,
    lorentzian_reference_spectrum,
    pulse_spectrum,
)
from .representations import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    GaugeRepresentation,
    coupling_pair,
)
from .spectra import LineshapeParams, lineshape_S, numerator

__all__ = [
    "CheckResult",
    "VerificationReport",
    "REQUIRED_CHECKS",
    "run_all_checks",
]

REPS = (COULOMB, POINCARE, SYMMETRIC, GaugeRepresentation.constant(0.3))

REQUIRED_CHECKS = (
    "gamma_invariance_oscillator",
    "gamma_invariance_two_level",
    "gamma_invariance_zero_dipole",
    "laser_free_reduction",
    "level_shift_closed_forms",
    "onshell_numerator_unity",
    "pulse_detuned_kernel",
    "pulse_ode_oracle",
    "pulse_pi_inversion",
    "pulse_resonant_reduction",
    "pulse_spectrum_assembly",
    "pulse_unitarity",
    "reference_lorentzian_closed_forms",
    "resonant_coupling_unity",
    "table_fluorescence_factor",
    "table_lineshape_numerator",
    "table_stimulated_decay_factor",
    "total_shift_invariance_oscillator",
    "total_shift_two_level_expected_fail",
    "trk_sum_oscillator",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    residual: float
    tolerance: float
    passed: bool
    claim: str
    expected_fail: bool = False

    @classmethod
    def measure(cls, name, description, residual, tolerance, claim,
                expected_fail=False) -> "CheckResult":
        residual = float(residual)
        return cls(
            name=name,
            description=description,
            residual=residual,
            tolerance=float(tolerance),
            passed=residual <= tolerance,
            claim=claim,
            expected_fail=expected_fail,
        )


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    environment: dict = field(default_factory=dict)

    def __post_init__(self):
        self.checks = sorted(self.checks, key=lambda c: c.name)

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.expected_fail)

    def to_json(self) -> str:
        payload = {
            "checks": [asdict(c) for c in self.checks],
            "environment": self.environment,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def table(self) -> str:
        lines = [f"{'check':40s} {'residual':>12s} {'tolerance':>12s}  status"]
        for c in self.checks:
            status = "XFAIL" if (c.expected_fail and not c.passed) else (
                "PASS" if c.passed else "FAIL"
            )
            lines.append(
                f"{c.name:40s} {c.residual:12.3e} {c.tolerance:12.3e}  {status}"
            )
        return "\n".join(lines)


# -- oracles: independent routes to what the library computes --------------

# The source paper's closed-form tables for the three named representations,
# with the arguments of numerator, n_factor and lamb_n_factor.
_NUMERATOR_TABLE = {
    "coulomb": lambda w, w0: w / w0,
    "poincare": lambda w, w0: (w / w0) ** 3,
    "symmetric": lambda w, w0: 4.0 * w**3 / (w0 * (w0 + w) ** 2),
}
_FLUORESCENCE_TABLE = {
    "coulomb": lambda w0, weg: weg / w0,
    "poincare": lambda w0, weg: (w0 / weg) ** 3,
    "symmetric": lambda w0, weg: 16.0 * weg * w0**3 / (weg + w0) ** 4,
}
_STIMULATED_DECAY_TABLE = {
    "coulomb": lambda w0, w, wp: ((w + wp - w0) / wp) * (w**2 / w0**2),
    "poincare": lambda w0, w, wp: ((w + wp - w0) / wp) ** 3,
    "symmetric": lambda w0, w, wp: (
        4.0 * (w + wp - w0) ** 3 / (wp * (w + 2.0 * wp - w0) ** 2)
    ) * (4.0 * w**2 / (w + w0) ** 2),
}


def _onshell_rates(model, upper: str, lower: str) -> list[float]:
    """The golden-rule rate of upper -> lower by every route but
    :func:`gamma_onshell`'s: the momentum route e^2 |p|^2 w/(3 pi m^2),
    then the dipole route w^3 |d|^2 u_minus(w)^2/(3 pi) with each REPS
    member's on-shell coupling from coupling_pair."""
    w = model.omega(upper, lower)
    p, d = model.momentum(lower, upper), model.dipole(lower, upper)
    return [model.charge**2 * p**2 * w / (3 * math.pi * model.mass**2),
            *(w**3 * d**2 * coupling_pair(rep, w, w).u_minus**2 / (3 * math.pi)
              for rep in REPS)]


def _coupling_ratio(rep, w, w0):
    """u_minus(w)^2 / u_minus(w0)^2 from the coupling_pair construction."""
    u = np.asarray(coupling_pair(rep, w, w0).u_minus)
    return u**2 / coupling_pair(rep, w0, w0).u_minus ** 2


def _built_numerator(rep, w, w0):
    """Mode density times squared rotating coupling, over its on-shell value."""
    return (w**2 / w0**2) * _coupling_ratio(rep, w, w0)


def _built_fluorescence_factor(rep, w0, weg):
    """Off-shell width, squared absorption coupling and the 1/omega_0 flux."""
    return _built_numerator(rep, w0, weg) * _coupling_ratio(rep, w0, weg) * (
        weg / w0
    )


def _built_stimulated_decay_factor(rep, w0, w, wp):
    """Off-shell cascade width at the emitted frequency, squared absorption
    coupling on the driven transition and the omega/omega_0 flux."""
    return _built_numerator(rep, w + wp - w0, wp) * _coupling_ratio(
        rep, w0, w
    ) * (w / w0)


def _oracle_residual(route, table, built, *args) -> float:
    """Largest relative deviation of a library factor from the closed-form
    table (named kinds) and from the coupling_pair construction (all REPS)."""
    worst = 0.0
    for rep in REPS:
        got = np.asarray(route(rep, *args))
        oracles = [built(rep, *args)]
        if rep.kind in table:
            oracles.append(table[rep.kind](*args))
        for want in oracles:
            worst = _worst(worst, np.max(np.abs(got - want) / want))
    return worst


def _shift_terms(model, state: str, route: str, rep=None, omega=0.0):
    """(coefficient, pole, g) of each transition's PV int_0^cutoff
    g(w)/(pole - w) dw in a level shift, with g the unexpanded integrand:
    ``route`` "lamb" (:func:`lamb_shift`), "coulomb" or "poincare"
    (:func:`total_shift` without the diagonal term) or "offshell"
    (:func:`delta_offshell` of ``rep`` at ``omega``, through coupling_pair)."""
    e2, mass = model.charge**2, model.mass
    for tr in model.transitions_from(state):
        p2 = model.momentum(tr.label, state) ** 2
        if route == "lamb":
            yield -e2 * tr.omega * p2 / (6 * math.pi**2 * mass**2), -tr.omega, np.ones_like
        elif route == "coulomb":
            yield e2 * p2 / (6 * math.pi**2 * mass**2), -tr.omega, lambda w: w
        elif route == "poincare":
            yield -tr.dipole**2 * tr.omega / (6 * math.pi**2), -tr.omega, np.square
        else:
            w0, down = abs(tr.omega), tr.omega < 0.0

            def g(w, w0=w0, down=down):
                pair = coupling_pair(rep, np.where(w > 0.0, w, 1.0), w0)
                u = pair.u_minus if down else pair.u_plus
                return np.where(w > 0.0, w * w * u * u, 0.0)  # -> 0 as w -> 0+

            yield w0 * tr.dipole**2 / (6 * math.pi**2), omega - model.energy(tr.label), g


def _shift_integrand(model, state: str, route: str, w):
    """Per-mode integrand of :func:`total_shift` on ``route`` ("coulomb" or
    "poincare"): c g(w)/(pole - w) summed over :func:`_shift_terms`, plus
    on the Coulomb route the diagonal A^2 term e^2 w/(12 pi^2 m)."""
    terms = _shift_terms(model, state, route)
    total = sum(c * g(w) / (pole - w) for c, pole, g in terms)
    if route == "coulomb":
        total = total + model.charge**2 * w / (12 * math.pi**2 * model.mass)
    return total


def _resonant_amplitude(omega_k, rabi: float, omega_0: float, gamma: float):
    """Reduced emission amplitude for a resonant pi-pulse, evaluated from
    its simplified form (an independent route to
    :func:`~lineshape.pulse.closed_form_amplitude` at zero laser detuning).

    Pulse term: 2 (Omega e^{i pi delta_k / Omega} - 2 i delta_k)
    / (Omega^2 - 4 delta_k^2), with exact handling of delta_k = +/- Omega/2.
    """
    omega_k = np.asarray(omega_k, dtype=float)
    delta_k = omega_0 - omega_k

    tail = 1.0 / (1j * delta_k + 0.5 * gamma)
    term = np.empty(delta_k.shape, dtype=complex)
    d_plus = delta_k - 0.5 * rabi
    d_minus = delta_k + 0.5 * rabi
    near_p = np.abs(d_plus) < 0.25 * rabi
    near_m = np.logical_and(np.abs(d_minus) < 0.25 * rabi, ~near_p)
    direct = ~(near_p | near_m)
    if np.any(near_p):
        d = d_plus[near_p]
        term[near_p] = -(
            1j * math.pi * _expm1_over(math.pi * d / rabi) - 2j
        ) / (2.0 * (rabi + d))
    if np.any(near_m):
        d = d_minus[near_m]
        term[near_m] = (
            -1j * math.pi * _expm1_over(math.pi * d / rabi) - 2j
        ) / (2.0 * (rabi - d))
    if np.any(direct):
        d = delta_k[direct]
        term[direct] = (
            2.0 * (rabi * np.exp(1j * math.pi * d / rabi) - 2j * d)
            / (rabi**2 - 4.0 * d**2)
        )
    out = tail + (-1j) * term
    return out if out.ndim else complex(out)


def _reduced_kernel(P, theta: float):
    """[exp(iP) - cos(theta) - i (P/theta) sin(theta)] / (theta^2 - P^2).

    The zeros of the denominator at P = +/- theta are removable; near them
    the expression is evaluated through an exact factorization (no series
    truncation), so the result is smooth to machine precision across the
    whole line.
    """
    P = np.asarray(P, dtype=float)
    out = np.empty(P.shape, dtype=complex)
    sin_term = 1j * math.sin(theta) / theta
    d_plus = P - theta
    d_minus = P + theta
    near_p = np.abs(d_plus) < 0.5 * theta
    near_m = np.logical_and(np.abs(d_minus) < 0.5 * theta, ~near_p)
    direct = ~(near_p | near_m)
    if np.any(near_p):
        eps = d_plus[near_p]
        out[near_p] = -(
            np.exp(1j * theta) * _expm1_over(eps) - sin_term
        ) / (2.0 * theta + eps)
    if np.any(near_m):
        eps = d_minus[near_m]
        out[near_m] = (
            np.exp(-1j * theta) * _expm1_over(eps) - sin_term
        ) / (2.0 * theta - eps)
    if np.any(direct):
        p = P[direct]
        out[direct] = (
            np.exp(1j * p) - math.cos(theta) - sin_term * p
        ) / ((theta - p) * (theta + p))
    return out


def _detuned_amplitude(omega_k, config: PulseConfig, rep, omega_0: float,
                       gamma: float):
    """Reduced emission amplitude for general laser detuning, in complex
    arithmetic with a three-branch kernel (an independent route to
    :func:`~lineshape.pulse.closed_form_amplitude`, which evaluates the
    same expression branch-free in real arithmetic)."""
    omega_k = np.asarray(omega_k, dtype=float)
    delta_k = omega_0 - omega_k
    u_l, delta_l, mu = _drive(config, rep, omega_0)
    T = config.duration

    tail = 1.0 / (1j * delta_k + 0.5 * gamma)
    theta = 0.5 * mu * T
    P = 0.5 * (2.0 * delta_k - delta_l) * T
    pulse = (
        -1j
        * 2.0
        * config.rabi
        * u_l
        * np.exp(-0.5j * delta_l * T)
        * (T**2 / 4.0)
        * _reduced_kernel(P, theta)
    )
    return tail + pulse


# -- individual checks -------------------------------------------------------


def _worst(*residuals) -> float:
    """The largest residual, or nan (which the builtin max can drop)."""
    return float(np.max(residuals))


def _rel_spread(values) -> float:
    values = np.asarray(values, dtype=float)
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return 0.0
    return float((np.max(values) - np.min(values)) / scale)


def check_gamma_invariance() -> list[CheckResult]:
    claim = ("the energy-conserving golden-rule decay rate is the same in "
             "every representation")
    two = build_two_level(1.0, 1.0)
    osc = build_oscillator(1.0, 1.0, 5)
    zero = build_two_level(1.0, 0.0)
    return [
        CheckResult.measure(
            "gamma_invariance_two_level",
            "on-shell decay rate of a two-level atom across representations",
            _rel_spread([gamma_onshell(two, "e", "g"), *_onshell_rates(two, "e", "g")]),
            1e-12,
            claim,
        ),
        CheckResult.measure(
            "gamma_invariance_oscillator",
            "on-shell decay rate of the oscillator 1->0 transition",
            _rel_spread([gamma_onshell(osc, "1", "0"), *_onshell_rates(osc, "1", "0")]),
            1e-12,
            claim,
        ),
        CheckResult.measure(
            "gamma_invariance_zero_dipole",
            "zero dipole gives zero rate on every route",
            _worst(*map(abs, [gamma_onshell(zero, "e", "g"),
                              *_onshell_rates(zero, "e", "g")])),
            1e-15,
            claim,
        ),
    ]


def check_total_shift_invariance(cutoffs=(100.0, 1000.0)) -> list[CheckResult]:
    osc = build_oscillator(1.0, 1.0, 5)
    two = build_two_level(1.0, 1.0)
    residual = 0.0
    poles = [pole for _, pole, _ in _shift_terms(osc, "1", "coulomb")]
    for cutoff in cutoffs:
        modes = np.geomspace(1e-2, cutoff, 160)
        modes = modes[~np.isin(modes, poles)]  # a node on a pole diverges
        c = _shift_integrand(osc, "1", "coulomb", modes)
        p = _shift_integrand(osc, "1", "poincare", modes)
        floor = 1e-3 * np.max(np.abs(p))
        denom = np.maximum(np.maximum(np.abs(c), np.abs(p)), floor)
        residual = _worst(residual, np.max(np.abs(c - p) / denom))
    modes = np.geomspace(1e-2, 100.0, 160)
    modes = modes[np.abs(modes - 1.0) > 0.05]
    c2 = _shift_integrand(two, "e", "coulomb", modes)
    p2 = _shift_integrand(two, "e", "poincare", modes)
    denom2 = np.maximum(np.abs(c2), np.abs(p2))
    two_level_residual = float(np.max(np.abs(c2 - p2) / denom2))
    # The sum rule on every oscillator level with both neighbours (the top
    # one lacks its upward term), and the two-level value -omega |r|^2.
    half_over_mass = 0.5 / osc.mass
    trk_residual = _worst(*(abs(trk_sum(osc, level.label) / half_over_mass - 1.0)
                            for level in osc.levels if level.label != osc.top))
    two_level_trk = -two.omega("e", "g") * (two.dipole("e", "g") / two.charge) ** 2
    trk_residual = _worst(trk_residual, abs(trk_sum(two, "e") / two_level_trk - 1.0))
    return [
        CheckResult.measure(
            "trk_sum_oscillator",
            "oscillator-strength sum on the oscillator levels below the top vs "
            "1/(2m), and on the two-level excited state vs -omega |r|^2",
            trk_residual,
            1e-14,
            "the oscillator ladder saturates the TRK sum rule, the condition "
            "for total-shift invariance; the two-level atom leaves it negative",
        ),
        CheckResult.measure(
            "total_shift_invariance_oscillator",
            "per-mode total-shift integrand, momentum route vs dipole route, "
            "sum-rule-saturating ladder",
            residual,
            1e-10,
            "with the diagonal term included, the total level shift is "
            "representation independent whenever the oscillator-strength "
            "sum rule holds",
        ),
        CheckResult.measure(
            "total_shift_two_level_expected_fail",
            "same comparison on a two-level atom (sum rule violated); the "
            "nonzero residual is the documented expectation",
            two_level_residual,
            1e-10,
            "truncating the intermediate-state sum breaks shift invariance",
            expected_fail=True,
        ),
    ]


def check_level_shifts() -> list[CheckResult]:
    from .quadrature import pv_quad  # the oracle; the library never loads it

    two, osc = build_two_level(1.0, 1.0), build_oscillator(1.0, 1.0, 5)

    def quadrature(cutoff, *terms_args, diagonal=0.0):
        return diagonal + sum(c * pv_quad(g, pole, 0.0, cutoff)
                              for c, pole, g in _shift_terms(*terms_args))

    pairs = [(lamb_shift(two, "e", cutoff), quadrature(cutoff, two, "e", "lamb"))
             for cutoff in (10.0, 1e3, 1e5)]
    diagonal = 1e3 * 1e3 / (24 * math.pi**2)  # e^2 cutoff^2/(24 pi^2 m)
    pairs += [(total_shift(two, "e", COULOMB, 1e3),
               quadrature(1e3, two, "e", "coulomb", diagonal=diagonal)),
              (total_shift(two, "e", POINCARE, 1e3),
               quadrature(1e3, two, "e", "poincare"))]
    # The poles are at 1.3, inside the range; for the custom kind, whose
    # upward channels differ in sign, oscillator level 1 adds one at -0.7.
    pairs += [(delta_offshell(1.3, model, rep, 100.0, state),
               quadrature(100.0, model, state, "offshell", rep, 1.3))
              for rep in REPS
              for model, state in [(osc, "1") if rep.kind == "custom" else (two, "e")]]
    return [CheckResult.measure(
        "level_shift_closed_forms",
        "lamb_shift at cutoffs 10 to 1e5, both total_shift routes and "
        "delta_offshell in four representations, closed form vs the "
        "Gauss-Legendre PV quadrature",
        _worst(*(abs(got - want) / abs(want) for got, want in pairs)),
        1e-14,
        "each level-shift principal value is Bethe's logarithm times g(p) "
        "minus a polynomial in the cutoff and the pole",
    )]


def check_table_consistency() -> list[CheckResult]:
    grid = np.linspace(0.05, 5.0, 1000)
    out = []

    out.append(CheckResult.measure(
        "table_lineshape_numerator",
        "lineshape numerator vs the closed-form table and the "
        "mode-density-times-coupling construction on a 1000-point grid",
        _oracle_residual(numerator, _NUMERATOR_TABLE, _built_numerator,
                         grid, 1.0),
        1e-12,
        "the emission numerator is w/w0, (w/w0)^3 and "
        "4w^3/(w0(w0+w)^2) on the three named routes",
    ))

    residual = _oracle_residual(n_factor, _FLUORESCENCE_TABLE,
                                _built_fluorescence_factor, grid, 1.0)
    for rep in REPS:
        residual = _worst(residual, abs(n_factor(rep, 1.0, 1.0) - 1.0))
    out.append(CheckResult.measure(
        "table_fluorescence_factor",
        "fluorescence factor vs the closed-form table and the damped-rate "
        "construction, plus unity on resonance",
        residual,
        1e-12,
        "the fluorescence factor equals 1 exactly on resonance in every "
        "representation",
    ))

    omega, omega_prime = 1.0, 1000.0
    sweep = np.linspace(0.2, 4.0, 400)
    residual = _oracle_residual(lamb_n_factor, _STIMULATED_DECAY_TABLE,
                                _built_stimulated_decay_factor, sweep, omega,
                                omega_prime)
    for rep in REPS:
        residual = _worst(
            residual, abs(lamb_n_factor(rep, omega, omega, omega_prime) - 1.0))
    out.append(CheckResult.measure(
        "table_stimulated_decay_factor",
        "stimulated-decay factor vs the closed-form table and the "
        "constituent construction, plus unity on resonance",
        residual,
        1e-12,
        "the stimulated-decay factor equals 1 exactly when the drive sits "
        "on the driven splitting",
    ))

    residual = 0.0
    for rep in REPS:
        residual = _worst(residual, abs(numerator(rep, 1.0, 1.0) - 1.0),
                          abs(numerator(rep, 0.7, 0.7) - 1.0))
    out.append(CheckResult.measure(
        "onshell_numerator_unity",
        "numerator equals 1 on shell for every representation",
        residual,
        1e-12,
        "on-shell matrix elements are gauge invariant, so every numerator "
        "is normalized to 1 at the transition frequency",
    ))
    return out


def check_ode_oracle() -> list[CheckResult]:
    omega_0, rabi, gamma, rep = 1.0, 1.0, 0.1, SYMMETRIC
    config = PulseConfig(rabi=rabi, omega_l=omega_0)
    modes = omega_0 - np.linspace(-5.0 * rabi, 5.0 * rabi, 81)
    traj = integrate_dynamics(config, rep, omega_0, gamma, modes)

    closed_traj = excited_amplitude_during_pulse(traj.times, config, rep, omega_0)
    traj_residual = float(np.max(np.abs(traj.b_e - closed_traj)))

    beta_closed = closed_form_amplitude(modes, config, rep, omega_0, gamma)
    beta_residual = float(
        np.max(np.abs(traj.beta_final - beta_closed) / np.abs(beta_closed))
    )

    delta_grid = (np.arange(0, 1001) - 500) / 100.0 * rabi  # hits +/- rabi/2
    wk = omega_0 - delta_grid
    general = closed_form_amplitude(wk, config, rep, omega_0, gamma)
    reduced = _resonant_amplitude(wk, rabi, omega_0, gamma)
    reduction_residual = float(
        np.max(np.abs(general - reduced) / np.abs(reduced))
    )

    # Detuned drives: the removable points sit at delta_k = (delta_l +/- mu)/2.
    detuned_residual = 0.0
    for omega_l, drive_rep in ((0.8, rep), (0.9, rep),
                               (0.9, GaugeRepresentation.constant(0.4))):
        drive = PulseConfig(rabi=rabi, omega_l=omega_l * omega_0)
        _, delta_l, mu = _drive(drive, drive_rep, omega_0)
        removable = omega_0 - 0.5 * (delta_l + np.array([-mu, mu]))
        wk = np.concatenate((np.linspace(0.2, 1.9, 1001) * omega_0,
                             removable, removable * (1.0 + 1e-9)))
        got = closed_form_amplitude(wk, drive, drive_rep, omega_0, gamma)
        want = _detuned_amplitude(wk, drive, drive_rep, omega_0, gamma)
        detuned_residual = _worst(
            detuned_residual, np.max(np.abs(got - want) / np.abs(want)))
    # The last drive's spectrum on its increasing 1001 points, assembled
    # from the numerator and the three-branch kernel's amplitude.
    points, beta = wk[:1001], want[:1001]
    assembled = numerator(drive_rep, points, omega_0) * (gamma / (2.0 * math.pi)) * (
        beta.real**2 + beta.imag**2)
    spectrum_residual = float(np.max(np.abs(
        pulse_spectrum(drive, drive_rep, omega_0, gamma, points).values / assembled
        - 1.0)))

    inversion_residual = abs(abs(traj.b_e[-1]) - 1.0)
    unitarity_residual = float(
        np.max(np.abs(np.abs(traj.b_g) ** 2 + np.abs(traj.b_e) ** 2 - 1.0))
    )

    params = LineshapeParams(rep=rep, omega_eg=omega_0, gamma=gamma)
    grid = np.linspace(0.1, 3.0, 300)
    bare = lineshape_S(params, grid)
    # The pulse spectrum's tail term alone: (Gamma/2pi)|tail|^2 is the
    # reference Lorentzian.
    laser_free = numerator(rep, grid, omega_0) * lorentzian_reference_spectrum(
        omega_0, gamma, grid).values
    reduction_bits = float(np.max(np.abs(laser_free - bare.values)))

    coupling_residual = _worst(*(
        abs(coupling_pair(r, omega_0, omega_0).u_minus - 1.0) for r in REPS))

    return [
        CheckResult.measure(
            "pulse_ode_oracle",
            "integrated amplitude dynamics vs closed forms (trajectory and "
            "long-time mode amplitudes)",
            _worst(traj_residual, beta_residual),
            1e-6,
            "the closed-form pulse amplitudes solve the driven two-level "
            "equations",
        ),
        CheckResult.measure(
            "pulse_resonant_reduction",
            "general-detuning amplitude vs its resonant simplification on a "
            "grid through the removable singularities",
            reduction_residual,
            1e-12,
            "at zero laser detuning the general emission amplitude reduces "
            "to the resonant form",
        ),
        CheckResult.measure(
            "pulse_detuned_kernel",
            "general-detuning amplitude, branch-free real-arithmetic kernel "
            "vs three-branch complex kernel, for detuned drives on grids "
            "through both removable singularities",
            detuned_residual,
            1e-12,
            "the emission amplitude stays exact through the removable "
            "singularity locus for any laser detuning",
        ),
        CheckResult.measure(
            "pulse_spectrum_assembly",
            "pulse_spectrum for a detuned drive vs numerator * Gamma/2pi * "
            "|beta|^2 with beta from the three-branch complex kernel, 1001 "
            "points",
            spectrum_residual,
            1e-13,
            "the emission spectrum after the pulse is the representation's "
            "numerator times the squared reduced amplitude",
        ),
        CheckResult.measure(
            "pulse_pi_inversion",
            "population inversion after a resonant pi-pulse",
            inversion_residual,
            1e-9,
            "a resonant pi-pulse fully inverts the atom",
        ),
        CheckResult.measure(
            "pulse_unitarity",
            "norm conservation during the field-free pulse window",
            unitarity_residual,
            1e-9,
            "with spontaneous emission switched off during the pulse the "
            "atomic dynamics is unitary",
        ),
        CheckResult.measure(
            "laser_free_reduction",
            "pulse spectrum with the drive term dropped vs the plain "
            "emission lineshape (bitwise)",
            reduction_bits,
            0.0,
            "the Lorentzian tail term alone reproduces the undriven "
            "lineshape",
        ),
        CheckResult.measure(
            "resonant_coupling_unity",
            "drive coupling u_minus at zero detuning across representations",
            coupling_residual,
            1e-12,
            "on-resonance coupling is representation independent, so the "
            "drive itself carries no gauge dependence",
        ),
    ]


def check_reference_lorentzian() -> list[CheckResult]:
    # Binary fractions: omega_0 and omega_0 -/+ gamma/2 are the grid points
    # 448, 512 and 576 exactly, so their detunings carry no rounding.
    omega_0, gamma = 1.0, 0.125
    grid = np.linspace(0.5, 1.5, 1025)
    values = lorentzian_reference_spectrum(omega_0, gamma, grid).values
    peak = 2.0 / (math.pi * gamma)
    point_residual = float(np.max(np.abs(
        values[[448, 512, 576]] / np.array([0.5 * peak, peak, 0.5 * peak]) - 1.0)))
    lo, hi = grid[0], grid[-1]
    area = (math.atan(2.0 * (hi - omega_0) / gamma)
            - math.atan(2.0 * (lo - omega_0) / gamma)) / math.pi
    # (hi - lo) h^2/12 max|L''|, with |L''| largest at the peak: 16/(pi gamma^3).
    h = grid[1] - grid[0]
    bound = (hi - lo) * (h * h) / 12.0 * 16.0 / (math.pi * gamma * gamma * gamma)
    area_excess = _worst(0.0, abs(float(np.trapezoid(values, grid)) - area) - bound) / area
    return [CheckResult.measure(
        "reference_lorentzian_closed_forms",
        "reference Lorentzian vs literal formulas: the peak 2/(pi Gamma) at "
        "omega_0, half of it at omega_0 -/+ Gamma/2 (relative error), and the "
        "trapezoid area vs the arctan integral (relative excess over the "
        "trapezoid error bound)",
        _worst(point_residual, area_excess),
        1e-12,
        "the reference curve is the unit-area Lorentzian of full width Gamma "
        "at half maximum",
    )]


# The total-shift check squares modes from cutoff/10 to cutoff: both ends
# must be normal floats with finite squares.
_CUTOFF_RANGE = (10.0 * np.finfo(float).tiny, math.sqrt(np.finfo(float).max))


def run_all_checks(cutoff: float = 1000.0) -> VerificationReport:
    """Run the full invariance suite and assemble the report."""
    _check_scalar(cutoff, "cutoff")
    if not _CUTOFF_RANGE[0] <= cutoff <= _CUTOFF_RANGE[1]:
        raise DomainError("cutoff must lie in [%.3g, %.3g] for verify, whose mode "
                          "grid runs from cutoff/10 to cutoff and squares each mode"
                          % _CUTOFF_RANGE)
    checks = []
    checks += check_gamma_invariance()
    checks += check_total_shift_invariance((cutoff / 10.0, cutoff))
    checks += check_level_shifts()
    checks += check_table_consistency()
    checks += check_ode_oracle()
    checks += check_reference_lorentzian()
    env = {
        "cutoff": cutoff,
        "package_version": _version,
        "representations": [r.name for r in REPS],
        "numerator_grid": [0.05, 5.0, 1000],
        "mode_comparison_points": 160,
        "ode_modes": 81,
    }
    return VerificationReport(checks=checks, environment=env)
