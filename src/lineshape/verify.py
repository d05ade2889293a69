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
from .atoms import build_oscillator, build_two_level
from .errors import DomainError
from .fluorescence import lamb_n_factor, n_factor
from .pulse import (
    PulseConfig,
    _drive,
    _expm1_over,
    closed_form_amplitude,
    excited_amplitude_during_pulse,
    integrate_dynamics,
    pulse_spectrum,
)
from .representations import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    GaugeRepresentation,
    coupling_pair,
)
from .spectra import (
    LineshapeParams,
    gamma_onshell,
    lineshape_S,
    numerator,
    total_shift_integrand,
)

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
    "onshell_numerator_unity",
    "pulse_detuned_kernel",
    "pulse_ode_oracle",
    "pulse_pi_inversion",
    "pulse_resonant_reduction",
    "pulse_unitarity",
    "resonant_coupling_unity",
    "table_fluorescence_factor",
    "table_lineshape_numerator",
    "table_stimulated_decay_factor",
    "total_shift_invariance_oscillator",
    "total_shift_two_level_expected_fail",
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
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    return worst


def _resonant_amplitude(omega_k, rabi: float, omega_0: float, gamma: float):
    """Reduced emission amplitude for a resonant pi-pulse, evaluated from
    its simplified form (an independent route to
    :func:`~lineshape.pulse.closed_form_amplitude` at zero laser detuning).

    Pulse term: 2 (Omega e^{i pi delta_k / Omega} - 2 i delta_k)
    / (Omega^2 - 4 delta_k^2), with exact handling of delta_k = +/- Omega/2.
    """
    if gamma <= 0.0 or rabi <= 0.0:
        raise DomainError("gamma and rabi must be positive")
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
    out = [
        CheckResult.measure(
            "gamma_invariance_two_level",
            "on-shell decay rate of a two-level atom across representations",
            _rel_spread([gamma_onshell(two, "e", "g", rep) for rep in REPS]),
            1e-12,
            claim,
        ),
        CheckResult.measure(
            "gamma_invariance_oscillator",
            "on-shell decay rate of the oscillator 1->0 transition",
            _rel_spread([gamma_onshell(osc, "1", "0", rep) for rep in REPS]),
            1e-12,
            claim,
        ),
        CheckResult.measure(
            "gamma_invariance_zero_dipole",
            "zero dipole gives zero rate on every route",
            max(abs(gamma_onshell(zero, "e", "g", rep)) for rep in REPS),
            1e-15,
            claim,
        ),
    ]
    return out


def check_total_shift_invariance(cutoffs=(100.0, 1000.0)) -> list[CheckResult]:
    osc = build_oscillator(1.0, 1.0, 5)
    two = build_two_level(1.0, 1.0)
    residual = 0.0
    for cutoff in cutoffs:
        modes = np.geomspace(1e-2, cutoff, 160)
        c = total_shift_integrand(osc, "1", COULOMB, modes)
        p = total_shift_integrand(osc, "1", POINCARE, modes)
        floor = 1e-3 * np.max(np.abs(p))
        denom = np.maximum(np.maximum(np.abs(c), np.abs(p)), floor)
        residual = max(residual, float(np.max(np.abs(c - p) / denom)))
    modes = np.geomspace(1e-2, 100.0, 160)
    modes = modes[np.abs(modes - 1.0) > 0.05]
    c2 = total_shift_integrand(two, "e", COULOMB, modes)
    p2 = total_shift_integrand(two, "e", POINCARE, modes)
    denom2 = np.maximum(np.abs(c2), np.abs(p2))
    two_level_residual = float(np.max(np.abs(c2 - p2) / denom2))
    return [
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
        residual = max(residual, abs(n_factor(rep, 1.0, 1.0) - 1.0))
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
        residual = max(
            residual, abs(lamb_n_factor(rep, omega, omega, omega_prime) - 1.0)
        )
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
        residual = max(residual, abs(numerator(rep, 1.0, 1.0) - 1.0))
        residual = max(residual, abs(numerator(rep, 0.7, 0.7) - 1.0))
    out.append(CheckResult.measure(
        "onshell_numerator_unity",
        "numerator equals 1 on shell for every representation",
        residual,
        1e-12,
        "on-shell matrix elements are gauge invariant, so every numerator "
        "is normalized to 1 at the transition frequency",
    ))
    return out


def check_ode_oracle(omega_0=1.0, rabi=1.0, gamma=0.1) -> list[CheckResult]:
    rep = SYMMETRIC
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
        detuned_residual = max(
            detuned_residual, float(np.max(np.abs(got - want) / np.abs(want)))
        )

    inversion_residual = abs(abs(traj.b_e[-1]) - 1.0)
    unitarity_residual = float(
        np.max(np.abs(np.abs(traj.b_g) ** 2 + np.abs(traj.b_e) ** 2 - 1.0))
    )

    params = LineshapeParams(rep=rep, omega_eg=omega_0, gamma=gamma)
    grid = np.linspace(0.1, 3.0, 300)
    bare = lineshape_S(params, grid)
    laser_free = pulse_spectrum(config, rep, omega_0, gamma, grid,
                                include_laser=False)
    reduction_bits = float(np.max(np.abs(laser_free.values - bare.values)))

    coupling_residual = max(
        abs(coupling_pair(r, omega_0, omega_0).u_minus - 1.0) for r in REPS)

    return [
        CheckResult.measure(
            "pulse_ode_oracle",
            "integrated amplitude dynamics vs closed forms (trajectory and "
            "long-time mode amplitudes)",
            max(traj_residual, beta_residual),
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


def run_all_checks(cutoff: float = 1000.0) -> VerificationReport:
    """Run the full invariance suite and assemble the report."""
    checks = []
    checks += check_gamma_invariance()
    checks += check_total_shift_invariance((cutoff / 10.0, cutoff))
    checks += check_table_consistency()
    checks += check_ode_oracle()
    env = {
        "cutoff": cutoff,
        "package_version": _version,
        "representations": [r.name for r in REPS],
        "numerator_grid": [0.05, 5.0, 1000],
        "mode_comparison_points": 160,
        "ode_modes": 81,
    }
    return VerificationReport(checks=checks, environment=env)
