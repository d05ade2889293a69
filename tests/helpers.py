"""Helpers shared by the test modules."""

import json

import numpy as np

from lineshape import (
    REQUIRED_CHECKS,
    AtomModel,
    CheckResult,
    GaugeRepresentation,
    LambLineScenario,
    LineshapeParams,
    PulseConfig,
    SharpLineScenario,
    VerificationReport,
    build_oscillator,
    fluorescence_sweep,
    lamb_rate_sweep,
    lineshape_S,
    lorentzian_reference_spectrum,
    pulse_spectrum,
)
from lineshape.spectra import _BLOCK


def charged_oscillator(omega, mass, n_levels, charge) -> AtomModel:
    """``build_oscillator``'s ladder for a charge e: d = -e x, the builder's
    dipoles times e, so each route's value scales as e**2."""
    ladder = build_oscillator(omega, mass, n_levels)
    return AtomModel(levels=ladder.levels, mass=mass, charge=charge,
                     dipoles={k: charge * d for k, d in ladder.dipoles.items()})


def missing_checks(report) -> list[str]:
    """Names from the required inventory absent from ``report``."""
    present = {c.name for c in report.checks}
    return [name for name in REQUIRED_CHECKS if name not in present]


def report_from_json(text: str) -> VerificationReport:
    """Read back a report written by ``VerificationReport.to_json``."""
    payload = json.loads(text)
    return VerificationReport(
        checks=[CheckResult(**c) for c in payload["checks"]],
        environment=payload["environment"],
    )


_REP = GaugeRepresentation.constant(0.3)
_DETUNED = PulseConfig(rabi=1.0, omega_l=0.9)

# Every spectrum built by the blocked sweep, with the name its grid errors
# carry.  Each accepts any grid in (0, 3.0]; the Lamb line's emitted
# frequency 1 + 4 - omega_0 closes above 5.
SWEEPS = {
    "lineshape": (
        lambda g: lineshape_S(LineshapeParams(_REP, 1.0, 0.1, 0.01), g), "grid"),
    "lineshape-variable-width": (
        lambda g: lineshape_S(
            LineshapeParams(_REP, 1.0, 0.1, variable_width=True), g), "grid"),
    "fluorescence": (
        lambda g: fluorescence_sweep(
            SharpLineScenario(1.0, 1.0, 1.0, 0.1, 1.0, _REP), g),
        "omega_0 grid"),
    "lamb-line": (
        lambda g: lamb_rate_sweep(
            LambLineScenario(1.0, 1.0, 4.0, 0.6, 1.0, _REP), g),
        "omega_0 grid"),
    "pulse": (
        lambda g: pulse_spectrum(_DETUNED, _REP, 1.0, 0.1, g), "spectrum grid"),
    "pulse-without-laser": (
        lambda g: pulse_spectrum(_DETUNED, _REP, 1.0, 0.1, g,
                                 include_laser=False),
        "spectrum grid"),
    "reference": (
        lambda g: lorentzian_reference_spectrum(1.0, 0.1, g), "spectrum grid"),
}


def assert_blocks_are_seamless(call, grid):
    """``call`` on ``grid`` and on pieces cut off the block edges agree bit
    for bit, values and n-factors."""
    whole = call(grid)
    cuts = (0, 1, _BLOCK + 5, grid.size)
    pieces = [call(grid[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    for column in ("values", "n_factor"):
        if getattr(whole, column) is None:
            assert all(getattr(p, column) is None for p in pieces)
            continue
        joined = np.concatenate([getattr(p, column) for p in pieces])
        assert joined.tobytes() == getattr(whole, column).tobytes(), column
