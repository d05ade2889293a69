"""Helpers shared by the test modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lineshape
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

SRC_DIR = str(Path(lineshape.__path__[0]).parent)


def _child(*argv: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``argv``, the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def run_python(code: str, *args: str) -> str:
    """Last line a fresh interpreter prints running ``code``."""
    proc = _child("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """A fresh ``python -m lineshape.cli`` run: the console script's path."""
    return _child("-m", "lineshape.cli", *argv)


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


# -- the pulse-window equations over all 2 + N components --------------------


def full_rhs(drive, delta, weights):
    """y' = f(t, y) for y = (b_g, b_e, y_1, ..., y_N), the system that
    ``lineshape.dynamics._dop853`` steps with the same ``drive``, detunings and
    weights (None: no back-reaction), one full vector per call: the
    reference that ``solve_ivp`` integrates."""
    delta = np.asarray(delta, dtype=float)

    def rhs(t, y):
        d = complex(drive(np.array([t]))[0])
        osc = np.exp(-1j * delta * t)
        dy = np.empty_like(y)
        dy[0] = -1j * d.conjugate() * y[1]
        dy[1] = -1j * d * y[0]
        if weights is not None:
            dy[1] -= np.vdot(osc, weights * y[2:])
        dy[2:] = osc * y[1]
        return dy

    return rhs


# -- 40-digit level shifts: mpmath quadrature of the unexpanded integrands --
# mpmath is imported inside each helper, so that collecting the tests does
# not pay for it.


def _split(lo, hi, anchor):
    """Points of [lo, hi] every fourth decade of distance from ``anchor``
    (from 1e-20 of the span if it lies in [lo, hi]; at most 17 per side),
    so that tanh-sinh sees no scale it cannot resolve within one piece."""
    import mpmath

    far = max(abs(lo - anchor), abs(hi - anchor))
    inside = lo <= anchor <= hi
    near = far * mpmath.mpf(10) ** -20 if inside else min(abs(lo - anchor), abs(hi - anchor))
    points = {lo, hi}
    first, last = int(mpmath.floor(mpmath.log10(near))), int(mpmath.ceil(mpmath.log10(far)))
    for k in range(first, last + 1, max(4, (last - first) // 16)):
        for x in (anchor - mpmath.mpf(10) ** k, anchor + mpmath.mpf(10) ** k):
            if lo < x < hi:
                points.add(x)
    return sorted(points)


def mp_pv(integrand, pole, cutoff):
    """PV int_0^cutoff integrand(w)/(pole - w) dw at 40 digits.

    An interior pole gets a symmetric window, whose two sides are paired
    as (F(p - u) - F(p + u))/u; every piece is split at decades of
    distance from the pole and from 0."""
    import mpmath

    with mpmath.workdps(40):
        p, cut = mpmath.mpf(pole), mpmath.mpf(cutoff)
        zero = mpmath.mpf(0)

        def piece(f, lo, hi):
            if not lo < hi:
                return zero
            return mpmath.quad(f, sorted(set(_split(lo, hi, p)) | set(_split(lo, hi, zero))))

        def regular(w):
            return integrand(w) / (p - w)

        if not zero < p < cut:
            return +piece(regular, zero, cut)
        h = min(p, cut - p)

        def paired(u):  # at 40 more digits, for what the difference cancels
            with mpmath.extradps(40):
                return (integrand(p - u) - integrand(p + u)) / u

        core = mpmath.quad(paired, [zero, h])  # smooth
        if p < cut - p:
            return +(core + piece(regular, p + h, cut))
        return +(core + piece(regular, zero, p - h))


def _mp_coupling(rep, w0, downward):
    """u_minus (downward) or u_plus of ``rep`` as a function of the mode
    frequency, at the working precision."""
    import mpmath

    if rep.kind == "symmetric":
        return (lambda w: 2 * mpmath.sqrt(w0 * w) / (w + w0)) if downward else (lambda w: 0)
    alpha = mpmath.mpf({"coulomb": 0, "poincare": 1}.get(rep.kind, rep.custom_alpha))
    down, up = 1 - alpha, alpha if downward else -alpha
    return lambda w: down * mpmath.sqrt(w0 / w) + up * mpmath.sqrt(w / w0)


def mp_lamb_shift(model, state, cutoff):
    """:func:`lineshape.lamb_shift` at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for tr in model.transitions_from(state):
            w, p = mpmath.mpf(tr.omega), mpmath.mpf(model.momentum(tr.label, state))
            coeff = mpmath.mpf(model.charge) ** 2 * w * p**2 / (
                6 * mpmath.pi**2 * mpmath.mpf(model.mass) ** 2)
            total -= coeff * mp_pv(lambda x: 1, -w, cutoff)
        return total


def mp_total_shift(model, state, rep, cutoff):
    """:func:`lineshape.total_shift` at 40 digits, either route."""
    import mpmath

    with mpmath.workdps(40):
        e2, mass, cut = (mpmath.mpf(model.charge) ** 2, mpmath.mpf(model.mass),
                         mpmath.mpf(cutoff))
        total = e2 * cut**2 / (24 * mpmath.pi**2 * mass) if rep.kind == "coulomb" else 0
        for tr in model.transitions_from(state):
            w = mpmath.mpf(tr.omega)
            if rep.kind == "coulomb":
                p = mpmath.mpf(model.momentum(tr.label, state))
                coeff = e2 * p**2 / (6 * mpmath.pi**2 * mass**2)
                total += coeff * mp_pv(lambda x: x, -w, cutoff)
            else:
                coeff = mpmath.mpf(tr.dipole) ** 2 * w / (6 * mpmath.pi**2)
                total -= coeff * mp_pv(lambda x: x * x, -w, cutoff)
        return total


def mp_delta_offshell(omega, model, rep, cutoff, state=None):
    """:func:`lineshape.delta_offshell` at 40 digits, from w^2 u(w)^2."""
    import mpmath

    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for tr in model.transitions_from(state or model.top):
            w0 = mpmath.mpf(abs(tr.omega))
            u = _mp_coupling(rep, w0, tr.omega < 0.0)

            def g(w, u=u):
                return w * w * u(w) ** 2 if w > 0 else 0

            pole = mpmath.mpf(omega) - mpmath.mpf(model.energy(tr.label))
            total += w0 * mpmath.mpf(tr.dipole) ** 2 / (6 * mpmath.pi**2) * mp_pv(
                g, pole, cutoff)
        return total
