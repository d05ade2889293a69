"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable acceptance report:  pytest tests/test_acceptance.py -v -s
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import lineshape
from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    GaugeRepresentation,
    LineshapeParams,
    PulseConfig,
    REQUIRED_CHECKS,
    VerificationReport,
    build_oscillator,
    build_two_level,
    closed_form_amplitude,
    excited_amplitude_during_pulse,
    gamma_onshell,
    integrate_dynamics,
    lamb_n_factor,
    lineshape_S,
    lorentzian_reference_spectrum,
    n_factor,
    numerator,
    pulse_spectrum,
    run_all_checks,
)
from lineshape.cli import main
from lineshape.verify import (
    _NUMERATOR_TABLE,
    _built_numerator,
    _onshell_rates,
    _resonant_amplitude,
    _shift_integrand,
)

from helpers import missing_checks

FOUR_REPS = (COULOMB, POINCARE, SYMMETRIC, GaugeRepresentation.constant(0.3))
PRESET_DIR = Path(lineshape.__path__[0]) / "presets"


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number}: {text}")
        raise
    print(f"PASS  criterion {number}: {text}")


def test_criterion_1_onshell_unity():
    with criterion(1, "on-shell unity of every representation factor"):
        worst = 0.0
        for rep in FOUR_REPS:
            for w in (1.0, 0.7):
                worst = max(worst, abs(numerator(rep, w, w) - 1.0))
                worst = max(worst, abs(n_factor(rep, w, w) - 1.0))
                worst = max(
                    worst, abs(lamb_n_factor(rep, w, w, 1000.0 * w) - 1.0)
                )
        assert worst <= 1e-12


def test_criterion_2_table_consistency():
    with criterion(2, "numerator vs closed forms and first-principles route"):
        grid = np.linspace(0.05, 5.0, 1000)
        worst = 0.0
        for rep in (COULOMB, POINCARE, SYMMETRIC):
            route = np.asarray(numerator(rep, grid, 1.0))
            for want in (_NUMERATOR_TABLE[rep.kind](grid, 1.0),
                         _built_numerator(rep, grid, 1.0)):
                worst = max(worst, float(np.max(np.abs(route - want) / want)))
        assert worst <= 1e-12


def test_criterion_3_lineshape_figure():
    with criterion(3, "gauge-family lineshape reproduction"):
        gamma = 0.1
        grid = np.arange(5, 301) / 100.0  # step 0.01, holds 1.0 and 2.0 exactly
        step = 0.01
        spectra = {}
        for rep in (COULOMB, POINCARE, SYMMETRIC):
            spectra[rep.name] = lineshape_S(
                LineshapeParams(rep=rep, omega_eg=1.0, gamma=gamma), grid
            ).values
        # (a) every curve peaks within one grid step of the transition
        # frequency, at the Lorentzian peak height
        peak_expect = 2.0 / (math.pi * gamma)
        for name, values in spectra.items():
            peak_at = grid[np.argmax(values)]
            assert abs(peak_at - 1.0) <= step + 1e-12, name
            assert abs(values.max() / peak_expect - 1.0) <= 1e-3, name
        # (b) the symmetric curve interpolates pointwise off resonance
        off = grid != 1.0
        lo = np.minimum(spectra["coulomb"], spectra["poincare"])[off]
        hi = np.maximum(spectra["coulomb"], spectra["poincare"])[off]
        s = spectra["symmetric"][off]
        assert np.all(s > lo) and np.all(s < hi)
        # (c) representation ratio at twice the transition frequency
        i2 = np.where(grid == 2.0)[0][0]
        ratio = spectra["poincare"][i2] / spectra["coulomb"][i2]
        assert abs(ratio - 4.0) <= 1e-12


def test_criterion_4_gamma_invariance():
    with criterion(4, "on-shell decay-rate invariance across representations"):
        for model, upper, lower in (
            (build_two_level(1.0, 1.0), "e", "g"),
            (build_oscillator(1.0, 1.0, 5), "1", "0"),
        ):
            values = [gamma_onshell(model, upper, lower),
                      *_onshell_rates(model, upper, lower)]
            spread = (max(values) - min(values)) / max(values)
            assert spread <= 1e-12


def test_criterion_5_shift_invariance():
    with criterion(5, "per-mode total-shift invariance (sum-rule ladder)"):
        osc = build_oscillator(1.0, 1.0, 5)
        for cutoff in (100.0, 1000.0):
            modes = np.geomspace(1e-2, cutoff, 160)
            c = _shift_integrand(osc, "1", "coulomb", modes)
            p = _shift_integrand(osc, "1", "poincare", modes)
            floor = 1e-3 * np.max(np.abs(p))
            denom = np.maximum(np.maximum(np.abs(c), np.abs(p)), floor)
            assert np.max(np.abs(c - p) / denom) <= 1e-10
        # the two-level comparison must record a genuinely nonzero residual
        two = build_two_level(1.0, 1.0)
        modes = np.geomspace(1e-2, 100.0, 160)
        modes = modes[np.abs(modes - 1.0) > 0.05]
        c2 = _shift_integrand(two, "e", "coulomb", modes)
        p2 = _shift_integrand(two, "e", "poincare", modes)
        assert np.max(np.abs(c2 - p2) / np.abs(p2)) > 1e-3


def test_criterion_6_pulse_dynamics():
    with criterion(6, "pulse dynamics: reductions, oracle, inversion, norm"):
        omega_0 = 1.0
        rabi = 1.0
        gamma = 0.1
        config = PulseConfig(rabi=rabi, omega_l=omega_0)
        rep = SYMMETRIC
        # (a) general amplitude reduces to the resonant form on a grid
        # holding the removable singularities exactly
        delta = (np.arange(0, 1001) - 500) / 100.0
        assert 0.5 in delta and -0.5 in delta
        wk = omega_0 - delta
        general = closed_form_amplitude(wk, config, rep, omega_0, gamma)
        reduced = _resonant_amplitude(wk, rabi, omega_0, gamma)
        assert np.max(np.abs(general - reduced) / np.abs(reduced)) <= 1e-12
        # (b) integrated dynamics vs closed forms over five Rabi widths
        modes = omega_0 - np.linspace(-5.0 * rabi, 5.0 * rabi, 81)
        traj = integrate_dynamics(config, rep, omega_0, gamma, modes)
        beta = closed_form_amplitude(modes, config, rep, omega_0, gamma)
        assert np.max(np.abs(traj.beta_final - beta) / np.abs(beta)) <= 1e-6
        be = excited_amplitude_during_pulse(traj.times, config, rep, omega_0)
        assert np.max(np.abs(traj.b_e - be)) <= 1e-6
        # (c) resonant pi-pulse inversion
        assert abs(abs(traj.b_e[-1]) - 1.0) <= 1e-9
        # (d) unitarity along the pulse window
        norm = np.abs(traj.b_g) ** 2 + np.abs(traj.b_e) ** 2
        assert np.max(np.abs(norm - 1.0)) <= 1e-9


def test_criterion_7_pulse_figure():
    with criterion(7, "driven-spectrum reproduction vs bare Lorentzian"):
        omega_0, rabi = 1.0, 1.0
        config = PulseConfig(rabi=rabi, omega_l=omega_0)
        for gamma in (omega_0 / 10.0, omega_0 / 100.0):
            delta = np.linspace(-2.0 * rabi, 2.0 * rabi, 2001)
            wk = omega_0 - delta
            keep = wk > 0.0
            wk = np.sort(wk[keep])
            if omega_0 not in wk:
                wk = np.sort(np.append(wk, omega_0))
            spec = pulse_spectrum(config, SYMMETRIC, omega_0, gamma, wk)
            bare = lorentzian_reference_spectrum(omega_0, gamma, wk)
            rel = np.abs(spec.values - bare.values) / bare.values
            assert rel.max() > 0.10, f"gamma={gamma}"
            at_center = rel[np.where(wk == omega_0)[0][0]]
            assert at_center <= 0.05, f"gamma={gamma}"


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical CSVs for every preset scenario"):
        presets = sorted(PRESET_DIR.glob("*.scn"))
        assert presets
        for preset in presets:
            mode = next(
                line.split(":", 1)[1].strip()
                for line in preset.read_text().splitlines()
                if line.startswith("mode:")
            )
            outs = []
            for run in ("a", "b"):
                out = tmp_path / preset.stem / run
                assert main([mode, str(preset), "--out-dir", str(out)]) == 0
                outs.append(sorted(out.glob("*.csv")))
            assert outs[0] and len(outs[0]) == len(outs[1])
            for left, right in zip(*outs):
                assert left.read_bytes() == right.read_bytes(), left.name


def test_criterion_9_verification_suite(tmp_path, capsys):
    with criterion(9, "verification suite green and inventory enforced"):
        assert main(["verify", "--out-dir", str(tmp_path)]) == 0
        report = run_all_checks()
        assert report.all_passed()
        assert missing_checks(report) == []
        # dropping any named check must be flagged
        for name in REQUIRED_CHECKS:
            pruned = VerificationReport(
                checks=[c for c in report.checks if c.name != name],
                environment=report.environment,
            )
            assert missing_checks(pruned) == [name]
