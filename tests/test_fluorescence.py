import numpy as np
import pytest

from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    ConfigurationError,
    DomainError,
    GaugeRepresentation,
    LambLineScenario,
    SharpLineScenario,
    build_two_level,
    damped_rate_general,
    fluorescence_rate,
    fluorescence_sweep,
    gamma_onshell,
    lamb_hydrogen_preset,
    lamb_n_factor,
    lamb_rate_sweep,
    n_factor,
)
from lineshape.verify import (
    _FLUORESCENCE_TABLE,
    _STIMULATED_DECAY_TABLE,
    _built_fluorescence_factor,
    _built_stimulated_decay_factor,
)

ALPHA_03 = GaugeRepresentation.constant(0.3)
ALL_REPS = (COULOMB, POINCARE, SYMMETRIC, ALPHA_03)


class TestNFactor:
    @pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.name)
    def test_unity_on_resonance(self, rep):
        assert n_factor(rep, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert n_factor(rep, 0.7, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_values(self):
        assert n_factor(SYMMETRIC, 3.0, 1.0) == pytest.approx(27.0 / 16.0,
                                                              rel=1e-15)
        assert n_factor(COULOMB, 2.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("rep", (COULOMB, POINCARE, SYMMETRIC),
                             ids=lambda r: r.name)
    def test_rate_route_agrees_with_closed_forms(self, rep):
        grid = np.linspace(0.2, 4.0, 500)
        route = np.asarray(n_factor(rep, grid, 1.0))
        np.testing.assert_allclose(
            route, _FLUORESCENCE_TABLE[rep.kind](grid, 1.0), rtol=1e-12
        )
        np.testing.assert_allclose(
            route, _built_fluorescence_factor(rep, grid, 1.0), rtol=1e-12
        )


class TestFluorescenceRate:
    def scenario(self, rep, omega_0, gamma=0.1, intensity=2.0, d=0.8):
        return SharpLineScenario(intensity=intensity, omega_0=omega_0,
                                 omega_eg=1.0, gamma=gamma, dipole_proj=d,
                                 rep=rep)

    def test_on_resonance_value(self):
        s = self.scenario(COULOMB, 1.0)
        want = s.intensity * s.dipole_proj**2 * 2.0 / s.gamma
        assert fluorescence_rate(s) == pytest.approx(want, rel=1e-12)

    def test_zero_intensity(self):
        s = self.scenario(SYMMETRIC, 1.3, intensity=0.0)
        assert fluorescence_rate(s) == 0.0

    def test_representation_ratio_at_double_frequency(self):
        p = fluorescence_rate(self.scenario(POINCARE, 2.0))
        c = fluorescence_rate(self.scenario(COULOMB, 2.0))
        assert p / c == pytest.approx(16.0, rel=1e-12)

    def test_red_blue_asymmetry_signs(self):
        # Coulomb scatters more on the red side, Poincare on the blue side.
        for delta in np.linspace(0.05, 0.4, 8):
            red_c = fluorescence_rate(self.scenario(COULOMB, 1.0 - delta))
            blue_c = fluorescence_rate(self.scenario(COULOMB, 1.0 + delta))
            assert red_c > blue_c
            red_p = fluorescence_rate(self.scenario(POINCARE, 1.0 - delta))
            blue_p = fluorescence_rate(self.scenario(POINCARE, 1.0 + delta))
            assert blue_p > red_p

    def test_sweep_carries_n_column(self):
        grid = np.linspace(0.5, 2.0, 21)
        spec = fluorescence_sweep(self.scenario(SYMMETRIC, 1.0), grid)
        assert spec.n_factor is not None
        np.testing.assert_allclose(
            spec.n_factor, np.asarray(n_factor(SYMMETRIC, grid, 1.0)),
            rtol=0, atol=0,
        )


class TestDampedRateGeneral:
    def test_sharp_line_reduces_to_fluorescence_rate(self):
        model = build_two_level(1.0, 0.8)
        gamma = gamma_onshell(model, "e", "g")
        for rep in ALL_REPS:
            for w0 in (0.8, 1.0, 1.4):
                general = damped_rate_general(model, rep, 0.0, [(w0, 2.0)])
                scenario = SharpLineScenario(
                    intensity=2.0, omega_0=w0, omega_eg=1.0, gamma=gamma,
                    dipole_proj=0.8, rep=rep,
                )
                assert general == pytest.approx(fluorescence_rate(scenario),
                                                rel=1e-12)

    def test_two_lines_add(self):
        model = build_two_level(1.0, 0.8)
        one = damped_rate_general(model, COULOMB, 0.0, [(0.9, 1.0)])
        other = damped_rate_general(model, COULOMB, 0.0, [(1.1, 3.0)])
        both = damped_rate_general(model, COULOMB, 0.0,
                                   [(0.9, 1.0), (1.1, 3.0)])
        assert both == pytest.approx(one + other, rel=1e-12)

    def test_zero_interaction(self):
        model = build_two_level(1.0, 0.0)
        assert damped_rate_general(model, COULOMB, 0.0, [(1.0, 1.0)]) == 0.0

    def test_empty_spectrum_rejected(self):
        model = build_two_level(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            damped_rate_general(model, COULOMB, 0.0, [])

    def test_unknown_initial_energy_rejected(self):
        model = build_two_level(1.0, 1.0)
        with pytest.raises(DomainError):
            damped_rate_general(model, COULOMB, 0.123, [(1.0, 1.0)])

    def test_multi_level_ladder_single_open_channel(self):
        from lineshape import build_oscillator, gamma_offshell

        ladder = build_oscillator(1.0, 1.0, 4)
        # From the ground state only level 1 is dipole-connected upward,
        # and level 1 decays back through the single 1->0 channel, so the
        # damping width equals the full on-shell width of that transition.
        gamma_1 = gamma_onshell(ladder, "1", "0")
        assert gamma_offshell(1.0, ladder, COULOMB, state="1") == (
            pytest.approx(gamma_1, rel=1e-12)
        )
        d2 = float(abs(ladder.dipole("1", "0")[2]) ** 2)
        got = damped_rate_general(ladder, COULOMB, 0.0, [(0.9, 1.5)])
        n = n_factor(COULOMB, 0.9, 1.0)
        want = 1.5 * gamma_1 * d2 / 2.0 * n / ((0.9 - 1.0) ** 2 + gamma_1**2 / 4)
        assert got == pytest.approx(want, rel=1e-12)

    def test_initial_state_can_be_excited(self):
        from lineshape import build_oscillator

        ladder = build_oscillator(1.0, 1.0, 4)
        # Driving from level 1 addresses the 1->2 transition.
        rate = damped_rate_general(ladder, COULOMB, 1.0, [(1.05, 1.0)])
        assert rate > 0.0


class TestLambLine:
    @pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.name)
    def test_unity_on_resonance(self, rep):
        assert lamb_n_factor(rep, 1.0, 1.0, 1000.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_coulomb_closed_form_value(self):
        # omega_0 = 2 omega, omega' = 10 omega: (9/10) * (1/4)
        assert lamb_n_factor(COULOMB, 2.0, 1.0, 10.0) == pytest.approx(
            0.225, rel=1e-15
        )

    def test_poincare_vanishes_at_emission_threshold_edge(self):
        value = lamb_n_factor(POINCARE, 1.0 + 10.0 - 1e-9, 1.0, 10.0)
        assert value == pytest.approx(0.0, abs=1e-26)

    def test_rejects_closed_emission_channel(self):
        with pytest.raises(DomainError):
            lamb_n_factor(POINCARE, 11.0, 1.0, 10.0)

    @pytest.mark.parametrize("rep", (COULOMB, POINCARE, SYMMETRIC),
                             ids=lambda r: r.name)
    def test_rate_route_agrees_with_closed_forms(self, rep):
        grid = np.linspace(0.3, 3.0, 400)
        route = np.asarray(lamb_n_factor(rep, grid, 1.0, 1000.0))
        np.testing.assert_allclose(
            route, _STIMULATED_DECAY_TABLE[rep.kind](grid, 1.0, 1000.0),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            route, _built_stimulated_decay_factor(rep, grid, 1.0, 1000.0),
            rtol=1e-12,
        )

    def test_sweep_peak_height(self):
        s = lamb_hydrogen_preset(POINCARE, intensity=2.0)
        grid = np.linspace(0.2, 2.0, 1801)  # includes 1.0 exactly
        spec = lamb_rate_sweep(s, grid)
        i = np.where(grid == 1.0)[0][0]
        want = s.intensity * s.dipole_proj**2 * 2.0 / s.gamma
        assert spec.values[i] == pytest.approx(want, rel=1e-12)

    def test_poincare_sweep_is_nearly_lorentzian_for_fast_cascade(self):
        # First-order bound 15 gamma / omega' on |n' - 1| over the line
        # core, with the exact quadratic remainder of
        # (1+x)^3 - 1 <= 3x (1+x)^2 folded in.  (The legibility preset's
        # gamma = 0.6 omega would push the window to negative drive
        # frequencies, so probe at a narrower width.)
        omega, omega_prime, gamma = 1.0, 1000.0, 0.1
        grid = np.linspace(omega - 5 * gamma, omega + 5 * gamma, 501)
        n = np.asarray(lamb_n_factor(POINCARE, grid, omega, omega_prime))
        x = 5.0 * gamma / omega_prime
        bound = 15.0 * gamma / omega_prime * (1.0 + x) ** 2
        assert np.max(np.abs(n - 1.0)) <= bound
        # and the plain first-order bound is only exceeded quadratically:
        assert np.max(np.abs(n - 1.0)) <= 15.0 * gamma / omega_prime * 1.01

    def test_zero_intensity_sweep_is_flat_zero(self):
        s = LambLineScenario(intensity=0.0, omega=1.0, omega_prime=100.0,
                             gamma=0.5, dipole_proj=1.0, rep=COULOMB)
        spec = lamb_rate_sweep(s, np.linspace(0.5, 1.5, 11))
        assert np.all(spec.values == 0.0)

    def test_preset_is_marked_overridable(self):
        s = lamb_hydrogen_preset(COULOMB)
        assert s.omega_prime / s.omega == 1000.0
        assert s.gamma / s.omega == 0.6
