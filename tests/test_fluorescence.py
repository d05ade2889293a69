import dataclasses
import os
import warnings

import numpy as np
import pytest

from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    DomainError,
    GaugeRepresentation,
    LambLineScenario,
    SharpLineScenario,
    fluorescence_sweep,
    lamb_hydrogen_preset,
    lamb_n_factor,
    lamb_rate_sweep,
    n_factor,
)
from lineshape import fluorescence
from lineshape.spectra import _BLOCK
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
    def scenario(self, rep, gamma=0.1, intensity=2.0, d=0.8):
        return SharpLineScenario(intensity=intensity, omega_0=1.0,
                                 omega_eg=1.0, gamma=gamma, dipole_proj=d,
                                 rep=rep)

    def rate(self, rep, omega_0, **kwargs):
        """The sweep's rate at one incident frequency."""
        spec = fluorescence_sweep(self.scenario(rep, **kwargs), [omega_0])
        return float(spec.values[0])

    def test_on_resonance_value(self):
        s = self.scenario(COULOMB)
        want = s.intensity * s.dipole_proj**2 * 2.0 / s.gamma
        assert self.rate(COULOMB, 1.0) == pytest.approx(want, rel=1e-12)

    def test_zero_intensity(self):
        assert self.rate(SYMMETRIC, 1.3, intensity=0.0) == 0.0

    def test_representation_ratio_at_double_frequency(self):
        p = self.rate(POINCARE, 2.0)
        c = self.rate(COULOMB, 2.0)
        assert p / c == pytest.approx(16.0, rel=1e-12)

    def test_red_blue_asymmetry_signs(self):
        # Coulomb scatters more on the red side, Poincare on the blue side.
        delta = np.linspace(0.05, 0.4, 8)

        def red_blue(rep):
            red = fluorescence_sweep(self.scenario(rep), 1.0 - delta[::-1])
            blue = fluorescence_sweep(self.scenario(rep), 1.0 + delta)
            return red.values[::-1], blue.values

        red_c, blue_c = red_blue(COULOMB)
        assert np.all(red_c > blue_c)
        red_p, blue_p = red_blue(POINCARE)
        assert np.all(blue_p > red_p)

    def test_sweep_carries_n_column(self):
        grid = np.linspace(0.5, 2.0, 21)
        spec = fluorescence_sweep(self.scenario(SYMMETRIC), grid)
        assert spec.n_factor is not None
        np.testing.assert_allclose(
            spec.n_factor, np.asarray(n_factor(SYMMETRIC, grid, 1.0)),
            rtol=0, atol=0,
        )

    def test_overflowing_sweep_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^spectral density must be "
                               "finite and non-negative$"):
                fluorescence_sweep(self.scenario(POINCARE), [0.5, 1e200])


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

    @pytest.mark.parametrize("omega_0", [[11.0, 2.0], [[2.0, 3.0], [11.0, 2.0]]])
    def test_rejects_a_channel_closed_anywhere_in_an_array(self, omega_0):
        with pytest.raises(DomainError, match="^emitted frequency"):
            lamb_n_factor(POINCARE, omega_0, 1.0, 10.0)

    def test_sweep_rejects_a_channel_closed_only_in_its_last_block(self):
        s = LambLineScenario(intensity=1.0, omega=1.0, omega_prime=4.0,
                             gamma=0.6, dipole_proj=1.0, rep=POINCARE)
        grid = np.linspace(0.02, 3.0, 2 * _BLOCK + 3)
        grid[-1] = 5.0  # emitted 1 + 4 - 5 = 0
        with pytest.raises(DomainError, match="^emitted frequency omega "
                           r"\+ omega' - omega_0 must be positive$"):
            lamb_rate_sweep(s, grid)

    @pytest.mark.parametrize("first, filled", [
        (_BLOCK - 1, []), (_BLOCK, [0]), (2 * _BLOCK + 2, [0, 1])])
    def test_sweep_fails_the_block_where_the_channel_closes(self, first, filled,
                                                             monkeypatch):
        # Each block tests its largest drive frequency alone.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        s = LambLineScenario(intensity=1.0, omega=1.0, omega_prime=4.0,
                             gamma=0.6, dipole_proj=1.0, rep=POINCARE)
        grid = np.linspace(0.02, 3.0, 2 * _BLOCK + 3)
        grid[first:] = np.linspace(5.0, 6.0, grid.size - first)  # emitted 1 + 4 - 5 = 0
        blocks, kernel = [], fluorescence._lamb_n_factor

        def recording(rep, w, *args):
            blocks.append(int(np.searchsorted(grid, w[0])) // _BLOCK)
            return kernel(rep, w, *args)

        monkeypatch.setattr(fluorescence, "_lamb_n_factor", recording)
        with pytest.raises(DomainError, match="^emitted frequency omega "
                           r"\+ omega' - omega_0 must be positive$"):
            lamb_rate_sweep(s, grid)
        assert blocks == filled

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
        s = dataclasses.replace(lamb_hydrogen_preset(POINCARE), intensity=2.0)
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
