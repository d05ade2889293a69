import math

import numpy as np
import pytest

from lineshape import (
    AtomModel,
    ConfigurationError,
    DomainError,
    Level,
    build_oscillator,
    build_two_level,
    trk_sum,
)


class TestTwoLevel:
    def test_momentum_derived_from_dipole(self):
        m = build_two_level(1.0, 1.0)
        p = m.momentum("e", "g")
        r = m.position("e", "g")
        np.testing.assert_allclose(p, 1j * m.mass * 1.0 * r, rtol=0, atol=0)
        assert abs(np.linalg.norm(p)) == pytest.approx(m.mass * 1.0 / m.charge)

    def test_hermitian_partner_filled_in(self):
        m = build_two_level(1.0, 1.0)
        np.testing.assert_array_equal(m.dipole("g", "e"),
                                      np.conj(m.dipole("e", "g")))

    def test_zero_dipole_means_zero_couplings(self):
        m = build_two_level(1.0, 0.0)
        assert np.all(m.dipole("e", "g") == 0.0)
        assert trk_sum(m, "e") == 0.0

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            build_two_level(0.0, 1.0)


class TestOscillator:
    def test_ladder_elements(self):
        m = build_oscillator(1.0, 1.0, 5)
        x01 = abs(np.linalg.norm(m.position("1", "0")))
        x12 = abs(np.linalg.norm(m.position("2", "1")))
        assert x01 == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert x12 == pytest.approx(1.0, rel=1e-15)
        assert np.all(m.dipole("2", "0") == 0.0)  # selection rule

    def test_energies_are_multiples(self):
        m = build_oscillator(0.7, 1.3, 4)
        assert [lv.energy for lv in m.levels] == pytest.approx(
            [0.0, 0.7, 1.4, 2.1]
        )

    def test_needs_three_levels(self):
        with pytest.raises(ConfigurationError):
            build_oscillator(1.0, 1.0, 2)

    @pytest.mark.parametrize("axis", [(0, 0, 1), (1, 0, 0), (1, 1, 1)])
    @pytest.mark.parametrize("state", ["1", "2", "3"])
    def test_interior_states_saturate_sum_rule(self, state, axis):
        unit = np.asarray(axis, dtype=float)
        unit = unit / np.linalg.norm(unit)
        m = build_oscillator(1.0, 1.0, 5, axis=unit)
        assert trk_sum(m, state, unit) == pytest.approx(0.5, rel=1e-12)

    def test_sum_rule_scales_with_mass(self):
        m = build_oscillator(2.0, 2.5, 5)
        assert trk_sum(m, "1") == pytest.approx(1.0 / (2.0 * 2.5), rel=1e-12)

    def test_top_state_misses_upward_term(self):
        m = build_oscillator(1.0, 1.0, 5)
        # state 4 has no level 5 partner, so the sum comes out negative.
        assert trk_sum(m, "4") < 0.0


class TestTrkSum:
    def test_two_level_excited_is_negative(self):
        m = build_two_level(1.0, 1.0)
        r2 = float(np.sum(np.abs(m.position("g", "e")) ** 2))
        assert trk_sum(m, "e") == pytest.approx(-1.0 * r2, rel=1e-15)

    def test_unknown_state_rejected(self):
        m = build_two_level(1.0, 1.0)
        with pytest.raises(DomainError):
            trk_sum(m, "nope")


class TestModelValidation:
    def test_posmom_relation_holds_for_all_pairs(self):
        for m in (build_two_level(1.0, 0.8),
                  build_oscillator(1.3, 0.9, 4, charge=1.7)):
            for (n, mm) in m.dipoles:
                want = 1j * m.mass * m.omega(n, mm) * m.position(n, mm)
                np.testing.assert_array_equal(m.momentum(n, mm), want)

    def test_rejects_non_hermitian_map(self):
        with pytest.raises(DomainError):
            AtomModel(
                levels=(Level("g", 0.0), Level("e", 1.0)),
                dipoles={("e", "g"): np.array([0, 0, 1 + 0j]),
                         ("g", "e"): np.array([0, 0, 5 + 0j])},
            )

    def test_rejects_unordered_energies(self):
        with pytest.raises(DomainError):
            AtomModel(levels=(Level("a", 1.0), Level("b", 0.0)), dipoles={})

    def test_rejects_degenerate_levels(self):
        with pytest.raises(DomainError):
            AtomModel(
                levels=(Level("a", 1.0), Level("b", 1.0)),
                dipoles={("a", "b"): np.array([0, 0, 1 + 0j])},
            )

    def test_omega_antisymmetric(self):
        m = build_oscillator(1.0, 1.0, 4)
        assert m.omega("2", "1") == -m.omega("1", "2")

    def test_complex_dipole_partner_is_conjugate(self):
        m = AtomModel(
            levels=(Level("g", 0.0), Level("e", 1.0)),
            dipoles={("e", "g"): np.array([0, 0.25j, 1.0])},
        )
        np.testing.assert_allclose(m.dipole("e", "g"),
                                   [0, 0.25j, 1.0], atol=1e-15)
        np.testing.assert_allclose(m.dipole("g", "e"),
                                   [0, -0.25j, 1.0], atol=1e-15)
