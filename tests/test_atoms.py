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

from helpers import charged_oscillator


class TestTwoLevel:
    def test_momentum_derived_from_dipole(self):
        m = build_two_level(1.0, 1.0)
        assert m.momentum("e", "g") == m.mass * 1.0 * 1.0 / m.charge == 1.0

    def test_hermitian_partner_filled_in(self):
        m = build_two_level(1.0, 0.75)
        assert m.dipole("g", "e") == m.dipole("e", "g") == 0.75

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
        x01 = abs(m.dipole("1", "0")) / m.charge
        x12 = abs(m.dipole("2", "1")) / m.charge
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

    @pytest.mark.parametrize("state", ["1", "2", "3"])
    def test_interior_states_saturate_sum_rule(self, state):
        m = build_oscillator(1.0, 1.0, 5)
        assert trk_sum(m, state) == pytest.approx(0.5, rel=1e-12)

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
        r2 = (m.dipole("g", "e") / m.charge) ** 2
        assert trk_sum(m, "e") == pytest.approx(-1.0 * r2, rel=1e-15)

    def test_unknown_state_rejected(self):
        m = build_two_level(1.0, 1.0)
        with pytest.raises(DomainError):
            trk_sum(m, "nope")


class TestModelValidation:
    def test_posmom_relation_holds_for_all_pairs(self):
        # |p_nm| = |i m omega_nm r_nm| with r_nm = -d_nm / e.
        for m in (build_two_level(1.0, 0.8),
                  charged_oscillator(1.3, 0.9, 4, charge=1.7)):
            for (n, mm) in m.dipoles:
                r = -m.dipole(n, mm) / m.charge
                want = abs(1j * m.mass * m.omega(n, mm) * r)
                assert m.momentum(n, mm) == pytest.approx(want, rel=1e-15)

    def test_rejects_non_hermitian_map(self):
        with pytest.raises(DomainError):
            AtomModel(
                levels=(Level("g", 0.0), Level("e", 1.0)),
                dipoles={("e", "g"): 1.0, ("g", "e"): 5.0},
            )

    def test_rejects_unordered_energies(self):
        with pytest.raises(DomainError):
            AtomModel(levels=(Level("a", 1.0), Level("b", 0.0)), dipoles={})

    def test_rejects_degenerate_levels(self):
        with pytest.raises(DomainError):
            AtomModel(
                levels=(Level("a", 1.0), Level("b", 1.0)),
                dipoles={("a", "b"): 1.0},
            )

    def test_omega_antisymmetric(self):
        m = build_oscillator(1.0, 1.0, 4)
        assert m.omega("2", "1") == -m.omega("1", "2")

    @pytest.mark.parametrize("d", [np.array([0.0, 0.0, 1.0]), 1.0 + 0.25j,
                                   "1", math.nan], ids=repr)
    def test_rejects_a_dipole_that_is_not_one_real_number(self, d):
        # Dipoles are real and lie along the model's one axis.
        with pytest.raises(DomainError, match="dipole element"):
            AtomModel(levels=(Level("g", 0.0), Level("e", 1.0)),
                      dipoles={("e", "g"): d})
