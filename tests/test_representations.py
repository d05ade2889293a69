import numpy as np
import pytest

from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    DomainError,
    GaugeRepresentation,
    coupling_pair,
)
from lineshape.representations import _constant_alpha, _mixing
from lineshape.spectra import _BLOCK

ALPHA_03 = GaugeRepresentation.constant(0.3)
ALL_REPS = (COULOMB, POINCARE, SYMMETRIC, ALPHA_03)


def mixing(rep, omega_k, omega_0):
    """The in-place mixing factor at omega_k/omega_0, on fresh buffers."""
    x = np.divide(omega_k, omega_0)
    return _mixing(rep, x, np.empty_like(x), np.empty_like(x))


class TestAlpha:
    """The mixing constant alpha and the mixing factor m = (1 - alpha) +
    alpha x it enters, x = omega_k/omega_0."""

    def test_coulomb_is_zero(self):
        assert _constant_alpha(COULOMB) == 0.0
        for wk in (0.1, 1.0, 17.3):
            assert mixing(COULOMB, wk, 1.0) == 1.0

    def test_poincare_is_one(self):
        assert _constant_alpha(POINCARE) == 1.0
        assert mixing(POINCARE, 2.5, 1.0) == 2.5

    @pytest.mark.parametrize("wk,expected", [(1.0, 0.5), (3.0, 0.25)])
    def test_symmetric_values(self, wk, expected):
        # alpha = omega_0/(omega_k + omega_0) varies with the mode.
        assert _constant_alpha(SYMMETRIC) is None
        assert mixing(SYMMETRIC, wk, 1.0) == pytest.approx(
            (1.0 - expected) + expected * wk, rel=1e-15)

    def test_custom_constant(self):
        assert _constant_alpha(ALPHA_03) == 0.3
        assert mixing(ALPHA_03, 5.0, 1.0) == pytest.approx(0.7 + 0.3 * 5.0,
                                                           rel=1e-15)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            coupling_pair(COULOMB, 0.0, 1.0)
        with pytest.raises(DomainError):
            coupling_pair(COULOMB, 1.0, -2.0)

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(DomainError):
            GaugeRepresentation.constant(1.5)
        with pytest.raises(DomainError):
            GaugeRepresentation.constant(float("nan"))


class TestCouplingPair:
    def test_coulomb_at_four_omega(self):
        u = coupling_pair(COULOMB, 4.0, 1.0)
        assert u.u_plus == 0.5 and u.u_minus == 0.5

    def test_poincare_at_four_omega(self):
        u = coupling_pair(POINCARE, 4.0, 1.0)
        assert u.u_plus == -2.0 and u.u_minus == 2.0

    def test_symmetric_u_plus_is_exactly_zero(self):
        wk = np.geomspace(1e-3, 1e3, 10_000)
        u = coupling_pair(SYMMETRIC, wk, 1.0)
        assert np.all(u.u_plus == 0.0)

    def test_symmetric_u_minus_peaks_at_resonance(self):
        wk = np.geomspace(1e-3, 1e3, 10_000)
        u = coupling_pair(SYMMETRIC, wk, 1.0).u_minus
        assert np.all(u <= 1.0)
        assert np.all(u[wk != 1.0] < 1.0)
        assert coupling_pair(SYMMETRIC, 1.0, 1.0).u_minus == 1.0

    def test_sum_identity(self):
        # u_plus + u_minus = 2 (1 - alpha) sqrt(omega_0 / omega_k)
        wk = np.geomspace(1e-2, 1e2, 2000)
        for rep in (COULOMB, POINCARE, SYMMETRIC, ALPHA_03):
            u = coupling_pair(rep, wk, 1.0)
            alpha = _constant_alpha(rep)
            if alpha is None:
                alpha = 1.0 / (wk + 1.0)
            expected = 2.0 * (1.0 - alpha) * np.sqrt(1.0 / wk)
            np.testing.assert_allclose(u.u_plus + u.u_minus, expected,
                                       rtol=1e-13, atol=1e-15)

    def test_on_resonance_u_minus_is_one_for_every_representation(self):
        for rep in (COULOMB, POINCARE, SYMMETRIC, ALPHA_03,
                    GaugeRepresentation.constant(0.77)):
            assert coupling_pair(rep, 2.0, 2.0).u_minus == pytest.approx(
                1.0, abs=1e-15
            )

    def test_custom_endpoints_match_named_representations_bitwise(self):
        wk = np.geomspace(1e-3, 1e3, 10_000)
        for named, alpha in ((COULOMB, 0.0), (POINCARE, 1.0)):
            a = coupling_pair(named, wk, 1.0)
            b = coupling_pair(GaugeRepresentation.constant(alpha), wk, 1.0)
            assert np.array_equal(a.u_plus, b.u_plus)
            assert np.array_equal(a.u_minus, b.u_minus)

    @pytest.mark.parametrize("rep", (COULOMB, POINCARE, ALPHA_03), ids=lambda r: r.name)
    def test_constant_alpha_bits_of_the_out_of_place_arithmetic(self, rep):
        wk, alpha = np.linspace(0.02, 3.0, 2 * _BLOCK + 3), _constant_alpha(rep)
        down = np.sqrt(1.3 / wk) * (1.0 - alpha)
        up = np.sqrt(wk / 1.3) * alpha
        pair = coupling_pair(rep, wk, 1.3)
        assert pair.u_plus.tobytes() == (down - up).tobytes()
        assert pair.u_minus.tobytes() == (down + up).tobytes()
        for i in (0, _BLOCK, 2 * _BLOCK + 2):
            for point in (float(wk[i]), np.float64(wk[i]), np.array(wk[i])):
                got = coupling_pair(rep, point, 1.3)
                assert type(got.u_plus) is float and type(got.u_minus) is float
                assert np.float64(got.u_plus).tobytes() == (down - up)[i].tobytes()
                assert np.float64(got.u_minus).tobytes() == (down + up)[i].tobytes()

    def test_vectorized_matches_pointwise(self):
        # The data-parallel contract: array evaluation is elementwise
        # identical to scalar evaluation.
        wk = np.geomspace(0.1, 10.0, 37)
        for rep in (COULOMB, POINCARE, SYMMETRIC, ALPHA_03):
            batch = coupling_pair(rep, wk, 1.0)
            singles = [coupling_pair(rep, float(w), 1.0) for w in wk]
            assert list(batch.u_plus) == [s.u_plus for s in singles]
            assert list(batch.u_minus) == [s.u_minus for s in singles]


class TestMixing:
    @pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.name)
    @pytest.mark.parametrize("omega_0", [1.0, 2.5])
    def test_is_u_minus_times_sqrt_x(self, rep, omega_0):
        wk = np.geomspace(1e-6, 1e3, 2001)
        want = coupling_pair(rep, wk, omega_0).u_minus * np.sqrt(wk / omega_0)
        np.testing.assert_allclose(mixing(rep, wk, omega_0), want, rtol=1e-14)

    @pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.name)
    def test_is_one_on_shell(self, rep):
        for w in (1e-6, 0.7, 1.0, 3.2, 1e3):
            assert mixing(rep, w, w) == pytest.approx(1.0, abs=1e-15)


class TestParsing:
    @pytest.mark.parametrize("text,kind", [
        ("coulomb", "coulomb"),
        ("POINCARE", "poincare"),
        ("symmetric", "symmetric"),
    ])
    def test_named(self, text, kind):
        assert GaugeRepresentation.parse(text).kind == kind

    def test_alpha_form_round_trips(self):
        for alpha in (0.3, 0.3000001, 1 / 3, 1e-300):
            rep = GaugeRepresentation.parse(f"alpha:{alpha!r}")
            assert rep.kind == "custom" and rep.custom_alpha == alpha
            assert GaugeRepresentation.parse(rep.name) == rep
        names = [GaugeRepresentation.constant(a).name for a in (0, 1.0, 0.3)]
        assert names == ["alpha:0", "alpha:1", "alpha:0.3"]

    @pytest.mark.parametrize("text", ["weyl", "alpha:", "alpha:zz", "alpha:2"])
    def test_rejects_bad_strings(self, text):
        with pytest.raises(DomainError):
            GaugeRepresentation.parse(text)
