import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    ConfigurationError,
    DomainError,
    GaugeRepresentation,
    LambLineScenario,
    LineshapeParams,
    PulseConfig,
    SharpLineScenario,
    Spectrum,
    build_oscillator,
    build_two_level,
    closed_form_amplitude,
    delta_offshell,
    fluorescence_sweep,
    gamma_offshell,
    gamma_onshell,
    lamb_n_factor,
    lamb_rate_sweep,
    lamb_shift,
    lineshape_S,
    lorentzian_reference_spectrum,
    mixing,
    n_factor,
    numerator,
    pulse_spectrum,
    read_spectrum_csv,
    total_shift,
    total_shift_integrand,
    write_spectrum_csv,
)
from lineshape import spectra
from lineshape.spectra import _BLOCK, _lorentzian
from lineshape.verify import _NUMERATOR_TABLE, _built_numerator

from helpers import SWEEPS, charged_oscillator

ALPHA_03 = GaugeRepresentation.constant(0.3)
ALL_REPS = (COULOMB, POINCARE, SYMMETRIC, ALPHA_03)


class TestNumerator:
    @pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.name)
    def test_on_shell_unity(self, rep):
        for w in (1.0, 0.7, 3.2):
            assert numerator(rep, w, w) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_values(self):
        assert numerator(POINCARE, 2.0, 1.0) == pytest.approx(8.0, rel=1e-15)
        assert numerator(SYMMETRIC, 2.0, 1.0) == pytest.approx(32.0 / 9.0,
                                                               rel=1e-15)
        assert numerator(COULOMB, 0.5, 1.0) == pytest.approx(0.5, rel=1e-15)

    @pytest.mark.parametrize("rep", (COULOMB, POINCARE, SYMMETRIC),
                             ids=lambda r: r.name)
    def test_first_principles_route_agrees(self, rep):
        grid = np.linspace(0.05, 5.0, 1000)
        route = np.asarray(numerator(rep, grid, 1.0))
        np.testing.assert_allclose(route, _NUMERATOR_TABLE[rep.kind](grid, 1.0),
                                   rtol=1e-12)
        np.testing.assert_allclose(route, _built_numerator(rep, grid, 1.0),
                                   rtol=1e-12)

    def test_custom_constant_uses_the_construction(self):
        grid = np.linspace(0.05, 5.0, 200)
        np.testing.assert_allclose(
            np.asarray(numerator(ALPHA_03, grid, 1.0)),
            _built_numerator(ALPHA_03, grid, 1.0),
            rtol=1e-14,
        )

    def test_symmetric_stays_exact_far_below_resonance(self):
        # The generic (1 - alpha) + alpha x mixing form is off by ~1e-10
        # here, because 1 - alpha cancels.
        grid = np.geomspace(1e-6, 1.0, 500)
        np.testing.assert_allclose(
            np.asarray(numerator(SYMMETRIC, grid, 1.0)),
            4.0 * grid**3 / (1.0 + grid) ** 2,
            rtol=1e-14,
        )

    def test_symmetric_interpolates_strictly(self):
        grid = np.linspace(0.05, 5.0, 1000)
        grid = grid[np.abs(grid - 1.0) > 1e-9]
        c = np.asarray(numerator(COULOMB, grid, 1.0))
        p = np.asarray(numerator(POINCARE, grid, 1.0))
        s = np.asarray(numerator(SYMMETRIC, grid, 1.0))
        lo, hi = np.minimum(c, p), np.maximum(c, p)
        assert np.all(s > lo) and np.all(s < hi)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            numerator(COULOMB, -1.0, 1.0)


class TestGammaOnshell:
    def test_natural_units_value(self):
        m = build_two_level(1.0, 1.0)
        assert gamma_onshell(m, "e", "g") == pytest.approx(
            1.0 / (3.0 * math.pi), rel=1e-15
        )

    def test_zero_dipole(self):
        m = build_two_level(1.0, 0.0)
        assert gamma_onshell(m, "e", "g") == 0.0

    def test_cubic_frequency_scaling(self):
        a = gamma_onshell(build_two_level(1.0, 1.0), "e", "g")
        b = gamma_onshell(build_two_level(2.0, 1.0), "e", "g")
        assert b / a == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("model,upper,lower", [
        (build_two_level(1.0, 1.0), "e", "g"),
        (build_oscillator(1.0, 1.0, 5), "1", "0"),
        (charged_oscillator(0.8, 2.0, 5, charge=1.3), "2", "1"),
    ])
    def test_route_equivalence(self, model, upper, lower):
        values = [gamma_onshell(model, upper, lower, rep) for rep in ALL_REPS]
        spread = (max(values) - min(values)) / max(values)
        assert spread <= 1e-12

    def test_degenerate_levels_rejected(self):
        m = build_two_level(1.0, 1.0)
        with pytest.raises(DomainError):
            gamma_onshell(m, "g", "e")


class TestGammaOffshell:
    def setup_method(self):
        self.m = build_two_level(1.0, 1.0)
        self.g0 = gamma_onshell(self.m, "e", "g")

    def test_zero_below_threshold(self):
        assert gamma_offshell(-0.5, self.m, COULOMB) == 0.0
        assert gamma_offshell(0.0, self.m, POINCARE) == 0.0

    @pytest.mark.parametrize("w", [0.3, 0.9, 1.7])
    def test_coulomb_linear_poincare_cubic(self, w):
        assert gamma_offshell(w, self.m, COULOMB) == pytest.approx(
            self.g0 * w, rel=1e-12
        )
        assert gamma_offshell(w, self.m, POINCARE) == pytest.approx(
            self.g0 * w**3, rel=1e-12
        )

    def test_symmetric_channel_weight(self):
        w = 1.7
        want = self.g0 * 4.0 * w**3 / (1.0 * (1.0 + w) ** 2)
        assert gamma_offshell(w, self.m, SYMMETRIC) == pytest.approx(
            want, rel=1e-12
        )

    def test_oscillator_opens_second_channel(self):
        osc = build_oscillator(1.0, 1.0, 5)
        # From level 1, energies: channel to 0 opens above 0, to 2 above 2.
        low = gamma_offshell(1.5, osc, COULOMB, state="1")
        high = gamma_offshell(2.5, osc, COULOMB, state="1")
        g10 = gamma_onshell(osc, "1", "0")
        assert low == pytest.approx(g10 * 1.5, rel=1e-12)
        assert high > g10 * 2.5  # upward channel contributes too

    def test_ladder_single_open_channel_is_onshell_width(self):
        ladder = build_oscillator(1.0, 1.0, 4)
        # Level 1 decays only through the single 1->0 channel, so its
        # off-shell width at its own energy is the full on-shell width.
        assert gamma_offshell(1.0, ladder, COULOMB, state="1") == (
            pytest.approx(gamma_onshell(ladder, "1", "0"), rel=1e-12)
        )


class TestShifts:
    def test_delta_offshell_matches_antiderivative(self):
        m = build_two_level(1.0, 1.0)
        omega, cutoff = 1.3, 100.0
        x = omega  # pole of the single e->g channel
        coulomb = (1 / (6 * math.pi**2)) * (
            -cutoff + x * math.log(abs(x / (x - cutoff)))
        )
        poincare = (1 / (6 * math.pi**2)) * (
            -(cutoff**3 / 3 + x * cutoff**2 / 2 + x**2 * cutoff)
            + x**3 * math.log(abs(x / (x - cutoff)))
        )
        assert delta_offshell(omega, m, COULOMB, cutoff) == pytest.approx(
            coulomb, rel=1e-8
        )
        assert delta_offshell(omega, m, POINCARE, cutoff) == pytest.approx(
            poincare, rel=1e-10
        )

    def test_delta_offshell_is_gauge_dependent(self):
        m = build_two_level(1.0, 1.0)
        c = delta_offshell(1.3, m, COULOMB, 100.0)
        p = delta_offshell(1.3, m, POINCARE, 100.0)
        assert abs(c - p) / abs(p) > 0.1

    def test_zero_dipole_shifts_vanish(self):
        m = build_two_level(1.0, 0.0)
        assert delta_offshell(1.3, m, COULOMB, 100.0) == 0.0
        assert lamb_shift(m, "e", 100.0) == 0.0

    def test_cutoff_must_clear_transitions(self):
        m = build_two_level(1.0, 1.0)
        with pytest.raises(ConfigurationError):
            delta_offshell(1.3, m, COULOMB, 0.5)
        with pytest.raises(ConfigurationError):
            total_shift(m, "e", COULOMB, 0.5)

    def test_total_shift_per_mode_invariance_on_oscillator(self):
        osc = build_oscillator(1.0, 1.0, 5)
        modes = np.geomspace(1e-2, 1000.0, 200)
        c = total_shift_integrand(osc, "1", COULOMB, modes)
        p = total_shift_integrand(osc, "1", POINCARE, modes)
        floor = 1e-3 * np.max(np.abs(p))
        denom = np.maximum(np.maximum(np.abs(c), np.abs(p)), floor)
        assert np.max(np.abs(c - p) / denom) <= 1e-10

    def test_total_shift_integrated_agreement_on_oscillator(self):
        osc = build_oscillator(1.0, 1.0, 5)
        c = total_shift(osc, "1", COULOMB, 100.0)
        p = total_shift(osc, "1", POINCARE, 100.0)
        assert c == pytest.approx(p, rel=1e-8)

    def test_total_shift_two_level_disagrees(self):
        m = build_two_level(1.0, 1.0)
        c = total_shift(m, "e", COULOMB, 100.0)
        p = total_shift(m, "e", POINCARE, 100.0)
        assert abs(c - p) / max(abs(c), abs(p)) > 0.5

    def test_total_shift_zero_coupling(self):
        m = build_two_level(1.0, 0.0)
        # Poincare route has no diagonal term left; Coulomb keeps the
        # state-independent quadratic piece, which is not a coupling effect.
        assert total_shift(m, "e", POINCARE, 100.0) == 0.0

    def test_total_shift_other_routes_rejected(self):
        m = build_two_level(1.0, 1.0)
        with pytest.raises(DomainError):
            total_shift(m, "e", SYMMETRIC, 100.0)

    def test_lamb_shift_scales_linearly_with_dipole_squared(self):
        a = lamb_shift(build_two_level(1.0, 1.0), "e", 1000.0)
        b = lamb_shift(build_two_level(1.0, 2.0), "e", 1000.0)
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_lamb_shift_grows_logarithmically_with_cutoff(self):
        osc = build_oscillator(1.0, 1.0, 5)

        def oracle(cutoff):
            total = 0.0
            for tr in osc.transitions_from("1"):
                p2 = osc.momentum(tr.label, "1") ** 2
                coeff = tr.omega * p2 / (6 * math.pi**2)
                total += coeff * math.log(abs((tr.omega + cutoff) / tr.omega))
            return total

        got = lamb_shift(osc, "1", 1e4) - lamb_shift(osc, "1", 1e3)
        want = oracle(1e4) - oracle(1e3)
        assert got == pytest.approx(want, rel=1e-6)
        assert lamb_shift(osc, "1", 1e3) == pytest.approx(oracle(1e3), rel=1e-8)

    def test_lamb_shift_holds_its_closed_form_at_a_large_cutoff(self):
        # omega^3 |r|^2 / (6 pi^2) log|(omega + cutoff)/omega|, omega = -1
        # for the excited level; 9.0e-9 off while the quadrature dropped
        # the sliver at its graded endpoint.
        want = -math.log(1e5 - 1.0) / (6.0 * math.pi**2)
        got = lamb_shift(build_two_level(1.0, 1.0), "e", 1e5)
        assert got == pytest.approx(want, rel=1e-9)


class TestLineshape:
    def test_peak_value(self):
        params = LineshapeParams(rep=COULOMB, omega_eg=1.0, gamma=0.1)
        grid = np.arange(5, 301) / 100.0
        spec = lineshape_S(params, grid)
        peak = spec.values.max()
        assert grid[np.argmax(spec.values)] == 1.0
        assert peak == pytest.approx(2.0 / (math.pi * 0.1), rel=1e-12)

    def test_representation_ratio_off_shell(self):
        grid = np.arange(5, 301) / 100.0
        sp = lineshape_S(LineshapeParams(POINCARE, 1.0, 0.1), grid)
        sc = lineshape_S(LineshapeParams(COULOMB, 1.0, 0.1), grid)
        i = np.where(grid == 2.0)[0][0]
        assert sp.values[i] / sc.values[i] == pytest.approx(4.0, abs=1e-12)

    def test_lamb_shift_moves_the_peak(self):
        grid = np.linspace(0.5, 1.5, 2001)
        spec = lineshape_S(LineshapeParams(COULOMB, 1.0, 0.01,
                                           lamb_shift=0.2), grid)
        assert grid[np.argmax(spec.values)] == pytest.approx(1.2, abs=1e-3)

    def test_vanishes_toward_zero_frequency(self):
        grid = np.array([1e-4, 0.5, 1.0])
        for rep in (COULOMB, POINCARE, SYMMETRIC):
            spec = lineshape_S(LineshapeParams(rep, 1.0, 0.1), grid)
            assert spec.values[0] < 1e-3 * spec.values.max()

    def test_nonnegative_everywhere(self):
        grid = np.geomspace(1e-3, 10.0, 500)
        for rep in ALL_REPS:
            assert np.all(lineshape_S(LineshapeParams(rep, 1.0, 0.1),
                                      grid).values >= 0.0)

    def test_variable_width_flag_changes_the_wings(self):
        grid = np.linspace(0.2, 3.0, 50)
        fixed = lineshape_S(LineshapeParams(POINCARE, 1.0, 0.1), grid)
        varied = lineshape_S(
            LineshapeParams(POINCARE, 1.0, 0.1, variable_width=True), grid
        )
        assert np.all(varied.values >= 0.0)
        assert not np.allclose(fixed.values, varied.values)

    def test_area_reported_in_metadata(self):
        grid = np.linspace(0.5, 1.5, 4001)
        spec = lineshape_S(LineshapeParams(COULOMB, 1.0, 0.01), grid)
        assert np.trapezoid(spec.values, spec.grid) == pytest.approx(1.0, rel=0.05)


class TestSpectrumObject:
    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            Spectrum(grid=np.array([1.0, 1.0]), values=np.array([0.0, 0.0]))

    def test_values_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            Spectrum(grid=np.array([1.0, 2.0]), values=np.array([0.1, -0.1]))

    def test_csv_round_trip(self, tmp_path):
        grid = np.linspace(0.5, 1.5, 7)
        spec = lineshape_S(LineshapeParams(SYMMETRIC, 1.0, 0.1), grid)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        header = path.read_text().splitlines()[0]
        assert header == "omega_k,S,representation,gamma,omega_eg,lamb_shift,cutoff"
        back = read_spectrum_csv(path)
        np.testing.assert_array_equal(back.grid, spec.grid)
        np.testing.assert_array_equal(back.values, spec.values)
        assert back.metadata["representation"] == "symmetric"

    def test_csv_round_trip_is_bitwise_at_the_float_edges(self, tmp_path):
        edges = np.array([5e-324, 2.2250738585072014e-308, 0.1 + 0.2, 1 / 3,
                          1.7976931348623157e308])
        spec = Spectrum(edges, edges[::-1].copy(), {"representation": "5%s%%"},
                        n_factor=-edges)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        back = read_spectrum_csv(path)
        for column in ("grid", "values", "n_factor"):
            assert getattr(back, column).tobytes() == getattr(spec, column).tobytes()
        assert back.metadata["representation"] == "5%s%%"

    def test_no_partial_file_on_success(self, tmp_path):
        grid = np.linspace(0.5, 1.5, 7)
        spec = lineshape_S(LineshapeParams(COULOMB, 1.0, 0.1), grid)
        path = tmp_path / "spec.csv"
        write_spectrum_csv(spec, path)
        assert not (tmp_path / "spec.csv.tmp").exists()


class TestBlockedSweep:
    """Every sweep rejects a fault that lies only beyond its first block,
    with the message of an unblocked check; the block size changes neither
    values nor rejections."""

    GRID = np.linspace(0.02, 3.0, 2 * _BLOCK + 3)

    @staticmethod
    def _rejects(call, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(grid)

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_non_increasing_pair_across_a_block_edge(self, sweep):
        grid = self.GRID.copy()
        grid[_BLOCK] = grid[_BLOCK - 1]
        self._rejects(SWEEPS[sweep][0], grid, "grid must be strictly increasing")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_bad_grid_point_in_the_last_block(self, sweep, bad):
        call, name = SWEEPS[sweep]
        grid = self.GRID.copy()
        grid[-2] = bad
        self._rejects(call, grid, f"{name} must be finite and positive")

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_grid_must_be_one_dimensional(self, sweep):
        call, name = SWEEPS[sweep]
        self._rejects(call, self.GRID[:4].reshape(2, 2), f"{name} must be a 1-d array")

    def test_overflowing_kernel_is_rejected_without_a_warning(self):
        params = LineshapeParams(POINCARE, 1.0, 0.1)
        self._rejects(lambda g: lineshape_S(params, g), [0.5, 1e300],
                      "spectral density must be finite and non-negative")

    def test_spectrum_object_checks_every_block(self):
        values = np.ones_like(self.GRID)
        grid = self.GRID.copy()
        grid[_BLOCK] = grid[_BLOCK - 1]
        with pytest.raises(DomainError, match="grid must be strictly increasing"):
            Spectrum(grid=grid, values=values)
        for bad in (math.nan, math.inf, -1.0):
            values[-2] = bad
            with pytest.raises(DomainError,
                               match="spectral density must be finite and non-negative"):
                Spectrum(grid=self.GRID, values=values)


def _cpus(monkeypatch, count):
    """Let the sweeps see ``count`` CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


class TestTwoWorkers:
    """A sweep of more than one block fills its blocks on two threads when
    two CPUs are there; nothing it returns or raises depends on that."""

    GRID = np.linspace(0.02, 3.0, 3 * _BLOCK + 7)  # 4 blocks: 2 per thread

    def columns(self, sweep):
        spec = SWEEPS[sweep][0](self.GRID)
        return [None if column is None else column.tobytes()
                for column in (spec.values, spec.n_factor)]

    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_two_workers_give_the_bits_of_one(self, sweep, monkeypatch):
        _cpus(monkeypatch, 1)
        one = self.columns(sweep)
        _cpus(monkeypatch, 2)
        for _ in range(5):  # no block may be left unfilled, by either thread
            np.full(2 * self.GRID.size, np.nan)  # leaves nan in freed memory
            assert self.columns(sweep) == one

    def test_concurrent_sweeps_switching_every_microsecond(self, monkeypatch):
        _cpus(monkeypatch, 1)
        one = self.columns("fluorescence")
        _cpus(monkeypatch, 2)
        got = [None] * 3

        def run(k):
            got[k] = self.columns("fluorescence")

        # Three sweeps at once, each with its helper: six threads, two CPUs.
        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [one] * 3

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_lowest_failing_block_raises(self, cpus, monkeypatch):
        _cpus(monkeypatch, cpus)
        called, helper_failed = set(), threading.Event()

        def kernel(w, out, scratch):
            block = int(np.searchsorted(self.GRID, w[0])) // _BLOCK
            called.add(block)
            if block == 2:
                helper_failed.set()
            elif block == 1 and cpus == 2:
                helper_failed.wait(timeout=10)  # fail after the helper has
            if block in (1, 2):
                raise DomainError(f"block {block}")
            out.fill(1.0)

        with pytest.raises(DomainError, match="^block 1$"):
            spectra._sweep(self.GRID, "grid", kernel, {}, 0)
        # Each thread stops at its first failing block.
        assert called == ({0, 1} if cpus == 1 else {0, 1, 2})

    def test_grid_error_comes_before_any_kernel_call(self, monkeypatch):
        _cpus(monkeypatch, 2)
        grid = self.GRID.copy()
        grid[-3] = grid[-4] - 1e-3  # decreasing in the last block only
        calls = []
        with pytest.raises(DomainError, match="^grid must be strictly increasing$"):
            spectra._sweep(grid, "grid", lambda w, out, scratch: calls.append(w),
                           {}, 0)
        assert calls == []

    def test_overflow_on_the_helper_thread_raises_without_a_warning(
            self, monkeypatch):
        _cpus(monkeypatch, 2)
        numerator, threads = spectra._numerator, {}

        def recording(rep, x, out, tmp):
            threads[x[-1] > 1e200] = threading.current_thread()
            return numerator(rep, x, out, tmp)

        monkeypatch.setattr(spectra, "_numerator", recording)
        grid = np.linspace(0.5, 1.5, 2 * _BLOCK)
        grid[-1] = 1e300  # Poincare's x**3 overflows in block 1 only
        TestBlockedSweep._rejects(
            lambda g: lineshape_S(LineshapeParams(POINCARE, 1.0, 0.1), g), grid,
            "spectral density must be finite and non-negative")
        assert threads[False] is threading.main_thread()
        assert threads[True] is not threading.main_thread()

    def test_no_thread_outlives_a_sweep(self, monkeypatch):
        _cpus(monkeypatch, 2)
        before = threading.active_count()
        call = SWEEPS["pulse"][0]
        call(self.GRID)
        assert threading.active_count() == before
        grid = self.GRID.copy()
        grid[-2] = 1e300  # the Lamb line's emission channel closes
        with pytest.raises(DomainError):
            SWEEPS["lamb-line"][0](grid)
        assert threading.active_count() == before


def lorentzian(delta, gamma):
    """The sweeps' in-place Lorentzian on a fresh buffer, scalar or array."""
    delta = np.asarray(delta, dtype=float)
    return _lorentzian(delta, gamma, np.empty_like(delta))


class TestOneRoute:
    """The public point functions and the sweeps share one in-place route
    per formula: scalars, 0-d, 1-d and 2-d inputs give the bits of the
    sweeps' values and n-factor columns at the same points."""

    GRID = np.linspace(0.02, 3.0, 2 * _BLOCK + 3)
    # Both block edges, and enough points that a scalar route through
    # Python's or numpy's scalar ** (libm pow, which misrounds x**2 at
    # about one point in a thousand) would show.
    PICKS = [_BLOCK - 1, _BLOCK, 2 * _BLOCK, *range(0, 2 * _BLOCK + 3, 29)]
    DRIVE = PulseConfig(rabi=1.0, omega_l=0.9)

    def point_function(self, f, picks=PICKS):
        """``f`` on the grid, after checking that a 2-d view of the grid,
        and Python floats and 0-d arrays at ``picks``, give the same bits."""
        whole = f(self.GRID)
        assert f(self.GRID[1:].reshape(2, -1)).tobytes() == whole[1:].tobytes()
        for i in picks:
            for point in (float(self.GRID[i]), np.array(self.GRID[i])):
                assert np.array(f(point)).tobytes() == whole[i].tobytes()
        return whole

    @pytest.mark.parametrize("rep", ALL_REPS, ids=lambda r: r.name)
    def test_point_functions_give_the_bits_of_the_sweeps(self, rep):
        grid, f = self.GRID, self.point_function
        num = f(lambda w: numerator(rep, w, 1.0))
        m = f(lambda w: mixing(rep, w, 1.0))
        assert num.tobytes() == (grid * (m * m)).tobytes()
        lorentz = f(lambda w: lorentzian(w - 1.0, 0.1))
        shifted = f(lambda w: lorentzian(w - 1.0 - 0.01, 0.1))
        spec = lineshape_S(LineshapeParams(rep, 1.0, 0.1, 0.01), grid)
        assert spec.values.tobytes() == (num * shifted).tobytes()
        spec = pulse_spectrum(self.DRIVE, rep, 1.0, 0.1, grid, include_laser=False)
        assert spec.values.tobytes() == (num * lorentz).tobytes()
        spec = lorentzian_reference_spectrum(1.0, 0.1, grid)
        assert spec.values.tobytes() == lorentz.tobytes()

        beta = f(lambda w: closed_form_amplitude(w, self.DRIVE, rep, 1.0, 0.1),
                 self.PICKS[::10])  # it squares nothing
        spec = pulse_spectrum(self.DRIVE, rep, 1.0, 0.1, grid)
        power = beta.real * beta.real + beta.imag * beta.imag
        assert spec.values.tobytes() == (num * (0.1 / (2.0 * math.pi)) * power).tobytes()

        n = f(lambda w: n_factor(rep, w, 1.0))
        spec = fluorescence_sweep(SharpLineScenario(1.0, 1.0, 1.0, 0.1, 1.0, rep), grid)
        assert spec.n_factor.tobytes() == n.tobytes()
        rate = 1.0 * 0.1 * (1.0 * 1.0) / 2.0 * n / ((grid - 1.0) ** 2 + 0.1 * 0.1 / 4.0)
        assert spec.values.tobytes() == rate.tobytes()

        n = f(lambda w: lamb_n_factor(rep, w, 1.0, 4.0))
        spec = lamb_rate_sweep(LambLineScenario(1.0, 1.0, 4.0, 0.6, 1.0, rep), grid)
        assert spec.n_factor.tobytes() == n.tobytes()
        rate = 1.0 * 0.6 * (1.0 * 1.0) / 2.0 * n / ((grid - 1.0) ** 2 + 0.6 * 0.6 / 4.0)
        assert spec.values.tobytes() == rate.tobytes()


@pytest.mark.parametrize("call, points", [
    (lambda g: lineshape_S(LineshapeParams(SYMMETRIC, 1.0, 0.1), g), 301),
    (lambda g: pulse_spectrum(PulseConfig(1.0, 0.9), SYMMETRIC, 1.0, 0.1, g), 2002),
], ids=["lineshape-301", "pulse-2002"])
def test_a_small_grid_allocates_no_block_sized_arena(call, points):
    # Measured peaks: 11.3 KB and 152 KB, 2% and 29% of one _BLOCK-sized
    # float64 array (512 KiB).  An arena of _BLOCK points would add two
    # such arrays to the lineshape and eight to the pulse spectrum.
    grid = np.linspace(0.05, 3.0, points)
    call(grid)
    tracemalloc.start()
    try:
        call(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * _BLOCK


def _outcome(call, grid):
    """The message a sweep rejects ``grid`` with, or the bytes of its columns."""
    try:
        spec = call(grid)
    except DomainError as exc:
        return str(exc)
    return [None if column is None else column.tobytes()
            for column in (spec.grid, spec.values, spec.n_factor)]


_BLOCK_EDGES = [7, 14, 21, 28]  # where a patched block of 7 points starts


@settings(max_examples=300, deadline=None)
@given(sweep=st.sampled_from(sorted(SWEEPS)),
       points=st.integers(0, 30).flatmap(lambda n: st.lists(
           st.floats(0.01, 3.0), min_size=n, max_size=n, unique=True)),
       faults=st.lists(st.tuples(
           st.one_of(st.integers(0, 29), st.sampled_from(_BLOCK_EDGES)),
           # A repeated neighbour, points every sweep rejects, and one so
           # large that the kernels overflow (or the Lamb line's emission
           # channel closes).
           st.sampled_from(["repeat", 0.0, -1.0, math.nan, math.inf, 1e300]),
       ), max_size=2))
def test_block_size_changes_nothing(sweep, points, faults):
    call = SWEEPS[sweep][0]
    grid = np.sort(np.array(points, dtype=float))
    for index, bad in faults:
        if index < grid.size:
            grid[index] = grid[index - 1] if bad == "repeat" else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = _outcome(call, grid)  # a single block at the real size
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectra, "_BLOCK", 7)
            blocked = _outcome(call, grid)
    assert blocked == whole
