import math
import warnings

import numpy as np
import pytest

from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    ConfigurationError,
    DomainError,
    GaugeRepresentation,
    LineshapeParams,
    PulseConfig,
    closed_form_amplitude,
    excited_amplitude_during_pulse,
    integrate_dynamics,
    lineshape_S,
    lorentzian_reference_spectrum,
    pulse_spectrum,
)
from lineshape import dynamics
from lineshape.cli import main
from lineshape.dynamics import _mode_weights
from lineshape.pulse import _drive, _kernel_parts, _zero_locus_on_grid
from lineshape.representations import coupling_pair
from lineshape.spectra import _BLOCK, _scratch, numerator
from lineshape.verify import _resonant_amplitude, check_ode_oracle

from helpers import SWEEPS, assert_blocks_are_seamless, full_rhs

OMEGA0 = 1.0
GAMMA = 0.1
RESONANT = PulseConfig(rabi=1.0, omega_l=OMEGA0)
ALL_REPS = (COULOMB, POINCARE, SYMMETRIC, GaugeRepresentation.constant(0.3))
# A weak blue-detuned drive, coupled through a fixed mixture.
WEAK = (PulseConfig(rabi=0.3, omega_l=1.2), GaugeRepresentation.constant(0.4))


def rk4_fixed(rhs, y0, t0: float, t1: float, steps: int) -> np.ndarray:
    """Classical fixed-step RK4; regression cross-check for the adaptive path."""
    y = np.array(y0, dtype=complex)
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def ground_amplitude_during_pulse(t, config: PulseConfig,
                                  rep: GaugeRepresentation, omega_0: float):
    """Ground amplitude inside the pulse window, the unitary partner of
    ``excited_amplitude_during_pulse``:

    b_g(t) = (cos tau + i (delta_l/mu) sin tau) exp(-i delta_l (t + T)/2),
    tau = (mu/2)(t + T), T = pi/Omega.
    """
    t = np.asarray(t, dtype=float)
    T = config.duration
    u_l = coupling_pair(rep, config.omega_l, omega_0).u_minus
    delta_l = omega_0 - config.omega_l
    mu = math.hypot(config.rabi * u_l, delta_l)
    tau = 0.5 * mu * (t + T)
    return (np.cos(tau) + 1j * (delta_l / mu) * np.sin(tau)) * np.exp(
        -1j * delta_l * (t + T) / 2.0
    )


class TestConfig:
    def test_rectangular_duration(self):
        cfg = PulseConfig(rabi=2.0, omega_l=1.0)
        assert cfg.duration == math.pi / 2.0

    def test_rejects_nonpositive_rabi(self):
        with pytest.raises(DomainError):
            PulseConfig(rabi=0.0, omega_l=1.0)

    def test_resonant_coupling_is_representation_independent(self):
        for rep in ALL_REPS:
            assert _drive(RESONANT, rep, OMEGA0)[0] == (
                pytest.approx(1.0, abs=1e-15)
            )


class TestDuringPulse:
    def test_starts_from_zero(self):
        cfg = RESONANT
        assert excited_amplitude_during_pulse(-cfg.duration, cfg, SYMMETRIC,
                                              OMEGA0) == 0.0

    def test_full_inversion_phase(self):
        value = excited_amplitude_during_pulse(0.0, RESONANT, SYMMETRIC, OMEGA0)
        assert value == pytest.approx(-1j, abs=1e-15)

    def test_amplitude_bound(self):
        cfg = PulseConfig(rabi=1.0, omega_l=0.8)  # detuned
        t = np.linspace(-cfg.duration, 0.0, 300)
        u_l = coupling_pair(COULOMB, cfg.omega_l, OMEGA0).u_minus
        mu = math.hypot(cfg.rabi * u_l, OMEGA0 - cfg.omega_l)
        b = excited_amplitude_during_pulse(t, cfg, COULOMB, OMEGA0)
        assert np.all(np.abs(b) <= cfg.rabi * u_l / mu + 1e-15)

    def test_outside_window_rejected(self):
        with pytest.raises(DomainError):
            excited_amplitude_during_pulse(0.5, RESONANT, SYMMETRIC, OMEGA0)

    def test_closed_pair_is_unitary(self):
        cfg = PulseConfig(rabi=1.0, omega_l=0.85)
        t = np.linspace(-cfg.duration, 0.0, 200)
        bg = ground_amplitude_during_pulse(t, cfg, SYMMETRIC, OMEGA0)
        be = excited_amplitude_during_pulse(t, cfg, SYMMETRIC, OMEGA0)
        np.testing.assert_allclose(np.abs(bg) ** 2 + np.abs(be) ** 2, 1.0,
                                   atol=1e-14)


def _lhopital_pulse_term(d0: float, rabi: float) -> complex:
    """Pulse term of the resonant form at a removable point delta_k = d0 =
    +/- rabi/2, by l'Hopital on numerator/denominator written out
    independently."""

    def num(d):
        return 2.0 * (rabi * np.exp(1j * math.pi * d / rabi) - 2j * d)

    def den(d):
        return rabi**2 - 4.0 * d**2

    h = 1e-6
    dnum = (num(d0 + h) - num(d0 - h)) / (2 * h)
    dden = (den(d0 + h) - den(d0 - h)) / (2 * h)
    return dnum / dden


class TestClosedForm:
    def test_reduces_to_resonant_form_including_singular_points(self):
        delta = (np.arange(0, 1001) - 500) / 100.0  # hits +/- 0.5 exactly
        wk = OMEGA0 - delta
        general = closed_form_amplitude(wk, RESONANT, SYMMETRIC, OMEGA0, GAMMA)
        reduced = _resonant_amplitude(wk, 1.0, OMEGA0, GAMMA)
        np.testing.assert_allclose(general, reduced, rtol=1e-12)

    def test_singular_point_matches_derivative_oracle(self):
        rabi = 1.0
        d0 = rabi / 2.0
        oracle = _lhopital_pulse_term(d0, rabi)
        tail = 1.0 / (1j * d0 + GAMMA / 2.0)
        got = _resonant_amplitude(OMEGA0 - d0, rabi, OMEGA0, GAMMA)
        assert got == pytest.approx(tail + (-1j) * oracle, rel=1e-9)
        # The analytic limit itself: (pi + 2i) / (2 rabi).
        assert oracle == pytest.approx((math.pi + 2j) / (2 * rabi), rel=1e-9)

    def test_large_rabi_leaves_only_the_lorentzian_tail(self):
        wk = OMEGA0 - 0.3
        big = PulseConfig(rabi=1e6, omega_l=OMEGA0)
        beta = closed_form_amplitude(wk, big, COULOMB, OMEGA0, GAMMA)
        tail = 1.0 / (1j * 0.3 + GAMMA / 2.0)
        assert abs(beta - tail) < 3.0 / 1e6

    def test_offresonant_pulse_depends_on_laser_coupling(self):
        cfg = PulseConfig(rabi=1.0, omega_l=0.9)
        wk = np.linspace(0.5, 1.5, 11)
        a = closed_form_amplitude(wk, cfg, COULOMB, OMEGA0, GAMMA)
        b = closed_form_amplitude(wk, cfg, POINCARE, OMEGA0, GAMMA)
        assert not np.allclose(a, b)
        # but modest even for a 10% detuned drive
        assert np.max(np.abs(a - b) / np.abs(a)) < 0.2

    def test_detuned_amplitude_continuous_through_zero_locus(self):
        # For delta_l != 0 the singular locus moves; sweep densely through
        # it and require a smooth curve (no spikes).
        cfg = PulseConfig(rabi=1.0, omega_l=0.8)
        wk = np.linspace(0.2, 1.9, 20_001)
        beta = closed_form_amplitude(wk, cfg, SYMMETRIC, OMEGA0, GAMMA)
        assert np.all(np.isfinite(beta.view(float)))
        # Away from the Lorentzian peak (where the curve is legitimately
        # steep) successive samples must stay close: the singular-locus
        # crossings near omega_k = 0.39 and 1.41 leave no spikes.
        away = np.abs(wk - OMEGA0)[:-1] > 0.25
        jumps = np.abs(np.diff(beta))[away]
        assert jumps.max() < 5e-3


def kernel_parts(P, theta):
    """``_kernel_parts`` into fresh buffers, leaving ``P`` as it was."""
    return _kernel_parts(np.array(P, dtype=float), theta, _scratch(np.shape(P), 6))


class TestBranchFreeKernel:
    DETUNED = PulseConfig(rabi=1.0, omega_l=0.9)

    def test_blocking_leaves_the_spectrum_bitwise_unchanged(self):
        # Every sweep, the pulse spectrum's two branches among them.
        grid = np.linspace(0.02, 3.0, 2 * _BLOCK + 3)
        for call, _ in SWEEPS.values():
            assert_blocks_are_seamless(call, grid)

    def test_amplitude_keeps_scalar_and_2d_shapes(self):
        wk = np.linspace(0.2, 1.9, 12).reshape(3, 4)
        beta = closed_form_amplitude(wk, self.DETUNED, COULOMB, OMEGA0, GAMMA)
        assert beta.shape == (3, 4) and beta.dtype == complex
        flat = closed_form_amplitude(wk.ravel(), self.DETUNED, COULOMB,
                                     OMEGA0, GAMMA)
        np.testing.assert_array_equal(beta.ravel(), flat)
        one = closed_form_amplitude(float(wk[1, 2]), self.DETUNED, COULOMB,
                                    OMEGA0, GAMMA)
        assert type(one) is complex
        assert one == pytest.approx(flat[6], rel=1e-15)

    @pytest.mark.parametrize("theta", [0.3, math.pi / 2, 5.0])
    def test_kernel_is_conjugate_symmetric(self, theta):
        P = np.concatenate((np.linspace(0.0, 20.0, 4001), [theta]))
        re_p, im_p = kernel_parts(P, theta)
        re_m, im_m = kernel_parts(-P, theta)
        np.testing.assert_allclose(re_m, re_p, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(im_m, -im_p, rtol=1e-15, atol=0.0)

    def test_removable_points_are_exact(self):
        # Resonant pi-pulse: theta = pi/2 and P = pi delta_k, so omega_k =
        # omega_0 -/+ rabi/2 gives P = +/- theta exactly (h == 0).
        theta = math.pi / 2
        re, im = kernel_parts(np.array([theta, -theta]), theta)
        assert np.all(np.isfinite(re)) and np.all(np.isfinite(im))
        for d0 in (0.5, -0.5):
            tail = 1.0 / (1j * d0 + GAMMA / 2.0)
            want = tail + (-1j) * _lhopital_pulse_term(d0, 1.0)
            got = closed_form_amplitude(OMEGA0 - d0, RESONANT, SYMMETRIC,
                                        OMEGA0, GAMMA)
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("theta, bound", [
        (0.5 * _drive(config, rep, OMEGA0)[2] * config.duration, 1e-15)
        for config, rep in ((RESONANT, COULOMB),
                            (PulseConfig(rabi=1.0, omega_l=0.9), COULOMB), WEAK)
    ] + [(0.3, 1e-14), (3.2, 1e-14)],
        ids=["resonant", "detuned", "weak", "theta-0.3", "theta-3.2"])
    def test_kernel_matches_an_80_digit_oracle(self, theta, bound):
        # K(P) = [e^{iP} - cos theta - i (P/theta) sin theta]/(theta^2 - P^2)
        # at the theta of each drive, and at 0.3 and 3.2 (near pi) where
        # sin(theta)/theta - s cos(phi) cancels, its limit at P = +/- theta
        # taken by l'Hopital.  Forty digits do not resolve P = theta +/- 1e-6.
        rng = np.random.default_rng(12)
        P = np.concatenate((
            rng.uniform(-10.0, 10.0, 900), rng.uniform(-1e3, 1e3, 90),
            [0.0, theta, -theta], theta + np.array([1e-6, -1e-6]),
            -theta + np.array([1e-6, -1e-6]),
        ))
        re, im = kernel_parts(P, theta)
        import mpmath

        with mpmath.workdps(80):
            th = mpmath.mpf(theta)
            worst = 0.0
            for p, k_re, k_im in zip(map(mpmath.mpf, P.tolist()), re.tolist(),
                                     im.tolist()):
                if abs(p) == th:
                    want = 1j * (mpmath.exp(1j * p) - mpmath.sin(th) / th) / (-2 * p)
                else:
                    want = (mpmath.exp(1j * p) - mpmath.cos(th)
                            - 1j * (p / th) * mpmath.sin(th)) / (th**2 - p**2)
                err = abs(mpmath.mpc(k_re, k_im) - want) / abs(want)
                worst = max(worst, float(err))
        assert worst <= bound

    def test_kernels_call_neither_sin_nor_cos(self, monkeypatch):
        # numpy evaluates float64 sin and cos with scalar libm calls; the
        # pulse kernel gets both from one vectorised tan instead.
        def scalar_trig(*args, **kwargs):
            raise AssertionError("np.sin/np.cos on the pulse kernel path")

        monkeypatch.setattr(np, "sin", scalar_trig)
        monkeypatch.setattr(np, "cos", scalar_trig)
        grid = np.linspace(0.02, 3.0, 2 * _BLOCK + 3)
        for config in (RESONANT, self.DETUNED):
            spectrum = pulse_spectrum(config, SYMMETRIC, OMEGA0, GAMMA, grid)
            assert np.all(np.isfinite(spectrum.values))
            beta = closed_form_amplitude(grid, config, COULOMB, OMEGA0, GAMMA)
            assert np.all(np.isfinite(beta.view(float)))

    @pytest.mark.parametrize("config, rep", [
        (RESONANT, SYMMETRIC),
        (PulseConfig(rabi=1.0, omega_l=0.8), SYMMETRIC),
        WEAK,
    ], ids=["resonant", "detuned", "weak"])
    @pytest.mark.parametrize("lo, hi", [
        (0.5, 1.2), (0.8, 1.5),       # one end on the resonant locus
        (0.9, 1.1), (1.6, 2.0),       # inside the locus, beyond it
        (0.02, 3.0), (1.0, 1.0),      # across it, one frequency
    ])
    def test_zero_locus_agrees_with_the_full_grid_test(self, config, rep, lo,
                                                       hi):
        grid = np.linspace(lo, hi, 501)
        u_l = coupling_pair(rep, config.omega_l, OMEGA0).u_minus
        delta_l = OMEGA0 - config.omega_l
        delta_k = OMEGA0 - grid
        D = (config.rabi * u_l) ** 2 + 4.0 * delta_k * (delta_l - delta_k)
        want = bool(np.any(D <= 0.0))
        drive = _drive(config, rep, OMEGA0)
        assert _zero_locus_on_grid(config, drive, OMEGA0, grid) is want
        if config is RESONANT:
            assert want is (lo <= 0.5 or hi >= 1.5)


class TestGammaDomain:
    """gamma that is not finite and positive is rejected up front, with
    lineshape_S's message and no numpy warning."""

    MESSAGE = "gamma must be finite and positive"
    GRID = np.linspace(0.5, 1.5, 11)

    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("extra", [[], ["--include-reference"]],
                             ids=["spectra", "with-reference"])
    def test_cli_exits_3_with_one_line(self, gamma, extra, tmp_path, capsys):
        argv = ["pulse", "--rabi", "1", f"--gamma={gamma}", "--omega-0", "1",
                "--grid", "0.5,1.5,11", "--reps", "coulomb",
                "--out-dir", str(tmp_path), *extra]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 0.0, -0.1,
                                       pytest.param(10**400, id="huge-int")])
    def test_library_rejects_before_computing(self, gamma):
        calls = [
            lambda: closed_form_amplitude(0.7, RESONANT, COULOMB, OMEGA0,
                                          gamma),
            lambda: pulse_spectrum(RESONANT, COULOMB, OMEGA0, gamma,
                                   self.GRID),
            lambda: lorentzian_reference_spectrum(OMEGA0, gamma, self.GRID),
            lambda: integrate_dynamics(RESONANT, COULOMB, OMEGA0, gamma,
                                       self.GRID),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match=self.MESSAGE):
                    call()


class TestDynamicsDomain:
    """integrate_dynamics rejects bad scalars and mode grids with
    DomainError before any stepping and without a numpy warning."""

    GRID = np.linspace(0.5, 1.5, 11)

    def _rejects(self, monkeypatch, match, modes=(), **options):
        def no_stepping(*args):
            raise AssertionError("the integrator ran")

        monkeypatch.setattr(dynamics, "_dop853", no_stepping)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA, modes,
                                   **options)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("back_reaction", [False, True])
    def test_rejects_non_finite_mode(self, bad, back_reaction, monkeypatch):
        self._rejects(monkeypatch, "mode grid must be a finite 1-d array",
                      [0.5, bad, 1.5],
                      include_field_during_pulse=back_reaction)

    @pytest.mark.parametrize("name,value", [
        ("gamma", "0.1"), ("gamma", np.array([0.1, 0.2])), ("omega_0", "1"),
        ("omega_0", True),
    ], ids=str)
    def test_rejects_scalars_that_are_not_real(self, name, value, monkeypatch):
        scalars = {"omega_0": OMEGA0, "gamma": GAMMA, name: value}
        message = f"^{name} must be a real number"
        monkeypatch.setattr(dynamics, "_dop853", None)  # never reached
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                integrate_dynamics(RESONANT, SYMMETRIC, mode_grid=self.GRID,
                                   include_field_during_pulse=True, **scalars)
            if name in ("omega_0", "gamma"):
                with pytest.raises(DomainError, match=message):
                    closed_form_amplitude(0.7, RESONANT, COULOMB, **scalars)

    def test_rejects_2d_mode_grid(self, monkeypatch):
        self._rejects(monkeypatch, "mode grid must be a finite 1-d array",
                      self.GRID.reshape(1, -1))

    def test_non_positive_modes_allowed_without_back_reaction(self):
        modes = np.array([-1.0, 0.0, 0.5])
        traj = integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA, modes)
        beta = closed_form_amplitude(modes, RESONANT, SYMMETRIC, OMEGA0, GAMMA)
        assert np.max(np.abs(traj.beta_final - beta) / np.abs(beta)) < 1e-6


class TestRabiDomain:
    """A Rabi frequency so small that the squared pulse duration pi/rabi
    overflows is rejected with DomainError, not an OverflowError."""

    MESSAGE = r"rabi amplitude is too small: \(pi/rabi\)\*\*2 overflows"

    def test_cli_exits_3_with_one_line(self, tmp_path, capsys):
        argv = ["pulse", "--rabi", "1e-200", "--gamma", "0.1",
                "--out-dir", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: rabi amplitude is too small")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rabi", [1e-200, 5e-324, np.float64(2e-154)])
    def test_library_rejects(self, rabi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=self.MESSAGE):
                pulse_spectrum(PulseConfig(rabi=rabi, omega_l=OMEGA0), COULOMB,
                               OMEGA0, GAMMA, np.linspace(0.5, 1.5, 11))

    def test_smallest_accepted_rabi_stays_finite(self):
        # Just above the bound the closed forms still run warning-free.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = pulse_spectrum(PulseConfig(rabi=2.4e-154, omega_l=OMEGA0),
                                  COULOMB, OMEGA0, GAMMA,
                                  np.array([0.5, 1.0, 1.5]))
        assert np.all(np.isfinite(spec.values))


class TestDrivePhaseDomain:
    """A drive whose phase mu pi/Omega overflows, mu = hypot(Omega u_l,
    delta_l), is rejected with DomainError, not a math domain error from
    the sine of an infinite phase."""

    MESSAGE = r"drive phase mu\*pi/rabi must be finite"

    def test_cli_exits_3_with_one_line(self, tmp_path, capsys):
        argv = ["pulse", "--rabi", "1", "--gamma", "0.1", "--omega-0", "1.7e308",
                "--omega-l", "1", "--reps", "coulomb", "--out-dir", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: drive phase") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("call", [
        lambda config: closed_form_amplitude(1.0, config, COULOMB, 1.7e308, GAMMA),
        lambda config: pulse_spectrum(config, COULOMB, 1.7e308, GAMMA, [0.5, 1.5]),
        lambda config: excited_amplitude_during_pulse(-1.0, config, COULOMB, 1.7e308),
    ], ids=["closed_form_amplitude", "pulse_spectrum", "excited_amplitude_during_pulse"])
    @pytest.mark.parametrize("rabi", [1.0, np.float64(1.0)], ids=["float", "float64"])
    def test_library_rejects(self, call, rabi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=self.MESSAGE):
                call(PulseConfig(rabi=rabi, omega_l=1.0))


class TestDynamics:
    def test_trajectory_matches_closed_form_pointwise(self):
        for cfg, rep in ((RESONANT, SYMMETRIC),
                         (PulseConfig(rabi=1.0, omega_l=0.7), COULOMB)):
            traj = integrate_dynamics(cfg, rep, OMEGA0, GAMMA)
            want = excited_amplitude_during_pulse(traj.times, cfg, rep, OMEGA0)
            assert np.max(np.abs(traj.b_e - want)) < 1e-8

    def test_long_time_modes_match_closed_form(self):
        modes = OMEGA0 - np.linspace(-5.0, 5.0, 41)
        traj = integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA, modes)
        beta = closed_form_amplitude(modes, RESONANT, SYMMETRIC, OMEGA0, GAMMA)
        rel = np.abs(traj.beta_final - beta) / np.abs(beta)
        assert rel.max() < 1e-6

    @pytest.mark.parametrize("rabi,omega_l", [
        (1.0, 0.5),   # half-resonant drive
        (2.5, 0.8),   # strong fast pulse
        (0.4, 1.3),   # weak blue-detuned pulse
    ])
    def test_closed_form_holds_at_strong_detuning(self, rabi, omega_l):
        cfg = PulseConfig(rabi=rabi, omega_l=omega_l)
        for rep in (SYMMETRIC, COULOMB, GaugeRepresentation.constant(0.3)):
            modes = OMEGA0 - np.linspace(-5.0 * rabi, 5.0 * rabi, 61)
            traj = integrate_dynamics(cfg, rep, OMEGA0, GAMMA, modes)
            beta = closed_form_amplitude(modes, cfg, rep, OMEGA0, GAMMA)
            rel = np.abs(traj.beta_final - beta) / np.abs(beta)
            assert rel.max() < 1e-9, rep.name

    def test_unitarity_along_trajectory(self):
        traj = integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA)
        norm = np.abs(traj.b_g) ** 2 + np.abs(traj.b_e) ** 2
        assert np.max(np.abs(norm - 1.0)) < 1e-9

    def test_fixed_step_cross_check(self):
        # Classical RK4 at fixed step vs the adaptive integrator.
        cfg = RESONANT
        u_l = coupling_pair(SYMMETRIC, cfg.omega_l, OMEGA0).u_minus

        def rhs(t, y):
            drive = 0.5 * cfg.rabi * u_l
            return np.array([-1j * drive * y[1], -1j * drive * y[0]])

        y = rk4_fixed(rhs, np.array([1.0, 0.0], dtype=complex),
                      -cfg.duration, 0.0, 2000)
        y_half = rk4_fixed(rhs, np.array([1.0, 0.0], dtype=complex),
                           -cfg.duration, 0.0, 4000)
        assert abs(y[1] - (-1j)) < 1e-10
        assert abs(y[1] - y_half[1]) < 1e-11
        traj = integrate_dynamics(cfg, SYMMETRIC, OMEGA0, GAMMA)
        assert abs(traj.b_e[-1] - y[1]) < 1e-9

    def test_counter_rotating_terms_are_small_but_nonzero(self):
        # Retaining the u_plus drive path changes the endpoint only a little.
        cfg = RESONANT
        with_rwa = integrate_dynamics(cfg, COULOMB, OMEGA0, GAMMA)
        without = integrate_dynamics(cfg, COULOMB, OMEGA0, GAMMA, rwa=False)
        dev = abs(without.b_e[-1] - with_rwa.b_e[-1])
        assert 0.0 < dev < 0.2
        norm = np.abs(without.b_g) ** 2 + np.abs(without.b_e) ** 2
        assert np.max(np.abs(norm - 1.0)) < 1e-9  # still unitary

    def test_field_back_reaction_produces_decay(self):
        # Beyond-closed-form check: with the modes retained, the excited
        # amplitude decays roughly exponentially after the pulse.
        gamma = 0.2
        modes = np.linspace(0.05, 3.0, 240)
        traj = integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, gamma, modes,
                                  include_field_during_pulse=True)
        assert traj.post_times is not None
        mid = np.searchsorted(traj.post_times, 5.0)
        expect = math.exp(-gamma * traj.post_times[mid] / 2.0)
        assert abs(traj.post_b_e[mid]) == pytest.approx(expect, rel=0.2)

    def test_trajectory_carries_the_step_counts(self):
        traj = integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA,
                                  np.linspace(0.5, 1.5, 81))
        assert traj.ode_stats == {"nfev": 167, "accepted_steps": 11,
                                  "rejected_steps": 0}

    def test_trajectory_csv_schema(self, tmp_path):
        traj = integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,re_bg0,im_bg0,re_be0,im_be0"
        assert len(lines) == len(traj.times) + 1

    def test_rejects_non_finite_omega_0(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="omega_0 must be finite and positive"):
                integrate_dynamics(RESONANT, SYMMETRIC, math.inf, GAMMA,
                                   [0.5, 1.0])


# The benchmark's 81-mode case and the 240-mode case of
# test_field_back_reaction_produces_decay.
BACK_REACTION_CASES = {
    "81_modes": (np.linspace(0.5, 1.5, 81), 0.1),
    "240_modes": (np.linspace(0.05, 3.0, 240), 0.2),
}


def _back_reaction(case, modes=None):
    grid, gamma = BACK_REACTION_CASES[case]
    grid = grid if modes is None else modes
    traj = integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, gamma, grid,
                              include_field_during_pulse=True)
    return traj, _mode_weights(grid, SYMMETRIC, OMEGA0, gamma)


class TestExactDecay:
    """The field-free t >= 0 phase with the modes retained is propagated
    exactly; DOP853 at tight tolerance is the independent reference."""

    @pytest.mark.parametrize("case", sorted(BACK_REACTION_CASES))
    def test_post_phase_matches_tight_ode(self, case):
        from scipy.integrate import solve_ivp

        traj, weights = _back_reaction(case)
        delta = OMEGA0 - traj.mode_grid

        def rhs(t, y):
            osc = np.exp(-1j * delta * t)
            dy = np.empty_like(y)
            dy[0] = -np.sum(weights * y[1:] / osc)
            dy[1:] = osc * y[0]
            return dy

        y0 = np.concatenate(([traj.b_e[-1]], traj.beta_pulse_end))
        ref = solve_ivp(rhs, (0.0, traj.post_times[-1]), y0, method="DOP853",
                        t_eval=traj.post_times, rtol=1e-13, atol=1e-15)
        assert ref.success
        assert np.max(np.abs(traj.post_b_e - ref.y[0])) <= 1e-12
        beta_ref = ref.y[1:, -1]
        rel = np.abs(traj.beta_final - beta_ref) / np.abs(beta_ref)
        assert rel.max() <= 1e-11

    @pytest.mark.parametrize("case", sorted(BACK_REACTION_CASES))
    def test_post_phase_conserves_probability(self, case):
        # |b_e|^2 + sum_k w_k |y_k|^2 is invariant once the drive is off.
        traj, weights = _back_reaction(case)
        start = (abs(traj.b_e[-1]) ** 2
                 + np.sum(weights * np.abs(traj.beta_pulse_end) ** 2))
        end = (abs(traj.post_b_e[-1]) ** 2
               + np.sum(weights * np.abs(traj.beta_final) ** 2))
        assert abs(end - start) <= 1e-13
        assert traj.post_b_e[0] == pytest.approx(traj.b_e[-1], abs=1e-15)

    def test_decreasing_mode_grid_decays_like_increasing(self):
        up, _ = _back_reaction("240_modes")
        grid = BACK_REACTION_CASES["240_modes"][0]
        down, weights = _back_reaction("240_modes", grid[::-1])
        assert np.all(weights > 0.0)
        assert np.max(np.abs(down.post_b_e - up.post_b_e)) <= 1e-12
        rel = np.abs(down.beta_final[::-1] - up.beta_final) / np.abs(up.beta_final)
        assert rel.max() <= 1e-11

    @pytest.mark.parametrize("modes", [
        [0.8, 1.2, 1.0],        # not monotonic
        [0.8, 1.0, 1.0, 1.2],   # repeated frequency
        [1.0],                  # a single mode has no spacing
    ])
    def test_rejects_unordered_or_repeated_modes(self, modes):
        with pytest.raises(DomainError):
            integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA, modes,
                               include_field_during_pulse=True)


class CountedDrive:
    """A drive D(t) that counts the stepper's calls and stops a runaway
    stepper.  The stepper asks once per step attempt, for all 16 stage
    times, after two single-time calls for its first step; so the calls a
    full right-hand side would take are at most 2 + 15 * (calls - 2)."""

    LIMIT = 10_000

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, times):
        self.calls += 1
        if self.calls > self.LIMIT:
            raise AssertionError("the stepper did not stop")
        return np.array([self.f(t) for t in times.tolist()], dtype=complex)

    @property
    def rhs_calls(self):
        return 2 + 15 * (self.calls - 2)


class TestStepperStops:
    """The in-package DOP853 raises ConfigurationError, within a bounded
    number of right-hand-side calls, instead of looping."""

    Y0 = np.array([1.0 + 0.0j, 0.5j])

    def _fails(self, f, match, t0=0.0, t1=1.0, rtol=1e-10, atol=1e-12):
        drive = CountedDrive(f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=match):
                dynamics._dop853(drive, (), None, t0, t1, self.Y0,
                             np.linspace(t0, t1, 11), rtol, atol)
        return drive

    def test_rhs_turning_nan_partway(self):
        drive = self._fails(lambda t: math.nan if t > 0.5 else 1.0, "not finite")
        assert drive.rhs_calls < 1000

    def test_tolerance_below_rounding(self):
        drive = self._fails(lambda t: 1.0, "not finite|less than rounding",
                            rtol=1e-300, atol=1e-300)
        assert drive.rhs_calls < 1000

    @pytest.mark.parametrize("tol", [1e-23, 1e-30])
    def test_tolerance_below_rounding_does_not_crawl(self, tol):
        # Below rounding the error estimate is noise: without the check the
        # stepper crawls on with tiny steps that noise happens to accept.
        drive = self._fails(lambda t: 1.0, "less than rounding", rtol=tol,
                            atol=tol)
        assert drive.rhs_calls < 1000

    def test_step_size_underflow(self):
        # D = 1/t: the Rabi phase, log|t|, diverges at t = 0, where t keeps
        # its full precision, so the steps shrink until they underflow.
        drive = self._fails(lambda t: 1.0 / t, "step size fell below",
                            t0=-1.0, t1=1.0)
        assert drive.rhs_calls < 20_000

    def test_stage_times_rounding_coarser_than_the_step(self):
        # D = 1/(1 - t): near t = 1 the steps shrink toward the rounding of
        # t itself, so the stage times t + c h are off by more than rtol h
        # and the error estimate turns to noise that some steps pass.
        drive = self._fails(lambda t: 1.0 / (1.0 - t), "stage times t \\+ c h round",
                            t1=2.0)
        assert drive.calls < 2000

    def test_step_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_STEPS", 20)
        drive = self._fails(lambda t: 1.0, "after 20 steps", t1=100.0)
        assert drive.calls == 2 + 20  # one attempt per step: none rejected

    def test_integrate_dynamics_raises_on_unmet_tolerance(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_RTOL", 1e-300)
        monkeypatch.setattr(dynamics, "_ATOL", 1e-300)
        with pytest.raises(ConfigurationError):
            integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA)


def _assert_matches_solve_ivp(args, result):
    """``dynamics._dop853(*args)`` gave ``result``: scipy's DOP853 on the full
    right-hand side takes the same nfev and gives the same atom samples and
    modes at t1 (when the last sample is t1), to 1e-10.  Returns the step
    counts."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    drive, delta, weights, t0, t1, y0, t_eval, rtol, atol = args
    atom, modes, stats = result
    ref = solve_ivp(full_rhs(drive, delta, weights), (t0, t1), y0,
                    method="DOP853", t_eval=t_eval, rtol=rtol, atol=atol)
    assert ref.success
    assert stats["nfev"] == ref.nfev
    assert np.array_equal(ref.t, t_eval)
    assert atom.shape == (2, len(t_eval)) and modes.shape == (len(y0) - 2,)
    assert np.max(np.abs(atom - ref.y[:2])) <= 1e-10
    if t_eval[-1] == t1:
        assert np.max(np.abs(modes - ref.y[2:, -1]), initial=0.0) <= 1e-10
    return stats


class TestScipyCrossCheck:
    """The in-package DOP853 is scipy's: same tableau doubles, and on the
    same system, as one full right-hand side, the same samples (to 1e-10)
    and the same nfev."""

    def test_tableau_is_scipy_bit_for_bit(self):
        coefficients = pytest.importorskip(
            "scipy.integrate._ivp.dop853_coefficients")
        for name in ("A", "B", "C", "D", "E3", "E5"):
            ours, theirs = getattr(dynamics, name), getattr(coefficients, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes(), name

    def test_complex_tables_keep_the_tableau_doubles(self):
        # Stored complex for the stage products, with the doubles of A, E5
        # and E3 as real parts and +0.0 as imaginary parts.
        for s, row in enumerate(dynamics._ROWS):
            nonzero = [(j, a) for j, a in enumerate(dynamics.A[s, :s].tolist()) if a]
            assert [j for j, _ in row] == [j for j, _ in nonzero]
            for (_, a), (_, want) in zip(row, nonzero):
                assert (a.real.hex(), a.imag.hex()) == (want.hex(), "0x0.0p+0")
        rows = dynamics._STEP_ROWS
        want = np.array([dynamics.A[12, :13], dynamics.E5, dynamics.E3])
        assert rows.real.tobytes() == want.tobytes()
        assert rows.imag.tobytes() == np.zeros_like(want).tobytes()
        # CPython multiplies a float by a complex as that complex product.
        rng = np.random.default_rng(3)
        for a, z in zip(rng.normal(size=200).tolist(),
                        (rng.normal(size=200) + 1j * rng.normal(size=200)).tolist()):
            assert repr(a * z) == repr(complex(a) * z)  # bit for bit

    def test_feed_at_the_nonzero_entries_is_the_full_product(self):
        rng = np.random.default_rng(4)
        gram = rng.normal(size=(16, 17)) + 1j * rng.normal(size=(16, 17))
        h, nonzero = 0.0123, dynamics._NONZERO
        feed = (h * dynamics.A[nonzero] * gram[nonzero]).tolist()
        full = (h * dynamics.A * gram[:, :16]).tolist()
        assert len(feed) == 82
        for s, pairs in enumerate(dynamics._FEED):
            assert [j for _, j in pairs] == [j for j, _ in dynamics._ROWS[s]]
            for k, j in pairs:
                assert repr(feed[k]) == repr(full[s][j])

    def test_step_control_matches_solve_ivp_through_rejections(self):
        # A burst in the drive forces rejected steps, so the growth limit
        # after a rejection is exercised too; three modes feed back.
        def drive(t):
            return 1.0 + 40.0 * np.exp(-((t - 0.5) / 0.03) ** 2)

        args = (drive, np.array([-2.0, 0.5, 3.0]), np.array([0.3, 0.1, 0.2]),
                0.0, 1.0, np.array([1.0, 0.0, 0.1, 0.0, -0.2j]),
                np.linspace(0.0, 1.0, 41), 1e-9, 1e-12)
        stats = _assert_matches_solve_ivp(args, dynamics._dop853(*args))
        assert stats["rejected_steps"] >= 1

    # A burst in the drive and three modes that feed back; the steps are
    # scipy's, so its step ends place the samples.
    @pytest.mark.parametrize("placement", ["inside_one_step", "on_step_ends",
                                           "ends_only"])
    def test_samples_anywhere_match_solve_ivp(self, placement):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

        def drive(t):
            return 1.0 + 40.0 * np.exp(-((t - 0.5) / 0.03) ** 2)

        args = [drive, np.array([-2.0, 0.5, 3.0]), np.array([0.3, 0.1, 0.2]),
                0.0, 1.0, np.array([1.0, 0.0, 0.1, 0.0, -0.2j]), None, 1e-9, 1e-12]
        ends = solve_ivp(full_rhs(*args[:3]), (0.0, 1.0), args[5], method="DOP853",
                         rtol=1e-9, atol=1e-12).t
        sampled_steps = {"inside_one_step": 1, "on_step_ends": len(ends) - 1,
                         "ends_only": 2}[placement]
        args[6] = {"inside_one_step": np.linspace(ends[5], ends[6], 9)[1:-1],
                   "on_step_ends": ends, "ends_only": ends[[0, -1]]}[placement]
        result = dynamics._dop853(*args)
        stats = _assert_matches_solve_ivp(args, result)
        attempts = stats["accepted_steps"] + stats["rejected_steps"]
        assert stats["nfev"] == 2 + 12 * attempts + 3 * sampled_steps
        # The samples do not steer the steps: the modes at t1 keep every bit.
        args[6] = np.array([1.0])
        assert result[1].tobytes() == dynamics._dop853(*args)[1].tobytes()

    # nfev of the benchmark's three integrations, pinned.
    NFEV = {"check_ode_oracle": 677, "solvers_plain_81": 167, "81_modes": 182}

    @pytest.mark.parametrize("case", [
        "check_ode_oracle", "solvers_plain_81", "no_rwa", "decreasing_81",
        *sorted(BACK_REACTION_CASES), "decreasing_240_modes",
    ])
    def test_matches_solve_ivp(self, case, monkeypatch):
        calls, dop853 = [], dynamics._dop853

        def recorded(*args):
            calls.append((args, dop853(*args)))
            return calls[-1][1]

        monkeypatch.setattr(dynamics, "_dop853", recorded)
        plain_81 = np.linspace(0.5, 1.5, 81)
        if case == "check_ode_oracle":
            check_ode_oracle()
        elif case == "solvers_plain_81":
            integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA, plain_81)
        elif case == "decreasing_81":
            integrate_dynamics(RESONANT, SYMMETRIC, OMEGA0, GAMMA, plain_81[::-1])
        elif case == "no_rwa":  # and no modes
            integrate_dynamics(RESONANT, COULOMB, OMEGA0, GAMMA, rwa=False)
        elif case == "decreasing_240_modes":
            _back_reaction("240_modes", BACK_REACTION_CASES["240_modes"][0][::-1])
        else:
            _back_reaction(case)
        [(args, result)] = calls
        stats = _assert_matches_solve_ivp(args, result)
        assert stats["nfev"] == self.NFEV.get(case, stats["nfev"])
        # 2 for the first step, 12 per attempt, 3 per step with samples.
        dense = stats["nfev"] - 2 - 12 * (stats["accepted_steps"]
                                          + stats["rejected_steps"])
        assert dense % 3 == 0 and 0 < dense <= 3 * stats["accepted_steps"]

    def test_phasor_is_exp_to_two_eps(self):
        rng = np.random.default_rng(7)
        x = np.concatenate((np.linspace(-1e3, 1e3, 400_001),
                            rng.uniform(-1e3, 1e3, 100_000),
                            np.pi * np.arange(-318, 319) / 2))
        err = np.abs(dynamics._phasor(x) - np.exp(1j * x))
        assert err.max() <= 2.0 * np.finfo(float).eps
        assert dynamics._phasor(np.zeros((3, 2))).tobytes() == np.ones((3, 2), complex).tobytes()


class TestPulseSpectrum:
    def test_laser_free_is_bitwise_the_lineshape(self):
        # Without the pulse-window term the spectrum is the numerator times
        # (Gamma/2pi)|tail|^2, the reference Lorentzian.
        grid = np.linspace(0.1, 3.0, 301)
        tail = lorentzian_reference_spectrum(OMEGA0, GAMMA, grid).values
        laser_free = numerator(SYMMETRIC, grid, OMEGA0) * tail
        bare = lineshape_S(LineshapeParams(SYMMETRIC, OMEGA0, GAMMA), grid)
        assert laser_free.tobytes() == bare.values.tobytes()

    def test_normalization_contract(self):
        # Mode density times angular-summed squared coupling equals
        # (Gamma/2pi) numerator: both sides for a two-level atom.
        from lineshape import build_two_level, gamma_onshell

        model = build_two_level(OMEGA0, 0.7)
        gamma = gamma_onshell(model, "e", "g")
        grid = np.linspace(0.2, 3.0, 50)
        d2 = 0.7**2
        u2 = np.asarray(coupling_pair(SYMMETRIC, grid, OMEGA0).u_minus) ** 2
        lhs = grid**2 / (3 * math.pi**2) * (OMEGA0 / 2.0) * d2 * u2
        rhs = gamma / (2 * math.pi) * np.asarray(
            numerator(SYMMETRIC, grid, OMEGA0)
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_positive_and_deviates_from_lorentzian_in_the_wings(self):
        grid = np.linspace(0.02, 3.0, 400)
        spec = pulse_spectrum(RESONANT, SYMMETRIC, OMEGA0, GAMMA, grid)
        bare = lorentzian_reference_spectrum(OMEGA0, GAMMA, grid)
        assert np.all(spec.values >= 0.0)
        rel = np.abs(spec.values - bare.values) / bare.values
        window = np.abs(OMEGA0 - grid) <= 2.0
        assert rel[window].max() > 0.10

    def test_zero_locus_flagged_in_metadata(self):
        grid = np.linspace(0.02, 3.0, 100)
        spec = pulse_spectrum(RESONANT, SYMMETRIC, OMEGA0, GAMMA, grid)
        assert spec.metadata.get("denominator_zero_on_grid") is True
        narrow = pulse_spectrum(RESONANT, SYMMETRIC, OMEGA0, GAMMA,
                                np.linspace(0.9, 1.1, 20))
        assert "denominator_zero_on_grid" not in narrow.metadata

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(DomainError):
            pulse_spectrum(RESONANT, SYMMETRIC, OMEGA0, GAMMA,
                           np.array([-1.0, 1.0]))


class TestDetuningScan:
    def test_dependence_is_weak(self):
        # A 1% laser detuning moves no representation's spectrum by 10%.
        grid = np.linspace(0.3, 1.8, 60)
        detuned = PulseConfig(rabi=RESONANT.rabi, omega_l=OMEGA0 - 0.01)
        for rep in ALL_REPS:
            base = pulse_spectrum(RESONANT, rep, OMEGA0, GAMMA, grid).values
            spec = pulse_spectrum(detuned, rep, OMEGA0, GAMMA, grid).values
            assert np.max(np.abs(spec - base) / base) < 0.1, rep.name
