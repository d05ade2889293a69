"""One table of bad arguments to the public library.

Each row names a public callable, arguments it accepts, and one argument
to replace by a bad value: a numeric string, a bool, an array where a
scalar belongs, a non-finite or an out-of-range number, an int too large
for a float, anything but a Python bool where a flag belongs, or anything
but a GaugeRepresentation where a representation belongs.  The call must
then raise DomainError (ConfigurationError for an oscillator's level
count) with numpy warnings raised as errors, never a numpy traceback, a
silent NaN or a silent coercion, and before it allocates 1 MiB.  A
second table holds cutoffs that were once rejected and that the
closed-form shifts now evaluate.  A pool of floats checks that a Python
float, which takes a fast path, is judged as np.float64 is.
"""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    AtomModel,
    ConfigurationError,
    DomainError,
    GaugeRepresentation,
    LambLineScenario,
    Level,
    LineshapeParams,
    PulseConfig,
    SharpLineScenario,
    Spectrum,
    build_oscillator,
    build_two_level,
    closed_form_amplitude,
    coupling_pair,
    delta_offshell,
    errors,
    excited_amplitude_during_pulse,
    fluorescence_sweep,
    gamma_offshell,
    gamma_onshell,
    integrate_dynamics,
    lamb_n_factor,
    lamb_rate_sweep,
    lamb_shift,
    lineshape_S,
    n_factor,
    numerator,
    pulse_spectrum,
    run_all_checks,
    total_shift,
)

from helpers import mp_delta_offshell, mp_lamb_shift, mp_total_shift

ATOM = build_two_level(1.0, 1.0)
DRIVE = PulseConfig(rabi=1.0, omega_l=1.0)
SHARP = dict(intensity=1.0, omega_0=1.0, omega_eg=1.0, gamma=0.1,
             dipole_proj=1.0, rep=COULOMB)
LAMB = dict(intensity=1.0, omega=1.0, omega_prime=4.0, gamma=0.6,
            dipole_proj=1.0, rep=COULOMB)
PARAMS = dict(rep=COULOMB, omega_eg=1.0, gamma=0.1, lamb_shift=0.0)
PULSE = dict(rabi=1.0, omega_l=1.0)
DYNAMICS = dict(config=DRIVE, rep=COULOMB, omega_0=1.0, gamma=0.1)
CUTOFF = dict(model=ATOM, state="e", cutoff=1000.0)
ENERGY = dict(levels=(Level("g", 0.0), Level("e", 1.0)), dipoles={})
HUGE = 10**400  # an int too large for a float
HOT = build_two_level(1e200, 1.0)  # its rate's w**3 overflows a float
LADDER = build_oscillator(1.0, 1.0, 5)
FAST = build_two_level(1e150, 1e-200)
# e**2 overflows and the momentum d m w / e underflows to 0.
CHARGED = AtomModel(levels=(Level("g", 0.0), Level("e", 1.0)),
                    dipoles={("g", "e"): 1e-200, ("e", "g"): 1e-200}, charge=1e200)
# Ints that fit a float but whose sum or square does not.
BIG = 10**308
BIG_LAMB = LambLineScenario(1.0, BIG, BIG, 0.6, 1.0, POINCARE)
BIG_DIPOLE = SharpLineScenario(**dict(SHARP, dipole_proj=BIG))
NAMES = {id(HUGE): "10**400", id(HOT): "build_two_level(1e200, 1.0)",
         id(CHARGED): "AtomModel(charge=1e200, d=1e-200)", id(BIG): "10**308",
         id(BIG_LAMB): "LambLineScenario(omega=omega_prime=10**308)",
         id(BIG_DIPOLE): "SharpLineScenario(dipole_proj=10**308)"}

# (callable, good keyword arguments, argument to spoil, bad value[, the
# error it raises, DomainError if not given])
ROWS = [
    (SharpLineScenario, SHARP, "intensity", "1"),
    (SharpLineScenario, SHARP, "intensity", True),
    (LambLineScenario, LAMB, "intensity", "1"),
    (LambLineScenario, LAMB, "intensity", True),
    (LineshapeParams, PARAMS, "lamb_shift", "0.1"),
    (LineshapeParams, PARAMS, "lamb_shift", [0.1, 0.2]),
    (PulseConfig, PULSE, "rabi", "1"),
    (PulseConfig, PULSE, "rabi", True),
    (PulseConfig, PULSE, "omega_l", [1, 2]),
    (GaugeRepresentation, dict(kind="custom", custom_alpha=0.3),
     "custom_alpha", "0.3"),
    (GaugeRepresentation, dict(kind="custom", custom_alpha=0.3),
     "custom_alpha", True),
    (GaugeRepresentation.constant, dict(alpha=0.3), "alpha", "0.3"),
    (build_two_level, dict(omega_eg=1.0, d_eg=1.0), "d_eg", math.nan),
    (build_two_level, dict(omega_eg=1.0, d_eg=1.0), "d_eg", "1"),
    (AtomModel, ENERGY, "levels", (Level("g", 0.0), Level("e", math.nan))),
    (gamma_onshell, dict(model=ATOM, upper="e", lower="g"), "model", HOT),
    (gamma_offshell, dict(omega=2.0, model=ATOM, rep=COULOMB), "omega", 2e200),
    (lamb_shift, CUTOFF, "cutoff", math.nan),
    (lamb_shift, CUTOFF, "cutoff", math.inf),
    (lamb_shift, CUTOFF, "cutoff", "1000"),
    (total_shift, dict(CUTOFF, rep=COULOMB), "cutoff", math.nan),
    (total_shift, dict(CUTOFF, rep=COULOMB), "cutoff", math.inf),
    (total_shift, dict(CUTOFF, rep=COULOMB), "cutoff", "1000"),
    (total_shift, dict(CUTOFF, rep=COULOMB), "model", CHARGED),
    # The diagonal term's cutoff**2 overflows.
    (total_shift, dict(model=LADDER, state="1", rep=COULOMB, cutoff=1000.0),
     "cutoff", 1e300),
    (total_shift, dict(model=LADDER, state="1", rep=POINCARE, cutoff=1000.0),
     "cutoff", 1e300),
    (coupling_pair, dict(rep=COULOMB, omega_k=0.5, omega_0=1.0),
     "omega_0", "1"),
    (coupling_pair, dict(rep=COULOMB, omega_k=0.5, omega_0=1.0),
     "omega_0", True),
    (numerator, dict(rep=COULOMB, omega_k=1.0, omega_eg=1.0), "omega_k", "1"),
    (n_factor, dict(rep=COULOMB, omega_0=1.0, omega_eg=1.0), "omega_0", True),
    # A finite argument whose result is not finite: an int sum past the
    # float range, or a float result that overflows.
    (lamb_n_factor, dict(rep=POINCARE, omega_0=1.0, omega=1.0, omega_prime=BIG),
     "omega", BIG),
    (lamb_rate_sweep, dict(scenario=LambLineScenario(1.0, 1.0, BIG, 0.6, 1.0, POINCARE),
                           omega_0_grid=[1.0, 2.0]), "scenario", BIG_LAMB),
    (fluorescence_sweep, dict(scenario=SharpLineScenario(**SHARP), omega_0_grid=[1.0]),
     "scenario", BIG_DIPOLE),
    (lamb_n_factor, dict(rep=POINCARE, omega_0=1.0, omega=1.0, omega_prime=1e308),
     "omega", 1e308),
    (numerator, dict(rep=POINCARE, omega_k=1.0, omega_eg=1e-100), "omega_k", 1e200),
    (n_factor, dict(rep=POINCARE, omega_0=1.0, omega_eg=1e-50), "omega_0", 1e200),
    (lineshape_S, dict(params=LineshapeParams(COULOMB, 1.0, 0.1),
                       grid=[0.5, 1.0, 1.5]), "grid", ["0.5", "1.0", "1.5"]),
    (delta_offshell, dict(omega=1.0, model=ATOM, rep=COULOMB, cutoff=1000.0),
     "omega", math.nan),
    (excited_amplitude_during_pulse,
     dict(t=-1.0, config=DRIVE, rep=COULOMB, omega_0=1.0), "t", math.nan),
    (excited_amplitude_during_pulse,
     dict(t=-1.0, config=DRIVE, rep=COULOMB, omega_0=1.0), "omega_0", math.nan),
    (closed_form_amplitude,
     dict(omega_k=0.7, config=DRIVE, rep=COULOMB, omega_0=1.0, gamma=0.1),
     "omega_k", math.nan),
    (closed_form_amplitude,
     dict(omega_k=[-0.7, 0.7], config=DRIVE, rep=COULOMB, omega_0=1.0,
          gamma=0.1), "omega_k", [-math.inf, 0.7]),
    (closed_form_amplitude,
     dict(omega_k=0.7, config=DRIVE, rep=COULOMB, omega_0=1.0, gamma=0.1),
     "omega_k", "0.7"),
    # Finite arguments in range whose result is not finite.
    (closed_form_amplitude,
     dict(omega_k=0.7, config=DRIVE, rep=SYMMETRIC, omega_0=1.0, gamma=0.1),
     "omega_k", -1e308),
    (excited_amplitude_during_pulse,
     dict(t=-3.0, config=DRIVE, rep=COULOMB, omega_0=1.0), "omega_0", 3e307),
    (coupling_pair, dict(rep=COULOMB, omega_k=1e-300, omega_0=1.0), "omega_0", 1e10),
    (coupling_pair, dict(rep=SYMMETRIC, omega_k=1e300, omega_0=1.0), "omega_0", 1e300),
    (excited_amplitude_during_pulse,
     dict(t=-1.0, config=DRIVE, rep=COULOMB, omega_0=1.0), "t", "-1"),
    (Spectrum, dict(grid=[1.0, 2.0], values=[1.0, 1.0]), "grid", ["1", "2"]),
    (integrate_dynamics, DYNAMICS, "gamma", HUGE),
    (integrate_dynamics, DYNAMICS, "rwa", "false"),
    (integrate_dynamics, DYNAMICS, "rwa", np.array([True, False])),
    (integrate_dynamics, DYNAMICS, "include_field_during_pulse", "yes"),
    (integrate_dynamics, DYNAMICS, "mode_grid", ["0.9", "1.1"]),
    (integrate_dynamics, DYNAMICS, "mode_grid", [True, False]),
    (integrate_dynamics, DYNAMICS, "mode_grid", [0.9 + 0j, 1.1]),
    (integrate_dynamics, DYNAMICS, "mode_grid", np.array([0.9, 1.1], object)),
    # A representation that is not a GaugeRepresentation.
    (LineshapeParams, PARAMS, "rep", "coulomb"),
    (SharpLineScenario, SHARP, "rep", "coulomb"),
    (LambLineScenario, LAMB, "rep", "coulomb"),
    (numerator, dict(rep=COULOMB, omega_k=1.0, omega_eg=1.0), "rep", "coulomb"),
    (coupling_pair, dict(rep=COULOMB, omega_k=0.5, omega_0=1.0), "rep", "coulomb"),
    (total_shift, dict(CUTOFF, rep=COULOMB), "rep", "coulomb"),
    (pulse_spectrum, dict(config=DRIVE, rep=COULOMB, omega_0=1.0, gamma=0.1,
                          grid=[0.5, 1.0, 1.5]), "rep", "coulomb"),
    (delta_offshell, dict(omega=1.0, model=ATOM, rep=COULOMB, cutoff=1000.0),
     "rep", None),
    (gamma_offshell, dict(omega=-0.5, model=ATOM, rep=COULOMB), "rep", "coulomb"),
    (build_oscillator, dict(omega=1.0, mass=1.0, n_levels=4), "n_levels", 3.5,
     ConfigurationError),
    # mass * omega underflows to 0.
    (build_oscillator, dict(omega=1e-200, mass=1.0, n_levels=3), "mass", 1e-200),
    (run_all_checks, dict(cutoff=1000.0), "cutoff", -1.0),
    (run_all_checks, dict(cutoff=1000.0), "cutoff", 0.0),
    (run_all_checks, dict(cutoff=1000.0), "cutoff", True),
    (run_all_checks, dict(cutoff=1000.0), "cutoff", "1000"),
]


def _row_id(row):
    call, good, name, bad = row[:4]
    text = NAMES.get(id(bad), repr(bad))
    route = "" if good.get("rep", COULOMB) == COULOMB else f"-{good['rep']}"
    return f"{getattr(call, '__qualname__', call)}{route}-{name}={text}"


@pytest.mark.parametrize("call, good, name, bad, error",
                         [(*row, DomainError)[:5] for row in ROWS],
                         ids=[_row_id(row) for row in ROWS])
def test_bad_argument_raises_a_library_error(call, good, name, bad, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**good)  # the row's other arguments are valid
        tracemalloc.start()
        try:
            with pytest.raises(error):
                call(**{**good, name: bad})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2**20  # rejected before anything sized by it is allocated


def test_int_arguments_give_what_their_floats_give():
    # Products of ints too large for a float are formed as floats.
    def rates(**fields):
        return [lamb_rate_sweep(LambLineScenario(**dict(LAMB, rep=POINCARE, **fields)),
                                [1.0, 2.0]).values,
                fluorescence_sweep(SharpLineScenario(**dict(SHARP, rep=POINCARE, **fields)),
                                   [1.0, 2.0]).values]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for ints, floats in (({"gamma": 10**300}, {"gamma": 1e300}),
                             ({"intensity": 3, "gamma": 1}, {"intensity": 3.0, "gamma": 1.0})):
            for got, want in zip(rates(**ints), rates(**floats)):
                assert got.tobytes() == want.tobytes()
        got, want = (lineshape_S(LineshapeParams(POINCARE, 1.0, gamma), [1.0, 2.0])
                     for gamma in (10**300, 1e300))
        assert got.values.tobytes() == want.values.tobytes()


# Every float class the rules tell apart, and its negation.
FLOAT_POOL = [sign * v for v in (0.0, 5e-324, 2.2e-308, 1.0, 1e308,
                                 sys.float_info.max, math.inf, math.nan)
              for sign in (1.0, -1.0)]


def _outcome(check, value, rule):
    try:
        return "accepted", check(value, "x", rule)
    except DomainError as exc:
        return "rejected", str(exc)


@pytest.mark.parametrize("rule", sorted(errors._RULES))
@pytest.mark.parametrize("check", [errors._check_scalar, errors._check_real],
                         ids=["scalar", "real"])
def test_a_python_float_is_checked_as_numpy_float64_is(check, rule):
    # A Python float takes the fast path; np.float64, a float subclass,
    # takes the general one.  Same verdict, message and array bits.
    for value in FLOAT_POOL:
        (fast, got), (general, want) = (_outcome(check, v, rule)
                                        for v in (value, np.float64(value)))
        assert fast == general, value
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want


# Cutoffs once rejected, past 1e8 times the smallest transition frequency
# (the reach of the quadrature the closed forms replaced) or past its
# overflow near 1e154: (callable, good keyword arguments, cutoff, its
# 40-digit mpmath oracle, which takes the same arguments).
LARGE_CUTOFFS = [
    (lamb_shift, CUTOFF, 1.0000001e8, mp_lamb_shift),
    (lamb_shift, CUTOFF, 1e201, mp_lamb_shift),
    (total_shift, dict(model=LADDER, state="1", rep=COULOMB, cutoff=1000.0), 1e9,
     mp_total_shift),
    (delta_offshell, dict(omega=1.0, model=ATOM, rep=COULOMB, cutoff=1000.0), 1e9,
     mp_delta_offshell),
    (delta_offshell, dict(omega=1.0, model=ATOM, rep=COULOMB, cutoff=1000.0), 1e300,
     mp_delta_offshell),
    (lamb_shift, dict(model=FAST, state="e", cutoff=1e151), 1e157, mp_lamb_shift),
]


@pytest.mark.parametrize("call, good, cutoff, oracle", LARGE_CUTOFFS,
                         ids=[_row_id((call, good, "cutoff", cutoff))
                              for call, good, cutoff, _ in LARGE_CUTOFFS])
def test_large_cutoff_gives_the_closed_form(call, good, cutoff, oracle):
    args = {**good, "cutoff": cutoff}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(**args)
    want = float(oracle(**args))
    assert abs(got - want) <= 1e-13 * abs(want)
