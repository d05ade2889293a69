"""One table of bad numeric arguments to the public library.

Each row names a public callable, arguments it accepts, and one argument
to replace by a bad value: a numeric string, a bool, an array where a
scalar belongs, a non-finite or an out-of-range number.  The call must
then raise DomainError (ConfigurationError for an oscillator's level
count) with numpy warnings raised as errors, never a numpy traceback, a
silent NaN or a silent coercion.
"""

import math
import warnings

import numpy as np
import pytest

from lineshape import (
    COULOMB,
    AtomModel,
    ConfigurationError,
    DomainError,
    GaugeRepresentation,
    LambLineScenario,
    Level,
    LineshapeParams,
    PulseConfig,
    SharpLineScenario,
    build_oscillator,
    build_two_level,
    closed_form_amplitude,
    coupling_pair,
    delta_offshell,
    excited_amplitude_during_pulse,
    lamb_shift,
    lineshape_S,
    mixing,
    n_factor,
    numerator,
    total_shift,
)
from lineshape.pulse import laser_coupling_pair

ATOM = build_two_level(1.0, 1.0)
DRIVE = PulseConfig(rabi=1.0, omega_l=1.0)
SHARP = dict(intensity=1.0, omega_0=1.0, omega_eg=1.0, gamma=0.1,
             dipole_proj=1.0, rep=COULOMB)
LAMB = dict(intensity=1.0, omega=1.0, omega_prime=4.0, gamma=0.6,
            dipole_proj=1.0, rep=COULOMB)
PARAMS = dict(rep=COULOMB, omega_eg=1.0, gamma=0.1, lamb_shift=0.0)
PULSE = dict(rabi=1.0, omega_l=1.0, alpha_laser=None)
CUTOFF = dict(model=ATOM, state="e", cutoff=1000.0)
ENERGY = dict(levels=(Level("g", 0.0), Level("e", 1.0)), dipoles={})

# (callable, good keyword arguments, argument to spoil, bad value)
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
    (PulseConfig, PULSE, "alpha_laser", "0.3"),
    (GaugeRepresentation, dict(kind="custom", custom_alpha=0.3),
     "custom_alpha", "0.3"),
    (GaugeRepresentation, dict(kind="custom", custom_alpha=0.3),
     "custom_alpha", True),
    (GaugeRepresentation.constant, dict(alpha=0.3), "alpha", "0.3"),
    (build_two_level, dict(omega_eg=1.0, d_eg=1.0), "d_eg", math.nan),
    (build_two_level, dict(omega_eg=1.0, d_eg=1.0), "d_eg", "1"),
    (build_two_level, dict(omega_eg=1.0, d_eg=1.0), "mass", math.nan),
    (AtomModel, ENERGY, "levels", (Level("g", 0.0), Level("e", math.nan))),
    (lamb_shift, CUTOFF, "cutoff", math.nan),
    (lamb_shift, CUTOFF, "cutoff", math.inf),
    (lamb_shift, CUTOFF, "cutoff", "1000"),
    (total_shift, dict(CUTOFF, rep=COULOMB), "cutoff", math.nan),
    (total_shift, dict(CUTOFF, rep=COULOMB), "cutoff", math.inf),
    (total_shift, dict(CUTOFF, rep=COULOMB), "cutoff", "1000"),
    (coupling_pair, dict(rep=COULOMB, omega_k=0.5, omega_0=1.0),
     "omega_0", "1"),
    (coupling_pair, dict(rep=COULOMB, omega_k=0.5, omega_0=1.0),
     "omega_0", True),
    (mixing, dict(rep=COULOMB, omega_k=0.5, omega_0=1.0),
     "omega_0", np.array([1.0, 2.0])),
    (numerator, dict(rep=COULOMB, omega_k=1.0, omega_eg=1.0), "omega_k", "1"),
    (n_factor, dict(rep=COULOMB, omega_0=1.0, omega_eg=1.0), "omega_0", True),
    (lineshape_S, dict(params=LineshapeParams(COULOMB, 1.0, 0.1),
                       grid=[0.5, 1.0, 1.5]), "grid", ["0.5", "1.0", "1.5"]),
    (delta_offshell, dict(omega=1.0, model=ATOM, rep=COULOMB, cutoff=1000.0),
     "omega", math.nan),
    (excited_amplitude_during_pulse,
     dict(t=-1.0, config=DRIVE, rep=COULOMB, omega_0=1.0), "t", math.nan),
    (laser_coupling_pair,
     dict(config=PulseConfig(1.0, 1.0, alpha_laser=0.4), rep=COULOMB,
          omega_0=1.0), "omega_0", math.nan),
    (closed_form_amplitude,
     dict(omega_k=0.7, config=DRIVE, rep=COULOMB, omega_0=1.0, gamma=0.1),
     "omega_k", math.nan),
    (closed_form_amplitude,
     dict(omega_k=[-0.7, 0.7], config=DRIVE, rep=COULOMB, omega_0=1.0,
          gamma=0.1), "omega_k", [-math.inf, 0.7]),
    (build_oscillator, dict(omega=1.0, mass=1.0, n_levels=4), "n_levels", 3.5),
]


def _row_id(row):
    call, _, name, bad = row
    return f"{getattr(call, '__qualname__', call)}-{name}={bad!r}"


@pytest.mark.parametrize("call, good, name, bad", ROWS,
                         ids=[_row_id(row) for row in ROWS])
def test_bad_argument_raises_a_library_error(call, good, name, bad):
    error = ConfigurationError if name == "n_levels" else DomainError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**good)  # the row's other arguments are valid
        with pytest.raises(error):
            call(**{**good, name: bad})
