"""Gauge-family spontaneous-emission lineshapes and driven-atom spectra.

Natural units (hbar = c = epsilon_0 = 1); frequencies in units of a
reference transition frequency unless stated otherwise.
"""

__version__ = "0.1.0"

from .atoms import (  # noqa: F401
    AtomModel,
    Level,
    build_oscillator,
    build_two_level,
    trk_sum,
)
from .errors import (  # noqa: F401
    ConfigurationError,
    DomainError,
    ScenarioError,
    VerificationFailure,
)
from .fluorescence import (  # noqa: F401
    LambLineScenario,
    SharpLineScenario,
    fluorescence_sweep,
    lamb_hydrogen_preset,
    lamb_n_factor,
    lamb_rate_sweep,
    n_factor,
)
from .pulse import (  # noqa: F401
    PulseConfig,
    PulseTrajectory,
    closed_form_amplitude,
    excited_amplitude_during_pulse,
    integrate_dynamics,
    lorentzian_reference_spectrum,
    pulse_spectrum,
)
from .representations import (  # noqa: F401
    COULOMB,
    POINCARE,
    SYMMETRIC,
    GaugeRepresentation,
    coupling_pair,
)
from .spectra import (  # noqa: F401
    DEFAULT_CUTOFF,
    LineshapeParams,
    Spectrum,
    delta_offshell,
    gamma_offshell,
    gamma_onshell,
    lamb_shift,
    lineshape_S,
    numerator,
    read_spectrum_csv,
    total_shift,
    write_spectrum_csv,
)
from .verify import (  # noqa: F401
    REQUIRED_CHECKS,
    CheckResult,
    VerificationReport,
    run_all_checks,
)
