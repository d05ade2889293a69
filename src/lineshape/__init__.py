"""Gauge-family spontaneous-emission lineshapes and driven-atom spectra.

Natural units (hbar = c = epsilon_0 = 1); frequencies in units of a
reference transition frequency unless stated otherwise.

The namespace is lazy (PEP 562): ``import lineshape`` loads no submodule
and not numpy, and a public name imports its module on first use.  Without
a bytecode cache every cold run compiles what it imports, so a CLI run
then pays only for the modules its subcommand uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "atoms": ("AtomModel", "Level", "build_oscillator", "build_two_level",
              "delta_offshell", "gamma_offshell", "gamma_onshell", "lamb_shift",
              "total_shift", "trk_sum"),
    "dynamics": ("PulseTrajectory", "integrate_dynamics"),
    "errors": ("ConfigurationError", "DomainError", "ScenarioError",
               "VerificationFailure"),
    "fluorescence": ("LambLineScenario", "SharpLineScenario",
                     "fluorescence_sweep", "lamb_hydrogen_preset",
                     "lamb_n_factor", "lamb_rate_sweep", "n_factor"),
    "pulse": ("PulseConfig", "closed_form_amplitude",
              "excited_amplitude_during_pulse", "lorentzian_reference_spectrum",
              "pulse_spectrum"),
    "representations": ("COULOMB", "POINCARE", "SYMMETRIC",
                        "GaugeRepresentation", "coupling_pair"),
    "spectra": ("DEFAULT_CUTOFF", "LineshapeParams", "Spectrum", "lineshape_S",
                "numerator", "read_spectrum_csv", "write_spectrum_csv"),
    "verify": ("REQUIRED_CHECKS", "CheckResult", "VerificationReport",
               "run_all_checks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "plotting", "quadrature", "scenario"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return list(__all__)
