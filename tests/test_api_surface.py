"""Public names resolve, are the reviewed set with the reviewed
parameters, and every name the benchmark uses still exists.

The benchmark in ``perfbench/`` reaches the library through ``import
lineshape as ls`` attributes, ``from lineshape.<module> import ...`` and the
``verify.check_<group>`` functions.  Pruning the public API must not break
it, so those names are read from its source and looked up here.
"""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import lineshape

from helpers import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = sorted(
    f"lineshape.{info.name}" for info in pkgutil.iter_modules(lineshape.__path__)
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"


# The package's public names.  A name added or removed here is an API
# change: it needs a user in the CLI, ``verify``, the benchmark or the
# README-documented library use, not only in tests.
PUBLIC_NAMES = [
    "AtomModel", "COULOMB", "CheckResult", "ConfigurationError",
    "DEFAULT_CUTOFF", "DomainError", "GaugeRepresentation",
    "LambLineScenario", "Level", "LineshapeParams", "POINCARE",
    "PulseConfig", "PulseTrajectory", "REQUIRED_CHECKS", "SYMMETRIC",
    "ScenarioError", "SharpLineScenario", "Spectrum", "VerificationFailure",
    "VerificationReport", "build_oscillator", "build_two_level",
    "closed_form_amplitude", "coupling_pair", "delta_offshell",
    "excited_amplitude_during_pulse", "fluorescence_sweep", "gamma_offshell",
    "gamma_onshell", "integrate_dynamics", "lamb_hydrogen_preset",
    "lamb_n_factor", "lamb_rate_sweep", "lamb_shift", "lineshape_S",
    "lorentzian_reference_spectrum", "n_factor",
    "numerator", "pulse_spectrum", "read_spectrum_csv", "run_all_checks",
    "total_shift", "trk_sum", "write_spectrum_csv",
]


# The parameters (names, kinds, defaults) of every public callable and
# dataclass that has a signature.  A parameter added here is an API change
# like a name: it needs a caller in the CLI, ``verify``, the benchmark or
# the README-documented library use, not only in tests.
PUBLIC_SIGNATURES = {
    "AtomModel": "(levels, dipoles, mass=1.0, charge=1.0)",
    "CheckResult": "(name, description, residual, tolerance, passed, claim, "
                   "expected_fail=False)",
    "GaugeRepresentation": "(kind, custom_alpha=None)",
    "LambLineScenario": "(intensity, omega, omega_prime, gamma, dipole_proj, "
                        "rep)",
    "Level": "(label, energy)",
    "LineshapeParams": "(rep, omega_eg, gamma, lamb_shift=0.0)",
    "PulseConfig": "(rabi, omega_l)",
    "PulseTrajectory": "(times, b_g, b_e, mode_grid, beta_pulse_end, "
                       "beta_final, post_times=None, post_b_e=None, "
                       "ode_stats=None)",
    "ScenarioError": "(message, line=None)",
    "SharpLineScenario": "(intensity, omega_0, omega_eg, gamma, dipole_proj, "
                         "rep)",
    "Spectrum": "(grid, values, metadata=<factory>, n_factor=None)",
    "VerificationReport": "(checks, environment=<factory>)",
    "build_oscillator": "(omega, mass, n_levels)",
    "build_two_level": "(omega_eg, d_eg)",
    "closed_form_amplitude": "(omega_k, config, rep, omega_0, gamma)",
    "coupling_pair": "(rep, omega_k, omega_0)",
    "delta_offshell": "(omega, model, rep, cutoff, state=None, n=4096)",
    "excited_amplitude_during_pulse": "(t, config, rep, omega_0)",
    "fluorescence_sweep": "(scenario, omega_0_grid)",
    "gamma_offshell": "(omega, model, rep, state=None)",
    "gamma_onshell": "(model, upper, lower)",
    "integrate_dynamics": "(config, rep, omega_0, gamma, mode_grid=(), *, "
                          "rwa=True, include_field_during_pulse=False)",
    "lamb_hydrogen_preset": "(rep)",
    "lamb_n_factor": "(rep, omega_0, omega, omega_prime)",
    "lamb_rate_sweep": "(scenario, omega_0_grid)",
    "lamb_shift": "(model, state, cutoff, n=4096)",
    "lineshape_S": "(params, grid)",
    "lorentzian_reference_spectrum": "(omega_0, gamma, grid)",
    "n_factor": "(rep, omega_0, omega_eg)",
    "numerator": "(rep, omega_k, omega_eg)",
    "pulse_spectrum": "(config, rep, omega_0, gamma, grid)",
    "read_spectrum_csv": "(path)",
    "run_all_checks": "(cutoff=1000.0)",
    "total_shift": "(model, state, rep, cutoff, n=4096)",
    "trk_sum": "(model, state)",
    "write_spectrum_csv": "(spectrum, path)",
}


def test_public_signatures_are_the_reviewed_set():
    found = {}
    for name in PUBLIC_NAMES:
        value = getattr(lineshape, name)
        if not callable(value):
            continue
        try:
            sig = inspect.signature(value)
        except ValueError:  # an exception class with ValueError's arguments
            continue
        # Annotations are left out: their text differs between Pythons.
        found[name] = str(sig.replace(
            parameters=[p.replace(annotation=p.empty)
                        for p in sig.parameters.values()],
            return_annotation=sig.empty))
    assert found == PUBLIC_SIGNATURES


def test_public_names_are_the_reviewed_set():
    # In a fresh interpreter: the lazy namespace binds a name on first use,
    # so in this one what it holds depends on what earlier tests touched.
    code = """
import json
import lineshape
star = {}
exec("from lineshape import *", star)
print(json.dumps([sorted(lineshape.__all__),
                  sorted(n for n in dir(lineshape) if not n.startswith("_")),
                  sorted(n for n in star if not n.startswith("_"))]))
"""
    assert json.loads(run_python(code)) == [PUBLIC_NAMES] * 3


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lineshape.no_such_name
    assert not hasattr(lineshape, "mixing")  # a retired public name


def _benchmark_references():
    """(module, name) pairs the benchmark sources look up in the library."""
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}  # local name -> library module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update(
                    (a.asname, a.name) if a.asname else ("lineshape", "lineshape")
                    for a in node.names if a.name.split(".")[0] == "lineshape"
                )
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "lineshape"):
                refs |= {(node.module, a.name) for a in node.names}
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and getattr(node.targets[0], "id", None) == "CHECK_GROUPS"):
                refs |= {("lineshape.verify", f"check_{group}")
                         for group in ast.literal_eval(node.value)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
    return refs


def test_benchmark_names_exist():
    refs = _benchmark_references()
    # The guard must see the benchmark's kernels and its verify groups.
    assert ("lineshape", "lineshape_S") in refs
    assert ("lineshape.verify", "check_table_consistency") in refs
    missing = sorted(
        f"{module}.{name}" for module, name in refs
        if not hasattr(importlib.import_module(module), name)
    )
    assert not missing, f"names the benchmark uses are gone: {missing}"
