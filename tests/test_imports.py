"""Each CLI run loads only the modules it uses: no run of the package
loads scipy, and no CLI run starts a thread.

``import lineshape`` is lazy, and each subcommand imports its own mode's
modules, plotting only when a plot is written: without a bytecode cache a
cold run compiles every module it imports.  One fresh interpreter per
subcommand reports the exact set of ``lineshape.*`` modules it loaded.
The package needs numpy alone: the ODE oracle behind ``lineshape verify``
and pulse trajectories is an in-package DOP853.  Each scipy case runs in a
fresh interpreter and reports whether ``scipy`` reached ``sys.modules``,
so a scipy import added anywhere in the package fails here.  The spectra
of the shipped presets and of ``verify`` fit in one block of the sweep, so
their runs start no thread and load no thread pool.  No timing is
asserted.
"""

import json
import pkgutil
from pathlib import Path

import pytest

import lineshape
from lineshape import Spectrum, write_spectrum_csv

from helpers import run_python

PRESET_DIR = Path(lineshape.__path__[0]) / "presets"

CHILD = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
from lineshape.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sys.modules.get("scipy") is not None
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def run_child(argvs, block_scipy=False) -> dict:
    return json.loads(run_python(CHILD, json.dumps(argvs),
                                 "block" if block_scipy else "load"))


def presets_of(mode: str) -> list[Path]:
    return [path for path in sorted(PRESET_DIR.glob("*.scn"))
            if f"mode: {mode}\n" in path.read_text()]


MODULES_CHILD = """
import json, sys
from lineshape.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(
    name[len("lineshape."):] for name in sys.modules
    if name.startswith("lineshape."))}))
"""

# What a preset run loads: each shipped preset asks for an SVG plot.
PRESET_RUN = ["cli", "errors", "plotting", "representations", "scenario",
              "spectra"]


def loaded_modules(argvs) -> list[str]:
    """The ``lineshape.*`` modules a fresh interpreter loads running the
    CLI on each of ``argvs``, every run of which must succeed."""
    result = json.loads(run_python(MODULES_CHILD, json.dumps(argvs)))
    assert result["codes"] == [0] * len(argvs)
    return result["modules"]


def test_a_bare_import_loads_no_submodule_and_not_numpy():
    code = """
import json, sys
import lineshape
before = sorted(m for m in sys.modules if m.startswith(("lineshape", "numpy")))
# Each submodule is still an attribute of the package, loaded on first use.
after = [getattr(lineshape, name).__name__ for name in json.loads(sys.argv[1])]
print(json.dumps([before, after]))
"""
    names = sorted(info.name for info in pkgutil.iter_modules(lineshape.__path__))
    assert json.loads(run_python(code, json.dumps(names))) == [
        ["lineshape"], [f"lineshape.{name}" for name in names]]


@pytest.mark.parametrize("mode, extra", [
    ("lineshape", []),
    ("fluorescence", ["fluorescence"]),
    ("lamb-line", ["fluorescence"]),
    ("pulse", ["pulse"]),
])
def test_a_preset_run_loads_only_its_modes_modules(mode, extra, tmp_path):
    argvs = [[mode, str(path), "--out-dir", str(tmp_path)]
             for path in presets_of(mode)]
    assert loaded_modules(argvs) == sorted(PRESET_RUN + extra)


def test_a_plot_run_loads_the_preset_runs_modules(tmp_path):
    write_spectrum_csv(Spectrum([1.0, 2.0], [1.0, 0.5],
                                {"representation": "coulomb"}),
                       tmp_path / "x.csv")
    argv = ["plot", str(tmp_path / "x.csv"), "--out", str(tmp_path / "x.svg")]
    assert loaded_modules([argv]) == PRESET_RUN


def test_a_verify_run_loads_every_module_but_plotting(tmp_path):
    every = {info.name for info in pkgutil.iter_modules(lineshape.__path__)}
    assert loaded_modules([["verify", "--out-dir", str(tmp_path)]]) == sorted(
        every - {"plotting"})


def test_a_verify_run_leaves_numpy_polynomial_unloaded(tmp_path):
    # The PV oracle's Gauss-Legendre rule is written out: importing
    # numpy.polynomial would add its six basis modules to the verify child.
    code = ("import sys; from lineshape.cli import main; "
            f"code = main(['verify', '--out-dir', {str(tmp_path)!r}]); "
            "print(code, 'numpy.polynomial' in sys.modules)")
    assert run_python(code) == "0 False"


def test_atoms_and_the_ode_load_only_when_a_run_needs_them(tmp_path):
    # Neither run asks for a plot, so plotting stays out too.
    base = ["cli", "errors", "representations", "scenario", "spectra"]
    auto = ["lineshape", "--gamma", "0.1", "--lamb-shift", "auto",
            "--out-dir", str(tmp_path)]
    assert loaded_modules([auto]) == sorted(base + ["atoms"])
    scn = write_trajectory_scenario(tmp_path)
    trajectory = ["pulse", str(scn), "--out-dir", str(tmp_path)]
    assert loaded_modules([trajectory]) == sorted(base + ["dynamics", "pulse"])


def test_importing_the_package_and_cli_leaves_scipy_out():
    result = run_child([])
    assert result == {"codes": [], "scipy": False}


@pytest.mark.parametrize("mode", ["lineshape", "fluorescence", "lamb-line", "pulse"])
def test_shipped_presets_run_without_scipy(mode, tmp_path):
    presets = presets_of(mode)
    assert presets, f"no shipped {mode} preset"
    result = run_child([[mode, str(path), "--out-dir", str(tmp_path)]
                        for path in presets])
    assert result == {"codes": [0] * len(presets), "scipy": False}


def test_verify_passes_without_scipy(tmp_path):
    result = run_child([["verify", "--out-dir", str(tmp_path)]])
    assert result == {"codes": [0], "scipy": False}


def write_trajectory_scenario(tmp_path) -> Path:
    scn = tmp_path / "traj.scn"
    scn.write_text(
        "mode: pulse\nrepresentations: symmetric\n\npulse:\n"
        "  rabi: 1.0\n  gamma: 0.1\n  trajectory: true\n"
        "  grid_min: 0.5\n  grid_max: 1.5\n  grid_points: 21\n"
    )
    return scn


def test_pulse_trajectory_writes_it_without_scipy(tmp_path):
    scn = write_trajectory_scenario(tmp_path)
    result = run_child([["pulse", str(scn), "--out-dir", str(tmp_path)]])
    assert result == {"codes": [0], "scipy": False}
    assert (tmp_path / "pulse_trajectory.csv").exists()


def test_verify_and_trajectory_run_with_scipy_blocked(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import raise, lazy
    # ones inside a call included.
    scn = write_trajectory_scenario(tmp_path)
    result = run_child([["verify", "--out-dir", str(tmp_path / "verify")],
                        ["pulse", str(scn), "--out-dir", str(tmp_path)]],
                       block_scipy=True)
    assert result == {"codes": [0, 0], "scipy": False}
    assert (tmp_path / "pulse_trajectory.csv").exists()


def test_spectra_runs_leave_the_ode_module_unloaded(tmp_path):
    # Without a bytecode cache every cold run compiles what it imports, and
    # the DOP853 tableau takes about 2 ms to compile (2-vCPU Xeon); only the
    # ODE oracle needs it.
    code = ("import sys; from lineshape.cli import main; "
            f"main(['lineshape', {str(presets_of('lineshape')[0])!r}, "
            f"'--out-dir', {str(tmp_path)!r}]); "
            "print('lineshape.dynamics' in sys.modules)")
    assert run_python(code) == "False"


THREAD_CHILD = """
import json, sys, threading
started = []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self) or start(self)
from lineshape.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "started": len(started),
                  "threads": threading.active_count(),
                  "futures": "concurrent.futures" in sys.modules}))
"""


def test_cli_runs_start_no_thread_and_no_pool(tmp_path):
    argvs = [[mode, str(path), "--out-dir", str(tmp_path)]
             for mode in ("lineshape", "fluorescence", "lamb-line", "pulse")
             for path in presets_of(mode)]
    argvs.append(["verify", "--out-dir", str(tmp_path / "verify")])
    result = json.loads(run_python(THREAD_CHILD, json.dumps(argvs)))
    assert result == {"codes": [0] * len(argvs), "started": 0, "threads": 1,
                      "futures": False}


def test_level_shifts_leave_the_quadrature_unloaded():
    # The shifts are closed forms; only the verify check that compares them
    # with the quadrature loads it, when it runs.
    code = """
import sys
from lineshape import POINCARE, build_two_level
from lineshape.atoms import delta_offshell, lamb_shift, total_shift
atom = build_two_level(1.0, 1.0)
lamb_shift(atom, "e", 1e3)
total_shift(atom, "e", POINCARE, 1e3)
delta_offshell(1.3, atom, POINCARE, 1e3)
print("lineshape.quadrature" in sys.modules)
"""
    assert run_python(code) == "False"
