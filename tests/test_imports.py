"""No run of the package loads scipy, and no CLI run starts a thread.

The package needs numpy alone: the ODE oracle behind ``lineshape verify``
and pulse trajectories is an in-package DOP853.  Each case runs in a fresh
interpreter and reports whether ``scipy`` reached ``sys.modules``, so a
scipy import added anywhere in the package fails here.  The spectra of
the shipped presets and of ``verify`` fit in one block of the sweep, so
their runs start no thread and load no thread pool.  No timing is
asserted.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lineshape

PRESET_DIR = Path(lineshape.__path__[0]) / "presets"
SRC_DIR = str(Path(lineshape.__path__[0]).parent)

CHILD = """
import json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None
from lineshape.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = sys.modules.get("scipy") is not None
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def run_python(code: str, *args: str) -> str:
    """Last line a fresh interpreter prints running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def run_child(argvs, block_scipy=False) -> dict:
    return json.loads(run_python(CHILD, json.dumps(argvs),
                                 "block" if block_scipy else "load"))


def presets_of(mode: str) -> list[Path]:
    return [path for path in sorted(PRESET_DIR.glob("*.scn"))
            if f"mode: {mode}\n" in path.read_text()]


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
            "print('lineshape._ode' in sys.modules)")
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
