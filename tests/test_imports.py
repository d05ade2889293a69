"""scipy is loaded only where the ODE oracle runs.

Importing scipy.integrate costs most of a cold CLI start, and only
``integrate_dynamics`` needs it.  Each case runs in a fresh interpreter
and reports whether ``scipy`` reached ``sys.modules``, so a module-level
import added anywhere in the package fails here.  No timing is asserted.
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
from lineshape.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy": "scipy" in sys.modules}))
"""


def run_child(argvs) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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


def test_verify_loads_scipy_and_passes(tmp_path):
    result = run_child([["verify", "--out-dir", str(tmp_path)]])
    assert result == {"codes": [0], "scipy": True}


def test_pulse_trajectory_loads_scipy_and_writes_it(tmp_path):
    scn = tmp_path / "traj.scn"
    scn.write_text(
        "mode: pulse\nrepresentations: symmetric\n\npulse:\n"
        "  rabi: 1.0\n  gamma: 0.1\n  trajectory: true\n"
        "  grid_min: 0.5\n  grid_max: 1.5\n  grid_points: 21\n"
    )
    result = run_child([["pulse", str(scn), "--out-dir", str(tmp_path)]])
    assert result == {"codes": [0], "scipy": True}
    assert (tmp_path / "pulse_trajectory.csv").exists()
