"""Reference tasks: fixed work, independent of the program, timed between
the operations of a run.

The speed a shared machine gives one process drifts by tens of per cent
over seconds to minutes (see README.md), and it drifts for the program and
for any other work of the same kind alike.  Each workload therefore has a
reference task of the kind of work it does, timed between its operations,
and reports its operations in units of it: an operation's wall time
divided by the mean wall time of the reference samples taken just before
and just after it.
A change to the program moves the operation and not the reference, so the
ratio follows the program; a change of machine speed moves both.

The tasks use only the standard library, numpy and scipy, never the
program, and are the same on every commit.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import common

# The dependencies every CLI child imports before it reaches the program.
CHILD_CODE = "import numpy, scipy.integrate"


def cold_import_child(work: Path) -> Callable[[], float]:
    """A cold interpreter that imports numpy and scipy.integrate: the
    start-up that takes most of a CLI child."""
    cwd = work / "reference"

    def task() -> float:
        child = common.run_child(["-c", CHILD_CODE], cwd)
        if child.code:
            raise common.BenchError(f"reference child failed (exit {child.code})")
        return child.wall_s

    return task


def _timed(call: Callable[[], object]) -> Callable[[], float]:
    def task() -> float:
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    return task


def numpy_grid() -> Callable[[], float]:
    """A Lorentzian times omega^3 over a 1e6-point grid in float64 numpy, the
    kind of expression the spectrum kernels evaluate."""
    import numpy as np

    grid = np.linspace(0.05, 3.0, 1_000_000)
    width = 0.05

    def lorentzian():
        detuning = grid - 1.0
        return (width / np.pi) / (detuning * detuning + width * width) * grid**3

    return _timed(lorentzian)


def small_ode() -> Callable[[], float]:
    """``solve_ivp`` on a damped 40-mode linear system at tight tolerance:
    scipy's adaptive stepping with small arrays, as in the solvers."""
    import numpy as np
    from scipy.integrate import solve_ivp

    matrix = np.diag(-np.linspace(0.1, 1.0, 40)) + 0.01
    start = np.ones(40)
    return _timed(lambda: solve_ivp(lambda t, y: matrix @ y, (0.0, 5.0), start,
                                    rtol=1e-9, atol=1e-12))


class Sampler:
    """Times the reference task between operations and turns operation wall
    times into reference units.

    A sample is taken after an operation once the operations since the
    previous sample took at least ``every`` times that sample's duration,
    and at the end of every pass.  The operations between two samples are
    divided by their mean, so that a change of machine speed between the
    two falls on both sides of the ratio.
    """

    def __init__(self, task: Callable[[], float], every: float):
        self.task = task
        self.every = every
        self.samples: list[float] = []
        self.pending: list[float] = []
        self.last = task()  # warm-up; not a sample

    def after(self, wall: float) -> list[float]:
        """Record an operation's wall time.  Returns the reference units of
        the operations a sample taken now settles (none if it is not due)."""
        self.pending.append(wall)
        if sum(self.pending) < self.every * self.last:
            return []
        return self.flush()

    def flush(self) -> list[float]:
        """Take a sample if any operation waits for one, and settle them."""
        if not self.pending:
            return []
        previous, self.last = self.last, self.task()
        self.samples.append(self.last)
        unit = 0.5 * (previous + self.last)
        units = [wall / unit for wall in self.pending]
        self.pending = []
        return units


# Per workload: what the task is, its factory (given the work directory),
# and ``every``.  The cold child costs about four fifths of a CLI child
# and is taken after about every second one; the in-process tasks take
# about a seventh of the run.
REFERENCES = {
    "cli_presets": ("a cold `python -c 'import numpy, scipy.integrate'` child",
                    cold_import_child, 2.0),
    "grid_kernels": ("a Lorentzian times omega^3 over 1e6 points",
                     lambda work: numpy_grid(), 6.0),
    "solvers": ("solve_ivp on a damped 40-mode linear system, rtol 1e-9",
                lambda work: small_ode(), 6.0),
}
