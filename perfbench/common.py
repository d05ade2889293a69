"""Shared pieces of the benchmark: paths, child processes, statistics,
spans, output checks and the environment record.

Only the standard library is imported at module level, so a CLI
workload's own process stays small while its children run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "lineshape"
PRESETS = PACKAGE / "presets"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench"

# Values compared against the golden CSVs use the test suite's tolerance.
GOLDEN_RTOL = 1e-12
# Grid points of a refined grid differ from the coarse ones by rounding only.
GRID_RTOL = 1e-14
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def require_checkout() -> None:
    """Refuse to run outside a checkout that holds the sources and goldens."""
    missing = [str(p.relative_to(ROOT)) for p in
               (PACKAGE / "__init__.py", PACKAGE / "cli.py", PRESETS, GOLDEN)
               if not p.exists()]
    if missing:
        raise BenchError("not a lineshape checkout; missing " + ", ".join(missing))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- child processes ----------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], cwd: Path) -> Child:
    """Run ``python <args>`` to completion and reap it with ``os.wait4``.

    The child's CPU time accumulates in ``getrusage(RUSAGE_CHILDREN)``,
    which the measuring loop reads; its peak RSS is returned.  A
    child still running after ``CHILD_TIMEOUT_S`` is killed and counts as
    a failure.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd,
                                env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        previous = signal.signal(signal.SIGALRM,
                                 lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 err_path.read_text(errors="replace"))


def cpu_seconds() -> float:
    """CPU time of this process plus all reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if not n:
        return math.nan
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  Below 21 samples that
    percentile would fall under the median, and the median is reported
    as percentile 50 instead.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 11  # index of the sample with ten above it
    if 100.0 * (k + 1) / n < 50.0:
        return median(xs), 50.0, n
    return xs[k], 100.0 * (k + 1) / n, n


# -- spans ------------------------------------------------------------------


class Tracer:
    """In-memory spans (name, start, end, parent, run id), written at the end.

    A disabled tracer records nothing; ``span`` then costs one branch.
    """

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": sid, "name": name, "start": time.perf_counter(),
                  "end": None, "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span reconstructed after the fact under the open span."""
        if self.enabled:
            parent = self._stack[-1] if self._stack else None
            self.spans.append({"id": len(self.spans), "name": name,
                               "start": start, "end": end, "parent": parent,
                               "run": self.run_id})

    def self_times_ms(self) -> dict[str, list[float]]:
        """Per span name: duration minus the time covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, list[float]] = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for lo, hi in sorted(children.get(s["id"], [])):
                lo, hi = max(lo, reach), min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            own = s["end"] - s["start"] - covered
            out.setdefault(s["name"], []).append(1e3 * own)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


# -- output checks ----------------------------------------------------------


def digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.tobytes())
    return h.hexdigest()


def file_digests(directory: Path, skip=("_metadata.json", ".stderr")) -> dict:
    """sha256 of every output file; metadata carries a timestamp by design."""
    return {p.name: digest(p.read_bytes()) for p in sorted(directory.iterdir())
            if p.is_file() and not p.name.endswith(skip)}


class Repeats:
    """The first output of each operation is checked against its reference;
    every later one must be byte-identical to the first."""

    def __init__(self):
        self.first: dict[str, object] = {}

    def check(self, key: str, fingerprint, reference_check) -> str | None:
        if key not in self.first:
            self.first[key] = fingerprint
            return reference_check()
        if self.first[key] != fingerprint:
            return f"{key}: output differs from its first repetition"
        return None


@dataclass
class CsvTable:
    columns: list[str]
    rows: list[list[str]]


def read_csv(path: Path) -> CsvTable:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return CsvTable(header.split(","), [row.split(",") for row in rows])


def golden_table(name: str) -> CsvTable:
    return read_csv(GOLDEN / name)


def compare_to_golden(got: CsvTable, want: CsvTable, label: str) -> str | None:
    """Grid exact, other numeric columns within GOLDEN_RTOL, text equal."""
    if got.columns != want.columns:
        return f"{label}: header {got.columns} != golden {want.columns}"
    if len(got.rows) != len(want.rows):
        return f"{label}: {len(got.rows)} rows, golden has {len(want.rows)}"
    text_col = want.columns.index("representation")
    for i, (g, w) in enumerate(zip(got.rows, want.rows)):
        if len(g) != len(w):
            return f"{label}: row {i} has {len(g)} cells"
        for j, (a, b) in enumerate(zip(g, w)):
            if j == text_col:
                ok = a == b
            else:
                rtol = 0.0 if j == 0 else GOLDEN_RTOL
                ok = abs(float(a) - float(b)) <= rtol * abs(float(b))
            if not ok:
                return f"{label}: row {i} column {want.columns[j]}: {a} vs golden {b}"
    return None


# -- environment ------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return math.nan


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(PACKAGE.glob("*.py")))


def environment() -> dict:
    import numpy
    import scipy

    import lineshape

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lineshape": lineshape.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "src_lines": src_lines(),
    }
