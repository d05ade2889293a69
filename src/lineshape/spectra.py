"""Spontaneous-emission lineshapes, the blocked spectrum sweep and the
spectrum CSV codec.

The decay rates and level shifts live in :mod:`lineshape.atoms`, which only
``--lamb-shift auto`` and ``verify`` runs import: a preset run compiles
none of them.

Every spectrum on a frequency grid is built by one blocked sweep: its
grid is checked and its kernel evaluated ``_BLOCK`` points at a time, on
up to two CPUs.  Each CPU checks the grid of its own blocks in one pass,
no kernel runs until the whole grid has passed, and each block of values
is checked while it is in cache.
A kernel writes each block into the output with ufunc ``out=``, its
intermediates into a scratch arena that each thread allocates once per
sweep.  Its in-place helpers (``_numerator``, ...) are the only copy of
each formula; the public point functions call them on fresh buffers in
one frame, ``_pointwise``, which raises DomainError on a non-finite result.
It, each sweep thread's ``fill`` and the stepper ``dynamics._dop853`` are
the only code that sets numpy's error state (see :mod:`lineshape.errors`).
No bit of any output depends on the block size or on the number of CPUs.
"""

from __future__ import annotations

import io
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    _RULES,
    ConfigurationError,
    DomainError,
    _as_real,
    _check_real,
    _check_scalar,
    _fail,
)
from .representations import GaugeRepresentation, _check_rep, _mixing

__all__ = [
    "LineshapeParams",
    "Spectrum",
    "numerator",
    "lineshape_S",
    "write_spectrum_csv",
    "read_spectrum_csv",
]

DEFAULT_CUTOFF = 1000.0  # in units of the reference transition frequency

CSV_COLUMNS = ("omega_k", "S", "representation", "gamma", "omega_eg",
               "lamb_shift", "cutoff")


# -- lineshape numerators --------------------------------------------------


def numerator(rep: GaugeRepresentation, omega_k, omega_eg: float):
    """Frequency dependence of the lineshape numerator, normalized on shell.

    Mode density times squared rotating coupling over its on-shell value:
    x m**2 with x = omega_k/omega_eg and m = u_minus sqrt(x) = (1 - alpha)
    + alpha x the representation's mixing factor.  That is x (Coulomb),
    x**3 (Poincare) and 4 x**3 / (1 + x)**2 (symmetric).
    """
    _check_scalar(omega_eg, "omega_eg")
    return _pointwise(omega_k, "omega_k", "positive", 3, "numerator", lambda w, s:
                      _numerator(rep, np.divide(w, omega_eg, out=s[0]), s[1], s[2]))


def _numerator(rep: GaugeRepresentation, x, out, tmp):
    """:func:`numerator` at a checked ratio x, into ``out``; ``tmp`` is scratch."""
    m = _mixing(rep, x, out, tmp)
    return np.multiply(x, np.multiply(m, m, out=m), out=m)


def _scratch(shape, floats: int) -> list:
    """``floats`` float64 buffers and a bool one, each of ``shape``: the
    scratch of the in-place helpers (``_numerator``, ...)."""
    return [*(np.empty(shape) for _ in range(floats)), np.empty(shape, bool)]


def _pointwise(arg, name: str, rule: str, floats: int, result: str, kernel):
    """A point function: ``kernel(arg, _scratch(arg.shape, floats))`` on
    ``arg`` checked by ``rule``, numpy silenced, and its result (a Python
    scalar for a 0-d ``arg``) checked finite, part by part if complex."""
    arg = _check_real(arg, name, rule)
    with np.errstate(all="ignore"):  # a result out of range raises below
        out = kernel(arg, _scratch(arg.shape, floats))
    for part in (out.real, out.imag) if out.dtype.kind == "c" else (out,):
        _check_real(part if part.ndim else part.item(), result, "finite")
    return out if out.ndim else out.item()


# -- the spectrum ------------------------------------------------------------


@dataclass(frozen=True)
class LineshapeParams:
    """Inputs of the emission lineshape.

    ``lamb_shift`` may be zero to suppress the line displacement.
    """

    rep: GaugeRepresentation
    omega_eg: float
    gamma: float
    lamb_shift: float = 0.0

    def __post_init__(self):
        _check_rep(self.rep)
        _check_scalar(self.omega_eg, "omega_eg")
        _check_scalar(self.gamma, "gamma")
        _check_scalar(self.lamb_shift, "lamb_shift", "finite")


@dataclass
class Spectrum:
    """A sampled spectral density with provenance metadata.

    ``metadata`` echoes the inputs that entered it (representation, gamma,
    omega_eg, a lineshape's lamb_shift, ...); no cutoff entered a pulse,
    fluorescence or Lamb-line spectrum.  The density is NOT normalized to
    unit area, since the area differs between representations;
    ``np.trapezoid(values, grid)`` gives it.  The values are checked block
    by block, and no bit of any output depends on the block size.
    """

    grid: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    n_factor: np.ndarray | None = None

    def __post_init__(self):
        try:  # the elements are checked by the blocked pass
            self.grid = _as_real(self.grid, "grid")
            self.values = _as_real(self.values, "spectral density")
            if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
                raise DomainError("grid and values must be 1-d arrays of equal length")
            _check_blocks(self.grid, self.values)
        except DomainError:  # a bad grid is reported first, then bad values
            _check_real(self.grid, "grid")
            _check_real(self.values, "spectral density", "non-negative")
            raise
        if self.n_factor is not None:
            self.n_factor = _check_real(self.n_factor, "n_factor")
            if self.n_factor.shape != self.grid.shape:
                raise DomainError("n_factor column must match the grid length")


# Grid points per block of a spectrum sweep (512 KiB per float64 buffer;
# the pulse kernel's arena holds eight per thread).  On two threads of a
# 2-vCPU Xeon (median of 15, in one process) a detuned 1e6-point pulse
# spectrum took 36.2, 26.3, 25.4 and 32.0 ms at 16384 to 131072 points,
# and lineshape_S 11.0, 9.1, 8.1 and 8.5 ms.  Every point is computed on
# its own, so no bit of any output depends on this size.
_BLOCK = 65536


def _check_blocks(grid, values, kernel=None, n_factor=None, buffers=0,
                  name="grid", rule="finite") -> None:
    """Check a spectrum on a 1-d float ``grid`` ``_BLOCK`` points at a time.

    The grid (called ``name`` in errors) must obey ``rule`` (see
    :mod:`~lineshape.errors`) and be strictly increasing, and both are
    decided in one pass: each block tests that every point exceeds the one
    before it, reaching back one point for the pair across its edge, which
    a nan fails; an increasing grid obeys the rule if its first and last
    points do.  Only a grid that has passed as a whole gets its blocks of
    ``values`` filled by ``kernel`` (with ``n_factor``, if that is given)
    and checked to be finite and non-negative; overflow or an undefined
    result fails that test, so numpy's warnings are silenced.  A grid that
    fails is rejected as whole-grid checks reject it: a point breaking
    ``rule`` before a pair out of order.

    ``kernel(w, out, scratch)`` writes the block at grid points ``w`` into
    ``out`` (``values[i:j]``, or the pair with ``n_factor[i:j]``) by ufunc
    ``out=``, with the block's cut of its thread's arena: ``_scratch`` of
    ``buffers`` floats, min(``_BLOCK``, grid size) points each, allocated
    once per sweep.  The grid check uses the bool one.  Given two CPUs, a
    helper thread takes the blocks past the middle (numpy releases the GIL
    in its loops).  Each thread allocates its arena and checks the grid of
    its blocks, then the two meet before either calls ``kernel``; a thread
    that fails before they meet releases the other, and its error is
    raised after the join.  Each thread stops at its first failing block,
    and the lowest one raises.  No bit of any output depends on the block
    size or on the number of threads.
    """
    if grid.size and not (_RULES[rule](grid[0]) and _RULES[rule](grid[-1])):
        raise _fail(name, rule)
    size = min(_BLOCK, grid.size)
    arena = _scratch(size, buffers)
    starts = range(0, grid.size, _BLOCK)
    errors = [None] * len(starts)

    def increasing(first, stop, order) -> bool:
        for b in range(first, stop):
            lo, hi = max(starts[b] - 1, 0), min(starts[b] + _BLOCK, grid.size)
            if not np.greater(grid[lo + 1:hi], grid[lo:hi - 1],
                              out=order[:hi - lo - 1]).all():
                return False
        return True

    def fill(first, stop, arena):
        with np.errstate(all="ignore"):  # not inherited by a new thread
            for b in range(first, stop):
                i, j = starts[b], min(starts[b] + _BLOCK, grid.size)
                out = values[i:j] if n_factor is None else (values[i:j], n_factor[i:j])
                try:
                    if kernel is not None:
                        kernel(grid[i:j], out, [buffer[:j - i] for buffer in arena])
                    if not (values[i:j].min() >= 0.0 and values[i:j].max() < math.inf):
                        raise DomainError(
                            "spectral density must be finite and non-negative")
                except Exception as exc:
                    errors[b] = exc
                    return

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    halves, meet = [(0, len(starts))], None  # one thread: no helper, no meeting
    if min(cpus, len(starts)) >= 2:
        split = (grid.size + _BLOCK) // (2 * _BLOCK)  # the edge nearest the middle
        halves, meet = [(0, split), (split, len(starts))], threading.Barrier(2)
    passed, crashed = [False] * len(halves), [None] * len(halves)

    def half(k, arena):
        try:
            if arena is None:  # the helper's, allocated on its own thread
                arena = _scratch(size, buffers)
            passed[k] = increasing(*halves[k], arena[-1])
            if meet is not None:
                meet.wait()
            if all(passed):
                fill(*halves[k], arena)
        except threading.BrokenBarrierError:
            pass  # the other thread failed before the meeting
        except BaseException as exc:  # raised on the calling thread, after the join
            crashed[k] = exc
            if meet is not None:
                meet.abort()

    helper = None
    if meet is not None:
        helper = threading.Thread(target=half, args=(1, None))
        helper.start()
    try:
        half(0, arena)
    finally:
        if helper is not None:
            helper.join()
    for exc in crashed + errors:
        if exc is not None:
            raise exc
    if not all(passed):
        # Rejected as whole-grid checks reject it.  If every point obeys
        # the rule, none is nan, so a failed pair is out of order.
        _check_real(grid, name, rule)
        raise DomainError("grid must be strictly increasing")


def _sweep(grid, name: str, kernel, metadata: dict, buffers: int,
           with_n_factor: bool = False) -> Spectrum:
    """Spectrum of ``kernel`` on a finite, positive, strictly increasing
    1-d ``grid`` (called ``name`` in errors), checked and evaluated in
    blocks.  ``kernel(w, out, scratch)`` writes a block of values, or of
    values and n-factors ``with_n_factor``, with ``buffers`` float
    scratch buffers (see :func:`_check_blocks`).
    """
    if np.ndim(grid) != 1:
        raise DomainError(f"{name} must be a 1-d array")
    grid = _as_real(grid, name)
    values = np.empty_like(grid)
    n = np.empty_like(grid) if with_n_factor else None
    _check_blocks(grid, values, kernel, n, buffers, name, "positive")
    spectrum = object.__new__(Spectrum)  # __post_init__ would check again
    spectrum.grid, spectrum.values = grid, values
    spectrum.metadata, spectrum.n_factor = metadata, n
    return spectrum


def _lorentzian(delta, gamma: float, out):
    """(gamma / 2 pi) / (delta**2 + gamma**2 / 4), the Lorentzian density
    shared by all spectra, written into ``out``, which may be ``delta``."""
    gamma = float(gamma)  # an int gamma * gamma may not fit a float
    np.add(np.multiply(delta, delta, out=out), gamma * gamma / 4.0, out=out)
    return np.divide(gamma / (2.0 * math.pi), out, out=out)


def lineshape_S(params: LineshapeParams, grid) -> Spectrum:
    """Emission lineshape S(omega_k) on the given frequency grid."""
    rep, omega_eg, gamma = params.rep, params.omega_eg, params.gamma

    def kernel(w, out, scratch):
        delta, tmp, _ = scratch
        _numerator(rep, np.divide(w, omega_eg, out=delta), out, tmp)
        np.subtract(np.subtract(w, omega_eg, out=delta), params.lamb_shift, out=delta)
        np.multiply(out, _lorentzian(delta, gamma, delta), out=out)

    meta = {
        "representation": params.rep.name,
        "gamma": params.gamma,
        "omega_eg": params.omega_eg,
        "lamb_shift": params.lamb_shift,
        "kind": "lineshape",
    }
    return _sweep(grid, "grid", kernel, meta, 2)


# -- serialization -----------------------------------------------------------

_CELL = "%.17g"  # 17 significant digits: every float reads back bit for bit


def read_spectrum_csv(path) -> Spectrum:
    """Read back a spectrum written by :func:`write_spectrum_csv`, its numbers
    by ``np.loadtxt``.  Blank lines are skipped; a header alone gives an
    empty spectrum.  What the writer never writes is rejected: another
    header, a row with more cells than it, a row whose representation or
    constants differ from the first row's, or bytes that are not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = iter(handle.readline, "")
            header = next((ln for ln in lines if ln.strip()), "").strip().split(",")
            body = handle.read()
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: not a UTF-8 text file") from None
    if header == [""]:
        raise ConfigurationError(f"{path}: empty spectrum file")
    has_n = header == [*CSV_COLUMNS, "n_factor"]
    if header != list(CSV_COLUMNS) and not has_n:
        raise ConfigurationError(f"{path}: unexpected CSV header")
    keys = ("representation", *CSV_COLUMNS[3:])
    if not body.strip():
        return Spectrum([], [], dict(zip(keys, ("", 0.0, 0.0, 0.0, 0.0))),
                        [] if has_n else None)
    try:  # every column but the representation
        table = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2,
                           usecols=[0, 1, 3, 4, 5, 6] + [7] * has_n, unpack=True)
    except (ValueError, IndexError) as exc:
        raise ConfigurationError(f"{path}: malformed spectrum row") from exc
    # loadtxt found every column in each row, so as many commas as the header
    # has per row leave no extra cell; a row's 2nd and 3rd bound its representation.
    raw = np.frombuffer(body.encode(), np.uint8)
    commas = np.flatnonzero(raw == ord(","))
    if commas.size != table[0].size * (len(header) - 1):
        raise ConfigurationError(f"{path}: a row has more cells than the header")
    start, end = commas.reshape(table[0].size, -1)[:, 1:3].T + ((1,), (0,))
    rep, bits = raw[start[0]:end[0]], table[2:6].view(np.uint64)  # so nan == nan
    if (np.any(end - start != rep.size) or np.any(bits != bits[:, :1])
            or np.any(raw[start[:, None] + np.arange(rep.size)] != rep)):
        raise ConfigurationError(f"{path}: rows differ in representation, gamma, "
                                 "omega_eg, lamb_shift or cutoff")
    meta = dict(zip(keys, [rep.tobytes().decode(), *table[2:6, 0].tolist()]))
    return Spectrum(table[0], table[1], meta, table[6] if has_n else None)


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Write the fixed CSV schema, one :func:`_table` row of ``.17g`` cells
    per grid point; atomic (write-then-rename).  Metadata without a
    ``lamb_shift`` or ``cutoff`` (pulse, fluorescence and Lamb-line
    spectra: none entered the result) is written as 0 and DEFAULT_CUTOFF."""
    meta = spectrum.metadata
    rep = str(meta.get("representation", ""))
    if any(char in rep for char in ",\n\r"):
        raise DomainError(f"representation {rep!r} cannot be a CSV cell: "
                          "it holds a comma or a line break")
    extra = [] if spectrum.n_factor is None else [spectrum.n_factor]
    fixed = {"gamma": 0.0, "omega_eg": 0.0, "lamb_shift": 0.0, "cutoff": DEFAULT_CUTOFF}
    cells = [_CELL, _CELL, rep.replace("%", "%%"),
             *(_CELL % float(meta.get(key, value)) for key, value in fixed.items()),
             *[_CELL] * len(extra)]
    header = ",".join(CSV_COLUMNS + ("n_factor",) * len(extra))
    table = _table([spectrum.grid, spectrum.values, *extra], ",".join(cells) + "\n")
    _write_text(path, header + "\n" + table)


def _table(columns, row: str) -> str:
    """Float ``columns`` as text: the %-template ``row`` (one field per
    column) once per row, filled by one ``%``.  Every table written is made
    here: CSV and gnuplot cells are ``_CELL``, SVG points ``%.3f``."""
    return (row * len(columns[0])) % tuple(np.column_stack(columns).ravel().tolist())


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write-then-rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)
