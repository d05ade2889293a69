"""Line-oriented scenario files: sections of ``key: value`` pairs.

Top-level keys select the run mode, the representations and the output
style; one indented section (named after the mode) holds the physical
parameters.  Unknown keys and sections are rejected with the offending
line number, so a typo cannot silently fall back to a default.

``PARAMS`` declares each mode's section keys once: kind, default and CLI
flag.  The CLI generates its flags from it and hands their strings to
:func:`parse_scenario`, and building a Scenario checks, types and
default-fills the parameters against it, so a file and the flags get the
same defaults and the same checks.  A named ``preset`` lays its own
defaults over the table's; keys that are given override both.

Example::

    mode: lineshape
    representations: coulomb, poincare, symmetric
    plot: svg

    lineshape:
      gamma: 0.1
      omega_eg: 1.0
      lamb_shift: 0.0
      grid_min: 0.05
      grid_max: 3.0
      grid_points: 296
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ScenarioError
from .representations import COULOMB, GaugeRepresentation
from .spectra import DEFAULT_CUTOFF

__all__ = ["Scenario", "Param", "PARAMS", "REQUIRED", "MissingKeyError",
           "parse_scenario", "load_scenario", "build_grid", "coerce_value",
           "typed"]

_TOP_KEYS = ("mode", "representations", "plot", "log_scale", "out_prefix")

REQUIRED = object()  # the default of a key that must be given

# The most grid points a run may ask for: the 1e6-point grids of the
# benchmark and the ROADMAP, well within memory.
_MAX_POINTS = 10**6


class Param(NamedTuple):
    """One section key: its kind (see :func:`typed`), its default
    (REQUIRED, or None for a key that may stay unset) and its CLI flag when
    that is not --key-with-dashes (--no-key-with-dashes for a true
    default)."""

    kind: str | tuple
    default: object = REQUIRED
    flag: str | None = None


def _grid(lo=REQUIRED, hi=REQUIRED, points=REQUIRED) -> dict:
    return {
        "grid_min": Param("number", lo, "--grid"),
        "grid_max": Param("number", hi, "--grid"),
        "grid_points": Param("points", points, "--grid"),
        "grid_scale": Param(("linear", "log"), "linear", "--grid"),
    }


_DIPOLE = Param("number", 1.0, "--dipole")

# Each mode's section keys, in the order a missing one is reported.  Files
# and flags share these defaults.
PARAMS = {
    "lineshape": {
        "gamma": Param("number"),
        "omega_eg": Param("number", 1.0),
        "lamb_shift": Param("shift", 0.0),
        "cutoff": Param("number", DEFAULT_CUTOFF),
        **_grid(0.05, 3.0, 296),
    },
    "fluorescence": {
        "intensity": Param("number", 1.0),
        "gamma": Param("number"),
        "omega_eg": Param("number", 1.0),
        "dipole_proj": _DIPOLE,
        **_grid(0.5, 2.0, 301),
    },
    "lamb-line": {
        **_grid(),
        "preset": Param(("lamb-hydrogen",), None),
        "intensity": Param("number", 1.0),
        "omega": Param("number"),
        "omega_prime": Param("number"),
        "gamma": Param("number", REQUIRED, "--gamma-2p1s"),
        "dipole_proj": _DIPOLE,
    },
    "pulse": {
        "rabi": Param("number"),
        "gamma": Param("number"),
        "omega_0": Param("number", 1.0),
        # The carrier: omega_l, or omega_0 - delta_l; resonant without either.
        "delta_l": Param("number", None),
        "omega_l": Param("number", None),
        "rwa": Param("flag", True),
        "include_reference": Param("flag", False),
        "trajectory": Param("flag", False),
        **_grid(0.02, 3.0, 150),
    },
    "verify": {"cutoff": Param("number", DEFAULT_CUTOFF)},
}


def _lamb_hydrogen() -> dict:
    """The defaults the lamb-hydrogen preset lays over the table's."""
    from .fluorescence import lamb_hydrogen_preset  # only this preset needs it

    values = dict(vars(lamb_hydrogen_preset(COULOMB)))
    del values["rep"]
    return dict(values, grid_min=0.05, grid_max=4.0, grid_points=201)


class MissingKeyError(ScenarioError):
    """A required key has no value; ``key`` names it for the front end."""

    def __init__(self, mode: str, key: str):
        super().__init__(f"{mode} scenario is missing {key!r}")
        self.key = key


def _resolve(mode: str, given: dict) -> dict:
    """Every key of the mode's table, typed: the given values over a named
    preset's over the table's defaults."""
    table = PARAMS[mode]
    for key in given:
        if key not in table:
            raise ScenarioError(f"key {key!r} is not allowed in a {mode} scenario")
    if "omega_l" in given and "delta_l" in given:
        raise ScenarioError("give omega_l or delta_l, not both")
    values = {key: param.default for key, param in table.items()}
    if "preset" in given:  # lamb-hydrogen, the only one; checked below
        values.update(_lamb_hydrogen())
    values.update(given)
    for key, value in values.items():
        if value is REQUIRED:
            raise MissingKeyError(mode, key)
    return {key: None if value is None else typed(key, value, table[key].kind)
            for key, value in values.items()}


@dataclass
class Scenario:
    """One run: mode, representations, output style and parameters.

    ``params`` may hold any of the mode's keys; building the Scenario
    checks and types them and fills in the rest from ``PARAMS``.
    """

    mode: str
    representations: list[GaugeRepresentation] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    plot: str | None = None
    log_scale: bool = False
    out_prefix: str | None = None

    def __post_init__(self):
        if self.mode not in PARAMS:
            raise ScenarioError(
                f"unknown mode {self.mode!r}; expected one of {', '.join(PARAMS)}"
            )
        if self.plot not in (None, "svg", "gnuplot"):
            raise ScenarioError(f"unknown plot format {self.plot!r}")
        self.params = _resolve(self.mode, self.params)
        if self.mode != "verify" and not self.representations:
            raise ScenarioError("representations: at least one is required")

    @property
    def prefix(self) -> str:
        return self.out_prefix or self.mode.replace("-", "_")

    def grid(self) -> np.ndarray:
        p = self.params
        return build_grid(p["grid_min"], p["grid_max"], p["grid_points"],
                          p["grid_scale"])


def typed(key: str, value, kind="number"):
    """Return the value of parameter ``key`` checked against its kind.

    ``number`` accepts an int or float and returns a float; ``points``
    accepts a whole number from 2 to 10**6 and returns an int; ``flag``
    accepts only true/false; ``shift`` accepts a number or ``auto``; a
    tuple of words accepts one of them.  Anything else (a word where a
    number belongs, a fractional point count, ``no`` for a flag) raises
    ScenarioError naming the key, so nothing is coerced or truncated.
    """
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ScenarioError(f"unknown {key} {value!r}")
    if kind == "flag":
        if isinstance(value, bool):
            return bool(value)
        raise ScenarioError(f"{key} must be true or false, got {value!r}")
    if kind == "shift" and value == "auto":
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if kind == "points":
        if not (value.is_integer() and 2 <= value <= _MAX_POINTS):
            raise ScenarioError(f"{key} must be a whole number of at least 2 "
                                f"and at most {_MAX_POINTS}, got {value:g}")
        return int(value)
    return value


def build_grid(lo, hi, points, scale: str = "linear") -> np.ndarray:
    lo, hi = typed("grid_min", lo), typed("grid_max", hi)
    points = typed("grid_points", points, "points")
    if not lo < hi:
        raise ScenarioError("grid_min must be below grid_max")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("grid_min and grid_max must be finite")
    scale = typed("grid_scale", scale, ("linear", "log"))
    if scale == "log" and lo <= 0.0:
        raise ScenarioError("log grids need a positive grid_min")
    return (np.geomspace if scale == "log" else np.linspace)(lo, hi, points)


def coerce_value(value: str):
    """Read a scenario or flag string as a bool, a float, or else a string."""
    low = value.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return float(value)
    except ValueError:
        return value


def parse_scenario(text: str, given: dict | None = None) -> Scenario:
    """Parse scenario text into a Scenario.

    ``given`` maps keys to value strings that override the text's (the
    CLI's flags): top-level keys, the mode's section keys, and ``mode``,
    which must match the text's.  A given value is read exactly as the
    same key on a line of the text is.
    """
    top: dict = {}
    sections: dict[str, dict] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indented = stripped[0] in " \t"
        line = stripped.strip()
        if ":" not in line:
            raise ScenarioError("expected 'key: value'", lineno)
        key, value = (part.strip() for part in line.split(":", 1))
        if not indented:
            current = None
            if key not in _TOP_KEYS:
                if value:
                    raise ScenarioError(f"unknown top-level key {key!r}", lineno)
                # Any other bare "name:" opens a section.
                if key in sections:
                    raise ScenarioError(f"duplicate section {key!r}", lineno)
                sections[key] = {}
                current = key
                continue
            if key in top:
                raise ScenarioError(f"duplicate key {key!r}", lineno)
            top[key] = value
        else:
            if current is None:
                raise ScenarioError("indented line outside any section", lineno)
            if key in sections[current]:
                raise ScenarioError(f"duplicate key {key!r}", lineno)
            sections[current][key] = value

    if "mode" not in top:
        raise ScenarioError("scenario is missing 'mode'")
    mode = top["mode"]
    if mode not in PARAMS:
        raise ScenarioError(f"unknown mode {mode!r}")
    given = dict(given or {})
    asked = given.pop("mode", mode)
    if asked != mode:
        raise ScenarioError(
            f"scenario mode {mode!r} does not match subcommand {asked!r}")

    expected_section = mode.replace("-", "_")
    for name in sections:
        if name != expected_section:
            raise ScenarioError(f"unexpected section {name!r} for mode {mode!r}")
    section = sections.get(expected_section, {})
    for key, value in given.items():
        (top if key in _TOP_KEYS else section)[key] = value

    reps = []
    for token in map(str.strip, top.get("representations", "").split(",")):
        if token:
            try:
                reps.append(GaugeRepresentation.parse(token))
            except DomainError as exc:
                raise ScenarioError(f"representations: {token!r}: {exc}") from exc
            if reps[-1] in reps[:-1]:  # one output file per representation
                raise ScenarioError(
                    f"representations: {reps[-1].name!r} is given twice")
    log_scale = typed("log_scale", coerce_value(top.get("log_scale", "false")),
                      "flag")
    params = {key: coerce_value(value) for key, value in section.items()}
    return Scenario(mode=mode, representations=reps, params=params,
                    plot=top.get("plot"), log_scale=log_scale,
                    out_prefix=top.get("out_prefix"))


def load_scenario(path, given: dict | None = None) -> Scenario:
    """The scenario file at ``path``, UTF-8 with an optional leading BOM,
    with the ``given`` keys laid over it (see :func:`parse_scenario`)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise ScenarioError(f"{path}: not a UTF-8 text file") from None
    return parse_scenario(text, given)
