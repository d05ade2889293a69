"""Line-oriented scenario files: sections of ``key: value`` pairs.

Top-level keys select the run mode, the representations and the output
style; one indented section (named after the mode) holds the physical
parameters.  Unknown keys and sections are rejected with the offending
line number, so a typo cannot silently fall back to a default.

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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ScenarioError
from .representations import GaugeRepresentation

__all__ = ["Scenario", "parse_scenario", "load_scenario", "build_grid",
           "coerce_value", "typed"]

MODES = ("lineshape", "fluorescence", "lamb-line", "pulse", "verify")

_TOP_KEYS = ("mode", "representations", "plot", "log_scale", "out_prefix")

_GRID_KEYS = ("grid_min", "grid_max", "grid_points", "grid_scale")

# Allowed (and required) section keys per mode.
_SECTION_KEYS = {
    "lineshape": {
        "allowed": ("gamma", "omega_eg", "lamb_shift", "cutoff",
                    "variable_width") + _GRID_KEYS,
        "required": ("gamma", "grid_min", "grid_max", "grid_points"),
    },
    "fluorescence": {
        "allowed": ("intensity", "gamma", "omega_eg", "dipole_proj")
        + _GRID_KEYS,
        "required": ("gamma", "grid_min", "grid_max", "grid_points"),
    },
    "lamb-line": {
        "allowed": ("preset", "intensity", "omega", "omega_prime", "gamma",
                    "dipole_proj") + _GRID_KEYS,
        "required": ("grid_min", "grid_max", "grid_points"),
    },
    "pulse": {
        "allowed": ("rabi", "omega_l", "delta_l", "omega_0", "gamma", "rwa",
                    "include_reference", "trajectory") + _GRID_KEYS,
        "required": ("rabi", "gamma", "grid_min", "grid_max", "grid_points"),
    },
    "verify": {"allowed": ("cutoff",), "required": ()},
}

_SECTION_NAME = {
    "lineshape": "lineshape",
    "fluorescence": "fluorescence",
    "lamb-line": "lamb_line",
    "pulse": "pulse",
    "verify": "verify",
}


@dataclass
class Scenario:
    mode: str
    representations: list[GaugeRepresentation] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    plot: str | None = None
    log_scale: bool = False
    out_prefix: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(
                f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}"
            )
        if self.plot not in (None, "svg", "gnuplot"):
            raise ScenarioError(f"unknown plot format {self.plot!r}")
        rules = _SECTION_KEYS[self.mode]
        for key in self.params:
            if key not in rules["allowed"]:
                raise ScenarioError(
                    f"key {key!r} is not allowed in a {self.mode} scenario"
                )
        for key in rules["required"]:
            if key not in self.params:
                raise ScenarioError(f"{self.mode} scenario is missing {key!r}")
        if self.mode != "verify" and not self.representations:
            raise ScenarioError("at least one representation is required")
        if "grid_points" in self.params:
            # Validate eagerly so a broken grid fails at parse time.
            build_grid(
                self.params["grid_min"],
                self.params["grid_max"],
                self.params["grid_points"],
                self.params.get("grid_scale", "linear"),
            )

    @property
    def prefix(self) -> str:
        return self.out_prefix or _SECTION_NAME[self.mode]

    def grid(self) -> np.ndarray:
        return build_grid(
            self.params["grid_min"],
            self.params["grid_max"],
            self.params["grid_points"],
            self.params.get("grid_scale", "linear"),
        )


def typed(key: str, value, kind: str = "number"):
    """Return the value of parameter ``key`` checked against its kind.

    ``number`` accepts an int or float and returns a float; ``points``
    accepts a whole number of at least 2 and returns an int; ``flag``
    accepts only true/false.  Anything else (a word where a number
    belongs, a fractional point count, ``no`` for a flag) raises
    ScenarioError naming the key, so nothing is coerced or truncated.
    """
    if kind == "flag":
        if isinstance(value, bool):
            return bool(value)
        raise ScenarioError(f"{key} must be true or false, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScenarioError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if kind == "points":
        if not (value.is_integer() and value >= 2):
            raise ScenarioError(
                f"{key} must be a whole number of at least 2, got {value:g}"
            )
        return int(value)
    return value


def build_grid(lo, hi, points, scale: str = "linear") -> np.ndarray:
    lo, hi = typed("grid_min", lo), typed("grid_max", hi)
    points = typed("grid_points", points, "points")
    if not lo < hi:
        raise ScenarioError("grid_min must be below grid_max")
    if scale == "linear":
        return np.linspace(lo, hi, points)
    if scale == "log":
        if lo <= 0.0:
            raise ScenarioError("log grids need a positive grid_min")
        return np.geomspace(lo, hi, points)
    raise ScenarioError(f"unknown grid_scale {scale!r}")


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


def parse_scenario(text: str) -> Scenario:
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
            if value == "":
                # A bare "name:" opens a section.
                if key in sections:
                    raise ScenarioError(f"duplicate section {key!r}", lineno)
                sections[key] = {}
                current = key
                continue
            current = None
            if key not in _TOP_KEYS:
                raise ScenarioError(f"unknown top-level key {key!r}", lineno)
            if key in top:
                raise ScenarioError(f"duplicate key {key!r}", lineno)
            top[key] = value
        else:
            if current is None:
                raise ScenarioError("indented line outside any section", lineno)
            if value == "":
                raise ScenarioError(f"missing value for {key!r}", lineno)
            if key in sections[current]:
                raise ScenarioError(f"duplicate key {key!r}", lineno)
            sections[current][key] = coerce_value(value)

    if "mode" not in top:
        raise ScenarioError("scenario is missing 'mode'")
    mode = top["mode"]
    if mode not in MODES:
        raise ScenarioError(f"unknown mode {mode!r}")

    expected_section = _SECTION_NAME[mode]
    for name in sections:
        if name != expected_section:
            raise ScenarioError(f"unexpected section {name!r} for mode {mode!r}")
    params = sections.get(expected_section, {})

    reps = []
    if "representations" in top:
        for token in top["representations"].split(","):
            token = token.strip()
            if token:
                try:
                    reps.append(GaugeRepresentation.parse(token))
                except DomainError as exc:
                    raise ScenarioError(str(exc)) from exc

    log_scale = top.get("log_scale", "false").lower()
    if log_scale not in ("true", "false"):
        raise ScenarioError(f"log_scale must be true or false, got {log_scale!r}")

    return Scenario(
        mode=mode,
        representations=reps,
        params=params,
        plot=top.get("plot"),
        log_scale=log_scale == "true",
        out_prefix=top.get("out_prefix"),
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())
