"""Exception types shared across the package, and its argument rules.

Entry points check their numeric arguments here before numpy sees them, so
a bad value raises DomainError and is never coerced.  A scalar must be a
real number (not a bool, string, array or None), finite and, by its rule,
positive, non-negative or in [0, 1].  An array must have a real dtype (not
bool, string, complex or object) and finite, positive elements.
"""

import math
import numbers
import sys

import numpy as np

_MAX = sys.float_info.max
_RULES = {  # int-float comparisons are exact: a huge int fails, not overflows
    "positive": lambda v: 0.0 < v <= _MAX,
    "non-negative": lambda v: 0.0 <= v <= _MAX,
    "finite": lambda v: -_MAX <= v <= _MAX,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
}


class DomainError(ValueError):
    """A physical parameter is outside its allowed domain."""


class ConfigurationError(ValueError):
    """A structurally valid input describes an unusable configuration."""


class ScenarioError(ValueError):
    """A scenario file could not be parsed.

    Carries the offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VerificationFailure(RuntimeError):
    """The verification suite reported a failing (non-expected-fail) check."""


def _check_scalar(value, name: str, rule: str = "positive") -> None:
    """Reject a scalar ``name`` that is not a real number obeying ``rule``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not _RULES[rule](value):
        raise DomainError(f"{name} must be finite"
                          + ("" if rule == "finite" else f" and {rule}"))


def _check_positive(value, name: str) -> np.ndarray:
    """``value`` as a float array of finite, positive elements, decided by
    whole-array min and max, which build no boolean temporary."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):
        raise DomainError(f"{name} must be finite and positive")
    return arr
