"""Exception types shared across the package, and its argument rules.

Entry points check their numeric arguments here before numpy sees them, so
a bad value raises DomainError and is never coerced.  A scalar must be a
real number (not a bool, string, array or None), finite and, by its rule,
positive, non-negative or in [0, 1].  An array must have a real dtype (not
bool, string, complex or object) and finite elements of either sign or,
by its rule, positive or non-negative ones.  A Python float, the common
argument, goes straight to its rule: no ABC check, array round trip or
reduction, and the same outcome and message as any other real.
"""

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


def _fail(name: str, rule: str) -> DomainError:
    return DomainError(f"{name} must be finite"
                       + ("" if rule == "finite" else f" and {rule}"))


def _check_scalar(value, name: str, rule: str = "positive") -> None:
    """Reject a scalar ``name`` that is not a real number obeying ``rule``."""
    if type(value) is not float and (  # a float skips the ABC check
            isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not _RULES[rule](value):
        raise _fail(name, rule)


def _as_real(value, name: str) -> np.ndarray:
    """``value`` as a float array, if its dtype is real; its elements are
    not looked at."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _check_real(value, name: str, rule: str = "finite") -> np.ndarray:
    """``value`` as a float array whose elements obey ``rule`` (by default
    finite, of either sign), decided by whole-array min and max, which
    build no boolean temporary.  A Python float is its own min and max."""
    if type(value) is float:
        _check_scalar(value, name, rule)
        return np.asarray(value)
    arr = _as_real(value, name)
    if arr.size and not (_RULES[rule](arr.min()) and _RULES[rule](arr.max())):
        raise _fail(name, rule)
    return arr
