"""Exception types shared across the package, and its argument rules.

Entry points check their numeric arguments here before numpy sees them, so
a bad value raises DomainError and is never coerced.  A scalar must be a
real number (not a bool, string, array or None), finite and, by its rule,
positive, non-negative or in [0, 1].  An array must have a real dtype (not
bool, string, complex or object) and finite elements of either sign or,
by its rule, positive or non-negative ones.  A Python float, the common
argument, goes straight to its rule: no ABC check, array round trip or
reduction, and the same outcome and message as any other real.
Numpy's error state has three owners, which silence it and check their
results finite (see :mod:`lineshape.spectra`).  The rest of the package
runs at numpy's defaults: it decides overflow from a checked range before
any arithmetic (``coupling_pair``) or computes in Python floats.
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


def _check_range(value, name: str, rule: str = "finite"):
    """``value`` as a float array whose elements obey ``rule`` (by default
    finite, of either sign), decided by its min and max, which build no
    boolean temporary and are returned with it as Python floats (inf and
    -inf if it is empty).  A Python float is its own min and max."""
    if type(value) is float:
        _check_scalar(value, name, rule)
        return np.asarray(value), value, value
    arr = _as_real(value, name)
    lo, hi = float(arr.min(initial=np.inf)), float(arr.max(initial=-np.inf))
    if arr.size and not (_RULES[rule](lo) and _RULES[rule](hi)):
        raise _fail(name, rule)
    return arr, lo, hi


def _check_real(value, name: str, rule: str = "finite") -> np.ndarray:
    """:func:`_check_range` without the range."""
    return _check_range(value, name, rule)[0]
