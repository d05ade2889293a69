"""Gauge representations of the dipole-approximated atom-field coupling.

A one-parameter family of couplings between an atomic transition (frequency
``omega_0``) and a field mode (frequency ``omega_k``) is controlled by a
dimensionless mixing function alpha:

* alpha = 0 -- minimal coupling (Coulomb gauge), p.A form,
* alpha = 1 -- multipolar coupling (Poincare gauge), d.E form,
* alpha = omega_0 / (omega_k + omega_0) -- the symmetric representation,
  in which counter-rotating couplings vanish identically,
* alpha = const in [0, 1] -- any fixed mixture.

Every other module consumes the resulting pair of coupling functions
``u_plus`` / ``u_minus``, or the in-place mixing factor ``u_minus
sqrt(omega_k / omega_0)`` from which every representation factor of the
lineshape and the rates is built.  All functions are pure and accept
scalars or numpy arrays for the mode frequency.

Units: hbar = c = epsilon_0 = 1 throughout; frequencies are expressed in
units of a reference transition frequency (1.0 by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import _MAX, DomainError, _check_range, _check_scalar

__all__ = [
    "GaugeRepresentation",
    "COULOMB",
    "POINCARE",
    "SYMMETRIC",
    "coupling_pair",
]


@dataclass(frozen=True)
class GaugeRepresentation:
    """Selector for one member of the coupling family.

    ``kind`` is one of ``"coulomb"``, ``"poincare"``, ``"symmetric"`` or
    ``"custom"``; ``custom_alpha`` holds the fixed mixing constant for the
    ``"custom"`` kind and is None otherwise.
    """

    kind: str
    custom_alpha: float | None = None

    _KINDS = ("coulomb", "poincare", "symmetric", "custom")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DomainError(f"unknown representation kind {self.kind!r}")
        if self.kind == "custom":
            _check_scalar(self.custom_alpha, "custom mixing constant", "in [0, 1]")
        elif self.custom_alpha is not None:
            raise DomainError("custom_alpha is only meaningful for kind='custom'")

    @classmethod
    def constant(cls, alpha: float) -> "GaugeRepresentation":
        return cls("custom", alpha)

    @classmethod
    def parse(cls, text: str) -> "GaugeRepresentation":
        """Parse the CLI / scenario-file spelling of a representation.

        Accepted forms: ``coulomb``, ``poincare``, ``symmetric``,
        ``alpha:<float>``.
        """
        name = text.strip().lower()
        if name in ("coulomb", "poincare", "symmetric"):
            return cls(name)
        if name.startswith("alpha:"):
            try:
                value = float(name.split(":", 1)[1])
            except ValueError:
                raise DomainError(f"bad mixing constant in {text!r}") from None
            return cls.constant(value)
        raise DomainError(
            f"unknown representation {text!r}; expected coulomb, poincare, "
            "symmetric or alpha:<float>"
        )

    @property
    def name(self) -> str:
        """Canonical string form, usable with :meth:`parse`."""
        if self.kind == "custom":
            return "alpha:" + repr(float(self.custom_alpha)).removesuffix(".0")
        return self.kind

    def __str__(self) -> str:
        return self.name


COULOMB = GaugeRepresentation("coulomb")
POINCARE = GaugeRepresentation("poincare")
SYMMETRIC = GaugeRepresentation("symmetric")


class CouplingPair(NamedTuple):
    """Counter-rotating (``u_plus``) and rotating (``u_minus``) couplings."""

    u_plus: np.ndarray | float
    u_minus: np.ndarray | float


def _check_rep(rep) -> None:
    """Reject a ``rep`` that is not a GaugeRepresentation."""
    if not isinstance(rep, GaugeRepresentation):
        raise DomainError(f"representation must be a GaugeRepresentation, got {rep!r}")


def _constant_alpha(rep: GaugeRepresentation) -> float | None:
    """The fixed mixing constant, or None for the symmetric kind."""
    _check_rep(rep)
    return {"coulomb": 0.0, "poincare": 1.0, "symmetric": None}.get(
        rep.kind, rep.custom_alpha)


def coupling_pair(rep: GaugeRepresentation, omega_k, omega_0: float) -> CouplingPair:
    """Evaluate u_plus / u_minus for the given representation:

        u_plus  = (1 - alpha) sqrt(omega_0/omega_k) - alpha sqrt(omega_k/omega_0)
        u_minus = (1 - alpha) sqrt(omega_0/omega_k) + alpha sqrt(omega_k/omega_0)

    In the symmetric representation u_plus vanishes as an algebraic identity;
    that branch returns exact zeros so downstream rotating-wave identities
    hold to the last bit, and u_minus in the simplified form
    2 sqrt(omega_0 omega_k) / (omega_k + omega_0).

    Overflow raises DomainError and is decided from the input range first:
    the pair overflows exactly where omega_0/omega_k or omega_k/omega_0
    (omega_0 omega_k in the symmetric kind, whose sum cannot overflow while
    it is finite) leaves the float range, so the least and greatest omega_k
    decide the whole array.
    """
    _check_rep(rep)
    omega_k, lo, hi = _check_range(omega_k, "mode frequency", "positive")
    _check_scalar(omega_0, "transition frequency")
    w0, alpha = float(omega_0), _constant_alpha(rep)  # floats: no numpy warning
    if not (w0 * hi <= _MAX if alpha is None else w0 / lo <= _MAX and hi / w0 <= _MAX):
        raise DomainError("couplings overflow: omega_k/omega_0 is out of range")
    if alpha is None:
        u_minus = 2.0 * np.sqrt(omega_0 * omega_k) / (omega_k + omega_0)
        u_plus = np.zeros_like(u_minus)
    else:
        down = np.sqrt(omega_0 / omega_k)
        up = np.sqrt(omega_k / omega_0)
        # In place for arrays, two grid-sized temporaries fewer: same bits.
        down *= 1.0 - alpha
        up *= alpha
        u_plus = down - up
        u_minus = np.add(down, up, out=down) if down.ndim else down + up
    if not u_minus.ndim:
        return CouplingPair(float(u_plus), float(u_minus))
    return CouplingPair(u_plus, u_minus)


def _mixing(rep: GaugeRepresentation, x, out, tmp):
    """Mixing factor m = u_minus sqrt(x) = (1 - alpha) + alpha x at a checked
    ratio x = omega_k/omega_0, into ``out`` (``tmp`` is scratch): 1 on shell
    in every representation, and the one source of each representation
    factor (the lineshape numerator x m**2, the fluorescence factor m**4 / x)."""
    alpha = _constant_alpha(rep)
    if alpha is None:
        # The symmetric kind in exact form: 1 - alpha cancels for x << 1.
        return np.divide(np.multiply(x, 2.0, out=out), np.add(x, 1.0, out=tmp), out=out)
    return np.add(np.multiply(x, alpha, out=out), 1.0 - alpha, out=out)
