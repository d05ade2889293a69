"""Atomic level models: energies and dipole matrix elements.

An :class:`AtomModel` stores level energies and real dipole matrix
elements, all along one axis.  The rates and shifts use only |d_nm|**2,
and the Coulomb-route diagonal term of the total shift is weighted along
that same axis, so a dipole element is one real number.  Position and
momentum elements are always derived from the dipoles,

    r_nm = -d_nm / e,        |p_nm| = |i m omega_nm r_nm| = m |omega_nm| |d_nm| / e

never stored independently, so the position/momentum relation used by the
gauge-invariance checks holds by construction.

Two builders are provided: a two-level atom (the workhorse of the emission
and pulse calculations) and a harmonic ladder whose interior states satisfy
the Thomas-Reiche-Kuhn sum rule exactly, which is what makes the Coulomb-
and Poincare-route level shifts coincide mode by mode.  Both take unit
charge; a model with e != 1 is built as an :class:`AtomModel` directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .errors import ConfigurationError, DomainError, _check_scalar

__all__ = [
    "Level",
    "AtomModel",
    "build_two_level",
    "build_oscillator",
    "trk_sum",
]


class Level(NamedTuple):
    label: str
    energy: float


class Transition(NamedTuple):
    """A dipole-connected partner level, seen from some reference state."""

    label: str
    omega: float  # energy(label) - energy(reference)
    dipole: float  # d_{label,reference}


@dataclass(frozen=True)
class AtomModel:
    """Immutable level scheme with real, symmetric dipole couplings.

    ``levels`` must be ordered by strictly increasing energy.  ``dipoles``
    maps ordered label pairs (n, m) to the real d_nm along the model's one
    axis; the partner (m, n) gets the same value, and a pair given both
    ways must agree.
    """

    levels: tuple[Level, ...]
    dipoles: dict[tuple[str, str], float]
    mass: float = 1.0
    charge: float = 1.0

    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_scalar(self.mass, "mass")
        _check_scalar(self.charge, "charge")
        for lv in self.levels:
            _check_scalar(lv.energy, f"energy of level {lv.label!r}", "finite")
        labels = [lv.label for lv in self.levels]
        if len(set(labels)) != len(labels):
            raise DomainError("level labels must be unique")
        energies = [lv.energy for lv in self.levels]
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise DomainError("level energies must be strictly increasing")

        full: dict[tuple[str, str], float] = {}
        for (n, m), value in self.dipoles.items():
            if n not in labels or m not in labels:
                raise DomainError(f"dipole element references unknown level ({n},{m})")
            if n == m:
                raise DomainError("dipole elements must connect distinct levels")
            _check_scalar(value, f"dipole element ({n},{m})", "finite")
            for key in ((n, m), (m, n)):
                if full.setdefault(key, float(value)) != value:
                    raise DomainError(
                        f"dipole map is not symmetric at ({key[0]},{key[1]})")
        object.__setattr__(self, "dipoles", full)
        object.__setattr__(self, "_index", {lb: i for i, lb in enumerate(labels)})

    # -- lookups ---------------------------------------------------------

    def _require(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise DomainError(f"unknown level label {label!r}") from None

    def energy(self, label: str) -> float:
        return self.levels[self._require(label)].energy

    def omega(self, n: str, m: str) -> float:
        """Transition frequency omega_nm = omega_n - omega_m (antisymmetric)."""
        return self.energy(n) - self.energy(m)

    def dipole(self, n: str, m: str) -> float:
        """d_nm; zero when the pair is not dipole-connected."""
        self._require(n), self._require(m)
        return self.dipoles.get((n, m), 0.0)

    def momentum(self, n: str, m: str) -> float:
        """|p_nm| = m |omega_nm| |d_nm| / e."""
        return self.mass * abs(self.omega(n, m)) * abs(self.dipole(n, m)) / self.charge

    def transitions_from(self, state: str) -> Iterator[Transition]:
        """All dipole-connected partners of ``state``."""
        self._require(state)
        for (n, m), d in sorted(self.dipoles.items()):
            if m == state:
                yield Transition(n, self.omega(n, state), d)

    @property
    def top(self) -> str:
        """Label of the highest-energy level."""
        return self.levels[-1].label


def build_two_level(omega_eg: float, d_eg: float) -> AtomModel:
    """Two levels ``g`` (energy 0) and ``e`` (energy omega_eg), unit mass
    and charge, joined by the real dipole ``d_eg`` >= 0; polarization
    geometry is handled downstream by angular factors."""
    _check_scalar(omega_eg, "omega_eg")
    _check_scalar(d_eg, "d_eg", "non-negative")
    return AtomModel(
        levels=(Level("g", 0.0), Level("e", float(omega_eg))),
        dipoles={("e", "g"): float(d_eg)} if d_eg > 0 else {},
    )


def build_oscillator(omega: float, mass: float, n_levels: int) -> AtomModel:
    """Harmonic ladder: omega_n = n omega, x_{n,n+1} = sqrt((n+1)/(2 m omega)).

    Levels are labelled "0", "1", ....  Only nearest neighbours are
    dipole-connected (selection rule).  Interior states of this model
    saturate the TRK sum rule: trk_sum == 1/(2 mass).
    """
    if not isinstance(n_levels, numbers.Integral) or n_levels < 3:  # bools fail too
        raise ConfigurationError(
            f"n_levels must be an integer of at least 3, got {n_levels!r}")
    _check_scalar(omega, "omega")
    _check_scalar(mass, "mass")
    # Bounds every x^2 = (n + 1) / (2 m omega), also where m omega underflows.
    _check_scalar(n_levels / 2.0 / mass / omega, "n_levels / (2 mass omega)")
    levels = tuple(Level(str(n), n * float(omega)) for n in range(n_levels))
    # d = -e x with e = 1; the sign is irrelevant to every |d|^2 sum downstream.
    dipoles = {(str(n + 1), str(n)): -math.sqrt((n + 1) / (2.0 * mass * omega))
               for n in range(n_levels - 1)}
    return AtomModel(levels=levels, dipoles=dipoles, mass=mass)


def trk_sum(model: AtomModel, state: str) -> float:
    """Oscillator-strength sum  sum_n omega_ns |r_ns|^2  along the dipole axis.

    Equals 1/(2 mass) when the model saturates the sum rule; that is
    exactly the condition under which the Coulomb- and Poincare-route
    total level shifts coincide.  A two-level model gives the negative value
    -omega_eg |r_eg|^2 from its single downward term, which is why
    two-level shift invariance fails.
    """
    total = 0.0
    for tr in model.transitions_from(state):
        r = tr.dipole / model.charge
        total += tr.omega * (r * r)
    return total
