"""Atomic level models: energies and dipole matrix elements.

An :class:`AtomModel` stores level energies and a Hermitian map of dipole
matrix elements (complex 3-vectors).  Position and momentum elements are
always derived from the dipoles,

    r_nm = -d_nm / e,        p_nm = i m omega_nm r_nm,

never stored independently, so the position/momentum relation used by the
gauge-invariance checks holds by construction.

Two builders are provided: a two-level atom (the workhorse of the emission
and pulse calculations) and a harmonic ladder whose interior states satisfy
the Thomas-Reiche-Kuhn sum rule exactly, which is what makes the Coulomb-
and Poincare-route level shifts coincide mode by mode.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, _check_scalar

__all__ = [
    "Level",
    "AtomModel",
    "build_two_level",
    "build_oscillator",
    "trk_sum",
]

Vec3 = np.ndarray


class Level(NamedTuple):
    label: str
    energy: float


class Transition(NamedTuple):
    """A dipole-connected partner level, seen from some reference state."""

    label: str
    omega: float  # energy(label) - energy(reference)
    dipole: Vec3  # d_{label,reference}


def _as_vec3(value) -> Vec3:
    vec = np.asarray(value, dtype=complex)
    if vec.shape != (3,):
        raise DomainError(f"dipole element must be a 3-vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec.view(float))):
        raise DomainError("dipole element must be finite")
    vec.setflags(write=False)
    return vec


@dataclass(frozen=True)
class AtomModel:
    """Immutable level scheme with Hermitian dipole couplings.

    ``levels`` must be ordered by strictly increasing energy.  ``dipoles``
    maps ordered label pairs (n, m) to d_nm; missing Hermitian partners
    are filled in automatically.
    """

    levels: tuple[Level, ...]
    dipoles: dict[tuple[str, str], Vec3]
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

        full: dict[tuple[str, str], Vec3] = {}
        for (n, m), value in self.dipoles.items():
            if n not in labels or m not in labels:
                raise DomainError(f"dipole element references unknown level ({n},{m})")
            if n == m:
                raise DomainError("dipole elements must connect distinct levels")
            vec = _as_vec3(value)
            for key, val in (((n, m), vec), ((m, n), _as_vec3(np.conj(vec)))):
                if key in full and not np.allclose(full[key], val, rtol=0, atol=1e-14):
                    raise DomainError(
                        f"dipole map is not Hermitian at ({key[0]},{key[1]})"
                    )
                full[key] = val
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

    def dipole(self, n: str, m: str) -> Vec3:
        """d_nm; zero vector when the pair is not dipole-connected."""
        self._require(n), self._require(m)
        return self.dipoles.get((n, m), np.zeros(3, dtype=complex))

    def position(self, n: str, m: str) -> Vec3:
        return -self.dipole(n, m) / self.charge

    def momentum(self, n: str, m: str) -> Vec3:
        return 1j * self.mass * self.omega(n, m) * self.position(n, m)

    def transitions_from(self, state: str) -> Iterator[Transition]:
        """All dipole-connected partners of ``state``."""
        self._require(state)
        for (n, m), vec in sorted(self.dipoles.items()):
            if m == state:
                yield Transition(n, self.omega(n, state), vec)

    @property
    def top(self) -> str:
        """Label of the highest-energy level."""
        return self.levels[-1].label


def build_two_level(
    omega_eg: float, d_eg: float, *, mass: float = 1.0, charge: float = 1.0,
    axis=(0.0, 0.0, 1.0),
) -> AtomModel:
    """Two levels ``g`` (energy 0) and ``e`` (energy omega_eg).

    ``d_eg`` is the real dipole magnitude along ``axis``; polarization
    geometry is handled downstream by angular factors.
    """
    _check_scalar(omega_eg, "omega_eg")
    _check_scalar(d_eg, "d_eg", "non-negative")
    axis = _unit_axis(axis)
    dipoles = {}
    if d_eg > 0:
        dipoles[("e", "g")] = d_eg * axis.astype(complex)
    return AtomModel(
        levels=(Level("g", 0.0), Level("e", float(omega_eg))),
        dipoles=dipoles,
        mass=mass,
        charge=charge,
    )


def build_oscillator(
    omega: float, mass: float, n_levels: int, *, charge: float = 1.0,
    axis=(0.0, 0.0, 1.0),
) -> AtomModel:
    """Harmonic ladder: omega_n = n omega, x_{n,n+1} = sqrt((n+1)/(2 m omega)).

    Levels are labelled "0", "1", ....  Only nearest neighbours are
    dipole-connected (selection rule).  Interior states of this model
    saturate the TRK sum rule along ``axis``: trk_sum == 1/(2 mass).
    """
    if not isinstance(n_levels, numbers.Integral) or n_levels < 3:  # bools fail too
        raise ConfigurationError(
            f"n_levels must be an integer of at least 3, got {n_levels!r}")
    _check_scalar(omega, "omega")
    _check_scalar(mass, "mass")
    _check_scalar(charge, "charge")
    axis = _unit_axis(axis)
    levels = tuple(Level(str(n), n * float(omega)) for n in range(n_levels))
    dipoles = {}
    for n in range(n_levels - 1):
        x = np.sqrt((n + 1) / (2.0 * mass * omega))
        # d = -e x; the sign is irrelevant to every |d|^2 sum downstream.
        dipoles[(str(n + 1), str(n))] = -charge * x * axis.astype(complex)
    return AtomModel(levels=levels, dipoles=dipoles, mass=mass, charge=charge)


def _unit_axis(axis) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if axis.shape != (3,) or norm == 0:
        raise DomainError("axis must be a non-zero 3-vector")
    return axis / norm


def trk_sum(model: AtomModel, state: str, axis=(0.0, 0.0, 1.0)) -> float:
    """Oscillator-strength sum  sum_n omega_ns |r_ns . axis|^2.

    Equals 1/(2 mass) when the model saturates the sum rule along ``axis``;
    that is exactly the condition under which the Coulomb- and Poincare-route
    total level shifts coincide.  A two-level model gives the negative value
    -omega_eg |r_eg . axis|^2 from its single downward term, which is why
    two-level shift invariance fails.
    """
    axis = _unit_axis(axis)
    total = 0.0
    for tr in model.transitions_from(state):
        r = -tr.dipole / model.charge
        total += tr.omega * float(np.abs(np.dot(r, axis)) ** 2)
    return total

