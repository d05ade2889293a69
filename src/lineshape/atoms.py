"""Atomic level models, and the decay rates and level shifts they give.

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

Mode sums over the photon continuum are performed with the weight

    W(omega) = omega**2 / (3 pi**2)

which is the isotropic mode density omega**2 times the polarization and
angular sum of |v . e_k|^2, i.e. (8 pi / 3), divided by (2 pi)**3.  The
regularization volume never appears.  With this weight the golden-rule
decay rate of a transition with frequency w and dipole magnitude d is
w**3 d**2 / (3 pi) in natural units, identically in every representation.
Of the CLI runs, only ``--lamb-shift auto`` and ``verify`` import this
module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .errors import ConfigurationError, DomainError, _check_scalar
from .representations import (
    GaugeRepresentation,
    _check_rep,
    _constant_alpha,
    coupling_pair,
)

__all__ = [
    "Level",
    "AtomModel",
    "build_two_level",
    "build_oscillator",
    "trk_sum",
    "gamma_onshell",
    "gamma_offshell",
    "delta_offshell",
    "total_shift",
    "lamb_shift",
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


# -- decay rates -------------------------------------------------------------


def gamma_onshell(model: AtomModel, upper: str, lower: str) -> float:
    """Golden-rule decay rate w**3 |d|**2 / (3 pi) of upper -> lower, by the
    dipole route.  It is the same in every representation: :mod:`~lineshape.verify`
    checks it against the momentum route and each on-shell coupling."""
    w = model.omega(upper, lower)
    if w <= 0.0:
        raise DomainError("upper level must lie above lower level")
    d = model.dipole(lower, upper)
    rate = (w * w * w) * (d * d) / (3.0 * math.pi)
    _check_scalar(rate, "decay rate", "finite")
    return rate


def _channel_weight(rep, emitted: float, w_abs: float, downward: bool) -> float:
    """Squared coupling of an emission channel, relative to on shell."""
    pair = coupling_pair(rep, emitted, w_abs)
    u = pair.u_minus if downward else pair.u_plus
    u_on = coupling_pair(rep, w_abs, w_abs).u_minus
    return (emitted * emitted * (u * u)) / (w_abs * w_abs * (u_on * u_on))


def gamma_offshell(
    omega: float, model: AtomModel, rep: GaugeRepresentation,
    state: str | None = None,
) -> float:
    """Continuum decay rate Gamma(omega) at total energy ``omega``.

    Every dipole-connected partner n of ``state`` (default: the topmost
    level) with positive emitted frequency omega - omega_n contributes its
    golden-rule rate scaled by the representation's off-shell weight.
    Returns 0 below all thresholds.
    """
    _check_rep(rep)
    _check_scalar(omega, "omega", "finite")
    if state is None:
        state = model.top
    total = 0.0
    for tr in model.transitions_from(state):
        emitted = omega - model.energy(tr.label)
        if emitted <= 0.0:
            continue
        w_abs = abs(tr.omega)
        d2 = tr.dipole * tr.dipole
        base = (w_abs * w_abs * w_abs) * d2 / (3.0 * math.pi)
        total += base * _channel_weight(rep, emitted, w_abs, downward=tr.omega < 0.0)
    _check_scalar(total, "decay rate", "finite")
    return total


# -- level shifts ------------------------------------------------------------


def _require_cutoff(model: AtomModel, cutoff: float):
    _check_scalar(cutoff, "cutoff")
    w_max = max((abs(a.energy - b.energy) for a in model.levels for b in model.levels),
                default=0.0)
    if cutoff <= w_max:
        raise ConfigurationError(
            f"cutoff {cutoff} must exceed every transition frequency ({w_max})"
        )


# Every shift is a sum over dipole partners of principal values
#
#     PV int_0^cutoff g(w) / (p - w) dw
#
# over the mode frequency w, with g a polynomial of degree <= 3, or
# 4 a w^3 / (w + a)^2 for the symmetric kind's off-shell shift.  Splitting
# g(w)/(p - w) = g(p)/(p - w) - [g(w) - g(p)]/(w - p) leaves g(p) times
# log|p/(p - cutoff)| minus the integral of a polynomial: Bethe's logarithm
# (Phys. Rev. 72, 339, 1947; Cohen-Tannoudji, Dupont-Roc & Grynberg,
# Atom-Photon Interactions, 1992, ch. II).  Powers are written as products,
# since float ** raises OverflowError where a product gives inf, and an inf
# or nan total is rejected as a non-finite shift.  A pole at the cutoff
# diverges unless g vanishes there; g(p) = 0 drops the log term, so a pole
# at 0 with g(0) = 0 gives no 0 * log 0.


def _log_term(g: float, p: float, cutoff: float) -> float:
    """g log|p/(p - cutoff)|, with g times the principal value of
    int_0^cutoff dw/(p - w): 0 for g = 0, infinite for a pole at 0 or the
    cutoff, in log1p form where the ratio is near 1."""
    if g == 0.0:
        return 0.0
    if p < -0.5 * cutoff or p > 2.0 * cutoff:
        return -g * math.log1p(-cutoff / p)
    if p == 0.0 or p == cutoff:
        return g * (-math.inf if p == 0.0 else math.inf)
    return g * (math.log(abs(p)) - math.log(abs(p - cutoff)))


def _pv(c, p: float, cutoff: float) -> float:
    """PV int_0^cutoff g(w)/(p - w) dw for g(w) = sum_k c[k] w^k, k <= 3.

    A zero coefficient adds nothing, so an unused power cannot overflow
    into the result.  Beyond twice the cutoff from 0 the split cancels, so
    there the series int_0^cutoff w^k/(p - w) dw = cutoff^k sum_m
    r^(m+1)/(k+m+1), r = cutoff/p, is summed instead: |r| < 1/2, so it
    stops once |r|^(m+1) sum_k |c[k]| cutoff^k, which bounds the rest,
    is below rounding.
    """
    terms = []  # (k, c[k] cutoff^k), the coefficient multiplied in first
    for k, x in enumerate(c):
        if x != 0.0:
            for _ in range(k):
                x *= cutoff
            terms.append((k, x))
    if abs(p) > 2.0 * cutoff:
        r, scale = cutoff / p, sum(abs(x) for _, x in terms)
        total, r_m = 0.0, r
        for m in range(64):
            total += r_m * sum(x / (k + m + 1) for k, x in terms)
            if not abs(r_m) * scale > 1e-17 * abs(total):  # nan stops too
                break
            r_m *= r
        return total
    c0, c1, c2, c3 = (*c, 0.0, 0.0, 0.0)[:4]
    total = _log_term(c0 + p * (c1 + p * (c2 + p * c3)), p, cutoff)
    # int_0^cutoff [g(w) - g(p)]/(w - p) dw, term by term.
    for k, x in terms:
        if k == 1:
            total -= x
        elif k == 2:
            total -= x * (p / cutoff + 0.5)
        elif k == 3:
            total -= x * ((p / cutoff) * (p / cutoff) + 0.5 * (p / cutoff) + 1.0 / 3.0)
    return total


def _pv_symmetric(a: float, p: float, cutoff: float) -> float:
    """PV int_0^cutoff 4 a w^3 / ((w + a)^2 (p - w)) dw.

    With P = p + a and h(p) = a^2 (3p + 2a)/P^2, the partial fractions

        w^3/((w + a)^2 (p - w)) = (p - 2a)/(p - w) - 1
            + h(p) [1/(p - w) + 1/(w + a)] - a^3/(P (w + a)^2)

    integrate to g(p) log|p/(p - cutoff)| - cutoff + h(p) log(S/a)
    - a^2 cutoff/(P S), S = cutoff + a, g(p) = p^3/P^2.  Near p = -a,
    where P -> 0 and these cancel, the series 1/(P - s) = -sum P^m/s^(m+1)
    in s = w + a is summed instead (|P| < 3a/4 <= 3s/4); beyond twice the
    cutoff, the polynomial part goes through :func:`_pv`.
    """
    big_p, x = p + a, cutoff / a  # x = S/a - 1
    if abs(big_p) < 0.75 * a:
        # -4 a^2 sum_m (P/a)^m J_m, J_m = int_t0^1 (1 - t)^3 t^(m-2) dt,
        # t0 = a/S; for m >= 2 the complete integral B(m - 1, 4) minus
        # the one over [0, t0].
        t0, log_s = 1.0 / (1.0 + x), math.log1p(x)
        r = big_p / a
        total = (x - 3.0 * log_s + (1.0 - t0) * (5.0 - t0) / 2.0  # J_0, J_1
                 + r * (log_s - (1.0 - t0) * (11.0 - 7.0 * t0 + 2.0 * t0 * t0) / 6.0))
        r_m, t_m = r, 1.0
        for m in range(2, 200):
            r_m *= r  # r^m
            t_m *= t0  # t0^(m-1)
            j = (6.0 / ((m - 1) * m * (m + 1) * (m + 2))
                 - t_m * (1.0 / (m - 1) - 3.0 * t0 / m
                          + 3.0 * t0 * t0 / (m + 1) - t0 * t0 * t0 / (m + 2)))
            total += r_m * j
            if not abs(r_m) * 6.0 / (m * m * m * m) > 1e-17 * abs(total):
                break
        return -4.0 * a * (a * total)
    ap = a / big_p
    h = ap * ap * (3.0 * p + 2.0 * a)
    rest = h * math.log1p(x) - a * ap * (x / (1.0 + x))
    if abs(p) > 2.0 * cutoff:
        return 4.0 * a * (_pv((-2.0 * a, 1.0), p, cutoff) + _log_term(h, p, cutoff) + rest)
    g = p * (p / big_p) * (p / big_p)
    return 4.0 * a * (_log_term(g, p, cutoff) - cutoff + rest)


def delta_offshell(
    omega: float, model: AtomModel, rep: GaugeRepresentation, cutoff: float,
    state: str | None = None, n: int = 4096,
) -> float:
    """Second-order level-shift function Delta(omega) at total energy omega.

    Principal-value integral over the mode continuum up to ``cutoff``, in
    closed form.  Downward transitions couple through u_minus, upward ones
    through u_plus; in the symmetric representation the upward
    (counter-rotating) channels therefore drop out.  Off shell the result is
    representation dependent.  ``n`` is unused: it was the node count of the
    quadrature this replaced, and leaves the signature with the benchmark
    revision of ROADMAP item 1.
    """
    _check_scalar(omega, "omega", "finite")
    _require_cutoff(model, cutoff)
    if state is None:
        state = model.top
    alpha = _constant_alpha(rep)
    total = 0.0
    for tr in model.transitions_from(state):
        a = abs(tr.omega)
        d2 = tr.dipole * tr.dipole
        downward = tr.omega < 0.0
        if d2 == 0.0 or (alpha is None and not downward):
            continue  # the symmetric kind's u_plus is 0
        coeff = a * d2 / (6.0 * math.pi * math.pi)
        pole = omega - model.energy(tr.label)
        if alpha is None:
            total += coeff * _pv_symmetric(a, pole, cutoff)
        else:
            # w^2 u^2 = (1 - alpha)^2 a w +- 2 alpha (1 - alpha) w^2 + alpha^2 w^3 / a
            mixed = 2.0 * alpha * (1.0 - alpha)
            c = (0.0, (1.0 - alpha) * (1.0 - alpha) * a,
                 mixed if downward else -mixed, alpha * alpha / a)
            total += coeff * _pv(c, pole, cutoff)
    _check_scalar(total, "level shift", "finite")
    return total


def total_shift(
    model: AtomModel, state: str, rep: GaugeRepresentation, cutoff: float,
    n: int = 4096,
) -> float:
    """On-shell total shift of ``state``: diagonal term plus second-order sum.

    Cutoff dependent (quadratically through the diagonal term); the
    TRK-saturating oscillator model yields the same value on the Coulomb
    and Poincare routes, a two-level model does not.  In closed form;
    ``n`` is unused, as in :func:`delta_offshell`.
    """
    _check_rep(rep)
    _require_cutoff(model, cutoff)
    e2 = model.charge * model.charge
    if rep.kind == "coulomb":
        # The diagonal A^2 term, int_0^cutoff e^2 w / (12 pi^2 m) dw.
        total = e2 * (cutoff * cutoff) / (24.0 * math.pi * math.pi * model.mass)
        for tr in model.transitions_from(state):
            p = model.momentum(tr.label, state)
            if p == 0.0:
                continue
            coeff = e2 * (p * p) / (6.0 * math.pi * math.pi * model.mass * model.mass)
            # PV int_0^cutoff w / (omega_ns + w) dw; its pole is at -omega_ns.
            total += coeff * _pv((0.0, 1.0), -tr.omega, cutoff)
    elif rep.kind == "poincare":
        total = 0.0
        for tr in model.transitions_from(state):
            d2 = tr.dipole * tr.dipole
            if d2 == 0.0:
                continue
            coeff = 0.5 * d2 * tr.omega / (3.0 * math.pi * math.pi)
            total -= coeff * _pv((0.0, 0.0, 1.0), -tr.omega, cutoff)
    else:
        raise DomainError(
            "the diagonal interaction term is defined only on the coulomb and "
            "poincare routes"
        )
    _check_scalar(total, "level shift", "finite")
    return total


def lamb_shift(model: AtomModel, state: str, cutoff: float, n: int = 4096) -> float:
    """Mass-renormalized second-order shift of ``state`` (cutoff in program units).

    The per-transition kernel integrates to omega_ns^3 |r_ns|^2 / (6 pi^2)
    times log|(omega_ns + cutoff)/omega_ns|, so the value grows
    logarithmically with the cutoff; callers should echo the cutoff next to
    the number.  In closed form at any cutoff above every transition
    frequency; ``n`` is unused, as in :func:`delta_offshell`.
    """
    _require_cutoff(model, cutoff)
    e2 = model.charge * model.charge
    total = 0.0
    for tr in model.transitions_from(state):
        p = model.momentum(tr.label, state)
        if p == 0.0:
            continue
        coeff = (e2 * tr.omega * (p * p)
                 / (6.0 * math.pi * math.pi * model.mass * model.mass))
        total -= coeff * _pv((1.0,), -tr.omega, cutoff)
    _check_scalar(total, "level shift", "finite")
    return total
