"""The closed-form level shifts against 40-digit mpmath quadrature.

``lamb_shift``, ``total_shift`` (both routes) and ``delta_offshell`` (all
four kinds) sum principal values PV int_0^cutoff g(w)/(p - w) dw.  The
oracles in ``helpers`` integrate the unexpanded integrands, the couplings
built from u_plus/u_minus, with ``mpmath.quad`` at 40 digits.  The cases
include the edges of the closed forms: a pole at 0 where g(0) = 0, poles
within rounding of 0 and of the cutoff, the symmetric kind's p = -omega_0,
poles far outside [0, cutoff] and cutoffs up to 1e12 times the transition
frequency.
"""

import pytest

from lineshape import (
    COULOMB,
    POINCARE,
    SYMMETRIC,
    DomainError,
    GaugeRepresentation,
    build_oscillator,
    build_two_level,
    delta_offshell,
    lamb_shift,
    total_shift,
)

from helpers import mp_delta_offshell, mp_lamb_shift, mp_total_shift

TWO = build_two_level(1.0, 1.0)
LADDER = build_oscillator(1.0, 1.0, 5)
ALPHA = GaugeRepresentation.constant(0.3)
KINDS = (COULOMB, POINCARE, SYMMETRIC, ALPHA)
REL = 1e-13
ULP = 2.0**-52


def assert_close(got, want):
    assert abs(got - float(want)) <= REL * abs(float(want)), (got, float(want))


@pytest.mark.parametrize("model, state, cutoff", [
    (TWO, "e", 1.5), (TWO, "e", 1e3), (TWO, "e", 1e5), (TWO, "e", 1e12),
    (TWO, "g", 1e3), (LADDER, "1", 1e3),
], ids=["two-1.5", "two-1e3", "two-1e5", "two-1e12", "ground-1e3", "ladder-1e3"])
def test_lamb_shift(model, state, cutoff):
    assert_close(lamb_shift(model, state, cutoff), mp_lamb_shift(model, state, cutoff))


@pytest.mark.parametrize("rep", [COULOMB, POINCARE], ids=lambda r: r.name)
@pytest.mark.parametrize("model, state, cutoff", [
    (TWO, "e", 1.5), (TWO, "e", 1e12), (LADDER, "1", 1e3),
], ids=["two-1.5", "two-1e12", "ladder-1e3"])
def test_total_shift(model, state, rep, cutoff):
    assert_close(total_shift(model, state, rep, cutoff),
                 mp_total_shift(model, state, rep, cutoff))


# (omega, cutoff) for the two-level atom's excited state, whose one partner
# has energy 0, so the pole is omega itself, with no rounding.
POLES = {
    "inside": (1.3, 1e3),
    "at-0": (0.0, 1e3),
    "rounding-above-0": (1e-300, 1e3),
    "rounding-below-cutoff": (1e3 * (1.0 - ULP), 1e3),
    "rounding-above-cutoff": (1e3 * (1.0 + 2.0 * ULP), 1e3),
    "at-minus-omega0": (-1.0, 1e3),
    "far-above": (1e6, 1e3),
    "far-below": (-1e6, 1e3),
    "cutoff-1e12": (1.3, 1e12),
    "cutoff-just-above-omega0": (0.5, 1.0001),
}


# Every pole for the custom kind (each power of w) and the symmetric kind
# (its own partial fractions); Coulomb (w) and Poincare (w^3) at four.
CASES = [(*POLES[name], rep, f"{name}-{rep.name}") for rep in (ALPHA, SYMMETRIC)
         for name in POLES]
CASES += [(*POLES[name], rep, f"{name}-{rep.name}") for rep in (COULOMB, POINCARE)
          for name in ("inside", "at-0", "far-below", "cutoff-just-above-omega0")]


@pytest.mark.parametrize("omega, cutoff, rep", [case[:3] for case in CASES],
                         ids=[case[3] for case in CASES])
def test_delta_offshell(omega, cutoff, rep):
    assert_close(delta_offshell(omega, TWO, rep, cutoff),
                 mp_delta_offshell(omega, TWO, rep, cutoff))


# Around p = -omega_0, where the symmetric kind's partial fractions cancel
# and a series takes over for |p + omega_0| < 3 omega_0/4.
@pytest.mark.parametrize("omega", [-1.0 - 1e-9, -1.0 + 1e-9, -1.74, -1.76, -0.26, -0.24])
@pytest.mark.parametrize("cutoff", [1.0001, 1e3])
def test_symmetric_kind_near_minus_omega0(omega, cutoff):
    assert_close(delta_offshell(omega, TWO, SYMMETRIC, cutoff),
                 mp_delta_offshell(omega, TWO, SYMMETRIC, cutoff))


@pytest.mark.parametrize("rep", [ALPHA, SYMMETRIC], ids=lambda r: r.name)
def test_delta_offshell_with_an_upward_channel(rep):
    # Ladder level 1: the downward pole is at 0.3, the upward one at -1.7,
    # where the custom kind's u_plus changes the sign of its w^2 term and
    # the symmetric kind's is 0.
    assert_close(delta_offshell(1.3, LADDER, rep, 1e3, "1"),
                 mp_delta_offshell(1.3, LADDER, rep, 1e3, "1"))


def test_symmetric_partial_fractions():
    import sympy  # here, so that collecting the suite does not import it (0.3 s)

    w, a, p = sympy.symbols("w a p")
    big_p = p + a
    h = a**2 * (3 * p + 2 * a) / big_p**2
    used = ((p - 2 * a) / (p - w) - 1 + h * (1 / (p - w) + 1 / (w + a))
            - a**3 / (big_p * (w + a) ** 2))
    integrand = w**3 / ((w + a) ** 2 * (p - w))
    assert sympy.simplify(sympy.apart(integrand, w) - used) == 0
    # The coefficient of the log is g(p) = p^3/P^2, which vanishes at p = 0.
    assert sympy.simplify((p - 2 * a) + h - p**3 / big_p**2) == 0
    # At p = -a the pole merges with the double one, and the integrand is
    # -w^3/(w + a)^3, the series' m = 0 term.
    assert sympy.simplify(integrand.subs(p, -a) + w**3 / (w + a) ** 3) == 0


@pytest.mark.parametrize("rep", KINDS, ids=lambda r: r.name)
def test_pole_at_the_cutoff_diverges(rep):
    with pytest.raises(DomainError, match="level shift must be finite"):
        delta_offshell(1e3, TWO, rep, 1e3)


def test_the_node_count_is_unused():
    values = {
        n: (lamb_shift(LADDER, "1", 1e3, n),
            total_shift(LADDER, "1", COULOMB, 1e3, n),
            total_shift(LADDER, "1", POINCARE, 1e3, n),
            *(delta_offshell(1.3, LADDER, rep, 1e3, "1", n) for rep in KINDS))
        for n in (5, 4096, 16385)
    }
    first = [v.hex() for v in values[5]]
    assert all([v.hex() for v in row] == first for row in values.values())
