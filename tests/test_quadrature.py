"""Principal-value quadrature against closed-form antiderivatives and
40-digit mpmath."""

import math

import numpy as np
import pytest

from lineshape.quadrature import pv_quad

from helpers import mp_pv

REL = 1e-13


def pv_linear(x, lo, hi):
    # PV int_lo^hi t/(x-t) dt
    return -(hi - lo) + x * math.log(abs((x - lo) / (x - hi)))


def pv_cubic(x, lo, hi):
    # PV int_lo^hi t^3/(x-t) dt
    poly = (hi**3 - lo**3) / 3.0 + x * (hi**2 - lo**2) / 2.0 + x**2 * (hi - lo)
    return -poly + x**3 * math.log(abs((x - lo) / (x - hi)))


@pytest.mark.parametrize("pole", [0.3, 1.0, 7.0, 61.0, 99.0])
def test_interior_pole_linear_weight(pole):
    got = pv_quad(lambda t: t, pole, 0.0, 100.0)
    assert got == pytest.approx(pv_linear(pole, 0.0, 100.0), rel=REL)


@pytest.mark.parametrize("pole", [0.5, 3.0, 37.0])
def test_interior_pole_cubic_weight(pole):
    got = pv_quad(lambda t: t**3, pole, 0.0, 100.0)
    assert got == pytest.approx(pv_cubic(pole, 0.0, 100.0), rel=REL)


@pytest.mark.parametrize("pole", [-4.0, 101.0, 250.0])
def test_exterior_pole_is_a_regular_integral(pole):
    got = pv_quad(lambda t: t, pole, 0.0, 100.0)
    assert got == pytest.approx(pv_linear(pole, 0.0, 100.0), rel=REL)


def test_kernel_changes_sign_across_the_pole():
    pole = 2.0
    just_below = pv_quad(lambda t: np.ones_like(t), pole, 1.9, 1.999)
    just_above = pv_quad(lambda t: np.ones_like(t), pole, 2.001, 2.1)
    assert just_below > 0.0 > just_above


def test_doubling_the_grid_confirms_convergence():
    pole, lo, hi = 1.0, 0.0, 100.0
    coarse = pv_quad(lambda t: t, pole, lo, hi, 600)
    fine = pv_quad(lambda t: t, pole, lo, hi, 1200)
    exact = pv_linear(pole, lo, hi)
    assert abs(fine - exact) <= abs(coarse - exact)
    assert abs(fine - coarse) < 1e-10 * abs(exact)


@pytest.mark.parametrize("pole", [-1.0, 5.0], ids=["below", "above"])
def test_a_polynomial_times_the_kernel_is_integrated_exactly(pole):
    # g(t) = (pole - t) t^2 cancels the kernel: int_0^3 t^2 dt = 9, with
    # the panels graded toward the end next to the pole.
    got = pv_quad(lambda t: (pole - t) * t**2, pole, 0.0, 3.0)
    assert got == pytest.approx(9.0, rel=REL)


def test_pole_just_below_the_range():
    # int_0^1 dt/(0.01 + t) = log(101): the integrand varies fastest at 0.
    got = pv_quad(lambda t: -np.ones_like(t), -0.01, 0.0, 1.0)
    assert got == pytest.approx(math.log(101.0), rel=REL)


def test_pv_pole_far_below_a_long_interval():
    # PV int_0^1e5 dt/(1 - t) = -log(99999); the regular remainder starts
    # 1e-5 of its span above the pole.
    got = pv_quad(np.ones_like, 1.0, 0.0, 1e5)
    assert got == pytest.approx(-math.log(99999.0), rel=REL)


def test_empty_interval_is_zero():
    assert pv_quad(lambda t: t, 0.5, 2.0, 2.0) == 0.0
    assert pv_quad(lambda t: t, 0.5, 2.0, 1.0) == 0.0


# g, as (numpy, mpmath) functions; the last is the symmetric kind's
# 4 a w^3/(w + a)^2 at a = 1, whose singularity at w = -1 sits just below
# every range that starts at 0.
WEIGHTS = {
    "1": (np.ones_like, lambda w: 1),
    "w": (lambda w: w, lambda w: w),
    "w2": (np.square, lambda w: w**2),
    "w3": (lambda w: w**3, lambda w: w**3),
    "symmetric": (lambda w: 4.0 * w**3 / (w + 1.0) ** 2,
                  lambda w: 4 * w**3 / (w + 1) ** 2),
}
POLES = {  # as functions of the cutoff
    "interior": lambda cut: 1.3,
    "interior_third": lambda cut: cut / 3.0,
    "below": lambda cut: -0.7,
    "above": lambda cut: 2.0 * cut,
    "near_0": lambda cut: 1e-3,
    "near_cutoff": lambda cut: cut - 1e-3,
}


@pytest.mark.parametrize("cutoff", [10.0, 1e3, 1e5])
@pytest.mark.parametrize("pole", POLES)
@pytest.mark.parametrize("weight", WEIGHTS)
def test_against_40_digit_mpmath(weight, pole, cutoff):
    g, mp_g = WEIGHTS[weight]
    p = POLES[pole](cutoff)
    want = float(mp_pv(mp_g, p, cutoff))
    assert abs(pv_quad(g, p, 0.0, cutoff) - want) <= 1e-14 * abs(want)
