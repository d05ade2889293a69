"""Principal-value quadrature against closed-form antiderivatives."""

import math

import numpy as np
import pytest

from lineshape import quadrature
from lineshape.quadrature import pv_quad, smooth_quad


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
    assert got == pytest.approx(pv_linear(pole, 0.0, 100.0), rel=1e-8)


@pytest.mark.parametrize("pole", [0.5, 3.0, 37.0])
def test_interior_pole_cubic_weight(pole):
    got = pv_quad(lambda t: t**3, pole, 0.0, 100.0)
    assert got == pytest.approx(pv_cubic(pole, 0.0, 100.0), rel=1e-9)


@pytest.mark.parametrize("pole", [-4.0, 101.0, 250.0])
def test_exterior_pole_is_a_regular_integral(pole):
    got = pv_quad(lambda t: t, pole, 0.0, 100.0)
    assert got == pytest.approx(pv_linear(pole, 0.0, 100.0), rel=1e-8)


def test_kernel_changes_sign_across_the_pole():
    pole = 2.0
    just_below = pv_quad(lambda t: np.ones_like(t), pole, 1.9, 1.999)
    just_above = pv_quad(lambda t: np.ones_like(t), pole, 2.001, 2.1)
    assert just_below > 0.0 > just_above


def test_doubling_the_grid_confirms_convergence():
    pole, lo, hi = 1.0, 0.0, 100.0
    coarse = pv_quad(lambda t: t, pole, lo, hi, n=4096)
    fine = pv_quad(lambda t: t, pole, lo, hi, n=8192)
    exact = pv_linear(pole, lo, hi)
    assert abs(fine - exact) <= abs(coarse - exact) + 1e-12
    assert abs(fine - coarse) < 1e-7


def test_smooth_quad_polynomial():
    got = smooth_quad(lambda t: t**2, 0.0, 3.0, toward="lo")
    assert got == pytest.approx(9.0, rel=1e-12)


@pytest.mark.parametrize("f, toward", [
    (lambda t: (3.0 - t) ** 2, "lo"), (lambda t: t**2, "hi"),
], ids=["lo", "hi"])
def test_smooth_quad_keeps_the_sliver_at_the_graded_end(f, toward):
    # The first graded node sits 1e-12 of the span inside the endpoint,
    # where f = 9; dropping that sliver would miss 2.7e-11.
    assert abs(smooth_quad(f, 0.0, 3.0, toward=toward) - 9.0) < 1e-14


def test_pv_pole_far_below_a_long_interval():
    # PV int_0^1e5 dt/(1 - t) = -log(99999); the regular remainder is
    # graded toward its low end, next to the pole (1.04e-7 off without
    # the sliver).
    got = pv_quad(np.ones_like, 1.0, 0.0, 1e5)
    assert abs(got + math.log(99999.0)) < 1e-8


def test_smooth_quad_graded_endpoint():
    # Integrand varies fastest near the lower endpoint.
    got = smooth_quad(lambda t: 1.0 / (0.01 + t), 0.0, 1.0, toward="lo")
    assert got == pytest.approx(math.log(1.01 / 0.01), rel=1e-8)


def test_empty_interval_is_zero():
    assert pv_quad(lambda t: t, 0.5, 2.0, 2.0) == 0.0
    assert smooth_quad(lambda t: t, 2.0, 1.0, toward="lo") == 0.0


@pytest.mark.parametrize("pole, lo, hi, n", [
    (0.3, 0.0, 1.0, 4096),      # interior pole, regular remainder graded "lo"
    (61.0, 0.0, 100.0, 1025),   # interior pole, remainder graded "hi"
    (-4.0, 0.0, 100.0, 16385),  # exterior pole, smooth_quad alone
])
def test_stored_grading_keeps_every_bit(monkeypatch, pole, lo, hi, n):
    # The node table is built once per count: a first call (empty table),
    # a repeated call and a call on a fresh geomspace give the same bits.
    quadrature._grading.cache_clear()
    first = pv_quad(lambda t: t**3, pole, lo, hi, n)
    again = pv_quad(lambda t: t**3, pole, lo, hi, n)
    monkeypatch.setattr(quadrature, "_grading",
                        lambda count: np.geomspace(1e-12, 1.0, count))
    fresh = pv_quad(lambda t: t**3, pole, lo, hi, n)
    assert first.hex() == again.hex() == fresh.hex()


def test_stored_grading_is_read_only():
    grading = quadrature._grading(4097)
    assert grading is quadrature._grading(4097)
    assert not grading.flags.writeable
    with pytest.raises(ValueError):
        grading[0] = 0.0
    assert grading.tobytes() == np.geomspace(1e-12, 1.0, 4097).tobytes()
