"""The numpy special functions of the analytic routes against mpmath at 40 digits."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from hcppnet import _special


def _rel(got, want):
    return abs(got - want) / abs(want)


def _exp_tail_series(theta, u):
    # sum_{n>=3} u^(n-theta) / (n! (n-theta)) at 40 digits: every term positive, so no digit cancels
    with mpmath.workdps(40):
        th, mu = mpmath.mpf(theta), mpmath.mpf(u)
        n, power, total = 3, mu**3 / 6, mpmath.mpf(0)
        while True:
            term = power / (n - th)
            total += term
            if term < total * mpmath.mpf(10) ** -42:
                return total * mu**-th
            n += 1
            power *= mu / n


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=1.0, max_value=2.0), st.floats(1e-12, 690.0))
@example(1.0, 1e-12)
@example(1.0 + 2**-52, 690.0)
@example(2.0, 1e-12)
@example(2.0, 690.0)
@example(1.5, 60.0)  # the last argument summed as a power series
@example(1.5, math.nextafter(60.0, math.inf))
@example(1.0 + 1e-9, 45.0)
@example(1.8, 1.0)  # a bucket edge of the power series
@example(1.0002, 40.0)
def test_exp_tail_matches_mpmath(theta, u):
    assert _rel(_special.exp_tail(theta, u), _exp_tail_series(theta, u)) <= 1e-14


def test_exprel_is_scipys():
    x = np.array([0.0, -0.0, 1e-17, -1e-16, -1.5e-16, -1e-9, -0.5, -1.0, -30.0, -800.0, 2.0])
    assert np.array_equal(_special.exprel(x), special.exprel(x))


_NEAR_ODD = [3.0 - 1e-6, 3.0 - 1e-9, 3.0, 3.0 + 1e-9, 3.0 + 1e-6]


@settings(max_examples=200, deadline=None)
@given(st.floats(2.05, 5.0), st.floats(0.0, 1.0 - 1e-14))
@example(3.0, 1.0 - 1e-14)
@example(4.0, 1.0 - 1e-14)
@example(5.0, 1.0 - 1e-14)
@example(2.05, 0.5)
@example(2.05, math.nextafter(0.5, 1.0))  # the switch to the connection formula
@example(3.8, 0.999)
@example(4.0 + 1e-9, 1.0 - 1e-14)
@example(5.0 - 1e-9, 0.75)
def test_near_field_hypergeometric_matches_mpmath(alpha, z):
    # F(1-a, 1-a; 1; z), a = alpha/2: a polynomial at even alpha, a logarithmic limit at odd alpha
    with mpmath.workdps(40):
        b = 1 - mpmath.mpf(alpha) / 2
        want = mpmath.hyp2f1(b, b, 1, mpmath.mpf(z))
    assert _rel(_special.hyp2f1_near(alpha, np.array([z]))[0], want) <= 1e-12


@pytest.mark.parametrize("alpha", _NEAR_ODD)
def test_near_field_hypergeometric_keeps_its_digits_near_odd_alpha(alpha):
    # both terms of the plain connection formula carry a 1/(alpha - 3) pole that cancels
    z = np.array([0.5 + 1e-9, 0.6, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-14])
    got = _special.hyp2f1_near(alpha, z)
    with mpmath.workdps(40):
        b = 1 - mpmath.mpf(alpha) / 2
        for g, zz in zip(got, z):
            assert _rel(g, mpmath.hyp2f1(b, b, 1, mpmath.mpf(zz))) <= 1e-14


@pytest.mark.parametrize("alpha", [16.5, 40.5, 99.0, 400.7, 1000.5])
def test_near_field_hypergeometric_holds_at_a_steep_alpha(alpha):
    # the connection formula's alternating head grows like e^(a w / 2), so it starts nearer z = 1 as alpha grows
    w_s = min(0.5, 16.0 / alpha)
    z = np.array([0.3, 1.0 - 1.01 * w_s, 1.0 - 0.99 * w_s, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
    got = _special.hyp2f1_near(alpha, z)
    with mpmath.workdps(80):
        b = 1 - mpmath.mpf(alpha) / 2
        for g, zz in zip(got, z):
            assert _rel(g, mpmath.hyp2f1(b, b, 1, mpmath.mpf(zz))) <= 1e-12


def test_near_field_hypergeometric_past_the_double_range_raises():
    with pytest.raises(OverflowError, match="double range"):
        _special.hyp2f1_near(1031.0, np.array([0.5]))


@settings(max_examples=100, deadline=None)
@given(st.floats(2.0, 8.0, exclude_min=True), st.floats(0.0, 0.25, exclude_max=True))
@example(2.0 + 1e-9, 0.2499)
@example(8.0, 0.2499)
@example(3.8, 0.0)
def test_far_field_hypergeometric_matches_mpmath(alpha, z):
    # F(a, a-1; 1; z), a = alpha/2; the far field of a figure has z < 1/4
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha) / 2
        want = mpmath.hyp2f1(a, a - 1, 1, mpmath.mpf(z))
    assert _rel(_special.hyp2f1_far(alpha, z), want) <= 1e-14


@settings(max_examples=100, deadline=None)
@given(st.floats(0.6, 30.0), st.floats(-0.5, 0.5))
@example(1.0, 0.0)
@example(2.5, 1e-300)
def test_lgamma_slope_matches_mpmath(x, e):
    with mpmath.workdps(40):
        mx, me = mpmath.mpf(x), mpmath.mpf(e)
        # below 1e-20 the slope is the digamma function to far more than double precision
        want = mpmath.digamma(mx) if abs(e) < 1e-20 else (mpmath.loggamma(mx + me) - mpmath.loggamma(mx)) / me
    assert abs(_special._lgamma_slope(x, e) - want) <= 1e-14 * max(abs(want), 1.0)
