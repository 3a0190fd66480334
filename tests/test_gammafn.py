import math
import random

import pytest
from scipy import special

from finitepart.gammafn import (EULER_GAMMA, digamma_int, expint_scaled,
                                gamma_ratio, gamma_real, harmonic,
                                lgamma_signed, pochhammer)
from finitepart.series import TERM_CAP


def test_digamma_small_values():
    assert digamma_int(1) == pytest.approx(-EULER_GAMMA, rel=1e-15)
    assert digamma_int(2) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-15)
    assert digamma_int(4) == pytest.approx(11.0 / 6.0 - EULER_GAMMA, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 50, 200, 1000])
def test_digamma_matches_scipy(n):
    assert digamma_int(n) == pytest.approx(float(special.digamma(n)), rel=1e-13)


def test_harmonic_accumulation():
    assert harmonic(0) == 0.0
    assert harmonic(3) == pytest.approx(11.0 / 6.0, rel=1e-16)
    assert harmonic(10_000) == pytest.approx(
        float(special.digamma(10_001)) + EULER_GAMMA, rel=1e-13
    )


@pytest.mark.parametrize("x", [0.3, 1.7, 5.0, -0.5, -1.25, -6.75, -0.001])
def test_lgamma_signed_matches_scipy(x):
    log_abs, sign = lgamma_signed(x)
    assert sign == special.gammasgn(x)
    assert log_abs == pytest.approx(float(special.gammaln(x)), rel=1e-12)
    assert gamma_real(x) == pytest.approx(float(special.gamma(x)), rel=1e-12)


def test_lgamma_signed_rejects_poles():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(ValueError):
            lgamma_signed(x)


@pytest.mark.parametrize("x,k", [(0.5, 0), (0.5, 3), (1.5, 5), (-2.5, 4)])
def test_pochhammer(x, k):
    assert pochhammer(x, k) == pytest.approx(float(special.poch(x, k)), rel=1e-13)


def test_gamma_ratio():
    assert gamma_ratio(7.5, 5.5) == pytest.approx(6.5 * 5.5, rel=1e-13)
    assert gamma_ratio(-0.5, 0.5) == pytest.approx(-2.0, rel=1e-13)


def _expint_scaled_unhoisted(p, z):
    """expint_scaled's loop with p - 1 formed at every step and the stop
    test written |delta - 1| <= 2^-52."""
    b = z + p
    c = math.inf
    d = 1.0 / b
    h = d
    for i in range(1, TERM_CAP + 1):
        an = -i * (p - 1.0 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            return h, i
    return None


def test_expint_scaled_keeps_the_bits_and_steps_of_its_loop():
    rng = random.Random(17)
    for _ in range(4000):
        p = rng.choice([1, 2, 3, 4, rng.uniform(0.05, 6.0)])
        z = 300.0 - 299.0 * rng.random()  # in (1, 300]
        assert expint_scaled(p, z) == _expint_scaled_unhoisted(p, z), (p, z)
