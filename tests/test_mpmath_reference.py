"""Closed forms at a = inf against an mpmath reference that shares no
formula with the library.

For f(x) = x^p exp(-b x) the finite part of int_0^inf f(x) x^{-m-nu} dx
is the analytic continuation of int_0^inf x^{-s} e^{-bx} dx = b^(s-1)
Gamma(1-s) in s = m + nu - p; at an integer s it is the constant term of
the Laurent expansion there, taken as the mean of F(s+e) and F(s-e).
"""

import math

import mpmath
import pytest

from finitepart.entire import Exponential, MonomialExp
from finitepart.finite_part import finite_part_integral


def reference(p, b, m, nu):
    with mpmath.workdps(50):
        s = m + mpmath.mpf(nu) - p

        def F(t):
            return mpmath.mpf(b) ** (t - 1) * mpmath.gamma(1 - t)

        if s != int(s):
            return float(F(s))
        # a power of two near 1e-20 keeps s +- e exact, so only the pole
        # terms cancel in the mean
        e = mpmath.mpf(2) ** -66
        return float((F(s + e) + F(s - e)) / 2)


@pytest.mark.parametrize("p,b", [(0, 1.0), (0, 2.0), (0, 0.3), (1, 2.0),
                                 (2, 1.0), (3, 0.7)])
@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
def test_closed_form_matches_mpmath(p, b, m, nu):
    f = Exponential(b) if p == 0 else MonomialExp(p, b)
    got = finite_part_integral(f, m, nu, math.inf).value
    assert math.isclose(got, reference(p, b, m, nu), rel_tol=1e-13)
