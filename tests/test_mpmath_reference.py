"""Finite parts against mpmath references.

Exponential-family rungs are checked against formulas that share nothing
with the library; user streams (``CustomSeries``) against their Maclaurin
series summed at 50 digits, and the exp-sinh tail of the split against
``mpmath.quad``.

For f(x) = x^p exp(-b x) the finite part of int_0^inf f(x) x^{-m-nu} dx
is the analytic continuation of int_0^inf x^{-s} e^{-bx} dx = b^(s-1)
Gamma(1-s) in s = m + nu - p; at an integer s it is the constant term of
the Laurent expansion there, taken as the mean of F(s+e) and F(s-e).  At a
finite a the part beyond a, int_a^inf e^{-bx} x^{-s} dx = a^{1-s} E_s(ab),
is subtracted; for m <= p the integral is ordinary, b^{-s'} gamma(s', ab)
with s' = p - m + 1 - nu.
"""

import math

import mpmath
import pytest

from finitepart.entire import CustomSeries, Exponential, MonomialExp
from finitepart.errors import NonconvergenceError
from finitepart.finite_part import (FpiMethod, _ExpSinh, _SeriesTables,
                                    finite_part_integral)
from finitepart.gammafn import expint, lower_gamma


def _reference_mp(p, b, m, nu, a=math.inf):
    """The 50-digit reference as an mpf (call inside workdps(50))."""
    s = m + mpmath.mpf(nu) - p
    b = mpmath.mpf(b)
    if s < 1:
        return mpmath.gammainc(1 - s, 0, b * a) / b ** (1 - s)

    def F(t):
        return b ** (t - 1) * mpmath.gamma(1 - t)

    if s != int(s):
        value = F(s)
    else:
        # a power of two near 1e-20 keeps s +- e exact, so only the pole
        # terms cancel in the mean
        e = mpmath.mpf(2) ** -66
        value = (F(s + e) + F(s - e)) / 2
    if math.isfinite(a):
        a = mpmath.mpf(a)
        value -= a ** (1 - s) * mpmath.expint(s, a * b)
    return value


def reference(p, b, m, nu, a=math.inf):
    with mpmath.workdps(50):
        return float(_reference_mp(p, b, m, nu, a))


def _within(v, ref, rel=1e-12):
    """v is within rel of ref, or within the rung's reported bound."""
    with mpmath.workdps(50):
        err = abs(v.value - ref)
        return err <= rel * abs(ref) or err <= v.tail_bound


@pytest.mark.parametrize("p,b", [(0, 1.0), (0, 2.0), (0, 0.3), (1, 2.0),
                                 (2, 1.0), (3, 0.7)])
@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
def test_closed_form_matches_mpmath(p, b, m, nu):
    f = Exponential(b) if p == 0 else MonomialExp(p, b)
    got = finite_part_integral(f, m, nu, math.inf).value
    assert math.isclose(got, reference(p, b, m, nu), rel_tol=1e-13)


# ---------------------------------------------------------------------------
# finite a: the recurrence and its seeds
# ---------------------------------------------------------------------------

# every rung of each ladder is climbed; these are compared
CHECKED_M = (1, 2, 3, 4, 6, 9, 14, 21, 33, 50, 75, 93, 120)


@pytest.mark.parametrize("a", [0.5, 2.0, 10.0, 30.0, 200.0])
@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
def test_exponential_rungs_at_finite_a_match_mpmath(a, b):
    for nu in (0.0, 0.25, 0.5, 0.75):
        f = Exponential(b)
        rungs = {m: finite_part_integral(f, m, nu, a) for m in range(1, 121)}
        with mpmath.workdps(50):
            for m in CHECKED_M:
                ref = _reference_mp(0, b, m, nu, a)
                assert _within(rungs[m], ref), (a, b, nu, m)


@pytest.mark.parametrize("p,b,a", [(2, 1.0, 0.5), (2, 1.0, 10.0),
                                   (3, 0.7, 2.0), (1, 2.5, 30.0),
                                   (4, 0.3, 200.0)])
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.75])
def test_monomial_exp_rungs_at_finite_a_match_mpmath(p, b, a, nu):
    f = MonomialExp(p, b)
    with mpmath.workdps(50):
        for m in list(range(1, p + 4)) + [p + 20, p + 60]:
            v = finite_part_integral(f, m, nu, a)
            assert _within(v, _reference_mp(p, b, m, nu, a)), (m, v)


@pytest.mark.parametrize("f,p,b,c", [
    (2.5 * Exponential(1.0), 0, 1.0, 2.5),
    (Exponential(0.3) * -0.5, 0, 0.3, -0.5),
    (-0.5 * MonomialExp(2, 1.5), 2, 1.5, -0.5),
])
@pytest.mark.parametrize("a", [0.5, 10.0])
@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_scaled_rungs_at_finite_a_match_mpmath(f, p, b, c, a, nu):
    with mpmath.workdps(50):
        for m in range(1, p + 30):
            v = finite_part_integral(f, m, nu, a)
            assert _within(v, c * _reference_mp(p, b, m, nu, a)), (m, v)


@pytest.mark.parametrize("a,b", [(0.5, 0.3), (0.5, 1.0), (2.0, 0.3),
                                 (1.0, 1.0), (0.5, 2.0)])
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75])
def test_recurrence_agrees_with_maclaurin_rung_where_ab_le_1(a, b, nu):
    f = Exponential(b)
    series = _SeriesTables(Exponential(b), nu, a, 1e-15)
    for m in range(1, 61):
        got = finite_part_integral(f, m, nu, a)
        old = series.rung(m)
        want = FpiMethod.SERIES_FINITE if m == 1 else FpiMethod.RECURRENCE
        assert got.method is want
        assert math.isclose(got.value, old.value, rel_tol=1e-12), m


@pytest.mark.parametrize("a", [40.0, 60.0])
def test_first_rung_at_large_a_matches_mpmath(a):
    v = finite_part_integral(Exponential(1.0), 1, 0.0, a)
    assert v.method is FpiMethod.RECURRENCE
    assert math.isclose(v.value, reference(0, 1.0, 1, 0.0, a), rel_tol=1e-14)
    assert v.value == pytest.approx(-0.5772, abs=1e-4)


@pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 1.75, 3.0, 40.5])
@pytest.mark.parametrize("z", [1.0001, 1.5, 3.0, 10.0, 100.0, 700.0])
def test_expint_matches_mpmath(p, z):
    value, iters = expint(p, z)
    assert 0 < iters < 100
    with mpmath.workdps(50):
        assert math.isclose(value, float(mpmath.expint(p, z)), rel_tol=1e-13)


@pytest.mark.parametrize("s", [0.25, 1.0, 2.75, 5.0])
@pytest.mark.parametrize("x", [0.01, 0.5, 2.0, 30.0, 500.0, 800.0])
def test_lower_gamma_matches_mpmath(s, x):
    value, terms, bound = lower_gamma(s, x, 1e-15)
    with mpmath.workdps(50):
        ref = mpmath.gammainc(s, 0, x)
        assert abs(value - ref) <= max(1e-13 * ref, bound)


# ---------------------------------------------------------------------------
# user streams at finite a: the Maclaurin tables
# ---------------------------------------------------------------------------

def _gauss_coeff(c):
    """c_k of exp(-c x^2), exact ratios to k = 340."""
    def coeff(k):
        return 0.0 if k % 2 else (-c) ** (k // 2) / math.factorial(k // 2)
    return coeff


def _stream(name):
    """(CustomSeries, its c_k) for one of the reference streams."""
    if name.startswith("gauss"):
        c = float(name[6:-1])
        coeff = _gauss_coeff(c)
        return CustomSeries(coeff, lambda x: math.exp(-c * x * x)), coeff
    if name == "dense":  # every c_k nonzero until it underflows
        coeff = Exponential(1.0).coeff
        return CustomSeries(coeff, lambda x: math.exp(-x)), coeff
    coeff = MonomialExp(3, 2.0).coeff  # zero order 3
    return CustomSeries(coeff, lambda x: x**3 * math.exp(-2 * x)), coeff


def _series_reference(coeff, m, nu, a):
    """(the rung, the sum of its terms' magnitudes) at 50 digits, from the
    stream's own float coefficients."""
    with mpmath.workdps(50):
        a, nu = mpmath.mpf(a), mpmath.mpf(nu)
        total = scale = mpmath.mpf(0)
        for k in range(m + 120):
            c = mpmath.mpf(coeff(k))
            if c == 0:
                continue
            if nu == 0 and k == m - 1:
                t = c * mpmath.log(a)
            else:
                t = c * a ** (k + 1 - m - nu) / (k + 1 - m - nu)
            total += t
            scale += abs(t)
        return total, scale


STREAM_M = (1, 2, 3, 4, 6, 10, 22, 50, 100, 150, 200)


@pytest.mark.parametrize("name", ["gauss(0.7)", "gauss(1)", "gauss(1.5)",
                                  "dense", "x3e2x"])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
def test_user_stream_rungs_match_mpmath(name, a, nu):
    # each ladder is climbed; the error is measured against the sum of the
    # terms' magnitudes, since the high rungs cancel at a = 2
    f, coeff = _stream(name)
    rungs = [finite_part_integral(f, m, nu, a) for m in range(1, 201)]
    for m in STREAM_M:
        v = rungs[m - 1]
        assert v.method is FpiMethod.SERIES_FINITE
        ref, scale = _series_reference(coeff, m, nu, a)
        with mpmath.workdps(50):
            assert abs(v.value - ref) <= 1e-15 * scale, (m, v.value, ref)


def _gauss_rung_mp(c, m, nu, a):
    """FPI(exp(-c x^2), m, nu, a) at 50 digits from the exact c_k."""
    with mpmath.workdps(50):
        a, nu, c = mpmath.mpf(a), mpmath.mpf(nu), mpmath.mpf(c)
        total = mpmath.mpf(0)
        for k in range(0, m + 120, 2):
            ck = (-c) ** (k // 2) / mpmath.factorial(k // 2)
            if nu == 0 and k == m - 1:
                total += ck * mpmath.log(a)
            else:
                total += ck * a ** (k + 1 - m - nu) / (k + 1 - m - nu)
        return total


# (c, nu, a, worst relative error allowed, tail terms allowed over the grid)
# When the tail was summed to 1e-15 of its own sum, the worst errors were
# 1.44e-13 and 8.6e-16 and the grid took 1,910 and 1,330 tail terms.  At
# gauss(1), a = 2 the tail is about 1e-56 of a rung of order 1, and the
# floor of 1.44e-13 is set by cancellation in the head.  The tail now
# stops at 1e-15 of the rung's running value: one gauss(1.26) rung lost
# one ulp (worst 8.8e-16), inside the rung tolerance of 1e-15.
TAIL_STOP_CASES = [(1.0, 0.0, 2.0, 1.45e-13, 955),
                   (1.26, 0.5, 1.0, 1e-15, 665)]


@pytest.mark.parametrize("c,nu,a,worst,work", TAIL_STOP_CASES)
def test_tail_stops_at_the_rung_precision(c, nu, a, worst, work):
    # the grid m = 1, 4, ..., 190; at most half the tail terms of a stop
    # relative to the tail's own sum, and no larger error
    f = CustomSeries(_gauss_coeff(c), lambda x: math.exp(-c * x * x))
    rungs = [finite_part_integral(f, m, nu, a) for m in range(1, 191, 3)]
    errors = []
    for m, v in zip(range(1, 191, 3), rungs):
        ref = _gauss_rung_mp(c, m, nu, a)
        with mpmath.workdps(50):
            errors.append(float(abs(v.value - ref) / abs(ref)))
    assert max(errors) <= worst
    assert sum(v.terms_used for v in rungs) <= work


# ---------------------------------------------------------------------------
# the split at a = inf: the exp-sinh tail on [1, inf)
# ---------------------------------------------------------------------------

TAIL_STREAMS = {
    "gauss(1)": (lambda x: math.exp(-x * x), lambda x: mpmath.exp(-x * x)),
    "exp": (lambda x: math.exp(-x), lambda x: mpmath.exp(-x)),
    "x2exp": (lambda x: x * x * math.exp(-x),
              lambda x: x * x * mpmath.exp(-x)),
    "expcos3": (lambda x: math.exp(-x) * math.cos(3 * x),
                lambda x: mpmath.exp(-x) * mpmath.cos(3 * x)),
}


@pytest.mark.parametrize("name", sorted(TAIL_STREAMS))
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
def test_split_tail_matches_mpmath_quad(name, nu):
    fn, mp_fn = TAIL_STREAMS[name]
    nodes = _ExpSinh(CustomSeries(lambda k: 0.0, fn, decaying=True))
    for m in (1, 2, 3, 5, 8, 13, 21, 30):
        got, _ = nodes.integral(m + nu)
        with mpmath.workdps(30):
            p = m + mpmath.mpf(nu)
            ref = mpmath.quad(lambda x: mp_fn(x) * x ** -p,
                              [1, 2, 4, 8, 16, mpmath.inf])
            assert abs(got - ref) <= max(1e-13 * abs(ref), 1e-15), (m, got)


def test_unresolved_split_tail_raises():
    # too many oscillations for the finest level: no value comes back
    f = CustomSeries(lambda k: 0.0,
                     lambda x: math.exp(-x) * math.cos(60 * x), decaying=True)
    with pytest.raises(NonconvergenceError, match="did not converge"):
        _ExpSinh(f).integral(1.0)
    # no decay: the node range cannot close
    f = CustomSeries(lambda k: 0.0, math.cos, decaying=True)
    with pytest.raises(NonconvergenceError, match="does not decay"):
        _ExpSinh(f)
