import math
import random

import pytest

from finitepart.entire import (BinomialPoly, CustomSeries, Exponential,
                               MonomialExp, Polynomial)
from finitepart.errors import DivergentIntegralError, NonconvergenceError
from finitepart.finite_part import (DEFAULT_TOL, FpiMethod, _split_infinite,
                                    finite_part_integral)
from finitepart.gammafn import EULER_GAMMA, digamma_int
from finitepart.oracles import fpi_epsilon_oracle, quad_adaptive

def fpi_polynomial(f, m, nu, a):
    """Reference finite part of a Polynomial at finite a, by exact sums.

    nu = 0 splits into three regimes by the pole strength m relative to
    the lowest power r and the degree s of the polynomial:
      m <= r:           ordinary convergent integral,
      r+1 <= m <= s+1:  mixed negative powers, log a, positive powers,
      m >= s+2:         negative powers of a only;
    for 0 < nu < 1 a single sum covers every regime.
    """
    r, s = f.lowest, f.degree
    ak = f.coeff
    if nu != 0.0:
        return sum(ak(k) * a ** (k + 1 - m - nu) / (k + 1 - m - nu)
                   for k in range(r, s + 1))
    if m <= r:
        return sum(ak(k) * a ** (k - m + 1) / (k - m + 1)
                   for k in range(r, s + 1))
    if m >= s + 2:
        return -sum(ak(k) / ((m - k - 1) * a ** (m - k - 1))
                    for k in range(r, s + 1))
    val = -sum(ak(k) / ((m - k - 1) * a ** (m - k - 1))
               for k in range(r, m - 1))
    val += ak(m - 1) * math.log(a)
    val += sum(ak(k) * a ** (k - m + 1) / (k - m + 1)
               for k in range(m, s + 1))
    return val


GRID_F = [Exponential(1.0), Exponential(2.0), Polynomial([1.0]),
          BinomialPoly(1, 2), BinomialPoly(0, 3)]


def test_pole_finite_examples():
    v = finite_part_integral(Exponential(1.0), 1, 0.0, 1.0)
    assert v.value == pytest.approx(-0.7965995993, abs=1e-9)
    assert v.method is FpiMethod.SERIES_FINITE
    assert v.terms_used > 0 and v.tail_bound >= 0

    v = finite_part_integral(Polynomial([1.0]), 2, 0.0, 1.0)
    assert v.value == -1.0
    assert v.tail_bound == 0.0  # finite stream summed exactly

    v = finite_part_integral(BinomialPoly(0, 2), 2, 0.0, 1.0)
    assert v.value == pytest.approx(0.0, abs=1e-15)


def test_pole_infinite_closed_forms():
    v = finite_part_integral(Exponential(1.0), 1)
    assert v.method is FpiMethod.CLOSED_FORM and v.terms_used == 0
    assert v.value == pytest.approx(-EULER_GAMMA, rel=1e-15)

    v = finite_part_integral(Exponential(2.0), 1)
    assert v.value == pytest.approx(-(math.log(2.0) + EULER_GAMMA), rel=1e-14)

    v = finite_part_integral(Exponential(1.0), 2)
    assert v.value == pytest.approx(EULER_GAMMA - 1.0, rel=1e-14)


def test_pole_infinite_split_matches_closed_form():
    for b in (1.0, 2.0, 5.0):
        for m in (1, 2, 3):
            closed = finite_part_integral(Exponential(b), m)
            split = _split_infinite(Exponential(b), m, 0.0, 1e-15)
            assert split.method is FpiMethod.SPLIT_INFINITE
            assert math.isclose(closed.value, split.value,
                                rel_tol=1e-10, abs_tol=1e-12)


def test_branch_finite_examples():
    v = finite_part_integral(Polynomial([1.0]), 1, 0.5, 1.0)
    assert v.value == pytest.approx(-2.0, rel=1e-15)

    v = finite_part_integral(Exponential(1.0), 1, 0.5, 1.0)
    assert v.value == pytest.approx(-3.723055, abs=1e-5)

    # 1/(-1/2) + (-2)/(1/2) + 1/(3/2)
    v = finite_part_integral(BinomialPoly(0, 2), 1, 0.5, 1.0)
    assert v.value == pytest.approx(-16.0 / 3.0, rel=1e-14)


def test_branch_infinite_closed_forms():
    v = finite_part_integral(Exponential(1.0), 1, 0.5)
    assert v.value == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)

    v = finite_part_integral(Exponential(2.0), 1, 0.5)
    assert v.value == pytest.approx(-2.0 * math.sqrt(2.0 * math.pi), rel=1e-14)

    v = finite_part_integral(Exponential(1.0), 2, 0.5)
    assert v.value == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-14)


def test_branch_infinite_split_matches_closed_form():
    for b in (1.0, 2.0):
        for m in (1, 2):
            for nu in (0.25, 0.5, 0.75):
                closed = finite_part_integral(Exponential(b), m, nu)
                split = _split_infinite(Exponential(b), m, nu, 1e-15)
                assert math.isclose(closed.value, split.value,
                                    rel_tol=1e-10, abs_tol=1e-12)


def test_closed_forms_beyond_float_range_are_nonconvergence():
    # b^(m-1)/(m-1)! and Gamma(m+nu) leave float range near m = 172
    with pytest.raises(NonconvergenceError):
        finite_part_integral(Exponential(2.0), 200)
    with pytest.raises(NonconvergenceError):
        finite_part_integral(Exponential(2.0), 200, 0.5)
    with pytest.raises(NonconvergenceError):
        finite_part_integral(MonomialExp(1, 50.0), 173)


def test_monomial_exp_reductions():
    # x^p e^{-bx} x^{-m} reduces to the pure exponential at strength m - p
    lhs = finite_part_integral(MonomialExp(2, 1.0), 3)
    rhs = finite_part_integral(Exponential(1.0), 1)
    assert lhs.value == pytest.approx(rhs.value, rel=1e-14)
    # and to an ordinary Gamma integral once the singularity is gone
    v = finite_part_integral(MonomialExp(2, 1.0), 1)
    assert v.value == pytest.approx(1.0, rel=1e-14)  # int x e^{-x}
    v = finite_part_integral(MonomialExp(2, 1.0), 1, 0.5)
    assert v.value == pytest.approx(math.gamma(1.5), rel=1e-14)


def test_polynomial_closed_form_examples():
    assert fpi_polynomial(Polynomial([1.0], lowest=2), 1, 0.0, 1.0) \
        == pytest.approx(0.5)
    assert fpi_polynomial(Polynomial([1.0, -2.0, 1.0]), 2, 0.0, 1.0) \
        == pytest.approx(0.0, abs=1e-15)
    assert fpi_polynomial(Polynomial([1.0]), 1, 0.5, 1.0) \
        == pytest.approx(-2.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("nu", [0.0, 0.5])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_polynomial_closed_form_agrees_with_series(m, nu, a):
    # closed-form cross-check path vs the generic coefficient series,
    # covering the convergent, mixed and negative-power regimes
    f = BinomialPoly(1, 2)  # r = 1, s = 3
    closed = fpi_polynomial(f, m, nu, a)
    if nu == 0.0:
        series = finite_part_integral(f, m, 0.0, a).value
    else:
        series = finite_part_integral(f, m, nu, a).value
    assert math.isclose(closed, series, rel_tol=1e-13, abs_tol=1e-13)


@pytest.mark.parametrize("m", [4, 5])
def test_mixed_regime_denominators_match_epsilon_oracle(m):
    # regression guard for the negative-power denominators (m-k-1) a^{m-k-1}:
    # m = s+1 exercises the log boundary, m = s+2 the pure negative sum
    f = BinomialPoly(1, 2)
    series = finite_part_integral(f, m, 0.0, 1.37).value
    oracle = fpi_epsilon_oracle(f, m, 0.0, 1.37)
    assert math.isclose(series, oracle, rel_tol=1e-6, abs_tol=1e-9)


@pytest.mark.parametrize("f", GRID_F, ids=repr)
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("nu", [0.0, 0.25])
def test_split_invariance(f, m, nu):
    # the finite part concerns only the origin: moving the upper limit adds
    # an ordinary integral
    a, a2 = 0.7, 1.9
    v1 = finite_part_integral(f, m, nu, a).value
    v2 = finite_part_integral(f, m, nu, a2).value
    bridge = quad_adaptive(lambda x: f.eval(x) * x ** (-(m + nu)), a, a2,
                           tol=1e-13).value
    assert math.isclose(v2 - v1, bridge, rel_tol=1e-10, abs_tol=1e-11)


@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_remark_one_convergent_case(nu):
    # zero order >= m makes the integrand locally integrable; the finite
    # part must equal the ordinary integral
    f = MonomialExp(4, 1.0)
    for m, a in [(1, 1.0), (2, 2.0), (4, 1.0)]:
        fpi = finite_part_integral(f, m, nu, a).value
        plain = quad_adaptive(lambda x: f.eval(x) * x ** (-(m + nu)), 0.0, a,
                              tol=1e-13, singular_lo=nu > 0).value
        assert math.isclose(fpi, plain, rel_tol=1e-12, abs_tol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("b", [2.0, math.e, 10.0])
def test_scaling_anomaly_pole(m, b):
    # naive substitution x -> x/b misses the logarithm
    lhs = finite_part_integral(Exponential(b), m).value \
        - b ** (m - 1) * finite_part_integral(Exponential(1.0), m).value
    rhs = (-1.0) ** m * b ** (m - 1) * math.log(b) / math.factorial(m - 1)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("b", [2.0, 5.0])
@pytest.mark.parametrize("nu", [0.25, 0.75])
def test_scaling_covariance_branch(m, b, nu):
    # with a branch point, substitution does hold
    lhs = finite_part_integral(Exponential(b), m, nu).value
    rhs = b ** (m + nu - 1) * finite_part_integral(Exponential(1.0), m, nu).value
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_integrability_rejections():
    with pytest.raises(DivergentIntegralError):
        finite_part_integral(BinomialPoly(0, 2), 5)
    with pytest.raises(DivergentIntegralError):
        finite_part_integral(Polynomial([1.0, 1.0]), 2)  # degree 1 > m-2
    with pytest.raises(DivergentIntegralError):
        finite_part_integral(Polynomial([1.0, 1.0]), 1, 0.5)
    opaque = CustomSeries(lambda k: 0.0 if k else 1.0, lambda x: 1.0)
    with pytest.raises(DivergentIntegralError):
        finite_part_integral(opaque, 3)


@pytest.mark.parametrize("f", [MonomialExp(2, 1.0), MonomialExp(3, 0.7),
                               0.5 * Exponential(2.0)], ids=repr)
@pytest.mark.parametrize("m", [1, 2, 3, 4])  # below, at and above p
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
def test_descriptor_closed_form_matches_split(f, m, nu):
    closed = finite_part_integral(f, m, nu, math.inf)
    assert closed.method is FpiMethod.CLOSED_FORM
    split = _split_infinite(f, m, nu, 1e-15)
    assert math.isclose(closed.value, split.value, rel_tol=1e-10)


def test_integrability_rejection_messages():
    # the CLI prints these texts after "error: "
    def message(f, m, nu=0.0):
        with pytest.raises(DivergentIntegralError) as exc:
            finite_part_integral(f, m, nu, math.inf)
        return str(exc.value)

    assert message(BinomialPoly(0, 0), 2) \
        == "BinomialPoly is not admitted at an infinite upper limit"
    quad = Polynomial([1.0, 0.0, 1.0])
    assert finite_part_integral(quad, 4).value == 0.0  # degree m - 2
    assert message(quad, 3) \
        == "polynomial of degree 2 diverges at infinity against x^(-3-0)"
    assert finite_part_integral(quad, 3, 0.5).value == 0.0  # degree m - 1
    assert message(quad, 2, 0.5) \
        == "polynomial of degree 2 diverges at infinity against x^(-2-0.5)"
    opaque = CustomSeries(lambda k: 0.0 if k else 1.0, lambda x: 1.0)
    assert message(opaque, 3) \
        == "custom series did not declare integrability at infinity"
    assert message(2.0 * opaque, 3) \
        == "custom series did not declare integrability at infinity"


def test_polynomial_infinite_limits_vanish():
    # every admissible polynomial term decays in the a -> inf limit
    assert finite_part_integral(Polynomial([1.0]), 2).value == 0.0
    assert finite_part_integral(Polynomial([3.0], lowest=1), 4).value == 0.0
    assert finite_part_integral(Polynomial([1.0]), 1, 0.5).value == 0.0


def test_scaled_functions_scale_linearly():
    f = Exponential(1.0)
    v = finite_part_integral(f * 0.5, 1)
    assert v.value == pytest.approx(-0.5 * EULER_GAMMA, rel=1e-14)
    v = finite_part_integral(f * 2.0, 1, 0.0, 1.0)
    want = 2.0 * finite_part_integral(f, 1, 0.0, 1.0).value
    assert v.value == pytest.approx(want, rel=1e-14)


def test_validation_errors():
    f = Exponential(1.0)
    with pytest.raises(ValueError):
        finite_part_integral(f, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        finite_part_integral(f, 1, 1.0 - 1e-13, 1.0)  # inside the nu guard
    with pytest.raises(ValueError):
        finite_part_integral(f, 1, 1e-14, 1.0)


def test_divergent_stream_stops_at_the_term_cap():
    # c_k = 1 at nu = 0.5, a = 1: terms 1/(k - 1/2) never fall below the
    # relative tolerance, so the series stops at the fixed cap
    f = CustomSeries(lambda k: 1.0, math.exp)
    with pytest.raises(NonconvergenceError, match="within 10000 terms"):
        finite_part_integral(f, 1, 0.5, 1.0)


def test_pole_head_reads_only_the_nonzero_coefficients():
    f = Polynomial([1.0, 2.0, 3.0])
    calls = []
    read = f.coeff
    f.coeff = lambda k: calls.append(k) or read(k)
    v = finite_part_integral(f, 400, 0.0, 2.0)
    assert len(calls) < 10
    assert v.value == -sum(c / ((399 - k) * 2.0 ** (399 - k))
                           for k, c in enumerate([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# exponential family at finite a: the recurrence on the rung ladder
# ---------------------------------------------------------------------------

def _fpi_bits(v):
    return repr((v.value, v.method, v.tail_bound))


@pytest.mark.parametrize("make", [lambda: Exponential(1.3),
                                  lambda: MonomialExp(2, 0.8),
                                  lambda: -0.5 * Exponential(2.5)])
@pytest.mark.parametrize("nu,a", [(0.0, 0.7), (0.0, 9.0), (0.25, 0.7),
                                  (0.5, 9.0)])
def test_recurrence_rungs_do_not_depend_on_call_order(make, nu, a):
    ms = list(range(1, 41))
    climbed = make()
    want = [_fpi_bits(finite_part_integral(climbed, m, nu, a)) for m in ms]
    backwards = make()
    got = {m: _fpi_bits(finite_part_integral(backwards, m, nu, a))
           for m in reversed(ms)}
    assert [got[m] for m in ms] == want
    # every rung on a fresh descriptor is one climb from the seed
    for m in (5, 23, 40):
        assert _fpi_bits(finite_part_integral(make(), m, nu, a)) == want[m - 1]


def test_recurrence_terms_used_counts_the_work_of_the_call():
    f = Exponential(1.0)
    seed = finite_part_integral(f, 1, 0.0, 2.0)  # continued fraction, ab > 1
    assert seed.method is FpiMethod.RECURRENCE and seed.terms_used > 4
    assert [finite_part_integral(f, m, 0.0, 2.0).terms_used
            for m in (2, 3, 5)] == [1, 1, 2]
    fresh = finite_part_integral(Exponential(1.0), 5, 0.0, 2.0)
    assert fresh.terms_used == seed.terms_used + 4
    # below ab = 1 the seed is the series rung, and only the steps count
    low = finite_part_integral(Exponential(1.0), 4, 0.0, 0.5)
    first = finite_part_integral(Exponential(1.0), 1, 0.0, 0.5)
    assert first.method is FpiMethod.SERIES_FINITE
    assert low.terms_used == first.terms_used + 3


def test_monomial_exp_below_its_power_is_an_ordinary_integral():
    f = MonomialExp(3, 0.7)
    for m in (1, 2, 3):
        v = finite_part_integral(f, m, 0.25, 4.0)
        assert v.method is FpiMethod.SERIES_FINITE

        def integrand(x, m=m):
            return x ** (3 - m - 0.25) * math.exp(-0.7 * x)

        want = quad_adaptive(integrand, 0.0, 4.0, tol=1e-12).value
        assert v.value == pytest.approx(want, rel=1e-11)
    assert finite_part_integral(f, 5, 0.25, 4.0).method is FpiMethod.RECURRENCE


def test_ladder_keeps_rungs_of_one_tolerance():
    f = Exponential(1.0)
    loose = finite_part_integral(f, 3, 0.0, 0.5, tol=1e-6)
    tight = finite_part_integral(f, 3, 0.0, 0.5)
    assert tight.value == finite_part_integral(Exponential(1.0), 3, 0.0,
                                               0.5).value
    assert loose.value != tight.value


def test_recurrence_beyond_float_range_is_nonconvergence():
    # a^{1-m} leaves float range at a = 0.5 past m = 1024
    with pytest.raises(NonconvergenceError, match="m = 1025"):
        finite_part_integral(Exponential(1.0), 1100, 0.0, 0.5)


# ---------------------------------------------------------------------------
# the route of a finite-a ladder
# ---------------------------------------------------------------------------

def _exp2_stream():
    return CustomSeries(lambda k: (-2.0) ** k / math.factorial(k),
                        lambda x: math.exp(-2.0 * x), label="exp2")


ROUTE_CASES = {
    "exp": lambda: Exponential(1.3),
    "monexp": lambda: MonomialExp(2, 0.8),
    "scaled-exp": lambda: -0.5 * Exponential(2.5),
    "poly": lambda: Polynomial([1.0, -2.0, 0.5, 3.0], lowest=1),
    "custom": _exp2_stream,
}
_SHUFFLED = list(range(1, 41))
random.Random(14).shuffle(_SHUFFLED)
ROUTE_ORDERS = {
    "ascending": list(range(1, 41)),
    "descending": list(range(40, 0, -1)),
    "step-2": list(range(2, 41, 2)) + list(range(1, 41, 2)),
    "shuffled": _SHUFFLED,
}


@pytest.mark.parametrize("order", sorted(ROUTE_ORDERS))
@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
@pytest.mark.parametrize("nu,a", [(0.0, 0.7), (0.0, 6.0), (0.25, 2.0)])
def test_route_rungs_do_not_depend_on_call_order(case, order, nu, a):
    make = ROUTE_CASES[case]
    # monexp(2, b) covers the ordinary integrals m <= p = 2 too
    want = {m: _fpi_bits(finite_part_integral(make(), m, nu, a))
            for m in range(1, 41)}
    f = make()
    for m in ROUTE_ORDERS[order]:
        assert _fpi_bits(finite_part_integral(f, m, nu, a)) == want[m], m
        # a direct call at another m between two rungs changes nothing
        other = 41 - m if m % 3 else 1
        assert _fpi_bits(finite_part_integral(f, other, nu, a)) \
            == want[other], other


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_route_is_chosen_once_per_ladder(case):
    f = ROUTE_CASES[case]()
    first = finite_part_integral(f, 3, 0.0, 0.7)
    lad = f.ladder(0.0, 0.7, DEFAULT_TOL)
    route = lad.route
    assert route is not None
    finite_part_integral(f, 5, 0.0, 0.7)
    assert f.ladder(0.0, 0.7, DEFAULT_TOL).route is route
    # another (nu, a, tol) replaces the ladder, and its route is fresh
    for nu, a, tol in [(0.25, 0.7, DEFAULT_TOL), (0.0, 1.4, DEFAULT_TOL),
                       (0.0, 0.7, 1e-10)]:
        v = finite_part_integral(f, 3, nu, a, tol)
        assert _fpi_bits(v) == _fpi_bits(
            finite_part_integral(ROUTE_CASES[case](), 3, nu, a, tol))
        assert f.ladder(nu, a, tol).route not in (None, route)
    again = finite_part_integral(f, 3, 0.0, 0.7)
    assert f.ladder(0.0, 0.7, DEFAULT_TOL).route is not route
    assert _fpi_bits(again) == _fpi_bits(first)


def test_route_validates_every_call():
    f = Exponential(1.0)
    finite_part_integral(f, 2, 0.0, 0.7)
    for m, nu, a in [(0, 0.0, 0.7), (2.0, 0.0, 0.7), (2, 1e-13, 0.7),
                     (2, 0.0, 0.0), (2, 0.0, math.nan)]:
        with pytest.raises(ValueError):
            finite_part_integral(f, m, nu, a)


def test_overflowing_recurrence_rung_is_not_stored_and_raises_again():
    # exact at any a, the recurrence decays at a = 60 (FPI_200 is -0.0);
    # it leaves float range where a < 1, here past m = 1024
    f = Exponential(1.0)
    for _ in range(2):
        with pytest.raises(NonconvergenceError, match="m = 1025"):
            finite_part_integral(f, 1100, 0.0, 0.5)
        rungs = f.ladder(0.0, 0.5, DEFAULT_TOL).rungs
        assert 1024 in rungs and 1025 not in rungs
    assert finite_part_integral(Exponential(1.0), 200, 0.0, 60.0).value == 0.0


def test_overflowing_series_rung_raises_again():
    # the Maclaurin route of e^{-x} at a = 60: a^k overflows past k = 173
    f = CustomSeries(Exponential(1.0).coeff, lambda x: math.exp(-x))
    for _ in range(2):
        with pytest.raises(NonconvergenceError,
                           match="finite-part series overflowed after 174"):
            finite_part_integral(f, 1, 0.0, 60.0)
        assert not f.ladder(0.0, 60.0, DEFAULT_TOL).rungs


def test_kiw2_family_digamma_values():
    # pure b = 1: value is -(-1)^m psi(m)/(m-1)!
    for m in (1, 2, 3, 4):
        got = finite_part_integral(Exponential(1.0), m).value
        want = -((-1.0) ** m) * digamma_int(m) / math.factorial(m - 1)
        assert got == pytest.approx(want, rel=1e-15)
