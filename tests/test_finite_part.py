import math
import random
from itertools import accumulate, chain, count, islice, repeat
from operator import mul, sub, truediv

import pytest

from finitepart.entire import (BinomialPoly, CustomSeries, Exponential,
                               MonomialExp, Polynomial, first_nonzero)
from finitepart.errors import DivergentIntegralError, NonconvergenceError
from finitepart.finite_part import (_CHUNK, DEFAULT_TOL, FpiMethod, FpiValue,
                                    _SeriesTables, finite_part_integral,
                                    rung_source)
from finitepart.gammafn import EULER_GAMMA, digamma_int
from finitepart.oracles import fpi_epsilon_oracle, quad_adaptive
from finitepart.series import sum_until_small
from finitepart.stieltjes import (TransformSpec, eval_quadratic,
                                  evaluate_transform)

def split_infinite(f, m, nu):
    """Rung m of f at a = inf by the split, also where f has a closed form."""
    return rung_source(f, f.ladder(nu, math.inf), nu, math.inf).rung(f, m)


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
            split = split_infinite(Exponential(b), m, 0.0)
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
                split = split_infinite(Exponential(b), m, nu)
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
                              tol=1e-13).value
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
    split = split_infinite(f, m, nu)
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


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-12, 1.0, 2.0])
@pytest.mark.parametrize("a", [0.5, 2.0, math.inf])
def test_tolerance_outside_0_1_is_rejected(tol, a):
    # the finite parts are summed to DEFAULT_TOL and take no tolerance; the
    # transforms built on them check theirs before any rung is formed
    for f in (Exponential(1.0), Polynomial([1.0, 2.0]), _gauss(1.0)):
        with pytest.raises(TypeError):
            finite_part_integral(f, 1, 0.0, a, tol)
        for call in (
            lambda: evaluate_transform(TransformSpec(f, 1, 0.25, a), tol=tol),
            lambda: eval_quadratic(f, 0.25, a, tol=tol),
        ):
            with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
                call()
        assert f.ladder(0.0, a).series is None


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
    # a ladder is keyed by (nu, a) alone: every rung is summed to DEFAULT_TOL
    f = _gauss(1.0)
    tight = finite_part_integral(f, 3, 0.0, 0.5)
    ref = _ReferenceTables(_gauss(1.0), 0.0, 0.5, DEFAULT_TOL)
    assert repr(tight) == repr(ref.rung(3))
    loose = _ReferenceTables(_gauss(1.0), 0.0, 0.5, 1e-6).rung(3)
    assert loose.value != tight.value
    assert repr(f.ladder(0.0, 0.5).series.rung(f, 3)) == repr(tight)
    with pytest.raises(TypeError):
        f.ladder(0.0, 0.5, 1e-6)


def test_scaled_finite_parts_past_float_range_name_the_rung():
    # the base's closed form is finite; times the factor it is not
    with pytest.raises(NonconvergenceError,
                       match=r"^closed form for 1e\+300\*Exponential\(b=100\)"
                             r" at m = 50 leaves float range$"):
        finite_part_integral(1e300 * Exponential(100.0), 50)
    # ab = 10 > 1: the seed is c times the closed form less the E_1 tail
    for _ in range(2):
        with pytest.raises(NonconvergenceError,
                           match=r"^finite-part recurrence leaves float "
                                 r"range at m = 1$"):
            finite_part_integral(1e308 * Exponential(5.0), 2, 0.0, 2.0)
    # within float range both are finite
    assert math.isfinite(finite_part_integral(1e300 * Exponential(5.0), 50)
                         .value)
    assert math.isfinite(finite_part_integral(1e300 * Exponential(5.0), 1,
                                              0.0, 2.0).value)


@pytest.mark.parametrize("p, b, message", [
    # (ab)^s e^{-ab} overflows in lower_gamma
    (200, 200.0, "MonomialExp(p=200, b=200) leaves float range at m = 1 "
                 "(OverflowError: math range error)"),
    # b^s underflows to 0
    (3, 1e-110, "MonomialExp(p=3, b=1e-110) leaves float range at m = 1 "
                "(ZeroDivisionError: float division by zero)"),
])
def test_ordinary_rungs_past_float_range_name_the_rung(p, b, message):
    # rung m <= p of x^p e^{-bx} at a finite a is an ordinary integral
    f = MonomialExp(p, b)
    for _ in range(2):
        with pytest.raises(NonconvergenceError) as info:
            finite_part_integral(f, 1, 0.0, 1.0)
        assert str(info.value) == "ordinary integral of " + message
    # the rungs above p still climb from their own seed
    assert math.isfinite(finite_part_integral(f, p + 1, 0.0, 1.0).value)


def test_closed_form_hook_returning_none_is_named():
    class Opaque(Exponential):
        def fpi_infinite(self, m, nu):
            return None

    # an override is read as a closed form: None breaks its contract
    with pytest.raises(NotImplementedError,
                       match=r"^Opaque\.fpi_infinite returned None at m = 2"):
        finite_part_integral(Opaque(1.0), 2)
    assert not Opaque(1.0).ladder(0.0, math.inf).series


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
    lad = f.ladder(0.0, 0.7)
    route = lad.series
    assert route is not None
    finite_part_integral(f, 5, 0.0, 0.7)
    assert f.ladder(0.0, 0.7).series is route
    # another (nu, a) replaces the ladder, and its route is fresh
    for nu, a in [(0.25, 0.7), (0.0, 1.4)]:
        v = finite_part_integral(f, 3, nu, a)
        assert _fpi_bits(v) == _fpi_bits(
            finite_part_integral(ROUTE_CASES[case](), 3, nu, a))
        assert f.ladder(nu, a).series not in (None, route)
    again = finite_part_integral(f, 3, 0.0, 0.7)
    assert f.ladder(0.0, 0.7).series is not route
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
        rungs = f.ladder(0.0, 0.5).rungs
        assert 1024 in rungs and 1025 not in rungs
    assert finite_part_integral(Exponential(1.0), 200, 0.0, 60.0).value == 0.0


def test_overflowing_series_rung_raises_again():
    # the Maclaurin route of e^{-x} at a = 60: a^k overflows past k = 173
    f = CustomSeries(Exponential(1.0).coeff, lambda x: math.exp(-x))
    for _ in range(2):
        with pytest.raises(NonconvergenceError,
                           match="finite-part series overflowed after 174"):
            finite_part_integral(f, 1, 0.0, 60.0)
        assert not f.ladder(0.0, 60.0).rungs


def test_kiw2_family_digamma_values():
    # pure b = 1: value is -(-1)^m psi(m)/(m-1)!
    for m in (1, 2, 3, 4):
        got = finite_part_integral(Exponential(1.0), m).value
        want = -((-1.0) ** m) * digamma_int(m) / math.factorial(m - 1)
        assert got == pytest.approx(want, rel=1e-15)


# ---------------------------------------------------------------------------
# the Maclaurin tables against their reference
# ---------------------------------------------------------------------------

class _ReferenceTables:
    """The Maclaurin rungs as written before each rung checked its tables'
    lengths once: every rung and every chunk calls ``coeffs``, ``powers``
    and ``head_divisors``, ln a is formed per rung, and a polynomial rung
    past its degree still sums its empty tail.  ``_SeriesTables.rung``
    must give its bits, its errors and its coefficient reads."""

    def __init__(self, f, nu, a, tol):
        self.f, self.nu, self.a, self.tol = f, nu, a, tol
        deg = f.finite_degree()
        if deg is None:
            r, c = first_nonzero(f)
            self.cs = [0.0] * r + [c]
        else:
            r = f.zero_order()
            self.cs = [0.0] * r + [f.coeff(k) for k in range(r, deg + 1)]
        self.r, self.deg = r, deg
        self.pows = ([a ** -nu], [0 - nu])
        self.es = []

    def coeffs(self, n):
        cs = self.cs
        if len(cs) < n and self.deg is None:
            cs = self.cs = cs + list(map(self.f.coeff, range(len(cs), n)))
        return cs

    def powers(self, n):
        ps, ds = self.pows
        have = len(ps)
        if have < n:
            ps = ps + list(islice(accumulate(repeat(self.a, n - have), mul,
                                             initial=ps[-1]), 1, None))
            ds = ds + list(map(sub, range(have, n), repeat(self.nu)))
            self.pows = (ps, ds)
        return ps, ds

    def head_divisors(self, n):
        es = self.es
        if len(es) < n:
            a, nu = self.a, self.nu
            more = []
            for i in range(len(es), n):
                try:
                    p = a ** (i + nu)
                except OverflowError:
                    p = math.inf
                more.append(-(i + nu) * p)
            es = self.es = es + more
        return es

    def rung(self, m):
        nu, a = self.nu, self.a
        r, deg = self.r, self.deg
        head = 0.0
        if nu == 0.0:
            cs = self.coeffs(m)
            if m <= len(cs) and cs[m - 1] != 0.0:
                head = cs[m - 1] * math.log(a)
            k0 = max(r, m)
        else:
            k0 = max(r, m - 1)
        top = m - 1 if deg is None else min(m - 1, deg + 1)
        if top > r:
            cs = self.coeffs(top)
            es = self.head_divisors(m - r)
            try:
                head = sum(map(truediv, cs[r:top],
                               es[m - 1 - r:m - 1 - top:-1]), head)
            except ZeroDivisionError:
                head = math.inf
            if not abs(head) < math.inf:
                raise NonconvergenceError("finite-part head leaves float "
                                          f"range at m = {m}")
        j0 = k0 + 1 - m
        if deg is not None:
            cs = self.coeffs(0)
            ps, ds = self.powers(deg + 2 - m)
            tail = sum(map(truediv, map(mul, cs[k0:], ps[j0:]), ds[j0:]),
                       0.0)
            return FpiValue(head + tail, FpiMethod.SERIES_FINITE,
                            max(deg + 1 - k0, 0), 0.0)

        def chunk(k):
            j = k + 1 - m
            cs = self.coeffs(k + _CHUNK)
            ps, ds = self.powers(j + _CHUNK)
            return map(truediv, map(mul, cs[k:k + _CHUNK], ps[j:j + _CHUNK]),
                       ds[j:j + _CHUNK])

        s = sum_until_small(chain.from_iterable(map(chunk, count(k0, _CHUNK))),
                            self.tol, offset=head)
        tail = s.total_or_raise("finite-part series")
        return FpiValue(head + tail, FpiMethod.SERIES_FINITE, s.terms, s.last)


def _gauss(c):
    """exp(-c x^2) as a user stream."""
    def coeff(k):
        return 0.0 if k % 2 else (-c) ** (k // 2) / math.factorial(k // 2)

    return CustomSeries(coeff, lambda x: math.exp(-c * x * x),
                        decaying=True, label=f"gauss({c})")


def _logged(f):
    """f, with every coefficient read appended to the returned list."""
    reads = []
    read = f.coeff
    f.coeff = lambda k: reads.append(k) or read(k)
    return f, reads


def _rung_outcome(rung, m):
    try:
        return repr(rung(m))
    except NonconvergenceError as exc:
        return f"NonconvergenceError: {exc}"


TABLE_CASES = {
    # r = 2, degree 5: rungs at m <= deg + 1 and past it
    "poly-r2": lambda: Polynomial([1.5, -0.25, 3.0, 0.5], lowest=2),
    # -2 x^3: at a = 1 and nu = 0 the head of m = 4 is -2 ln 1 = -0.0
    "monomial": lambda: Polynomial([-2.0], lowest=3),
    "binpoly": lambda: BinomialPoly(1, 2),
    "scaled-binpoly": lambda: 2.0 * BinomialPoly(2, 3),
    "gauss": lambda: _gauss(1.0),
}
_M_TOP = 200
_SHUFFLED_200 = list(range(1, _M_TOP + 1))
random.Random(15).shuffle(_SHUFFLED_200)
TABLE_ORDERS = {
    "ascending": list(range(1, _M_TOP + 1)),
    "descending": list(range(_M_TOP, 0, -1)),
    "shuffled": _SHUFFLED_200,
}


def _assert_reference_rungs(make, nu, a, order):
    ref_f, ref_reads = _logged(make())
    f, reads = _logged(make())
    ref = _ReferenceTables(ref_f, nu, a, DEFAULT_TOL)
    tab = _SeriesTables(f, nu, a)
    assert reads == ref_reads
    outcomes = []
    for m in order:
        want = _rung_outcome(ref.rung, m)
        assert _rung_outcome(lambda m: tab.rung(f, m), m) == want, m
        assert reads == ref_reads, m
        outcomes.append(want)
    return outcomes


@pytest.mark.parametrize("order", sorted(TABLE_ORDERS))
@pytest.mark.parametrize("case", sorted(TABLE_CASES))
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_series_tables_give_the_reference_rungs(case, order, nu, a):
    _assert_reference_rungs(TABLE_CASES[case], nu, a, TABLE_ORDERS[order])


def test_polynomial_rung_past_its_degree_is_its_head():
    f = Polynomial([-2.0], lowest=3)
    tab = _SeriesTables(f, 0.0, 1.0)
    # head -2 ln 1 = -0.0 and an empty tail: the rung keeps the tail's 0.0
    assert repr(tab.rung(f, 4)) == repr(FpiValue(0.0, FpiMethod.SERIES_FINITE,
                                                 0, 0.0))
    v = tab.rung(f, 100)
    assert (v.value, v.terms_used, v.tail_bound) == (-2.0 / -96.0, 0, 0.0)


@pytest.mark.parametrize("make", [lambda: Polynomial([1.0, 2.0]),
                                  lambda: _gauss(1.0)])
@pytest.mark.parametrize("order", sorted(TABLE_ORDERS))
def test_overflowing_head_raises_at_the_reference_m(make, order):
    # at a = 0.01 the head terms c_k / a^{m-1-k} leave float range near
    # m = 155, and a^i underflows to 0 near i = 162
    outcomes = _assert_reference_rungs(make, 0.0, 0.01, TABLE_ORDERS[order])
    raised = [o for o in outcomes if o.startswith("NonconvergenceError")]
    assert raised and "finite-part head leaves float range" in raised[0]


def test_head_divisors_grow_a_chunk_at_a_time():
    f = BinomialPoly(1, 2)
    tab = _SeriesTables(f, 0.0, 0.5)
    tab.rung(f, 3)
    assert len(tab.es) == _CHUNK
    tab.rung(f, _CHUNK + 2)
    assert len(tab.es) == 2 * _CHUNK
