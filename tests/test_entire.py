import cmath
import math

import mpmath
import numpy as np
import pytest

from finitepart.asymptotic import classify
from finitepart.entire import (BinomialPoly, CustomSeries, Exponential,
                               MonomialExp, Polynomial, Scaled, TaylorFunction,
                               unscale)
from finitepart.errors import IndeterminateZeroOrderError, NonconvergenceError
from finitepart.finite_part import finite_part_integral
from finitepart.series import TERM_CAP
from finitepart.stieltjes import (TransformSpec, eval_quadratic,
                                  evaluate_transform)


def cauchy_coeff(f, k, radius, n=512):
    """Coefficient estimate from function values on a circle (discrete
    Cauchy integral); the stable realization of a k-th order difference."""
    theta = 2 * np.pi * np.arange(n) / n
    vals = np.array([f.eval_complex(radius * np.exp(1j * t)) for t in theta])
    return (np.fft.fft(vals)[k] / n / radius**k).real


BUILTINS = [
    Exponential(1.0),
    Exponential(2.0),
    Polynomial([1.0]),
    Polynomial([4.0, 0.0, -3.0, 1.0], lowest=1),
    BinomialPoly(1, 2),
    BinomialPoly(0, 3),
    MonomialExp(4, 1.0),
    MonomialExp(2, 2.0),
]


def test_coeff_examples():
    assert Exponential(1.0).coeff(3) == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert BinomialPoly(1, 2).coeff(2) == -2.0  # x(1-x)^2 = x - 2x^2 + x^3
    assert Polynomial([5.0], lowest=2).coeff(1) == 0.0


def test_eval_complex_examples():
    got = Exponential(1.0).eval_complex(0.5j)
    assert got == pytest.approx(cmath.exp(-0.5j), abs=1e-15)
    assert got.real == pytest.approx(math.cos(0.5))
    assert got.imag == pytest.approx(-math.sin(0.5))
    assert BinomialPoly(0, 2).eval_complex(-0.5) == pytest.approx(2.25)
    assert Exponential(2.0).eval_complex(1.0) == pytest.approx(math.exp(-2.0))


def test_derivative_examples():
    assert Exponential(1.0).derivative_at(2, -0.5) == pytest.approx(math.exp(0.5))
    assert BinomialPoly(1, 2).derivative_at(1, 0.0) == 1.0
    assert Polynomial([7.0]).derivative_at(3, 10.0) == 0.0


def test_zero_order_examples():
    assert Exponential(1.0).zero_order() == 0
    assert MonomialExp(4, 1.0).zero_order() == 4
    assert BinomialPoly(1, 3).zero_order() == 1


@pytest.mark.parametrize("f", BUILTINS, ids=repr)
@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13, 21, 34, 50])
def test_coeff_matches_circle_differences(f, k):
    b = getattr(f, "b", 1.0)
    radius = max(1.0, k / b)
    ref = cauchy_coeff(f, k, radius)
    got = f.coeff(k)
    if ref == 0.0 and abs(got) < 1e-12:
        return
    assert math.isclose(got, ref, rel_tol=1e-8, abs_tol=1e-13)


@pytest.mark.parametrize("f", BUILTINS, ids=repr)
@pytest.mark.parametrize("x", [-1.5, -0.3, 0.0, 0.7, 2.0])
def test_zeroth_derivative_is_eval(f, x):
    assert f.derivative_at(0, x) == f.eval(x)


@pytest.mark.parametrize("f", BUILTINS, ids=repr)
@pytest.mark.parametrize("x", [-2.0, -0.5, 0.25, 1.0, 3.0])
def test_complex_on_real_axis_matches_real(f, x):
    z = f.eval_complex(complex(x, 0.0))
    assert z.imag == 0.0
    assert math.isclose(z.real, f.eval(x), rel_tol=1e-14, abs_tol=1e-300)


@pytest.mark.parametrize("f", BUILTINS[:4], ids=repr)
def test_derivatives_match_shifted_coefficients(f):
    # f^{(k)}(0) = k! c_k ties the two representations together
    for k in range(8):
        assert f.derivative_at(k, 0.0) == pytest.approx(
            math.factorial(k) * f.coeff(k), rel=1e-13, abs=1e-300
        )


def test_scaled_wrapper():
    half = Exponential(1.0) * 0.5
    assert isinstance(half, Scaled)
    assert half.eval(1.0) == pytest.approx(0.5 * math.exp(-1.0))
    assert half.coeff(2) == pytest.approx(0.25)
    assert half.derivative_at(1, 0.0) == pytest.approx(-0.5)
    assert half.zero_order() == 0
    base, factor = unscale(half)
    assert factor == 0.5 and base is not half
    third = half / 2.0
    assert third.eval(0.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        Exponential(1.0) * 0.0


def test_polynomial_trimming_and_validation():
    p = Polynomial([0.0, 1.0, 0.0], lowest=0)
    assert p.lowest == 1 and p.degree == 1
    with pytest.raises(ValueError):
        Polynomial([0.0, 0.0])


@pytest.mark.parametrize("make,named", [
    (lambda: Polynomial([1.0, math.nan]), "polynomial coefficient nan"),
    (lambda: Polynomial([math.inf], lowest=2), "polynomial coefficient inf"),
    (lambda: Exponential(math.inf), "Exponential b = inf"),
    (lambda: Exponential(math.nan), "Exponential b = nan"),
    (lambda: MonomialExp(1, math.inf), "MonomialExp b = inf"),
    (lambda: Exponential(1.0) * math.inf, "scale factor inf"),
    (lambda: math.nan * Polynomial([1.0]), "scale factor nan"),
    # the factors of nested scalings multiply out of float range
    (lambda: Exponential(1.0) * 1e200 * 1e200, "scale factor inf"),
])
def test_non_finite_parameters_are_rejected(make, named):
    # poly(1:nan) once gave a nan finite part, and exp(inf) ran 10,000
    # continued-fraction steps before it raised
    with pytest.raises(ValueError, match=f"^{named} is not finite$"):
        make()


@pytest.mark.parametrize("make,power", [
    (lambda: Polynomial([1, 2 * 10**308], lowest=3), 4),
    # C(1030, j) leaves float range first at j = 500, and C(1029, j) never
    (lambda: BinomialPoly(2, 1030), 2 + 500),
])
def test_int_coefficient_out_of_float_range_is_rejected(make, power):
    # float() of the int ended in a raw OverflowError
    with pytest.raises(ValueError, match=f"^polynomial coefficient of "
                                         f"x\\^{power} leaves float range$"):
        make()
    assert BinomialPoly(2, 1029).degree == 1031


def test_scaled_coefficient_out_of_float_range_raises():
    # the factor and the coefficient are finite, their product is not: the
    # finite part once came back inf, unflagged
    f = Polynomial([1e200]) * 1e200
    msg = r"^coefficient 0 of 1e\+200\*Polynomial\(\[1e\+200\], lowest=0\) "
    with pytest.raises(NonconvergenceError, match=msg + "leaves float range$"):
        f.coeff(0)
    with pytest.raises(NonconvergenceError, match="leaves float range"):
        finite_part_integral(f, 1, 0.0, 2.0)
    assert (Polynomial([1e200]) * -1e108).coeff(0) == -1e308


@pytest.mark.parametrize("error,c3", [
    ("OverflowError", lambda: float(10 ** 400)),
    ("ZeroDivisionError", lambda: 1.0 / 0),
])
def test_zero_order_scan_out_of_float_range_raises(error, c3):
    # c_3 is no float: the scan once raised the stream's error raw
    msg = (r"^coefficient c_3 of CustomSeries\(custom\) leaves float range "
           rf"in the zero-order scan \({error}")

    def stream():
        return CustomSeries(lambda k: 0.0 if k < 3 else c3(), lambda x: 0.0)

    calls = [lambda f: f.zero_order(),
             lambda f: finite_part_integral(f, 2, 0.0, 2.0),
             lambda f: evaluate_transform(TransformSpec(f, 1, 0.5, 2.0)),
             lambda f: classify(f, 1)]
    for call in calls:
        with pytest.raises(NonconvergenceError, match=msg):
            call(stream())


class ShiftedExp(TaylorFunction):
    """(1 + x) e^{-x}, known only through its coefficients
    (-1)^k (1 - k) / k!: the base class evaluates it."""

    def _coeff(self, k):
        return (-1) ** k * (1 - k) / math.factorial(k)


def test_coefficients_alone_give_values_and_derivatives():
    f = ShiftedExp()
    for x in (-1.3, 0.0, 0.7, 4.0):
        assert f.eval(x) == pytest.approx((1 + x) * math.exp(-x), rel=1e-14)
        # f'' = (x - 1) e^{-x}
        assert f.derivative_at(2, x) == pytest.approx(
            (x - 1) * math.exp(-x), rel=1e-13, abs=1e-15)
    for z in (0.5 + 1.2j, -2.0j, -1.5 + 0.3j):
        assert f.eval_complex(z) == pytest.approx((1 + z) * cmath.exp(-z),
                                                  rel=1e-14)


@pytest.mark.parametrize("omega,route", [(0.3, "series"), (1.5, "direct")])
def test_coefficients_alone_give_a_finite_a_transform(omega, route):
    res = evaluate_transform(TransformSpec(ShiftedExp(), 2, omega, 2.0, 0.25))
    with mpmath.workdps(40):
        # int_0^2 x^{-1/4} (1 + x) e^{-x} (omega + x)^{-2} dx in u = x^{3/4},
        # where the integrand is bounded at 0
        k = mpmath.mpf(4) / 3

        def integrand(u):
            x = u ** k
            return k * (1 + x) * mpmath.exp(-x) / (omega + x) ** 2

        ref = mpmath.quad(integrand, [0, mpmath.mpf(2) ** (1 / k)])
    assert (res.route, res.converged) == (route, True)
    assert abs(res.total - ref) <= 1e-12 * abs(ref)


def test_custom_series_contract():
    # a shifted exponential supplied as a raw stream
    f = CustomSeries(
        coeff_fn=lambda k: (-2.0) ** k / math.factorial(k),
        eval_fn=lambda x: math.exp(-2.0 * x),
        decaying=True,
        label="exp2-stream",
    )
    assert f.zero_order() == 0
    assert f.eval(0.3) == pytest.approx(math.exp(-0.6))
    # complex evaluation falls back to partial sums
    assert f.eval_complex(0.5j) == pytest.approx(cmath.exp(-1.0j), abs=1e-12)
    # derivative through the differentiated stream
    assert f.derivative_at(1, 0.25) == pytest.approx(-2.0 * math.exp(-0.5),
                                                     rel=1e-12)


def test_custom_series_with_zero_order_three():
    # x^3 e^{-2x} as raw coefficients and no complex callback: the leading
    # exact zeros are skipped by the partial sums, not summed
    f = CustomSeries(
        coeff_fn=lambda k: 0.0 if k < 3 else (-2.0) ** (k - 3) / math.factorial(k - 3),
        eval_fn=lambda x: x**3 * math.exp(-2.0 * x),
        label="x3-exp2-stream",
    )
    assert f.zero_order() == 3
    z = 0.5j
    assert f.eval_complex(z) == pytest.approx(z**3 * cmath.exp(-2.0 * z),
                                              rel=1e-13)
    x = 0.25
    e = math.exp(-2.0 * x)
    # Leibniz rule on x^3 e^{-2x}
    d1 = (3 * x**2 - 2 * x**3) * e
    d4 = (16 * x**3 - 4 * 3 * 8 * x**2 + 6 * 6 * 4 * x - 4 * 6 * 2) * e
    assert f.derivative_at(1, x) == pytest.approx(d1, rel=1e-12)
    assert f.derivative_at(4, x) == pytest.approx(d4, rel=1e-12)


def test_custom_series_failure_modes():
    zero_stream = CustomSeries(lambda k: 0.0, lambda x: 0.0)
    with pytest.raises(IndeterminateZeroOrderError):
        zero_stream.zero_order()
    # a stream that breaks its declared-entire promise is reported,
    # not silently summed
    liar = CustomSeries(lambda k: float(math.factorial(min(k, 170))),
                        lambda x: 0.0)
    with pytest.raises(NonconvergenceError):
        liar.eval_complex(1.0 + 0.0j)
    with pytest.raises(ValueError):
        CustomSeries(lambda k: 0.0, lambda x: 0.0, entire=False)


def test_coeff_memoization_is_consistent():
    f = Exponential(3.0)
    first = [f.coeff(k) for k in range(20)]
    second = [f.coeff(k) for k in range(20)]
    assert first == second


def test_instances_are_shareable_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    f = MonomialExp(3, 2.0)
    want = [f.__class__(3, 2.0).coeff(k) for k in range(64)]

    def worker(_):
        return [f.coeff(k) for k in range(64)]

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(32)))
    assert all(r == want for r in results)


@pytest.mark.parametrize("b", [0.3, 0.7, 1.0, 1.3, 2.0, 2.5, 7.5, 50.0])
def test_exponential_factorial_table_keeps_the_bits(b):
    # the float table rounds k! as int-to-float division does
    for k in range(151):
        want = (-b) ** k / math.factorial(k)
        assert Exponential(b).coeff(k).hex() == want.hex(), (b, k)


# ---------------------------------------------------------------------------
# Exponential(b) is MonomialExp(0, b)
# ---------------------------------------------------------------------------

def test_exponential_is_the_p0_monomial_exp():
    f = Exponential(1.5)
    assert isinstance(f, MonomialExp)
    assert repr(f) == "Exponential(b=1.5)"
    assert repr(MonomialExp(0, 1.5)) == "MonomialExp(p=0, b=1.5)"
    assert f.p == 0 and f.exp_family() == (0, 1.5, 1.0)
    for args, message in (((0.0,), "Exponential requires b > 0"),
                          ((1, -1.0), "MonomialExp requires b > 0"),
                          ((-1, 1.0), "MonomialExp requires p >= 0")):
        cls = Exponential if len(args) == 1 else MonomialExp
        with pytest.raises(ValueError) as err:
            cls(*args)
        assert str(err.value) == message


PAIR_B = [0.3, 1.0, 2.5]
PAIR_X = [-3.0, -0.5, 0.0, 0.7, 4.0, 40.0]


def same_bits(u, v):
    # repr tells signed zeros apart, == does not
    return repr(u) == repr(v)


@pytest.mark.parametrize("b", PAIR_B)
def test_exponential_and_p0_monomial_exp_share_every_bit(b):
    e, m = Exponential(b), MonomialExp(0, b)
    # k = 151.. crosses from the exact ratio to the log form
    assert all(same_bits(e.coeff(k), m.coeff(k)) for k in range(161))
    for x in PAIR_X:
        assert same_bits(e.eval(x), m.eval(x))
        assert same_bits(e.eval_complex(complex(x, 0.0)),
                         m.eval_complex(complex(x, 0.0)))
        assert same_bits(e.eval_complex(complex(x, 0.5)),
                         m.eval_complex(complex(x, 0.5)))
        for k in range(7):
            assert same_bits(e.derivative_at(k, x), m.derivative_at(k, x))


@pytest.mark.parametrize("a, nu", [(0.5, 0.0), (0.5, 0.25), (4.0, 0.0),
                                   (4.0, 0.25), (math.inf, 0.0),
                                   (math.inf, 0.5)])
def test_exponential_and_p0_monomial_exp_share_their_finite_parts(a, nu):
    # a b < 1 seeds the recurrence with the series, a b > 1 with E_p
    e, m = Exponential(1.0), MonomialExp(0, 1.0)
    for k in range(1, 16):
        fe = finite_part_integral(e, k, nu, a)
        fm = finite_part_integral(m, k, nu, a)
        assert fe == fm and same_bits(fe.value, fm.value)


def test_exponential_and_p0_monomial_exp_share_their_transforms():
    e, m = Exponential(2.0), MonomialExp(0, 2.0)
    for a in (3.0, math.inf):
        te = evaluate_transform(TransformSpec(e, 2, 0.3, a), k_max=TERM_CAP)
        tm = evaluate_transform(TransformSpec(m, 2, 0.3, a), k_max=TERM_CAP)
        assert te == tm
    assert eval_quadratic(e, 0.2) == eval_quadratic(m, 0.2)


def leibniz_reference(p, b, k, x):
    """d^k/dx^k x^p e^{-bx} summed over every Leibniz term from zero."""
    total = 0.0
    for j in range(min(k, p) + 1):
        total += (math.comb(k, j) * math.perm(p, j) * x ** (p - j)
                  * (-b) ** (k - j))
    return total * math.exp(-b * x)


@pytest.mark.parametrize("p", [1, 3])
def test_monomial_exp_derivative_is_the_leibniz_sum(p):
    f = MonomialExp(p, 0.9)
    for x in PAIR_X:
        for k in range(7):
            assert f.derivative_at(k, x) == leibniz_reference(p, 0.9, k, x)


@pytest.mark.parametrize("make", [
    lambda: MonomialExp(1.5, 1.0),
    lambda: MonomialExp(0.5, 1.0),
    lambda: MonomialExp("2", 1.0),
    lambda: MonomialExp(math.nan, 1.0),
    lambda: Polynomial([1.0, 2.0], lowest=1.5),
    lambda: BinomialPoly(1.5, 2),
    lambda: BinomialPoly(1, 2.5),
])
def test_non_integer_exponents_are_rejected(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_whole_float_exponents_count_as_integers():
    assert repr(MonomialExp(2.0, 1.0)) == "MonomialExp(p=2, b=1)"
    assert repr(BinomialPoly(1.0, 2.0)) == "BinomialPoly(p=1, q=2)"
    assert Polynomial([5.0], lowest=2.0).coeff(2) == 5.0
    assert MonomialExp(np.int64(3), 1.0).p == 3


def test_binomial_poly_complex_value_is_its_real_formula():
    f = BinomialPoly(2, 3)
    assert BinomialPoly.eval_complex is BinomialPoly.eval
    assert type(f.eval_complex(0.4)) is float
    z = 0.3 - 0.2j
    assert f.eval_complex(z) == z**2 * (1.0 - z) ** 3
