import inspect
import math
import pickle
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from finitepart.asymptotic import LeadingBehavior, LeadingKind, classify
from finitepart.entire import (BinomialPoly, Exponential, MonomialExp,
                               Polynomial)
from finitepart.errors import NonconvergenceError
from finitepart.finite_part import finite_part_integral
from finitepart.stieltjes import TransformSpec, evaluate_transform

ONE = Polynomial([1.0])
EXP1 = Exponential(1.0)


def test_classify_log_dominant():
    lb = classify(EXP1, 1, 0.0)
    assert lb.kind is LeadingKind.LOG_DOMINANT
    assert lb.coefficient == -1.0
    assert lb.carries_log and lb.exponent == 0.0
    # order-n transform of a zero of order n-1 is also log dominant
    lb = classify(MonomialExp(2, 1.0), 3, 0.0)
    assert lb.kind is LeadingKind.LOG_DOMINANT
    assert lb.coefficient == -1.0


def test_classify_power_dominant():
    lb = classify(ONE, 3, 0.0)
    assert lb.kind is LeadingKind.POWER_DOMINANT
    assert lb.exponent == -2
    assert lb.coefficient == pytest.approx(0.5, rel=1e-15)


def test_power_dominant_coefficient_is_the_factorial_sum():
    # the alternating factorial sum, kept exact until one final rounding
    for n in range(2, 31):
        for s in range(2, n + 1):
            acc = sum(Fraction((-1) ** (n - s - k) * math.factorial(n - s),
                               math.factorial(k) * (n - 1 - k)
                               * math.factorial(n - s - k))
                      for k in range(n - s + 1))
            lb = classify(Polynomial([1.0], lowest=n - s), n, 0.0)
            assert lb.kind is LeadingKind.POWER_DOMINANT
            assert lb.exponent == -(s - 1)
            assert lb.coefficient == float(acc), (n, s)


def test_classify_naive_dominant():
    lb = classify(MonomialExp(2, 1.0), 1, 0.0)
    assert lb.kind is LeadingKind.NAIVE_DOMINANT
    # the coefficient is the leading finite part, here int_0^inf x e^{-x}
    assert lb.coefficient == pytest.approx(1.0, rel=1e-14)
    lb_fin = classify(MonomialExp(2, 1.0), 1, 0.0, a=1.0)
    assert lb_fin.coefficient == pytest.approx(
        finite_part_integral(MonomialExp(2, 1.0), 1, 0.0, 1.0).value, rel=1e-14
    )


def test_classify_branch_power_dominant():
    lb = classify(ONE, 1, 0.5)
    assert lb.kind is LeadingKind.BRANCH_POWER_DOMINANT
    assert lb.coefficient == pytest.approx(math.pi, rel=1e-15)
    assert lb.exponent == pytest.approx(-0.5)
    lb = classify(MonomialExp(2, 1.0), 1, 0.5)
    assert lb.kind is LeadingKind.NAIVE_DOMINANT
    assert lb.coefficient == pytest.approx(math.gamma(1.5), rel=1e-13)


def test_value_at_examples():
    assert classify(EXP1, 1, 0.0).value_at(1e-3) == pytest.approx(
        -math.log(1e-3), rel=1e-15
    )
    assert classify(ONE, 3, 0.0).value_at(1e-2) == pytest.approx(
        5000.0, rel=1e-12)
    assert classify(ONE, 1, 0.5).value_at(1e-4) == pytest.approx(
        math.pi * 100.0, rel=1e-12
    )


def test_value_at_validation():
    with pytest.raises(ValueError):
        classify(EXP1, 1, 0.0).value_at(-0.5)
    for omega in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^omega must be positive and "
                                             f"finite; got {omega!r}$"):
            classify(EXP1, 1, 0.0).value_at(omega)
    with pytest.raises(ValueError):
        classify(EXP1, 0, 0.0)
    with pytest.raises(ValueError):
        classify(EXP1, 1, 1.5)


# one fixture per classification case; the finite upper limit keeps the
# evaluations quadrature-free and fast
CASES = [
    # (f, n, nu, a) -> expected kind
    (ONE, 1, 0.0, 1.0, LeadingKind.LOG_DOMINANT),
    (ONE, 3, 0.0, 1.0, LeadingKind.POWER_DOMINANT),
    (MonomialExp(2, 1.0), 1, 0.0, math.inf, LeadingKind.NAIVE_DOMINANT),
    (ONE, 1, 0.5, 1.0, LeadingKind.BRANCH_POWER_DOMINANT),
    (BinomialPoly(1, 2), 2, 0.5, 1.0, LeadingKind.BRANCH_POWER_DOMINANT),
    (MonomialExp(2, 1.0), 1, 0.5, math.inf, LeadingKind.NAIVE_DOMINANT),
]


@pytest.mark.parametrize("f,n,nu,a,kind", CASES)
def test_leading_term_dominates_as_omega_shrinks(f, n, nu, a, kind):
    lb = classify(f, n, nu, a)
    assert lb.kind is kind
    errors = []
    for omega in (1e-2, 1e-3, 1e-4):
        total = evaluate_transform(TransformSpec(f, n, omega, a, nu)).total
        errors.append(abs(total / lb.value_at(omega) - 1.0))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.05


def test_log_coefficient_recovered_by_fit():
    # fitting total against (ln w, 1) recovers f(0) = 1 within 2 percent
    omegas = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    totals = [
        evaluate_transform(TransformSpec(EXP1, 1, w, 1.0)).total
        for w in omegas
    ]
    slope, _ = np.polyfit(np.log(omegas), totals, 1)
    assert abs(-slope - 1.0) < 0.02


def test_leading_behavior_record():
    lb = classify(EXP1, 1, 0.0)
    # the literal text of the frozen dataclass this record replaced
    assert repr(lb) == (
        "LeadingBehavior(kind=<LeadingKind.LOG_DOMINANT: 'LogDominant'>, "
        "coefficient=-1.0, exponent=0.0, carries_log=True)")
    sig = inspect.signature(LeadingBehavior)
    assert str(sig.replace(return_annotation=sig.empty)) == (
        "(kind: finitepart.asymptotic.LeadingKind, coefficient: float, "
        "exponent: float, carries_log: bool)")
    kind, coefficient, exponent, carries_log = lb
    assert lb == (LeadingKind.LOG_DOMINANT, -1.0, 0.0, True)
    assert LeadingBehavior(kind=kind, coefficient=coefficient,
                           exponent=exponent, carries_log=carries_log) == lb
    assert type(LeadingBehavior(*lb)) is LeadingBehavior
    with pytest.raises(AttributeError):
        lb.coefficient = 2.0
    back = pickle.loads(pickle.dumps(lb))
    assert type(back) is LeadingBehavior and back == lb
    assert back.value_at(0.5) == lb.value_at(0.5) == -math.log(0.5)


# the census grid of tools/faultscan.py
BETA_NS = (*range(1, 41), 60, 80, 100, 120, 150, 170, 200, 300, 400, 600,
           800, 1000)
BETA_NUS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)


@pytest.mark.parametrize("n", BETA_NS)
def test_power_coefficient_is_the_beta_integral(n):
    # 0 < nu < 1 was an alternating sum: 743 of the grid's 1,765 branch
    # rows were more than 1e-12 off, and 130 raised OverflowError
    bad = []
    for m in sorted({0, 1, 2, 3, 5, n // 2, n - 2, n - 1}):
        for nu in BETA_NUS:
            if not 0 <= m <= n - 1 or nu == 0.0 and m == n - 1:
                continue
            lb = classify(MonomialExp(m, 1.0) * 3.0, n, nu)
            assert lb.kind is (LeadingKind.BRANCH_POWER_DOMINANT if nu
                               else LeadingKind.POWER_DOMINANT)
            assert lb.exponent == m - n + 1 - nu
            assert type(lb.exponent) is (float if nu else int)
            with mp.workdps(30):
                ref = 3 * mp.beta(m + 1 - mp.mpf(nu), n - m - 1 + mp.mpf(nu))
                err = float(abs(lb.coefficient - ref) / ref)
            if err > (1e-13 if n <= 170 else 2e-13):
                bad.append((m, nu, err))
    assert not bad


@pytest.mark.parametrize("n", [*range(172, 1001, 23), 900])
def test_branch_coefficient_past_gamma_range_is_within_2e_13(n):
    # past n = 171, where Gamma(n) overflows, B comes from Stirling's
    # formula; exp(lgamma(x) + lgamma(y) - lgamma(n)) was up to 2.4e-12 off
    # (asym --f "exp(1)" --n 900 --nu 0.1: 1.8e-12)
    bad = []
    for m in sorted({0, 1, 2, 3, 5, 10, 50, n // 4, n // 3, n // 2,
                     2 * n // 3, n - 10, n - 3, n - 2, n - 1}):
        for nu in (1e-9, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9, 1 - 1e-9):
            try:
                got = classify(MonomialExp(m, 1.0), n, nu).coefficient
            except NonconvergenceError:  # B below the normal range
                with mp.workdps(30):
                    assert mp.beta(m + 1 - mp.mpf(nu),
                                   n - m - 1 + mp.mpf(nu)) < 2.3e-308
                continue
            with mp.workdps(30):
                ref = mp.beta(m + 1 - mp.mpf(nu), n - m - 1 + mp.mpf(nu))
                err = float(abs(got - ref) / ref)
            if err > 2e-13:
                bad.append((m, nu, err))
    assert not bad


@pytest.mark.parametrize("f,n,nu", [
    (Polynomial([1.0], lowest=550), 1100, 0.0),    # underflows below 1e-308
    (Polynomial([1.0], lowest=550), 1100, 0.5),
    (Polynomial([1e300], lowest=1), 2, 1e-10),     # 1e300 B(2-nu, nu)
    (Polynomial([3e-308], lowest=1), 3, 0.0),      # 3e-308 B(2, 1)
])
def test_power_coefficient_out_of_float_range_raises(f, n, nu):
    m = f.zero_order()
    with pytest.raises(NonconvergenceError, match="^" + re.escape(
            f"leading coefficient d0 B(m+1-nu, n-m-1+nu) at n = {n}, "
            f"m = {m}, nu = {nu!r} leaves float range") + "$"):
        classify(f, n, nu)


@pytest.mark.parametrize("f,n,nu,omega,exponent", [
    (EXP1, 400, 0.0, 1e-3, "-399"),
    (EXP1, 3, 0.5, 1e-300, "-2.5"),
    (EXP1 * 1e300, 3, 0.0, 1e-200, "-2"),
    (EXP1 * 1e300, 3, 0.0, 1e-150, "-2"),          # the product overflows
    (EXP1, 3, 0.0, 1e200, "-2"),                   # the power underflows
])
def test_leading_value_out_of_float_range_raises(f, n, nu, omega, exponent):
    # each ended in a raw OverflowError, or gave 0.0
    lb = classify(f, n, nu)
    with pytest.raises(NonconvergenceError, match="^" + re.escape(
            f"leading term at omega = {omega!r}, exponent {exponent} "
            "leaves float range") + "$"):
        lb.value_at(omega)
