import inspect
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from finitepart.asymptotic import (LeadingBehavior, LeadingKind, classify,
                                   leading_term)
from finitepart.entire import (BinomialPoly, Exponential, MonomialExp,
                               Polynomial)
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


def test_leading_term_examples():
    assert leading_term(EXP1, 1, 0.0, 1e-3) == pytest.approx(
        -math.log(1e-3), rel=1e-15
    )
    assert leading_term(ONE, 3, 0.0, 1e-2) == pytest.approx(5000.0, rel=1e-12)
    assert leading_term(ONE, 1, 0.5, 1e-4) == pytest.approx(
        math.pi * 100.0, rel=1e-12
    )


def test_leading_term_validation():
    with pytest.raises(ValueError):
        leading_term(EXP1, 1, 0.0, -0.5)
    for omega in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^omega must be positive and "
                                             f"finite; got {omega!r}$"):
            leading_term(EXP1, 1, 0.0, omega)
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
