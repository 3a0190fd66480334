import cmath
import gc
import importlib.util
import inspect
import math
import pickle
import sys
import weakref
from itertools import count
from pathlib import Path

import pytest
from scipy import special

from finitepart import stieltjes
from finitepart.entire import (BinomialPoly, CustomSeries, Exponential,
                               MonomialExp, Polynomial, TaylorFunction)
from finitepart.errors import DivergentIntegralError, NonconvergenceError
from finitepart.finite_part import finite_part_integral
from finitepart.gammafn import pochhammer
from finitepart.oracles import quad_adaptive
from finitepart.series import TERM_CAP, sum_until_small
from finitepart.stieltjes import (ExpansionResult, TransformSpec,
                                  effective_diffusivity, eval_quadratic,
                                  evaluate_transform, singular_term_branch,
                                  singular_term_integer)

ONE = Polynomial([1.0])
EXP1 = Exponential(1.0)


def transform_oracle(f, n, nu, omega, a):
    """Direct adaptive quadrature of the transform being decomposed."""
    def fn(x):
        v = f.eval(x) / (omega + x) ** n
        return v * x ** (-nu) if nu else v
    return quad_adaptive(fn, 0.0, a, tol=1e-11).value


def quadratic_oracle(f, omega, a):
    fn = lambda x: f.eval(x) / (omega * omega + x * x)
    return quad_adaptive(fn, 0.0, a, tol=1e-11).value


# ---------------------------------------------------------------------------
# singular contributions
# ---------------------------------------------------------------------------

def test_singular_term_integer_examples():
    assert singular_term_integer(EXP1, 1, 0.5) == pytest.approx(
        -math.exp(0.5) * math.log(0.5), rel=1e-15
    )
    assert singular_term_integer(ONE, 2, 0.1) == pytest.approx(10.0)
    assert singular_term_integer(Polynomial([1.0], lowest=1), 2, 0.1) \
        == pytest.approx(-math.log(0.1) - 1.0, rel=1e-14)


@pytest.mark.parametrize("f", [
    EXP1, MonomialExp(0, 2.0), MonomialExp(3, 0.7), ONE,
    Polynomial([4.0, 0.0, -3.0, 1.0], lowest=1), BinomialPoly(1, 2),
    0.5 * Exponential(2.0),
    CustomSeries(lambda k: (-2.0) ** k / math.factorial(k),
                 lambda x: math.exp(-2.0 * x), label="exp2-stream"),
], ids=repr)
@pytest.mark.parametrize("omega", [0.01, 0.4, 0.9, 3.0])
def test_singular_term_at_n1_is_the_log_pole_term(f, omega):
    # the general formula at n = 1: derivative_at(0) is eval, / 0! is exact
    assert singular_term_integer(f, 1, omega) \
        == -f.eval(-omega) * math.log(omega)


SINGULAR_FS = [MonomialExp(0, 2.0), MonomialExp(3, 0.7),
               Polynomial([4.0, 0.0, -3.0, 1.0], lowest=1), BinomialPoly(1, 2),
               0.5 * Exponential(2.0), -2.0 * Polynomial([1.0, 3.0]),
               CustomSeries(lambda k: (-2.0) ** k / math.factorial(k),
                            lambda x: math.exp(-2.0 * x), label="exp2-stream")]


@pytest.mark.parametrize("f", SINGULAR_FS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_singular_terms_call_eval_for_the_order_0_derivative(f, n,
                                                             monkeypatch):
    omega, nu = 0.4, 0.25
    # the formulas with derivative_at at every order, order 0 included
    ds = [f.derivative_at(k, -omega) for k in range(n)]
    pole = -ds[n - 1] * math.log(omega) / math.factorial(n - 1)
    for k in range(n - 1):
        pole += ds[k] / (math.factorial(k) * (n - 1 - k)
                         * omega ** (n - k - 1))
    branch = 0.0
    for k in range(n):
        branch += (ds[n - 1 - k] * pochhammer(nu, k)
                   / (math.factorial(k) * math.factorial(n - 1 - k)
                      * omega ** k))
    branch = math.pi / (math.sin(math.pi * nu) * omega ** nu) * branch
    calls = []
    for name in ("eval", "derivative_at"):
        real = getattr(f, name)
        monkeypatch.setattr(f, name, lambda *args, real=real, name=name:
                            calls.append((name, args[0])) or real(*args))
    assert repr(singular_term_integer(f, n, omega)) == repr(pole)
    # one descriptor call per order: eval at 0, derivative_at above
    want = sorted([("eval", -omega)] + [("derivative_at", k)
                                        for k in range(1, n)])
    assert sorted(calls) == want
    calls.clear()
    assert repr(singular_term_branch(f, n, nu, omega)) == repr(branch)
    assert sorted(calls) == want


@pytest.mark.parametrize("f", SINGULAR_FS, ids=repr)
def test_order_0_derivative_is_eval_bit_for_bit(f):
    for x in (-3.0, -0.4, -1e-3, 0.0, 0.7):
        assert repr(f.derivative_at(0, x)) == repr(f.eval(x))


def test_singular_term_branch_examples():
    assert singular_term_branch(ONE, 1, 0.5, 0.25) == pytest.approx(
        2.0 * math.pi, rel=1e-15
    )
    assert singular_term_branch(EXP1, 1, 0.5, 1.0) == pytest.approx(
        math.pi * math.e, rel=1e-15
    )
    assert singular_term_branch(ONE, 2, 0.5, 0.25) == pytest.approx(
        4.0 * math.pi, rel=1e-15
    )


def test_singular_term_validation():
    with pytest.raises(ValueError):
        singular_term_integer(ONE, 0, 0.5)
    with pytest.raises(ValueError):
        singular_term_branch(ONE, 1, 0.0, 0.5)
    with pytest.raises(ValueError):
        singular_term_branch(ONE, 1, 0.5, -1.0)


# ---------------------------------------------------------------------------
# integer order
# ---------------------------------------------------------------------------

def test_eval_integer_constant_closed_form():
    res = evaluate_transform(TransformSpec(ONE, 1, 0.5, 1.0))
    assert res.total == pytest.approx(math.log(3.0), rel=1e-12)
    assert res.naive_sum == pytest.approx(math.log(1.5), rel=1e-11)
    assert res.singular == pytest.approx(-math.log(0.5), rel=1e-15)
    assert res.total == res.naive_sum + res.singular  # exact as computed
    assert res.converged and res.k_used > 0


def test_eval_integer_exponential_infinite():
    res = evaluate_transform(TransformSpec(EXP1, 1, 0.5))
    want = math.exp(0.5) * special.exp1(0.5)
    assert res.total == pytest.approx(want, abs=1e-9)

    res = evaluate_transform(TransformSpec(EXP1, 2, 0.5))
    assert res.total == pytest.approx(1.0 / 0.5 - want, abs=1e-9)


def test_eval_integer_reduces_to_first_order_decomposition():
    # at n = 1 the singular part is exactly -f(-omega) ln(omega)
    for omega in (0.1, 0.4):
        res = evaluate_transform(TransformSpec(EXP1, 1, omega, 2.0))
        assert res.singular == pytest.approx(
            -EXP1.eval(-omega) * math.log(omega), rel=1e-15
        )


def test_eval_integer_domain_errors():
    with pytest.raises(ValueError, match="omega < a"):
        TransformSpec(ONE, 1, 0.7, 0.5)
    with pytest.raises(DivergentIntegralError):
        evaluate_transform(TransformSpec(BinomialPoly(0, 2), 1, 0.5))


def test_eval_integer_nonconvergence_reported_not_raised():
    res = evaluate_transform(TransformSpec(EXP1, 1, 0.9, 1.0), k_max=3)
    assert not res.converged
    assert res.k_used == 3
    assert res.tail_estimate > 0


BAD_TOLS = [math.nan, 0.0, -1.0, 1.0, 2.0, math.inf]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_tolerance_outside_0_1_is_rejected(tol):
    # a nan tol once stopped the naive sum at k_used = 1, marked converged
    calls = [
        lambda: evaluate_transform(TransformSpec(EXP1, 1, 0.5, 1.0), tol=tol),
        lambda: evaluate_transform(TransformSpec(EXP1, 1, 0.1), tol=tol),
        lambda: evaluate_transform(TransformSpec(EXP1, 2, 0.1, nu=0.5),
                                   tol=tol),
        lambda: eval_quadratic(EXP1, 0.3, tol=tol),
        lambda: effective_diffusivity(EXP1, EXP1, 5.0, 1.0, tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            call()


def test_tolerance_inside_0_1_is_accepted():
    spec = TransformSpec(EXP1, 1, 0.5, 1.0)
    loose = evaluate_transform(spec, tol=0.5)
    assert loose.converged and loose.k_used < evaluate_transform(spec).k_used


def test_negative_k_max_is_rejected():
    for call in (
        lambda k: evaluate_transform(TransformSpec(EXP1, 1, 0.9, 1.0),
                                     k_max=k),
        lambda k: evaluate_transform(TransformSpec(EXP1, 1, 0.5, nu=0.5),
                                     k_max=k),
        lambda k: eval_quadratic(EXP1, 0.3, k_max=k),
    ):
        for k in (-1, -5):
            with pytest.raises(ValueError, match="k_max must be >= 0"):
                call(k)
        assert call(0).k_used == 0


def test_monotone_refinement():
    spec = TransformSpec(EXP1, 2, 0.1, 1.0)
    full = evaluate_transform(spec)
    for k_max in (3, 5, 8, 12):
        short = evaluate_transform(spec, k_max=k_max)
        assert abs(full.total - short.total) <= short.tail_estimate


GRID = [
    (f, n, nu, omega, a)
    for f in (EXP1, Exponential(2.0), ONE, BinomialPoly(1, 2), BinomialPoly(0, 3))
    for n in (1, 2, 3)
    for nu in (0.0, 0.5)
    for omega in (0.1, 0.25, 0.5)
    for a in (1.0, math.inf)
    if omega < a
]


def _admissible(f, n, nu, a):
    if not math.isinf(a):
        return True
    if isinstance(f, BinomialPoly):
        return False
    if isinstance(f, Polynomial):
        return f.degree <= (n - 2 if nu == 0.0 else n - 1)
    return True


@pytest.mark.parametrize("f,n,nu,omega,a", GRID,
                         ids=lambda v: repr(v) if hasattr(v, "coeff") else str(v))
def test_exact_decomposition_against_quadrature(f, n, nu, omega, a):
    if not _admissible(f, n, nu, a):
        return
    spec = TransformSpec(f, n, omega, a, nu)
    res = evaluate_transform(spec, tol=1e-12)
    want = transform_oracle(f, n, nu, omega, a)
    assert math.isclose(res.total, want, rel_tol=1e-8, abs_tol=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_a_consistency(nu):
    f = EXP1
    n, omega, a, a2 = 2, 0.25, 1.0, 3.0
    r1 = evaluate_transform(TransformSpec(f, n, omega, a, nu))
    r2 = evaluate_transform(TransformSpec(f, n, omega, a2, nu))
    def fn(x):
        v = f.eval(x) / (omega + x) ** n
        return v * x ** (-nu) if nu else v
    bridge = quad_adaptive(fn, a, a2, tol=1e-12).value
    assert math.isclose(r1.total + bridge, r2.total, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# branch point
# ---------------------------------------------------------------------------

def test_eval_branch_closed_forms():
    res = evaluate_transform(TransformSpec(ONE, 1, 0.25, nu=0.5))
    assert res.total == pytest.approx(2.0 * math.pi, rel=1e-13)
    assert res.naive_sum == 0.0  # all infinite-limit finite parts vanish

    res = evaluate_transform(TransformSpec(ONE, 1, 0.25, 1.0, nu=0.5))
    assert res.total == pytest.approx(4.0 * math.atan(2.0), rel=1e-11)

    res = evaluate_transform(TransformSpec(EXP1, 1, 1.0, nu=0.5))
    assert res.total == pytest.approx(math.pi * math.e * special.erfc(1.0),
                                      abs=1e-9)


# ---------------------------------------------------------------------------
# quadratic kernel and the Peclet wrapper
# ---------------------------------------------------------------------------

def test_eval_quadratic_constant():
    for omega in (0.01, 0.1, 0.5):
        res = eval_quadratic(ONE, omega)
        assert res.total == pytest.approx(math.pi / (2.0 * omega), rel=1e-14)
        assert res.naive_sum == 0.0


def test_eval_quadratic_linear_finite():
    for omega in (0.01, 0.1, 0.5):
        res = eval_quadratic(Polynomial([1.0], lowest=1), omega, 1.0)
        want = 0.5 * math.log((omega**2 + 1.0) / omega**2)
        assert res.total == pytest.approx(want, rel=1e-13)


def test_eval_quadratic_exponential():
    for omega in (0.05, 0.1, 0.5):
        res = eval_quadratic(EXP1, omega)
        want = quadratic_oracle(EXP1, omega, math.inf)
        assert math.isclose(res.total, want, rel_tol=1e-9)


def test_quadratic_reduces_to_arctan_for_constant():
    # partial-fraction hand reduction of 1/(omega^2+x^2) gives atan(a/w)/w
    for omega, a in [(0.1, 1.0), (0.25, 2.0)]:
        res = eval_quadratic(ONE, omega, a)
        assert res.total == pytest.approx(math.atan(a / omega) / omega,
                                          rel=1e-10)


def test_eval_quadratic_domain_errors():
    with pytest.raises(ValueError):
        eval_quadratic(ONE, -0.1)
    with pytest.raises(ValueError):
        eval_quadratic(ONE, 0.7, 0.5)
    with pytest.raises(DivergentIntegralError):
        eval_quadratic(Polynomial([1.0, 2.0, 3.0]), 0.1)  # degree 2 at inf


def test_effective_diffusivity_constant_density():
    keff = effective_diffusivity(ONE * 0.5, ONE * 0.5, peclet=2.0, kappa=1.0)
    assert keff == pytest.approx(1.0 + math.pi, rel=1e-13)


def test_effective_diffusivity_exponential_density():
    for pe in (2.0, 10.0, 100.0):
        keff = effective_diffusivity(EXP1 * 0.5, EXP1 * 0.5, pe, 1.0)
        omega = 1.0 / pe
        want = 1.0 + quadratic_oracle(EXP1, omega, math.inf)
        assert math.isclose(keff, want, rel_tol=1e-8)


@pytest.mark.parametrize("omega", [1e200, 1.5e154, math.inf])
def test_quadratic_rejects_omega_whose_square_overflows(omega):
    # omega**2 raised a raw OverflowError, or summed a series of inf
    with pytest.raises(ValueError, match=r"omega = .* is too large: "
                                         r"omega\^2 leaves float range"):
        eval_quadratic(EXP1, omega)
    if omega < math.inf:
        with pytest.raises(ValueError, match="omega\\^2 leaves float range"):
            effective_diffusivity(EXP1, EXP1, peclet=1.0 / omega, kappa=1.0)
    # omega^2 near the largest float is still evaluated
    assert eval_quadratic(EXP1, 1.3e154).route == "series"


def test_effective_diffusivity_domain_error():
    with pytest.raises(ValueError):
        effective_diffusivity(ONE, ONE, peclet=2.0, kappa=1.0, a=0.25)
    with pytest.raises(ValueError):
        effective_diffusivity(ONE, ONE, peclet=-1.0, kappa=1.0)


def test_expansion_result_fields():
    res = evaluate_transform(TransformSpec(EXP1, 1, 0.5, 1.0))
    assert isinstance(res, ExpansionResult)
    assert res.total == res.naive_sum + res.singular
    assert res.tail_estimate >= 0.0
    assert (res.route, res.direct) == ("series", None)


def test_records_print_as_the_dataclasses_did():
    # the literal text of the frozen dataclasses these records replaced
    assert repr(ExpansionResult(1.5, -0.25, 1.25, 3, 1e-16)) == (
        "ExpansionResult(naive_sum=1.5, singular=-0.25, total=1.25, "
        "k_used=3, tail_estimate=1e-16, converged=True, route='series', "
        "direct=None)")
    assert repr(ExpansionResult(0.5, 0.25, 0.75, 0, 2e-16, False, "direct",
                                0.75)) == (
        "ExpansionResult(naive_sum=0.5, singular=0.25, total=0.75, "
        "k_used=0, tail_estimate=2e-16, converged=False, route='direct', "
        "direct=0.75)")
    # and the spec's, with the kernel field added after them
    assert repr(TransformSpec(Exponential(2.5), 3, 0.25, 1.0, 0.5)) == (
        "TransformSpec(f=Exponential(b=2.5), n=3, omega=0.25, a=1.0, "
        "nu=0.5, kernel='pole')")


@pytest.mark.parametrize("cls, text", [
    (TransformSpec, "(f: finitepart.entire.TaylorFunction, n: int, "
                    "omega: float, a: float = inf, nu: float = 0.0, "
                    "kernel: str = 'pole')"),
    (ExpansionResult, "(naive_sum: float, singular: float, total: float, "
                      "k_used: int, tail_estimate: float, converged: bool = "
                      "True, route: str = 'series', direct: float = None)"),
])
def test_record_constructors_keep_their_parameters(cls, text):
    sig = inspect.signature(cls)
    assert str(sig.replace(return_annotation=sig.empty)) == text


def test_records_are_frozen():
    res = evaluate_transform(TransformSpec(EXP1, 1, 0.5, 1.0))
    spec = TransformSpec(EXP1, 1, 0.5, 1.0)
    for record, name in ((res, "total"), (res, "route"), (spec, "omega"),
                         (spec, "f")):
        with pytest.raises(AttributeError):
            setattr(record, name, 2.0)
    with pytest.raises(AttributeError):
        spec.extra = 1  # no instance dict either


def test_spec_replace_and_make_run_the_constructor_checks():
    spec = TransformSpec(EXP1, 1, 0.5, 1.0)
    with pytest.raises(ValueError, match="expansion requires omega < a"):
        spec._replace(omega=2.0)
    with pytest.raises(ValueError, match="omega must be positive"):
        spec._replace(omega=-1.0)
    with pytest.raises(ValueError, match="transform order n must be an "
                                         "integer >= 1"):
        TransformSpec._make((EXP1, 0, 0.5, 1.0, 0.0))
    with pytest.raises(ValueError, match=r"branch exponent nu must lie in "
                                         r"\[0, 1\)"):
        TransformSpec._make([EXP1, 1, 0.5, 1.0, 1.0])
    with pytest.raises(ValueError, match="upper limit a must be positive"):
        TransformSpec._make(iter((EXP1, 1, 0.5, 0.0, 0.0)))
    moved = spec._replace(omega=0.25, nu=0.5)
    assert type(moved) is TransformSpec
    assert moved == (EXP1, 1, 0.25, 1.0, 0.5, "pole")
    assert TransformSpec._make(moved) == moved
    with pytest.raises(ValueError, match="the quadratic kernel takes"):
        spec._replace(n=2, kernel="quadratic")
    assert spec._replace(kernel="quadratic").kernel == "quadratic"


@pytest.mark.parametrize("args, kw, message", [
    ((EXP1, 1, 0.5), {"kernel": "cauchy"},
     "kernel must be 'pole' or 'quadratic'; got 'cauchy'"),
    ((EXP1, 2, 0.5), {"kernel": "quadratic"},
     "the quadratic kernel takes n = 1 and nu = 0"),
    ((EXP1, 1, 0.5), {"nu": 0.25, "kernel": "quadratic"},
     "the quadratic kernel takes n = 1 and nu = 0"),
    # eval_quadratic's own checks, with its messages, in its order
    ((EXP1, 1, -0.1, math.inf), {"kernel": "quadratic"},
     "omega must be positive"),
    ((EXP1, 1, 0.7, 0.5), {"kernel": "quadratic"},
     "expansion requires omega < a"),
    ((EXP1, 1, 0.7, -1.0), {"kernel": "quadratic"},
     "expansion requires omega < a"),
    # a = -inf, which that check once let through to the ladder
    ((EXP1, 1, 0.7, -math.inf), {"kernel": "quadratic"},
     "expansion requires omega < a"),
    ((EXP1, 1, 1e200), {"kernel": "quadratic"},
     "omega = 1e+200 is too large: omega^2 leaves float range"),
    ((EXP1, 1, math.inf, math.inf), {"kernel": "quadratic"},
     "omega = inf is too large: omega^2 leaves float range"),
])
def test_spec_checks_its_kernel(args, kw, message):
    with pytest.raises(ValueError) as got:
        TransformSpec(*args, **kw)
    assert str(got.value) == message
    if kw == {"kernel": "quadratic"} and args[1] == 1:
        with pytest.raises(ValueError) as got:
            eval_quadratic(args[0], *args[2:])
        assert str(got.value) == message


def test_records_survive_a_pickle_round_trip():
    # Exponential compares by identity, so the reprs are compared; the spec
    # is pickled fresh and again once its descriptor has computed
    spec = TransformSpec(Exponential(2.5), 3, 0.25, 1.0, 0.5)
    for record in (spec, evaluate_transform(spec),
                   evaluate_transform(spec._replace(omega=0.75)), spec):
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record) and repr(back) == repr(record)


# e^{-x} as a user stream whose callbacks pickle: its rungs at a = inf split
_EXP = Exponential(1.0)


def _exp_stream():
    return CustomSeries(_EXP.coeff, _EXP.eval, _EXP.eval_complex,
                        decaying=True, label="exp")


# case -> (descriptor, (m, nu, a) of the rung computed before the pickle,
# the transform (n, omega) on the same ladder): a finite-a exponential
# rung, a Maclaurin rung, a split rung at a = inf, and routed transforms
PICKLE_CASES = {
    "recurrence": (lambda: Exponential(2.5), (2, 0.0, 1.0), (2, 0.3)),
    "maclaurin": (lambda: Polynomial([1.0, -2.0, 0.5], lowest=1),
                  (3, 0.25, 2.0), (2, 0.5)),
    "split": (_exp_stream, (2, 0.25, math.inf), (1, 0.3)),
    "routed": (lambda: MonomialExp(1, 0.5), (1, 0.0, 2.0), (2, 1.5)),
    "routed-split": (_exp_stream, (1, 0.0, math.inf), (2, 0.9)),
}


@pytest.mark.parametrize("case", sorted(PICKLE_CASES))
def test_used_descriptor_and_spec_pickle(case):
    make, (m, nu, a), (n, omega) = PICKLE_CASES[case]
    f = make()
    finite_part_integral(f, m, nu, a)
    spec = TransformSpec(f, n, omega, a, nu)
    first = evaluate_transform(spec)
    if case.startswith("routed"):
        assert first.route == "direct"
    f2 = pickle.loads(pickle.dumps(f))
    spec2 = pickle.loads(pickle.dumps(spec))
    # the copies carry the ladder: its rung source and stored rungs
    for g in (f2, spec2.f):
        lad, kept = g.ladder(nu, a), f.ladder(nu, a)
        assert type(lad.series) is type(kept.series) is not type(None)
        assert repr(lad.rungs) == repr(kept.rungs)
    # and compute on from it with the bits of the original
    for g in (f2, spec2.f):
        assert repr(finite_part_integral(g, m + 7, nu, a)) == repr(
            finite_part_integral(f, m + 7, nu, a))
        for w in (omega, 0.7 * omega):
            assert repr(evaluate_transform(TransformSpec(g, n, w, a, nu))) \
                == repr(evaluate_transform(spec._replace(omega=w)))


@pytest.mark.parametrize("case", sorted(PICKLE_CASES))
def test_unpickled_descriptor_is_freed_by_reference_counting(case):
    # the copy carries the ladder, computes on from it, and is then freed
    # at once: its rung source and rules hold no reference back to it
    make, (m, nu, a), (n, omega) = PICKLE_CASES[case]
    f = make()
    finite_part_integral(f, m, nu, a)
    evaluate_transform(TransformSpec(f, n, omega, a, nu))
    data = pickle.dumps(f)
    gc.collect()
    gc.disable()
    try:
        g = pickle.loads(data)
        lad = g.ladder(nu, a)
        assert lad.series is not None
        finite_part_integral(g, m + 7, nu, a)
        evaluate_transform(TransformSpec(g, n, 0.7 * omega, a, nu))
        ref = weakref.ref(g)
        del g, lad
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_records_build_by_keyword_and_from_their_fields():
    spec = TransformSpec(f=EXP1, n=2, omega=0.5, nu=0.25)
    assert spec == (EXP1, 2, 0.5, math.inf, 0.25, "pole")
    f, n, omega, a, nu, kernel = spec
    assert (f, n, omega, a, nu, kernel) == (spec.f, spec.n, spec.omega,
                                            spec.a, spec.nu, spec.kernel)
    res = evaluate_transform(spec)
    assert len(res) == 8 and tuple(res) == (
        res.naive_sum, res.singular, res.total, res.k_used,
        res.tail_estimate, res.converged, res.route, res.direct)
    # tools/faultscan.py rebuilds a result from its fields
    again = ExpansionResult(*tuple(res))
    assert type(again) is ExpansionResult and again == res
    assert ExpansionResult(**res._asdict()) == res
    assert ExpansionResult(naive_sum=1.0, singular=2.0, total=3.0, k_used=1,
                           tail_estimate=0.0) == (1.0, 2.0, 3.0, 1, 0.0,
                                                  True, "series", None)


# ---------------------------------------------------------------------------
# rung ladder: one descriptor reused across a sweep
# ---------------------------------------------------------------------------

def _gauss_stream():
    """exp(-x^2) as a decaying user stream (split path at a = inf)."""
    def coeff(k):
        return 0.0 if k % 2 else (-1.0) ** (k // 2) / math.factorial(k // 2)
    return CustomSeries(coeff, lambda x: math.exp(-x * x),
                        lambda z: cmath.exp(-z * z), decaying=True)


def _sweep_omegas(top, count=16):
    return [top * 10.0 ** (-3.0 * (1.0 - i / (count - 1))) for i in range(count)]


def _bits(res):
    return repr((res.naive_sum, res.singular, res.total, res.k_used,
                 res.tail_estimate, res.converged))


def _transform(kernel, f, n, nu, a, omega):
    if kernel == "quadratic":
        return eval_quadratic(f, omega, a, k_max=TERM_CAP)
    return evaluate_transform(TransformSpec(f, n, omega, a, nu),
                              k_max=TERM_CAP)


LADDER_SWEEPS = [
    ("integer", lambda: Exponential(1.3), 2, 0.0, 1.5),
    ("integer", lambda: MonomialExp(1, 0.8), 3, 0.0, 2.0),
    ("branch", lambda: MonomialExp(1, 0.9), 2, 0.25, 1.5),
    ("quadratic", lambda: Exponential(1.1), 0, 0.0, 1.8),
    ("integer", _gauss_stream, 1, 0.0, math.inf),
]


@pytest.mark.parametrize("kernel,make,n,nu,a", LADDER_SWEEPS)
def test_shared_instance_sweep_matches_fresh_instances(kernel, make, n, nu, a):
    top = 0.5 * a if math.isfinite(a) else 0.9
    shared = make()
    for omega in _sweep_omegas(top):
        want = _transform(kernel, make(), n, nu, a, omega)
        got = _transform(kernel, shared, n, nu, a, omega)
        assert _bits(got) == _bits(want)


def test_ladder_resets_on_another_a_or_nu():
    f = MonomialExp(1, 0.9)
    cases = [("integer", 1, 0.0, 1.0, 0.4), ("integer", 1, 0.0, 2.0, 0.4),
             ("integer", 1, 0.0, 1.0, 0.3), ("branch", 2, 0.25, 2.0, 0.5),
             ("branch", 2, 0.5, 2.0, 0.5), ("integer", 2, 0.0, 2.0, 0.5),
             ("quadratic", 0, 0.0, 2.0, 0.6), ("integer", 2, 0.0, 2.0, 0.7),
             ("integer", 1, 0.0, math.inf, 0.4)]
    for kernel, n, nu, a, omega in cases:
        want = _transform(kernel, MonomialExp(1, 0.9), n, nu, a, omega)
        got = _transform(kernel, f, n, nu, a, omega)
        assert _bits(got) == _bits(want)
    # an int a rounds its high rungs differently from the equal float a
    f = Exponential(1.0)
    for a in (7, 7.0, 7):
        want = evaluate_transform(TransformSpec(Exponential(1.0), 1, 6.3, a),
                                  k_max=TERM_CAP)
        got = evaluate_transform(TransformSpec(f, 1, 6.3, a), k_max=TERM_CAP)
        assert _bits(got) == _bits(want)


@pytest.fixture
def fpi_calls(monkeypatch):
    """The m of every finite_part_integral call the transforms make."""
    calls = []
    real = stieltjes.finite_part_integral

    def counting(f, m, nu, a):
        calls.append(m)
        return real(f, m, nu, a)

    monkeypatch.setattr(stieltjes, "finite_part_integral", counting)
    return calls


def test_raising_rung_raises_again(fpi_calls):
    f = CustomSeries(Exponential(1.0).coeff, lambda x: math.exp(-x),
                     decaying=True)
    spec = TransformSpec(f, 1, 54.0, 60.0)
    errors = []
    for _ in range(2):
        # k_max keeps the series: the direct route returns the integral
        with pytest.raises(NonconvergenceError) as exc:
            evaluate_transform(spec, k_max=TERM_CAP)
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "finite-part series overflowed after 174 terms"
    assert fpi_calls == [1, 1]


@pytest.mark.parametrize("f", [Exponential(1.0), Polynomial([1.0, 2.0])],
                         ids=repr)
def test_nu_below_the_guard_is_rejected_by_the_rungs(f):
    # TransformSpec admits any nu in [0, 1); the finite parts do not
    spec = TransformSpec(f, 1, 0.3, 1.0, nu=1e-13)
    for _ in range(2):
        with pytest.raises(ValueError, match="branch exponent nu must be 0 "
                           "exactly or lie in"):
            evaluate_transform(spec)


def test_climb_forms_only_the_binomials_it_reaches(monkeypatch):
    monkeypatch.setattr(stieltjes, "_BINOMS", {})
    f = Exponential(1.0)
    res = evaluate_transform(TransformSpec(f, 3, 0.2, 1.0))
    assert len(stieltjes._BINOMS[3]) == res.k_used + 1
    # omega > a/2: k_max keeps the transform on the series
    deeper = evaluate_transform(TransformSpec(Exponential(1.0), 3, 0.6, 1.0),
                                k_max=TERM_CAP)
    assert len(stieltjes._BINOMS[3]) == deeper.k_used + 1 > res.k_used + 1
    assert stieltjes._BINOMS[3] == [float((-1) ** k * math.comb(k + 2, k))
                                    for k in range(deeper.k_used + 1)]


def test_int_nu_zero_shares_the_float_rungs(fpi_calls):
    f = Exponential(1.0)
    want = evaluate_transform(TransformSpec(f, 2, 0.3, 1.0), k_max=TERM_CAP)
    computed = len(fpi_calls)
    got = evaluate_transform(TransformSpec(f, 2, 0.3, 1.0, nu=0),
                             k_max=TERM_CAP)
    assert _bits(got) == _bits(want)
    assert len(fpi_calls) == computed > 0


def test_sweep_computes_each_rung_once(fpi_calls):
    f = Exponential(1.0)
    k_used = [evaluate_transform(TransformSpec(f, 2, omega, 1.0)).k_used
              for omega in _sweep_omegas(0.5)]
    assert sorted(fpi_calls) == list(range(2, 2 + max(k_used) + 1))
    # three sums (n = 1 and 3 and the quadratic kernel) share the rungs
    # of one ladder, and none reads past the last rung it reaches
    fpi_calls.clear()
    f = gauss_stream(1.0)
    reached = set()
    for omega in (0.3, 0.1, 0.5):
        for n in (1, 3):
            k = evaluate_transform(TransformSpec(f, n, omega, 1.0)).k_used
            reached.update(range(n, n + k + 1))
        k = eval_quadratic(f, omega, 1.0).k_used
        reached.update(range(2, 2 * k + 3, 2))
    assert sorted(fpi_calls) == sorted(reached)


def _reference_naive(f, nu, a, m0, step, n, ostep, tol, cap):
    """The naive series as a plain loop: float((-1)^k binom(n+k-1, k))
    times ostep^k times FPI(f, m0 + step*k, nu, a), ostep^k by repeated
    multiplication; (naive_sum, k_used, tail_estimate, converged)."""
    def terms():
        wk = 1.0
        for k in count():
            coef = float((-1) ** k * math.comb(n + k - 1, k)) * wk
            fv = finite_part_integral(f, m0 + step * k, nu, a).value
            yield coef * fv
            wk *= ostep

    s = sum_until_small(terms(), tol, cap + 1)
    return s.total, s.terms - 1, max(s.last, s.prev), s.converged


TABLE_STREAMS = {
    "exp": lambda: Exponential(1.1),
    "monexp": lambda: MonomialExp(1, 0.9),
    "poly": lambda: Polynomial([1.0, -0.4]),
    "gauss": lambda: gauss_stream(1.0),
}


@pytest.mark.parametrize("stream", sorted(TABLE_STREAMS))
@pytest.mark.parametrize("kernel,nu", [("integer", 0.0), ("branch", 0.25),
                                       ("branch", 0.5), ("quadratic", 0.0)])
@pytest.mark.parametrize("a", [1.5, math.inf])
def test_table_sum_matches_a_plain_loop(stream, kernel, nu, a):
    # a rising sweep needs more rungs than its tables hold, a falling one
    # fewer; both must give the bits of the plain loop
    make = TABLE_STREAMS[stream]
    if stream == "poly" and kernel == "quadratic" and math.isinf(a):
        return  # a degree-1 polynomial against x^-2 diverges at infinity
    top = 0.5 * a if math.isfinite(a) else 0.9
    omegas = _sweep_omegas(top, 6)
    tol = 1e-12
    for k_max in (0, 3, TERM_CAP):
        for sweep in (omegas, omegas[::-1]):
            f, ref_f = make(), make()
            for omega in sweep:
                if kernel == "quadratic":
                    got = eval_quadratic(f, omega, a, tol, k_max)
                    want = _reference_naive(ref_f, 0.0, a, 2, 2, 1,
                                            omega ** 2, tol, k_max)
                else:
                    got = evaluate_transform(TransformSpec(f, 3, omega, a, nu),
                                             tol, k_max)
                    want = _reference_naive(ref_f, nu, a, 3, 1, 3, omega,
                                            tol, k_max)
                assert repr((got.naive_sum, got.k_used, got.tail_estimate,
                             got.converged)) == repr(want)


def gauss_stream(c):
    """exp(-c x^2) as a user stream with exact eval callbacks."""
    def coeff(k):
        return 0.0 if k % 2 else (-c) ** (k // 2) / math.factorial(k // 2)

    return CustomSeries(coeff, lambda x: math.exp(-c * x * x),
                        lambda z: cmath.exp(-c * z * z), decaying=True)


def test_user_stream_sweep_reads_each_coefficient_once():
    f = gauss_stream(1.0)
    calls = []
    read = f.coeff
    f.coeff = lambda k: calls.append(k) or read(k)
    # omega > a/2: k_max keeps the transforms on the series
    k_used = [evaluate_transform(TransformSpec(f, 1, omega, 2.0),
                                 k_max=TERM_CAP).k_used
              for omega in (1.2, 1.4, 1.6, 1.8)]
    assert max(k_used) > 150  # the ladder is climbed past m = 150
    assert len(calls) == len(set(calls))


def test_split_sweep_evaluates_f_once_per_node():
    def sweep(top):
        f = gauss_stream(1.0)
        calls = []
        call = f.eval
        f.eval = lambda x: calls.append(x) or call(x)
        k_used = [evaluate_transform(TransformSpec(f, 1, omega),
                                     k_max=TERM_CAP).k_used
                  for omega in _sweep_omegas(top)]
        return max(k_used) + 1, len(calls)

    few, evals_few = sweep(0.05)
    many, evals_many = sweep(1.0)
    assert few <= 12 and many >= 28
    assert evals_few == evals_many


def test_shared_ladder_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(1.0 + i % 2, omega) for i, omega in
            enumerate(_sweep_omegas(0.45, 24))] * 4

    def run(f, a, omega):
        return _bits(evaluate_transform(TransformSpec(f, 2, omega, a),
                                        k_max=TERM_CAP))

    want = [run(MonomialExp(1, 0.9), a, omega) for a, omega in jobs]
    shared = MonomialExp(1, 0.9)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(run, shared, a, omega) for a, omega in jobs]
            got = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize("a", [2.0, math.inf])
def test_threads_climbing_one_user_stream_agree(a):
    # every thread climbs the same fresh ladder at once, so its tables grow
    # under contention; one lost or doubled extension shifts a table.  The
    # jobs mix n = 1, n = 2 and the quadratic kernel, which read three rung
    # value lists, (1, 1), (2, 1) and (2, 2), and two binomial tables
    from concurrent.futures import ThreadPoolExecutor

    omegas = (1.8, 1.5, 1.2) if a == 2.0 else (0.9, 0.5, 0.2)
    jobs = [(n, omega) for n in (1, 2, 0) for omega in omegas]

    def run(f, n, omega):
        if n:
            res = evaluate_transform(TransformSpec(f, n, omega, a))
        else:
            res = eval_quadratic(f, omega, a)
        return (n, omega), repr((res.total, res.k_used))

    want = dict(run(gauss_stream(1.0), n, omega) for n, omega in jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(60):
            shared = gauss_stream(1.0)
            stieltjes._BINOMS.clear()  # the binomial tables grow afresh too
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, shared, n, omega)
                           for n, omega in jobs * 3]
                got = [fut.result(timeout=120) for fut in futures]
            assert all(bits == want[job] for job, bits in got)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

# the per-case wrappers that finite_part_integral and evaluate_transform
# replaced
REMOVED = ([f"fpi_{case}_{upper}" for case in ("pole", "branch")
            for upper in ("finite", "infinite")]
           + [f"eval_{case}" for case in ("integer", "branch")])


def test_every_exported_name_resolves():
    import finitepart

    for name in finitepart.__all__:
        assert getattr(finitepart, name) is not None, name


def test_every_traced_binding_resolves():
    # bench/tracer.py installs its wrappers with getattr and no default:
    # a binding that it names and the package drops stops the traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.FUNCTIONS) > 20
    for module, attr, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr,
                                None)), (module, attr)
    for meth in tracer.ENTIRE_METHODS:
        assert callable(getattr(TaylorFunction, meth, None)), meth


def test_eval_quadratic_reaches_the_core_unwrapped(monkeypatch):
    # bench/tracer.py wraps stieltjes.evaluate_transform: eval_quadratic
    # through that name would nest two transform spans per traced op
    want = eval_quadratic(EXP1, 0.3, 2.0)
    monkeypatch.setattr(stieltjes, "evaluate_transform", None)
    assert repr(eval_quadratic(EXP1, 0.3, 2.0)) == repr(want)


def test_removed_wrappers_are_gone():
    import finitepart
    from finitepart import finite_part

    for mod in (finitepart, finite_part, stieltjes):
        for name in REMOVED:
            assert not hasattr(mod, name), (mod.__name__, name)
