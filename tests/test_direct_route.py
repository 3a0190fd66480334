"""The direct route of the transforms at a finite a with omega > a/2 and,
for user streams, at a = inf with omega > SPLIT_POINT/2, its Gauss-Jacobi
rule, and coefficient streams that leave float range.

References are mpmath quadratures at 40 digits.  A routed result must keep
the exact identity naive_sum + singular == total and lie within
tol |ref| + 4u |singular| of the reference: the identity's own rounding is
u |singular| at most twice.  Its tail_estimate, the identity's rounding
plus the quadrature's bound, must cover its error and, on a converged
result, lie within tol |direct|.  A flagged one keeps the integral,
naive_sum = direct - singular, with a tail_estimate above tol |direct| and
``direct`` within tol |ref|.  Where a rule fails, the result must be the
series result, bit for bit.  The exponential family at nu = 0
with b omega > 1 takes the closed route before either
(tests/test_closed_route.py); here such a result must keep the identity
and either meet the routed bound or be flagged with ``direct`` within its
own bound of the reference.
"""

import cmath
import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from finitepart import stieltjes
from finitepart.cli import parse_function
from finitepart.entire import (BinomialPoly, CustomSeries, Exponential,
                               MonomialExp, Polynomial)
from finitepart.errors import (DivergentIntegralError, FinitePartError,
                               NonconvergenceError)
from finitepart.finite_part import (SPLIT_POINT, finite_part_integral,
                                   splits_at_infinity)
from finitepart.gammafn import UNIT_ROUNDOFF
from finitepart.quadrature import GAUSS_START, GaussJacobi
from finitepart.series import TERM_CAP
from finitepart.stieltjes import (DEFAULT_EVAL_TOL, TransformSpec, _closed,
                                  eval_quadratic, evaluate_transform)

U = UNIT_ROUNDOFF
TOL = DEFAULT_EVAL_TOL


def gauss(c):
    """exp(-c x^2) as a user stream with exact eval callbacks."""
    def coeff(k):
        return 0.0 if k % 2 else (-c) ** (k // 2) / math.factorial(k // 2)

    return CustomSeries(coeff, lambda x: math.exp(-c * x * x),
                        lambda z: cmath.exp(-c * z * z), decaying=True,
                        label=f"gauss({c})")


# name -> (descriptor maker, mpmath integrand maker) of the parameters
FAMILIES = {
    "exp": (lambda b: Exponential(b),
            lambda b: lambda x: mpmath.exp(-b * x)),
    "monexp": (lambda p, b: MonomialExp(p, b),
               lambda p, b: lambda x: x ** p * mpmath.exp(-b * x)),
    "binpoly": (lambda p, q: BinomialPoly(p, q),
                lambda p, q: lambda x: x ** p * (1 - x) ** q),
    "gauss": (gauss, lambda c: lambda x: mpmath.exp(-c * x * x)),
    # user streams without a closed form
    "expstream": (lambda: CustomSeries(
        lambda k: (-1) ** k / math.factorial(k), lambda x: math.exp(-x),
        lambda z: cmath.exp(-z), decaying=True, label="expstream"),
        lambda: lambda x: mpmath.exp(-x)),
    "xexp": (lambda: CustomSeries(
        lambda k: k and (-1) ** (k - 1) / math.factorial(k - 1),
        lambda x: x * math.exp(-x), lambda z: z * cmath.exp(-z),
        decaying=True, label="xexp"),
        lambda: lambda x: x * mpmath.exp(-x)),
    "expcos3": (lambda: CustomSeries(
        lambda k: ((-1 + 3j) ** k).real / math.factorial(k),
        lambda x: math.exp(-x) * math.cos(3 * x),
        lambda z: cmath.exp(-z) * cmath.cos(3 * z), decaying=True,
        label="expcos3"),
        lambda: lambda x: mpmath.exp(-x) * mpmath.cos(3 * x)),
}


def reference(fn, n, nu, a, omega):
    """int_0^a x^{-nu} fn(x) K(x) dx at 40 digits, K = (omega+x)^{-n}, or
    1/(omega^2+x^2) for n = 0; taken in u = x^{1-nu}, in which the
    integrand is bounded at 0, and split at omega below a/2, where the
    kernel's peak is narrow.  The kernel is taken over K(0), as mpmath's
    quad settles on an absolute change: on (1-x)^10 at a = 40,
    omega = 20.5 and n = 40 the integral is about 1e-49, and without the
    scale quad returned it 1e-3 off."""
    with mpmath.workdps(40):
        w, a = mpmath.mpf(omega), mpmath.mpf(a)
        k = 1 / (1 - mpmath.mpf(nu))
        if n:
            def kernel(x):
                return (1 + x / w) ** -n
        else:
            def kernel(x):
                return 1 / (1 + (x / w) ** 2)
        pts = [0, 1, 4, a] if a > 4 else [0, a]
        if w < a / 2:
            pts = sorted({*pts, w})
        pts = [x ** (1 / k) for x in pts]
        return mpmath.quad(lambda u: k * fn(u ** k) * kernel(u ** k),
                           pts) * w ** -(n or 2)


def evaluate(f, n, nu, a, omega, **kw):
    if n:
        return evaluate_transform(TransformSpec(f, n, omega, a, nu), **kw)
    return eval_quadratic(f, omega, a, **kw)


def outcome(make, n, nu, a, omega, **kw):
    """The result's fields, or the error's type and message, of a call on
    a fresh descriptor."""
    try:
        r = evaluate(make(), n, nu, a, omega, **kw)
    except (FinitePartError, ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return (r.naive_sum, r.singular, r.total, r.k_used, r.tail_estimate,
            r.converged, r.route, r.direct)


def assert_flagged_with_direct(res, ref):
    """A flagged integral on route "direct": naive_sum = direct - singular
    and k_used = 0, the total within a tail_estimate above tol |direct|,
    and ``direct`` within tol |ref| of the reference."""
    assert (res.route, res.converged, res.k_used) == ("direct", False, 0)
    assert res.naive_sum == res.direct - res.singular
    assert res.naive_sum + res.singular == res.total
    assert res.tail_estimate > TOL * abs(res.direct)
    assert abs(mpmath.mpf(res.total) - ref) <= res.tail_estimate, (res, ref)
    assert abs(mpmath.mpf(res.direct) - ref) <= TOL * abs(ref), (res, ref)


def assert_routed_or_refused(name, params, n, nu, a, omega):
    make_f, make_mp = FAMILIES[name]
    try:
        res = evaluate(make_f(*params), n, nu, a, omega)
    except (FinitePartError, ArithmeticError):
        res = None
    if res is None or res.route == "series":
        got = outcome(lambda: make_f(*params), n, nu, a, omega)
        want = outcome(lambda: make_f(*params), n, nu, a, omega,
                       k_max=TERM_CAP)
        assert repr(got) == repr(want)
        return "refused"
    ref = reference(make_mp(*params), n, nu, a, omega)
    if res.route == "direct" and not res.converged:
        assert_flagged_with_direct(res, ref)
        return "flagged"
    assert res.naive_sum + res.singular == res.total
    assert res.k_used == 0
    if res.route == "closed":
        direct, bound = _closed(*make_f(*params).exp_family(), n, omega, a)
        assert res.direct == direct
        assert abs(mpmath.mpf(direct) - ref) <= bound, (res, ref)
        assert res.tail_estimate == abs(res.total - direct) + bound
        if not res.converged:
            return "flagged"
    else:
        assert (res.route, res.converged) == ("direct", True)
        assert res.naive_sum == res.direct - res.singular
        assert abs(mpmath.mpf(res.total) - ref) <= res.tail_estimate \
            <= TOL * abs(res.direct), (res, ref)
    err = abs(mpmath.mpf(res.total) - ref)
    assert err <= TOL * abs(ref) + 4 * U * abs(res.singular), (res, ref)
    return "routed" if res.route == "direct" else "closed"


SHAPES = st.one_of(
    st.tuples(st.just("exp"), st.tuples(st.floats(0.3, 3.0))),
    st.tuples(st.just("monexp"), st.tuples(st.integers(0, 3),
                                           st.floats(0.3, 3.0))),
    st.tuples(st.just("binpoly"), st.tuples(st.integers(0, 3),
                                            st.integers(0, 10))),
    st.tuples(st.just("gauss"), st.tuples(st.floats(0.3, 2.0))),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shape=SHAPES, n=st.sampled_from([0, 1, 2, 3]),
       nu=st.sampled_from([0.0, 0.25, 0.5]), a=st.floats(0.1, 60.0),
       share=st.floats(0.5, 0.95, exclude_min=True))
def test_route_is_within_tol_of_mpmath_or_refused(shape, n, nu, a, share):
    name, params = shape
    if n == 0:
        nu = 0.0  # the quadratic kernel has no branch exponent
    omega = share * a
    if not omega > 0.5 * a:
        return
    assert_routed_or_refused(name, params, n, nu, a, omega)


@pytest.mark.parametrize("name,params,n,nu,a,omega,want", [
    # the benchmark's near-a faults: exp(1) at n = 2 (closed route),
    # monexp(2,1) at nu = 0.25, binpoly(1,2), gauss(1) and the quadratic
    # kernel
    ("exp", (1.0,), 2, 0.0, 2.0, 1.8, "closed"),
    ("monexp", (2, 1.0), 2, 0.25, 2.0, 1.2, "routed"),
    ("binpoly", (1, 2), 2, 0.0, 1.0, 0.9, "routed"),
    ("gauss", (1.0,), 1, 0.0, 2.0, 1.8, "routed"),
    ("exp", (1.0,), 0, 0.0, 2.0, 1.8, "routed"),
    # the pole term swamps the value: flagged on the closed route
    ("exp", (1.0,), 1, 0.0, 30.0, 25.0, "flagged"),
    ("monexp", (2, 1.0), 3, 0.0, 10.0, 9.0, "flagged"),
])
def test_benchmark_near_a_inputs(name, params, n, nu, a, omega, want):
    assert assert_routed_or_refused(name, params, n, nu, a, omega) == want


@pytest.mark.parametrize("omega", [1.4, 1.6, 1.8])
def test_monexp_branch_near_a_is_accurate(omega):
    # the split was 1.7e-10 to 8.7e-10 off here
    res = evaluate_transform(TransformSpec(MonomialExp(2, 1.0), 2, omega,
                                           2.0, 0.25))
    ref = reference(lambda x: x ** 2 * mpmath.exp(-x), 2, 0.25, 2.0, omega)
    assert res.route == "direct"
    assert abs(res.total - ref) <= 1e-12 * abs(ref)


def binpoly13(x):
    return 2 * x * (1 - x) ** 3


@pytest.mark.parametrize("text,fn,n,nu,a,omega", [
    ("monexp(2,0.8)", lambda x: x ** 2 * mpmath.exp(-0.8 * x), 0, 0.0,
     30.0, 28.5),
    ("2*binpoly(1,3)", binpoly13, 3, 0.0, 2.0, 1.9),
    ("2*binpoly(1,3)", binpoly13, 2, 0.25, 2.0, 1.4),
    ("2*binpoly(1,3)", binpoly13, 2, 0.25, 2.0, 1.9),
    ("2*binpoly(1,3)", binpoly13, 2, 0.5, 2.0, 1.4),
    ("2*binpoly(1,3)", binpoly13, 3, 0.5, 2.0, 1.9),
])
def test_integral_within_tol_is_converged(text, fn, n, nu, a, omega):
    # |singular| > (tol/u) |direct|, yet the identity's rounding plus the
    # rule's bound stays within tol |direct|, and the total is within tol of
    # mpmath (1.6e-14 to 6.6e-13 relative)
    res = evaluate(parse_function(text), n, nu, a, omega)
    ref = reference(fn, n, nu, a, omega)
    assert (res.route, res.converged) == ("direct", True)
    err = abs(mpmath.mpf(res.total) - ref)
    assert err <= res.tail_estimate <= TOL * abs(res.direct), (res, ref)
    assert err <= TOL * abs(ref)


@pytest.mark.parametrize("f,fn,n,nu,a,omega", [
    (gauss(1.0), lambda x: mpmath.exp(-x * x), 1, 0.0, math.inf, 0.9),
    (Polynomial([1.0, 0.5, -0.3]), lambda x: 1 + 0.5 * x - 0.3 * x * x, 3,
     0.25, 2.0, 1.4),
    (Exponential(2.5), lambda x: mpmath.exp(-2.5 * x), 3, 0.0, 0.5, 0.35),
])
def test_integral_lies_within_its_tail_estimate(f, fn, n, nu, a, omega):
    # the error (2.0e-16 for gauss(1)) exceeds the rules' last change plus
    # u (|direct| + |singular|) here: only a rounding bound covers it
    res = evaluate(f, n, nu, a, omega)
    ref = reference(fn, n, nu, a, omega)
    assert res.route == "direct"
    assert abs(mpmath.mpf(res.total) - ref) <= res.tail_estimate, (res, ref)


REFUSED = [
    # e^{-x} as a user stream: Exponential(1) would take the closed route;
    # at a = 60 its series overflows after 174 terms
    ("expstream", 30.0, 25.0), ("expstream", 60.0, 54.0),
    # the pole term swamps the transform: the series gives -3.3e5, -2.0e9
    # and -4.0e14 for values near 0.1
    ("xexp", math.inf, 6.0), ("xexp", math.inf, 8.0),
    ("xexp", math.inf, 12.0),
]


@pytest.mark.parametrize("name,a,omega", REFUSED)
def test_swamped_transform_is_flagged_with_direct(name, a, omega,
                                                  monkeypatch):
    def rung(*args):
        raise AssertionError(f"finite_part_integral{args}")

    # the integral is kept: no rung of the series is computed
    monkeypatch.setattr(stieltjes, "finite_part_integral", rung)
    make_f, make_mp = FAMILIES[name]
    f = make_f()
    res = evaluate_transform(TransformSpec(f, 1, omega, a))
    assert_flagged_with_direct(res, reference(make_mp(), 1, 0.0, a, omega))
    lad = f.ladder(0.0, a)
    assert lad.rungs == {}
    assert assert_routed_or_refused(name, (), 1, 0.0, a, omega) == "flagged"


@pytest.mark.parametrize("kw", [{"k_max": TERM_CAP}, {"k_max": 5}])
@pytest.mark.parametrize("n", [0, 2])
def test_k_max_keeps_the_series(kw, n):
    res = evaluate(Exponential(1.0), n, 0.0, 2.0, 1.8, **kw)
    assert res.route == "series" and res.k_used > 0


@pytest.mark.parametrize("omega", [1.0, 0.9])
def test_omega_up_to_half_a_keeps_the_series(omega):
    res = evaluate_transform(TransformSpec(Exponential(1.0), 2, omega, 2.0))
    assert res.route == "series" and res.k_used > 0


def test_nu_below_the_guard_is_rejected_on_the_route():
    spec = TransformSpec(Exponential(1.0), 1, 1.8, 2.0, nu=1e-13)
    with pytest.raises(ValueError, match="branch exponent nu must be 0"):
        evaluate_transform(spec)


def test_routed_sweep_matches_fresh_instances():
    shared = gauss(1.0)
    for omega in (1.2, 1.9, 1.5, 1.2):
        got = evaluate_transform(TransformSpec(shared, 2, omega, 2.0, 0.5))
        want = evaluate_transform(TransformSpec(gauss(1.0), 2, omega, 2.0,
                                                0.5))
        assert got.route == "direct"
        assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# user streams at a = inf: Gauss-Jacobi on [0, 1] plus the split's exp-sinh
# ---------------------------------------------------------------------------

STREAMS = st.one_of(
    st.tuples(st.just("gauss"), st.tuples(st.floats(0.7, 1.5))),
    st.tuples(st.just("xexp"), st.just(())),
    st.tuples(st.just("expcos3"), st.just(())),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(stream=STREAMS, n=st.sampled_from([0, 1, 2, 3]),
       nu=st.sampled_from([0.0, 0.25, 0.5]),
       omega=st.floats(0.5, 40.0, exclude_min=True))
def test_route_at_infinity_is_within_tol_of_mpmath_or_refused(stream, n, nu,
                                                             omega):
    name, params = stream
    if n == 0:
        nu = 0.0
    assert_routed_or_refused(name, params, n, nu, math.inf, omega)


@pytest.mark.parametrize("omega", [1.425, 1.5])
def test_gauss_at_infinity_is_routed_within_tol(omega):
    # the split's climb raises here (see the test below)
    res = evaluate_transform(TransformSpec(gauss(1.0), 1, omega))
    ref = reference(lambda x: mpmath.exp(-x * x), 1, 0.0, math.inf, omega)
    assert res.route == "direct"
    assert abs(res.total - ref) <= TOL * abs(ref)


def test_route_at_infinity_starts_above_half_the_split_point():
    f = gauss(1.0)
    at, above = (evaluate_transform(TransformSpec(f, 2, omega, nu=0.25))
                 for omega in (0.5 * SPLIT_POINT, 0.51 * SPLIT_POINT))
    assert (at.route, above.route) == ("series", "direct")
    res = evaluate_transform(TransformSpec(f, 2, 0.8, nu=0.25),
                             k_max=TERM_CAP)
    assert res.route == "series" and res.k_used > 0


def test_closed_forms_at_infinity_build_no_rule():
    # split or closed is read off the descriptor's type
    assert splits_at_infinity(gauss(1.0))
    assert splits_at_infinity(-2.0 * gauss(1.0))
    for f in (Exponential(1.0), MonomialExp(2, 0.5), 2.0 * Exponential(3.0),
              Polynomial([1.0])):
        assert not splits_at_infinity(f)
        for nu, call in ((0.5, lambda: evaluate_transform(
                TransformSpec(f, 2, 0.8, nu=0.5))),
                         (0.0, lambda: eval_quadratic(f, 0.8))):
            assert call().route == "series"
            lad = f.ladder(nu, math.inf)
            assert (lad.rule, lad.series) == (None, None)


def test_undeclared_stream_at_infinity_raises_as_on_the_series():
    f = CustomSeries(lambda k: 1.0 / math.factorial(k), math.exp)
    for kw in ({}, {"k_max": TERM_CAP}):
        with pytest.raises(DivergentIntegralError, match="did not declare"):
            evaluate_transform(TransformSpec(f, 1, 0.9), **kw)
    assert f.ladder(0.0, math.inf).rule is None


def test_routed_sweep_at_infinity_evaluates_f_once_per_node():
    f = gauss(1.0)
    calls = []
    call = f.eval
    f.eval = lambda x: calls.append(x) or call(x)
    routes = [evaluate_transform(TransformSpec(f, 1, omega)).route
              for omega in (0.01, 0.1, 0.3, 0.6, 0.9, 1.2, 3.0, 0.7)]
    routes += [eval_quadratic(f, omega).route for omega in (0.8, 1.1)]
    assert routes.count("direct") == 7
    lad = f.ladder(0.0, math.inf)
    nodes = sum(len(xs) for xs, _ in lad.rule.rules.values()) + sum(
        len(xs) for xs, *_ in lad.series.nodes.levels)
    # the exp-sinh range search also evaluates the node past each of its
    # two ends; the singular terms evaluate f at -omega
    assert sum(x > 0 for x in calls) == nodes + 2


# ---------------------------------------------------------------------------
# the Gauss-Jacobi rule
# ---------------------------------------------------------------------------

def test_gauss_jacobi_refuses_what_it_cannot_resolve():
    # too many oscillations for the largest rule (no factor of x: its
    # ellipse is the whole plane)
    f = CustomSeries(lambda k: 0.0, lambda x: math.cos(400.0 * x))
    assert GaussJacobi(0.0, 2.0).integral(f, lambda xs, gs: gs, 0, 1e-12,
                                          math.inf) is None
    # nor is an integrand that is not finite
    f = CustomSeries(lambda k: 0.0, lambda x: math.nan)
    assert GaussJacobi(0.0, 2.0).integral(f, lambda xs, gs: gs, 0, 1e-12,
                                          math.inf) is None


def test_gauss_jacobi_rules_grow_by_replacement():
    f = Exponential(1.0)
    rule = GaussJacobi(0.25, 2.0)
    rule.rule(f, GAUSS_START)
    first = rule.rules
    rule.rule(f, 2 * GAUSS_START)
    assert len(first) == 1 and len(rule.rules) == 2
    assert rule.rules[GAUSS_START] is first[GAUSS_START]


# ---------------------------------------------------------------------------
# coefficient streams that leave float range
# ---------------------------------------------------------------------------

def raises_or_flags(call):
    try:
        res = call()
    except FinitePartError as exc:
        return str(exc)
    assert not res.converged
    return "flagged"


@pytest.mark.parametrize("omega", [1.425, 1.5])
def test_gauss_climb_at_infinity_raises_or_flags(omega):
    got = raises_or_flags(lambda: evaluate_transform(
        TransformSpec(gauss(1.0), 1, omega), k_max=TERM_CAP))
    assert got == "flagged" or "c_342 of CustomSeries(gauss(1.0))" in got


def test_gauss_climb_near_a_raises_or_flags_on_the_series():
    got = raises_or_flags(lambda: evaluate_transform(
        TransformSpec(gauss(1.0), 1, 0.475, 0.5), k_max=TERM_CAP))
    assert got == "flagged" or "leaves float range at m = " in got


def test_gauss_near_a_is_routed_within_tol():
    res = evaluate_transform(TransformSpec(gauss(1.0), 1, 0.475, 0.5))
    ref = reference(lambda x: mpmath.exp(-x * x), 1, 0.0, 0.5, 0.475)
    assert res.route == "direct"
    assert abs(res.total - ref) <= TOL * abs(ref)


@pytest.mark.parametrize("c,a,omega", [(0.95, 59.69, 59.3),
                                       (1.77, 46.65, 38.9)])
def test_gauss_far_from_the_origin_is_routed_within_tol(c, a, omega):
    # exp(-c x^2) at a above 46 is a narrow peak on the Gauss range: the
    # pair of 128 and 256 nodes resolves it, and the series overflows
    assert assert_routed_or_refused("gauss", (c,), 1, 0.0, a,
                                    omega) == "routed"


def test_stream_overflow_names_m_and_k():
    # the series tables: c_342 = (-1)^171 / 171! is no float
    with pytest.raises(NonconvergenceError,
                       match=r"coefficient c_342 of CustomSeries\(gauss\(1"
                             r"\.0\)\) leaves float range at m = 327 "
                             r"\(OverflowError"):
        f = gauss(1.0)
        for m in range(1, 400):
            finite_part_integral(f, m, 0.0, 0.5)
    # a stream that fails inside the first chunk a rung reads
    f = CustomSeries(lambda k: 1.0 / (20 - k), math.exp)
    with pytest.raises(NonconvergenceError,
                       match=r"coefficient c_20 of CustomSeries\(custom\) "
                             r"leaves float range at m = 10 "
                             r"\(ZeroDivisionError"):
        finite_part_integral(f, 10, 0.0, 0.5)
    # the recurrence: (-200)^134 leaves float range
    with pytest.raises(NonconvergenceError,
                       match=r"coefficient c_134 of MonomialExp\(p=0, b=200\)"
                             r" leaves float range at m = 135"):
        finite_part_integral(MonomialExp(0, 200.0), 140, 0.0, 1.0)


@pytest.mark.parametrize("kw", [{}, {"k_max": TERM_CAP}])
def test_quadratic_singular_overflow_raises_nonconvergence(kw):
    # f(i omega) = e^{812}: the stream's complex callback raises
    # OverflowError, which once escaped raw from eval_quadratic
    with pytest.raises(NonconvergenceError,
                       match=r"singular term of CustomSeries\(gauss\(1\.0\)\)"
                             r" at omega = 28\.5 leaves float range "
                             r"\(OverflowError"):
        eval_quadratic(gauss(1.0), 28.5, 30.0, **kw)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(shape=st.one_of(SHAPES, STREAMS,
                       st.tuples(st.just("expstream"), st.just(()))),
       a=st.one_of(st.floats(0.1, 60.0), st.just(math.inf)),
       share=st.floats(0.01, 0.95),
       k_max=st.one_of(st.none(), st.integers(0, 60)),
       tol=st.sampled_from([1e-12, 1e-6]))
@example(("exp", (1.0,)), 2.0, 0.1, None, 1e-12)  # series
@example(("exp", (1.0,)), 2.0, 0.9, None, 1e-12)  # direct at a finite a
@example(("expstream", ()), math.inf, 0.9, None, 1e-12)  # direct at inf
@example(("expstream", ()), math.inf, 0.9, 12, 1e-12)  # k_max: series
def test_eval_quadratic_is_the_quadratic_spec_bit_for_bit(shape, a, share,
                                                          k_max, tol):
    name, params = shape
    omega = share * (a if a < math.inf else 30.0)

    def spec_outcome(f):
        try:
            return tuple(evaluate_transform(
                TransformSpec(f, 1, omega, a, kernel="quadratic"), tol, k_max))
        except (FinitePartError, ArithmeticError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    make = FAMILIES[name][0]
    want = outcome(lambda: make(*params), 0, 0.0, a, omega, tol=tol,
                   k_max=k_max)
    assert repr(spec_outcome(make(*params))) == repr(want)


@pytest.mark.parametrize("omega", [20.0, 30.0])
def test_quadratic_exp_sinh_tail_is_bounded_by_the_kernel(omega):
    # with the exp-sinh tail's rounding taken at the node sizes |g|/x, not
    # at the sizes of the terms g/(omega^2+x^2), the bound was 3.0e-15
    # against tol |direct| of 2.5e-15 and 1.1e-15: flagged, at a true
    # error of 1.2e-17 and 6.9e-18
    make_f, make_mp = FAMILIES["expstream"]
    res = eval_quadratic(make_f(), omega)
    ref = reference(make_mp(), 0, 0.0, math.inf, omega)
    assert (res.route, res.converged) == ("direct", True)
    assert abs(mpmath.mpf(res.total) - ref) <= res.tail_estimate \
        <= TOL * abs(res.direct)
    assert abs(mpmath.mpf(res.total) - ref) <= TOL * abs(ref)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(shape=st.one_of(SHAPES, STREAMS), n=st.sampled_from([0, 1, 2, 3]),
       nu=st.sampled_from([0.0, 0.25, 0.5]),
       a=st.one_of(st.floats(0.1, 60.0), st.just(math.inf)),
       share=st.floats(1e-4, 0.5))
@example(("gauss", (1.0,)), 3, 0.5, 0.5, 1e-4)
@example(("xexp", ()), 2, 0.25, math.inf, 1e-4)
@example(("gauss", (0.7,)), 0, 0.0, math.inf, 1e-4)
# a range once closed at the dip next to the root x = 1: 1.3e-11 off
@example(("binpoly", (2, 8)), 3, 0.25, 40.0, 0.005)
# Gauss-Jacobi rules of 16 and 32 nodes 2.4e-13 apart, each further off
@example(("binpoly", (2, 8)), 3, 0.25, 40.0, 0.001)
def test_direct_below_the_routing_lies_within_its_bound(shape, n, nu, a,
                                                        share):
    # the integral that routing at any omega will read: wherever it
    # returns, its bound, from the sizes of the terms summed, covers its
    # error; at a = inf on the split of a stream, omega/SPLIT_POINT
    name, params = shape
    make_f, make_mp = FAMILIES[name]
    f = make_f(*params)
    if a == math.inf and not splits_at_infinity(f):
        return
    if n == 0:
        nu = 0.0
    omega = share * min(a, SPLIT_POINT)
    got = stieltjes._direct(f, max(n, 1), nu, omega, a, TOL,
                            "pole" if n else "quadratic")
    if got is not None:
        direct, bound = got
        ref = reference(make_mp(*params), n, nu, a, omega)
        assert abs(mpmath.mpf(direct) - ref) <= bound, (direct, bound, ref)


def test_direct_bound_at_small_omega_is_tight():
    # -2 x^3 under the quadratic kernel, a = 0.5: with the rounding taken
    # at K(0) = omega^-2 times the node sizes, the bound was 6.8e-9
    # |direct| at omega = 5e-4, where the error is below 1e-15.  That omega
    # is past the Gauss-Jacobi cap (the poles at +-i omega lie on the
    # ellipse of rho = 1.045 about [0, a]), so the bound is taken at 0.02,
    # whose ellipse (rho = 1.33) admits the pair of 64 and 128 nodes
    f = parse_function("poly(-2@3)")
    assert stieltjes._direct(f, 1, 0.0, 5e-4, 0.5, TOL, "quadratic") is None
    direct, bound = stieltjes._direct(f, 1, 0.0, 0.02, 0.5, TOL, "quadratic")
    ref = reference(lambda x: -2 * x ** 3, 0, 0.0, 0.5, 0.02)
    assert abs(mpmath.mpf(direct) - ref) <= bound <= 1e-13 * abs(direct)


def test_direct_below_the_routing_covers_the_whole_range():
    # x^2 (1-x)^8 on [0, 40]: the tanh-sinh level-0 nodes at x = 0.97,
    # near the root, and at 4.5e-4 were below 2^-70 of the largest, and a
    # range closed at the first dropped [0, 0.97], 1.3e-11 of the transform
    # at omega = 0.005, past a bound of 5.9e-15 of it.  The Gauss-Jacobi
    # rule keeps every node.  At omega = 0.005 and 0.04 the pole's ellipse
    # (rho = 1.023 and 1.065) admits no pair of rules by the cap, so it
    # refuses; at 0.04 the rules of 16 and 32 nodes were 2.2e-13 and
    # 4.6e-13 off, 2.4e-13 apart.  At omega = 0.8 (rho = 1.33) it lies
    # within its bound
    make_f, make_mp = FAMILIES["binpoly"]
    for omega in (0.005, 0.04):
        assert stieltjes._direct(make_f(2, 8), 3, 0.25, omega, 40.0, TOL,
                                 "pole") is None
    direct, bound = stieltjes._direct(make_f(2, 8), 3, 0.25, 0.8, 40.0,
                                      TOL, "pole")
    ref = reference(make_mp(2, 8), 3, 0.25, 40.0, 0.8)
    assert abs(mpmath.mpf(direct) - ref) <= bound


@pytest.mark.parametrize("p, q", [(0, 10), (2, 8)])
@pytest.mark.parametrize("n", [10, 20, 40])
@pytest.mark.parametrize("nu", [0.0, 0.25])
def test_routed_high_order_lies_within_its_bound(p, q, n, nu):
    # at omega = 20.5 > a/2 the kernel falls by ((omega+a)/omega)^n, up to
    # 3e18, over [0, 40], and raises what the range drops by as much: a
    # range closed at the dip next to the root x = 1 left binpoly(2,8)
    # 8.6e-12 off at n = 20 and 7e-7 at n = 40, and one closed on f alone
    # left binpoly(0,10) 3.8e-13 off at n = 40 and nu = 0.25, against
    # bounds of 1e-14 to 2e-13, each marked converged
    make_f, make_mp = FAMILIES["binpoly"]
    f = make_f(p, q)
    direct, bound = stieltjes._direct(f, n, nu, 20.5, 40.0, TOL, "pole")
    ref = reference(make_mp(p, q), n, nu, 40.0, 20.5)
    assert abs(mpmath.mpf(direct) - ref) <= bound
    res = evaluate(f, n, nu, 40.0, 20.5)
    assert (res.route, res.direct) == ("direct", direct)
    assert abs(mpmath.mpf(res.total) - ref) <= res.tail_estimate


# ---------------------------------------------------------------------------
# the Gauss-Jacobi rule at any nu < 1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nu", [0.77, 0.8, 0.9, 0.95])
@pytest.mark.parametrize("name,params,a", [
    ("exp", (1.0,), 1.0), ("exp", (1.0,), 30.0), ("binpoly", (0, 3), 1.0)])
@pytest.mark.parametrize("n,share", [(1, 0.6), (3, 0.9), (15, 0.55)])
def test_direct_is_built_at_high_nu(name, params, a, nu, n, share):
    # f(0) != 0: the tanh-sinh range could not close by t = 6 at nu >= 0.8
    # on [0, 1] and at nu >= 0.77 on [0, 30]; the Gauss-Jacobi rule carries
    # x^{-nu} in its weights.  The reference is taken in x = t^q, as
    # test_known_faults.transform_ref, with the kernel over K(0)
    make_f, make_mp = FAMILIES[name]
    omega = share * a
    got = stieltjes._direct(make_f(*params), n, nu, omega, a, TOL, "pole")
    assert got is not None
    direct, bound = got
    ref = reference(make_mp(*params), n, nu, a, omega)
    assert abs(mpmath.mpf(direct) - ref) <= bound <= TOL * abs(direct)
    res = evaluate_transform(TransformSpec(make_f(*params), n, omega, a, nu))
    assert (res.route, res.direct) == ("direct", direct)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(shape=SHAPES, n=st.integers(0, 40),
       nu=st.one_of(st.just(0.0), st.floats(0.01, 0.95)),
       a=st.floats(0.1, 60.0), share=st.floats(0.5, 1.0, exclude_min=True,
                                                exclude_max=True))
@example(("binpoly", (0, 3)), 15, 0.83, 1.0, 1 / 1.05)
@example(("exp", (1.0,)), 40, 0.95, 30.0, 0.51)
def test_gauss_jacobi_route_is_within_its_bound_or_none(shape, n, nu, a,
                                                        share):
    # n = 0 is the quadratic kernel, at nu = 0
    name, params = shape
    if n == 0:
        nu = 0.0
    omega = share * a
    got = stieltjes._direct(FAMILIES[name][0](*params), max(n, 1), nu, omega,
                            a, TOL, "pole" if n else "quadratic")
    if got is not None:
        direct, bound = got
        ref = reference(FAMILIES[name][1](*params), n, nu, a, omega)
        assert abs(mpmath.mpf(direct) - ref) <= bound, (direct, bound, ref)
