"""The double-exponential rules of finitepart.quadrature: their shared
node geometry, their ranges and the split tails of the exp-sinh rule.

References are mpmath quadratures at 22 digits, or 40 for tanh-sinh."""

import cmath
import math
from itertools import repeat
from operator import mul

import mpmath
import pytest

from finitepart.entire import BinomialPoly, CustomSeries
from finitepart.errors import NonconvergenceError
from finitepart.finite_part import SPLIT_POINT
from finitepart.gammafn import UNIT_ROUNDOFF
from finitepart.quadrature import (_HALF_PI, _NEGLIGIBLE, _T_CAP, LEVEL_CAP,
                                   MIN_LEVEL, ExpSinh, TanhSinh, integrate)


def gauss(c):
    def coeff(k):
        return 0.0 if k % 2 else (-c) ** (k // 2) / math.factorial(k // 2)

    return CustomSeries(coeff, lambda x: math.exp(-c * x * x),
                        lambda z: cmath.exp(-c * z * z), decaying=True,
                        label=f"gauss({c})")


# name -> (f, its mpmath twin): the split tails' streams
STREAMS = {
    "gauss(0.7)": (lambda x: math.exp(-0.7 * x * x),
                   lambda x: mpmath.exp(-0.7 * x * x)),
    "gauss(1.5)": (lambda x: math.exp(-1.5 * x * x),
                   lambda x: mpmath.exp(-1.5 * x * x)),
    "xexp": (lambda x: x * math.exp(-x), lambda x: x * mpmath.exp(-x)),
    "expcos3": (lambda x: math.exp(-x) * math.cos(3 * x),
                lambda x: mpmath.exp(-x) * mpmath.cos(3 * x)),
}


def stream(name):
    return CustomSeries(lambda k: 0.0, STREAMS[name][0], decaying=True)


def test_descriptors_share_one_geometry_table():
    rules = [ExpSinh(gauss(1.0), SPLIT_POINT), ExpSinh(gauss(0.7), 2.0),
             TanhSinh(gauss(1.0), 0.5, 1.0), TanhSinh(gauss(1.3), 0.0, 3.0)]
    for rule in rules:
        rule.level(4)
    for a, b in (rules[:2], rules[2:]):
        assert a._TABLE is b._TABLE
        assert all(a._columns(n) is b._columns(n) for n in range(5))
    assert ExpSinh._TABLE is not TanhSinh._TABLE
    # level n holds every |t| <= _T_CAP: 2 _T_CAP + 1 nodes, then the odd
    # multiples of 2^-n
    ExpSinh(gauss(1.0), SPLIT_POINT).level(LEVEL_CAP)
    widths = [len(cols[0]) for cols in ExpSinh._TABLE]
    assert widths == [2 * _T_CAP + 1] + [2 * _T_CAP * 2 ** (n - 1)
                                         for n in range(1, LEVEL_CAP + 1)]


class _Levels:
    """A rule whose level n holds n itself, and whose range has no end
    nodes: its part's trapezoidal value at level n is values(n)."""

    ends = (), ()

    def __init__(self, values):
        self.values = values

    def level(self, n):
        return (), (n,), False

    def part(self):
        v = self.values
        return self, lambda _, ns: [math.ldexp(v(n), n) - math.ldexp(
            v(n - 1), n - 1) if n else v(0) for n in ns], 0


def test_cancelling_parts_are_accepted_on_the_sum_of_their_changes():
    # each part changes by 1.5 rtol per level and the total by nothing; the
    # sum of the changes, 3 rtol, exceeds the bound, 2 rtol
    rtol = 1e-10

    def wobble(sign):
        return _Levels(lambda n: 1.0 + sign * 0.75 * rtol * (-1) ** n)

    parts = [wobble(1).part(), wobble(-1).part()]
    assert integrate(parts, rtol) is None
    value, change = integrate(parts, 2 * rtol)
    assert value == pytest.approx(2.0) and change == pytest.approx(3 * rtol)
    # a part within its share of the bound keeps its level
    calls = []
    still = _Levels(lambda n: calls.append(n) or 1.0)
    slow = _Levels(lambda n: 1.0 + 2.0 ** -(8 * n))
    assert integrate([still.part(), slow.part()], 1e-12) is not None
    assert max(calls) == MIN_LEVEL


@pytest.mark.parametrize("make", [
    lambda f: ExpSinh(f, SPLIT_POINT), lambda f: TanhSinh(f, 0.25, 2.0)])
def test_nodes_have_the_bits_of_the_direct_formulas(make):
    f = gauss(0.9)
    rule = make(f)
    for n in range(6):
        xs, gs, signed = rule.level(n)
        assert signed == (min(gs) >= 0.0 or max(gs) <= 0.0)
        if n:
            span = 2 ** (n - 1)
            ts = [(2 * i + 1) / (2 * span)
                  for i in range(rule.lo * span, rule.hi * span)]
        else:
            ts = [float(t) for t in [0, *range(1, rule.hi + 1),
                                     *range(-1, rule.lo - 1, -1)]]
        assert len(ts) == len(xs)
        for t, x, g in zip(ts, xs, gs):
            if isinstance(rule, ExpSinh):
                u = math.exp(_HALF_PI * math.sinh(t))
                want = rule.a0 + u
                assert (x, g) == (want, _HALF_PI * math.cosh(t) * u
                                  * f.eval(want))
            else:
                s = math.exp(math.pi * math.sinh(t))
                y = 1.0 / (1.0 + s)
                want = rule.a * s * y
                assert (x, g) == (want, math.pi * math.cosh(t) * y
                                  * want ** rule.p * f.eval(want))


@pytest.mark.parametrize("make", [
    lambda f: ExpSinh(f, SPLIT_POINT), lambda f: TanhSinh(f, 0.0, 2.0)])
def test_range_ends_at_the_first_quiet_node(make):
    rule = make(gauss(1.0))
    xs, gs, _ = rule.levels[0]
    sizes = list(rule._sizes(xs, gs))
    big = max(sizes)
    # level 0 runs t = 0, 1, ..., hi, then -1, ..., lo; the tanh-sinh
    # range keeps the confirming node at its lower end as well
    ends = (rule.hi, len(xs) - 1)
    firsts = (rule.hi, len(xs) - 1 - rule._LOW_KEEPS)
    for i in range(firsts[0], ends[0] + 1):
        assert sizes[i] <= _NEGLIGIBLE * big
    for i in range(firsts[1], ends[1] + 1):
        assert sizes[i] <= _NEGLIGIBLE * big
    assert sizes[firsts[0] - 1] > _NEGLIGIBLE * big
    assert sizes[firsts[1] - 1] > _NEGLIGIBLE * big
    assert rule.ends == ([xs[i] for i in ends], [gs[i] for i in ends])


def test_range_runs_past_a_dip_at_a_root():
    # x^2 (1-x)^8 on [0, 40]: the level-0 nodes at x = 0.973, next to the
    # root x = 1, and at x = 4.5e-4 are both quiet, but the second is the
    # larger, so the range runs on past x = 4.5e-4, to the node that
    # confirms it, x = 8e-13
    rule = TanhSinh(BinomialPoly(2, 8), 0.0, 40.0)
    xs, gs, _ = rule.levels[0]
    sizes = list(rule._sizes(xs, gs))
    assert rule.lo == -3 and xs[-3] == pytest.approx(0.973, abs=1e-3)
    assert sizes[-3] < sizes[-2] <= _NEGLIGIBLE * max(sizes)
    assert sizes[-1] <= sizes[-2]


def test_open_ranges_fail_as_before():
    nan = CustomSeries(lambda k: 0.0, lambda x: math.nan)
    with pytest.raises(NonconvergenceError, match=(
            r"^tanh-sinh integrand of CustomSeries\(custom\) is not finite "
            r"or does not decay by x = 2$")):
        TanhSinh(nan, 0.0, 2.0)
    with pytest.raises(NonconvergenceError, match=(
            r"^split tail of CustomSeries\(custom\) is not finite or does "
            r"not decay by x = 4.04e\+137$")):
        ExpSinh(CustomSeries(lambda k: 0.0, math.cos), SPLIT_POINT)


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
def test_split_tails_lie_within_their_bound(name, nu):
    # the tail of every split rung m = 1-60: the bound covers the last
    # change and the rounding of the terms and their sums
    fn, mp_fn = STREAMS[name]
    nodes = ExpSinh(stream(name), SPLIT_POINT)
    for m in range(1, 61):
        got, bound = nodes.integral(m + nu)
        with mpmath.workdps(22):
            p = m + mpmath.mpf(nu)
            ref = mpmath.quad(lambda x: mp_fn(x) * x ** -p,
                              [1, 2, 4, mpmath.inf])
            assert abs(got - ref) <= bound, (m, got, bound)


def _split_tail_as_before(nodes, p):
    """The split tail as ExpSinh.integral once formed it: the level sums
    and their last change, accepted within 1e-13 relative or 1e-15
    absolute, plus a running rounding bound, (N + n + 2) u 2^-n times the
    sizes |g_i x_i^-p| of the terms of levels 0 to n, plus the sizes of the
    terms of the range's end nodes."""
    def level_terms(xs, gs):
        return list(map(mul, gs, map(pow, xs, repeat(-p))))

    total = sizes = 0.0
    value = math.nan
    for n in range(LEVEL_CAP + 1):
        xs, gs, _ = nodes.level(n)
        terms = level_terms(xs, gs)
        total += sum(terms)
        sizes += sum(map(abs, terms))
        new = math.ldexp(total, -n)
        change, value = abs(new - value), new
        if n >= MIN_LEVEL and change <= max(1e-13 * abs(value), 1e-15):
            return value, change + ((len(xs) + n + 2) * UNIT_ROUNDOFF
                                    * math.ldexp(sizes, -n)
                                    + sum(map(abs, level_terms(*nodes.ends))))
    return None


@pytest.mark.parametrize("name", sorted(STREAMS))
@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5])
def test_split_tails_keep_their_bits(name, nu):
    # the split tails keep the bits they computed for themselves; the
    # bound's rounding comes from the sizes of the terms summed
    nodes = ExpSinh(stream(name), SPLIT_POINT)
    for m in range(1, 61):
        got = nodes.integral(m + nu)
        assert got == _split_tail_as_before(nodes, m + nu), m


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("a", [0.3, 2.0, 25.0])
def test_tanh_sinh_matches_mpmath(nu, a):
    # int_0^a x^{-nu} e^{-1.3 x^2} (1 + x)^{-1} dx; the factor 1/(1 + x) is
    # formed within u
    rule = TanhSinh(gauss(1.3), nu, a)

    def level_terms(xs, gs):
        return [g / (1.0 + x) for x, g in zip(xs, gs)]

    got, bound = integrate([(rule, level_terms, 1)], 1e-14)
    # the terms are positive, so their sizes over levels 0 to n, times
    # 2^-n, sum to the integral: the bound is the last change, within
    # 1e-14 |got|, plus the rounding (N + n + 1) u |got| at the last level
    # n of N nodes
    rounding = (len(rule.levels[-1][0]) + len(rule.levels)) * UNIT_ROUNDOFF
    assert bound <= (1e-14 + rounding * (1 + 1e-9)) * abs(got)
    with mpmath.workdps(40):
        k = 1 / (1 - mpmath.mpf(nu))  # x = v^k: bounded at v = 0
        ref = mpmath.quad(lambda v: k * mpmath.exp(-1.3 * v ** (2 * k))
                          / (1 + v ** k), [0, mpmath.mpf(a) ** (1 / k)])
        assert abs(got - ref) <= 1e-14 * abs(ref)
        assert abs(got - ref) <= bound, (got, bound)
