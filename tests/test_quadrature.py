"""The rules of finitepart.quadrature: the shared node geometry, the
ranges and the split tails of the exp-sinh rule, and the Gauss-Jacobi
rules, their moments and their table.

References are mpmath quadratures at 22 digits, or 40 for Gauss-Jacobi."""

import cmath
import math
from itertools import repeat
from operator import mul

import mpmath
import pytest

from finitepart import quadrature
from finitepart.entire import CustomSeries, Exponential
from finitepart.errors import NonconvergenceError
from finitepart.finite_part import SPLIT_POINT, _Split
from finitepart.gammafn import UNIT_ROUNDOFF
from finitepart.quadrature import (_HALF_PI, _NEGLIGIBLE, _T_CAP, GAUSS_CAP,
                                   GAUSS_START, LEVEL_CAP, MIN_LEVEL, ExpSinh,
                                   GaussJacobi, bernstein_rho, jacobi_rule)


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
    fs = [gauss(1.0), gauss(0.7), gauss(1.0), gauss(1.3)]
    rules = [ExpSinh(fs[0], SPLIT_POINT), ExpSinh(fs[1], 2.0)]
    for f, rule in zip(fs, rules):
        rule.level(f, 4)
    # both rules read one table, built once: reading it again builds none
    table = quadrature._GEOMETRY
    assert all(quadrature._geometry(n) is table[n] for n in range(5))
    assert quadrature._GEOMETRY is table
    # the Gauss-Jacobi rules of one nu read one table entry per N
    gausses = [GaussJacobi(0.5, 1.0), GaussJacobi(0.5, 3.0)]
    for f, rule in zip(fs[2:], gausses):
        rule.rule(f, 2 * GAUSS_START)
    assert quadrature._JACOBI[(0.5, 2 * GAUSS_START)] is jacobi_rule(
        0.5, 2 * GAUSS_START)
    # level n holds every |t| <= _T_CAP: 2 _T_CAP + 1 nodes, then the odd
    # multiples of 2^-n
    f = gauss(1.0)
    ExpSinh(f, SPLIT_POINT).level(f, LEVEL_CAP)
    widths = [len(cols[0]) for cols in quadrature._GEOMETRY]
    assert widths == [2 * _T_CAP + 1] + [2 * _T_CAP * 2 ** (n - 1)
                                         for n in range(1, LEVEL_CAP + 1)]


class _Levels(ExpSinh):
    """A rule whose level n holds n itself, and whose range has no end
    nodes: its trapezoidal value at level n is values(n)."""

    ends = (), ()

    def __init__(self, values):
        self.values = values

    def level(self, f, n):
        return (), (n,), False

    def terms(self, _, ns):
        v = self.values
        return [math.ldexp(v(n), n) - math.ldexp(v(n - 1), n - 1) if n
                else v(0) for n in ns]


def test_levels_are_accepted_on_their_last_change():
    calls = []

    def levels(v):
        return _Levels(lambda n: calls.append(n) or v(n))

    def integral(v, rtol, atol=0.0):
        calls.clear()
        rule = levels(v)
        return rule.integral(None, rule.terms, 0, rtol, atol)

    # no change from level 1 on, but none is trusted before MIN_LEVEL; the
    # bound is the rounding (N + n + c) u 2^-n sum |t|, N = c = 0, of the
    # terms 1, 1, 2, 4 of levels 0 to 3
    assert integral(lambda n: 1.0, 1e-12) == (1.0, MIN_LEVEL * UNIT_ROUNDOFF)
    assert max(calls) == MIN_LEVEL
    # a change of 9e-n from level n on: accepted at the first level whose
    # change is within max(rtol |v|, atol), and not before MIN_LEVEL
    for rtol, atol, top in [(1e-5, 0.0, 6), (0.0, 1e-5, 6), (1e-6, 1e-5, 6),
                            (0.0, 9.5e-5, 5), (0.5, 0.0, MIN_LEVEL)]:
        value, bound = integral(lambda n: 1.0 + 10.0 ** -n, rtol, atol)
        assert max(calls) == top
        assert value == pytest.approx(1.0 + 10.0 ** -top, rel=1e-15)
        assert bound == pytest.approx(9.0 * 10.0 ** -top, rel=1e-9)
    # no change within the bound: None past LEVEL_CAP
    assert integral(lambda n: 1.0 + 1e-3 * (-1) ** n, 1e-6) is None
    assert max(calls) == LEVEL_CAP
    # None at the first level whose value leaves float range
    assert integral(lambda n: 1.0 if n < 2 else math.inf, 1.0, 1.0) is None
    assert max(calls) == 2


def test_nodes_have_the_bits_of_the_direct_formulas():
    f = gauss(0.9)
    rule = ExpSinh(f, SPLIT_POINT)
    for n in range(6):
        xs, gs, signed = rule.level(f, n)
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
            u = math.exp(_HALF_PI * math.sinh(t))
            want = rule.a0 + u
            assert (x, g) == (want, _HALF_PI * math.cosh(t) * u
                              * f.eval(want))


@pytest.mark.parametrize("nu, a", [(0.25, 2.0), (0.83, 30.0)])
def test_gauss_nodes_have_the_bits_of_the_direct_formulas(nu, a):
    f = gauss(0.9)
    rule = GaussJacobi(nu, a)
    for count in (GAUSS_START, 2 * GAUSS_START, GAUSS_CAP):
        xs, gs = rule.rule(f, count)
        ts, ws = jacobi_rule(nu, count)
        assert len(xs) == len(gs) == count
        for t, w, x, g in zip(ts, ws, xs, gs):
            assert (x, g) == (t * a, w * a ** (1.0 - nu) * f.eval(x))


def node_sizes(xs, gs):
    """The exp-sinh node sizes |g_i| / x_i."""
    return [abs(g / x) for x, g in zip(xs, gs)]


def test_range_ends_at_the_first_quiet_node():
    rule = ExpSinh(gauss(1.0), SPLIT_POINT)
    xs, gs, _ = rule.levels[0]
    sizes = node_sizes(xs, gs)
    big = max(sizes)
    # level 0 runs t = 0, 1, ..., hi, then -1, ..., lo
    ends = (rule.hi, len(xs) - 1)
    for i in ends:
        assert sizes[i] <= _NEGLIGIBLE * big
        assert sizes[i - 1] > _NEGLIGIBLE * big
    assert rule.ends == ([xs[i] for i in ends], [gs[i] for i in ends])


def test_range_runs_past_a_dip_at_a_root():
    # (x - x_1) e^{-x} on [1, inf), x_1 the level-0 node at t = 1: the node
    # at the root and the next one, x = 300, are both quiet, but the second
    # is the larger, so the range runs on past the root, to x = 300, and
    # the node after it, at t = 3, confirms it
    x1 = SPLIT_POINT + math.exp(_HALF_PI * math.sinh(1.0))
    f = CustomSeries(lambda k: 0.0, lambda x: (x - x1) * math.exp(-x))
    rule = ExpSinh(f, SPLIT_POINT)
    xs, gs, _ = rule.levels[0]
    sizes = node_sizes(xs, gs)
    assert rule.hi == 2 and xs[1] == x1
    assert sizes[1] < sizes[2] <= _NEGLIGIBLE * max(sizes)


def test_open_ranges_fail_as_before():
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
    f = stream(name)
    split = _Split(nu)
    for m in range(1, 61):
        got, bound = split.tail(f, m)
        with mpmath.workdps(22):
            p = m + mpmath.mpf(nu)
            ref = mpmath.quad(lambda x: mp_fn(x) * x ** -p,
                              [1, 2, 4, mpmath.inf])
            assert abs(got - ref) <= bound, (m, got, bound)


def _split_tail_as_before(f, nodes, p):
    """The split tail as _Split.tail once formed it: the level sums
    and their last change, accepted within 1e-13 relative or 1e-15
    absolute, plus a running rounding bound, (N + n + 2) u 2^-n times the
    sizes |g_i x_i^-p| of the terms of levels 0 to n, plus the sizes of the
    terms of the range's end nodes."""
    def level_terms(xs, gs):
        return list(map(mul, gs, map(pow, xs, repeat(-p))))

    total = sizes = 0.0
    value = math.nan
    for n in range(LEVEL_CAP + 1):
        xs, gs, _ = nodes.level(f, n)
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
    f = stream(name)
    split = _Split(nu)
    for m in range(1, 61):
        got = split.tail(f, m)
        assert got == _split_tail_as_before(f, split.exp_sinh(f), m + nu), m


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("a", [0.3, 2.0, 25.0])
def test_gauss_jacobi_matches_mpmath(nu, a):
    # int_0^a x^{-nu} e^{-1.3 x^2} (1 + x)^{-1} dx; the factor 1/(1 + x) is
    # formed within u, and is analytic inside the ellipse through x = -1
    f = gauss(1.3)
    rule = GaussJacobi(nu, a)

    def rule_terms(xs, gs):
        return [g / (1.0 + x) for x, g in zip(xs, gs)]

    got, bound = rule.integral(f, rule_terms, 1, 1e-14,
                               bernstein_rho(-1.0, a))
    # the terms are positive, so their sizes sum to the integral: the
    # bound is the last change, within 1e-14 |got|, plus the rounding
    # (N + 1) u |got| of the last rule, of N nodes
    rounding = (max(rule.rules) + 1) * UNIT_ROUNDOFF
    assert bound <= (1e-14 + rounding * (1 + 1e-9)) * abs(got)
    with mpmath.workdps(40):
        k = 1 / (1 - mpmath.mpf(nu))  # x = v^k: bounded at v = 0
        ref = mpmath.quad(lambda v: k * mpmath.exp(-1.3 * v ** (2 * k))
                          / (1 + v ** k), [0, mpmath.mpf(a) ** (1 / k)])
        assert abs(got - ref) <= 1e-14 * abs(ref)
        assert abs(got - ref) <= bound, (got, bound)


@pytest.mark.parametrize("nu", [0.0, 0.5, 0.83, 0.95])
@pytest.mark.parametrize("count", [16, 32, 64])
def test_gauss_jacobi_moments(nu, count):
    # the rule integrates x^k exactly for k <= 2N - 1: int_0^1 x^{k-nu} dx
    ts, ws = jacobi_rule(nu, count)
    assert ts == sorted(ts) and 0.0 < ts[0] and ts[-1] < 1.0
    for k in range(2 * count):
        got = sum(w * t ** k for t, w in zip(ts, ws))
        assert abs(got - 1.0 / (k + 1 - nu)) <= 4e-14, k


def test_gauss_jacobi_table_is_built_once_per_nu_and_n(monkeypatch):
    built = []
    make = quadrature._golub_welsch
    monkeypatch.setattr(quadrature, "_JACOBI", {})
    monkeypatch.setattr(quadrature, "_golub_welsch",
                        lambda nu, n: built.append((nu, n)) or make(nu, n))
    fs = [gauss(1.0), gauss(0.7), Exponential(1.0)]
    for nu in (0.0, 0.5, 0.0):
        for f in fs:
            for a in (1.0, 3.0):
                rule = GaussJacobi(nu, a)
                for count in (GAUSS_START, 2 * GAUSS_START, GAUSS_START):
                    rule.rule(f, count)
    assert built == [(0.0, GAUSS_START), (0.0, 2 * GAUSS_START),
                     (0.5, GAUSS_START), (0.5, 2 * GAUSS_START)]
    first = quadrature._JACOBI
    assert jacobi_rule(0.5, GAUSS_START) is first[(0.5, GAUSS_START)]
    # the table grows by replacement: a new entry leaves the old dict whole
    jacobi_rule(0.25, GAUSS_START)
    assert quadrature._JACOBI is not first and len(first) == 4
