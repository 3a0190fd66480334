"""Hadamard finite-part integrals of entire functions.

The divergent integrals int_0^a f(x) x^{-m-nu} dx (m >= 1, 0 <= nu < 1,
f entire) acquire finite values once the exactly known diverging group of
terms is dropped.  For finite a the value has an explicit series form in
the Maclaurin coefficients c_k of f:

  nu = 0:   c_{m-1} ln a - sum_{k=0}^{m-2} c_k / ((m-k-1) a^{m-k-1})
                         + sum_{k>=m} c_k a^{k-m+1} / (k-m+1)

  0<nu<1:   sum_{k>=0} c_k a^{k+1-m-nu} / (k+1-m-nu)

with empty sums equal to zero.  Each descriptor's rung ladder keeps the
tables of that series, c_k and the weights a^{j-nu}/(j-nu), j = k+1-m, so
a climb over K rungs reads each c_k once and forms each weight once.  The
exponential family c x^p e^{-bx}
(``exp_family`` in :mod:`finitepart.entire`) does not sum that series past
its first rung: for m <= p the integral is the ordinary c b^{-s} gamma(s, ab),
s = p - m + 1 - nu, and from m = p + 1 on integration by parts steps the
order q = m - p of c e^{-bx} x^{-q-nu} up by one,

  (q - 1 + nu) FPI_q = [nu = 0] c_{m-1} - c e^{-ab} a^{1-q-nu} - b FPI_{q-1},

which is stable upward and exact at any a.  Its seed at q = 1 is the series
above while ab <= 1 and, beyond, the a = infinity closed form less
c a^{-nu} E_{1+nu}(ab).  At a = infinity each descriptor supplies
its integrability rule and, where it has one, its closed form
(``check_integrable_at_infinity`` and ``fpi_infinite`` in
:mod:`finitepart.entire`); a user stream is admitted only when declared
``CustomSeries(decaying=True)``.  Without a closed form the integral is
split at a0 = 1: the finite part concerns only the origin, so
fpi(f, m, nu, a0) plus the ordinary integral over [a0, inf) is exact and
involves no cancellation between log a and the tail sum.  That integral
is an exp-sinh rule whose nodes x_i and weighted values w_i f(x_i) are
computed once per ladder and serve every m; QUADPACK
(:mod:`finitepart.oracles`) is left to check it.

:func:`finite_part_integral` is the one entry point for every (m, nu, a);
only the nu = 0 head and the route depend on the case.  A finite-a
ladder's route, the recurrence or the Maclaurin tables, is chosen once,
at its first rung, and every later rung of the ladder goes straight to it.
"""

import enum
import math
from functools import partial
from itertools import accumulate, chain, count, islice, repeat
from operator import mul, sub, truediv
from typing import NamedTuple

from .entire import TaylorFunction, first_nonzero, unscale
from .errors import NonconvergenceError
from .gammafn import UNIT_ROUNDOFF, expint, lower_gamma
from .oracles import quad_adaptive  # noqa: F401  (bench/tracer.py wraps it)
from .series import sum_until_small

DEFAULT_TOL = 1e-15
NU_GUARD = 1e-12
SPLIT_POINT = 1.0

_CHUNK = 16  # tail terms formed per step of the tables

# the exp-sinh rule of the split tail
_HALF_PI = 0.5 * math.pi
_DE_T_CAP = 6  # |t| of the outermost node; x = a0 + e^{317} there
_DE_NEGLIGIBLE = 2.0 ** -70
_DE_MIN_LEVEL = 3  # first level whose change from the one before is trusted
_DE_LEVEL_CAP = 8  # finest step h = 2^-8
_DE_RTOL, _DE_ATOL = 1e-13, 1e-15


class FpiMethod(enum.Enum):
    SERIES_FINITE = "SeriesFinite"
    CLOSED_FORM = "ClosedForm"
    SPLIT_INFINITE = "SplitInfinite"
    RECURRENCE = "Recurrence"


class FpiValue(NamedTuple):
    """A finite-part integral value with evaluation diagnostics; a
    NamedTuple, so it unpacks as (value, method, terms_used, tail_bound).

    ``terms_used`` counts the work of the call that computed the value:
    series terms, or continued-fraction iterations plus recurrence steps.
    ``tail_bound`` is the magnitude of the last series term; for Recurrence
    rungs it is a forward bound on the rounding error carried through the
    recurrence, and for the incomplete-gamma rungs m <= p of ``MonomialExp``
    it covers truncation and rounding.  A SplitInfinite rung adds to the bound
    of its series part the last change of the exp-sinh rule and the
    rounding u (|series part| + |integral|) of the sum of the two.
    """

    value: float
    method: FpiMethod
    terms_used: int
    tail_bound: float


# builds an FpiValue without the Python-level NamedTuple constructor
_new_fpi = partial(tuple.__new__, FpiValue)


class _SeriesTables:
    """The Maclaurin rungs of one (nu, a, tol) and their tables, kept on
    f's ladder; :meth:`rung` reads rung m.

    With j = k + 1 - m, rung m is the sum over k of c_k a^{j-nu}/(j-nu),
    the nu = 0 term at j = 0 being c_{m-1} ln a.  Kept are c_k, each read
    once per ladder, and, each formed once:
      j >= 0:  the powers a^{j-nu}, a^{-nu} times a j times, as the
               series has always formed them, and the divisors j - nu;
      i = -j:  the head divisors -(i+nu) a^{i+nu}, one power each; past
               float range the divisor is infinite and the term zero.
    A polynomial's c_k stop at its degree.  A table grows by replacement,
    never in place, so a thread only reads lists that are consistent.
    """

    def __init__(self, f, nu, a, tol):
        self.f, self.nu, self.a, self.tol = f, nu, a, tol
        deg = f.finite_degree()
        if deg is None:
            r, c = first_nonzero(map(f.coeff, count()))
            self.cs = [0.0] * r + [c]
        else:
            r = f.zero_order()
            self.cs = [0.0] * r + [f.coeff(k) for k in range(r, deg + 1)]
        self.r, self.deg = r, deg
        self.pows = ([a ** -nu], [0 - nu])
        self.es = []

    def coeffs(self, n):
        """c_k for k < n at least; all of them for a polynomial."""
        cs = self.cs
        if len(cs) < n and self.deg is None:
            cs = self.cs = cs + list(map(self.f.coeff, range(len(cs), n)))
        return cs

    def powers(self, n):
        """(a^{j-nu}, j - nu) for j < n at least."""
        ps, ds = self.pows
        have = len(ps)
        if have < n:
            ps = ps + list(islice(accumulate(repeat(self.a, n - have), mul,
                                             initial=ps[-1]), 1, None))
            ds = ds + list(map(sub, range(have, n), repeat(self.nu)))
            self.pows = (ps, ds)
        return ps, ds

    def head_divisors(self, n):
        """-(i+nu) a^{i+nu} for i < n at least."""
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
        """Finite part of int_0^a f(x) x^{-m-nu} dx, read from the tables.

        The head, k < m - 1, is the sum of c_k / (-(i+nu) a^{i+nu}) with
        i = m - 1 - k, plus c_{m-1} ln a at nu = 0; the tail starts at k = m
        at nu = 0 and at k = m - 1 at 0 < nu < 1, both from the zero order at
        least.  Its terms (c_k a^{j-nu}) / (j-nu) are summed by
        :func:`~finitepart.series.sum_until_small` to ``tol`` relative to the
        rung's running value, head + tail so far, not to the tail's own sum,
        and the tail is then added to the head; a polynomial's is summed
        whole.  ``terms_used`` counts the terms of the tail.
        """
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
            except ZeroDivisionError:  # a^{m-1-k} below float range
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
            return _new_fpi((head + tail, FpiMethod.SERIES_FINITE,
                             max(deg + 1 - k0, 0), 0.0))

        def chunk(k):
            j = k + 1 - m
            cs = self.coeffs(k + _CHUNK)
            ps, ds = self.powers(j + _CHUNK)
            return map(truediv, map(mul, cs[k:k + _CHUNK], ps[j:j + _CHUNK]),
                       ds[j:j + _CHUNK])

        s = sum_until_small(chain.from_iterable(map(chunk, count(k0, _CHUNK))),
                            self.tol, offset=head)
        tail = s.total_or_raise("finite-part series")
        return _new_fpi((head + tail, FpiMethod.SERIES_FINITE, s.terms,
                         s.last))


def _tables(ladder, f, nu, a, tol):
    """The Maclaurin tables of ``ladder``, made on first use: f's own at
    (nu, a) on a finite-a ladder, those of a0 on an a = inf one."""
    tab = ladder.series
    if tab is None:
        tab = ladder.series = _SeriesTables(f, nu, a, tol)
    return tab


# ---------------------------------------------------------------------------
# exponential family at finite a
# ---------------------------------------------------------------------------

def _exp_seed(f, lad, p, b, c, nu, a, tol):
    """FPI(f, p + 1, nu, a), where the recurrence starts: the series while
    ab <= 1, else the a = inf closed form less c a^{-nu} E_{1+nu}(ab)."""
    x = a * b
    if x <= 1.0:
        return _tables(lad, f, nu, a, tol).rung(p + 1)
    e, iters = expint(1.0 + nu, x)
    head = unscale(f)[0].fpi_infinite(p + 1, nu)
    tail = a ** -nu * e
    value = c * (head - tail)
    bound = (abs(c) * (4.0 * abs(head) + (iters + 4.0) * abs(tail))
             + abs(value)) * UNIT_ROUNDOFF
    return _new_fpi((value, FpiMethod.RECURRENCE, iters, bound))


def _exp_route(f, lad, shape, nu, a, tol):
    """The rung route of c x^p e^{-bx} on its finite-a ladder ``lad``:
    m -> finite part of int_0^a c x^p e^{-bx} x^{-m-nu} dx.

    p, b, c, c e^{-ab} and the coefficient stream are read once, here.  A
    stored rung is returned as is.  Rungs m <= p are ordinary integrals.
    Above them a call steps the recurrence from the highest stored rung
    below m, or from the seed at m = p + 1, and stores every rung it
    passes, so each rung has the bits of one climb from the seed whatever
    the order of the calls.  The bound of each step is
    (u |c_{m-1}| + 4u |edge| + b e_{m-1} + u |b FPI_{m-1}|) / (q - 1 + nu)
    + u |FPI_m|, with e_{m-1} the bound of the rung below and
    edge = c e^{-ab} a^{1-q-nu}, which takes a power and a product.
    """
    p, b, c = shape
    rungs = lad.rungs
    coeff = f.coeff if nu == 0.0 else None
    ce = c * math.exp(-a * b)
    u = UNIT_ROUNDOFF

    def route(m):
        v = rungs.get(m)
        if v is not None:
            return v
        if m <= p:
            s = p - m + 1 - nu
            g, used, bound = lower_gamma(s, a * b, tol)
            scale = c / b ** s
            value = scale * g
            v = rungs[m] = _new_fpi((value, FpiMethod.SERIES_FINITE, used,
                                     abs(scale) * bound + u * abs(value)))
            return v
        j = m - 1
        while j > p and j not in rungs:
            j -= 1
        if j > p:
            prev = rungs[j]
            work = 0
        else:
            j = p + 1
            prev = rungs[j] = _exp_seed(f, lad, p, b, c, nu, a, tol)
            work = prev.terms_used
        value, bound = prev.value, prev.tail_bound
        for k in range(j + 1, m + 1):
            q = k - p
            d = q - 1 + nu
            try:
                edge = ce * a ** (1 - q - nu)
            except OverflowError:
                edge = math.inf
            head = coeff(k - 1) if coeff else 0.0
            step = b * value
            value = (head - edge - step) / d
            if not abs(value) < math.inf:
                raise NonconvergenceError("finite-part recurrence leaves "
                                          f"float range at m = {k}")
            work += 1
            bound = ((u * (abs(head) + 4.0 * abs(edge) + abs(step))
                      + b * bound) / d + u * abs(value))
            prev = rungs[k] = _new_fpi((value, FpiMethod.RECURRENCE, work,
                                        bound))
        return prev

    return route


# ---------------------------------------------------------------------------
# infinite upper limit
# ---------------------------------------------------------------------------

class _ExpSinh:
    """Exp-sinh quadrature on [a0, inf) for the tails of one ladder's split
    rungs (Takahashi and Mori 1974).

    x = a0 + exp(pi/2 sinh t) and w = dx/dt.  The nodes x_i and the values
    g_i = w_i f(x_i) of every level are computed once and shared by all
    rungs: level 0 takes the integers t in [lo, hi], each level after it
    the odd multiples of h = 2^-level in that range.  The range ends where
    two nodes in a row have |g_i| / x_i below _DE_NEGLIGIBLE times the
    largest, which bounds every rung's term g_i x_i^{-p}, p = m + nu >= 1.
    Levels, like the tables, grow by replacement.
    """

    def __init__(self, f):
        self.f = f
        x, g = self._node(0.0)
        xs, gs = [x], [g]
        big = abs(g) / x
        ends = []
        for step in (1, -1):
            t = quiet = 0
            while quiet < 2:
                t += step
                if abs(t) > _DE_T_CAP:
                    raise NonconvergenceError(
                        f"split tail of {f!r} is not finite or does not "
                        f"decay by x = {xs[-1]:.3g}")
                x, g = self._node(float(t))
                xs.append(x)
                gs.append(g)
                v = abs(g) / x
                big = max(big, v)
                quiet = quiet + 1 if v <= _DE_NEGLIGIBLE * big else 0
            ends.append(t)
        self.hi, self.lo = ends
        self.levels = ((xs, gs),)

    def _node(self, t):
        u = math.exp(_HALF_PI * math.sinh(t))
        x = SPLIT_POINT + u
        return x, _HALF_PI * math.cosh(t) * u * self.f.eval(x)

    def level(self, n):
        """(x_i, g_i) of the nodes new at level n."""
        levels = self.levels
        while len(levels) <= n:
            span = 2 ** (len(levels) - 1)
            h = 1.0 / (2 * span)
            ts = [(2 * i + 1) * h for i in range(self.lo * span,
                                                 self.hi * span)]
            xs, gs = zip(*map(self._node, ts))
            levels = self.levels = levels + ((xs, gs),)
        return levels[n]

    def integral(self, p):
        """(int_{a0}^inf f(x) x^{-p} dx, the change of its last level)."""
        total = 0.0
        est = math.nan
        for n in range(_DE_LEVEL_CAP + 1):
            xs, gs = self.level(n)
            total += sum(map(mul, gs, map(pow, xs, repeat(-p))))
            new = math.ldexp(total, -n)
            if not abs(new) < math.inf:
                break
            err = abs(new - est)
            if n >= _DE_MIN_LEVEL and err <= max(_DE_RTOL * abs(new),
                                                 _DE_ATOL):
                return new, err
            est = new
        raise NonconvergenceError(
            f"exp-sinh tail of {self.f!r} at power {p:g} did not converge "
            f"within {_DE_LEVEL_CAP} levels")


def _split_infinite(f, m, nu, tol):
    """fpi(f, m, nu, a0) on the tables of f's a = inf ladder plus the
    exp-sinh integral of f(x) x^{-m-nu} over [a0, inf) on its nodes."""
    ladder = f.ladder(nu, math.inf, tol)
    fin = _tables(ladder, f, nu, SPLIT_POINT, tol).rung(m)
    nodes = ladder.nodes
    if nodes is None:
        nodes = ladder.nodes = _ExpSinh(f)
    q, err = nodes.integral(m + nu)
    bound = fin.tail_bound + err + UNIT_ROUNDOFF * (abs(fin.value) + abs(q))
    return _new_fpi((fin.value + q, FpiMethod.SPLIT_INFINITE,
                     fin.terms_used, bound))


def _fpi_infinite(f, m, nu, tol):
    """Finite part of int_0^inf f(x) x^{-m-nu} dx: the descriptor's closed
    form when it has one, otherwise the split at a0 = 1."""
    base, factor = unscale(f)
    base.check_integrable_at_infinity(m, nu)
    try:
        closed = base.fpi_infinite(m, nu)
    except OverflowError:  # factorials and powers at large m
        closed = math.inf
    if closed is None:
        return _split_infinite(f, m, nu, tol)
    if not math.isfinite(closed):
        raise NonconvergenceError(f"closed form for {base!r} at "
                                  f"m = {m} leaves float range")
    return _new_fpi((factor * closed, FpiMethod.CLOSED_FORM, 0, 0.0))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _route(f, lad, nu, a, tol):
    """The route of a finite-a ladder, chosen once: the exponential-family
    recurrence when f is c x^p e^{-bx}, else the Maclaurin tables."""
    shape = f.exp_family()
    if shape is None:
        return _tables(lad, f, nu, a, tol).rung
    return _exp_route(f, lad, shape, nu, a, tol)


def finite_part_integral(f: TaylorFunction, m: int, nu: float = 0.0,
                         a: float = math.inf,
                         tol: float = DEFAULT_TOL) -> FpiValue:
    """Finite part of int_0^a f(x) x^{-m-nu} dx, m >= 1, nu = 0 or
    0 < nu < 1, 0 < a <= inf."""
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("pole strength m must be an integer >= 1")
    if nu != 0.0 and not (NU_GUARD < nu < 1.0 - NU_GUARD):
        raise ValueError("branch exponent nu must be 0 exactly or lie in "
                         f"({NU_GUARD:g}, 1 - {NU_GUARD:g}); got {nu}")
    if not a > 0:
        raise ValueError("upper limit a must be positive")
    if math.isinf(a):
        return _fpi_infinite(f, m, nu, tol)
    lad = f.ladder(nu, a, tol)
    route = lad.route
    if route is None:
        route = lad.route = _route(f, lad, nu, a, tol)
    return route(m)
