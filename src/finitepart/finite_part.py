"""Hadamard finite-part integrals of entire functions.

The divergent integrals int_0^a f(x) x^{-m-nu} dx (m >= 1, 0 <= nu < 1,
f entire) acquire finite values once the exactly known diverging group of
terms is dropped.  For finite a the value has an explicit series form in
the Maclaurin coefficients c_k of f:

  nu = 0:   c_{m-1} ln a - sum_{k=0}^{m-2} c_k / ((m-k-1) a^{m-k-1})
                         + sum_{k>=m} c_k a^{k-m+1} / (k-m+1)

  0<nu<1:   sum_{k>=0} c_k a^{k+1-m-nu} / (k+1-m-nu)

with empty sums equal to zero.  The exponential family c x^p e^{-bx}
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
is the exp-sinh rule of :mod:`finitepart.quadrature`, whose nodes x_i and
weighted values w_i f(x_i) are computed once per ladder and serve every m;
QUADPACK (:mod:`finitepart.oracles`) is left to check it.

:func:`finite_part_integral` is the one entry point for every (m, nu, a),
and every finite part is summed to DEFAULT_TOL.  Each ladder holds one
rung source, chosen at its first rung by :func:`rung_source`; a closed form
at a = inf builds no ladder state.  A source holds no reference to f: it
takes f as the first argument of every call that reads it, ``rung(f, m)``,
so a descriptor is not reachable from its own ladder, and reference
counting frees both once its last name goes.
"""

import enum
import math
from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import mul, sub, truediv
from typing import NamedTuple

from .entire import TaylorFunction, first_nonzero, unscale
from .errors import NonconvergenceError
from .gammafn import UNIT_ROUNDOFF, expint, lower_gamma
from .oracles import quad_adaptive  # noqa: F401  (bench/tracer.py wraps it)
from .quadrature import LEVEL_CAP, ExpSinh
from .series import sum_until_small

DEFAULT_TOL = 1e-15
NU_GUARD = 1e-12
SPLIT_POINT = 1.0

_CHUNK = 16  # tail terms formed per step of the tables


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
    of its series part the bound of the exp-sinh integral, its last change
    plus the rounding of its weighted powers and their sums, and the
    rounding u (|series part| + |integral|) of the sum of the two.
    """

    value: float
    method: FpiMethod
    terms_used: int
    tail_bound: float


# builds an FpiValue without the Python-level NamedTuple constructor
_new_fpi = partial(tuple.__new__, FpiValue)
# the methods as module globals: reading an Enum member off its class costs
# about ten times a global lookup, once per rung
_SERIES_FINITE, _RECURRENCE = FpiMethod.SERIES_FINITE, FpiMethod.RECURRENCE


def _stream_error(f, k, m, exc):
    """The NonconvergenceError of a coefficient c_k of f that rung m read
    and that left float range."""
    return NonconvergenceError(f"coefficient c_{k} of {f!r} leaves float "
                               f"range at m = {m} ({type(exc).__name__}: "
                               f"{exc})")


def _read_coeffs(f, lo, hi, m):
    """[c_lo, ..., c_{hi-1}] of f, read for rung m.  An OverflowError or
    ZeroDivisionError of the stream raises NonconvergenceError instead; the
    list holds the coefficients read before it, so its length gives k."""
    cs = []
    try:
        cs.extend(map(f.coeff, range(lo, hi)))
    except (OverflowError, ZeroDivisionError) as exc:
        raise _stream_error(f, lo + len(cs), m, exc) from exc
    return cs


class _SeriesTables:
    """The Maclaurin rungs of one (nu, a) and their tables, made from f's
    coefficients; :meth:`rung` reads rung m of f, the same descriptor.

    With j = k + 1 - m, rung m is the sum over k of c_k a^{j-nu}/(j-nu),
    the nu = 0 term at j = 0 being c_{m-1} ln a.  Kept are ln a and c_k,
    each read once per ladder, and, each formed once:
      j >= 0:  the powers a^{j-nu}, a^{-nu} times a j times, as the
               series has always formed them, and the divisors j - nu;
      i = -j:  the head divisors -(i+nu) a^{i+nu}, one power each; past
               float range the divisor is infinite and the term zero.
    A rung checks each table's length once and grows it only where it is
    short.  A series rung reads the c_k its sum reaches, _CHUNK at a time
    and no further; the head divisors, pure arithmetic, are formed _CHUNK
    at a time, ahead of need.  A polynomial's c_k stop at its degree; they
    and their powers are read and formed with the tables.  A table grows
    by replacement, never in place, so a thread only reads lists that are
    consistent.
    """

    def __init__(self, f, nu, a):
        self.nu, self.a = nu, a
        self.log_a = math.log(a)
        deg = f.finite_degree()
        self.pows = ([a ** -nu], [0 - nu])
        if deg is None:
            r, c = first_nonzero(f)
            self.cs = [0.0] * r + [c]
        else:
            r = f.zero_order()
            self.cs = [0.0] * r + [f.coeff(k) for k in range(r, deg + 1)]
            self._powers(deg + 1)
        self.r, self.deg = r, deg
        self.es = []

    def _coeffs(self, f, n, m):
        """c_k for k < n; those the table lacks are read from f's stream,
        for rung m."""
        cs = self.cs
        cs = self.cs = cs + _read_coeffs(f, len(cs), n, m)
        return cs

    def _powers(self, n):
        """(a^{j-nu}, j - nu) for j < n."""
        ps, ds = self.pows
        have = len(ps)
        ps = ps + list(islice(accumulate(repeat(self.a, n - have), mul,
                                         initial=ps[-1]), 1, None))
        ds = ds + list(map(sub, range(have, n), repeat(self.nu)))
        self.pows = (ps, ds)
        return ps, ds

    def _head_divisors(self, n):
        """-(i+nu) a^{i+nu} for i < n at least, formed _CHUNK at a time."""
        es = self.es
        a, nu = self.a, self.nu
        more = []
        for i in range(len(es), -(-n // _CHUNK) * _CHUNK):
            try:
                p = a ** (i + nu)
            except OverflowError:
                p = math.inf
            more.append(-(i + nu) * p)
        es = self.es = es + more
        return es

    def _chunks(self, f, k, m):
        """The tail terms (c_k a^{j-nu}) / (j-nu), j = k + 1 - m, from k on,
        one map of _CHUNK terms at a time."""
        j = k + 1 - m
        while True:
            stop = k + _CHUNK
            cs = self.cs
            if len(cs) < stop:
                cs = self._coeffs(f, stop, m)
            ps, ds = self.pows
            if len(ps) < j + _CHUNK:
                ps, ds = self._powers(j + _CHUNK)
            yield map(truediv, map(mul, cs[k:stop], ps[j:j + _CHUNK]),
                      ds[j:j + _CHUNK])
            k, j = stop, j + _CHUNK

    def rung(self, f, m):
        """Finite part of int_0^a f(x) x^{-m-nu} dx, read from the tables.

        The head, k < m - 1, is the sum of c_k / (-(i+nu) a^{i+nu}) with
        i = m - 1 - k, plus c_{m-1} ln a at nu = 0; the tail starts at k = m
        at nu = 0 and at k = m - 1 at 0 < nu < 1, both from the zero order at
        least.  Its terms (c_k a^{j-nu}) / (j-nu) are summed by
        :func:`~finitepart.series.sum_until_small` to DEFAULT_TOL relative
        to the rung's running value, head + tail so far, not to the tail's
        own sum, and the tail is then added to the head; a polynomial's is
        summed whole, and past its degree, where it is empty, the rung is its
        head.  ``terms_used`` counts the terms of the tail.
        """
        r, deg, cs = self.r, self.deg, self.cs
        head = 0.0
        if self.nu == 0.0:
            if len(cs) < m and deg is None:
                cs = self._coeffs(f, m, m)
            if m <= len(cs) and cs[m - 1] != 0.0:
                head = cs[m - 1] * self.log_a
            k0 = max(r, m)
        else:
            k0 = max(r, m - 1)
        top = m - 1 if deg is None else min(m - 1, deg + 1)
        if top > r:
            if len(cs) < top:
                cs = self._coeffs(f, top, m)
            es = self.es
            if len(es) < m - r:
                es = self._head_divisors(m - r)
            try:
                head = sum(map(truediv, cs[r:top],
                               es[m - 1 - r:m - 1 - top:-1]), head)
            except ZeroDivisionError:  # a^{m-1-k} below float range
                head = math.inf
            if not abs(head) < math.inf:
                raise NonconvergenceError("finite-part head leaves float "
                                          f"range at m = {m}")
        if deg is None:
            s = sum_until_small(chain.from_iterable(self._chunks(f, k0, m)),
                                DEFAULT_TOL, offset=head)
            tail = s.total_or_raise("finite-part series")
            return _new_fpi((head + tail, _SERIES_FINITE, s.terms, s.last))
        if k0 > deg:  # the empty tail's + 0.0 turns a -0.0 head to 0.0
            return _new_fpi((head + 0.0, _SERIES_FINITE, 0, 0.0))
        j0 = k0 + 1 - m
        ps, ds = self.pows
        tail = sum(map(truediv, map(mul, cs[k0:], ps[j0:]), ds[j0:]), 0.0)
        return _new_fpi((head + tail, _SERIES_FINITE, deg + 1 - k0, 0.0))


# ---------------------------------------------------------------------------
# exponential family at finite a
# ---------------------------------------------------------------------------

class _Recurrence:
    """The rungs of f = c x^p e^{-bx}, of ``shape`` (p, b, c), on its
    finite-a ladder, whose stored finite parts ``rungs`` it shares.

    Rungs m <= p are ordinary integrals.  Above them a call steps from the
    highest stored rung below m, or from the seed at m = p + 1, and stores
    every rung it passes, so each rung has the bits of one climb from the
    seed whatever the order of the calls.  The bound of each step is
    (u |c_{m-1}| + 4u |edge| + b e_{m-1} + u |b FPI_{m-1}|) / (q - 1 + nu)
    + u |FPI_m|, with e_{m-1} the bound of the rung below and
    edge = c e^{-ab} a^{1-q-nu}, which takes a power and a product.
    """

    def __init__(self, rungs, shape, nu, a):
        self.rungs, self.nu, self.a = rungs, nu, a
        self.p, self.b, self.c = shape
        self.ce = self.c * math.exp(-a * self.b)

    def _seed(self, f):
        """FPI(f, p + 1, nu, a): the series of throwaway tables while
        ab <= 1, else the a = inf closed form less c a^{-nu} E_{1+nu}(ab)."""
        p, c, nu, a = self.p, self.c, self.nu, self.a
        if a * self.b <= 1.0:
            return _SeriesTables(f, nu, a).rung(f, p + 1)
        e, iters = expint(1.0 + nu, a * self.b)
        head = unscale(f)[0].fpi_infinite(p + 1, nu)
        tail = a ** -nu * e
        value = c * (head - tail)
        bound = (abs(c) * (4.0 * abs(head) + (iters + 4.0) * abs(tail))
                 + abs(value)) * UNIT_ROUNDOFF
        if not bound < math.inf:  # nor is the value, or c times a part
            raise NonconvergenceError("finite-part recurrence leaves float "
                                      f"range at m = {p + 1}")
        return _new_fpi((value, _RECURRENCE, iters, bound))

    def rung(self, f, m):
        """Finite part of int_0^a f(x) x^{-m-nu} dx, f = c x^p e^{-bx}."""
        rungs = self.rungs
        v = rungs.get(m)
        if v is not None:
            return v
        p, b, nu, a = self.p, self.b, self.nu, self.a
        u = UNIT_ROUNDOFF
        if m <= p:
            s = p - m + 1 - nu
            try:
                g, used, bound = lower_gamma(s, a * b, DEFAULT_TOL)
                scale = self.c / b ** s
                value = scale * g
                bound = abs(scale) * bound + u * abs(value)
                if not bound < math.inf:  # nor is the value, scale or g
                    raise OverflowError(f"its bound is {bound}")
            except (OverflowError, ZeroDivisionError) as exc:
                raise NonconvergenceError(
                    f"ordinary integral of {f!r} leaves float range at "
                    f"m = {m} ({type(exc).__name__}: {exc})") from exc
            v = rungs[m] = _new_fpi((value, _SERIES_FINITE, used, bound))
            return v
        j = m - 1
        while j > p and j not in rungs:
            j -= 1
        if j > p:
            prev = rungs[j]
            work = 0
        else:
            j = p + 1
            prev = rungs[j] = self._seed(f)
            work = prev.terms_used
        ce = self.ce
        coeff = f.coeff if nu == 0.0 else None
        value, bound = prev.value, prev.tail_bound
        for k in range(j + 1, m + 1):
            q = k - p
            d = q - 1 + nu
            try:
                edge = ce * a ** (1 - q - nu)
            except OverflowError:
                edge = math.inf
            try:
                head = coeff(k - 1) if coeff else 0.0
            except (OverflowError, ZeroDivisionError) as exc:
                raise _stream_error(f, k - 1, k, exc) from exc
            step = b * value
            value = (head - edge - step) / d
            if not abs(value) < math.inf:
                raise NonconvergenceError("finite-part recurrence leaves "
                                          f"float range at m = {k}")
            work += 1
            bound = ((u * (abs(head) + 4.0 * abs(edge) + abs(step))
                      + b * bound) / d + u * abs(value))
            prev = rungs[k] = _new_fpi((value, _RECURRENCE, work, bound))
        return prev


# ---------------------------------------------------------------------------
# infinite upper limit
# ---------------------------------------------------------------------------

class _Split:
    """The rungs of f at a = inf split at a0 = SPLIT_POINT: the Maclaurin
    ``tables`` of (nu, a0) plus the exp-sinh integral over [a0, inf) on
    ``nodes``, which direct transforms read too; each made on first use.
    The split owns its tail's policy, :meth:`tail`: the factor, the
    tolerance and the error of a tail that does not converge."""

    def __init__(self, nu):
        self.nu, self.tables, self.nodes = nu, None, None

    def exp_sinh(self, f):
        if self.nodes is None:
            self.nodes = ExpSinh(f, SPLIT_POINT)
        return self.nodes

    def tail(self, f, m):
        """(int_{a0}^inf f(x) x^{-p} dx, p = m + nu, its error bound by
        :meth:`~finitepart.quadrature.ExpSinh.integral`): the factor x^{-p}
        is pow's, within an ulp, 2u; a last change within 1e-13 relative or
        1e-15 absolute is accepted, and NonconvergenceError is raised
        without one."""
        p = m + self.nu
        got = self.exp_sinh(f).integral(f, lambda xs, gs: map(
            mul, gs, map(pow, xs, repeat(-p))), 2, 1e-13, 1e-15)
        if got is None:
            raise NonconvergenceError(
                f"exp-sinh tail of {f!r} at power {p:g} did not "
                f"converge within {LEVEL_CAP} levels")
        return got

    def rung(self, f, m):
        if self.tables is None:
            self.tables = _SeriesTables(f, self.nu, SPLIT_POINT)
        v, _, terms, bound = self.tables.rung(f, m)
        q, err = self.tail(f, m)
        return _new_fpi((v + q, FpiMethod.SPLIT_INFINITE, terms,
                         bound + err + UNIT_ROUNDOFF * (abs(v) + abs(q))))


def splits_at_infinity(f):
    """Whether f's rungs at a = inf are split, for the rungs and the routes
    alike: its descriptor keeps the base ``fpi_infinite``, no closed form."""
    return type(unscale(f)[0]).fpi_infinite is TaylorFunction.fpi_infinite


def rung_source(f, lad, nu, a):
    """The rung source of f's ladder ``lad`` at (nu, a), made at first use:
    at a finite a the recurrence when f is c x^p e^{-bx}, else the Maclaurin
    tables; at a = inf the split, taken where splits_at_infinity holds."""
    if lad.series is None:
        shape = f.exp_family()
        lad.series = (_Split(nu) if a == math.inf
                      else _SeriesTables(f, nu, a) if shape is None
                      else _Recurrence(lad.rungs, shape, nu, a))
    return lad.series


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def check_nu(nu):
    """Raise ValueError unless nu = 0 exactly or NU_GUARD < nu <
    1 - NU_GUARD, the exponents the finite parts accept."""
    if nu != 0.0 and not (NU_GUARD < nu < 1.0 - NU_GUARD):
        raise ValueError("branch exponent nu must be 0 exactly or lie in "
                         f"({NU_GUARD:g}, 1 - {NU_GUARD:g}); got {nu}")


def finite_part_integral(f: TaylorFunction, m: int, nu: float = 0.0,
                         a: float = math.inf) -> FpiValue:
    """Finite part of int_0^a f(x) x^{-m-nu} dx, m >= 1, nu = 0 or
    0 < nu < 1, 0 < a <= inf, summed to DEFAULT_TOL.

    Every call validates its arguments.  At finite a it then returns rung m
    of the source of f's ladder for (nu, a), chosen at the ladder's first
    rung by :func:`rung_source`; at a = inf the split where
    :func:`splits_at_infinity` holds, else the closed form times f's factor.
    """
    if not (isinstance(m, int) and m >= 1):
        raise ValueError("pole strength m must be an integer >= 1")
    if nu != 0.0:
        check_nu(nu)
    if not a > 0:
        raise ValueError("upper limit a must be positive")
    if math.isinf(a):
        base, factor = unscale(f)
        base.check_integrable_at_infinity(m, nu)
        try:
            closed = base.fpi_infinite(m, nu)
        except OverflowError:  # factorials and powers at large m
            closed = math.inf
        if closed is None:  # the base hook; an override must give a number
            if splits_at_infinity(f):  # the split rung, on f's ladder
                return rung_source(f, f.ladder(nu, a), nu, a).rung(f, m)
            raise NotImplementedError(f"{type(base).__name__}.fpi_infinite "
                                      f"returned None at m = {m}")
        value = factor * closed
        if not abs(value) < math.inf:
            raise NonconvergenceError(f"closed form for {f!r} at m = {m} "
                                      "leaves float range")
        return _new_fpi((value, FpiMethod.CLOSED_FORM, 0, 0.0))
    lad = f.ladder(nu, a)
    return (lad.series or rung_source(f, lad, nu, a)).rung(f, m)
