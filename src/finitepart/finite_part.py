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
fpi(f, m, nu, a0) plus an ordinary adaptive integral over [a0, inf) is
exact and involves no cancellation between log a and the tail sum.

:func:`finite_part_integral` is the one entry point for every (m, nu, a);
only the nu = 0 head and the route depend on the case.
"""

import enum
import math
from dataclasses import dataclass
from itertools import count

from .entire import TaylorFunction, unscale
from .errors import NonconvergenceError
from .gammafn import UNIT_ROUNDOFF, expint, lower_gamma
from .oracles import quad_adaptive
from .series import sum_until_small

DEFAULT_TOL = 1e-15
NU_GUARD = 1e-12
SPLIT_POINT = 1.0


class FpiMethod(enum.Enum):
    SERIES_FINITE = "SeriesFinite"
    CLOSED_FORM = "ClosedForm"
    SPLIT_INFINITE = "SplitInfinite"
    RECURRENCE = "Recurrence"


@dataclass(frozen=True)
class FpiValue:
    """A finite-part integral value with evaluation diagnostics.

    ``terms_used`` counts the work of the call that computed the value:
    series terms, or continued-fraction iterations plus recurrence steps.
    ``tail_bound`` is the magnitude of the last series term; for Recurrence
    rungs it is a forward bound on the rounding error carried through the
    recurrence, and for the incomplete-gamma rungs of ``MonomialExp`` it
    covers truncation and rounding.
    """

    value: float
    method: FpiMethod
    terms_used: int
    tail_bound: float


def _series_terms(coeff, m, nu, a, k0):
    ap = a ** (k0 + 1 - m - nu)
    for k in count(k0):
        yield coeff(k) * ap / (k + 1 - m - nu)
        ap *= a


def _series_sum(f, m, nu, a, tol, start):
    """sum_{k>=start} c_k a^{k+1-m-nu}/(k+1-m-nu).

    Summed by :func:`~finitepart.series.sum_until_small` to ``tol``;
    finite-degree functions are summed exactly.
    Returns (total, terms_used, tail_bound), the tail bound being the
    magnitude of the last term.
    """
    k0 = max(start, f.zero_order())
    deg = f.finite_degree()
    if deg is not None:
        total = 0.0
        used = 0
        for k in range(k0, deg + 1):
            c = f.coeff(k)
            if c == 0.0:
                continue
            p = k + 1 - m - nu
            total += c * a**p / p
            used += 1
        return total, used, 0.0

    s = sum_until_small(_series_terms(f.coeff, m, nu, a, k0), tol)
    return s.total_or_raise("finite-part series"), s.terms, s.last


def _fpi_finite(f, m, nu, a, tol):
    """Finite part of int_0^a f(x) x^{-m-nu} dx for finite a > 0.

    At nu = 0 the rungs k < m have closed forms (the c_{m-1} ln a head
    and the negative powers below it) and the series starts at k = m; at
    0 < nu < 1 it starts at k = 0.
    """
    if nu != 0.0:
        total, used, bound = _series_sum(f, m, nu, a, tol, 0)
        return FpiValue(total, FpiMethod.SERIES_FINITE, used, bound)
    head = 0.0
    cm1 = f.coeff(m - 1)
    if cm1 != 0.0:
        head += cm1 * math.log(a)
    deg = f.finite_degree()
    stop = m - 1 if deg is None else min(m - 1, deg + 1)
    for k in range(f.zero_order(), stop):
        c = f.coeff(k)
        if c != 0.0:
            head -= c / ((m - k - 1) * a ** (m - k - 1))
    tail, used, bound = _series_sum(f, m, 0.0, a, tol, m)
    return FpiValue(head + tail, FpiMethod.SERIES_FINITE, used, bound)


# ---------------------------------------------------------------------------
# exponential family at finite a
# ---------------------------------------------------------------------------

def _exp_seed(f, p, b, c, nu, a, tol):
    """FPI(f, p + 1, nu, a), where the recurrence starts: the series while
    ab <= 1, else the a = inf closed form less c a^{-nu} E_{1+nu}(ab)."""
    x = a * b
    if x <= 1.0:
        return _fpi_finite(f, p + 1, nu, a, tol)
    e, iters = expint(1.0 + nu, x)
    head = unscale(f)[0].fpi_infinite(p + 1, nu)
    tail = a ** -nu * e
    value = c * (head - tail)
    bound = (abs(c) * (4.0 * abs(head) + (iters + 4.0) * abs(tail))
             + abs(value)) * UNIT_ROUNDOFF
    return FpiValue(value, FpiMethod.RECURRENCE, iters, bound)


def _fpi_exp_family(f, shape, m, nu, a, tol):
    """Finite part of int_0^a c x^p e^{-bx} x^{-m-nu} dx on f's rung ladder.

    A stored rung is returned as is.  Rungs m <= p are ordinary integrals.
    Above them a call steps the recurrence from the highest stored rung
    below m, or from the seed at m = p + 1, and stores every rung it
    passes, so each rung has the bits of one climb from the seed whatever
    the order of the calls.  The bound of each step is
    (u |c_{m-1}| + 4u |edge| + b e_{m-1} + u |b FPI_{m-1}|) / (q - 1 + nu)
    + u |FPI_m|, with e_{m-1} the bound of the rung below and
    edge = c e^{-ab} a^{1-q-nu}, which takes an exp, a power and two
    products.
    """
    p, b, c = shape
    rungs = f.rungs(nu, a, tol)
    v = rungs.get(m)
    if v is not None:
        return v
    u = UNIT_ROUNDOFF
    if m <= p:
        s = p - m + 1 - nu
        g, used, bound = lower_gamma(s, a * b, tol)
        scale = c / b ** s
        value = scale * g
        v = rungs[m] = FpiValue(value, FpiMethod.SERIES_FINITE, used,
                                abs(scale) * bound + u * abs(value))
        return v
    j = m - 1
    while j > p and j not in rungs:
        j -= 1
    if j > p:
        prev = rungs[j]
        work = 0
    else:
        j = p + 1
        prev = rungs[j] = _exp_seed(f, p, b, c, nu, a, tol)
        work = prev.terms_used
    ce = c * math.exp(-a * b)
    for k in range(j + 1, m + 1):
        q = k - p
        d = q - 1 + nu
        try:
            edge = ce * a ** (1 - q - nu)
        except OverflowError:
            edge = math.inf
        head = f.coeff(k - 1) if nu == 0.0 else 0.0
        step = b * prev.value
        value = (head - edge - step) / d
        if not abs(value) < math.inf:
            raise NonconvergenceError("finite-part recurrence leaves float "
                                      f"range at m = {k}")
        work += 1
        bound = ((u * (abs(head) + 4.0 * abs(edge) + abs(step))
                  + b * prev.tail_bound) / d + u * abs(value))
        prev = rungs[k] = FpiValue(value, FpiMethod.RECURRENCE, work, bound)
    return prev


# ---------------------------------------------------------------------------
# infinite upper limit
# ---------------------------------------------------------------------------

def _split_infinite(f, m, nu, tol):
    fin = _fpi_finite(f, m, nu, SPLIT_POINT, tol)
    power = m + nu
    q = quad_adaptive(lambda x: f.eval(x) * x ** (-power), SPLIT_POINT,
                      math.inf, tol=1e-13)
    return FpiValue(fin.value + q.value, FpiMethod.SPLIT_INFINITE,
                    fin.terms_used, fin.tail_bound + q.abs_err_estimate)


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
    return FpiValue(factor * closed, FpiMethod.CLOSED_FORM, 0, 0.0)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

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
    shape = f.exp_family()
    if shape is not None:
        return _fpi_exp_family(f, shape, m, nu, a, tol)
    return _fpi_finite(f, m, nu, a, tol)
