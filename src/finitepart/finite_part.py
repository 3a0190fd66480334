"""Hadamard finite-part integrals of entire functions.

The divergent integrals int_0^a f(x) x^{-m-nu} dx (m >= 1, 0 <= nu < 1,
f entire) acquire finite values once the exactly known diverging group of
terms is dropped.  For finite a the value has an explicit series form in
the Maclaurin coefficients c_k of f:

  nu = 0:   c_{m-1} ln a - sum_{k=0}^{m-2} c_k / ((m-k-1) a^{m-k-1})
                         + sum_{k>=m} c_k a^{k-m+1} / (k-m+1)

  0<nu<1:   sum_{k>=0} c_k a^{k+1-m-nu} / (k+1-m-nu)

with empty sums equal to zero.  At a = infinity each descriptor supplies
its integrability rule and, where it has one, its closed form
(``check_integrable_at_infinity`` and ``fpi_infinite`` in
:mod:`finitepart.entire`); a user stream is admitted only when declared
``CustomSeries(decaying=True)``.  Without a closed form the integral is
split at a0 = 1: the finite part concerns only the origin, so
fpi(f, m, nu, a0) plus an ordinary adaptive integral over [a0, inf) is
exact and involves no cancellation between log a and the tail sum.

:func:`finite_part_integral` is the one entry point for every (m, nu, a);
only the nu = 0 head and the a = inf route depend on the case.
"""

import enum
import math
import os
from dataclasses import dataclass
from itertools import count

from .entire import TaylorFunction, unscale
from .errors import NonconvergenceError
from .oracles import quad_adaptive
from .series import sum_until_small

DEFAULT_TERM_CAP = 10_000
DEFAULT_TOL = 1e-15
NU_GUARD = 1e-12
SPLIT_POINT = 1.0


def term_cap() -> int:
    """Hard cap on summed series terms; FPI_MAX_TERMS overrides it."""
    return int(os.environ.get("FPI_MAX_TERMS", DEFAULT_TERM_CAP))


class FpiMethod(enum.Enum):
    SERIES_FINITE = "SeriesFinite"
    CLOSED_FORM = "ClosedForm"
    SPLIT_INFINITE = "SplitInfinite"


@dataclass(frozen=True)
class FpiValue:
    """A finite-part integral value with evaluation diagnostics."""

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

    Summed by :func:`~finitepart.series.sum_until_small` to ``tol`` within
    term_cap() terms; finite-degree functions are summed exactly.
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

    s = sum_until_small(_series_terms(f.coeff, m, nu, a, k0), tol, term_cap())
    return s.total_or_raise("finite-part series"), s.terms, s.last


def _fpi_finite(f, m, nu, a, tol):
    """Finite part of int_0^a f(x) x^{-m-nu} dx for finite a > 0.

    At nu = 0 the rungs k < m have closed forms (the c_{m-1} ln a head
    and the negative powers below it) and the series starts at k = m; at
    0 < nu < 1 it starts at k = 0.
    """
    if nu != 0.0:
        total, used, bound = _series_sum(f, m, nu, a, tol, start=0)
        return FpiValue(total, FpiMethod.SERIES_FINITE, used, bound)
    head = 0.0
    cm1 = f.coeff(m - 1)
    if cm1 != 0.0:
        head += cm1 * math.log(a)
    for k in range(m - 1):
        c = f.coeff(k)
        if c != 0.0:
            head -= c / ((m - k - 1) * a ** (m - k - 1))
    tail, used, bound = _series_sum(f, m, 0.0, a, tol, start=m)
    return FpiValue(head + tail, FpiMethod.SERIES_FINITE, used, bound)


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
    return _fpi_finite(f, m, nu, a, tol)
