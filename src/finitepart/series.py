"""The one stop rule by which every truncated series in the package is summed."""

from functools import partial
from itertools import count
from math import inf
from typing import NamedTuple

from .errors import NonconvergenceError

# a safety stop, not a tuning knob: every admitted series converges far below it
TERM_CAP = 10_000


class SeriesSum(NamedTuple):
    """Outcome of :func:`sum_until_small`: the total, the number of terms
    added, the magnitudes of the last two terms and of the largest, and
    whether the stop rule was met."""

    total: complex
    terms: int
    last: float
    prev: float
    largest: float
    converged: bool

    def total_or_raise(self, what: str):
        """The total if the stop rule was met; NonconvergenceError if not."""
        if not self.converged:
            how = ("did not converge within" if abs(self.total) < inf
                   else "overflowed after")
            raise NonconvergenceError(f"{what} {how} {self.terms} terms")
        return self.total


# builds a SeriesSum without the Python-level NamedTuple constructor
_new_sum = partial(tuple.__new__, SeriesSum)


def check_tol(tol):
    """Return ``tol``; raise ValueError for one outside (0, 1), nan
    included.  Every entry point that takes a tolerance calls it."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance tol must lie in (0, 1); got {tol!r}")
    return tol


def sum_until_small(terms, rtol, cap=TERM_CAP, start=0.0, offset=0.0):
    """Sum ``terms`` (real or complex) left to right from ``start``.

    A term t is small when |t| <= rtol * |offset + running total|; exact
    zeros are small, and a term that is not small resets the run.
    ``offset`` is a part of the value summed apart (the head of a
    finite-part rung), which the rule measures against but the total
    leaves out, so the caller adds it in its own order.  Summation converges
    on the second small term in a row.  It stops unconverged as soon as the
    running total is not finite (that term counted), after ``cap`` terms
    (none if ``cap <= 0``) or when ``terms`` runs out.

    Terms are added one at a time without compensation, so a caller gets the
    bits of a plain loop over the same terms; complex series pass
    ``start=0j`` for the same reason.  Magnitudes of absent terms read 0.0.
    """
    total = start
    small_run = n = 0
    last = prev = largest = 0.0
    if cap > 0:
        for t in terms:
            n += 1
            total += t
            prev = last
            last = abs(t)
            if last > largest:
                largest = last
            if last > rtol * abs(total + offset):
                small_run = 0
            elif abs(total) < inf:
                small_run += 1
                if small_run >= 2:
                    return _new_sum((total, n, last, prev, largest, True))
            else:  # an overflowed or nan total lands here, never above
                break
            if n == cap:
                break
    return _new_sum((total, n, last, prev, largest, False))


def power_terms(coeff, x, k0, r, xk):
    """coeff(k) x^k for k >= r, x^k by repeated multiplication from
    xk = x^k0 (k0 <= r).  The exact zeros below the zero order r are left
    out, but their powers are still formed, so every term keeps its bits."""
    for _ in range(k0, r):
        xk *= x
    for k in count(r):
        yield coeff(k) * xk
        xk *= x
