"""Leading small-omega behavior of the transforms, from the order m of the
zero of f at the origin alone: a case table, never a numerical fit.

nu = 0:
  m = n-1        log-dominant,        S ~ -d0 ln(omega)
  m <= n-2       power-dominant,      S ~ C omega^{m-n+1}
  m >= n         naive-dominant,      S ~ FPI(f, n, 0, a)

0 < nu < 1:
  m <= n-1       branch-power,        S ~ C omega^{m-n+1-nu}
  m >= n         naive-dominant,      S ~ FPI(f, n, nu, a)

with d0 = f^(m)(0)/m!.  Both power rows are the transform of d0 x^m itself:
C = d0 B(m+1-nu, n-m-1+nu).
"""

import enum
import math
import sys
from functools import partial
from typing import NamedTuple

from .entire import TaylorFunction
from .errors import NonconvergenceError
from .finite_part import finite_part_integral

_TINY = sys.float_info.min  # the smallest normal float
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k-1)), k = 7, ..., 1: the Stirling series of ln Gamma
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260,
             -1 / 360, 1 / 12)


class LeadingKind(enum.Enum):
    LOG_DOMINANT = "LogDominant"
    POWER_DOMINANT = "PowerDominant"
    NAIVE_DOMINANT = "NaiveDominant"
    BRANCH_POWER_DOMINANT = "BranchPowerDominant"


class LeadingBehavior(NamedTuple):
    """The leading term coefficient * omega^exponent (* ln omega where
    ``carries_log``); a NamedTuple, so it unpacks as (kind, coefficient,
    exponent, carries_log)."""

    kind: LeadingKind
    coefficient: float
    exponent: float
    carries_log: bool

    def value_at(self, omega: float) -> float:
        """The term at omega; NonconvergenceError past float range."""
        if not 0.0 < omega < math.inf:
            raise ValueError(
                f"omega must be positive and finite; got {omega!r}")
        try:
            v = self.coefficient * omega**self.exponent
        except OverflowError:  # a float power past float range
            v = math.inf
        if math.isinf(v) or abs(v) < _TINY <= abs(self.coefficient):
            raise NonconvergenceError(f"leading term at omega = {omega!r}, "
                                      f"exponent {self.exponent!r} leaves "
                                      "float range")
        return v * math.log(omega) if self.carries_log else v


# builds a LeadingBehavior without the Python-level NamedTuple constructor
_new_leading = partial(tuple.__new__, LeadingBehavior)


def classify(f: TaylorFunction, n: int, nu: float = 0.0,
             a: float = math.inf) -> LeadingBehavior:
    """Classify the dominant omega -> 0 term of the order-n transform of f.

    ``a`` only matters for the naive-dominant case, whose coefficient is
    the leading finite-part integral (a-dependent by nature).
    """
    if n < 1:
        raise ValueError("order n must be >= 1")
    if not (0.0 <= nu < 1.0):
        raise ValueError("nu must lie in [0, 1)")
    if not a > 0.0:
        raise ValueError("upper limit a must be positive")
    m = f.zero_order()
    d0 = f.coeff(m)
    if nu == 0.0 and m == n - 1:
        return _new_leading((LeadingKind.LOG_DOMINANT, -d0, 0.0, True))
    if m <= n - 1:  # m <= n-2 at nu = 0, whose exponents stay ints
        kind, exponent = ((LeadingKind.BRANCH_POWER_DOMINANT, m - n + 1 - nu)
                          if nu else (LeadingKind.POWER_DOMINANT, m - n + 1))
        return _new_leading(
            (kind, _beta_coefficient(d0, m, n, nu), exponent, False))
    coeff = finite_part_integral(f, n, nu, a).value
    return _new_leading((LeadingKind.NAIVE_DOMINANT, coeff, 0.0, False))


def _beta_coefficient(d0, m, n, nu):
    """d0 B(m+1-nu, n-m-1+nu) = d0 int_0^inf x^(m-nu) (1+x)^-n dx: the exact
    ratio m! (n-m-2)! / (n-1)! at nu = 0, else Gamma(m+1-nu) (Gamma(n-m-1+nu)
    / Gamma(n)), by :func:`_stirling_beta` where Gamma(n) overflows.
    NonconvergenceError where B or d0 B leaves the normal float range."""
    x, y = m + 1 - nu, n - m - 1 + nu
    try:
        if not nu:
            beta = (math.factorial(m) * math.factorial(n - m - 2)
                    / math.factorial(n - 1))
        elif n <= 171:
            beta = math.gamma(x) * (math.gamma(y) / math.gamma(n))
        else:
            beta = _stirling_beta(x, y)
        coeff = d0 * beta
    except OverflowError:
        beta = coeff = math.inf
    if not (_TINY <= beta and _TINY <= abs(coeff) < math.inf):
        raise NonconvergenceError(
            f"leading coefficient d0 B(m+1-nu, n-m-1+nu) at n = {n}, "
            f"m = {m}, nu = {nu!r} leaves float range")
    return coeff


def _stirling_beta(x, y):
    """B(x, y) from Stirling's formula without a term of size s ln s,
    s = x + y, whose rounding would reach the result: for x <= y and
    r = x/s, r^(x-1/2) (2 pi/s)^(1/2) e^E, where
    E = (y - 1/2) log1p(-r) plus the Stirling remainders
    delta(x) + delta(y) - delta(s).  The rounding of r drops out to first
    order, since both factors read it."""
    x, y = min(x, y), max(x, y)
    s = x + y
    r = x / s
    return pow(r, x - 0.5) * (math.sqrt(2.0 * math.pi / s) * math.exp(
        (y - 0.5) * math.log1p(-r) + _stirling_remainder(x)
        + (_stirling_remainder(y) - _stirling_remainder(s))))


def _stirling_remainder(z):
    """delta(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2: from lgamma
    below z = 10, where its terms stay below 40, and from seven terms of the
    Stirling series from there, whose next term is below 3e-17."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LN_2PI
    w = 1.0 / (z * z)
    acc = 0.0
    for c in _STIRLING:
        acc = acc * w + c
    return acc / z
