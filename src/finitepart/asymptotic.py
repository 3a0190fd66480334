"""Leading small-omega behavior of the transforms, from the zero order of f.

The classification is purely analytic: it consumes the order m of the zero
of f at the origin and a case table, never a numerical fit.

nu = 0:
  m = n-1        log-dominant,        S ~ -d0 ln(omega)
  m <= n-2       power-dominant,      S ~ C / omega^{s-1},  s = n - m
  m >= n         naive-dominant,      S ~ FPI(f, n, 0, a)

0 < nu < 1:
  m <= n-1       branch-power,        S ~ C omega^{m-n+1-nu}
  m >= n         naive-dominant,      S ~ FPI(f, n, nu, a)

with d0 the first nonzero Maclaurin coefficient of f.
"""

import enum
import math
from functools import partial
from typing import NamedTuple

from .entire import TaylorFunction
from .finite_part import finite_part_integral
from .gammafn import pochhammer


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
        if not 0.0 < omega < math.inf:
            raise ValueError(
                f"omega must be positive and finite; got {omega!r}")
        v = self.coefficient
        if self.exponent != 0.0:
            v *= omega**self.exponent
        if self.carries_log:
            v *= math.log(omega)
        return v


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

    if nu == 0.0:
        if m == n - 1:
            return _new_leading((LeadingKind.LOG_DOMINANT, -d0, 0.0, True))
        if m <= n - 2:
            s = n - m
            # the alternating factorial sum is the Beta integral
            # B(s-1, n-s+1): an exact ratio of integers, rounded once
            beta = (math.factorial(s - 2) * math.factorial(n - s)
                    / math.factorial(n - 1))
            return _new_leading(
                (LeadingKind.POWER_DOMINANT, d0 * beta, -(s - 1), False))
    elif m <= n - 1:
        acc = 0.0
        for k in range(n):
            j = m - n + k + 1
            if j < 0:
                continue
            acc += (
                (-1) ** k * pochhammer(nu, k)
                / (math.factorial(k) * math.factorial(n - 1 - k)
                   * math.factorial(j))
            )
        coeff = (
            math.pi / math.sin(math.pi * nu)
            * d0 * math.factorial(m) * (-1.0) ** (m - n + 1) * acc
        )
        return _new_leading(
            (LeadingKind.BRANCH_POWER_DOMINANT, coeff, m - n + 1 - nu, False))
    coeff = finite_part_integral(f, n, nu, a).value
    return _new_leading((LeadingKind.NAIVE_DOMINANT, coeff, 0.0, False))


def leading_term(f: TaylorFunction, n: int, nu: float, omega: float,
                 a: float = math.inf) -> float:
    """Numeric value of the classified leading term at one omega."""
    return classify(f, n, nu, a).value_at(omega)
