"""Series evaluators for Gauss 2F1 and Kummer U at Stieltjes-type parameters.

Both functions admit incomplete or complete generalized-Stieltjes integral
representations, so the exact naive + singular decomposition turns into
series representations valid where the canonical power series is useless
(2F1 beyond the unit disk, U near the origin).  Those series converge
like (omega/a)^k, omega = 1/zeta and a = 1 for 2F1, so where the
transform core routes omega > a/2 to its direct integral, at zeta < 2,
the integer 2F1 family takes that integral instead of its series
(:func:`gauss2f1_integer`).  Four parameter families are covered:

  2F1(n, r; s; -zeta)              positive integers, r+1 < s < n+1, zeta > 1
  2F1(n, 1-mu; s-mu+2; -zeta)      n, s positive integers, 0 < mu < 1, zeta > 1
  U(s, s+1-n, omega)               integer s >= 1 (both n >= s and n < s)
  U(a, a-n+1, omega)               0 < a < 1, integer n >= 1, omega > 0

Empty sums are zero and 1/(negative integer)! is zero throughout.
"""

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .entire import BinomialPoly
from .errors import NonconvergenceError
from .gammafn import EULER_GAMMA, digamma_int, gamma_ratio, gamma_real
from .series import sum_until_small
from .stieltjes import DEFAULT_EVAL_TOL, _direct, _routed

_SERIES_RTOL = 1e-15
_MU_GUARD = 1e-12


# ---------------------------------------------------------------------------
# parameter families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gauss2F1IntParams:
    """2F1(n, r; s; -zeta) with positive integers in the window r+1 < s < n+1."""

    n: int
    r: int
    s: int
    zeta: float

    def __post_init__(self):
        for name in ("n", "r", "s"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"{name} must be a positive integer")
        if not (self.r + 1 < self.s < self.n + 1):
            raise ValueError(
                f"parameters must satisfy r+1 < s < n+1; got r={self.r}, "
                f"s={self.s}, n={self.n}"
            )
        if not 1.0 < self.zeta < math.inf:
            raise ValueError(f"zeta must be finite and exceed 1; "
                             f"got {self.zeta!r}")


@dataclass(frozen=True)
class Gauss2F1BranchParams:
    """2F1(n, 1-mu; s-mu+2; -zeta) with 0 < mu < 1 and zeta > 1."""

    n: int
    mu: float
    s: int
    zeta: float

    def __post_init__(self):
        for name in ("n", "s"):
            v = getattr(self, name)
            if not (isinstance(v, int) and v >= 1):
                raise ValueError(f"{name} must be a positive integer")
        if not (_MU_GUARD < self.mu < 1.0 - _MU_GUARD):
            raise ValueError("mu must lie strictly inside (0, 1)")
        if not 1.0 < self.zeta < math.inf:
            raise ValueError(f"zeta must be finite and exceed 1; "
                             f"got {self.zeta!r}")


class KummerRegime(enum.Enum):
    INT_ORDER_N_GE_S = "IntOrder_n_ge_s"
    INT_ORDER_N_LT_S = "IntOrder_n_lt_s"
    FRAC_ORDER = "FracOrder"


@dataclass(frozen=True)
class KummerParams:
    """U(s, s+1-n, omega) for integer s, or U(a, a-n+1, omega) for 0 < a < 1."""

    s_or_a: float
    n: int
    omega: float
    regime: KummerRegime = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not 0.0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite; "
                             f"got {self.omega!r}")
        v = self.s_or_a
        if isinstance(v, int) and v >= 1:
            regime = (KummerRegime.INT_ORDER_N_GE_S if self.n >= v
                      else KummerRegime.INT_ORDER_N_LT_S)
        elif 0.0 < v < 1.0:
            regime = KummerRegime.FRAC_ORDER
        else:
            raise ValueError(
                "first parameter must be a positive integer s or a real in (0,1)"
            )
        object.__setattr__(self, "regime", regime)


def _sum_series(terms, what):
    """sum_until_small to relative tolerance 1e-15."""
    return sum_until_small(terms, _SERIES_RTOL).total_or_raise(what)


# ---------------------------------------------------------------------------
# 2F1, integer parameters
# ---------------------------------------------------------------------------

def _gauss_int_ak(n, r, s, k) -> Fraction:
    # finite part of int_0^1 x^{r-1}(1-x)^{s-r-1} x^{-k-n} dx over (s-r-1)!
    acc = Fraction(0)
    for l in range(s - r):
        acc += Fraction((-1) ** l,
                        math.factorial(l) * math.factorial(s - r - 1 - l)
                        * (l + r - k - n))
    return acc


def _gauss_int_naive(n, r, s, zeta):
    pref = math.factorial(s - 1) / (math.factorial(n - 1) * math.factorial(r - 1))

    def terms():
        mk = math.factorial(n - 1) * zeta ** (-n)
        for k in count():
            yield (-1) ** k * mk * float(_gauss_int_ak(n, r, s, k))
            mk *= (n + k) / ((k + 1) * zeta)

    return pref * _sum_series(terms(), "2F1 naive series")


def _gauss_int_singular(n, r, s, zeta):
    acc = 0.0
    for m in range(s - r):
        w = 1.0 / math.factorial(s - r - m - 1)
        acc += float(_kummer_dm(r, n, m)) * w / (
            math.factorial(m) * (1.0 + zeta) ** m
        )
    return ((-1) ** (r - 1) * math.factorial(s - 1)
            / (zeta ** (s - 1) * (zeta + 1.0) ** (r + 1 - s)) * acc)


def gauss2f1_integer(p: Gauss2F1IntParams) -> float:
    """2F1(n, r; s; -zeta), by one of two methods (DLMF 15.6.1):

    * at zeta < 2, where omega = 1/zeta > 1/2 and the transform core routes
      omega > a/2 at a = 1, the Euler integral
      (s-r) C(s-1, r-1) zeta^{-n} int_0^1 x^{r-1} (1-x)^{s-r-1}
      (1/zeta + x)^{-n} dx, taken by the core's direct route at
      DEFAULT_EVAL_TOL; NonconvergenceError where that integral is refused
      or its own bound exceeds DEFAULT_EVAL_TOL times its value;
    * elsewhere the convergent large-argument expansion, naive + singular.

    NonconvergenceError also where a factorial, the polynomial's
    coefficients or the value leave float range.
    """
    n, r, s, zeta = p.n, p.r, p.s, p.zeta
    what = f"2F1(n, r; s; -zeta) at n = {n}, r = {r}, s = {s}, zeta = {zeta!r}"
    omega = 1.0 / zeta
    try:
        f = BinomialPoly(r - 1, s - r - 1)
    except ValueError as exc:  # a binomial coefficient past float range
        raise NonconvergenceError(f"{what} leaves float range") from exc
    if _routed(f, omega, 1.0):
        got = _direct(f, n, 0.0, omega, 1.0, DEFAULT_EVAL_TOL, "pole")
        if got is None:
            raise NonconvergenceError(f"{what}: its integral over [0, 1] "
                                      "did not converge")
        direct, bound = got
        if not bound <= DEFAULT_EVAL_TOL * abs(direct):
            raise NonconvergenceError(
                f"{what}: its integral's bound is {bound / abs(direct):.3g} "
                f"of its value, above {DEFAULT_EVAL_TOL:g}")
        try:
            value = (s - r) * math.comb(s - 1, r - 1) * zeta ** -n * direct
        except OverflowError:  # C(s-1, r-1) past float range
            value = math.inf
        if 0.0 < value < math.inf:
            return value
        raise NonconvergenceError(f"{what} leaves float range")
    try:
        return (_gauss_int_naive(n, r, s, zeta)
                + _gauss_int_singular(n, r, s, zeta))
    except OverflowError as exc:  # factorials past float range
        raise NonconvergenceError(f"{what} leaves float range") from exc


# ---------------------------------------------------------------------------
# 2F1, branch-point parameters
# ---------------------------------------------------------------------------

def _gauss_branch_naive(n, s, mu, zeta):
    g = gamma_real(s - mu + 2.0)
    pref = g / (gamma_real(1.0 - mu) * math.factorial(n - 1) * zeta**n)

    def terms():
        # b_k = Gamma(1-mu-n-k)/Gamma(s-mu+2-n-k); recurrence avoids
        # repeated reflection near the negative axis
        bk = gamma_ratio(1.0 - mu - n, s - mu + 2.0 - n)
        mk = math.factorial(n - 1)
        for k in count():
            yield (-1) ** k * mk * bk * zeta ** (-k)
            bk *= (s - mu + 1.0 - n - k) / (-mu - n - k)
            mk *= (n + k) / (k + 1)

    return pref * _sum_series(terms(), "2F1 branch naive series")


def _gauss_branch_singular(n, s, mu, zeta):
    g = gamma_real(s - mu + 2.0)
    acc = 0.0
    for k in range(max(0, n - s - 1), n):
        w = 1.0 / math.factorial(s - n + k + 1)
        acc += ((-1) ** k * gamma_real(mu + k) * w
                / (math.factorial(k) * math.factorial(n - k - 1)
                   * (1.0 + zeta) ** (n - k)))
    return ((-1) ** (n + 1) * g * (1.0 + zeta) ** (s + 1)
            / zeta ** (s - mu + 1.0) * acc)


def gauss2f1_branch(p: Gauss2F1BranchParams) -> float:
    """2F1(n, 1-mu; s-mu+2; -zeta) as a convergent large-argument expansion."""
    n, s, mu, zeta = p.n, p.s, p.mu, p.zeta
    try:
        return (_gauss_branch_naive(n, s, mu, zeta)
                + _gauss_branch_singular(n, s, mu, zeta))
    except OverflowError as exc:
        raise NonconvergenceError(
            f"2F1(n, 1-mu; s-mu+2; -zeta) at n = {n}, mu = {mu!r}, s = {s}, "
            f"zeta = {zeta!r} leaves float range") from exc


def gauss2f1_leading(p) -> float:
    """Leading zeta -> infinity behavior of either 2F1 family."""
    if isinstance(p, Gauss2F1IntParams):
        n, r, s, z = p.n, p.r, p.s, p.zeta
        a0 = float(_gauss_int_ak(n, r, s, 0))
        c0 = float(_kummer_dm(r, n, 0))
        lead = math.factorial(s - 1) / (math.factorial(r - 1) * z**n) * a0
        lead += ((-1) ** (r - 1) * math.factorial(s - 1) * c0
                 / (z ** (s - 1) * (z + 1.0) ** (r + 1 - s)
                    * math.factorial(s - r - 1)))
        return lead
    if isinstance(p, Gauss2F1BranchParams):
        n, s, mu, z = p.n, p.s, p.mu, p.zeta
        g = gamma_real(s - mu + 2.0)
        b0 = gamma_ratio(1.0 - mu - n, s - mu + 2.0 - n)
        lead = g / (gamma_real(1.0 - mu) * z**n) * b0
        lead += (g * gamma_real(mu + n - 1.0) * (1.0 + z) ** s
                 / (math.factorial(s) * math.factorial(n - 1)
                    * z ** (s - mu + 1.0)))
        return lead
    raise TypeError("expected Gauss2F1IntParams or Gauss2F1BranchParams")


# ---------------------------------------------------------------------------
# Kummer U
# ---------------------------------------------------------------------------

def _kummer_dm(s, n, m) -> Fraction:
    # also the singular-part coefficients of 2F1(n, r; s; -zeta), at s = r
    acc = Fraction(0)
    for l in range(n - 1 - m):
        if s - l - 1 < 0:
            continue
        acc += Fraction((-1) ** (l + m),
                        math.factorial(l) * math.factorial(s - l - 1)
                        * (n - 1 - l - m))
    return acc


def _kummer_int(s, n, omega):
    # term-by-term integrals are divergent from k0 = max(0, s-n) on
    pref = ((-1.0) ** (n - s) * omega ** (n - s)
            / (math.factorial(s - 1) * math.factorial(n - 1)))
    k0 = max(0, s - n)

    def terms():
        rk = (math.factorial(n + k0 - 1)
              / (math.factorial(k0 + n - s) * math.factorial(k0)))
        wk = omega**k0
        for k in count(k0):
            yield rk * digamma_int(k + n + 1 - s) * wk
            rk *= (n + k) / ((k + n - s + 1) * (k + 1))
            wk *= omega

    t1 = pref * _sum_series(terms(), "Kummer U series")
    if n < s:
        # the first s-n terms integrate as ordinary Gamma integrals
        head = 0.0
        for k in range(s - n):
            head += (math.factorial(n + k - 1) * math.factorial(s - n - k - 1)
                     * (-omega) ** k / math.factorial(k))
        head *= omega ** (n - s) / (math.factorial(s - 1) * math.factorial(n - 1))
        t1 = head + t1

    log_sum = 0.0
    for j in range(min(n, s)):
        log_sum += omega ** (n - 1 - j) / (
            math.factorial(j) * math.factorial(n - 1 - j)
            * math.factorial(s - j - 1)
        )
    t_log = (-1.0) ** (n + s + 1) * math.exp(omega) * math.log(omega) * log_sum

    poly_sum = 0.0
    for m in range(n - 1):
        poly_sum += omega**m / math.factorial(m) * float(_kummer_dm(s, n, m))
    t_poly = (-1.0) ** (s - 1) * math.exp(omega) * poly_sum
    return t1 + t_log + t_poly


def _kummer_frac(a, n, omega):
    pref = ((-1.0) ** n * gamma_real(1.0 - a) * omega ** (n - a)
            / math.factorial(n - 1))

    def terms():
        rk = math.factorial(n - 1) / gamma_real(n + 1.0 - a)
        wk = 1.0
        for k in count():
            yield rk * wk
            rk *= (n + k) / ((n + k + 1.0 - a) * (k + 1))
            wk *= omega

    t1 = pref * _sum_series(terms(), "Kummer U series")

    acc = 0.0
    for k in range(n):
        acc += (gamma_real(k + 1.0 - a)
                / (math.factorial(k) * math.factorial(n - 1 - k)
                   * (-omega) ** k))
    t2 = (-1.0) ** (n + 1) * math.exp(omega) * omega ** (n - 1) * acc
    return t1 + t2


def kummer_u(p: KummerParams) -> float:
    """Kummer U at the covered parameter families, by regime."""
    frac = p.regime is KummerRegime.FRAC_ORDER
    try:
        if frac:
            return _kummer_frac(float(p.s_or_a), p.n, p.omega)
        return _kummer_int(int(p.s_or_a), p.n, p.omega)
    except OverflowError as exc:
        form = "U(a, a-n+1, omega) at a" if frac else "U(s, s+1-n, omega) at s"
        raise NonconvergenceError(
            f"{form} = {p.s_or_a!r}, n = {p.n}, omega = {p.omega!r} "
            "leaves float range") from exc


def kummer_u_leading(p: KummerParams) -> float:
    """Leading omega -> 0 behavior of U at the covered families,
    including the exp(omega) and ln(omega) factors of the dominant rows."""
    w, n = p.omega, p.n
    if p.regime is KummerRegime.FRAC_ORDER:
        a = float(p.s_or_a)
        return ((-1.0) ** n * gamma_real(1.0 - a) * w ** (n - a)
                / gamma_real(n + 1.0 - a)
                + math.exp(w) * gamma_real(n - a) / math.factorial(n - 1))
    s = int(p.s_or_a)
    d0 = float(_kummer_dm(s, n, 0))
    if p.regime is KummerRegime.INT_ORDER_N_GE_S:
        val = ((-1.0) ** (n - s) * digamma_int(n + 1 - s) * w ** (n - s)
               / (math.factorial(s - 1) * math.factorial(n - s)))
        if s == n:
            val += (-1.0) ** (n + s + 1) * math.exp(w) * math.log(w) \
                / math.factorial(n - 1)
        val += (-1.0) ** (s - 1) * math.exp(w) * d0
        return val
    val = math.factorial(s - n - 1) / (math.factorial(s - 1) * w ** (s - n))
    val += ((-1.0) ** (n - s + 1) * EULER_GAMMA
            / (math.factorial(s - n) * math.factorial(n - 1)))
    val += ((-1.0) ** (n + s + 1) * math.exp(w) * math.log(w)
            / (math.factorial(n - 1) * math.factorial(s - n)))
    val += (-1.0) ** (s - 1) * math.exp(w) * d0
    return val
