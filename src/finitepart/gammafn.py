"""Small gamma-family helpers used by the series evaluators.

Only the pieces the series representations actually need live here:
digamma at positive integers, log-gamma with sign for arbitrary real
(non-pole) arguments, rising factorials, and the two incomplete-gamma
pieces of the exponential-family finite parts: the generalized
exponential integral E_p(z) for z > 1 (also as e^z E_p(z), which the
closed-form transforms use) and the lower incomplete gamma function.
Negative non-integer arguments go through the reflection
formula so no evaluation ever lands next to a pole of Gamma itself.
"""

import math
from itertools import count

from .errors import NonconvergenceError
from .series import TERM_CAP, sum_until_small

EULER_GAMMA = 0.57721566490153286061
UNIT_ROUNDOFF = 2.0 ** -53

# modified Lentz stops once a convergent moves the value by at most 1 ulp
_CF_EPS = 2.0 ** -52
# below exp(-700) the upper incomplete gamma is lost next to Gamma(s)
_EXP_FLOOR = -700.0

# Harmonic numbers H_0, H_1, ... grown on demand with compensated
# accumulation (error stays below one ulp of the running sum).
_harmonic = [0.0]
_harmonic_c = [0.0]


def harmonic(n: int) -> float:
    """H_n = sum_{j=1..n} 1/j, compensated; H_0 = 0."""
    if n < 0:
        raise ValueError("harmonic index must be >= 0")
    while len(_harmonic) <= n:
        j = len(_harmonic)
        s, c = _harmonic[-1], _harmonic_c[-1]
        y = 1.0 / j - c
        t = s + y
        c = (t - s) - y
        _harmonic.append(t)
        _harmonic_c.append(c)
    return _harmonic[n]


def digamma_int(n: int) -> float:
    """psi(n) for integer n >= 1 via psi(1) = -gamma, psi(n+1) = psi(n) + 1/n."""
    if n < 1:
        raise ValueError("digamma_int defined for positive integers only")
    return harmonic(n - 1) - EULER_GAMMA


def lgamma_signed(x: float) -> tuple[float, float]:
    """Return (log|Gamma(x)|, sign) for real non-pole x.

    Negative arguments use Gamma(x) Gamma(1-x) = pi / sin(pi x); x at or
    within 1e-12 of a non-positive integer raises.
    """
    if x > 0.0:
        return math.lgamma(x), 1.0
    if abs(x - round(x)) < 1e-12:
        raise ValueError(f"Gamma pole at x = {x}")
    s = math.sin(math.pi * x)
    log_abs = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
    return log_abs, math.copysign(1.0, s)


def gamma_real(x: float) -> float:
    """Gamma(x) for real non-pole x, reflection-based for x < 0."""
    log_abs, sign = lgamma_signed(x)
    return sign * math.exp(log_abs)


def gamma_ratio(x: float, y: float) -> float:
    """Gamma(x) / Gamma(y) without overflow, both arguments non-pole."""
    lx, sx = lgamma_signed(x)
    ly, sy = lgamma_signed(y)
    return sx * sy * math.exp(lx - ly)


def pochhammer(x: float, k: int) -> float:
    """Rising factorial (x)_k = x (x+1) ... (x+k-1); (x)_0 = 1."""
    if k < 0:
        raise ValueError("pochhammer order must be >= 0")
    out = 1.0
    for j in range(k):
        out *= x + j
    return out


def expint_scaled(p: float, z: float) -> tuple[float, int]:
    """e^z E_p(z) for p > 0 and z > 1, without forming e^z.

    The even continued fraction of DLMF 8.19.17,
    e^z E_p(z) = 1 / (z+p - 1*p / (z+p+2 - 2*(p+1) / (z+p+4 - ...))),
    by modified Lentz.  Returns (value, iterations); more than TERM_CAP
    iterations raise NonconvergenceError.  Against mpmath the value is
    within 1.1 (iterations + 2) u relative (6,000 points, p = 1-4,
    z from 1 to 300).
    """
    b = z + p
    c = math.inf
    d = 1.0 / b
    h = d
    q = p - 1.0
    # |delta - 1| <= _CF_EPS, as delta - 1 is exact for delta near 1
    lo, hi = 1.0 - _CF_EPS, 1.0 + _CF_EPS
    for i in range(1, TERM_CAP + 1):
        an = -i * (q + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if lo <= delta <= hi:
            return h, i
    raise NonconvergenceError(f"E_{p:g}({z:g}) continued fraction did not "
                              f"converge within {TERM_CAP} iterations")


def expint(p: float, z: float) -> tuple[float, int]:
    """E_p(z) = int_1^inf e^{-z t} t^{-p} dt for p > 0 and z > 1:
    :func:`expint_scaled` times e^{-z}.  Returns (value, iterations)."""
    h, i = expint_scaled(p, z)
    return h * math.exp(-z), i


def lower_gamma(s: float, x: float, rtol: float):
    """gamma(s, x) = int_0^x t^{s-1} e^{-t} dt for s > 0 and x > 0.

    The positive-term series of DLMF 8.7.1,
    x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k)), summed to ``rtol`` by
    :func:`~finitepart.series.sum_until_small`.
    Returns (value, terms, bound), the bound covering the truncation, the
    rounding of the term products and that of x^s e^{-x}.  Where x^s e^{-x}
    leaves float range below and x > s, the value is Gamma(s) to rounding.
    """
    lead = s * math.log(x) - x
    if lead < _EXP_FLOOR and x > s:
        g = math.gamma(s)
        return g, 0, UNIT_ROUNDOFF * g

    def terms():
        t = math.exp(lead) / s
        for k in count(1):
            yield t
            t *= x / (s + k)

    r = sum_until_small(terms(), rtol)
    total = r.total_or_raise("lower incomplete gamma series")
    rounding = (r.terms + 2 + abs(lead)) * UNIT_ROUNDOFF * total
    return total, r.terms, r.last + rounding
