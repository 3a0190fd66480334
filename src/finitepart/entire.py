"""Entire functions represented by their Maclaurin coefficient streams.

Every function handled by this package is an entire function f with
f(z) = sum_k c_k z^k everywhere.  The built-in descriptors (the
exponential family x^p exp(-b x) of :class:`MonomialExp`, whose p = 0
member is :class:`Exponential`, polynomials and binomial kernels) carry
exact closed forms for coefficients, point values, complex values
and derivatives, so downstream series never inherit coefficient error.
Their exponents are integers >= 0; a whole float such as 2.0 counts as 2.
User-supplied streams go through :class:`CustomSeries`, which must declare
both the coefficients and a point-evaluation callback; nothing here ever
differentiates a black box numerically.

Instances are immutable after construction and safe to share across
threads.  Each keeps two caches, both written without a lock: the
coefficient memo, which is idempotent because ``_coeff`` is a pure
function of k, and the rung ladder (:meth:`TaylorFunction.ladder`), the
finite-part values FPI(f, m, nu, a) of one (nu, a) and the rung source
they are computed from, which is replaced as a whole when another one is
needed; a table grows by replacement, never in place.  A race between
threads can only compute the same value twice.
"""

import cmath
import math
import numbers
from itertools import accumulate, count, islice, repeat
from operator import mul, truediv

from .errors import (DivergentIntegralError, IndeterminateZeroOrderError,
                     NonconvergenceError)
from .gammafn import digamma_int
from .series import power_terms, sum_until_small

EVAL_TERM_CAP = 1024
ZERO_ORDER_SCAN_CAP = 256

_EVAL_RTOL = 1e-15
# k! as floats for the exact-ratio coefficients of MonomialExp; a float
# divided by an int rounds the int the same way, so the bits are unchanged
_FACT = [float(math.factorial(k)) for k in range(151)]


def first_nonzero(f):
    """(k, c_k) for the first nonzero of f's c_0, c_1, ...: the zero order
    and its coefficient.  Reads at most ZERO_ORDER_SCAN_CAP + 1 values; an
    OverflowError or ZeroDivisionError of the stream raises
    NonconvergenceError naming c_k."""
    for k in range(ZERO_ORDER_SCAN_CAP + 1):
        try:
            c = f.coeff(k)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonconvergenceError(
                f"coefficient c_{k} of {f!r} leaves float range in the "
                f"zero-order scan ({type(exc).__name__}: {exc})") from exc
        if c != 0.0:
            return k, c
    raise IndeterminateZeroOrderError(
        f"no nonzero coefficient found for k <= {ZERO_ORDER_SCAN_CAP}"
    )


def _integer(v, what):
    """int(v) for a whole number v (2.0 counts as 2), else ValueError."""
    if not (isinstance(v, numbers.Real) and v % 1 == 0):
        raise ValueError(f"{what} must be an integer; got {v!r}")
    return int(v)


class Ladder:
    """The rung ladder of one (nu, a): the stored finite parts ``rungs``
    {m: FpiValue}, which the recurrence writes and the naive series of
    :mod:`finitepart.stieltjes` reads and extends; ``series``, the one rung
    source of :func:`finitepart.finite_part.rung_source`, whose ``rung(m)``
    computes FPI_m; and ``rule``, the tanh-sinh nodes of the direct
    transforms, on [0, a] at a finite a and on [0, SPLIT_POINT] at
    a = inf; each None until first needed.
    """

    __slots__ = ("rungs", "series", "rule")

    def __init__(self):
        self.rungs = {}
        self.series = self.rule = None


class TaylorFunction:
    """Base class: an entire function known through its Maclaurin series.

    Subclasses implement ``_coeff`` and may override the evaluation hooks
    with closed forms.  The base implementations sum partial series to
    relative tolerance 1e-15 with a hard cap of EVAL_TERM_CAP terms.  At an
    infinite upper limit the base rejects the function and has no closed
    form; descriptors that know better override both hooks.
    """

    def __init__(self):
        self._memo = {}
        # (nu, a, key, Ladder); see ladder()
        self._ladder = (None, None, None, Ladder())

    # -- coefficients ------------------------------------------------

    def coeff(self, k: int) -> float:
        """Maclaurin coefficient c_k, memoized."""
        v = self._memo.get(k)
        if v is None:
            if k < 0:
                raise ValueError("coefficient index must be >= 0")
            v = self._memo[k] = self._coeff(k)
        return v

    def _coeff(self, k: int) -> float:
        raise NotImplementedError

    # -- evaluation ---------------------------------------------------

    def eval(self, x: float) -> float:
        return self._series_eval(x).real

    def eval_complex(self, z: complex) -> complex:
        return self._series_eval(complex(z))

    def _series_eval(self, z: complex) -> complex:
        """sum_k c_k z^k by partial sums, stopped by :func:`sum_until_small`.

        Streams whose nonzero coefficients are separated by runs of two or
        more zeros may truncate early under that rule; such providers
        should supply explicit evaluation callbacks.
        """
        r = self.zero_order()
        s = sum_until_small(power_terms(self.coeff, z, 0, r, 1.0 + 0.0j),
                            _EVAL_RTOL, EVAL_TERM_CAP - r, start=0.0 + 0.0j)
        return s.total_or_raise("series evaluation")

    def derivative_at(self, k: int, x: float) -> float:
        """k-th derivative at x; differentiated series unless overridden."""
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if k == 0:
            return self.eval(x)
        # sum_{j>=k} c_j j!/(j-k)! x^{j-k}, weight and power formed from j = k
        # as in power_terms, and the exact zeros below the zero order left out
        skip = max(self.zero_order() - k, 0)
        weights = accumulate(map(truediv, count(k + 1), count(1)), mul,
                             initial=float(math.factorial(k)))
        powers = accumulate(repeat(x), mul, initial=1.0)
        terms = map(mul, map(mul, map(self.coeff, count(k + skip)),
                             islice(weights, skip, None)),
                    islice(powers, skip, None))
        s = sum_until_small(terms, _EVAL_RTOL, EVAL_TERM_CAP - skip)
        return s.total_or_raise("derivative series")

    # -- structure ----------------------------------------------------

    def zero_order(self) -> int:
        """Order of the zero at the origin: smallest k with c_k != 0."""
        return first_nonzero(self)[0]

    def finite_degree(self):
        """Polynomial degree if the stream terminates, else None."""
        return None

    def exp_family(self):
        """(p, b, c) when f is c x^p exp(-b x), else None."""
        return None

    # -- finite parts -------------------------------------------------

    def ladder(self, nu, a) -> Ladder:
        """The rung ladder of FPI(f, m, nu, a): the stored finite parts and
        the rung source they are computed from.

        The descriptor holds a single (nu, a); another one, or an equal nu
        or a of another type (which can round differently), replaces it
        with a fresh one, so a thread that still holds the old one reads
        consistent rungs.  The objects nu and a of the last call are kept,
        and the same two objects again skip the key.
        """
        lad = self._ladder
        if lad[0] is nu and lad[1] is a:
            return lad[3]
        key = (nu, type(nu), a, type(a))
        lad = self._ladder = (nu, a, key,
                              lad[3] if lad[2] == key else Ladder())
        return lad[3]

    # -- infinite upper limit ---------------------------------------

    def check_integrable_at_infinity(self, m: int, nu: float) -> None:
        """Raise DivergentIntegralError unless f(x) x^{-m-nu} is
        integrable at infinity."""
        raise DivergentIntegralError(
            f"cannot establish integrability at infinity for {self!r}"
        )

    def fpi_infinite(self, m: int, nu: float):
        """Closed form of the finite part of int_0^inf f(x) x^{-m-nu} dx.
        Beyond float range (large m) the value is not finite or
        OverflowError is raised.  A descriptor with a closed form overrides
        this hook and returns a number for every admitted (m, nu); one that
        keeps this base, which returns None, has its rungs split and its
        transforms routed (``finite_part.splits_at_infinity``)."""
        return None

    # -- scaling ------------------------------------------------------

    def scaled(self, factor: float) -> "TaylorFunction":
        return Scaled(self, factor)

    def __mul__(self, factor):
        return self.scaled(float(factor))

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        return self.scaled(1.0 / float(divisor))


class Polynomial(TaylorFunction):
    """f(x) = sum_{k=r}^{s} a_k x^k with a_r != 0 and a_s != 0.

    ``coeffs[i]`` holds a_{lowest+i}; leading/trailing zeros are trimmed.
    """

    def __init__(self, coeffs, lowest: int = 0):
        super().__init__()
        lowest = _integer(lowest, "lowest exponent")
        if lowest < 0:
            raise ValueError("lowest exponent must be >= 0")
        coeffs = list(coeffs)
        for i, c in enumerate(coeffs):
            try:
                coeffs[i] = c = float(c)
            except OverflowError:  # an int past float range
                raise ValueError(f"polynomial coefficient of x^{lowest + i} "
                                 "leaves float range") from None
            if not math.isfinite(c):
                raise ValueError(f"polynomial coefficient {c!r} is not finite")
        while coeffs and coeffs[0] == 0.0:
            coeffs.pop(0)
            lowest += 1
        while coeffs and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            raise ValueError("polynomial must not be identically zero")
        self.coeffs = tuple(coeffs)
        self.lowest = lowest

    @property
    def degree(self) -> int:
        return self.lowest + len(self.coeffs) - 1

    def _coeff(self, k):
        i = k - self.lowest
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0.0

    def eval(self, x):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x**self.lowest

    def eval_complex(self, z):
        return self.eval(complex(z))

    def derivative_at(self, k, x):
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if k == 0:
            return self.eval(x)
        total = 0.0
        for i, c in enumerate(self.coeffs):
            j = self.lowest + i
            if j >= k:
                total += c * math.perm(j, k) * x ** (j - k)
        return total

    def zero_order(self):
        return self.lowest

    def finite_degree(self):
        return self.degree

    def check_integrable_at_infinity(self, m, nu):
        # need degree - m - nu < -1
        max_deg = m - 2 if nu == 0.0 else m - 1
        if self.degree > max_deg:
            raise DivergentIntegralError(
                f"polynomial of degree {self.degree} diverges at infinity "
                f"against x^(-{m}-{nu:g})"
            )

    def fpi_infinite(self, m, nu):
        """0: every admissible term vanishes as a -> inf."""
        return 0.0

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)}, lowest={self.lowest})"


class BinomialPoly(Polynomial):
    """f(x) = x^p (1-x)^q for non-negative integers p, q."""

    def __init__(self, p: int, q: int):
        p = _integer(p, "BinomialPoly exponent p")
        q = _integer(q, "BinomialPoly exponent q")
        if p < 0 or q < 0:
            raise ValueError("BinomialPoly requires p, q >= 0")
        coeffs = [(-1) ** j * math.comb(q, j) for j in range(q + 1)]
        super().__init__(coeffs, lowest=p)
        self.p = p
        self.q = q

    def eval(self, x):
        return x**self.p * (1.0 - x) ** self.q

    eval_complex = eval

    def check_integrable_at_infinity(self, m, nu):
        raise DivergentIntegralError(
            "BinomialPoly is not admitted at an infinite upper limit"
        )

    def __repr__(self):
        return f"BinomialPoly(p={self.p}, q={self.q})"


class MonomialExp(TaylorFunction):
    """f(x) = x^p exp(-b x) for integer p >= 0 and b > 0."""

    def __init__(self, p: int, b: float):
        super().__init__()
        p = _integer(p, "MonomialExp exponent p")
        if p < 0:
            raise ValueError("MonomialExp requires p >= 0")
        if b <= 0:
            raise ValueError(f"{type(self).__name__} requires b > 0")
        if not math.isfinite(b):
            raise ValueError(f"{type(self).__name__} b = {b!r} is not finite")
        self.p = p
        self.b = float(b)

    def _coeff(self, k):
        # (-b)^j / j!, j = k - p: exact ratio, log form once j! overflows
        j = k - self.p
        if j < 0:
            return 0.0
        if j <= 150:
            return (-self.b) ** j / _FACT[j]
        mag = math.exp(j * math.log(self.b) - math.lgamma(j + 1))
        return -mag if j % 2 else mag

    def eval(self, x):
        return x**self.p * math.exp(-self.b * x)

    def eval_complex(self, z):
        w = cmath.exp(-self.b * z)
        # z**0 * w would turn an imaginary part of -0.0 into +0.0
        return z**self.p * w if self.p else w

    def derivative_at(self, k, x):
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        if not self.p:
            return (-self.b) ** k * math.exp(-self.b * x)
        p, b = self.p, self.b
        # Leibniz rule from its j = 0 term; the monomial factor dies after p
        # differentiations
        total = x**p * (-b) ** k
        for j in range(1, min(k, p) + 1):
            total += (math.comb(k, j) * math.perm(p, j) * x ** (p - j)
                      * (-b) ** (k - j))
        return total * math.exp(-b * x)

    def zero_order(self):
        return self.p

    def exp_family(self):
        return self.p, self.b, 1.0

    def check_integrable_at_infinity(self, m, nu):
        """x^p exp(-b x) x^{-m-nu} is integrable at infinity for every m, nu."""

    def fpi_infinite(self, m, nu):
        """q = m - p <= 0:      the integral Gamma(p-m+1-nu) / b^(p-m+1-nu);
        q >= 1, nu = 0:      (-1)^q b^{q-1} (ln b - psi(q)) / (q-1)!
        q >= 1, 0 < nu < 1:  (-1)^q b^{q+nu-1} pi / (sin(pi nu) Gamma(q+nu))"""
        b, q = self.b, m - self.p
        if q < 1:
            arg = self.p - m + 1 - nu
            return math.gamma(arg) / b ** arg
        if nu == 0.0:
            return ((-1.0) ** q * b ** (q - 1) * (math.log(b) - digamma_int(q))
                    / math.factorial(q - 1))
        return ((-1.0) ** q * b ** (q + nu - 1) * math.pi
                / (math.sin(math.pi * nu) * math.gamma(q + nu)))

    def __repr__(self):
        return f"MonomialExp(p={self.p}, b={self.b:g})"


class Exponential(MonomialExp):
    """f(x) = exp(-b x), b > 0: the p = 0 member of :class:`MonomialExp`."""

    def __init__(self, b: float):
        super().__init__(0, b)

    def __repr__(self):
        return f"Exponential(b={self.b:g})"


class CustomSeries(TaylorFunction):
    """User-supplied entire function.

    Parameters
    ----------
    coeff_fn : callable
        Maps k >= 0 to the Maclaurin coefficient c_k.  The provider owns
        rounding: zero-order detection compares these values to 0.0 exactly.
    eval_fn : callable
        Point evaluation on the real axis.  Required; the library never
        differentiates a black box, but real evaluation must not depend on
        series convergence heuristics either.
    eval_complex_fn : callable, optional
        Complex evaluation; partial sums of the stream are used when absent.
    entire : bool
        Declared contract that the stream has infinite radius of
        convergence.  It cannot be verified here and must be True.
    decaying : bool
        Declares f(x) x^{-1} integrable at infinity (e.g. exponential
        decay), which admits the function to infinite-limit finite parts.
    """

    def __init__(self, coeff_fn, eval_fn, eval_complex_fn=None, *,
                 entire: bool = True, decaying: bool = False, label: str = "custom"):
        super().__init__()
        if not entire:
            raise ValueError("CustomSeries requires a declared-entire stream")
        self.coeff_fn = coeff_fn
        self.eval_fn = eval_fn
        self.eval_complex_fn = eval_complex_fn
        self.decaying = bool(decaying)
        self.label = label

    def _coeff(self, k):
        return float(self.coeff_fn(k))

    def eval(self, x):
        return float(self.eval_fn(x))

    def eval_complex(self, z):
        if self.eval_complex_fn is not None:
            return complex(self.eval_complex_fn(z))
        return self._series_eval(complex(z))

    def check_integrable_at_infinity(self, m, nu):
        if not self.decaying:
            raise DivergentIntegralError(
                "custom series did not declare integrability at infinity"
            )

    def __repr__(self):
        return f"CustomSeries({self.label})"


class Scaled(TaylorFunction):
    """c * f for a nonzero scalar c; finite parts and transforms are linear."""

    def __init__(self, base: TaylorFunction, factor: float):
        super().__init__()
        if isinstance(base, Scaled):
            factor *= base.factor
            base = base.base
        if factor == 0.0:
            raise ValueError("scale factor must be nonzero")
        if not math.isfinite(factor):
            raise ValueError(f"scale factor {factor!r} is not finite")
        self.base = base
        self.factor = float(factor)

    def _coeff(self, k):
        c = self.factor * self.base.coeff(k)
        if math.isinf(c):
            raise NonconvergenceError(
                f"coefficient {k} of {self!r} leaves float range")
        return c

    def eval(self, x):
        return self.factor * self.base.eval(x)

    def eval_complex(self, z):
        return self.factor * self.base.eval_complex(z)

    def derivative_at(self, k, x):
        return self.factor * self.base.derivative_at(k, x)

    def zero_order(self):
        return self.base.zero_order()

    def finite_degree(self):
        return self.base.finite_degree()

    def exp_family(self):
        shape = self.base.exp_family()
        if shape is None:
            return None
        p, b, c = shape
        return p, b, self.factor * c

    def check_integrable_at_infinity(self, m, nu):
        self.base.check_integrable_at_infinity(m, nu)

    def __repr__(self):
        return f"{self.factor:g}*{self.base!r}"


def unscale(f: TaylorFunction) -> tuple[TaylorFunction, float]:
    """Split f into (base, factor); identity for unscaled functions."""
    if isinstance(f, Scaled):
        return f.base, f.factor
    return f, 1.0
