"""Exact small-parameter evaluation of generalized Stieltjes transforms.

For entire f and 0 < omega < a the incomplete transform splits exactly
(not just asymptotically) into a naive part and a singular part,

  int_0^a x^{-nu} f(x) (omega+x)^{-n} dx
      = sum_{k>=0} binom(-n,k) omega^k  FPI(f, n+k, nu, a)  +  sing(omega),

where FPI denotes the finite part of the divergent integral produced by
term-by-term integration and sing collects the pole (nu = 0) or
branch-point (0 < nu < 1) contributions of f(z) (omega+z)^{-n} that
term-by-term integration misses.  The singular part carries the dominant
behavior as omega -> 0 whenever the zero order of f at the origin is
below n.  :func:`evaluate_transform` computes both parts for every nu;
only the singular term depends on the case.  The quadratic kernel
1/(omega^2 + x^2) follows the same pattern with residues at +-i omega,
which is what the high-Peclet effective diffusivity expansion needs.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, count, repeat
from operator import mul

from .entire import TaylorFunction
from .finite_part import finite_part_integral
from .gammafn import pochhammer
from .series import TERM_CAP, sum_until_small

DEFAULT_EVAL_TOL = 1e-12
_FPI_TOL = 1e-15

# n -> the signed binomials (-1)^k binom(n+k-1,k) as floats, k = 0, 1, ...;
# grown by replacement, never in place, so a thread reads a whole list
_BINOMS = {}


@dataclass(frozen=True)
class TransformSpec:
    """One generalized Stieltjes evaluation: int_0^a x^{-nu} f/(omega+x)^n."""

    f: TaylorFunction
    n: int
    omega: float
    a: float = math.inf
    nu: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError("transform order n must be an integer >= 1")
        if not (0.0 <= self.nu < 1.0):
            raise ValueError("branch exponent nu must lie in [0, 1)")
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")
        if not self.a > 0.0:
            raise ValueError("upper limit a must be positive")
        if not self.omega < self.a:
            raise ValueError("expansion requires omega < a")


@dataclass(frozen=True)
class ExpansionResult:
    """Naive + singular decomposition of one transform value."""

    naive_sum: float
    singular: float
    total: float
    k_used: int
    tail_estimate: float
    converged: bool = True
    per_term: list = field(default=None, compare=False)


def singular_term_integer(f: TaylorFunction, n: int, omega: float) -> float:
    """Pole contribution of f(z)/(omega+z)^n at z = -omega (nu = 0 case)."""
    if n < 1:
        raise ValueError("order n must be >= 1")
    if not omega > 0:
        raise ValueError("omega must be positive")
    # the order-0 derivative is f itself: one eval call
    x = -omega
    top = f.derivative_at(n - 1, x) if n > 1 else f.eval(x)
    total = -top * math.log(omega) / math.factorial(n - 1)
    for k in range(n - 1):
        total += (f.derivative_at(k, x) if k else f.eval(x)) / (
            math.factorial(k) * (n - 1 - k) * omega ** (n - k - 1)
        )
    return total


def singular_term_branch(f: TaylorFunction, n: int, nu: float,
                         omega: float) -> float:
    """Branch-point contribution of z^{-nu} f(z)/(omega+z)^n (0 < nu < 1)."""
    if n < 1:
        raise ValueError("order n must be >= 1")
    if not (0.0 < nu < 1.0):
        raise ValueError("nu must lie strictly between 0 and 1")
    if not omega > 0:
        raise ValueError("omega must be positive")
    x = -omega
    total = 0.0
    for k in range(n):
        j = n - 1 - k
        total += (
            (f.derivative_at(j, x) if j else f.eval(x))
            * pochhammer(nu, k)
            / (math.factorial(k) * math.factorial(n - 1 - k) * omega**k)
        )
    return math.pi / (math.sin(math.pi * nu) * omega**nu) * total


def _powers(x):
    """1, x, x^2, ... by repeated multiplication."""
    return accumulate(repeat(x), mul, initial=1.0)


def _binomials(n, size):
    """The signed binomials (-1)^k binom(n+k-1,k) of n for k < size at
    least, each an exact integer rounded once to a float; grown by
    replacement."""
    bs = _BINOMS.get(n, [])
    if len(bs) < size:
        bs = _BINOMS[n] = bs + [float((-1) ** k * math.comb(n + k - 1, k))
                                for k in range(len(bs), size)]
    return bs


def _naive_cap(k_max):
    """The naive-series cap: k_max, or TERM_CAP when it is None."""
    if k_max is None:
        return TERM_CAP
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0; got {k_max}")
    return k_max


def _naive_series(f, nu, a, m0, step, n, ostep, tol, cap, keep_terms):
    """sum_k binom(-n,k) ostep^k FPI(f, m0 + step*k, nu, a) for k = 0..cap.

    The rungs do not depend on omega, so a sweep on one descriptor reads
    them from two tables: the rung values of (m0, step) on f's rung ladder
    (:meth:`~finitepart.entire.TaylorFunction.ladder`) and the signed
    binomials of n.  A term is (binomial * ostep^k) * rung, ostep^k by
    repeated multiplication from 1; over the stored rungs the terms are
    formed by ``map``.  Past them one rung at a time is read from the
    ladder's stored rungs or computed by :func:`finite_part_integral` and
    stored, and only the rungs the sum reaches are; its binomial comes from
    the table of n, extended by one where the climb passes its end, so no
    binomial is formed that the sum does not reach.  A rung that raises is
    not stored, so it is computed, and raises, again on the next call.
    The value list grows by replacement once the sum is done, never in
    place.

    Summed by :func:`~finitepart.series.sum_until_small`; without
    convergence the partial sum is returned and the flag reports it.  The
    tail estimate is the larger of the last two term magnitudes, so an
    isolated near-zero term (a sign change passing through the finite-part
    sequence) cannot make the estimate under-cover the remainder.
    Returns (total, k_used, tail_estimate, converged, rows).
    """
    lad = f.ladder(nu, a, _FPI_TOL)
    key = (m0, step)
    fs = lad.naive.get(key, [])
    ws = _powers(ostep)
    new = []

    def climb():
        rungs = lad.rungs
        bs = _BINOMS.get(n, ())
        for k in count(len(fs)):
            m = m0 + step * k
            v = rungs.get(m)
            if v is None:
                v = rungs[m] = finite_part_integral(f, m, nu, a, _FPI_TOL)
            new.append(v.value)
            if k == len(bs):
                bs = _binomials(n, k + 1)
            yield bs[k] * next(ws) * v.value

    # rung * (binomial * ostep^k) has the bits of the product the other way
    # round, and the map stops at the last listed rung before it reads ws
    listed = map(mul, fs, map(mul, _binomials(n, len(fs)), ws))
    s = sum_until_small(chain(listed, climb()), tol, cap + 1)
    if new:
        fs = fs + new
        if len(fs) > len(lad.naive.get(key, ())):
            lad.naive[key] = fs
    rows = None
    if keep_terms:
        rows = list(zip(range(s.terms), map(mul, _binomials(n, s.terms),
                                            _powers(ostep)), fs))
    return s.total, s.terms - 1, max(s.last, s.prev), s.converged, rows


def evaluate_transform(spec: TransformSpec, tol: float = DEFAULT_EVAL_TOL,
                       k_max: int = None,
                       keep_terms: bool = False) -> ExpansionResult:
    """Evaluate int_0^a x^{-nu} f/(omega+x)^n dx by its exact decomposition.

    The naive series is the same for every nu; the singular part is the
    pole term at nu = 0 and the branch-point term at 0 < nu < 1.
    """
    f, n, nu, omega = spec.f, spec.n, spec.nu, spec.omega
    cap = _naive_cap(k_max)
    if nu == 0.0:
        nu = 0.0  # an int 0 shares the float rungs (see the ladder key)
    naive, k_used, tail, ok, rows = _naive_series(
        f, nu, spec.a, n, 1, n, omega, tol, cap, keep_terms)
    if nu == 0.0:
        sing = singular_term_integer(f, n, omega)
    else:
        sing = singular_term_branch(f, n, nu, omega)
    return ExpansionResult(naive, sing, naive + sing, k_used, tail, ok, rows)


def eval_quadratic(f: TaylorFunction, omega: float, a: float = math.inf,
                   tol: float = DEFAULT_EVAL_TOL, k_max: int = None,
                   keep_terms: bool = False) -> ExpansionResult:
    """Evaluate int_0^a f(x)/(omega^2+x^2) dx by its exact decomposition.

    The naive part integrates the expansion of the kernel term by term,
    sum_k (-1)^k omega^{2k} FPI(f, 2k+2, 0, a); the residues of
    f(z) (log z - i pi)/(omega^2+z^2) at z = +-i omega supply the missing
    (pi/(2 omega)) Re f(i omega) - (ln omega / omega) Im f(i omega).
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not (math.isinf(a) or omega < a):
        raise ValueError("expansion requires omega < a")
    cap = _naive_cap(k_max)
    naive, k_used, tail, ok, rows = _naive_series(
        f, 0.0, a, 2, 2, 1, omega**2, tol, cap, keep_terms)
    fi = f.eval_complex(1j * omega)
    sing = (math.pi / (2.0 * omega)) * fi.real \
        - (math.log(omega) / omega) * fi.imag
    return ExpansionResult(naive, sing, naive + sing, k_used, tail, ok, rows)


def effective_diffusivity(g_plus: TaylorFunction, g_minus: TaylorFunction,
                          peclet: float, kappa: float, a: float = math.inf,
                          tol: float = DEFAULT_EVAL_TOL) -> float:
    """High-Peclet effective diffusivity for a measure density g.

    With mu(dtau) = g(tau) dtau split over the two half-lines
    (g_plus(tau) = g(tau), g_minus(tau) = g(-tau), tau > 0), the enhancement
    integral Pe^2 g/(1 + Pe^2 tau^2) is the quadratic-kernel transform at
    omega = 1/Pe, so

        kappa_eff = kappa * [1 + S[g_plus](1/Pe) + S[g_minus](1/Pe)].
    """
    if not peclet > 0:
        raise ValueError("Peclet number must be positive")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    omega = 1.0 / peclet
    q_plus = eval_quadratic(g_plus, omega, a, tol)
    q_minus = eval_quadratic(g_minus, omega, a, tol)
    return kappa * (1.0 + q_plus.total + q_minus.total)
