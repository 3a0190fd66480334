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
1/(omega^2 + x^2), a spec's kernel "quadratic", follows the same pattern
with residues at +-i omega, which is what the high-Peclet effective
diffusivity expansion needs.

The split converges like (omega/a)^k and, on f = c x^p e^{-bx}, its pole
term grows like e^{b omega}, which the naive series must cancel.  So two
routes integrate the transform itself and keep that integral, ``direct``,
with its bound, as the split naive_sum = direct - singular, flagged
wherever the identity's rounding plus that bound exceeds tol |direct|:

* the closed route, at nu = 0 for the exponential family with p < n and
  b omega > 1, at a finite or infinite a: the exponential integrals of
  :func:`_closed`;
* the direct route, at a finite a with omega > a/2, and at a = inf with
  omega > SPLIT_POINT/2 where f's rungs are split (a user stream): the
  rules of :mod:`finitepart.quadrature`, whose values of f the rung
  ladder keeps, Gauss-Jacobi for the weight x^{-nu} on [0, a], or on
  [0, SPLIT_POINT] plus the split's exp-sinh nodes on [SPLIT_POINT, inf).
  The kernel's poles lie on a Bernstein ellipse of rho >= 3.73 about the
  Gauss range (2.89 for the quadratic kernel), so rules of 16 and 32
  nodes reach the tolerance where f is smooth on the range's scale.
  Where a rule fails the split is summed instead.

Elsewhere, and with ``k_max`` given, the split is summed.  Its naive terms
are binom(-n,k) omega^k times the public finite_part_integral values.
"""

import math
from functools import partial
from itertools import count, repeat
from operator import add, mul, truediv
from typing import NamedTuple

from .entire import TaylorFunction
from .errors import FinitePartError, NonconvergenceError
from .finite_part import (SPLIT_POINT, check_nu, finite_part_integral,
                          rung_source, splits_at_infinity)
from .gammafn import UNIT_ROUNDOFF, expint_scaled, pochhammer
from .quadrature import GaussJacobi, bernstein_rho
from .series import TERM_CAP, sum_until_small, check_tol

DEFAULT_EVAL_TOL = 1e-12

# n -> the signed binomials (-1)^k binom(n+k-1,k) as floats, k = 0, 1, ...;
# grown by replacement, never in place, so a thread reads a whole list
_BINOMS = {}


class _SpecFields(NamedTuple):
    f: TaylorFunction
    n: int
    omega: float
    a: float = math.inf
    nu: float = 0.0
    kernel: str = "pole"


class TransformSpec(_SpecFields):
    """One transform evaluation: int_0^a x^{-nu} f(x) K(x) dx with the
    kernel K = (omega+x)^{-n} ("pole") or 1/(omega^2+x^2) ("quadratic",
    which takes n = 1 and nu = 0, and omega^2 a finite float); a
    NamedTuple, so it unpacks as (f, n, omega, a, nu, kernel).  The
    constructor checks the fields, and so do ``_make`` and ``_replace``,
    which go through it."""

    __slots__ = ()

    def __new__(cls, f: TaylorFunction, n: int, omega: float,
                a: float = math.inf, nu: float = 0.0, kernel: str = "pole"):
        pole = kernel == "pole"
        if pole:
            if not (isinstance(n, int) and n >= 1):
                raise ValueError("transform order n must be an integer >= 1")
            if not (0.0 <= nu < 1.0):
                raise ValueError("branch exponent nu must lie in [0, 1)")
        elif kernel != "quadratic":
            raise ValueError("kernel must be 'pole' or 'quadratic'; got "
                             f"{kernel!r}")
        elif not (n == 1 and nu == 0.0):
            raise ValueError("the quadratic kernel takes n = 1 and nu = 0")
        if not omega > 0.0:
            raise ValueError("omega must be positive")
        if pole and not a > 0.0:
            raise ValueError("upper limit a must be positive")
        if not (omega < a or not pole and a == math.inf):
            raise ValueError("expansion requires omega < a")
        if not pole:
            try:
                square = omega**2
            except OverflowError:
                square = math.inf
            if square == math.inf:
                raise ValueError(f"omega = {omega!r} is too large: omega^2 "
                                 "leaves float range")
        return tuple.__new__(cls, (f, n, omega, a, nu, kernel))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ExpansionResult(NamedTuple):
    """Naive + singular decomposition of one transform value; a NamedTuple,
    so it unpacks as (naive_sum, singular, total, k_used, tail_estimate,
    converged, route, direct).

    ``route`` is "series" where the naive series was summed, to k_used
    terms with a tail estimate from its last terms; ``direct`` is None
    there.  Elsewhere the transform itself, ``direct``, was computed, by
    quadrature on route "direct" and by exponential integrals on route
    "closed": naive_sum = direct - singular, k_used = 0, and the tail
    estimate is |total - direct| plus the bound of ``direct``, converged
    when that is within tol |direct|.
    """

    naive_sum: float
    singular: float
    total: float
    k_used: int
    tail_estimate: float
    converged: bool = True
    route: str = "series"
    direct: float = None


# builds an ExpansionResult without the Python-level NamedTuple constructor
_new_result = partial(tuple.__new__, ExpansionResult)


def check_order(n):
    """Raise ValueError unless the order n is an integer >= 1."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("order n must be an integer >= 1")


def singular_term_integer(f: TaylorFunction, n: int, omega: float) -> float:
    """Pole contribution of f(z)/(omega+z)^n at z = -omega (nu = 0 case)."""
    check_order(n)
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
    check_order(n)
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


def _singular(kernel, f, n, nu, omega):
    """The kernel's singular term: the pole term at nu = 0 and the
    branch-point term at 0 < nu < 1, or the quadratic kernel's residues;
    NonconvergenceError where it leaves float range."""
    try:
        s = (_quadratic_singular(f, omega) if kernel == "quadratic"
             else singular_term_integer(f, n, omega) if nu == 0.0
             else singular_term_branch(f, n, nu, omega))
        if abs(s) < math.inf:
            return s
        why = repr(s)
    except OverflowError as exc:
        why = f"OverflowError: {exc}"
    raise NonconvergenceError(f"singular term of {f!r} at omega = {omega!r} "
                              f"leaves float range ({why})")


def _quadratic_singular(f, omega):
    """The residues of f(z) (log z - i pi)/(omega^2+z^2) at z = +-i omega."""
    fi = f.eval_complex(1j * omega)
    return (math.pi / (2.0 * omega)) * fi.real \
        - (math.log(omega) / omega) * fi.imag


def _pole_kernel(omega, n, xs, gs):
    """The terms g_i / (omega + x_i)^n of a level; without pow at n = 1,
    where it would return omega + x exactly."""
    ys = map(add, xs, repeat(omega))
    return map(truediv, gs, ys if n == 1 else map(pow, ys, repeat(n)))


def _quadratic_kernel(omega, xs, gs):
    """The terms g_i / (omega^2 + x_i^2) of a level."""
    return map(truediv, gs, map(add, map(mul, xs, xs), repeat(omega * omega)))


def _routed(f, omega, a):
    """Whether the direct route is tried: omega > a/2 at a finite a, and
    omega > SPLIT_POINT/2 at a = inf where f's rungs are split."""
    if a < math.inf:
        return omega > 0.5 * a
    return omega > 0.5 * SPLIT_POINT and splits_at_infinity(f)


def _direct(f, n, nu, omega, a, tol, kernel):
    """(the transform integrated directly, its bound), or None where that
    fails.

    The integral is the Gauss-Jacobi rule of f's ladder at (nu, a), made
    on first use, on [0, a] by
    :meth:`~finitepart.quadrature.GaussJacobi.integral`; at a = inf on
    [0, SPLIT_POINT], plus the exp-sinh nodes of the split's rung source on
    [SPLIT_POINT, inf) times x^{-nu} by
    :meth:`~finitepart.quadrature.ExpSinh.integral`, whose last change is
    accepted within tol of the larger part, and the two bounds add.  The
    rule's terms are its values times the kernel, by :func:`_pole_kernel`
    or :func:`_quadratic_kernel`; the kernel is formed within (n + 2) u,
    n = 0 for the quadratic kernel, and the rule's values and the tail's
    x^{-nu} within 3u.  None where a rule raises, or does not converge by
    its cap.
    """
    check_nu(nu)
    try:
        lad = f.ladder(nu, a)
        top = a
        if a == math.inf:
            # f x^{-1-nu} integrable: so is the integrand, under any kernel
            f.check_integrable_at_infinity(1, nu)
            top = SPLIT_POINT
        rule = lad.rule
        if rule is None:
            rule = lad.rule = GaussJacobi(nu, top)
        if kernel == "pole":
            level, c = partial(_pole_kernel, omega, n), n + 5
            pole = -omega
        else:
            level, c = partial(_quadratic_kernel, omega), 5
            pole = 1j * omega
        got = rule.integral(f, level, c, tol, bernstein_rho(pole, top))
        if got is None or top == a:
            return got
        head, bound = got
        tail = rung_source(f, lad, nu, a).exp_sinh(f)
        got = tail.integral(f, level if nu == 0.0 else (
            lambda xs, gs: level(xs, map(mul, gs, map(
                pow, xs, repeat(-nu))))), c, tol, tol * abs(head))
        if got is None:
            return None
        return head + got[0], bound + got[1]
    except (ArithmeticError, FinitePartError):
        return None


def _closed(p, b, c, n, omega, a):
    """(direct, bound): c int_0^a x^p e^{-bx} (omega+x)^{-n} dx for p < n
    and b omega > 1, and a bound on its error.

    x^p = sum_j C(p,j) (-omega)^{p-j} (omega+x)^j turns it into
    c omega^{p+1-n} sum_j (-1)^{p-j} C(p,j) D_{n-j}, where
    D_k = omega^{k-1} int_0^a e^{-bx} (omega+x)^{-k} dx
        = e_k(b omega) - ((omega+a)/omega)^{1-k} e^{-ab} e_k(b(omega+a)),
    e_k(z) = e^z E_k(z) by :func:`~finitepart.gammafn.expint_scaled`, so
    no e^{b omega} is formed; the second term goes at a = inf.  The bound
    takes 4 (i+2) u relative for a continued fraction of i steps (at most
    1.1 (i+2) u is measured), a b + 2k u more for e^{-ab} and the power of
    the second term, and (p+6) u of both terms' sizes for the products
    and sums, in which the binomial sum cancels.
    """
    z = b * omega
    finite = a < math.inf
    if finite:
        z_a, ratio = b * (omega + a), (omega + a) / omega
        cut = math.exp(-a * b)
    total = bound = 0.0
    for j in range(p + 1):
        k = n - j
        e, steps = expint_scaled(k, z)
        err, size = 4.0 * (steps + 2) * e, e
        if finite:
            g, steps = expint_scaled(k, z_a)
            g *= ratio ** (1 - k) * cut
            err += (4.0 * (steps + 2) + a * b + 2 * k) * g
            size += g
            e -= g
        w = math.comb(p, j)
        total += -w * e if (p - j) % 2 else w * e
        bound += w * (err + (p + 6) * size)
    scale = c * omega ** (p + 1 - n)
    return scale * total, abs(scale) * UNIT_ROUNDOFF * bound


def _binomials(n, size):
    """The signed binomials (-1)^k binom(n+k-1,k) of n for k < size at
    least, each an exact integer rounded once to a float; grown by
    replacement."""
    bs = _BINOMS.get(n, [])
    if len(bs) < size:
        bs = _BINOMS[n] = bs + [float((-1) ** k * math.comb(n + k - 1, k))
                                for k in range(len(bs), size)]
    return bs


def _naive_series(f, nu, a, m0, step, n, ostep, tol, cap):
    """sum_k binom(-n,k) ostep^k FPI(f, m0 + step*k, nu, a) for k = 0..cap.

    The rungs do not depend on omega, so a sweep on one descriptor reads
    them from two tables: the stored finite parts of f's rung ladder
    (:meth:`~finitepart.entire.TaylorFunction.ladder`), which the
    recurrence and every other sum on that ladder share, and the signed
    binomials of n.  A term is (binomial * ostep^k) * rung, ostep^k by
    repeated multiplication from 1.  A rung missing from the ladder is
    computed by :func:`finite_part_integral` and stored, and only the rungs
    the sum reaches are; the binomial table of n is extended by one where
    the sum passes its end, so no binomial is formed that the sum does not
    reach.  A rung that raises is not stored, so it is computed, and
    raises, again on the next call.

    Summed by :func:`~finitepart.series.sum_until_small`; without
    convergence the partial sum is returned and the flag reports it.  The
    tail estimate is the larger of the last two term magnitudes, so an
    isolated near-zero term (a sign change passing through the finite-part
    sequence) cannot make the estimate under-cover the remainder.
    Returns (total, k_used, tail_estimate, converged).
    """
    rungs = f.ladder(nu, a).rungs

    def terms():
        bs = _BINOMS.get(n, ())
        w = 1.0
        for k, m in enumerate(count(m0, step)):
            v = rungs.get(m)
            if v is None:
                v = rungs[m] = finite_part_integral(f, m, nu, a)
            if k == len(bs):
                bs = _binomials(n, k + 1)
            yield bs[k] * w * v.value
            w *= ostep

    s = sum_until_small(terms(), tol, cap + 1)
    return s.total, s.terms - 1, max(s.last, s.prev), s.converged


def evaluate_transform(spec: TransformSpec, tol: float = DEFAULT_EVAL_TOL,
                       k_max: int = None) -> ExpansionResult:
    """Evaluate the transform of ``spec`` by its exact decomposition.

    The naive series is sum_k binom(-n,k) omega^k FPI(f, n+k, nu, a) for
    the pole kernel, whose singular part is the pole term at nu = 0 and the
    branch-point term at 0 < nu < 1, and sum_k (-1)^k omega^{2k}
    FPI(f, 2k+2, 0, a) for the quadratic kernel, whose residues of
    f(z) (log z - i pi)/(omega^2+z^2) at z = +-i omega supply the missing
    (pi/(2 omega)) Re f(i omega) - (ln omega / omega) Im f(i omega).
    ``tol`` must lie in (0, 1).  Unless ``k_max`` is given, the closed route
    is taken for the pole kernel at nu = 0 for c x^p e^{-bx} with p < n and
    b omega > 1, and the direct route is tried first at a finite a with
    omega > a/2 and, for f without a closed form there, at a = inf with
    omega > SPLIT_POINT/2 (see the module docstring and ``ExpansionResult``).
    """
    check_tol(tol)
    if k_max is not None and k_max < 0:
        raise ValueError(f"k_max must be >= 0; got {k_max}")
    f, n, omega, a, nu, kernel = spec
    if nu == 0.0:
        nu = 0.0  # an int 0 shares the float rungs (see the ladder key)
    shape = None
    if kernel == "pole":
        series = (n, 1, n, omega)
        if nu == 0.0 and k_max is None:
            shape = f.exp_family()  # the closed route: p < n, b omega > 1
            if shape is not None and (shape[0] >= n
                                      or shape[1] * omega <= 1.0):
                shape = None
    else:
        series = (2, 2, 1, omega**2)
    sing = _singular(kernel, f, n, nu, omega)
    got = None
    if shape is not None:
        got, route = _closed(*shape, n, omega, a), "closed"
    elif k_max is None and _routed(f, omega, a):
        got, route = _direct(f, n, nu, omega, a, tol, kernel), "direct"
    if got is not None:
        direct, bound = got
        naive = direct - sing
        tail = abs(naive + sing - direct) + bound
        return _new_result((naive, sing, naive + sing, 0, tail,
                            tail <= tol * abs(direct), route, direct))
    naive, k_used, tail, ok = _naive_series(
        f, nu, a, *series, tol, TERM_CAP if k_max is None else k_max)
    return _new_result((naive, sing, naive + sing, k_used, tail, ok,
                        "series", None))


# the core under a private name: bench/tracer.py wraps the public one, so
# that eval_quadratic through it would nest two transform spans
_evaluate_transform = evaluate_transform


def eval_quadratic(f: TaylorFunction, omega: float, a: float = math.inf,
                   tol: float = DEFAULT_EVAL_TOL,
                   k_max: int = None) -> ExpansionResult:
    """int_0^a f(x)/(omega^2+x^2) dx: :func:`evaluate_transform` of the
    quadratic kernel's spec."""
    return _evaluate_transform(
        TransformSpec(f, 1, omega, a, 0.0, "quadratic"), tol, k_max)


def peclet_omega(peclet: float) -> float:
    """omega = 1/Pe of the quadratic kernel, for a positive finite Pe."""
    if not peclet > 0:
        raise ValueError("Peclet number must be positive")
    if peclet == math.inf:
        raise ValueError(
            f"Peclet number must be positive and finite; got {peclet!r}")
    return 1.0 / peclet


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
    omega = peclet_omega(peclet)
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite; got {kappa!r}")
    q_plus = eval_quadratic(g_plus, omega, a, tol)
    q_minus = eval_quadratic(g_minus, omega, a, tol)
    return kappa * (1.0 + q_plus.total + q_minus.total)
