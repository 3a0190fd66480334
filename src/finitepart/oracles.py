"""Independent verification engines.

Two ways to check a finite-part or transform value without touching the
series representations used elsewhere in the package:

* :func:`quad_adaptive` wraps adaptive Gauss-Kronrod quadrature (QUADPACK
  via scipy) of a convergent integral over one interval; semi-infinite
  ranges use QUADPACK's built-in rational mapping, and an algebraic
  weight at the lower end its Clenshaw-Curtis routine QAWS.
* :func:`fpi_epsilon_oracle` evaluates a finite part straight from its
  definition: the divergent part in eps is removed analytically, so the
  eps -> 0 limit is one ordinary integral of the Taylor remainder.
* :func:`transform_oracle` takes a transform by :func:`quad_adaptive` in
  a variable that flattens its kernel's peak at x ~ omega.

scipy is imported by the quadrature on its first call, so importing this
module needs only the standard library.
"""

import math
from dataclasses import dataclass

from .entire import TaylorFunction
from .errors import NonconvergenceError
from .series import power_terms, sum_until_small

_QUAD_LIMIT = 200  # QUADPACK subinterval limit
# how scipy's quad opens its message for QUADPACK's roundoff code, ier = 2
_ROUNDOFF = "The occurrence of roundoff error"
_TAYLOR_TERM_CAP = 600  # terms of the epsilon oracle's Taylor remainder
_EPS_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_err_estimate: float
    evaluations: int


def quad_adaptive(integrand, lo, hi, tol=1e-10, alpha=0.0) -> QuadratureResult:
    """One QUADPACK call for the convergent integral of integrand(x) (x -
    lo)^alpha on (lo, hi], ``hi`` possibly ``math.inf``, to the relative
    error target ``tol``.

    At alpha = 0 this is QAGS (QAGI at ``hi = inf``).  Otherwise, at a
    finite ``hi``, (x - lo)^alpha, alpha > -1, is QAWS's algebraic weight:
    its Clenshaw-Curtis rule integrates the power exactly, so an integrand
    analytic at ``lo`` converges there without bisection.  QAWS evaluates
    the integrand at both ends.

    A result that QUADPACK flags for roundoff (ier = 2) is still accepted
    when its error estimate is within ``tol`` of int |integrand| (x -
    lo)^alpha: an integral that cancels to near zero cannot meet the
    relative target, nor the fixed absolute floor below it, but is as
    accurate as the integrand's size allows.  That case alone costs a
    second call, for the weighted int |integrand| to three digits.  Any
    other QUADPACK warning raises NonconvergenceError with the result as
    ``partial``.
    """
    if not lo < hi:
        raise ValueError("quadrature requires lo < hi")
    from scipy.integrate import quad

    weight = {} if alpha == 0.0 else {"weight": "alg", "wvar": (alpha, 0.0)}
    out = quad(integrand, lo, hi, epsabs=1e-15, epsrel=tol,
               limit=_QUAD_LIMIT, full_output=1, **weight)
    value, abserr, info = out[0], out[1], out[2]
    neval = int(info.get("neval", 0))
    warning = out[3] if len(out) > 3 else None
    if warning is not None and warning.startswith(_ROUNDOFF):
        mag = quad(lambda x: abs(integrand(x)), lo, hi, epsabs=0.0,
                   epsrel=1e-3, limit=_QUAD_LIMIT, full_output=1, **weight)
        neval += int(mag[2].get("neval", 0))
        if abserr <= tol * mag[0]:
            warning = None
    if warning is not None:
        raise NonconvergenceError(
            f"adaptive quadrature did not converge on [{lo}, {hi}]: {warning}",
            partial=QuadratureResult(value, abserr, neval),
        )
    # 0.0 + turns an integral of -0.0 into 0.0
    return QuadratureResult(0.0 + value, abserr, neval)


# ---------------------------------------------------------------------------
# epsilon-regularization oracle
# ---------------------------------------------------------------------------

def _taylor_remainder(f: TaylorFunction, m: int, x: float) -> float:
    """(f(x) - sum_{k<m} c_k x^k) / x^m, without catastrophic cancellation.

    The tail series sum_{k>=m} c_k x^{k-m} is summed from x^0, so x^m never
    underflows.  Its rounding error scales with its largest term; that of
    the direct difference f(x) - head, divided by x^m, with the sizes of
    f(x) and of the head terms.  The difference is taken instead of the
    tail when its error is the smaller one, as where the tail's terms grow
    far above its sum.
    """
    deg = f.finite_degree()
    if deg is not None:
        total = largest = 0.0
        xk = 1.0
        for k in range(m, deg + 1):
            term = f.coeff(k) * xk
            total += term
            largest = max(largest, abs(term))
            xk *= x
    else:
        r = max(m, f.zero_order())
        s = sum_until_small(power_terms(f.coeff, x, m, r, 1.0), 1e-17,
                            _TAYLOR_TERM_CAP - r)
        total, largest = s.total_or_raise("Taylor tail"), s.largest
    head = size = 0.0
    for k in range(m - 1, -1, -1):
        c = f.coeff(k)
        head = head * x + c
        size = size * x + abs(c)
    xm = x**m
    if size + abs(total) * xm < largest * xm:
        return (f.eval(x) - head) / xm
    return total


def fpi_epsilon_oracle(f: TaylorFunction, m: int, nu: float,
                       a: float) -> float:
    """Finite part of int_0^a f(x) x^{-m-nu} dx from its defining limit.

    On [eps, a] the integral splits into the Taylor head c_0..c_{m-1},
    whose divergent part in eps is exactly the one the definition removes,
    and the remainder Q(x) x^{-nu} with Q = (f - head) / x^m bounded at 0.
    So the eps -> 0 limit is the head's value at the upper limit plus the
    ordinary integral of Q(x) x^{-nu} on (0, a], with x^{-nu} as
    QUADPACK's algebraic end-point weight, so that the integrand Q is
    analytic at both ends (at nu = 0 this is plain QAGS).  At a = inf the
    value on (0, 1] is added to the convergent integral of f(x) x^{-m-nu}
    over [1, inf).
    """
    if m < 1:
        raise ValueError("pole strength m must be >= 1")
    if not (0.0 <= nu < 1.0):
        raise ValueError("branch exponent nu must lie in [0, 1)")
    if not a > 0.0:
        raise ValueError("epsilon oracle requires a > 0")
    if a == math.inf:
        tail = quad_adaptive(lambda x: f.eval(x) * x ** -(m + nu), 1.0, a,
                             tol=_EPS_QUAD_TOL)
        return fpi_epsilon_oracle(f, m, nu, 1.0) + tail.value

    # eps-free part: head coefficients integrated on [eps, a] minus the
    # divergent group leaves only their value at the upper limit.
    head = 0.0
    if nu == 0.0:
        cm1 = f.coeff(m - 1)
        if cm1 != 0.0:
            head += cm1 * math.log(a)
        for k in range(m - 1):
            head -= f.coeff(k) / ((m - k - 1) * a ** (m - k - 1))
    else:
        for k in range(m):
            p = k + 1 - m - nu
            head += f.coeff(k) * a**p / p
    rem = quad_adaptive(lambda x: _taylor_remainder(f, m, x), 0.0, a,
                        tol=_EPS_QUAD_TOL, alpha=-nu)
    return head + rem.value


def transform_oracle(spec) -> float:
    """QUADPACK's value of the transform of a ``TransformSpec``, taken in a
    variable s that flattens the kernel's peak at x ~ omega: over [0, s_top],
    s_top the s of x = top, with top = a at a finite a; at a = inf, top =
    max(1, omega), and the integrand in x over [top, inf) is added.  A piece
    that QUADPACK does not converge on, and a scale, range or value out of
    float range, raise NonconvergenceError naming the oracle ("transform"
    or "quadratic") and omega.
    """
    f, n, omega, a, nu, kernel = spec
    top = a if a < math.inf else max(1.0, omega)
    try:
        if kernel == "pole":
            # x = omega (e^s - 1): dx / (omega + x)^n = omega^(1-n) e^((1-n)
            # s) ds, and x^-nu = omega^-nu s^-nu (s / expm1 s)^nu, with s^-nu
            # left to QAWS's weight.  What remains is analytic at s = 0,
            # where (s / expm1 s)^nu takes its limit 1.  omega^(1-n-nu)
            # scales the integrand, not the integral, so that QUADPACK's
            # absolute floor of 1e-15 is on the transform's own scale.
            scale = omega ** (1.0 - n - nu)

            def mapped(s):
                y = math.expm1(s)
                value = scale * f.eval(omega * y) * math.exp((1 - n) * s)
                return value * (s / y) ** nu if s and nu else value

            s_top = math.log1p(top / omega)
            plain = lambda x: f.eval(x) * x ** -nu * (omega + x) ** -n
        else:
            # x = omega sinh s: dx / (omega^2 + x^2) = ds / (omega cosh s)
            mapped = lambda s: (f.eval(omega * math.sinh(s))
                                / (omega * math.cosh(s)))
            s_top = math.asinh(top / omega)
            plain = lambda x: f.eval(x) / (omega * omega + x * x)
        if not s_top < math.inf:
            raise OverflowError(f"{top!r} / omega leaves float range")
        # the quadratic kernel's nu is 0: no weight
        value = quad_adaptive(mapped, 0.0, s_top, tol=1e-11, alpha=-nu).value
        if a == math.inf:
            value += quad_adaptive(plain, top, a, tol=1e-11).value
        if not abs(value) < math.inf:
            raise OverflowError(f"the integral is {value}")
    except (ArithmeticError, NonconvergenceError) as exc:
        what = "transform" if kernel == "pole" else "quadratic"
        raise NonconvergenceError(
            f"{what} oracle at omega = {omega!r}: {exc}") from exc
    return value
