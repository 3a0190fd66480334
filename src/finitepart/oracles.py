"""Independent verification engines.

Two ways to check a finite-part or transform value without touching the
series representations used elsewhere in the package:

* :func:`quad_adaptive` wraps adaptive Gauss-Kronrod quadrature (QUADPACK
  via scipy) for convergent integrals, with a t^2 endpoint substitution
  for algebraic singularities at the lower limit; semi-infinite ranges use
  QUADPACK's built-in rational mapping.
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


def _quad_once(fn, lo, hi, tol):
    """One QUADPACK call.  A result that QUADPACK flags for roundoff
    (ier = 2) is still accepted when its error estimate is within ``tol``
    of int |fn|: an integral that cancels to near zero cannot meet the
    relative target, nor the fixed absolute floor below it, but is as
    accurate as the integrand's size allows.  That case alone costs a
    second call, for int |fn| to three digits."""
    from scipy.integrate import quad

    out = quad(fn, lo, hi, epsabs=1e-15, epsrel=tol, limit=_QUAD_LIMIT,
               full_output=1)
    value, abserr, info = out[0], out[1], out[2]
    neval = int(info.get("neval", 0))
    if len(out) > 3 and out[3].startswith(_ROUNDOFF):
        mag = quad(lambda x: abs(fn(x)), lo, hi, epsabs=0.0, epsrel=1e-3,
                   limit=_QUAD_LIMIT, full_output=1)
        neval += int(mag[2].get("neval", 0))
        if abserr <= tol * mag[0]:
            return value, abserr, neval
    if len(out) > 3:
        raise NonconvergenceError(
            f"adaptive quadrature did not converge on [{lo}, {hi}]: {out[3]}",
            partial=QuadratureResult(value, abserr, neval),
        )
    return value, abserr, neval


def quad_adaptive(integrand, lo, hi, tol=1e-10, *, breakpoints=None,
                  singular_lo=False) -> QuadratureResult:
    """Adaptive quadrature of a convergent integral on (lo, hi].

    Parameters
    ----------
    integrand : callable
        Real integrand, reentrant; evaluated on the open interval.
    lo, hi : float
        Limits; ``hi`` may be ``math.inf``.
    tol : float
        Relative error target.
    breakpoints : sequence of float, optional
        Interior points to split at (useful for sharply peaked kernels).
    singular_lo : bool
        Apply the substitution x = lo + t^2 near the lower endpoint so
        integrable algebraic singularities x^{-nu}, nu < 1, are tamed.
    """
    if not lo < hi:
        raise ValueError("quadrature requires lo < hi")
    edges = [lo]
    if breakpoints:
        edges.extend(p for p in sorted(breakpoints) if lo < p < hi)
    edges.append(hi)
    pieces = [(integrand, x0, x1) for x0, x1 in zip(edges[:-1], edges[1:])]
    if singular_lo:
        first = edges[1]
        cut = first if math.isfinite(first) else lo + 1.0
        pieces[0] = (lambda t: 2.0 * t * integrand(lo + t * t), 0.0,
                     math.sqrt(cut - lo))
        if cut != first:
            pieces.insert(1, (integrand, cut, first))

    total = err = 0.0
    neval = 0
    for fn, a, b in pieces:
        v, e, n = _quad_once(fn, a, b, tol)
        total += v
        err += e
        neval += n
    return QuadratureResult(total, err, neval)


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
    ordinary integral of Q(x) x^{-nu} on (0, a], taken in u = x^{1-nu}
    (x^{-nu} dx = du / (1-nu)) so that the integrand is bounded at both
    ends.  At a = inf the value on (0, 1] is added to the convergent
    integral of f(x) x^{-m-nu} over [1, inf).
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
    q = 1.0 - nu
    rem = quad_adaptive(lambda u: _taylor_remainder(f, m, u ** (1.0 / q)),
                        0.0, a**q, tol=_EPS_QUAD_TOL)
    return head + rem.value / q


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
            # u = x^q = omega^q (e^s - 1), q = 1 - nu, and x = omega y:
            # then x^-nu dx / (omega + x)^n = omega^(q-n) e^s ds / (q (1 +
            # y)^n), which is bounded at every nu.  e^s / (1 + y)^n is
            # taken as one exp, so that neither factor leaves float range
            # where the quotient does not, and omega^(q-n) scales the
            # integrand, not the integral, so that QUADPACK's absolute
            # floor of 1e-15 is on the transform's own scale.
            q = 1.0 - nu
            scale = omega ** (q - n) / q

            def mapped(s):
                y = math.expm1(s) ** (1.0 / q)
                return scale * f.eval(omega * y) * math.exp(
                    s - n * math.log1p(y))

            s_top = math.log1p((top / omega) ** q)
            plain = lambda x: f.eval(x) * x ** -nu * (omega + x) ** -n
        else:
            # x = omega sinh s: dx / (omega^2 + x^2) = ds / (omega cosh s)
            mapped = lambda s: (f.eval(omega * math.sinh(s))
                                / (omega * math.cosh(s)))
            s_top = math.asinh(top / omega)
            plain = lambda x: f.eval(x) / (omega * omega + x * x)
        if not s_top < math.inf:
            raise OverflowError(f"{top!r} / omega leaves float range")
        value = quad_adaptive(mapped, 0.0, s_top, tol=1e-11).value
        if a == math.inf:
            value += quad_adaptive(plain, top, a, tol=1e-11).value
        if not abs(value) < math.inf:
            raise OverflowError(f"the integral is {value}")
    except (ArithmeticError, NonconvergenceError) as exc:
        what = "transform" if kernel == "pole" else "quadratic"
        raise NonconvergenceError(
            f"{what} oracle at omega = {omega!r}: {exc}") from exc
    return value
