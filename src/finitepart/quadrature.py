"""Double-exponential quadrature rules (Takahasi and Mori 1974).

A rule maps its interval onto the whole t line by an x(t) under which the
integrand decays double exponentially, and sums it by the trapezoidal rule
at the steps h = 2^-n of its levels n = 0, 1, ...:

  ExpSinh   [a0, inf):  x = a0 + e^{pi/2 sinh t}, F(x) = f(x)
  TanhSinh  [0, a]:     x = a s/(1+s), s = e^{pi sinh t}, F(x) = f(x) x^{-nu}

A rule belongs to the integrand factor F that its callers share, and each
caller brings its own factor of x.  The nodes x_i and the weighted values
g_i = w_i F(x_i), w = dx/dt, of every level are computed once: level 0
takes the integers t in [lo, hi], each level n after it the odd multiples of
2^-n in that range.  The range ends where two nodes in a row are quiet,
their size below _NEGLIGIBLE times the largest one's.  Levels grow by
replacement, never in place, so a thread reads whole tuples only.
"""

import math
from itertools import repeat
from operator import mul

from .errors import NonconvergenceError

_HALF_PI = 0.5 * math.pi
_T_CAP = 6  # |t| of the outermost node: x = a0 + e^{317}, or s = e^{+-634}
_NEGLIGIBLE = 2.0 ** -70
MIN_LEVEL = 3  # first level whose change from the one before is trusted
LEVEL_CAP = 8  # finest step h = 2^-8


class _Rule:
    """The levels of one rule and the loop that sums them; a subclass
    gives ``_node(t) -> (x, g)`` and ``_size(x, g)``, the measure of a
    quiet node."""

    _WHAT = ""  # names the integrand in the error of a range that is open
    _TRIM = 0  # 1: the range ends at the first quiet node of the two

    def __init__(self, f):
        self.f = f
        x, g = self._node(0.0)
        xs, gs = [x], [g]
        big = self._size(x, g)
        ends = []
        for step in (1, -1):
            t = quiet = 0
            while quiet < 2:
                t += step
                if abs(t) > _T_CAP:
                    raise NonconvergenceError(
                        f"{self._WHAT} of {f!r} is not finite or does not "
                        f"decay by x = {xs[-1]:.3g}")
                x, g = self._node(float(t))
                xs.append(x)
                gs.append(g)
                v = self._size(x, g)
                big = max(big, v)
                quiet = quiet + 1 if v <= _NEGLIGIBLE * big else 0
            if self._TRIM:
                t -= step
                del xs[-1], gs[-1]
            ends.append(t)
        self.hi, self.lo = ends
        self.levels = ((xs, gs),)

    def level(self, n):
        """(x_i, g_i) of the nodes new at level n."""
        levels = self.levels
        while len(levels) <= n:
            span = 2 ** (len(levels) - 1)
            h = 1.0 / (2 * span)
            ts = [(2 * i + 1) * h for i in range(self.lo * span,
                                                 self.hi * span)]
            xs, gs = zip(*map(self._node, ts))
            levels = self.levels = levels + ((xs, gs),)
        return levels[n]

    def integral(self, level_sum, rtol, atol=0.0, accept=None):
        """(the integral, the change of its last level), or None.

        ``level_sum(xs, gs)`` sums the values of a level's nodes times the
        caller's factor.  From level MIN_LEVEL on, the value is accepted when
        its change is within max(rtol |value|, atol), and refused (None)
        when ``accept(value)`` is false.  None as well when the sum leaves
        float range or the levels pass LEVEL_CAP first.
        """
        total = 0.0
        est = math.nan
        for n in range(LEVEL_CAP + 1):
            xs, gs = self.level(n)
            total += level_sum(xs, gs)
            new = math.ldexp(total, -n)
            if not abs(new) < math.inf:
                return None
            err = abs(new - est)
            if n >= MIN_LEVEL:
                if accept is not None and not accept(new):
                    return None
                if err <= max(rtol * abs(new), atol):
                    return new, err
            est = new
        return None


class ExpSinh(_Rule):
    """Exp-sinh quadrature of f(x) x^{-p} over [a0, inf), p >= 1: the tails
    of the split rungs of one ladder, which share its nodes.

    x = a0 + exp(pi/2 sinh t).  A node's size is |g_i| / x_i, which bounds
    every rung's term g_i x_i^{-p}; the range ends at the second quiet node.
    """

    _WHAT = "split tail"
    _RTOL, _ATOL = 1e-13, 1e-15

    def __init__(self, f, a0):
        self.a0 = a0
        super().__init__(f)

    def _node(self, t):
        u = math.exp(_HALF_PI * math.sinh(t))
        x = self.a0 + u
        return x, _HALF_PI * math.cosh(t) * u * self.f.eval(x)

    @staticmethod
    def _size(x, g):
        return abs(g) / x

    def integral(self, p):
        """(int_{a0}^inf f(x) x^{-p} dx, the change of its last level); a
        change within 1e-13 relative or 1e-15 absolute is accepted, and
        NonconvergenceError is raised without one."""
        got = super().integral(
            lambda xs, gs: sum(map(mul, gs, map(pow, xs, repeat(-p)))),
            self._RTOL, self._ATOL)
        if got is None:
            raise NonconvergenceError(
                f"exp-sinh tail of {self.f!r} at power {p:g} did not converge "
                f"within {LEVEL_CAP} levels")
        return got


class TanhSinh(_Rule):
    """Tanh-sinh quadrature of f(x) x^{-nu} times a bounded factor of x
    over [0, a]: the direct transforms of one finite-a ladder.

    x = a s/(1+s) with s = e^{pi sinh t}, so x near 0 keeps its relative
    accuracy and x^{-nu} with it; w = pi cosh t x/(1+s), and
    g = pi cosh t x^{1-nu} f(x)/(1+s).  A node's size is |g_i|; the range
    ends at the first quiet node, the second confirming it.
    """

    _WHAT = "tanh-sinh integrand"
    _TRIM = 1

    def __init__(self, f, nu, a):
        self.a, self.p = a, 1.0 - nu
        super().__init__(f)

    def _node(self, t):
        s = math.exp(math.pi * math.sinh(t))
        y = 1.0 / (1.0 + s)
        x = self.a * s * y
        return x, math.pi * math.cosh(t) * y * x ** self.p * self.f.eval(x)

    @staticmethod
    def _size(x, g):
        return abs(g)
