"""Double-exponential quadrature rules (Takahasi and Mori 1974).

A rule maps its interval onto the whole t line by an x(t) under which the
integrand decays double exponentially, and sums it by the trapezoidal rule
at the steps h = 2^-n of its levels n = 0, 1, ...:

  ExpSinh   [a0, inf):  x = a0 + u, u = e^{pi/2 sinh t}, F(x) = f(x)
  TanhSinh  [0, a]:     x = a s y, s = e^{pi sinh t}, y = 1/(1+s),
                        F(x) = f(x) x^{-nu}

A rule belongs to the integrand factor F that its callers share, and each
caller brings its own factor of x.  The nodes x_i and the weighted values
g_i = w_i F(x_i), w = dx/dt, of every level are computed once: level 0
takes the integers t in [lo, hi], each level n after it the odd multiples
of 2^-n in that range, and notes whether its values are of one sign.  The
range ends at the first quiet node, one whose size is below _NEGLIGIBLE
times the largest one's, that the next node, no larger, confirms (a larger
one marks a dip of F at a root); the tanh-sinh range keeps the confirming
node at x -> 0 as well.  The part of a node that F does not
change, (u, w) or (s, y, pi cosh t y), is computed once per process for
every |t| <= _T_CAP of a level, in one table per rule, so a rule forms
only x and g, in the order of the formulas above.  Tables and levels grow
by replacement, and a level's lists are never changed once made, so a
thread reads whole levels only.
"""

import math
from functools import reduce
from itertools import repeat
from operator import add, mul, truediv

from .errors import NonconvergenceError
from .gammafn import UNIT_ROUNDOFF

_HALF_PI = 0.5 * math.pi
_T_CAP = 6  # |t| of the outermost node: x = a0 + e^{317}, or s = e^{+-634}
_NEGLIGIBLE = 2.0 ** -70
MIN_LEVEL = 3  # first level whose change from the one before is trusted
LEVEL_CAP = 8  # finest step h = 2^-8


def integrate(parts, rtol, atol=0.0):
    """(the integral, its error bound), or None.

    The integral is the sum of the trapezoidal values of ``parts``,
    (rule, level_terms, c): ``level_terms(xs, gs)`` gives a level's terms,
    its values times the caller's positive factor of x, formed within c u.
    From level MIN_LEVEL on it is accepted when the sum of the changes is
    within max(rtol |integral|, atol); a part whose change is within that
    bound over len(parts) keeps its level from then on.  None when the
    integral leaves float range or the levels pass LEVEL_CAP.

    The bound is the sum of the parts' last changes plus, for each part at
    its last level n, whose N nodes are the most of any of its levels, the
    rounding (N + n + c) u 2^-n times the sum of the sizes |t| of the terms
    it summed over levels 0 to n (a running error bound, Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 4): a term is within
    (c + 1) u of its exact value; a level's sum of at most N terms adds
    (N - 1) u of their sizes, recursive summation or the compensated sum()
    of Python 3.12, and each of the n additions of a level to the total u
    of the sizes summed so far; where a level's values are of one sign,
    the size of its sum is the sum of its sizes, bit for bit.  The parts
    past the ends of a rule's range, where the integrand decays double
    exponentially, are taken at the sizes of the terms of its end nodes,
    which the caller's factor can raise far past the quiet sizes of F.
    """
    count = len(parts)
    totals = [0.0] * count
    sizes = totals[:]
    values = [math.nan] * count
    changes = values[:]
    tops = [0] * count
    live = range(count)
    for n in range(LEVEL_CAP + 1):
        for i in live:
            rule, level_terms, _ = parts[i]
            xs, gs, signed = rule.level(n)
            terms = level_terms(xs, gs) if signed else [*level_terms(xs, gs)]
            s = sum(terms)
            sizes[i] += abs(s) if signed else sum(map(abs, terms))
            totals[i] += s
            new = math.ldexp(totals[i], -n)
            changes[i] = abs(new - values[i])
            values[i] = new
            tops[i] = n
        value = reduce(add, values)
        if not abs(value) < math.inf:
            return None
        if n >= MIN_LEVEL:
            bound = max(rtol * abs(value), atol)
            err = reduce(add, changes)
            if err <= bound:
                for (rule, level_terms, c), top, size in zip(parts, tops,
                                                             sizes):
                    err += ((len(rule.level(top)[0]) + top + c)
                            * UNIT_ROUNDOFF * math.ldexp(size, -top)
                            + sum(map(abs, level_terms(*rule.ends))))
                return value, err
            if count > 1:
                live = [i for i in live if changes[i] > bound / count]
    return None


class _Rule:
    """The levels of one rule, each (x_i, g_i, whether the g_i are of one
    sign), and the (x_i, g_i) of its range's end nodes, ``ends``; a
    subclass gives its geometry ``_geometry(t)``, the nodes
    ``_nodes(*columns)`` of geometry columns, and the node sizes
    ``_sizes(xs, gs)``, which find a quiet node."""

    _WHAT = ""  # names the integrand in the error of a range that is open
    _LOW_KEEPS = False  # whether the lower end keeps its confirming node
    _TABLE = ()  # level n -> the geometry columns of |t| <= _T_CAP

    def __init__(self, f):
        self.f = f
        cols = self._columns(0)

        def node(t):  # level 0 holds t = -_T_CAP, ..., _T_CAP
            xs, gs = self._nodes(*(c[t + _T_CAP:t + _T_CAP + 1]
                                   for c in cols))
            return xs[0], gs[0], next(self._sizes(xs, gs))

        x, g, big = node(0)
        xs, gs = [x], [g]
        ends = []
        for step in (1, -1):
            t = quiet = 0
            last = big
            while quiet < 2:
                t += step
                if abs(t) > _T_CAP:
                    raise NonconvergenceError(
                        f"{self._WHAT} of {f!r} is not finite or does not "
                        f"decay by x = {xs[-1]:.3g}")
                x, g, v = node(t)
                xs.append(x)
                gs.append(g)
                big = max(big, v)
                quiet = ((1 if v > last else quiet + 1)
                         if v <= _NEGLIGIBLE * big else 0)
                last = v
            if step > 0 or not self._LOW_KEEPS:
                del xs[-1], gs[-1]
                t -= step
            ends.append(t)
        self.hi, self.lo = ends
        # level 0 runs t = 0, 1, ..., hi, then -1, ..., lo
        self.ends = [xs[self.hi], xs[-1]], [gs[self.hi], gs[-1]]
        self.levels = ((xs, gs, _one_sign(gs)),)

    @classmethod
    def _columns(cls, n):
        """The geometry of level n at every |t| <= _T_CAP, as columns;
        computed once per process."""
        table = cls._TABLE
        while len(table) <= n:
            if table:
                span = 2 ** (len(table) - 1)
                h = 1.0 / (2 * span)
                ts = [(2 * i + 1) * h for i in range(-_T_CAP * span,
                                                     _T_CAP * span)]
            else:
                ts = [float(t) for t in range(-_T_CAP, _T_CAP + 1)]
            table = cls._TABLE = table + (
                tuple(zip(*map(cls._geometry, ts))),)
        return table[n]

    def level(self, n):
        """(x_i, g_i, whether the g_i are of one sign) of the nodes new at
        level n."""
        levels = self.levels
        while len(levels) <= n:
            span = 2 ** (len(levels) - 1)
            cut = slice((self.lo + _T_CAP) * span, (self.hi + _T_CAP) * span)
            cols = self._columns(len(levels))
            xs, gs = self._nodes(*(c[cut] for c in cols))
            levels = self.levels = levels + ((xs, gs, _one_sign(gs)),)
        return levels[n]


def _one_sign(gs):
    """Whether no two of gs have opposite signs."""
    return min(gs) >= 0.0 or max(gs) <= 0.0


class ExpSinh(_Rule):
    """Exp-sinh quadrature of f(x) x^{-p} over [a0, inf), p >= 1 and
    a0 >= 1: the tails of the split rungs of one ladder, which share its
    nodes, and the tail of its direct transforms.

    x = a0 + exp(pi/2 sinh t).  A node's size is |g_i| / x_i.
    """

    _WHAT = "split tail"
    _TABLE = ()
    _RTOL, _ATOL = 1e-13, 1e-15

    def __init__(self, f, a0):
        self.a0 = a0
        super().__init__(f)

    @staticmethod
    def _geometry(t):
        u = math.exp(_HALF_PI * math.sinh(t))
        return u, _HALF_PI * math.cosh(t) * u

    def _nodes(self, us, ws):
        xs = list(map(add, repeat(self.a0), us))
        return xs, list(map(mul, ws, map(self.f.eval, xs)))

    @staticmethod
    def _sizes(xs, gs):
        return map(abs, map(truediv, gs, xs))

    def integral(self, p):
        """(int_{a0}^inf f(x) x^{-p} dx, its error bound by
        :func:`integrate`); a last change within 1e-13 relative or 1e-15
        absolute is accepted, and NonconvergenceError is raised without
        one.  The factor x^{-p} is pow's, within an ulp, 2u."""
        got = integrate([(self, lambda xs, gs: map(
            mul, gs, map(pow, xs, repeat(-p))), 2)],
            self._RTOL, self._ATOL)
        if got is None:
            raise NonconvergenceError(
                f"exp-sinh tail of {self.f!r} at power {p:g} did not "
                f"converge within {LEVEL_CAP} levels")
        return got


class TanhSinh(_Rule):
    """Tanh-sinh quadrature of f(x) x^{-nu} times a factor of x over
    [0, a]: the direct transforms of one ladder, on [0, a] at a finite a
    and on [0, SPLIT_POINT] at a = inf.

    x = a s/(1+s) with s = e^{pi sinh t}, so x near 0 keeps its relative
    accuracy and x^{-nu} with it; w = pi cosh t x/(1+s), and
    g = pi cosh t x^{1-nu} f(x)/(1+s).  A node's size is |g_i|.
    """

    _WHAT = "tanh-sinh integrand"
    _TABLE = ()
    _LOW_KEEPS = True  # the callers' kernels are largest at x = 0

    def __init__(self, f, nu, a):
        self.a, self.p = a, 1.0 - nu
        super().__init__(f)

    @staticmethod
    def _geometry(t):
        s = math.exp(math.pi * math.sinh(t))
        y = 1.0 / (1.0 + s)
        return s, y, math.pi * math.cosh(t) * y

    def _nodes(self, ss, ys, ws):
        xs = list(map(mul, map(mul, repeat(self.a), ss), ys))
        # x ** 1.0 is x exactly
        ps = xs if self.p == 1.0 else map(pow, xs, repeat(self.p))
        return xs, list(map(mul, map(mul, ws, ps), map(self.f.eval, xs)))

    @staticmethod
    def _sizes(xs, gs):
        return map(abs, gs)
