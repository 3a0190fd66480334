"""Quadrature rules: exp-sinh on [a0, inf) and Gauss-Jacobi on [0, a].

ExpSinh is a double-exponential rule (Takahasi and Mori 1974): it maps
[a0, inf) onto the whole t line by x = a0 + u, u = e^{pi/2 sinh t}, under
which the integrand F(x) = f(x) decays double exponentially, and sums it
by the trapezoidal rule at the steps h = 2^-n of its levels n = 0, 1, ...
The nodes x_i and the weighted values g_i = w_i F(x_i), w = dx/dt, of
every level are computed once: level 0 takes the integers t in [lo, hi],
each level n after it the odd multiples of 2^-n in that range, and notes
whether its values are of one sign.  The range ends at the first quiet
node, one whose size is below _NEGLIGIBLE times the largest one's, that
the next node, no larger, confirms (a larger one marks a dip of F at a
root).  The part of a node that F does not change, (u, w), is computed
once per process for every |t| <= _T_CAP of a level, in one table, so a
rule forms only x and g.

GaussJacobi is the N-point Gauss rule of the weight x^{-nu} on [0, a], for
N = GAUSS_START, 2 GAUSS_START, ..., GAUSS_CAP.  Its nodes and weights on
[0, 1] come from the Jacobi matrix of that weight (Jacobi alpha = 0,
beta = -nu, shifted to [0, 1]) by Golub and Welsch (Math. Comp. 23, 1969):
implicit QL, which keeps only the first component of each eigenvector.
They are computed once per process for every (nu, N), in one table.  On
the pole kernel at omega > a/2 the rule converges like rho^{-2N}, with
rho >= 3.73 the Bernstein ellipse through the pole (Trefethen, SIAM
Review 50, 2008), and rho >= 2.89 on the quadratic kernel.

A rule belongs to the integrand factor that its callers share, and each
caller brings its own factor of x.  It holds numbers and lists only, no
reference to f: every call that reads a value of f takes f as its first
argument, so a descriptor whose ladder keeps a rule is freed by reference
counting once its last name goes.  Tables, levels and rules grow by
replacement, and a level's or rule's lists are never changed once made,
so a thread reads whole ones only.
"""

import cmath
import math
from decimal import Decimal, localcontext
from functools import reduce
from itertools import repeat
from operator import add, mul, truediv

from .errors import NonconvergenceError
from .gammafn import UNIT_ROUNDOFF

_HALF_PI = 0.5 * math.pi
_T_CAP = 6  # |t| of the outermost node: x = a0 + e^{317}
_NEGLIGIBLE = 2.0 ** -70
MIN_LEVEL = 3  # first level whose change from the one before is trusted
LEVEL_CAP = 8  # finest step h = 2^-8
GAUSS_START = 16  # nodes of the first Gauss-Jacobi rule
GAUSS_CAP = 128  # nodes of the last

# (nu, N) -> (the nodes t_i, the weights w_i) of the N-point Gauss rule of
# x^{-nu} on [0, 1]; grown by replacement, never in place
_JACOBI = {}


def integrate(f, parts, rtol, atol=0.0):
    """(the integral, its error bound), or None.

    The integral is the sum of the trapezoidal values of ``parts``,
    (rule, level_terms, c), each rule of f: ``level_terms(xs, gs)`` gives
    a level's terms, its values times the caller's positive factor of x,
    formed within c u.
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
            xs, gs, signed = rule.level(f, n)
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
                    err += ((len(rule.level(f, top)[0]) + top + c)
                            * UNIT_ROUNDOFF * math.ldexp(size, -top)
                            + sum(map(abs, level_terms(*rule.ends))))
                return value, err
            if count > 1:
                live = [i for i in live if changes[i] > bound / count]
    return None


class _Rule:
    """The levels of one rule, each (x_i, g_i, whether the g_i are of one
    sign), and the (x_i, g_i) of its range's end nodes, ``ends``, made
    from f at level 0; a subclass gives its geometry ``_geometry(t)``, the
    nodes ``_nodes(f, *columns)`` of geometry columns, and the node sizes
    ``_sizes(xs, gs)``, which find a quiet node."""

    _WHAT = ""  # names the integrand in the error of a range that is open
    _TABLE = ()  # level n -> the geometry columns of |t| <= _T_CAP

    def __init__(self, f):
        cols = self._columns(0)

        def node(t):  # level 0 holds t = -_T_CAP, ..., _T_CAP
            xs, gs = self._nodes(f, *(c[t + _T_CAP:t + _T_CAP + 1]
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
            del xs[-1], gs[-1]
            ends.append(t - step)
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

    def level(self, f, n):
        """(x_i, g_i, whether the g_i are of one sign) of the nodes new at
        level n, the values taken from f, the rule's own."""
        levels = self.levels
        while len(levels) <= n:
            span = 2 ** (len(levels) - 1)
            cut = slice((self.lo + _T_CAP) * span, (self.hi + _T_CAP) * span)
            cols = self._columns(len(levels))
            xs, gs = self._nodes(f, *(c[cut] for c in cols))
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

    def _nodes(self, f, us, ws):
        xs = list(map(add, repeat(self.a0), us))
        return xs, list(map(mul, ws, map(f.eval, xs)))

    @staticmethod
    def _sizes(xs, gs):
        return map(abs, map(truediv, gs, xs))

    def integral(self, f, p):
        """(int_{a0}^inf f(x) x^{-p} dx, its error bound by
        :func:`integrate`); a last change within 1e-13 relative or 1e-15
        absolute is accepted, and NonconvergenceError is raised without
        one.  The factor x^{-p} is pow's, within an ulp, 2u."""
        got = integrate(f, [(self, lambda xs, gs: map(
            mul, gs, map(pow, xs, repeat(-p))), 2)],
            self._RTOL, self._ATOL)
        if got is None:
            raise NonconvergenceError(
                f"exp-sinh tail of {f!r} at power {p:g} did not "
                f"converge within {LEVEL_CAP} levels")
        return got


def jacobi_rule(nu, count):
    """(t_i, w_i), increasing t_i: the count-point Gauss rule of the weight
    x^{-nu} on [0, 1], 0 <= nu < 1; made once per process."""
    global _JACOBI
    key = (nu, count)
    got = _JACOBI.get(key)
    if got is None:
        got = _golub_welsch(nu, count)
        _JACOBI = {**_JACOBI, key: got}
    return got


def _golub_welsch(nu, count):
    """The nodes and weights of :func:`jacobi_rule` by Golub and Welsch.

    The Jacobi matrix of x^{-nu} on [0, 1] is that of the Jacobi weight
    (1-t)^0 (1+t)^{-nu} on [-1, 1] under x = (1+t)/2: with s = 2k - nu its
    diagonal is (1 + nu^2/(s (s+2)))/2, (1-nu)/(2-nu) at k = 0, and its
    off-diagonal k (k-nu)/(s sqrt(s^2 - 1)), k >= 1.  Its eigenvalues are
    the nodes; the weights are 1/(1-nu), the weight's integral, times the
    squares of the eigenvectors' first components.  Implicit QL with
    Wilkinson's shift (tqli of Numerical Recipes, 2nd ed., sec. 11.3) finds
    both, rotating the first row of the eigenvector matrix only.  It runs
    in 34-digit decimal arithmetic, and each node and weight is rounded
    once to a float: in float the weights at the ends of the range came
    out up to 4,400 u off at N = 64, and at nu near 1 the first node
    carries over half of the weight's integral.
    """
    with localcontext() as ctx:
        ctx.prec = 34
        one, zero, v = Decimal(1), Decimal(0), Decimal(nu)
        d = [(one - v) / (2 - v)]
        e = []
        for k in range(1, count):
            s = 2 * k - v
            d.append((one + v * v / (s * (s + 2))) / 2)
            e.append(k * (k - v) / (s * ((s - 1) * (s + 1)).sqrt()))
        e.append(zero)
        z = [one] + [zero] * (count - 1)
        eps = Decimal(10) ** (2 - ctx.prec)
        for lo in range(count):
            while True:
                m = lo
                while m < count - 1 and abs(e[m]) > eps * (abs(d[m])
                                                           + abs(d[m + 1])):
                    m += 1
                if m == lo:
                    break
                g = (d[lo + 1] - d[lo]) / (2 * e[lo])
                r = (g * g + one).sqrt()
                g = d[m] - d[lo] + e[lo] / (g + r if g >= 0 else g - r)
                s = c = one
                p = zero
                for i in range(m - 1, lo - 1, -1):
                    f = s * e[i]
                    b = c * e[i]
                    r = e[i + 1] = (f * f + g * g).sqrt()
                    if not r:  # split the matrix and sweep again
                        d[i + 1] -= p
                        e[m] = zero
                        break
                    s = f / r
                    c = g / r
                    g = d[i + 1] - p
                    r = (d[i] - g) * s + 2 * c * b
                    p = s * r
                    d[i + 1] = g + p
                    g = c * r - b
                    f = z[i + 1]
                    z[i + 1] = s * z[i] + c * f
                    z[i] = c * z[i] - s * f
                else:
                    d[lo] -= p
                    e[lo] = g
                    e[m] = zero
        mass = one / (one - v)
        nodes = sorted(zip(d, z))
        return ([float(t) for t, _ in nodes],
                [float(mass * (w * w)) for _, w in nodes])


class GaussJacobi:
    """Gauss-Jacobi quadrature of f(x) x^{-nu} times a factor of x over
    [0, a]: the direct transforms of one ladder, on [0, a] at a finite a
    and on [0, SPLIT_POINT] at a = inf.

    ``rules`` maps N to the N-point rule's (x_i, g_i): the nodes
    x_i = a t_i and g_i = (a^{1-nu} w_i) f(x_i) of :func:`jacobi_rule`.
    Each is made from f on first use and kept, so every later call forms
    only the caller's factor of x.
    """

    def __init__(self, nu, a):
        self.nu, self.a = nu, a
        self.scale = a ** (1.0 - nu)
        self.rules = {}

    def rule(self, f, count):
        """(x_i, g_i) of the count-point rule, the values taken from f, the
        rule's own."""
        got = self.rules.get(count)
        if got is None:
            ts, ws = jacobi_rule(self.nu, count)
            xs = list(map(mul, ts, repeat(self.a)))
            got = xs, list(map(mul, map(mul, ws, repeat(self.scale)),
                               map(f.eval, xs)))
            self.rules = {**self.rules, count: got}
        return got

    def integral(self, f, rule_terms, c, rtol, rho):
        """(Q_2N, its error bound), or None.

        Q_N is the sum of the terms ``rule_terms(xs, gs)`` of the N-point
        rule: its values times the caller's factor of x, formed within c u.
        That factor is analytic inside the Bernstein ellipse of ``rho``
        about [0, a], so Q_N of it alone is within about rho^{-2N}
        (Trefethen, SIAM Review 50, 2008).  The pairs start at the first N
        of GAUSS_START, 2 GAUSS_START, ... at which that is within rtol,
        since two rules that both miss the factor can agree by chance.  N
        doubles until the bound, the change |Q_2N - Q_N| plus the rounding
        (2N + c) u sum |t| of Q_2N's terms, is within rtol |Q_2N|, or until
        the change is within that rounding, which more nodes only raise;
        2N u covers the sum's (2N - 1) u and the rule's own nodes and
        weights.  None where Q leaves float range or 2N passes GAUSS_CAP.
        """
        count = GAUSS_START
        while count < GAUSS_CAP and 2 * count * math.log(rho) < -math.log(
                rtol):
            count *= 2
        old = None
        while count <= GAUSS_CAP:
            terms = [*rule_terms(*self.rule(f, count))]
            value = sum(terms)
            if not abs(value) < math.inf:
                return None
            if old is not None:
                change = abs(value - old)
                rounding = ((count + c) * UNIT_ROUNDOFF
                            * sum(map(abs, terms)))
                if change <= max(rtol * abs(value) - rounding, rounding):
                    return value, change + rounding
            old = value
            count *= 2
        return None


def bernstein_rho(z, a):
    """rho of the Bernstein ellipse about [0, a] through the point z: the
    ellipse with foci 0 and a whose semi-axes sum to rho a/2."""
    t = 2.0 * z / a - 1.0
    w = abs(t + cmath.sqrt(t - 1.0) * cmath.sqrt(t + 1.0))
    return max(w, 1.0 / w)
