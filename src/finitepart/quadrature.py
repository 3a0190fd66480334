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
caller brings its own factor of x.  Each rule has one integration method,
``integral(f, terms, c, rtol, ...)``, which returns (the value, its error
bound) or None; the caller sets the tolerance and says what a refusal
means.  A rule holds numbers and lists only, no reference to f: every
call that reads a value of f takes f as its first argument, so a
descriptor whose ladder keeps a rule is freed by reference counting once
its last name goes.  Tables, levels and rules grow by replacement, and a
level's or rule's lists are never changed once made, so a thread reads
whole ones only.
"""

import cmath
import math
from decimal import Decimal, localcontext
from itertools import repeat
from operator import add, mul

from .errors import NonconvergenceError
from .gammafn import UNIT_ROUNDOFF

_HALF_PI = 0.5 * math.pi
_T_CAP = 6  # |t| of the outermost node: x = a0 + e^{317}
_NEGLIGIBLE = 2.0 ** -70
MIN_LEVEL = 3  # first level whose change from the one before is trusted
LEVEL_CAP = 8  # finest step h = 2^-8
GAUSS_START = 16  # nodes of the first Gauss-Jacobi rule
GAUSS_CAP = 256  # nodes of the last

# level n -> the columns (u_i, w_i) of :func:`_geometry`, and (nu, N) ->
# (the nodes t_i, the weights w_i) of the N-point Gauss rule of x^{-nu} on
# [0, 1]; grown by replacement, never in place
_GEOMETRY = ()
_JACOBI = {}


def _geometry(n):
    """The columns (u_i, w_i) of exp-sinh level n at every |t| <= _T_CAP:
    the integers t at level 0, the odd multiples of 2^-n after it;
    computed once per process."""
    global _GEOMETRY
    table = _GEOMETRY
    while len(table) <= n:
        if table:
            span = 2 ** (len(table) - 1)
            h = 1.0 / (2 * span)
            ts = [(2 * i + 1) * h for i in range(-_T_CAP * span,
                                                 _T_CAP * span)]
        else:
            ts = [float(t) for t in range(-_T_CAP, _T_CAP + 1)]
        us = [math.exp(_HALF_PI * math.sinh(t)) for t in ts]
        ws = [_HALF_PI * math.cosh(t) * u for t, u in zip(ts, us)]
        table = _GEOMETRY = table + ((us, ws),)
    return table[n]


def _one_sign(gs):
    """Whether no two of gs have opposite signs."""
    return min(gs) >= 0.0 or max(gs) <= 0.0


class ExpSinh:
    """Exp-sinh quadrature of f(x) times the caller's positive factor of x
    over [a0, inf), a0 >= 1: the tails of the split rungs of one ladder,
    x^{-m-nu}, which share its nodes, and the tail of its direct
    transforms, x^{-nu} times the kernel.

    x = a0 + exp(pi/2 sinh t).  ``levels`` holds each level's (x_i, g_i,
    whether the g_i are of one sign), and ``ends`` the (x_i, g_i) of the
    range's end nodes, made from f at level 0.  A node's size is
    |g_i| / x_i.
    """

    def __init__(self, f, a0):
        self.a0 = a0
        us, ws = _geometry(0)

        def node(t):  # level 0 holds t = -_T_CAP, ..., _T_CAP
            x = a0 + us[t + _T_CAP]
            g = ws[t + _T_CAP] * f.eval(x)
            return x, g, abs(g / x)

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
                        f"split tail of {f!r} is not finite or does not "
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

    def level(self, f, n):
        """(x_i, g_i, whether the g_i are of one sign) of the nodes new at
        level n, the values taken from f, the rule's own."""
        levels = self.levels
        while len(levels) <= n:
            span = 2 ** (len(levels) - 1)
            cut = slice((self.lo + _T_CAP) * span, (self.hi + _T_CAP) * span)
            us, ws = _geometry(len(levels))
            xs = list(map(add, repeat(self.a0), us[cut]))
            gs = list(map(mul, ws[cut], map(f.eval, xs)))
            levels = self.levels = levels + ((xs, gs, _one_sign(gs)),)
        return levels[n]

    def integral(self, f, level_terms, c, rtol, atol):
        """(the integral, its error bound), or None.

        The integral is the trapezoidal value of the terms
        ``level_terms(xs, gs)`` of the levels: their values times the
        caller's positive factor of x, formed within c u.  From level
        MIN_LEVEL on it is accepted when its change from the level before
        is within max(rtol |integral|, atol).  None when the integral
        leaves float range or the levels pass LEVEL_CAP.

        The bound is the last change plus, at the last level n, whose N
        nodes are the most of any level, the rounding (N + n + c) u 2^-n
        times the sum of the sizes |t| of the terms summed over levels 0 to
        n (a running error bound, Higham, Accuracy and Stability of
        Numerical Algorithms, ch. 4): a term is within (c + 1) u of its
        exact value; a level's sum of at most N terms adds (N - 1) u of
        their sizes, recursive summation or the compensated sum() of
        Python 3.12, and each of the n additions of a level to the total u
        of the sizes summed so far; where a level's values are of one sign,
        the size of its sum is the sum of its sizes, bit for bit.  The
        parts past the ends of the range, where the integrand decays double
        exponentially, are taken at the sizes of the terms of its end
        nodes, which the caller's factor can raise far past the quiet sizes
        of F.
        """
        total = size = 0.0
        value = math.nan
        for n in range(LEVEL_CAP + 1):
            xs, gs, signed = self.level(f, n)
            terms = level_terms(xs, gs) if signed else [*level_terms(xs, gs)]
            s = sum(terms)
            size += abs(s) if signed else sum(map(abs, terms))
            total += s
            new = math.ldexp(total, -n)
            change, value = abs(new - value), new
            if not abs(value) < math.inf:
                return None
            if n >= MIN_LEVEL and change <= max(rtol * abs(value), atol):
                return value, change + (
                    (len(xs) + n + c) * UNIT_ROUNDOFF * math.ldexp(size, -n)
                    + sum(map(abs, level_terms(*self.ends))))
        return None


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
        if count == GAUSS_CAP:  # no pair within the cap
            return None
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
