"""The closed route of the transforms of c x^p e^{-bx} at nu = 0, p < n and
b omega > 1, at a finite or infinite a.

The reference is the closed form at 40 digits,
c sum_j C(p,j) (-omega)^{p-j} J_{n-j} with
J_k = omega^{1-k} e^{b omega} [E_k(b omega)
                               - ((omega+a)/omega)^{1-k} E_k(b(omega+a))],
each E_k from mpmath and e^{b omega} formed in full; it is checked against
mpmath quadratures first.  ``direct`` must lie within its bound of the
reference, every result must keep the exact identity
naive_sum + singular == total, and a converged one must lie within
tol |reference|.
"""

import math

import mpmath
import pytest

from finitepart.cli import main
from finitepart.entire import Exponential, MonomialExp, Scaled
from finitepart.errors import NonconvergenceError
from finitepart.gammafn import expint, expint_scaled
from finitepart.series import TERM_CAP
from finitepart.stieltjes import (DEFAULT_EVAL_TOL, TransformSpec, _closed,
                                  evaluate_transform)

TOL = DEFAULT_EVAL_TOL
INF = math.inf
B_OMEGAS = (1.01, 1.1, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0, 25.0, 50.0, 100.0,
            200.0)


def reference(p, b, c, n, omega, a):
    """The transform of c x^p e^{-bx} at 40 digits, by exponential
    integrals."""
    with mpmath.workdps(40):
        b, omega = mpmath.mpf(b), mpmath.mpf(omega)
        total = 0
        for j in range(p + 1):
            k = n - j
            e = mpmath.expint(k, b * omega)
            if a < INF:
                e -= ((omega + a) / omega) ** (1 - k) * mpmath.expint(
                    k, b * (omega + a))
            total += (math.comb(p, j) * (-omega) ** (p - j)
                      * omega ** (1 - k) * mpmath.exp(b * omega) * e)
        return c * total


def quadrature(p, b, c, n, omega, a):
    with mpmath.workdps(40):
        pts = [0] + [x / b for x in (1, 4, 16, 64) if x / b < a] + [a]
        return c * mpmath.quad(
            lambda x: x ** p * mpmath.exp(-b * x) / (omega + x) ** n, pts)


def descriptor(p, b, c):
    f = MonomialExp(p, b) if p else Exponential(b)
    return f if c == 1.0 else Scaled(f, c)


def check(p, b, c, n, omega, a):
    """The closed-route result, checked against the reference."""
    res = evaluate_transform(TransformSpec(descriptor(p, b, c), n, omega, a))
    direct, bound = _closed(p, b, c, n, omega, a)
    ref = reference(p, b, c, n, omega, a)
    assert (res.route, res.k_used) == ("closed", 0)
    assert res.direct == direct
    assert res.naive_sum == direct - res.singular
    assert res.naive_sum + res.singular == res.total
    assert res.tail_estimate == abs(res.total - direct) + bound
    assert res.converged == (res.tail_estimate <= TOL * abs(direct))
    assert abs(direct - ref) <= bound
    if res.converged:
        assert abs(res.total - ref) <= TOL * abs(ref)
    return res, ref


@pytest.mark.parametrize("p,b,c,n,omega,a", [
    (0, 1.0, 1.0, 1, 25.0, 30.0),
    (0, 1.0, -0.5, 2, 40.0, INF),
    (1, 2.5, 1.0, 2, 0.5, 2.0),
    (2, 1.0, 1.0, 3, 9.0, 10.0),
    (2, 0.3, -0.5, 3, 4.0, 60.0),
    (1, 1.0, 1.0, 3, 200.0, INF),
])
def test_reference_matches_quadrature(p, b, c, n, omega, a):
    ref = reference(p, b, c, n, omega, a)
    assert abs(ref - quadrature(p, b, c, n, omega, a)) <= 1e-30 * abs(ref)


@pytest.mark.parametrize("n,p", [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1),
                                 (3, 2)])
@pytest.mark.parametrize("b", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("a", [2.0, 20.0, 60.0, INF])
def test_grid_against_mpmath(n, p, b, a):
    for c in (1.0, -0.5):
        for bw in B_OMEGAS:
            omega = bw / b
            if omega < a:
                check(p, b, c, n, omega, a)


# ---------------------------------------------------------------------------
# the known faults the route settles or flags
# ---------------------------------------------------------------------------

def test_s1_at_a_30_is_flagged_with_the_true_value_beside_it():
    # the series gave -8.5e-4, marked converged
    res, ref = check(0, 1.0, 1.0, 1, 25.0, 30.0)
    assert not res.converged
    assert res.direct == pytest.approx(0.0385147, rel=1e-6)
    assert abs(res.direct - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("omega,converged", [(5.0, True), (10.0, False),
                                             (20.0, False), (30.0, False),
                                             (40.0, False)])
def test_s2_at_infinity(omega, converged):
    # the series was 7.7e-11, 4.2e-7, 3.9 % and 2e8 off at 5, 10, 20 and 40;
    # the closed_form_mix fault group
    res, ref = check(0, 1.0, 1.0, 2, omega, INF)
    assert res.converged == converged
    assert abs(res.direct - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("omega,converged", [(0.6, None), (6.0, True),
                                             (30.0, False), (54.0, False)])
def test_s1_at_a_60(omega, converged):
    # the series_sweep fault group; omega = 0.6 stays on the series
    if converged is None:
        res = evaluate_transform(TransformSpec(Exponential(1.0), 1, omega,
                                               60.0))
        assert res.route == "series" and res.direct is None
        return
    res, ref = check(0, 1.0, 1.0, 1, omega, 60.0)
    assert res.converged == converged


@pytest.mark.parametrize("p,n,omega,a", [(2, 3, 9.0, 10.0),
                                         (2, 3, 20.0, INF),
                                         (1, 2, 5.0, INF)])
def test_monexp_faults_are_flagged(p, n, omega, a):
    # the series was 3.7e-4, 1.1e2 and 5.2e-10 off, marked converged; the
    # binomial sum cancels, so direct is within its bound, not within u
    res, ref = check(p, 1.0, 1.0, n, omega, a)
    assert not res.converged
    assert abs(res.direct - ref) <= 1e-12 * abs(ref)


# ---------------------------------------------------------------------------
# where the route is not taken
# ---------------------------------------------------------------------------

def test_expint_keeps_its_bits():
    for p, z, value, steps in [
            (1, 1.01, 0.2157416237944886, 88),
            (1, 25.0, 5.348899755340217e-13, 9),
            (2, 1.5, 0.0731007865384808, 63),
            (3, 9.0, 1.0478627862535822e-05, 18),
            (1.25, 3.0, 0.012361911156270246, 35),
            (2.5, 40.0, 1.0009404046387066e-19, 8),
            (1, 700.0, 1.4065187662340334e-307, 4)]:
        assert expint(p, z) == (value, steps)
        h, i = expint_scaled(p, z)
        assert (h * math.exp(-z), i) == (value, steps)


@pytest.mark.parametrize("a", [2.0, INF])
def test_k_max_keeps_the_series(a):
    res = evaluate_transform(TransformSpec(Exponential(1.0), 2, 1.8, a),
                             k_max=TERM_CAP)
    assert res.route == "series" and res.k_used > 0 and res.direct is None


@pytest.mark.parametrize("b,omega,a,route", [(1.0, 1.0, INF, "series"),
                                             (2.5, 0.4, INF, "series"),
                                             (1.0, 1.0, 1.5, "direct")])
def test_b_omega_of_one_keeps_todays_route(b, omega, a, route):
    assert b * omega == 1.0
    spec = TransformSpec(Exponential(b), 1, omega, a)
    res = evaluate_transform(spec)
    assert res.route == route
    if route == "series":
        assert repr(res) == repr(evaluate_transform(spec, k_max=TERM_CAP))


@pytest.mark.parametrize("f,n,nu", [(MonomialExp(2, 1.0), 2, 0.0),
                                    (MonomialExp(3, 1.0), 2, 0.0),
                                    (Exponential(1.0), 2, 0.25)])
def test_p_at_least_n_and_nonzero_nu_keep_the_series(f, n, nu):
    res = evaluate_transform(TransformSpec(f, n, 5.0, INF, nu))
    assert res.route == "series" and res.direct is None


# ---------------------------------------------------------------------------
# a singular term beyond float range
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", [{}, {"k_max": TERM_CAP}])
@pytest.mark.parametrize("a", [INF, 800.0])
def test_singular_overflow_raises_nonconvergence(kw, a):
    # e^750 in f(-omega): the closed route, and the series with k_max
    with pytest.raises(NonconvergenceError,
                       match=r"singular term of Exponential\(b=1\) at "
                             r"omega = 750\.0 leaves float range "
                             r"\(OverflowError"):
        evaluate_transform(TransformSpec(Exponential(1.0), 1, 750.0, a),
                           **kw)


@pytest.mark.parametrize("kw", [{}, {"k_max": TERM_CAP}])
@pytest.mark.parametrize("p,n", [(1, 2), (2, 1)])
def test_singular_beyond_float_range_raises_nonconvergence(kw, p, n):
    # omega^p e^709.5 is past the largest float, with no OverflowError
    with pytest.raises(NonconvergenceError,
                       match=r"singular term of MonomialExp\(p=\d, b=1\) at "
                             r"omega = 709\.5 leaves float range \(-inf\)"):
        evaluate_transform(TransformSpec(MonomialExp(p, 1.0), n, 709.5),
                           **kw)


@pytest.mark.parametrize("a", ["inf", "800"])
def test_singular_overflow_in_the_cli(capsys, a):
    assert main(["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "750",
                 "--a", a]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: singular term of Exponential(b=1)")
