"""The known silent faults, one strict xfail each.

Every case asks for one of the three outcomes that a printed number is
allowed: within ``TOL`` of an mpmath reference computed here, flagged
(``converged`` is False), or a ``FinitePartError``.  Each fault still open
comes back unflagged and wrong, so its case is marked
``xfail(strict=True)`` with the ROADMAP item that mends it: the change that
mends a fault makes its case pass, and must drop the mark; the case stays
as a regular test.
"""

import math

import mpmath as mp
import pytest

from finitepart.entire import BinomialPoly, Exponential, MonomialExp
from finitepart.errors import FinitePartError
from finitepart.specfun import (Gauss2F1IntParams, KummerParams,
                                gauss2f1_integer, kummer_u)
from finitepart.stieltjes import (TransformSpec, effective_diffusivity,
                                  eval_quadratic, evaluate_transform)

TOL = 1e-12
DPS = 40


def item(number, what):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"ROADMAP item {number}: {what}")


def transform_ref(f, n, nu, a, omega):
    """int_0^a x^-nu f(x) (omega + x)^-n dx, in x = t^q, q = 1 / (1 - nu),
    which removes the x^-nu endpoint singularity."""
    with mp.workdps(DPS):
        q = 1 / (1 - mp.mpf(nu))
        w = mp.mpf(omega)
        pts = [0] + [p ** (1 / q) for p in (w / 40, w, 1) if p < a] + [a]
        return mp.quad(lambda t: q * f(t**q) / (w + t**q) ** n, pts)


def binpoly_ref(p, q, n, a, omega):
    """int_0^a x^p (1-x)^q (omega + x)^-n dx, with the kernel taken over
    its value at 0: at large n the unscaled integrand is so small (the
    integral is about 1e-52 at n = 40) that mpmath settles on an absolute
    change, up to 1e-3 off."""
    with mp.workdps(DPS):
        w = mp.mpf(omega)
        return mp.quad(lambda x: x**p * (1 - x) ** q * (w / (w + x)) ** n,
                       [0, 1, w, a]) / w**n


def quadratic_ref(f, omega):
    """int_0^inf f(x) / (omega^2 + x^2) dx."""
    with mp.workdps(DPS):
        w = mp.mpf(omega)
        return mp.quad(lambda x: f(x) / (w * w + x * x), [0, w, 2 * w, mp.inf])


def outcome(compute, ref):
    """'within tol', 'flagged', 'rejected', or the relative error of an
    unflagged value outside TOL |ref|."""
    try:
        got = compute()
    except FinitePartError:
        return "rejected"
    if not isinstance(got, float):
        if not got.converged:
            return "flagged"
        got = got.total
    with mp.workdps(DPS):
        err = abs(mp.mpf(got) - ref) / abs(ref)
    return "within tol" if err <= TOL else f"rel err {float(err):.2g}"


def allowed(result):
    return result in ("within tol", "flagged", "rejected")


exp1 = lambda x: mp.exp(-x)


@item(1, "the quadratic kernel on e^-x at a = inf, omega = 20 (2.1e-7 off)")
def test_quadratic_exp_at_omega_20():
    ref = quadratic_ref(exp1, 20)
    assert allowed(outcome(lambda: eval_quadratic(Exponential(1.0), 20.0),
                           ref))


@item(1, "the quadratic kernel on e^-x at a = inf, omega = 30 (2.3e-2 off)")
def test_quadratic_exp_at_omega_30():
    ref = quadratic_ref(exp1, 30)
    assert allowed(outcome(lambda: eval_quadratic(Exponential(1.0), 30.0),
                           ref))


@item(1, "effective_diffusivity(e^-x, e^-x, Pe = 0.05) (1.05e-9 off)")
def test_diffusivity_at_peclet_0_05():
    g = Exponential(1.0)
    ref = 1 + 2 * quadratic_ref(exp1, 1 / mp.mpf(0.05))
    assert allowed(outcome(lambda: effective_diffusivity(g, g, 0.05, 1.0),
                           ref))


@item(1, "exp(2.5), n = 3, nu = 0.25, a = 30, omega = 9 (3.8 off, relative)")
def test_exponential_branch_transform():
    ref = transform_ref(lambda x: mp.exp(-2.5 * x), 3, 0.25, 30, 9)
    spec = TransformSpec(Exponential(2.5), 3, 9.0, 30.0, 0.25)
    assert allowed(outcome(lambda: evaluate_transform(spec), ref))


@item(1, "monexp(2,0.8), n = 3, nu = 0.25, a = 1, omega = 0.3 "
         "(1.2e-12 off, relative)")
def test_monomial_exp_branch_transform():
    ref = transform_ref(lambda x: x * x * mp.exp(-0.8 * x), 3, 0.25, 1, 0.3)
    spec = TransformSpec(MonomialExp(2, 0.8), 3, 0.3, 1.0, 0.25)
    assert allowed(outcome(lambda: evaluate_transform(spec), ref))


@item(2, "binpoly(3,400), n = 2, a = 1, omega = 0.5 (gives -7.6e100)")
def test_binomial_transform_at_large_q():
    ref = transform_ref(lambda x: x**3 * (1 - x) ** 400, 2, 0, 1, 0.5)
    spec = TransformSpec(BinomialPoly(3, 400), 2, 0.5, 1.0)
    assert allowed(outcome(lambda: evaluate_transform(spec), ref))


@item(1, "monexp(20,1), n = 40, nu = 0.5, a = inf, omega = 0.01: the "
         "singular term cancels (gives -1.30e28)")
def test_branch_singular_term_at_large_n():
    ref = transform_ref(lambda x: x**20 * mp.exp(-x), 40, 0.5, math.inf,
                        0.01)
    spec = TransformSpec(MonomialExp(20, 1.0), 40, 0.01, math.inf, 0.5)
    assert allowed(outcome(lambda: evaluate_transform(spec), ref))


@item(1, "monexp(20,1), n = 40, a = inf, omega = 0.05: the singular term "
         "cancels (gives 1.57e13)")
def test_pole_singular_term_at_large_n():
    ref = transform_ref(lambda x: x**20 * mp.exp(-x), 40, 0, math.inf, 0.05)
    spec = TransformSpec(MonomialExp(20, 1.0), 40, 0.05, math.inf)
    assert allowed(outcome(lambda: evaluate_transform(spec), ref))


def test_branch_transform_after_a_refused_direct_route():
    # the tanh-sinh range could not close at nu = 0.83, and the series
    # stopped converged after 1,579 terms, 37 % off; the Gauss-Jacobi rule
    # carries x^-nu in its weights, 1.0e-15 off
    ref = transform_ref(lambda x: (1 - x) ** 3, 15, 0.83, 1, 1 / 1.05)
    spec = TransformSpec(BinomialPoly(0, 3), 15, 1 / 1.05, 1.0, 0.83)
    assert allowed(outcome(lambda: evaluate_transform(spec), ref))


def forced(p, q, n, off):
    return pytest.param(p, q, n, marks=item(
        1, f"k_max forces the series on binpoly({p},{q}), n = {n}, a = 40, "
           f"omega = 20.5 ({off} off, relative)"))


@pytest.mark.parametrize("p, q, n", [forced(0, 10, 40, "3.9e-5"),
                                     forced(2, 8, 20, "4.2e-9"),
                                     forced(0, 10, 10, "1.7e-9")])
def test_forced_series_at_large_n(p, q, n):
    # omega > a/2 routes these direct, within 1e-12; k_max keeps the series
    ref = binpoly_ref(p, q, n, 40, 20.5)
    spec = TransformSpec(BinomialPoly(p, q), n, 20.5, 40.0)
    assert allowed(outcome(lambda: evaluate_transform(spec, k_max=10_000),
                           ref))


@item(5, "U(3, -6, 60) (2.9e26 off, relative)")
def test_kummer_u_at_large_omega():
    with mp.workdps(DPS):
        ref = mp.hyperu(3, -6, 60)
    assert allowed(outcome(lambda: kummer_u(KummerParams(3, 10, 60.0)), ref))


def test_gauss_2f1_near_zeta_1():
    # the series was 25x off; zeta < 2 takes the Euler integral, 8.7e-16 off
    with mp.workdps(DPS):
        ref = mp.hyp2f1(40, 1, 40, -mp.mpf(1.01))
    assert allowed(outcome(
        lambda: gauss2f1_integer(Gauss2F1IntParams(40, 1, 40, 1.01)), ref))
