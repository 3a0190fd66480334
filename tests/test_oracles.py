import ast
import inspect
import math
import struct
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

import finitepart
from finitepart import oracles
from finitepart.entire import (BinomialPoly, CustomSeries, Exponential,
                               MonomialExp, Polynomial)
from finitepart.errors import NonconvergenceError
from finitepart.finite_part import finite_part_integral
from finitepart.gammafn import EULER_GAMMA
from finitepart.oracles import fpi_epsilon_oracle, quad_adaptive

from contour_oracle import fpi_contour_oracle


def expint_e1(x):
    """E1 by series (x <= 1) or modified-Lentz continued fraction (x > 1);
    independent of everything under test."""
    if x <= 0:
        raise ValueError("E1 defined for x > 0 here")
    if x <= 1.0:
        total = -EULER_GAMMA - math.log(x)
        term = 1.0
        for k in range(1, 60):
            term *= -x / k
            total -= term / k
        return total
    tiny = 1e-30
    f = tiny
    c = f
    d = 0.0
    for i in range(1, 200):
        # coefficients of the Stieltjes-type continued fraction
        an = -((i - 1) ** 2) if i > 1 else 1.0
        bn = x + 2.0 * i - 1.0
        d = bn + an * d
        d = 1.0 / (d if d != 0 else tiny)
        c = bn + an / (c if c != 0 else tiny)
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x) * f


def test_expint_helper_sanity():
    # continued fraction and series must agree with each other near x = 1
    assert expint_e1(1.0) == pytest.approx(0.21938393439552029, rel=1e-12)
    assert expint_e1(0.5) == pytest.approx(0.55977359477616081, rel=1e-12)


def test_import_needs_neither_numpy_nor_scipy():
    # a fresh interpreter: this test process has loaded both already
    code = """if True:
        import math, sys
        import finitepart, finitepart.cli
        def heavy():
            return [k for k in sys.modules if k.startswith(("numpy", "scipy"))]

        assert not heavy(), heavy()
        assert "finitepart.oracles" in sys.modules
        # a user-stream sweep at a = inf: the split rungs need neither
        c = finitepart.CustomSeries(
            lambda k: 0.0 if k % 2 else (-1.0) ** (k // 2) / math.factorial(k // 2),
            lambda x: math.exp(-x * x), decaying=True)
        for i in range(16):
            spec = finitepart.TransformSpec(c, 1, 10.0 ** (-3.0 * i / 15))
            assert finitepart.evaluate_transform(spec).converged
        assert not heavy(), heavy()
        r = finitepart.quad_adaptive(math.exp, 0.0, 1.0, tol=1e-12)
        assert abs(r.value - (math.e - 1.0)) < 1e-12, r
    """
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr


def test_no_module_of_the_package_imports_numpy():
    # numpy is a test dependency only: the contour oracle lives in tests/
    seen = []
    for path in sorted(Path(finitepart.__file__).parent.rglob("*.py")):
        seen.append(path.name)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "numpy"], (
                f"{path.name}:{node.lineno} imports numpy")
    assert "oracles.py" in seen and "stieltjes.py" in seen


def test_quad_examples():
    r = quad_adaptive(lambda x: math.exp(-x), 0.0, math.inf, tol=1e-12)
    assert r.value == pytest.approx(1.0, abs=1e-12)
    assert r.evaluations > 0 and r.abs_err_estimate >= 0

    r = quad_adaptive(lambda x: math.exp(-x) / (0.5 + x), 0.0, math.inf, tol=1e-11)
    assert r.value == pytest.approx(math.exp(0.5) * expint_e1(0.5), rel=1e-8)

    # x^-1/2 at the lower limit: QUADPACK's extrapolation settles it
    r = quad_adaptive(lambda x: x**-0.5 / (0.25 + x), 0.0, 1.0, tol=1e-11)
    assert r.value == pytest.approx(4.0 * math.atan(2.0), rel=1e-9)


def test_quad_settles_an_inverse_square_root_at_a_nonzero_lower_limit():
    r = quad_adaptive(lambda x: (x - 1.0) ** -0.5, 1.0, 2.0, tol=1e-12)
    assert r.value == pytest.approx(2.0, rel=1e-12)
    r = quad_adaptive(lambda x: (x - 1.0) ** -0.5 * math.exp(1.0 - x), 1.0,
                      math.inf, tol=1e-12)
    assert r.value == pytest.approx(math.sqrt(math.pi), rel=1e-11)
    r = quad_adaptive(lambda x: (x - 2.0) ** -0.5, 2.0, 4.0, tol=1e-12)
    assert r.value == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_quad_takes_one_interval():
    sig = inspect.signature(quad_adaptive)
    assert str(sig.replace(return_annotation=sig.empty)) \
        == "(integrand, lo, hi, tol=1e-10, alpha=0.0)"
    assert not hasattr(finitepart.oracles, "_quad_once")


def test_quad_integrates_the_algebraic_weight_exactly():
    # int_0^1 s^-0.75 e^-s ds, the lower incomplete gamma(0.25, 1): QAWS
    # needs no bisection towards the singular end, and evaluates s = 0
    seen = []

    def g(s):
        seen.append(s)
        return math.exp(-s)

    r = quad_adaptive(g, 0.0, 1.0, tol=1e-12, alpha=-0.75)
    want = float(mpmath.gammainc(0.25, 0, 1))
    assert r.value == pytest.approx(want, rel=1e-13)
    assert 0.0 in seen and r.evaluations <= 50


def test_quad_roundoff_retry_keeps_the_weight(monkeypatch):
    # int |g(s)| s^alpha is the size the weighted value is judged by: a
    # retry without the weight would judge it by int |g(s)| instead
    calls = []

    def answer(integrand, lo, hi, **kw):
        calls.append(kw)
        if len(calls) == 1:
            return (-1e-14, 1e-20, {"neval": 25},
                    "The occurrence of roundoff error is detected")
        return 2.0, 1e-4, {"neval": 15}

    monkeypatch.setattr(integrate, "quad", answer)
    r = quad_adaptive(lambda s: 1.0 - 2.0 * s, 0.0, 1.0, tol=1e-11,
                      alpha=-0.25)
    assert len(calls) == 2
    assert all(kw["weight"] == "alg" and kw["wvar"] == (-0.25, 0.0)
               for kw in calls)
    assert r.value == -1e-14 and r.evaluations == 40
    calls.clear()
    quad_adaptive(lambda s: 1.0 - 2.0 * s, 0.0, 1.0, tol=1e-11)
    assert len(calls) == 2 and not any("weight" in kw for kw in calls)


def test_quad_accepts_roundoff_within_the_integrand_size():
    # x - x^2 on [0.01, 1.5] cancels to -4.97e-5 against int |g| = 1/3;
    # QUADPACK reports roundoff with an error estimate of 3.7e-15, below
    # 1e-12 / 3, so the value is accepted
    want = (1.5 ** 2 / 2 - 1.5 ** 3 / 3) - (0.01 ** 2 / 2 - 0.01 ** 3 / 3)
    r = quad_adaptive(lambda x: x - x * x, 0.01, 1.5, tol=1e-12)
    assert r.value == pytest.approx(want, abs=1e-15)
    assert r.abs_err_estimate <= 1e-12 / 3


def test_quad_still_raises_when_it_does_not_converge():
    # roundoff again, but the error estimate (8e-9) is far above 1e-12
    # times int |g|: a float32-rounded sine
    def f32_sin(x):
        return struct.unpack("f", struct.pack("f", math.sin(x)))[0]

    with pytest.raises(NonconvergenceError, match="roundoff"):
        quad_adaptive(f32_sin, 0.0, 3.0, tol=1e-12)
    # another QUADPACK failure, the subdivision limit, is not forgiven
    with pytest.raises(NonconvergenceError, match="subdivisions"):
        quad_adaptive(lambda x: 1.0 + 1e-8 * math.sin(1e15 * x), 0.0, 1.0,
                      tol=1e-12)


def test_quad_validation():
    with pytest.raises(ValueError):
        quad_adaptive(lambda x: x, 1.0, 1.0)


def test_epsilon_oracle_examples():
    v = fpi_epsilon_oracle(Exponential(1.0), 1, 0.0, 1.0)
    assert v == pytest.approx(-0.7965995993, abs=1e-6)
    v = fpi_epsilon_oracle(Polynomial([1.0]), 2, 0.0, 1.0)
    assert v == pytest.approx(-1.0, abs=1e-9)
    v = fpi_epsilon_oracle(Exponential(1.0), 1, 0.5, 1.0)
    assert v == pytest.approx(-3.723055, abs=1e-5)


def test_epsilon_oracle_validation():
    f = Exponential(1.0)
    with pytest.raises(ValueError, match="pole strength"):
        fpi_epsilon_oracle(f, 0, 0.0, 1.0)
    for nu in (-0.25, 1.0):
        with pytest.raises(ValueError, match="branch exponent"):
            fpi_epsilon_oracle(f, 1, nu, 1.0)
    for a in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="a > 0"):
            fpi_epsilon_oracle(f, 1, 0.0, a)


def _gauss_coeff(k):
    # exp(-x^2); the zeros past k = 341 keep the float stream finite
    if k % 2 or k // 2 > 170:
        return 0.0
    return (-1.0) ** (k // 2) / math.factorial(k // 2)


def _exp_exact(b):
    return lambda k: (-mpmath.mpf(b)) ** k / mpmath.factorial(k)


def _gauss_exact(k):
    return 0 if k % 2 else mpmath.mpf(-1) ** (k // 2) / mpmath.factorial(k // 2)


# (descriptor, exact c_k as mpf or None for the float coefficients)
_GRID_FUNCTIONS = {
    "exp(1)": (Exponential(1.0), _exp_exact(1.0)),
    "exp(2.5)": (Exponential(2.5), _exp_exact(2.5)),
    "monexp(2,1)": (MonomialExp(2, 1.0),
                    lambda k: 0 if k < 2 else _exp_exact(1.0)(k - 2)),
    "poly(1:0.5:-0.3)": (Polynomial([1.0, 0.5, -0.3]), None),
    "binpoly(1,3)": (BinomialPoly(1, 3), None),
    "binpoly(2,1)": (BinomialPoly(2, 1), None),
    "gauss(1)": (CustomSeries(_gauss_coeff, lambda x: math.exp(-x * x)),
                 _gauss_exact),
}


def _series_fp(f, exact, m, nu, a):
    """Finite part of int_0^a f x^{-m-nu} dx as the term-wise sum of its
    Maclaurin series, at 60 digits."""
    with mpmath.workdps(60):
        a, nu = mpmath.mpf(a), mpmath.mpf(nu)
        deg = f.finite_degree()
        total = mpmath.mpf(0)
        for k in range(200 if deg is None else deg + 1):
            c = mpmath.mpf(f.coeff(k)) if exact is None else exact(k)
            if nu == 0 and k == m - 1:
                total += c * mpmath.log(a)
            elif c:
                p = k + 1 - m - nu
                total += c * a**p / p
        return float(total)


@pytest.mark.parametrize("name", list(_GRID_FUNCTIONS))
def test_epsilon_oracle_matches_the_series_reference(name):
    f, exact = _GRID_FUNCTIONS[name]
    for m in (1, 3, 8):
        for nu in (0.0, 0.25, 0.75):
            for a in (0.05, 1.0, 2.5, 5.0):
                ref = _series_fp(f, exact, m, nu, a)
                got = fpi_epsilon_oracle(f, m, nu, a)
                assert abs(got - ref) <= 1e-9 * abs(ref) + 1e-14, \
                    (m, nu, a, got, ref)


def test_epsilon_oracle_exact_zero_with_a_branch_point():
    # x^2 (1 - x) x^{-2.75} on (0, 5]: 4 * 5^0.25 - 0.8 * 5^1.25 = 0; the
    # remainder -1 is integrated against QUADPACK's weight x^-0.75, which
    # leaves no endpoint singularity for it to fail on
    assert abs(fpi_epsilon_oracle(BinomialPoly(2, 1), 2, 0.75, 5.0)) <= 1e-14


def test_epsilon_oracle_weighs_the_branch_point(monkeypatch):
    # the Taylor remainder is analytic in x, so with x^-nu as the weight the
    # Clenshaw-Curtis rule converges at 0 without bisection, in 40
    # evaluations; a map in which it is not analytic at 0 takes hundreds
    counts = []

    def counted(*args, **kw):
        res = quad_adaptive(*args, **kw)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(oracles, "quad_adaptive", counted)
    got = fpi_epsilon_oracle(Exponential(0.7), 2, 0.25, 2.0)
    assert got == pytest.approx(finite_part_integral(
        Exponential(0.7), 2, 0.25, 2.0).value, rel=1e-13)
    assert len(counts) == 1 and counts[0] <= 60


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_epsilon_oracle_at_a_small_a(m, nu):
    # the limit is taken exactly, so no upper limit is too small
    f = Exponential(1.0)
    ref = _series_fp(f, _exp_exact(1.0), m, nu, 1e-3)
    assert fpi_epsilon_oracle(f, m, nu, 1e-3) == pytest.approx(ref,
                                                               rel=1e-12)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_epsilon_oracle_at_infinity_matches_the_closed_forms(b, m, nu):
    with mpmath.workdps(40):
        b_mp = mpmath.mpf(b)
        if nu:
            s = m + mpmath.mpf(nu)
            ref = b_mp ** (s - 1) * mpmath.gamma(1 - s)
        else:
            ref = ((-b_mp) ** (m - 1) / mpmath.factorial(m - 1)
                   * (mpmath.digamma(m) - mpmath.log(b_mp)))
        ref = float(ref)
    got = fpi_epsilon_oracle(Exponential(b), m, nu, math.inf)
    assert got == pytest.approx(ref, rel=1e-12)


def test_contour_oracle_examples():
    assert fpi_contour_oracle(Exponential(1.0), 2, 1.0) == pytest.approx(
        -0.5712798418, abs=1e-8
    )
    assert fpi_contour_oracle(Polynomial([1.0]), 2, 1.0) == pytest.approx(
        -1.0, abs=1e-10
    )
    assert fpi_contour_oracle(Exponential(1.0), 1, 1.0) == pytest.approx(
        -0.7965995993, abs=1e-8
    )


def contour_simpson(f, m, a, panels=1 << 14):
    """Reference for the spectral contour oracle: the same contour average
    by the composite Simpson rule."""
    theta = np.linspace(0.0, 2.0 * math.pi, panels + 1)
    z = a * np.exp(1j * theta)
    g = np.array([f.eval_complex(zz) for zz in z]) * np.exp(1j * (1 - m) * theta)
    integrand = g.real * math.log(a) - g.imag * (theta - math.pi)
    return float(integrate.simpson(integrand, x=theta)
                 / (2.0 * math.pi * a ** (m - 1)))


def test_contour_simpson_reference_path():
    for f, m, a in [(Exponential(1.0), 1, 1.0), (Exponential(2.0), 3, 0.5),
                    (BinomialPoly(1, 2), 2, 2.0)]:
        spectral = fpi_contour_oracle(f, m, a)
        simpson = contour_simpson(f, m, a)
        assert math.isclose(spectral, simpson, rel_tol=1e-9, abs_tol=1e-9)


def test_contour_oracle_validation():
    with pytest.raises(ValueError):
        fpi_contour_oracle(Exponential(1.0), 1, math.inf)


@pytest.mark.parametrize("f", [Exponential(1.0), Exponential(2.0),
                               BinomialPoly(1, 2), MonomialExp(2, 1.0)],
                         ids=repr)
@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("a", [0.5, 2.0])
def test_three_way_agreement(f, m, a):
    series = finite_part_integral(f, m, 0.0, a).value
    eps = fpi_epsilon_oracle(f, m, 0.0, a)
    contour = fpi_contour_oracle(f, m, a)
    assert math.isclose(series, eps, rel_tol=1e-5, abs_tol=1e-8)
    assert math.isclose(series, contour, rel_tol=1e-7, abs_tol=1e-9)
    assert math.isclose(eps, contour, rel_tol=1e-5, abs_tol=1e-8)


@pytest.mark.parametrize("nu", [0.0, 0.5])
def test_epsilon_oracle_split_consistency(nu):
    f = Exponential(1.0)
    m = 2
    a = 1.0
    left = fpi_epsilon_oracle(f, m, nu, a)
    right = fpi_epsilon_oracle(f, m, nu, 2 * a)
    bridge = quad_adaptive(lambda x: f.eval(x) * x ** (-(m + nu)), a, 2 * a,
                           tol=1e-12)
    assert left + bridge.value == pytest.approx(right, abs=1e-7)


def test_epsilon_oracle_higher_pole_strengths_stay_accurate():
    # the divergent part is cancelled analytically, so even m + nu near 5
    # keeps quadrature noise out of the extrapolation
    f = Exponential(1.0)
    series = finite_part_integral(f, 4, 0.75, 1.0).value
    oracle = fpi_epsilon_oracle(f, 4, 0.75, 1.0)
    assert math.isclose(series, oracle, rel_tol=1e-6, abs_tol=1e-8)
