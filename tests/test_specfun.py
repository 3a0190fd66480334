import math
import random

import mpmath
import pytest
from scipy import special

from finitepart import specfun
from finitepart.entire import BinomialPoly, Exponential, MonomialExp
from finitepart.errors import NonconvergenceError
from finitepart.oracles import quad_adaptive
from finitepart.specfun import (Gauss2F1BranchParams, Gauss2F1IntParams,
                                KummerParams, KummerRegime, gauss2f1_branch,
                                gauss2f1_integer, gauss2f1_leading, kummer_u,
                                kummer_u_leading)
from finitepart.stieltjes import (DEFAULT_EVAL_TOL, TransformSpec, _direct,
                                  evaluate_transform)


# ---------------------------------------------------------------------------
# quadrature oracles for the defining integral representations
# ---------------------------------------------------------------------------

def gauss_int_quadrature(n, r, s, zeta):
    pref = math.factorial(s - 1) / (
        math.factorial(r - 1) * math.factorial(s - r - 1) * zeta**n
    )
    w = 1.0 / zeta
    val = quad_adaptive(
        lambda x: x ** (r - 1) * (1 - x) ** (s - r - 1) / (w + x) ** n,
        0.0, 1.0, tol=1e-12,
    ).value
    return pref * val


def gauss_branch_quadrature(n, s, mu, zeta):
    pref = special.gamma(s - mu + 2) / (
        special.gamma(1 - mu) * math.factorial(s) * zeta**n
    )
    w = 1.0 / zeta
    val = quad_adaptive(
        lambda x: x ** (-mu) * (1 - x) ** s / (w + x) ** n,
        0.0, 1.0, tol=1e-12,
    ).value
    return pref * val


def kummer_quadrature(a, b, omega):
    if a < 1:
        # u = t^a: t^(a-1) dt = du / a leaves a bounded integrand
        fn = lambda u: (math.exp(-omega * u ** (1 / a))
                        * (1 + u ** (1 / a)) ** (b - a - 1) / a)
    else:
        fn = lambda t: (math.exp(-omega * t) * t ** (a - 1)
                        * (1 + t) ** (b - a - 1))
    return quad_adaptive(fn, 0.0, math.inf, tol=1e-12).value / special.gamma(a)


# closed forms quoted from tables, evaluated with scipy primitives
def chi_minus_shi(x):
    shi, chi = special.shichi(x)
    return chi - shi


def u_2_m4(w):
    poly = ((((w + 5) * w - 4) * w + 6) * w - 12) * w + 24
    return (math.exp(w) * (w + 6) * chi_minus_shi(w) * w**5 + poly) / 720.0


def u_5_2(w):
    # partial-fraction reduction of the Laplace integral gives the factor
    # w on the hyperbolic-integral term (the two expressions cross at w=1)
    return ((w + 3) * (w * (w + 8) + 2)
            + math.exp(w) * w * (w * (w + 6) ** 2 + 24) * chi_minus_shi(w)) \
        / (144.0 * w)


def u_half_3(w):
    return (2 * math.sqrt(w) * (3 - 2 * w)
            + math.exp(w) * math.sqrt(math.pi) * (4 * w * (w - 1) + 3)
            * special.erfc(math.sqrt(w))) / 8.0


def u_seventh_2(w):
    upper_gamma = special.gammaincc(13.0 / 7.0, w) * special.gamma(13.0 / 7.0)
    return (7 * w ** (13.0 / 7.0)
            - math.exp(w) * (7 * w - 6) * upper_gamma) / 6.0


def eke(z):
    return 3 * (math.sqrt(z) + (z - 1) * math.atan(math.sqrt(z))) / (4 * z**1.5)


def baba1(z):
    t = z ** (1.0 / 3)
    inner = (math.log(1 + 1 / t) - 0.5 * math.log(1 - 1 / t + 1 / t**2)
             + math.sqrt(3) * math.atan((math.sqrt(3) / 2) * (1 / t)
                                        / (1 - 1 / (2 * t))))
    return (10 / (9 * z)) * (1 + (t / 3) * (2 / z - 1) * inner) \
        + (20.0 / 81) * math.sqrt(3) * math.pi * (z - 2) / z ** (5.0 / 3)


def baba2(z):
    return 35 * ((z - 3) * math.sqrt(z) * (3 * z + 5)
                 + 3 * (z + 1) * ((z - 2) * z + 5)
                 * math.atan(math.sqrt(z))) / (128 * z**3.5)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_gauss_int_params_validation():
    with pytest.raises(ValueError):
        Gauss2F1IntParams(5, 2, 4, 0.9)       # zeta <= 1
    with pytest.raises(ValueError):
        Gauss2F1IntParams(2, 1, 3, 2.0)       # s = n+1 breaks s < n+1
    with pytest.raises(ValueError):
        Gauss2F1IntParams(5, 3, 4, 2.0)       # r+1 = s breaks r+1 < s
    Gauss2F1IntParams(3, 1, 3, 2.0)           # boundary s = n is admissible


def test_gauss_branch_params_validation():
    with pytest.raises(ValueError):
        Gauss2F1BranchParams(2, 0.0, 1, 4.0)
    with pytest.raises(ValueError):
        Gauss2F1BranchParams(2, 1.0 - 1e-13, 1, 4.0)
    with pytest.raises(ValueError):
        Gauss2F1BranchParams(2, 0.5, 1, 1.0)


def test_kummer_params_regimes():
    assert KummerParams(2, 7, 1.0).regime is KummerRegime.INT_ORDER_N_GE_S
    assert KummerParams(5, 4, 1.0).regime is KummerRegime.INT_ORDER_N_LT_S
    assert KummerParams(0.5, 3, 1.0).regime is KummerRegime.FRAC_ORDER
    with pytest.raises(ValueError):
        KummerParams(-1, 2, 1.0)
    with pytest.raises(ValueError):
        KummerParams(1.5, 2, 1.0)


# ---------------------------------------------------------------------------
# integer-parameter 2F1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zeta", [1.5, 2.0, 5.0, 10.0])
def test_gauss_int_against_tabulated_closed_form(zeta):
    got = gauss2f1_integer(Gauss2F1IntParams(5, 2, 4, zeta))
    want = (zeta + 2.0) / (2.0 * (zeta + 1.0) ** 3)
    assert math.isclose(got, want, rel_tol=1e-12)


@pytest.mark.parametrize("n,r,s", [(5, 2, 4), (4, 1, 3), (3, 1, 3), (6, 2, 4)])
@pytest.mark.parametrize("zeta", [1.5, 3.0, 8.0])
def test_gauss_int_against_quadrature(n, r, s, zeta):
    got = gauss2f1_integer(Gauss2F1IntParams(n, r, s, zeta))
    want = gauss_int_quadrature(n, r, s, zeta)
    assert math.isclose(got, want, rel_tol=1e-10)


def test_gauss_int_matches_generic_transform():
    # the representation is the generic decomposition specialized to the
    # Euler kernel x^{r-1}(1-x)^{s-r-1} at omega = 1/zeta
    for (n, r, s, zeta) in [(5, 2, 4, 2.0), (4, 1, 3, 5.0), (6, 2, 4, 1.5)]:
        spec = TransformSpec(BinomialPoly(r - 1, s - r - 1), n, 1.0 / zeta, 1.0)
        via_transform = (
            math.factorial(s - 1)
            / (math.factorial(r - 1) * math.factorial(s - r - 1) * zeta**n)
            * evaluate_transform(spec, tol=1e-15).total
        )
        direct = gauss2f1_integer(Gauss2F1IntParams(n, r, s, zeta))
        assert math.isclose(direct, via_transform, rel_tol=1e-10)


ROUTED_ZETAS = (1.001, 1.01, 1.1, 1.5, 1.999)


def routed_cases(zeta, count=24, seed=35):
    """``count`` seeded windows (n, r, s), r+1 < s < n+1 and n <= 40."""
    rng = random.Random(f"{seed} {zeta!r}")
    cases = []
    for _ in range(count):
        n = rng.randint(3, 40)
        s = rng.randint(3, n)
        cases.append((n, rng.randint(1, s - 2), s))
    return cases


def mpmath_2f1(n, r, s, zeta):
    with mpmath.workdps(40):
        return mpmath.hyp2f1(n, r, s, -mpmath.mpf(zeta))


@pytest.mark.parametrize("zeta", ROUTED_ZETAS)
def test_gauss_int_below_zeta_2_against_mpmath(zeta):
    # the Euler integral: each value within 1e-13 of mpmath, or refused
    cases = routed_cases(zeta)
    if zeta == 1.5:
        cases.append((300, 1, 200))  # the series leaves float range here
    computed = 0
    for n, r, s in cases:
        try:
            got = gauss2f1_integer(Gauss2F1IntParams(n, r, s, zeta))
        except NonconvergenceError:
            continue
        want = mpmath_2f1(n, r, s, zeta)
        assert abs(got - want) <= 1e-13 * abs(want), (n, r, s, got, want)
        computed += 1
    assert computed >= len(cases) - 1


@pytest.mark.parametrize("n,r,s,zeta", [
    (300, 1, 200, 1.5), (300, 1, 200, math.nextafter(2.0, 1.0)),
    (1000, 1, 3, 1.01)])
def test_gauss_int_large_n_against_mpmath(n, r, s, zeta):
    # (1/zeta + x)^-n at n in the hundreds: the pair of 128 and 256 nodes
    # resolves these, which no pair of up to 128 did; computed, not refused
    got = gauss2f1_integer(Gauss2F1IntParams(n, r, s, zeta))
    want = mpmath_2f1(n, r, s, zeta)
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


@pytest.mark.parametrize("n,r,s", [(4, 1, 3), (10, 3, 8), (40, 1, 40)])
def test_gauss_int_methods_meet_at_zeta_2(monkeypatch, n, r, s):
    # zeta >= 2 keeps the series bit for bit and takes no integral; the
    # float below 2 takes the integral once, and no series
    calls = []
    monkeypatch.setattr(specfun, "_direct",
                        lambda *args: calls.append(args) or _direct(*args))
    for zeta in (2.0, 2.5, 10.0):
        got = gauss2f1_integer(Gauss2F1IntParams(n, r, s, zeta))
        assert got == (specfun._gauss_int_naive(n, r, s, zeta)
                       + specfun._gauss_int_singular(n, r, s, zeta))
    assert calls == []
    zeta = math.nextafter(2.0, 1.0)
    monkeypatch.setattr(specfun, "_gauss_int_naive", None)
    got = gauss2f1_integer(Gauss2F1IntParams(n, r, s, zeta))
    f = BinomialPoly(r - 1, s - r - 1)
    assert [args[1:] for args in calls] == [
        (n, 0.0, 1.0 / zeta, 1.0, DEFAULT_EVAL_TOL, "pole")]
    direct, _ = _direct(f, n, 0.0, 1.0 / zeta, 1.0, DEFAULT_EVAL_TOL, "pole")
    assert got == (s - r) * math.comb(s - 1, r - 1) * zeta ** -n * direct
    want = mpmath_2f1(n, r, s, zeta)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("n,r,s,zeta,why", [
    # (2/3 + x)^-2000 leaves float range
    (2000, 1, 3, 1.5, "its integral over [0, 1] did not converge"),
    # (1/1.001 + x)^-3000 stays in float range, but no rule resolves it
    (3000, 1, 3, 1.001, "its integral over [0, 1] did not converge"),
])
def test_gauss_int_refused_integral_raises(monkeypatch, n, r, s, zeta, why):
    # never answered by the series
    monkeypatch.setattr(specfun, "_gauss_int_naive", None)
    with pytest.raises(NonconvergenceError) as info:
        gauss2f1_integer(Gauss2F1IntParams(n, r, s, zeta))
    assert str(info.value) == (f"2F1(n, r; s; -zeta) at n = {n}, r = {r}, "
                               f"s = {s}, zeta = {zeta!r}: {why}")


def test_gauss_int_integral_over_its_bound_raises(monkeypatch):
    # (14, 9, 11, 1.999) once came back with a bound of 1.01e-12 of its
    # value; the Gauss-Jacobi rule computes it, 7.3e-16 off, and no
    # integrand of this family has terms of both signs, so an integral
    # over its bound is made here
    with mpmath.workdps(40):
        want = mpmath.hyp2f1(14, 9, 11, -mpmath.mpf(1.999))
    got = gauss2f1_integer(Gauss2F1IntParams(14, 9, 11, 1.999))
    assert abs(got - want) <= 1e-15 * abs(want)
    monkeypatch.setattr(specfun, "_direct", lambda *args: (1.0, 2e-12))
    with pytest.raises(NonconvergenceError) as info:
        gauss2f1_integer(Gauss2F1IntParams(14, 9, 11, 1.999))
    assert str(info.value) == (
        "2F1(n, r; s; -zeta) at n = 14, r = 9, s = 11, zeta = 1.999: its "
        "integral's bound is 2e-12 of its value, above 1e-12")


# ---------------------------------------------------------------------------
# branch-parameter 2F1
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zeta", [2.0, 4.0, 10.0])
def test_gauss_branch_against_arctan_closed_form(zeta):
    got = gauss2f1_branch(Gauss2F1BranchParams(2, 0.5, 1, zeta))
    assert math.isclose(got, eke(zeta), rel_tol=1e-12)


def test_gauss_branch_against_tabulated_cases():
    got = gauss2f1_branch(Gauss2F1BranchParams(2, 1.0 / 3.0, 1, 8.0))
    assert math.isclose(got, baba1(8.0), rel_tol=1e-10)
    got = gauss2f1_branch(Gauss2F1BranchParams(3, 0.5, 3, 4.0))
    assert math.isclose(got, baba2(4.0), rel_tol=1e-10)


@pytest.mark.parametrize("n,s,mu", [(1, 1, 0.25), (2, 1, 0.5), (3, 3, 0.75)])
@pytest.mark.parametrize("zeta", [1.5, 3.0, 8.0])
def test_gauss_branch_against_quadrature(n, s, mu, zeta):
    got = gauss2f1_branch(Gauss2F1BranchParams(n, mu, s, zeta))
    want = gauss_branch_quadrature(n, s, mu, zeta)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_gauss_branch_matches_generic_transform():
    for (n, s, mu, zeta) in [(2, 1, 0.5, 4.0), (3, 3, 0.75, 2.0)]:
        spec = TransformSpec(BinomialPoly(0, s), n, 1.0 / zeta, 1.0, nu=mu)
        pref = special.gamma(s - mu + 2) / (
            special.gamma(1 - mu) * math.factorial(s) * zeta**n
        )
        via_transform = pref * evaluate_transform(spec, tol=1e-15).total
        direct = gauss2f1_branch(Gauss2F1BranchParams(n, mu, s, zeta))
        assert math.isclose(direct, via_transform, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# Kummer U
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_kummer_tabulated_hyperbolic_integral_cases(omega):
    got = kummer_u(KummerParams(2, 7, omega))
    assert math.isclose(got, u_2_m4(omega), rel_tol=1e-9)
    got = kummer_u(KummerParams(5, 4, omega))
    assert math.isclose(got, u_5_2(omega), rel_tol=1e-9)


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_kummer_tabulated_fractional_cases(omega):
    got = kummer_u(KummerParams(0.5, 3, omega))
    assert math.isclose(got, u_half_3(omega), rel_tol=1e-10)
    got = kummer_u(KummerParams(1.0 / 7.0, 2, omega))
    assert math.isclose(got, u_seventh_2(omega), rel_tol=1e-10)


def test_kummer_spot_value():
    assert kummer_u(KummerParams(0.5, 3, 1.0)) == pytest.approx(
        0.5342020585529921, rel=1e-12
    )


@pytest.mark.parametrize("s,n", [(1, 1), (2, 7), (3, 4), (2, 2)])
@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_kummer_int_ge_against_quadrature(s, n, omega):
    got = kummer_u(KummerParams(s, n, omega))
    want = kummer_quadrature(s, s + 1 - n, omega)
    assert math.isclose(got, want, rel_tol=1e-9)


@pytest.mark.parametrize("s,n", [(5, 4), (3, 1), (4, 2)])
@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_kummer_int_lt_against_quadrature(s, n, omega):
    got = kummer_u(KummerParams(s, n, omega))
    want = kummer_quadrature(s, s + 1 - n, omega)
    assert math.isclose(got, want, rel_tol=1e-9)


@pytest.mark.parametrize("a,n", [(0.5, 3), (0.25, 1), (1.0 / 7.0, 2)])
@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_kummer_frac_against_quadrature(a, n, omega):
    got = kummer_u(KummerParams(a, n, omega))
    want = kummer_quadrature(a, a - n + 1, omega)
    assert math.isclose(got, want, rel_tol=1e-9)


def test_kummer_int_matches_generic_transform():
    for (s, n, omega) in [(2, 7, 1.0), (5, 4, 0.5), (3, 3, 1.5)]:
        spec = TransformSpec(MonomialExp(s - 1, 1.0), n, omega)
        via_transform = evaluate_transform(spec, tol=1e-15).total / (
            math.factorial(s - 1) * omega ** (s - n)
        )
        direct = kummer_u(KummerParams(s, n, omega))
        assert math.isclose(direct, via_transform, rel_tol=1e-10)


def test_kummer_frac_matches_generic_transform():
    for (a, n, omega) in [(0.5, 3, 1.0), (0.25, 2, 0.7)]:
        spec = TransformSpec(Exponential(1.0), n, omega, nu=1.0 - a)
        via_transform = omega ** (n - a) / special.gamma(a) \
            * evaluate_transform(spec, tol=1e-15).total
        direct = kummer_u(KummerParams(a, n, omega))
        assert math.isclose(direct, via_transform, rel_tol=1e-10)


# ---------------------------------------------------------------------------
# leading behavior
# ---------------------------------------------------------------------------

def test_kummer_leading_log_case():
    p = KummerParams(2, 2, 1e-3)
    lead = kummer_u_leading(p)
    full = kummer_u(p)
    assert abs(lead / full - 1.0) < 0.01


def test_kummer_leading_power_case():
    p = KummerParams(5, 3, 1e-3)
    assert abs(kummer_u_leading(p) / kummer_u(p) - 1.0) < 0.01


def test_kummer_leading_frac_case():
    p = KummerParams(0.5, 1, 1e-4)
    ratio = kummer_u_leading(p) / kummer_u(p)
    assert 0.99 <= ratio <= 1.01


def test_gauss_leading_large_argument():
    p100 = Gauss2F1IntParams(5, 2, 4, 100.0)
    assert abs(gauss2f1_leading(p100) / gauss2f1_integer(p100) - 1.0) < 0.05
    b = Gauss2F1BranchParams(2, 0.5, 1, 200.0)
    assert abs(gauss2f1_leading(b) / gauss2f1_branch(b) - 1.0) < 0.05
    with pytest.raises(TypeError):
        gauss2f1_leading(object())
