"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance is fixed here, not calibrated: comparisons against
oracle values use the stated relative tolerances, with a small absolute
floor applied only where a grid point is exactly zero (relative error is
undefined there; the floor sits at the oracle noise level).
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

from finitepart.asymptotic import classify
from finitepart.entire import (BinomialPoly, Exponential, MonomialExp,
                               Polynomial)
from finitepart.finite_part import finite_part_integral
from finitepart.gammafn import EULER_GAMMA
from finitepart.oracles import fpi_epsilon_oracle, quad_adaptive
from finitepart.specfun import (Gauss2F1BranchParams, Gauss2F1IntParams,
                                KummerParams, gauss2f1_branch,
                                gauss2f1_integer, kummer_u)
from finitepart.stieltjes import (TransformSpec, effective_diffusivity,
                                  eval_quadratic, evaluate_transform)

from contour_oracle import fpi_contour_oracle

ONE = Polynomial([1.0])
GRID_F = [Exponential(1.0), Exponential(2.0), ONE, BinomialPoly(1, 2),
          BinomialPoly(0, 3)]


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def _close(x, y, rtol, atol=0.0):
    return abs(x - y) <= max(rtol * max(abs(x), abs(y)), atol)


def test_criterion_01_finite_part_oracle_equivalence():
    failures = []
    for f in GRID_F:
        for m in (1, 2, 3, 4):
            for nu in (0.0, 0.25, 0.5, 0.75):
                for a in (0.5, 1.0, 2.0):
                    series = finite_part_integral(f, m, nu, a).value
                    eps = fpi_epsilon_oracle(f, m, nu, a)
                    if not _close(series, eps, 1e-5, atol=1e-9):
                        failures.append(("eps", repr(f), m, nu, a, series, eps))
                    if nu == 0.0:
                        con = fpi_contour_oracle(f, m, a)
                        if not _close(series, con, 1e-7, atol=1e-10):
                            failures.append(
                                ("contour", repr(f), m, a, series, con))
    _report(1, "finite-part oracle equivalence", failures)


def test_criterion_02_closed_form_infinite_values():
    failures = []
    got = finite_part_integral(Exponential(1.0), 1).value
    if not _close(got, -EULER_GAMMA, 1e-12):
        failures.append(("euler", got))
    for b in (1.0, 2.0, 5.0):
        for m in (1, 2, 3):
            for nu in (0.25, 0.5, 0.75):
                got = finite_part_integral(Exponential(b), m, nu).value
                want = ((-1.0) ** m * b ** (m + nu - 1) * math.pi
                        / (math.sin(math.pi * nu) * math.gamma(m + nu)))
                if not _close(got, want, 1e-12):
                    failures.append((b, m, nu, got, want))
    _report(2, "closed-form infinite-limit values", failures)


def test_criterion_03_scaling_anomaly():
    failures = []
    for b in (2.0, math.e, 10.0):
        for m in (1, 2, 3):
            lhs = finite_part_integral(Exponential(b), m).value \
                - b ** (m - 1) * finite_part_integral(Exponential(1.0), m).value
            rhs = ((-1.0) ** m * b ** (m - 1) * math.log(b)
                   / math.factorial(m - 1))
            if not _close(lhs, rhs, 1e-12):
                failures.append((b, m, lhs, rhs))
    _report(3, "scaling anomaly (missed logarithm)", failures)


def _transform_quadrature(f, n, nu, omega, a):
    def fn(x):
        v = f.eval(x) / (omega + x) ** n
        return v * x ** (-nu) if nu else v
    return quad_adaptive(fn, 0.0, a, tol=1e-12).value


def test_criterion_04_integer_order_exactness():
    failures = []
    for f in GRID_F:
        for n in (1, 2, 3, 4):
            for a in (0.5, 1.0, 2.0):
                for omega in (0.1, 0.25, 0.5):
                    if not omega < a:
                        continue
                    got = evaluate_transform(
                        TransformSpec(f, n, omega, a), tol=1e-12).total
                    want = _transform_quadrature(f, n, 0.0, omega, a)
                    if not _close(got, want, 1e-8):
                        failures.append((repr(f), n, a, omega, got, want))
    got = evaluate_transform(TransformSpec(ONE, 1, 0.5, 1.0)).total
    if not _close(got, math.log(3.0), 1e-12):
        failures.append(("log3", got))
    got = evaluate_transform(TransformSpec(Exponential(1.0), 2, 0.5)).total
    want = 1.0 / 0.5 - math.exp(0.5) * float(special.exp1(0.5))
    if not _close(got, want, 1e-8):
        failures.append(("exp-n2", got, want))
    _report(4, "integer-order decomposition is exact", failures)


def test_criterion_05_branch_order_exactness():
    failures = []
    for f in GRID_F:
        for n in (1, 2, 3, 4):
            for a in (0.5, 1.0, 2.0):
                for omega in (0.1, 0.25, 0.5):
                    if not omega < a:
                        continue
                    got = evaluate_transform(
                        TransformSpec(f, n, omega, a, nu=0.5), tol=1e-12).total
                    want = _transform_quadrature(f, n, 0.5, omega, a)
                    if not _close(got, want, 1e-8):
                        failures.append((repr(f), n, a, omega, got, want))
    for omega in (0.1, 0.25, 0.5):
        got = evaluate_transform(TransformSpec(ONE, 1, omega, nu=0.5)).total
        if not _close(got, math.pi / math.sqrt(omega), 1e-12):
            failures.append(("pi-sqrt", omega, got))
        got = evaluate_transform(TransformSpec(ONE, 1, omega, 1.0, nu=0.5)).total
        want = 2.0 / math.sqrt(omega) * math.atan(1.0 / math.sqrt(omega))
        if not _close(got, want, 1e-10):
            failures.append(("atan", omega, got, want))
    _report(5, "branch-point decomposition is exact", failures)


def test_criterion_06_quadratic_kernel():
    failures = []
    for omega in (0.01, 0.1, 0.5):
        got = eval_quadratic(ONE, omega).total
        if not _close(got, math.pi / (2.0 * omega), 1e-13):
            failures.append(("const", omega, got))
    for omega in (0.05, 0.1, 0.5):
        got = eval_quadratic(Exponential(1.0), omega).total
        fn = lambda x: math.exp(-x) / (omega * omega + x * x)
        want = quad_adaptive(fn, 0.0, math.inf, tol=1e-12).value
        if not _close(got, want, 1e-8):
            failures.append(("exp", omega, got, want))
    for omega in (0.01, 0.1, 0.5):
        got = eval_quadratic(Polynomial([1.0], lowest=1), omega, 1.0).total
        want = 0.5 * math.log((omega**2 + 1.0) / omega**2)
        if not _close(got, want, 1e-12):
            failures.append(("linear", omega, got, want))
    _report(6, "quadratic kernel decomposition", failures)


def test_criterion_07_special_functions():
    failures = []
    for zeta in (1.5, 2.0, 5.0, 10.0):
        got = gauss2f1_integer(Gauss2F1IntParams(5, 2, 4, zeta))
        want = (zeta + 2.0) / (2.0 * (zeta + 1.0) ** 3)
        if not _close(got, want, 1e-10):
            failures.append(("2f1-int", zeta, got, want))
    for zeta in (2.0, 4.0, 10.0):
        got = gauss2f1_branch(Gauss2F1BranchParams(2, 0.5, 1, zeta))
        want = 3 * (math.sqrt(zeta) + (zeta - 1) * math.atan(math.sqrt(zeta))) \
            / (4 * zeta**1.5)
        if not _close(got, want, 1e-10):
            failures.append(("2f1-branch", zeta, got, want))

    def u_quad(a, b, omega):
        if a < 1:
            # u = t^a: t^(a-1) dt = du / a leaves a bounded integrand
            fn = lambda u: (math.exp(-omega * u ** (1 / a))
                            * (1 + u ** (1 / a)) ** (b - a - 1) / a)
        else:
            fn = lambda t: (math.exp(-omega * t) * t ** (a - 1)
                            * (1 + t) ** (b - a - 1))
        val = quad_adaptive(fn, 0.0, math.inf, tol=1e-12).value
        return val / special.gamma(a)

    # three omega points per regime, including both tabulated cases
    for s, n in ((2, 7), (3, 3)):          # n >= s
        for omega in (0.5, 1.0, 2.0):
            got = kummer_u(KummerParams(s, n, omega))
            want = u_quad(s, s + 1 - n, omega)
            if not _close(got, want, 1e-9):
                failures.append(("kummer-ge", s, n, omega, got, want))
    for s, n in ((5, 4), (4, 2)):          # n < s
        for omega in (0.5, 1.0, 2.0):
            got = kummer_u(KummerParams(s, n, omega))
            want = u_quad(s, s + 1 - n, omega)
            if not _close(got, want, 1e-9):
                failures.append(("kummer-lt", s, n, omega, got, want))
    for a, n in ((0.5, 3), (0.25, 2)):     # fractional
        for omega in (0.5, 1.0, 2.0):
            got = kummer_u(KummerParams(a, n, omega))
            want = u_quad(a, a - n + 1, omega)
            if not _close(got, want, 1e-9):
                failures.append(("kummer-frac", a, n, omega, got, want))
    _report(7, "special-function series", failures)


def test_criterion_08_asymptotic_dominance():
    failures = []
    cases = [
        (ONE, 1, 0.0, 1.0),                      # log dominant
        (ONE, 3, 0.0, 1.0),                      # power dominant
        (MonomialExp(2, 1.0), 1, 0.0, math.inf),  # naive dominant
        (ONE, 1, 0.5, 1.0),                      # branch power dominant
        (MonomialExp(2, 1.0), 1, 0.5, math.inf),  # branch naive dominant
    ]
    for f, n, nu, a in cases:
        lb = classify(f, n, nu, a)
        errs = []
        for omega in (1e-2, 1e-3, 1e-4):
            total = evaluate_transform(TransformSpec(f, n, omega, a, nu)).total
            errs.append(abs(total / lb.value_at(omega) - 1.0))
        if not (errs[0] > errs[1] > errs[2]):
            failures.append(("monotone", repr(f), n, nu, errs))
        if not errs[2] < 0.05:
            failures.append(("final", repr(f), n, nu, errs[2]))
    omegas = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    totals = [evaluate_transform(TransformSpec(Exponential(1.0), 1, w, 1.0)).total
              for w in omegas]
    slope, _ = np.polyfit(np.log(omegas), totals, 1)
    if not abs(-slope - 1.0) < 0.02:
        failures.append(("log-fit", slope))
    _report(8, "asymptotic dominance", failures)


def test_criterion_09_effective_diffusivity():
    failures = []
    half = ONE * 0.5
    got = effective_diffusivity(half, half, peclet=2.0, kappa=1.0)
    if not _close(got, 1.0 + math.pi, 1e-10):
        failures.append(("const", got))
    ghalf = Exponential(1.0) * 0.5
    for pe in (2.0, 10.0, 100.0):
        got = effective_diffusivity(ghalf, ghalf, pe, 1.0)
        fn = lambda t: pe * pe * math.exp(-t) / (1.0 + pe * pe * t * t)
        enh = quad_adaptive(fn, 0.0, math.inf, tol=1e-12).value
        if not _close(got, 1.0 + enh, 1e-8):
            failures.append(("exp", pe, got, 1.0 + enh))
    _report(9, "effective diffusivity wrapper", failures)


def test_criterion_10_replay_determinism(tmp_path):
    failures = []
    first = tmp_path / "doc1.json"
    argv = [sys.executable, "-m", "finitepart", "sweep", "--f", "exp(1)",
            "--n", "2", "--a", "inf", "--omega-grid", "1e-3:1e-1:5",
            "--format", "json", "--output", str(first)]
    if subprocess.run(argv, capture_output=True).returncode != 0:
        failures.append("initial run failed")
    else:
        blobs = []
        for i in (2, 3):
            out = tmp_path / f"doc{i}.json"
            res = subprocess.run(
                [sys.executable, "-m", "finitepart", "--replay", str(first),
                 "--output", str(out)], capture_output=True)
            if res.returncode != 0:
                failures.append(f"replay {i} failed")
            blobs.append(out.read_bytes())
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            failures.append("replay outputs differ")
        if blobs and blobs[0] != first.read_bytes():
            failures.append("replay differs from original document")
        doc = json.loads(first.read_text())
        if len(doc["results"]) != 5:
            failures.append("unexpected row count")
    _report(10, "replay determinism", failures)
