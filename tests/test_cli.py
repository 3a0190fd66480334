import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import cli_corpus
from finitepart import cli, oracles
from finitepart.cli import (RunConfig, build_parser, main, parse_function,
                            render, run)
from finitepart.entire import (BinomialPoly, Exponential, MonomialExp,
                               Polynomial, Scaled)
from finitepart.gammafn import EULER_GAMMA
from finitepart.stieltjes import TransformSpec, evaluate_transform


def invoke(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "finitepart", *argv],
                          capture_output=True, text=True, cwd=cwd)


def test_parse_function_kinds():
    assert isinstance(parse_function("exp(2)"), Exponential)
    assert isinstance(parse_function("monexp(2,1)"), MonomialExp)
    assert isinstance(parse_function("binpoly(1,2)"), BinomialPoly)
    p = parse_function("poly(1:-2:1@0)")
    assert isinstance(p, Polynomial) and p.degree == 2
    q = parse_function("poly(5@2)")
    assert q.lowest == 2 and q.coeff(2) == 5.0
    s = parse_function("0.5*exp(1)")
    assert isinstance(s, Scaled) and s.factor == 0.5
    for bad in ("bogus(1)", "exp", "poly(@)", "exp(x)"):
        with pytest.raises(ValueError):
            parse_function(bad)


def test_fpi_command_prints_euler_gamma():
    res = invoke("fpi", "--f", "exp(1)", "--m", "1", "--a", "inf")
    assert res.returncode == 0
    assert f"{-EULER_GAMMA!r}" in res.stdout


def test_stieltjes_compare_close_to_oracle():
    code, doc = run(RunConfig("stieltjes", {
        "f": "exp(1)", "n": 1, "omega": 0.5, "a": "inf",
        "tol": 1e-12, "compare": True,
    }))
    assert code == 0
    row = doc["results"][0]
    from scipy import special
    assert row["total"] == pytest.approx(
        math.exp(0.5) * float(special.exp1(0.5)), rel=1e-9
    )
    assert row["oracle"] == pytest.approx(row["total"], rel=1e-8)
    assert row["rel_diff"] < 1e-8
    assert row["k_used"] > 0 and row["tail_estimate"] >= 0


def test_sweep_csv_shape_and_singular_column():
    res = invoke("sweep", "--f", "exp(1)", "--n", "1", "--a", "inf",
                 "--omega-grid", "1e-4:1e-1:7", "--format", "csv")
    assert res.returncode == 0
    rows = list(csv.reader(io.StringIO(res.stdout)))
    header, data = rows[0], rows[1:]
    assert header[:6] == ["omega", "naive_sum", "singular", "total",
                          "k_used", "tail_estimate"]
    assert "flag" in header
    assert len(data) == 7
    sing_ix = header.index("singular")
    for row in data:
        w = float(row[0])
        want = -math.exp(w) * math.log(w)
        assert float(row[sing_ix]) == pytest.approx(want, rel=1e-12)
    # geometric grid endpoints
    assert float(data[0][0]) == pytest.approx(1e-4)
    assert float(data[-1][0]) == pytest.approx(1e-1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_transform_rows_name_the_route_and_carry_direct(fmt, capsys):
    # (argv, route, exit code): the closed route flagged, with the accurate
    # 2.49e-3 in direct; the direct route near a; the series
    cases = [
        (["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "400"],
         "closed", 3),
        (["stieltjes", "--f", "binpoly(1,2)", "--n", "2", "--omega", "0.9",
          "--a", "1"], "direct", 0),
        (["quadratic", "--f", "exp(1)", "--omega", "1.8", "--a", "2"],
         "direct", 0),
        (["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "0.5"],
         "series", 0),
    ]
    for argv, route, code in cases:
        assert main(argv + ["--format", fmt]) == code
        out = capsys.readouterr().out
        if fmt == "json":
            row = json.loads(out)["results"][0]
        else:
            header, data = csv.reader(io.StringIO(out))
            assert header == ["omega", "naive_sum", "singular", "total",
                              "k_used", "tail_estimate", "route", "direct",
                              "flag"]
            row = dict(zip(header, data))
        assert row["route"] == route
        if route == "series":
            assert row["direct"] == (None if fmt == "json" else "")
            continue
        direct = float(row["direct"])
        assert float(row["naive_sum"]) + float(row["singular"]) \
            == float(row["total"])
        if route == "closed":
            assert direct == pytest.approx(2.4937e-3, rel=1e-4)
            assert row["flag"] == "nonconverged"
        else:
            assert direct == pytest.approx(float(row["total"]), rel=1e-12)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_refused_direct_route_row_is_flagged_with_direct(fmt, capsys):
    # |singular| = 2.7e9: the identity direct - singular + singular alone
    # rounds by 3.7e-6 |direct|, past tol; the integral (0.0564233964464380
    # at 40 digits) is kept and flagged
    assert main(["stieltjes", "--f", "exp(1)", "--n", "1", "--nu", "0.25",
                 "--a", "30", "--omega", "21", "--format", fmt]) == 3
    out = capsys.readouterr().out
    if fmt == "json":
        row = json.loads(out)["results"][0]
    else:
        header, data = csv.reader(io.StringIO(out))
        row = dict(zip(header, data))
    assert (row["route"], row["flag"]) == ("direct", "nonconverged")
    assert int(row["k_used"]) == 0
    direct, singular = float(row["direct"]), float(row["singular"])
    assert float(row["naive_sum"]) == direct - singular
    assert direct == pytest.approx(0.0564233964464380, rel=1e-12)


def test_quadratic_and_diffusivity_commands():
    code, doc = run(RunConfig("quadratic", {
        "f": "poly(1)", "omega": 0.5, "a": "inf", "tol": 1e-12,
        "compare": True,
    }))
    assert code == 0
    assert doc["results"][0]["total"] == pytest.approx(math.pi, rel=1e-12)
    code, doc = run(RunConfig("quadratic", {
        "g_plus": "0.5*poly(1)", "g_minus": "0.5*poly(1)", "pe": 2.0,
        "kappa": 1.0, "a": "inf", "tol": 1e-12,
    }))
    assert code == 0
    assert doc["results"][0]["kappa_eff"] == pytest.approx(1.0 + math.pi,
                                                           rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["fpi", "--f", "exp(1)", "--m", "1", "--a", "0.5", "--tol", "nan"],
    ["fpi", "--f", "exp(1)", "--m", "1", "--a", "0.5", "--tol", "2"],
    ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "0.1",
     "--tol", "-1"],
    ["quadratic", "--f", "exp(1)", "--omega", "0.2", "--tol", "0"],
    ["sweep", "--f", "exp(1)", "--n", "1", "--omega-grid", "0.1:0.2:2",
     "--tol", "1"],
])
def test_tolerance_outside_0_1_exits_2_at_parse_time(argv, capsys):
    # nan and 2 once printed a 2-term value and exited 0; -1 climbed until
    # a closed form left float range and exited 3
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --tol: tolerance tol must lie in (0, 1); got" in err


def test_unreadable_tolerance_keeps_the_float_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fpi", "--f", "exp(1)", "--m", "1", "--tol", "abc"])
    assert exc.value.code == 2
    assert "argument --tol: invalid float value: 'abc'" in \
        capsys.readouterr().err


def test_stored_tolerance_outside_0_1_exits_2():
    for cmd, params in [("quadratic", {"f": "exp(1)", "omega": 0.1,
                                       "tol": math.nan}),
                        ("stieltjes", {"f": "exp(1)", "n": 1, "omega": 0.1,
                                       "tol": -1.0})]:
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            run(RunConfig(cmd, params))


@pytest.mark.parametrize("args, message", [
    (["--f", "exp(1)", "--omega", "0", "--pe", "5"], "omega must be positive"),
    (["--f", "exp(1)", "--omega", "0"], "omega must be positive"),
    (["--f", "exp(1)", "--pe", "0"], "Peclet number must be positive"),
    (["--f", "exp(1)", "--pe", "-5"], "Peclet number must be positive"),
    (["--g-plus", "exp(1)", "--g-minus", "exp(1)", "--pe", "0"],
     "Peclet number must be positive"),
    (["--g-plus", "exp(1)", "--g-minus", "exp(1)"],
     "diffusivity mode needs --g-plus, --g-minus and --pe"),
    (["--f", "exp(1)"], "quadratic needs --omega or --pe"),
    (["--omega", "0.1"], "quadratic needs --f (or the diffusivity trio)"),
])
def test_quadratic_zero_omega_or_peclet_reaches_the_range_checks(
        args, message, capsys):
    # a zero --omega once fell back to --pe or read as missing, and a zero
    # --pe in diffusivity mode read as missing
    assert main(["quadratic"] + args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ["--f", "exp(1)", "--omega", "1e200"],
    ["--f", "exp(1)", "--pe", "1e-200"],
    ["--g-plus", "exp(1)", "--g-minus", "exp(1)", "--pe", "1e-200"],
])
def test_quadratic_omega_whose_square_overflows_exits_2(args, capsys):
    # omega**2 once raised a raw OverflowError, exit 1 with a traceback
    assert main(["quadratic"] + args) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: omega = 1e+200 is too large: "
                                 "omega^2 leaves float range\n")


def test_quadratic_peclet_alone_is_omega_1_over_pe():
    _, by_pe = run(RunConfig("quadratic", {"f": "exp(1)", "pe": 5.0}))
    _, by_omega = run(RunConfig("quadratic", {"f": "exp(1)", "omega": 0.2}))
    assert by_pe["results"] == by_omega["results"]


def test_specfun_and_asym_commands():
    code, doc = run(RunConfig("specfun", {
        "family": "gauss-int", "n": 5, "r": 2, "s": 4, "zeta": 2.0,
    }))
    assert code == 0
    assert doc["results"][0]["value"] == pytest.approx(2.0 / 27.0, rel=1e-12)
    code, doc = run(RunConfig("asym", {
        "f": "exp(1)", "n": 1, "nu": 0.0, "a": "inf", "omega": 1e-3,
    }))
    assert code == 0
    row = doc["results"][0]
    assert row["kind"] == "LogDominant" and row["carries_log"]
    assert row["leading_value"] == pytest.approx(-math.log(1e-3), rel=1e-12)


def test_compare_command():
    code, doc = run(RunConfig("compare", {
        "op": "fpi", "f": "exp(1)", "m": 2, "nu": 0.0, "a": 1.0,
        "tol": 1e-15,
    }))
    assert code == 0
    assert doc["results"][0]["rel_diff"] < 1e-5


def test_compare_of_a_zero_finite_part_exits_0():
    # x^2 (1 - x) at m = 1, a = 1.5: the finite part is exactly 0, and the
    # epsilon oracle's one integral of the Taylor remainder x (1 - x) over
    # (0, a] cancels the head exactly; a three-point extrapolation in eps
    # left the remainder's eps^3 term behind, 3.3e-10
    res = invoke("compare", "--op", "fpi", "--f", "binpoly(2,1)", "--m", "1",
                 "--a", "1.5", "--format", "json")
    assert res.returncode == 0, res.stderr
    row = json.loads(res.stdout)["results"][0]
    assert row["value"] == 0.0 and abs(row["oracle"]) <= 1e-15
    assert row["abs_diff"] <= 1e-15


@pytest.mark.parametrize("argv", [["--m", "1", "--a", "1.5"],
                                  ["--m", "2", "--nu", "0.75", "--a", "5"]])
def test_compare_of_a_zero_value_has_no_relative_difference(argv, capsys):
    # both finite parts are exactly 0 and the oracle is a rounding-level
    # nonzero; against a zero value a relative difference means nothing
    base = ["compare", "--op", "fpi", "--f", "binpoly(2,1)", *argv]
    assert main(base + ["--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert row["value"] == 0.0 and row["rel_diff"] is None
    assert row["abs_diff"] == abs(row["oracle"]) and row["abs_diff"] <= 1e-15
    assert main(base + ["--format", "csv"]) == 0
    header, data = csv.reader(io.StringIO(capsys.readouterr().out))
    cells = dict(zip(header, data))
    assert cells["rel_diff"] == "" and float(cells["abs_diff"]) <= 1e-15
    assert main(base) == 0
    header, data = capsys.readouterr().out.splitlines()
    assert "None" not in data
    assert data[header.index("rel_diff"):].strip() == ""


def test_compare_of_a_nonzero_value_keeps_its_relative_difference(capsys):
    assert main(["compare", "--op", "fpi", "--f", "exp(1)", "--m", "2",
                 "--a", "1.5", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    scale = max(abs(row["value"]), abs(row["oracle"]))
    assert row["rel_diff"] == row["abs_diff"] / scale
    assert row["rel_diff"] < 1e-12


# f(x) of the oracle grid as mpmath functions
_MP_FUNCTIONS = {"exp(1.3)": ("1.3", 0), "monexp(1,0.8)": ("0.8", 1),
                 "monexp(2,2.5)": ("2.5", 2)}


def _oracle_omegas(a):
    if a == math.inf:
        return [1e-4, 1e-3, 1e-2, 0.1, 1.0, 27.0]
    ratio = (0.9 * a / 1e-4) ** 0.2
    return [1e-4 * ratio**i for i in range(5)] + [0.9 * a]


def _kernel_reference(text, a, omega, n=None, nu=0.0):
    """int_0^a x^-nu f(x) (omega+x)^-n dx, or with n None int_0^a f(x) /
    (omega^2+x^2) dx, at 30 digits, taken in u = x^(1-nu): a plain
    mpmath.quad in x is 4e-9 off at nu = 0.75 (exp(1.3), n = 3, a = 0.5,
    omega = 0.3)."""
    import mpmath
    with mpmath.workdps(30):
        b, p = _MP_FUNCTIONS[text]
        b, q, w = mpmath.mpf(b), 1 - mpmath.mpf(nu), mpmath.mpf(omega)

        def integrand(u):
            x = u ** (1 / q)
            kernel = (w + x) ** -n / q if n else 1 / (w * w + x * x)
            return x**p * mpmath.exp(-b * x) * kernel

        pts = [0, w**q]
        if w < 1 < a:
            pts.append(1)
        pts.append(mpmath.inf if a == math.inf else mpmath.mpf(a) ** q)
        return mpmath.quad(integrand, pts)


@pytest.mark.parametrize("a", [0.5, 3.0, math.inf])
@pytest.mark.parametrize("text", list(_MP_FUNCTIONS))
def test_kernel_oracles_match_mpmath(text, a):
    f = parse_function(text)
    for omega in _oracle_omegas(a):
        cases = [(n, nu) for n in (1, 3)
                 for nu in (0.0, 0.25, 0.5, 0.75, 0.9)]
        for n, nu in cases + [(None, 0.0)]:
            spec = (TransformSpec(f, 1, omega, a, kernel="quadratic")
                    if n is None else TransformSpec(f, n, omega, a, nu))
            got = oracles.transform_oracle(spec)
            ref = _kernel_reference(text, a, omega, n, nu)
            assert abs(got - ref) <= 1e-11 * abs(ref), (n, nu, omega)


@pytest.mark.parametrize("kernel, args, most", [
    ("pole", ("exp(1.42)", 1, 0.00136, 1.98), 218),
    ("pole", ("monexp(1,1.72)", 2, 0.002235, math.inf, 0.25), 220),
    ("pole", ("exp(1)", 1, 0.01, 2.0, 0.75), 60),
    ("quadratic", ("monexp(1,1.22)", 1, 0.0181, math.inf), 210),
])
def test_kernel_oracles_take_few_evaluations(monkeypatch, kernel, args, most):
    # QUADPACK evaluations.  Split in x at omega, 10 omega and 1 (x = t^2
    # at nu > 0), the first, second and last case took 336, 618 and 324; in
    # u = x^(1-nu), where f(x(u)) is not analytic at u = 0, the nu > 0
    # cases took 366 and 105.  In the flattening variable, with s^-nu as
    # QAWS's weight, the four take 63, 205, 40 and 198.
    counts = []
    real = oracles.quad_adaptive

    def counted(*pos, **kw):
        res = real(*pos, **kw)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(oracles, "quad_adaptive", counted)
    oracles.transform_oracle(TransformSpec(parse_function(args[0]), *args[1:],
                                           kernel=kernel))
    assert sum(counts) <= most


@pytest.mark.parametrize("argv, want", [
    (["stieltjes", "--n", "2", "--omega", "1e-30"], 1e30),
    (["stieltjes", "--n", "2", "--nu", "0.5", "--omega", "1e-30"],
     math.pi / 2 * 1e45),
    (["stieltjes", "--n", "2", "--nu", "0.75", "--omega", "1e-30"],
     math.gamma(0.25) * math.gamma(1.75) * 1e-30 ** -1.75),
    (["quadratic", "--omega", "1e-30"], math.pi / 2 * 1e30),
    # (omega + x)^2 underflowed to 0: a ZeroDivisionError traceback
    (["stieltjes", "--n", "2", "--omega", "1e-300"], 1e300),
    (["quadratic", "--omega", "1e-300"], math.pi / 2 * 1e300),
])
def test_compare_at_tiny_omega_gives_the_oracle(argv, want, capsys):
    # the oracle split [0, a] at omega, 10 omega and 1 and did not converge
    # on [10 omega, 1]: exit 3 although the method's value was right
    assert main(argv + ["--f", "exp(1)", "--compare", "--format",
                        "json"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert row["total"] == pytest.approx(want, rel=1e-12)
    assert abs(row["oracle"] - row["total"]) <= 1e-11 * abs(row["total"])


@pytest.mark.parametrize("nu", ["0", "0.5"])
def test_oracle_out_of_float_range_exits_3_naming_it(nu, capsys):
    # the transform is a float (about 736 at nu = 0); 1 / omega is not: the
    # method's row is kept with empty oracle cells
    assert main(["stieltjes", "--f", "exp(1)", "--n", "1", "--nu", nu,
                 "--omega", "1e-320", "--compare"]) == 3
    out, err = capsys.readouterr()
    assert err == (
        "error: transform oracle at omega = 1e-320: 1.0 / omega leaves "
        "float range\n")
    header, row = out.splitlines()
    want = evaluate_transform(TransformSpec(Exponential(1.0), 1, 1e-320,
                                            nu=float(nu)))
    assert header.split()[7:] == ["direct", "flag", "oracle", "abs_diff",
                                  "rel_diff"]
    assert row.split() == [repr(v) if isinstance(v, float) else str(v)
                           for v in (1e-320, *want[:5], want.route)]


def test_sweep_keeps_the_rows_of_an_oracle_that_raises(capsys):
    # the first grid omega's oracle raises; every row is kept, and the
    # other rows keep their oracle cells
    argv = ["sweep", "--f", "exp(1)", "--n", "1", "--omega-grid",
            "1e-320:1e-14:3", "--with-oracle"]
    assert main(argv + ["--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert err == (
        "error: transform oracle at omega = 1e-320: 1.0 / omega leaves "
        "float range\n")
    first, *rest = json.loads(out)["results"]
    assert first["omega"] == 1e-320 and first["total"] == pytest.approx(
        736.25, rel=1e-4)
    assert [first[k] for k in ("oracle", "abs_diff", "rel_diff")] == [
        None, None, None]
    assert len(rest) == 2
    for row in rest:
        assert row["rel_diff"] <= 1e-12
        assert row["abs_diff"] == abs(row["total"] - row["oracle"])
    assert main(argv + ["--format", "csv"]) == 3
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    cells = [dict(zip(header, r)) for r in rows]
    assert [c["oracle"] for c in cells][0] == "" and all(
        c["oracle"] for c in cells[1:])


def _old_grid(lo, hi, count):
    """The grid as it was formed before a span past float range was
    stepped in logs."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


def test_grid_within_float_range_keeps_its_bits():
    for text in ("1e-4:1e-1:7", "0.01:0.5:4", "1e-320:1e-14:3", "0.5:4:3",
                 "1e-150:1e150:5", "1e-3:1e-1:2", "0.1:0.3:400"):
        lo, hi, count = text.split(":")
        want = _old_grid(float(lo), float(hi), int(count))
        assert [v.hex() for v in cli._parse_grid(text)] == [
            v.hex() for v in want]


def test_grid_past_float_range_gives_finite_increasing_omegas(capsys):
    # hi / lo = 5e319 leaves float range: the ratio and its powers were
    # inf, and the sweep exited 2 with "expansion requires omega < a"
    argv = next(v for v in cli_corpus.ARGVS
                if v[-2:] == ["--omega-grid", "1e-320:0.5:3"])
    assert main(argv + ["--format", "json"]) == 0
    omegas = [r["omega"] for r in json.loads(capsys.readouterr().out)[
        "results"]]
    assert len(omegas) == 3 and all(map(math.isfinite, omegas))
    assert omegas[0] < omegas[1] < omegas[2]
    assert (omegas[0], omegas[2]) == (1e-320, 0.5)
    assert omegas[1] == pytest.approx(math.sqrt(1e-320 * 0.5), rel=1e-12)


def test_compare_of_an_infinite_total_has_no_relative_difference(capsys):
    # total is inf (flagged) and the oracle finite: inf / inf was a NaN
    argv = ["quadratic", "--f", "exp(1)", "--omega", "1e5", "--compare"]
    assert main(argv + ["--format", "json"]) == 3
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert row["total"] == math.inf and row["flag"] == "nonconverged"
    assert row["rel_diff"] is None and row["abs_diff"] == math.inf
    assert main(argv) == 3
    out = capsys.readouterr().out
    assert "nan" not in out.lower()


def test_exit_code_2_on_bad_input():
    assert invoke("fpi", "--f", "bogus(1)", "--m", "1").returncode == 2
    assert invoke("fpi", "--f", "exp(1)").returncode == 2       # missing --m
    assert invoke("stieltjes", "--f", "exp(1)", "--n", "1",
                  "--omega", "0.7", "--a", "0.5").returncode == 2
    assert invoke().returncode == 2


@pytest.mark.parametrize("argv, message", [
    # -inf was stored as "inf": these computed at a = +inf and exited 0
    (["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "0.5",
      "--a=-inf"], "upper limit a must be positive"),
    (["fpi", "--f", "exp(1)", "--m", "1", "--a=-inf"],
     "upper limit a must be positive"),
    (["asym", "--f", "exp(1)", "--n", "1", "--a=-inf"],
     "upper limit a must be positive"),
    # an inf other than --a stayed the string "inf" and failed a comparison
    (["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "inf"],
     "expansion requires omega < a"),
    (["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "0.5", "--nu",
      "inf"], "branch exponent nu must lie in [0, 1)"),
    (["quadratic", "--f", "exp(1)", "--omega", "inf"],
     "omega = inf is too large: omega^2 leaves float range"),
    (["quadratic", "--f", "exp(1)", "--pe", "inf"],
     "Peclet number must be positive and finite; got inf"),
    (["specfun", "--family", "kummer-int", "--n", "2", "--s", "1",
      "--omega", "inf"], "omega must be positive and finite; got inf"),
    (["specfun", "--family", "gauss-int", "--n", "5", "--r", "2", "--s", "4",
      "--zeta", "inf"], "zeta must be finite and exceed 1; got inf"),
    (["specfun", "--family", "gauss-branch", "--n", "5", "--mu", "0.5",
      "--s", "4", "--zeta", "inf"],
     "zeta must be finite and exceed 1; got inf"),
    (["quadratic", "--g-plus", "exp(1)", "--g-minus", "exp(1)", "--pe", "2",
      "--kappa", "inf"], "kappa must be positive and finite; got inf"),
    # non-finite descriptor parameters
    (["fpi", "--f", "poly(1:nan)", "--m", "1", "--a", "2"],
     "polynomial coefficient nan is not finite"),
    (["asym", "--f", "poly(nan:1)", "--n", "1"],
     "polynomial coefficient nan is not finite"),
    (["fpi", "--f", "exp(inf)", "--m", "1", "--a", "2"],
     "Exponential b = inf is not finite"),
    (["fpi", "--f", "inf*exp(1)", "--m", "1", "--a", "2"],
     "scale factor inf is not finite"),
    # a leading value at omega = inf was -inf with exit 0
    (["asym", "--f", "exp(1)", "--n", "1", "--omega", "inf"],
     "omega must be positive and finite; got inf"),
    (["quadratic", "--g-plus", "exp(1)", "--g-minus", "exp(1)", "--pe",
      "inf"], "Peclet number must be positive and finite; got inf"),
])
def test_infinite_or_nan_values_exit_2_naming_the_check(argv, message,
                                                        capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_stored_configs_keep_the_sign_of_an_infinity():
    args = build_parser().parse_args(["fpi", "--f", "exp(1)", "--m", "1",
                                      "--a=-inf"])
    params = cli._config_from_args(args).params
    assert params["a"] == "-inf"
    with pytest.raises(ValueError, match="a must be positive"):
        run(RunConfig("fpi", params))
    _, doc = run(RunConfig("fpi", {**params, "a": "inf"}))
    assert doc["results"][0]["value"] == pytest.approx(-EULER_GAMMA,
                                                       rel=1e-15)
    # every float option, not only --a, is restored
    with pytest.raises(ValueError, match="omega < a"):
        run(RunConfig("stieltjes", {"f": "exp(1)", "n": 1, "omega": "inf"}))


def test_exit_code_3_with_partial_rows_on_nonconvergence():
    res = invoke("stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "0.9",
                 "--a", "1", "--kmax", "3", "--format", "csv")
    assert res.returncode == 3
    rows = list(csv.reader(io.StringIO(res.stdout)))
    header, data = rows[0], rows[1:]
    assert len(data) == 1
    assert data[0][header.index("flag")] == "nonconverged"
    assert data[0][header.index("total")]  # partial value still present


def test_overflowing_naive_sum_is_flagged(capsys):
    # on the series, forced by --kmax, omega^k overflows near k = 119: the
    # row is flagged, not converged to inf
    argv = ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "400",
            "--format", "json"]
    code = main(argv + ["--kmax", "10000"])
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert code == 3
    assert row["flag"] == "nonconverged" and row["total"] == math.inf
    # the closed route: the pole term e^400 swamps the identity's rounding
    code = main(argv)
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert code == 3 and row["k_used"] == 0
    assert row["flag"] == "nonconverged" and abs(row["total"]) < math.inf
    code = main(["quadratic", "--f", "exp(1)", "--omega", "200",
                 "--format", "json"])
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert code == 3 and row["flag"] == "nonconverged"


def test_closed_form_overflow_is_reported_not_raised(capsys):
    for argv in (["stieltjes", "--f", "exp(50)", "--n", "1", "--omega", "2",
                  "--kmax", "10000"],
                 ["stieltjes", "--f", "exp(50)", "--n", "1", "--nu", "0.5",
                  "--omega", "2"],
                 ["quadratic", "--f", "exp(10)", "--omega", "20"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "float range" in err
    # without --kmax the closed route takes it, flagged: e^100 in the pole
    # term swamps the identity's rounding
    assert main(["stieltjes", "--f", "exp(50)", "--n", "1", "--omega", "2",
                 "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["results"][0]["flag"] == "nonconverged"


def test_scaled_coefficient_out_of_float_range_exits_3(capsys):
    # 1e200 * 1e200 printed value inf with exit 0
    assert main(["fpi", "--f", "1e200*poly(1e200)", "--m", "1",
                 "--a", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: coefficient 0 of 1e+200*Polynomial([1e+200], lowest=0) "
        "leaves float range\n")


@pytest.mark.parametrize("argv,message", [
    # each printed inf (ClosedForm) or -inf (Recurrence) with exit 0
    (["--f", "1e300*exp(100)", "--m", "50"],
     "closed form for 1e+300*Exponential(b=100) at m = 50 leaves float range"),
    (["--f", "1e308*exp(5)", "--m", "1", "--a", "2"],
     "finite-part recurrence leaves float range at m = 1"),
    # each ended in a traceback with exit 1
    (["--f", "monexp(200,200)", "--m", "1", "--a", "1"],
     "ordinary integral of MonomialExp(p=200, b=200) leaves float range at "
     "m = 1 (OverflowError: math range error)"),
    (["--f", "monexp(3,1e-110)", "--m", "1", "--a", "1"],
     "ordinary integral of MonomialExp(p=3, b=1e-110) leaves float range at "
     "m = 1 (ZeroDivisionError: float division by zero)"),
])
def test_finite_part_out_of_float_range_exits_3(capsys, argv, message):
    assert ["fpi"] + argv in cli_corpus.ARGVS
    assert main(["fpi"] + argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    # each ended in an OverflowError traceback with exit 1
    # at zeta < 2 the Euler integral computes it (tests/test_specfun.py)
    (["--family", "gauss-int", "--n", "300", "--r", "1", "--s", "200",
      "--zeta", "2.0"],
     "2F1(n, r; s; -zeta) at n = 300, r = 1, s = 200, zeta = 2.0"),
    (["--family", "gauss-branch", "--n", "300", "--mu", "0.5", "--s", "2",
      "--zeta", "1.5"],
     "2F1(n, 1-mu; s-mu+2; -zeta) at n = 300, mu = 0.5, s = 2, zeta = 1.5"),
    (["--family", "kummer-int", "--n", "300", "--s", "3", "--omega", "0.5"],
     "U(s, s+1-n, omega) at s = 3, n = 300, omega = 0.5"),
    (["--family", "kummer-int", "--n", "3", "--s", "300", "--omega", "0.5"],
     "U(s, s+1-n, omega) at s = 300, n = 3, omega = 0.5"),
    (["--family", "kummer-frac", "--n", "300", "--afrac", "0.5",
      "--omega", "0.5"],
     "U(a, a-n+1, omega) at a = 0.5, n = 300, omega = 0.5"),
])
def test_specfun_out_of_float_range_exits_3(capsys, argv, message):
    assert ["specfun"] + argv in cli_corpus.ARGVS
    assert main(["specfun"] + argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message} leaves float range\n"


@pytest.mark.parametrize("argv,why", [
    (["--n", "2000", "--r", "1", "--s", "3", "--zeta", "1.5"],
     "n = 2000, r = 1, s = 3, zeta = 1.5: its integral over [0, 1] did not "
     "converge"),
    (["--n", "3000", "--r", "1", "--s", "3", "--zeta", "1.001"],
     "n = 3000, r = 1, s = 3, zeta = 1.001: its integral over [0, 1] did not "
     "converge"),
])
def test_specfun_refused_integral_exits_3(capsys, argv, why):
    argv = ["specfun", "--family", "gauss-int"] + argv
    assert argv in cli_corpus.ARGVS
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: 2F1(n, r; s; -zeta) at {why}\n"


def test_polynomial_coefficient_out_of_float_range_exits_2(capsys):
    # C(2000, 1000) ~ 2e600: float() ended in an OverflowError traceback
    argv = ["fpi", "--f", "binpoly(0,2000)", "--m", "5", "--a", "1"]
    assert argv in cli_corpus.ARGVS
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: polynomial coefficient of x^230 leaves float range\n")


def test_asym_zero_omega_reaches_the_range_check(capsys):
    # it exited 0 without the leading_value column
    argv = ["asym", "--f", "exp(1)", "--n", "1", "--omega", "0"]
    assert argv in cli_corpus.ARGVS
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: omega must be positive and finite; got 0.0\n")


@pytest.mark.parametrize("f,n,nu,m", [
    # today's alternating sum printed 7.10e-12, and raised OverflowError on
    # the other two
    ("monexp(20,1)", "40", "0.5", 20),
    ("monexp(3,1)", "200", "0.5", 3),
    ("poly(1@1000)", "1002", "0.3", 1000),
])
def test_asym_branch_coefficient_is_the_beta_integral(capsys, f, n, nu, m):
    import mpmath
    argv = ["asym", "--f", f, "--n", n, "--nu", nu, "--omega", "0.5"]
    assert argv in cli_corpus.ARGVS
    assert main(argv + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    row = json.loads(out)["results"][0]
    assert err == "" and row["kind"] == "BranchPowerDominant"
    with mpmath.workdps(30):
        want = mpmath.beta(m + 1 - mpmath.mpf(nu),
                           int(n) - m - 1 + mpmath.mpf(nu))
        assert abs(row["coefficient"] - want) <= 1e-12 * want


@pytest.mark.parametrize("argv,omega,exponent", [
    # each ended in an OverflowError traceback with exit 1
    (["--f", "exp(1)", "--n", "400", "--omega", "1e-3"], "0.001", "-399"),
    (["--f", "exp(1)", "--n", "3", "--nu", "0.5", "--omega", "1e-300"],
     "1e-300", "-2.5"),
    (["--f", "1e300*exp(1)", "--n", "3", "--omega", "1e-200"], "1e-200",
     "-2"),
])
def test_asym_leading_value_out_of_float_range_exits_3(capsys, argv, omega,
                                                       exponent):
    assert ["asym"] + argv in cli_corpus.ARGVS
    assert main(["asym"] + argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: leading term at omega = {omega}, exponent {exponent} "
        "leaves float range\n")


@pytest.mark.parametrize("f,coeffs", [("poly(1:2:3)", {0: 1, 1: 2, 2: 3}),
                                      ("binpoly(2,1)", {2: 1, 3: -1}),
                                      ("poly(1:-2:1@1)", {1: 1, 2: -2, 3: 1}),
                                      ("poly(3@2)", {2: 3})])
def test_head_powers_beyond_float_range_give_the_value(capsys, f, coeffs):
    # 30^(399-k) leaves float range: each head term is 0 to double precision
    import mpmath
    assert main(["fpi", "--f", f, "--m", "400", "--a", "30",
                 "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    with mpmath.workdps(50):
        want = -sum(c / ((399 - k) * mpmath.mpf(30) ** (399 - k))
                    for k, c in coeffs.items())
        assert row["value"] == float(want)


def test_negative_kmax_exits_2(capsys):
    base = ["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "0.9",
            "--a", "1", "--format", "json"]
    assert main(base + ["--kmax", "-5"]) == 2
    assert capsys.readouterr().err == "error: k_max must be >= 0; got -5\n"
    assert main(base + ["--kmax", "0"]) == 3
    assert json.loads(capsys.readouterr().out)["results"][0]["k_used"] == 0


def test_replay_reproduces_json_byte_for_byte(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    res = invoke("stieltjes", "--f", "exp(1)", "--n", "2", "--omega", "0.25",
                 "--a", "inf", "--compare", "--format", "json",
                 "--output", str(out1))
    assert res.returncode == 0
    res = invoke("--replay", str(out1), "--output", str(out2))
    assert res.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["config"]["params"]["a"] == "inf"  # strict-JSON encoding


# render as it was when each value went through Python: the reference that
# render's bytes are held to.  JSON from json's pure-Python indent encoder,
# one csv row of _reference_cell strings per result, and a table whose
# columns are padded to their widest cell.
def _reference_cell(v):
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


def _reference_render(doc, fmt):
    rows = doc["results"]
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        known = [c for c in cli.SWEEP_COLUMNS if any(c in r for r in rows)]
        extra = sorted({k for r in rows for k in r} - set(known))
        cols = known + extra
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        for r in rows:
            w.writerow([_reference_cell(r.get(c, "")) for c in cols])
        return buf.getvalue()
    cols = list(dict.fromkeys(k for r in rows for k in r))
    widths = {c: max(len(c), *(len(_reference_cell(r.get(c, "")))
                               for r in rows))
              for c in cols}
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in rows:
        lines.append("  ".join(_reference_cell(r.get(c, "")).ljust(widths[c])
                               for c in cols))
    return "\n".join(lines) + "\n"


_FORMATS = ("json", "csv", "table")


@pytest.fixture(scope="module")
def corpus_documents(tmp_path_factory):
    """(argv, document) of every document that the corpus commands render:
    those of the commands that exit 0 or 3."""
    docs, made, real = [], [], cli.render
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("corpus"))
        mp.setattr(cli, "render",
                   lambda doc, fmt: made.append(doc) or real(doc, fmt))
        for argv in cli_corpus.ARGVS:
            made.clear()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit:  # help and argparse's rejections
                    continue
            if code in (0, 3):
                docs += [(argv, doc) for doc in made]
    return docs


@pytest.mark.parametrize("fmt", _FORMATS)
def test_render_of_the_corpus_documents_is_the_reference(corpus_documents,
                                                        fmt):
    assert len(corpus_documents) >= 50
    for argv, doc in corpus_documents:
        assert render(doc, fmt) == _reference_render(doc, fmt), argv


_EDGE_VALUES = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0,
    "tiny": 5e-324, "none": None, "true": True, "false": False,
    "big": 10**40, "-big": -3**90, "quote": 'say "hi"', "comma": "a,b",
    "newline": "a\nb", "backslash": "a\\b", "non-ascii": "ωμέγα ∞ 😀",
    "empty": "",
}

_HAND_BUILT = {
    "edge values": {
        "config": {"command": "sweep", "params": dict(_EDGE_VALUES)},
        "results": [dict(_EDGE_VALUES), {"omega": 0.5, "total": -0.0}]},
    "empty params": {"config": {"command": "fpi", "params": {}},
                     "results": [{"value": 1.5, "flag": ""}]},
    "no rows": {"config": {"command": "fpi", "params": {"m": 1}},
                "results": []},
    # a csv with extra and missing columns, and keys that csv quotes
    "different key sets": {
        "config": {"command": "sweep", "params": {"f": "exp(1)"}},
        "results": [
            {"omega": 1e-3, "total": 2.0, "zeta": 1, 'say "x"': None},
            {"flag": "nonconverged", "omega": 2e-3, "abs_diff": 1e-17},
            {"value": -1.0, "a,b": "c\nd", "ключ": math.inf}]},
    "nested": {
        "config": {"command": "sweep", "params": {
            "f": "exp(1)", "grid": [1e-3, 0.5, {"n": 3, "b": []}],
            "meta": {"z": {}, "a": [[], [None, -0.0]]}}},
        "results": [{"omega": 0.1, "terms": [1.0, math.inf],
                     "split": {"z": None, "a": [True, "é"]}}]},
}


@pytest.mark.parametrize("fmt", _FORMATS)
@pytest.mark.parametrize("doc", _HAND_BUILT.values(), ids=_HAND_BUILT.keys())
def test_render_of_hand_built_documents_is_the_reference(doc, fmt):
    assert render(doc, fmt) == _reference_render(doc, fmt)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)
_KEYS = st.sampled_from(cli.SWEEP_COLUMNS) | st.text(max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "config": st.fixed_dictionaries({
        "command": st.sampled_from(cli_corpus.COMMANDS),
        "params": st.dictionaries(_KEYS, _JSON_VALUES, max_size=4)}),
    "results": st.lists(st.dictionaries(_KEYS, _JSON_VALUES, max_size=6),
                        max_size=3)}))
def test_render_of_any_document_is_the_reference(doc):
    for fmt in _FORMATS:
        assert render(doc, fmt) == _reference_render(doc, fmt)


def test_main_renders_each_document_once_through_render(tmp_path,
                                                        monkeypatch, capsys):
    # bench/tracer.py times cli.render by name: every document goes through
    # one call of it, whose text is what the call writes
    texts, real = [], cli.render

    def counting(doc, fmt):
        texts.append(real(doc, fmt))
        return texts[-1]

    monkeypatch.setattr(cli, "render", counting)
    saved = tmp_path / "saved.json"
    argv = ["stieltjes", "--f", "exp(1)", "--n", "2", "--omega", "0.25",
            "--a", "2", "--compare"]
    for call, head in ((argv + ["--format", "json", "--output", str(saved)],
                        "{\n"),
                       (argv + ["--format", "csv"], "omega,naive_sum,"),
                       (argv, "omega  "),
                       (["--replay", str(saved)], "{\n")):
        texts.clear()
        assert main(call) == 0
        out = capsys.readouterr().out
        written = saved.read_bytes() if "--output" in call else out.encode()
        assert [text.encode() for text in texts] == [written]
        assert texts[0].startswith(head)


def test_build_parser_help_smoke():
    parser = build_parser()
    for cmd in ("fpi", "stieltjes", "quadratic", "specfun", "asym",
                "compare", "sweep"):
        assert cmd in parser.format_help()


def test_format_and_output_before_or_after_subcommand(tmp_path, capsys):
    cmd = ["fpi", "--f", "exp(1)", "--m", "1"]
    assert main(cmd + ["--format", "json"]) == 0
    after = capsys.readouterr().out
    assert main(["--format", "json"] + cmd) == 0
    assert capsys.readouterr().out == after
    assert json.loads(after)["results"][0]["value"] == -EULER_GAMMA
    # the subcommand's own --format wins over the top-level one
    assert main(["--format", "json"] + cmd + ["--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("tail_estimate,flag,")
    assert main(cmd) == 0
    assert capsys.readouterr().out.startswith("value ")
    for name, argv in (("sub.json", cmd + ["--format", "json", "--output"]),
                       ("top.json", ["--format", "json", "--output"])):
        path = tmp_path / name
        argv = argv + [str(path)] + (cmd if name == "top.json" else [])
        assert main(argv) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == after


def test_replay_with_top_level_output(tmp_path, capsys):
    first = tmp_path / "first.json"
    again = tmp_path / "again.json"
    assert main(["--format", "json", "--output", str(first), "stieltjes",
                 "--f", "exp(1)", "--n", "2", "--omega", "0.25",
                 "--a", "1"]) == 0
    assert main(["--replay", str(first), "--output", str(again)]) == 0
    assert capsys.readouterr().out == ""
    assert again.read_bytes() == first.read_bytes()


def test_unreadable_replay_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["--replay", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("doc, named", [
    ([{"command": "fpi", "params": {}}], "not a JSON object"),
    ({"results": []}, 'no "config" object'),
    ({"config": {"params": {"f": "exp(1)", "m": 1}}}, 'no "command"'),
    ({"config": {"command": "fpi"}}, 'no "params"'),
    ({"config": {"command": "bogus", "params": {}}},
     "unknown command 'bogus'"),
    ({"config": {"command": "fpi", "params": {"m": 1}}},
     'params have no "f"'),
    ({"config": {"command": "fpi", "params": "f m"}},
     '"params" is not a JSON object'),
    ({"config": {"command": "fpi",
                 "params": {"f": "exp(1)", "m": 1, "bogus": [1, {"x": 2}]}}},
     "params hold 'bogus', which is not an option of fpi"),
    ({"config": {"command": "fpi",
                 "params": {"f": "exp(1)", "m": 1, "Nu": 0.5}}},
     "params hold 'Nu', which is not an option of fpi"),
], ids=["top-level-list", "no-config", "no-command", "no-params",
        "unknown-command", "no-required-option", "params-not-object",
        "unknown-key", "misspelt-key"])
def test_malformed_replay_names_the_problem(tmp_path, capsys, doc, named):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["--replay", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: replay ") and named in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "out.json"
    assert main(["fpi", "--f", "exp(1)", "--m", "1",
                 "--output", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize("argv, message", [
    (["specfun", "--family", "kummer-int", "--n", "3", "--omega", "0.2"],
     "kummer-int needs --s"),
    (["specfun", "--family", "kummer-int", "--n", "3", "--s", "2"],
     "kummer-int needs --omega"),
    (["specfun", "--family", "kummer-frac", "--n", "3", "--omega", "0.2"],
     "kummer-frac needs --afrac"),
    (["specfun", "--family", "kummer-frac", "--n", "3", "--afrac", "0.3"],
     "kummer-frac needs --omega"),
    (["specfun", "--family", "gauss-int", "--n", "5", "--r", "2", "--s", "4"],
     "gauss-int needs --zeta"),
    (["specfun", "--family", "gauss-branch", "--n", "3", "--s", "2",
      "--zeta", "2"], "gauss-branch needs --mu"),
    (["compare", "--op", "stieltjes", "--f", "exp(1)", "--n", "1"],
     "stieltjes needs --omega"),
])
def test_missing_option_is_named(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_main_builds_its_parser_once(monkeypatch, capsys):
    argv = ["fpi", "--f", "exp(1)", "--m", "1"]
    assert main(argv) == 0
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real())
    for _ in range(3):
        assert main(argv) == 0
    assert builds == []
    assert capsys.readouterr().out.count("value") == 4


def _parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` gives, each value with its type, or its
    exit code; then what it printed on stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            result = ("parsed", {k: (type(v), v)
                                 for k, v in vars(parse(argv)).items()})
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result + (stdout.getvalue(), stderr.getvalue())


@pytest.mark.parametrize("argv", cli_corpus.ARGVS,
                         ids=lambda argv: " ".join(argv) or "<empty>")
def test_parse_matches_the_whole_parser(argv):
    # read from the option tables or by argparse: the same namespace and
    # value types, or the same output and exit code
    assert (_parse_outcome(cli._parse_args, argv)
            == _parse_outcome(build_parser().parse_args, argv))


def _value(draw, dest):
    """[a valid value] of option ``dest``, or [] for a store_true flag."""
    kw = cli._OPTIONS[dest][1]
    if kw.get("action") == "store_true":
        return []
    pool = kw.get("choices") or {
        int: ["1", "2", "7"], float: ["0.5", "2", "1e-3", "inf"],
        cli._parse_tol: ["1e-10", "0.25"],
    }.get(kw.get("type"), ["exp(1)", "monexp(2,0.8)", "x.txt"])
    return [draw(st.sampled_from(pool))]


@st.composite
def _argvs(draw):
    """A command's options in shuffled order, the required ones always,
    with at most one change that argparse alone reads or rejects (a value
    of "bogus" is valid only for an option without type or choices)."""
    cmd = draw(st.sampled_from(cli_corpus.COMMANDS))
    items = [(dest, required, [cli._OPTIONS[dest][0]] + _value(draw, dest))
             for dest, required in cli._command_options(cli._COMMANDS[cmd][2])
             if required or draw(st.booleans())]
    items = draw(st.permutations(items))
    change = draw(st.sampled_from([
        None, "abbreviation", "equals", "repeat", "dash", "empty",
        "bad value", "unknown", "no value", "no required", "help"]))
    valued = [i for i, (_, _, tokens) in enumerate(items) if len(tokens) == 2]
    if change == "no required":
        required = [i for i, (_, req, _) in enumerate(items) if req]
        if required:
            del items[draw(st.sampled_from(required))]
    elif change in ("equals", "dash", "empty", "bad value",
                    "no value") and valued:
        i = draw(st.sampled_from(valued))
        dest, req, (flag, value) = items[i]
        items[i] = (dest, req, {
            "equals": [f"{flag}={value}"], "dash": [flag, "-" + value],
            "empty": [flag, ""], "bad value": [flag, "bogus"],
            "no value": [flag]}[change])
    elif change == "abbreviation" and items:
        i = draw(st.integers(0, len(items) - 1))
        dest, req, (flag, *value) = items[i]
        cut = draw(st.integers(3, max(3, len(flag) - 1)))
        items[i] = (dest, req, [flag[:cut], *value])
    elif change == "repeat" and items:
        i = draw(st.integers(0, len(items) - 1))
        dest, _, (flag, *_) = items[i]
        items.insert(draw(st.integers(i + 1, len(items))),
                     (dest, False, [flag] + _value(draw, dest)))
    elif change in ("unknown", "help"):
        extra = ["--bogus", "1"] if change == "unknown" else ["-h"]
        items.insert(draw(st.integers(0, len(items))), (None, False, extra))
    return [cmd] + [token for _, _, tokens in items for token in tokens]


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_read_argvs_match_the_whole_parser(argv):
    assert (_parse_outcome(cli._parse_args, argv)
            == _parse_outcome(build_parser().parse_args, argv))


def test_a_command_argv_is_read_without_argparse(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("argparse was called")

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert main(["fpi", "--f", "exp(1)", "--m", "1", "--format", "csv"]) == 0
    assert repr(-EULER_GAMMA) in capsys.readouterr().out
    assert cli._parser is None


def test_a_declined_argv_goes_to_the_whole_parser(monkeypatch, capsys):
    cli._parse_args([])  # builds the parser
    whole, seen = cli._parser.parse_args, []
    monkeypatch.setattr(cli._parser, "parse_args",
                        lambda argv: seen.append(argv) or whole(argv))
    assert main(["fpi", "--f", "exp(1)", "--m", "1"]) == 0
    assert "value" in capsys.readouterr().out
    assert seen == []
    for argv in (["--format", "json", "fpi", "--f", "exp(1)", "--m", "1"],
                 ["fpi", "--f", "exp(1)", "--m=1"]):
        assert main(argv) == 0
        assert seen[-1] == argv
    capsys.readouterr()


def test_negative_scalar_prefix_in_equals_form(capsys):
    # "--f -3*exp(2)" reads as an option to argparse; "--f=..." does not
    assert main(["fpi", "--f=-3*exp(2)", "--m", "1", "--format", "json"]) == 0
    scaled = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert main(["fpi", "--f", "exp(2)", "--m", "1", "--format", "json"]) == 0
    base = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert scaled == pytest.approx(-3.0 * base, rel=1e-15)


# the keys each command stores in its JSON config, as released
_STORED_KEYS = {
    "fpi": ("f", "m", "nu", "a", "compare"),
    "stieltjes": ("f", "n", "nu", "omega", "a", "tol", "kmax", "compare"),
    "quadratic": ("f", "omega", "pe", "a", "kappa", "g_plus", "g_minus",
                  "tol", "kmax", "compare"),
    "specfun": ("family", "n", "r", "s", "mu", "afrac", "zeta", "omega"),
    "asym": ("f", "n", "nu", "a", "omega"),
    "compare": ("op", "f", "m", "n", "nu", "omega", "pe", "a", "tol", "kmax"),
    "sweep": ("f", "n", "nu", "a", "omega_grid", "tol", "kmax", "with_oracle"),
}


@pytest.mark.parametrize("argv, absent", [
    (["fpi", "--f", "exp(1)", "--m", "2", "--a", "1.5", "--compare"], ()),
    (["fpi", "--f", "exp(1)", "--m", "2", "--nu", "0.5", "--compare"], ()),
    (["stieltjes", "--f", "exp(1)", "--n", "2", "--omega", "0.25", "--a", "2",
      "--kmax", "60", "--compare"], ()),
    (["quadratic", "--f", "exp(1)", "--omega", "0.2", "--kmax", "50",
      "--compare"], ("pe", "g_plus", "g_minus")),
    (["quadratic", "--g-plus", "0.5*exp(1)", "--g-minus", "0.5*exp(2)",
      "--pe", "50", "--kappa", "2"], ("f", "omega", "kmax", "compare")),
    (["specfun", "--family", "gauss-int", "--n", "5", "--r", "2", "--s", "4",
      "--zeta", "2", "--tol", "1e-3"], ("mu", "afrac", "omega")),
    (["specfun", "--family", "gauss-branch", "--n", "3", "--mu", "0.4",
      "--s", "2", "--zeta", "3", "--tol", "1e-3"], ("r", "afrac", "omega")),
    (["specfun", "--family", "kummer-int", "--n", "4", "--s", "2",
      "--omega", "0.1", "--tol", "1e-3"], ("r", "mu", "afrac", "zeta")),
    (["specfun", "--family", "kummer-frac", "--n", "2", "--afrac", "0.3",
      "--omega", "0.2", "--tol", "1e-3"], ("r", "s", "mu", "zeta")),
    (["asym", "--f", "exp(1)", "--n", "1", "--omega", "0.01",
      "--tol", "1e-3"], ()),
    (["compare", "--op", "fpi", "--f", "exp(1)", "--m", "2", "--a", "1"],
     ("n", "omega", "pe", "kmax")),
    (["compare", "--op", "stieltjes", "--f", "exp(1)", "--n", "1",
      "--omega", "0.3", "--a", "2", "--kmax", "60"], ("m", "pe")),
    (["compare", "--op", "quadratic", "--f", "exp(1)", "--pe", "10"],
     ("m", "n", "omega", "kmax")),
    (["sweep", "--f", "exp(1)", "--n", "1", "--a", "2", "--omega-grid",
      "0.01:0.5:4", "--kmax", "60", "--with-oracle"], ()),
])
def test_stored_config_keys_and_replay(tmp_path, capsys, argv, absent):
    first = tmp_path / "first.json"
    again = tmp_path / "again.json"
    assert main(argv + ["--format", "json", "--output", str(first)]) == 0
    params = json.loads(first.read_text())["config"]["params"]
    assert set(params) == set(_STORED_KEYS[argv[0]]) - set(absent)
    assert main(["--replay", str(first), "--output", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("op, args", [
    ("fpi", ["--f", "exp(1)", "--m", "2", "--a", "1.5"]),
    ("stieltjes", ["--f", "monexp(1,1)", "--n", "2", "--nu", "0.25",
                   "--omega", "0.2"]),
    ("quadratic", ["--f", "exp(1)", "--pe", "20", "--a", "3"]),
])
def test_compare_is_the_op_with_compare(capsys, op, args):
    assert main(["compare", "--op", op] + args + ["--format", "json"]) == 0
    via_compare = json.loads(capsys.readouterr().out)
    assert main([op] + args + ["--compare", "--format", "json"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert via_compare["results"] == direct["results"]
    assert "oracle" in direct["results"][0]
    assert "compare" not in via_compare["config"]["params"]
