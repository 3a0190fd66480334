import csv
import io
import json
import math
import subprocess
import sys

import pytest

from finitepart import cli
from finitepart.cli import (RunConfig, build_parser, main, parse_function,
                            render, run)
from finitepart.entire import (BinomialPoly, Exponential, MonomialExp,
                               Polynomial, Scaled)
from finitepart.gammafn import EULER_GAMMA


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


def test_exit_code_2_on_bad_input():
    assert invoke("fpi", "--f", "bogus(1)", "--m", "1").returncode == 2
    assert invoke("fpi", "--f", "exp(1)").returncode == 2       # missing --m
    assert invoke("stieltjes", "--f", "exp(1)", "--n", "1",
                  "--omega", "0.7", "--a", "0.5").returncode == 2
    assert invoke().returncode == 2


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
    # omega^k overflows near k = 119: the row is flagged, not converged to inf
    code = main(["stieltjes", "--f", "exp(1)", "--n", "1", "--omega", "400",
                 "--format", "json"])
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert code == 3
    assert row["flag"] == "nonconverged" and row["total"] == math.inf
    code = main(["quadratic", "--f", "exp(1)", "--omega", "200",
                 "--format", "json"])
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert code == 3 and row["flag"] == "nonconverged"


def test_closed_form_overflow_is_reported_not_raised(capsys):
    for argv in (["stieltjes", "--f", "exp(50)", "--n", "1", "--omega", "2"],
                 ["stieltjes", "--f", "exp(50)", "--n", "1", "--nu", "0.5",
                  "--omega", "2"],
                 ["quadratic", "--f", "exp(10)", "--omega", "20"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "float range" in err


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


def test_render_table_and_json():
    doc = {"config": {"command": "fpi", "params": {}},
           "results": [{"value": 1.5, "flag": ""}]}
    table = render(doc, "table")
    assert "value" in table and "1.5" in table
    as_json = render(doc, "json")
    assert json.loads(as_json)["results"][0]["value"] == 1.5


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
], ids=["top-level-list", "no-config", "no-command", "no-params",
        "unknown-command", "no-required-option", "params-not-object"])
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


def test_negative_scalar_prefix_in_equals_form(capsys):
    # "--f -3*exp(2)" reads as an option to argparse; "--f=..." does not
    assert main(["fpi", "--f=-3*exp(2)", "--m", "1", "--format", "json"]) == 0
    scaled = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert main(["fpi", "--f", "exp(2)", "--m", "1", "--format", "json"]) == 0
    base = json.loads(capsys.readouterr().out)["results"][0]["value"]
    assert scaled == pytest.approx(-3.0 * base, rel=1e-15)


# the keys each command stores in its JSON config, as released
_STORED_KEYS = {
    "fpi": ("f", "m", "nu", "a", "tol", "compare"),
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
