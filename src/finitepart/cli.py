"""Command-line front end: evaluations, oracle comparisons, omega sweeps.

Commands
--------
fpi        finite-part integral of f(x) x^{-m-nu} on (0, a)
stieltjes  transform int_0^a x^{-nu} f/(omega+x)^n by naive + singular parts
quadratic  transform int_0^a f/(omega^2+x^2); also the Peclet wrapper
specfun    Gauss 2F1 / Kummer U series values
asym       dominant small-omega classification
compare    method value against the matching independent oracle
sweep      one row per omega over a geometric grid

Functions are written in a small literal language:
  exp(b)            exp(-b x)
  poly(a:b:c@r)     a x^r + b x^{r+1} + c x^{r+2}   (@r optional, default 0)
  monexp(p,b)       x^p exp(-b x)
  binpoly(p,q)      x^p (1-x)^q
  0.5*exp(1)        optional scalar prefactor on any of the above

Output formats: table (default), json, csv.  JSON documents embed the run
configuration; `--replay doc.json` re-executes it and reproduces the
document byte for byte.  Exit codes: 0 success, 2 argument/validation
error, 3 numerical nonconvergence (partial rows still emitted, flagged).
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from .asymptotic import classify
from .entire import BinomialPoly, Exponential, MonomialExp, Polynomial
from .errors import FinitePartError
from .finite_part import finite_part_integral
from .oracles import fpi_epsilon_oracle, quad_adaptive
from .specfun import (Gauss2F1BranchParams, Gauss2F1IntParams, KummerParams,
                      gauss2f1_branch, gauss2f1_integer, kummer_u)
from .stieltjes import (TransformSpec, eval_quadratic, evaluate_transform,
                        effective_diffusivity)

SWEEP_COLUMNS = ["omega", "naive_sum", "singular", "total", "k_used",
                 "tail_estimate", "oracle", "rel_diff", "flag"]


def parse_function(text: str):
    """Parse the function mini-language; raises ValueError on bad input."""
    text = text.strip()
    factor = 1.0
    if "*" in text:
        head, _, rest = text.partition("*")
        factor = float(head)
        text = rest.strip()
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"cannot parse function spec {text!r}")
    name, _, inner = text[:-1].partition("(")
    name = name.strip().lower()
    if name == "exp":
        f = Exponential(float(inner))
    elif name == "monexp":
        p, b = inner.split(",")
        f = MonomialExp(int(p), float(b))
    elif name == "binpoly":
        p, q = inner.split(",")
        f = BinomialPoly(int(p), int(q))
    elif name == "poly":
        body, _, start = inner.partition("@")
        lowest = int(start) if start else 0
        coeffs = [float(c) for c in body.split(":")]
        f = Polynomial(coeffs, lowest=lowest)
    else:
        raise ValueError(f"unknown function kind {name!r}")
    return f if factor == 1.0 else f * factor


def _parse_a(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo < hi and count >= 2):
        raise ValueError("grid requires 0 < lo < hi and count >= 2")
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"command": self.command, "params": self.params}


# ---------------------------------------------------------------------------
# command implementations; each returns (rows, converged)
# ---------------------------------------------------------------------------

def _with_defaults(prm):
    out = {"nu": 0.0, "a": math.inf, "tol": 1e-12, "kappa": 1.0}
    out.update(prm)
    return out


def _transform_row(omega, res):
    return {
        "omega": omega,
        "naive_sum": res.naive_sum,
        "singular": res.singular,
        "total": res.total,
        "k_used": res.k_used,
        "tail_estimate": res.tail_estimate,
        "flag": "" if res.converged else "nonconverged",
    }


def _stieltjes_oracle(f, n, nu, omega, a):
    if nu == 0.0:
        fn = lambda x: f.eval(x) / (omega + x) ** n
    else:
        fn = lambda x: f.eval(x) * x ** (-nu) / (omega + x) ** n
    pts = [omega, 10 * omega, 1.0] if omega < 1.0 else [omega]
    return quad_adaptive(fn, 0.0, a, tol=1e-11, breakpoints=pts,
                         singular_lo=nu > 0).value


def _quadratic_oracle(f, omega, a):
    fn = lambda x: f.eval(x) / (omega * omega + x * x)
    pts = [omega, 10 * omega, 1.0] if omega < 1.0 else [omega]
    return quad_adaptive(fn, 0.0, a, tol=1e-11, breakpoints=pts).value


def _attach_oracle(row, method_value, oracle_value):
    row["oracle"] = oracle_value
    row["abs_diff"] = abs(method_value - oracle_value)
    scale = max(abs(method_value), abs(oracle_value))
    row["rel_diff"] = row["abs_diff"] / scale if scale else 0.0
    return row


def _run_fpi(prm):
    prm = _with_defaults(prm)
    f = parse_function(prm["f"])
    v = finite_part_integral(f, prm["m"], prm["nu"], prm["a"], tol=prm["tol"])
    row = {
        "value": v.value,
        "method": v.method.value,
        "terms_used": v.terms_used,
        "tail_estimate": v.tail_bound,
        "flag": "",
    }
    if prm.get("compare"):
        if math.isfinite(prm["a"]):
            oracle = fpi_epsilon_oracle(f, prm["m"], prm["nu"], prm["a"])
        else:
            # oracle split mirrors the library's, but with the epsilon
            # oracle supplying the finite piece
            power = prm["m"] + prm["nu"]
            tail = quad_adaptive(lambda x: f.eval(x) * x ** (-power), 1.0,
                                 math.inf, tol=1e-12)
            oracle = fpi_epsilon_oracle(f, prm["m"], prm["nu"], 1.0) \
                + tail.value
        _attach_oracle(row, v.value, oracle)
    return [row], True


def _run_stieltjes(prm):
    prm = _with_defaults(prm)
    f = parse_function(prm["f"])
    spec = TransformSpec(f, prm["n"], prm["omega"], prm["a"], prm["nu"])
    res = evaluate_transform(spec, tol=prm["tol"], k_max=prm.get("kmax"))
    row = _transform_row(prm["omega"], res)
    if prm.get("compare"):
        _attach_oracle(row, res.total,
                       _stieltjes_oracle(f, prm["n"], prm["nu"],
                                         prm["omega"], prm["a"]))
    return [row], res.converged


def _run_quadratic(prm):
    prm = _with_defaults(prm)
    if prm.get("g_plus") or prm.get("g_minus"):
        if not (prm.get("g_plus") and prm.get("g_minus") and prm.get("pe")):
            raise ValueError(
                "diffusivity mode needs --g-plus, --g-minus and --pe")
        gp = parse_function(prm["g_plus"])
        gm = parse_function(prm["g_minus"])
        keff = effective_diffusivity(gp, gm, prm["pe"], prm["kappa"],
                                     a=prm["a"], tol=prm["tol"])
        return [{"peclet": prm["pe"], "kappa": prm["kappa"],
                 "kappa_eff": keff, "flag": ""}], True
    if not prm.get("f"):
        raise ValueError("quadratic needs --f (or the diffusivity trio)")
    if not (prm.get("omega") or prm.get("pe")):
        raise ValueError("quadratic needs --omega or --pe")
    f = parse_function(prm["f"])
    omega = prm["omega"] if prm.get("omega") else 1.0 / prm["pe"]
    res = eval_quadratic(f, omega, prm["a"], tol=prm["tol"],
                         k_max=prm.get("kmax"))
    row = _transform_row(omega, res)
    if prm.get("compare"):
        _attach_oracle(row, res.total, _quadratic_oracle(f, omega, prm["a"]))
    return [row], res.converged


def _run_specfun(prm):
    family = prm["family"]
    if family == "gauss-int":
        p = Gauss2F1IntParams(prm["n"], prm["r"], prm["s"], prm["zeta"])
        value = gauss2f1_integer(p)
    elif family == "gauss-branch":
        p = Gauss2F1BranchParams(prm["n"], prm["mu"], prm["s"], prm["zeta"])
        value = gauss2f1_branch(p)
    elif family == "kummer-int":
        p = KummerParams(prm["s"], prm["n"], prm["omega"])
        value = kummer_u(p)
    elif family == "kummer-frac":
        p = KummerParams(prm["afrac"], prm["n"], prm["omega"])
        value = kummer_u(p)
    else:
        raise ValueError(f"unknown specfun family {family!r}")
    return [{"family": family, "value": value, "flag": ""}], True


def _run_asym(prm):
    prm = _with_defaults(prm)
    f = parse_function(prm["f"])
    lb = classify(f, prm["n"], prm["nu"], prm["a"])
    row = {
        "kind": lb.kind.value,
        "coefficient": lb.coefficient,
        "exponent": lb.exponent,
        "carries_log": lb.carries_log,
        "flag": "",
    }
    if prm.get("omega"):
        row["leading_value"] = lb.value_at(prm["omega"])
    return [row], True


def _run_compare(prm):
    op = prm["op"]
    sub = dict(prm)
    sub["compare"] = True
    if op == "fpi":
        return _run_fpi(sub)
    if op == "stieltjes":
        return _run_stieltjes(sub)
    if op == "quadratic":
        return _run_quadratic(sub)
    raise ValueError(f"unknown compare op {op!r}")


def _run_sweep(prm):
    prm = _with_defaults(prm)
    f = parse_function(prm["f"])
    rows = []
    all_ok = True
    for omega in _parse_grid(prm["omega_grid"]):
        spec = TransformSpec(f, prm["n"], omega, prm["a"], prm["nu"])
        res = evaluate_transform(spec, tol=prm["tol"], k_max=prm.get("kmax"))
        row = _transform_row(omega, res)
        if prm.get("with_oracle"):
            _attach_oracle(row, res.total,
                           _stieltjes_oracle(f, prm["n"], prm["nu"], omega,
                                             prm["a"]))
        rows.append(row)
        all_ok = all_ok and res.converged
    return rows, all_ok


_RUNNERS = {
    "fpi": _run_fpi,
    "stieltjes": _run_stieltjes,
    "quadratic": _run_quadratic,
    "specfun": _run_specfun,
    "asym": _run_asym,
    "compare": _run_compare,
    "sweep": _run_sweep,
}


def run(config: RunConfig):
    """Execute a configuration; returns (exit_code, document)."""
    rows, converged = _RUNNERS[config.command](_restore_inf(config.params))
    doc = {"config": config.to_json(), "results": rows}
    return (0 if converged else 3), doc


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(doc, fmt: str) -> str:
    rows = doc["results"]
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        known = [c for c in SWEEP_COLUMNS if any(c in r for r in rows)]
        extra = sorted({k for r in rows for k in r} - set(known))
        cols = known + extra
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        for r in rows:
            w.writerow([_cell(r.get(c, "")) for c in cols])
        return buf.getvalue()
    # table
    cols = list(dict.fromkeys(k for r in rows for k in r))
    widths = {c: max(len(c), *(len(_cell(r.get(c, ""))) for r in rows))
              for c in cols}
    lines = ["  ".join(c.ljust(widths[c]) for c in cols)]
    for r in rows:
        lines.append("  ".join(_cell(r.get(c, "")).ljust(widths[c])
                               for c in cols))
    return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp):
    # no subcommand defaults, so that --format and --output given before
    # the subcommand are not overwritten
    sp.add_argument("--format", choices=("table", "json", "csv"),
                    default=argparse.SUPPRESS)
    sp.add_argument("--output", default=argparse.SUPPRESS,
                    help="file path; stdout if absent")
    sp.add_argument("--tol", type=float, default=1e-12)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finitepart",
        description="Finite-part integrals and generalized Stieltjes "
                    "transforms near omega = 0",
    )
    ap.add_argument("--replay", default=None,
                    help="re-run the configuration embedded in a JSON document")
    ap.add_argument("--format", choices=("table", "json", "csv"),
                    default="table")
    ap.add_argument("--output", default=None)
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("fpi", help="finite-part integral")
    p.add_argument("--f", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--a", type=_parse_a, default=math.inf)
    p.add_argument("--compare", action="store_true")
    _add_common(p)

    p = sub.add_parser("stieltjes", help="generalized Stieltjes transform")
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--a", type=_parse_a, default=math.inf)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--compare", action="store_true")
    _add_common(p)

    p = sub.add_parser("quadratic", help="omega^2 + x^2 kernel / diffusivity")
    p.add_argument("--f", default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--pe", type=float, default=None)
    p.add_argument("--a", type=_parse_a, default=math.inf)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--g-plus", dest="g_plus", default=None)
    p.add_argument("--g-minus", dest="g_minus", default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--compare", action="store_true")
    _add_common(p)

    p = sub.add_parser("specfun", help="2F1 / Kummer U series values")
    p.add_argument("--family", required=True,
                   choices=("gauss-int", "gauss-branch", "kummer-int",
                            "kummer-frac"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--afrac", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("asym", help="dominant small-omega behavior")
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--a", type=_parse_a, default=math.inf)
    p.add_argument("--omega", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("compare", help="method vs independent oracle")
    p.add_argument("--op", required=True,
                   choices=("fpi", "stieltjes", "quadratic"))
    p.add_argument("--f", required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--pe", type=float, default=None)
    p.add_argument("--a", type=_parse_a, default=math.inf)
    p.add_argument("--kmax", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("sweep", help="omega sweep of the decomposition")
    p.add_argument("--f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", type=float, default=0.0)
    p.add_argument("--a", type=_parse_a, default=math.inf)
    p.add_argument("--omega-grid", dest="omega_grid", required=True,
                   help="lo:hi:count, geometric spacing")
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--with-oracle", dest="with_oracle", action="store_true")
    _add_common(p)
    return ap


_CONFIG_KEYS = {
    "fpi": ("f", "m", "nu", "a", "tol", "compare"),
    "stieltjes": ("f", "n", "nu", "omega", "a", "tol", "kmax", "compare"),
    "quadratic": ("f", "omega", "pe", "a", "kappa", "g_plus", "g_minus",
                  "tol", "kmax", "compare"),
    "specfun": ("family", "n", "r", "s", "mu", "afrac", "zeta", "omega"),
    "asym": ("f", "n", "nu", "a", "omega"),
    "compare": ("op", "f", "m", "n", "nu", "omega", "pe", "a", "tol", "kmax"),
    "sweep": ("f", "n", "nu", "a", "omega_grid", "tol", "kmax", "with_oracle"),
}


def _config_from_args(args) -> RunConfig:
    params = {}
    for key in _CONFIG_KEYS[args.command]:
        v = getattr(args, key, None)
        if v is not None and v is not False:
            # keep stored configs strict JSON: unbounded limits as "inf"
            if isinstance(v, float) and math.isinf(v):
                v = "inf"
            params[key] = v
    return RunConfig(args.command, params)


def _restore_inf(params: dict) -> dict:
    out = dict(params)
    if isinstance(out.get("a"), str) and out["a"].lower() == "inf":
        out["a"] = math.inf
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fmt = args.format
    out_path = args.output
    try:
        if args.replay:
            with open(args.replay) as fh:
                saved = json.load(fh)
            config = RunConfig(saved["config"]["command"],
                               saved["config"]["params"])
            fmt = "json" if fmt == "table" else fmt
        elif args.command:
            config = _config_from_args(args)
        else:
            build_parser().print_usage(sys.stderr)
            return 2
        code, doc = run(config)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FinitePartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    text = render(doc, fmt)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
