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
from functools import cache
from itertools import chain, repeat

from .asymptotic import classify
from .entire import BinomialPoly, Exponential, MonomialExp, Polynomial
from .errors import FinitePartError, NonconvergenceError
from .finite_part import finite_part_integral
from .oracles import fpi_epsilon_oracle, transform_oracle
from .oracles import quad_adaptive  # noqa: F401 (bench/tracer.py wraps it)
from .series import check_tol
from .specfun import (Gauss2F1BranchParams, Gauss2F1IntParams, KummerParams,
                      gauss2f1_branch, gauss2f1_integer, kummer_u)
from .stieltjes import (TransformSpec, evaluate_transform,
                        effective_diffusivity, peclet_omega)
from .stieltjes import eval_quadratic  # noqa: F401 (bench/tracer.py wraps it)

SWEEP_COLUMNS = ["omega", "naive_sum", "singular", "total", "k_used",
                 "tail_estimate", "route", "direct", "oracle", "rel_diff",
                 "flag"]


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


def _parse_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:  # argparse's own message for a type=float option
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    try:
        return check_tol(tol)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (0 < lo < hi and count >= 2):
        raise ValueError("grid requires 0 < lo < hi and count >= 2")
    span = hi / lo
    if span == math.inf:  # a subnormal lo, say: the inner points in logs
        start = math.log(lo)
        step = (math.log(hi) - start) / (count - 1)
        return [lo, *(math.exp(start + i * step)
                      for i in range(1, count - 1)), hi]
    ratio = span ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"command": self.command, "params": self.params}


# ---------------------------------------------------------------------------
# options: the parser's arguments and run()'s defaults
# ---------------------------------------------------------------------------

_COMPARE_OPS = ("fpi", "stieltjes", "quadratic")
# specfun family -> the options it reads besides --n
_FAMILY_OPTIONS = {"gauss-int": "r s zeta", "gauss-branch": "mu s zeta",
                   "kummer-int": "s omega", "kummer-frac": "afrac omega"}

# dest -> (flag, add_argument keywords).  A "default" here is also what
# run() fills in for an option that a stored config leaves out.
_OPTIONS = {
    "op": ("--op", {"choices": _COMPARE_OPS}),
    "family": ("--family", {"choices": tuple(_FAMILY_OPTIONS)}),
    "f": ("--f", {}),
    "m": ("--m", {"type": int}),
    "n": ("--n", {"type": int}),
    "r": ("--r", {"type": int}),
    "s": ("--s", {"type": int}),
    "mu": ("--mu", {"type": float}),
    "afrac": ("--afrac", {"type": float}),
    "zeta": ("--zeta", {"type": float}),
    "nu": ("--nu", {"type": float, "default": 0.0}),
    "omega": ("--omega", {"type": float}),
    "pe": ("--pe", {"type": float}),
    "a": ("--a", {"type": float, "default": math.inf}),
    "kappa": ("--kappa", {"type": float, "default": 1.0}),
    "g_plus": ("--g-plus", {}),
    "g_minus": ("--g-minus", {}),
    "omega_grid": ("--omega-grid",
                   {"help": "lo:hi:count, geometric spacing"}),
    "kmax": ("--kmax", {"type": int}),
    "compare": ("--compare", {"action": "store_true"}),
    "with_oracle": ("--with-oracle", {"action": "store_true"}),
    "format": ("--format", {"choices": ("table", "json", "csv"),
                            "default": "table"}),
    "output": ("--output", {"help": "file path; stdout if absent"}),
    "tol": ("--tol", {"type": _parse_tol, "default": 1e-12}),
}

_DEFAULTS = {name: kw.get("default") for name, (_, kw) in _OPTIONS.items()}
_FLOATS = [name for name, (_, kw) in _OPTIONS.items()
           if kw.get("type") is float]


# ---------------------------------------------------------------------------
# command implementations; each returns (rows, converged)
# ---------------------------------------------------------------------------

def _need(prm, what, names):
    """Name the first option of ``names`` that the command left unset."""
    for name in names.split():
        if prm[name] is None:
            raise ValueError(f"{what} needs {_OPTIONS[name][0]}")


def _attach_oracle(row, method_value, oracle, *args):
    """Add the oracle, abs_diff and rel_diff cells of ``oracle(*args)`` to
    the row and return True.  Where the oracle raises NonconvergenceError,
    print its error line, leave the three cells None and return False: the
    row is kept, and the run exits 3."""
    try:
        value = oracle(*args)
    except NonconvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        row.update(oracle=None, abs_diff=None, rel_diff=None)
        return False
    row["oracle"] = value
    row["abs_diff"] = diff = abs(method_value - value)
    # relative to an exact zero, or where either value is not finite, the
    # difference is undefined: None, which renders as JSON null and an
    # empty CSV or table cell
    row["rel_diff"] = (diff / max(abs(method_value), abs(value))
                       if method_value and math.isfinite(method_value)
                       and math.isfinite(value) else None)
    return True


def _run_fpi(prm):
    f = parse_function(prm["f"])
    v = finite_part_integral(f, prm["m"], prm["nu"], prm["a"])
    row = {"value": v.value, "method": v.method.value,
           "terms_used": v.terms_used, "tail_estimate": v.tail_bound,
           "flag": ""}
    ok = True
    if prm["compare"]:
        ok = _attach_oracle(row, v.value, fpi_epsilon_oracle, f, prm["m"],
                            prm["nu"], prm["a"])
    return [row], ok


def _transform_rows(prm, specs):
    """One row per spec, and whether every value converged and every
    oracle gave a value; the oracle's cells with --compare or
    --with-oracle."""
    rows = []
    all_ok = True
    for spec in specs:
        res = evaluate_transform(spec, tol=prm["tol"], k_max=prm["kmax"])
        row = {"omega": spec.omega, "naive_sum": res.naive_sum,
               "singular": res.singular, "total": res.total,
               "k_used": res.k_used, "tail_estimate": res.tail_estimate,
               "route": res.route,
               "direct": res.direct,  # None on the series route
               "flag": "" if res.converged else "nonconverged"}
        if prm["compare"] or prm["with_oracle"]:
            all_ok &= _attach_oracle(row, res.total, transform_oracle, spec)
        rows.append(row)
        all_ok = all_ok and res.converged
    return rows, all_ok


def _run_stieltjes(prm):
    # also runs sweep; f is parsed once, so the grid points share its rungs
    f = parse_function(prm["f"])
    grid = prm["omega_grid"]
    if grid is None:
        _need(prm, "stieltjes", "omega")
    return _transform_rows(prm, (
        TransformSpec(f, prm["n"], omega, prm["a"], prm["nu"])
        for omega in ([prm["omega"]] if grid is None else _parse_grid(grid))))


def _run_quadratic(prm):
    # omega and pe are tested against None: a zero reaches the range checks
    if prm["g_plus"] or prm["g_minus"]:
        if not (prm["g_plus"] and prm["g_minus"]) or prm["pe"] is None:
            raise ValueError(
                "diffusivity mode needs --g-plus, --g-minus and --pe")
        gp = parse_function(prm["g_plus"])
        gm = parse_function(prm["g_minus"])
        keff = effective_diffusivity(gp, gm, prm["pe"], prm["kappa"],
                                     a=prm["a"], tol=prm["tol"])
        return [{"peclet": prm["pe"], "kappa": prm["kappa"],
                 "kappa_eff": keff, "flag": ""}], True
    if not prm["f"]:
        raise ValueError("quadratic needs --f (or the diffusivity trio)")
    omega = prm["omega"]
    if omega is None:
        if prm["pe"] is None:
            raise ValueError("quadratic needs --omega or --pe")
        omega = peclet_omega(prm["pe"])
    f = parse_function(prm["f"])
    return _transform_rows(prm, [
        TransformSpec(f, 1, omega, prm["a"], 0.0, "quadratic")])


def _run_specfun(prm):
    family, n = prm["family"], prm["n"]
    if family not in _FAMILY_OPTIONS:
        raise ValueError(f"unknown specfun family {family!r}")
    _need(prm, family, _FAMILY_OPTIONS[family])
    if family == "gauss-int":
        value = gauss2f1_integer(
            Gauss2F1IntParams(n, prm["r"], prm["s"], prm["zeta"]))
    elif family == "gauss-branch":
        value = gauss2f1_branch(
            Gauss2F1BranchParams(n, prm["mu"], prm["s"], prm["zeta"]))
    else:
        order = prm["s"] if family == "kummer-int" else prm["afrac"]
        value = kummer_u(KummerParams(order, n, prm["omega"]))
    return [{"family": family, "value": value, "flag": ""}], True


def _run_asym(prm):
    f = parse_function(prm["f"])
    lb = classify(f, prm["n"], prm["nu"], prm["a"])
    row = {
        "kind": lb.kind.value,
        "coefficient": lb.coefficient,
        "exponent": lb.exponent,
        "carries_log": lb.carries_log,
        "flag": "",
    }
    if prm["omega"] is not None:  # a zero reaches value_at's range check
        row["leading_value"] = lb.value_at(prm["omega"])
    return [row], True


def _run_compare(prm):
    if prm["op"] not in _COMPARE_OPS:
        raise ValueError(f"unknown compare op {prm['op']!r}")
    return _COMMANDS[prm["op"]][0]({**prm, "compare": True})


# command -> (runner, help, its options in parser order; "!" marks a required
# one).  Every command also takes --format, --output and --tol, added last;
# it lists "tol" when it uses the tolerance and so stores it.
_COMMANDS = {
    "fpi": (_run_fpi, "finite-part integral", "f! m! nu a compare"),
    "stieltjes": (_run_stieltjes, "generalized Stieltjes transform",
                  "f! n! nu omega! a kmax compare tol"),
    "quadratic": (_run_quadratic, "omega^2 + x^2 kernel / diffusivity",
                  "f omega pe a kappa g_plus g_minus kmax compare tol"),
    "specfun": (_run_specfun, "2F1 / Kummer U series values",
                "family! n! r s mu afrac zeta omega"),
    "asym": (_run_asym, "dominant small-omega behavior", "f! n! nu a omega"),
    "compare": (_run_compare, "method vs independent oracle",
                "op! f! m n nu omega pe a kmax tol"),
    "sweep": (_run_stieltjes, "omega sweep of the decomposition",
              "f! n! nu a omega_grid! kmax with_oracle tol"),
}
_CONFIG_KEYS = {cmd: tuple(name.rstrip("!") for name in names.split())
                for cmd, (_, _, names) in _COMMANDS.items()}


def run(config: RunConfig):
    """Execute a configuration; returns (exit_code, document)."""
    prm = {**_DEFAULTS, **config.params}
    for name in _FLOATS:
        if isinstance(prm[name], str):  # stored configs hold +-inf as text
            prm[name] = float(prm[name])
    rows, converged = _COMMANDS[config.command][0](prm)
    doc = {"config": config.to_json(), "results": rows}
    return (0 if converged else 3), doc


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render(doc, fmt: str) -> str:
    rows = doc["results"]
    if fmt == "json":  # the two fixed outer levels around their members
        config = doc["config"]
        return ('{\n  "config": {\n    "command": '
                + _json(config["command"], 2) + ',\n    "params": '
                + _json(config["params"], 2) + '\n  },\n  "results": '
                + _json(rows, 1) + "\n}\n")
    cols = dict.fromkeys(chain.from_iterable(rows))
    if fmt == "csv":  # csv writes a float as its repr and None as ""
        cols = ([c for c in SWEEP_COLUMNS if c in cols]
                + sorted(cols.keys() - SWEEP_COLUMNS))
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        w.writerows(map(r.get, cols, repeat("")) for r in rows)
        return buf.getvalue()
    # table: the header line, then each cell formatted once
    lines = [list(cols), *(list(map(_cell, map(r.get, cols, repeat(""))))
                           for r in rows)]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join("  ".join(map(str.ljust, line, widths)) + "\n"
                   for line in lines)


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return "" if v is None else str(v)


_SCALARS = frozenset((str, int, float, bool, type(None)))


@cache
def _encoder(depth):
    """The C encoder for a container ``depth`` levels deep: its item
    separator holds the newline and its members' indent, which is
    ``indent=2``'s layout of that one level."""
    return json.JSONEncoder(sort_keys=True, separators=(
        ",\n" + "  " * (depth + 1), ": ")).encode


def _json(value, depth):
    """``json.dumps(value, indent=2, sort_keys=True)``, laid out ``depth``
    levels deep.  A container of scalars is one C-encoder call; one that
    holds a container lays out each member one level deeper."""
    encode = _encoder(depth)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return encode(value)
    pad = "\n" + "  " * (depth + 1)
    is_dict = isinstance(value, dict)
    if _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        body = encode(value)[1:-1]
    elif is_dict:  # each key as json writes it, from a one-member object
        body = ("," + pad).join(encode({k: 0})[1:-2] + _json(v, depth + 1)
                                for k, v in sorted(value.items()))
    else:
        body = ("," + pad).join([_json(v, depth + 1) for v in value])
    brackets = "{}" if is_dict else "[]"
    return brackets[0] + pad + body + "\n" + "  " * depth + brackets[1]


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add(parser, name, **override):
    flag, kw = _OPTIONS[name]
    parser.add_argument(flag, **{**kw, **override})


# every command takes _SHARED after its own options.  The top-level parser
# takes _TOP_LEVEL as well, and the subparsers give those no default, so
# that a value given before the command is not overwritten.
_TOP_LEVEL = ("format", "output")
_SHARED = (*_TOP_LEVEL, "tol")


def _command_options(names):
    """(dest, required) of each option of a command's parser, in order."""
    return [(name.rstrip("!"), name.endswith("!")) for name in names.split()
            if name != "tol"] + [(name, False) for name in _SHARED]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finitepart",
        description="Finite-part integrals and generalized Stieltjes "
                    "transforms near omega = 0",
    )
    ap.add_argument("--replay", default=None,
                    help="re-run the configuration embedded in a JSON document")
    _add(ap, "format")
    _add(ap, "output", help=None)
    sub = ap.add_subparsers(dest="command")
    for cmd, (_, text, names) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=text)
        for dest, required in _command_options(names):
            if dest in _TOP_LEVEL:
                _add(p, dest, default=argparse.SUPPRESS)
            else:
                _add(p, dest, required=required)
    return ap


def _config_from_args(args) -> RunConfig:
    params = {}
    for key in _CONFIG_KEYS[args.command]:
        v = getattr(args, key)
        if v is not None and v is not False:
            # keep stored configs strict JSON: +-inf as "inf" and "-inf"
            if isinstance(v, float) and math.isinf(v):
                v = str(v)
            params[key] = v
    return RunConfig(args.command, params)


def _replay_config(saved) -> RunConfig:
    """The configuration stored in a --replay document, whose params
    name only options of its command."""
    if not isinstance(saved, dict):
        raise ValueError("replay document is not a JSON object")
    cfg = saved.get("config")
    if not isinstance(cfg, dict):
        raise ValueError('replay document has no "config" object')
    for key in ("command", "params"):
        if key not in cfg:
            raise ValueError(f'replay config has no "{key}"')
    cmd, params = cfg["command"], cfg["params"]
    if not (isinstance(cmd, str) and cmd in _COMMANDS):
        raise ValueError(f"replay config names unknown command {cmd!r}")
    if not isinstance(params, dict):
        raise ValueError('replay config "params" is not a JSON object')
    for name in _COMMANDS[cmd][2].split():
        if name.endswith("!") and name[:-1] not in params:
            raise ValueError(f'replay params have no "{name[:-1]}"')
    for key in params:
        if key not in _CONFIG_KEYS[cmd]:
            raise ValueError(f"replay params hold {key!r}, which is not an "
                             f"option of {cmd}")
    return RunConfig(cmd, params)


def _read_table(names):
    """What build_parser gives one command, for :func:`_read`: flag -> (dest,
    type, choices), with type None for a store_true flag; the namespace that
    the top-level parser and the subparser fill in before any flag is read;
    and the required dests."""
    flags, required = {}, set()
    start = {"replay": None, **{dest: _DEFAULTS[dest] for dest in _TOP_LEVEL}}
    for dest, req in _command_options(names):
        flag, kw = _OPTIONS[dest]
        store_true = kw.get("action") == "store_true"
        flags[flag] = (dest, None if store_true else kw.get("type", str),
                       kw.get("choices"))
        if dest not in _TOP_LEVEL:
            start[dest] = False if store_true else kw.get("default")
        if req:
            required.add(dest)
    return flags, start, required


_READ_TABLES = {cmd: _read_table(names)
                for cmd, (_, _, names) in _COMMANDS.items()}


def _read(argv):
    """The namespace of ``build_parser().parse_args(argv)`` for an argv of
    the form ``command (--flag value | --store-true-flag)*`` whose flags are
    exact flags of that command, every value non-empty, not starting with
    "-", of its option's type and choices, and every required option given;
    the last of a repeated flag wins.  None for any other argv: help, a
    leading top-level option, abbreviations, ``--flag=value``, ``--`` and
    every argv that argparse rejects, all of which argparse reads."""
    table = _READ_TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    flags, start, required = table
    given = {}
    i, n = 1, len(argv)
    while i < n:
        option = flags.get(argv[i])
        if option is None:
            return None
        dest, convert, choices = option
        i += 1
        if convert is None:
            given[dest] = True
            continue
        if i == n or not argv[i] or argv[i][0] == "-":
            return None
        try:
            value = convert(argv[i])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        given[dest] = value
        i += 1
    if not required <= given.keys():
        return None
    return argparse.Namespace(**{**start, "command": argv[0], **given})


_parser = None  # built when _read first declines an argv, then reused


def _parse_args(argv):
    """``build_parser().parse_args(argv)``: a command line that :func:`_read`
    accepts is read from the option tables alone, and every other argv goes
    to argparse, so that help, usage and every error are argparse's own."""
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    fmt = args.format
    out_path = args.output
    try:  # OSError: an unreadable --replay or unwritable --output
        if args.replay:
            with open(args.replay) as fh:
                saved = json.load(fh)
            config = _replay_config(saved)
            fmt = "json" if fmt == "table" else fmt
        elif args.command:
            config = _config_from_args(args)
        else:
            _parser.print_usage(sys.stderr)
            return 2
        code, doc = run(config)
        text = render(doc, fmt)
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FinitePartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not out_path:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
