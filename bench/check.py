"""Checks op outputs against the mpmath references and the method's
properties.

An op passes when it raised nothing, is not flagged (``converged=False``
or CLI exit 3) and every value it returns is within RTOL of its reference,
relative to max(|reference|, ABS_FLOOR).  It also has to keep the
properties the method guarantees:

* ``naive_sum + singular == total`` exactly, for every transform value;
* ``S > 0`` and ``S`` decreasing in omega along a sweep (every sweep
  integrates a positive f);
* ``kappa_eff > kappa`` for positive g;
* ``--replay`` reproduces the saved document byte for byte.

Every failed op is one of: ``wrong`` (unflagged but off, or a property
broken), ``flagged`` or ``raised``.
"""

import csv
import io
import json
import math

import workloads

RTOL = 1e-10                 # 100x the default tol of 1e-12
ABS_FLOOR = 1e-12            # errors below 1e-22 always pass
EPS = 2.0 ** -53
DIGITS_CAP = -math.log10(EPS)


def rel_err(value, ref):
    return abs(value - ref) / max(abs(ref), ABS_FLOOR)


def digits(err):
    return min(DIGITS_CAP, -math.log10(max(err, EPS)))


class _Op:
    """Collects the verdict of one op: worst relative error and failures."""

    def __init__(self):
        self.err = 0.0
        self.status = None
        self.why = ""

    def fail(self, status, why):
        if self.status is None:
            self.status, self.why = status, why

    def value(self, name, value, ref):
        try:
            value = float(value)
        except (TypeError, ValueError):
            self.fail("wrong", f"{name} is not a number: {value!r}")
            return
        e = rel_err(value, ref)
        if not e <= RTOL:      # also catches nan
            self.fail("wrong", f"{name}={value!r} ref={ref!r} rel_err={e:.3g}")
        else:
            self.err = max(self.err, e)

    def prop(self, ok, why):
        if not ok:
            self.fail("wrong", why)

    def verdict(self):
        if self.status is None:
            return ("pass", digits(self.err), "")
        return (self.status, None, self.why)


def _rows(text, fmt):
    if fmt == "json":
        return json.loads(text)["results"]
    return list(csv.DictReader(io.StringIO(text)))


def _truthy(v):
    return v is True or v == "True"


def _check_transform_row(c, row, ref, prefix=""):
    if row.get("flag"):
        c.fail("flagged", f"{prefix}flag={row['flag']}")
        return
    c.value(prefix + "total", row["total"], ref)
    c.prop(float(row["naive_sum"]) + float(row["singular"])
           == float(row["total"]), prefix + "naive_sum + singular != total")


def _check_cli(c, op, out, ref):
    if out.get("code") == 2:
        c.fail("raised", "exit code 2")
        return
    if out.get("code") == 3:
        c.fail("flagged", "exit code 3")
        return
    if out.get("code") != 0 or out.get("text") is None:
        c.fail("wrong", f"exit code {out.get('code')} without output")
        return
    chk = op["check"]
    if chk == "replay":
        c.prop(out.get("same") is True,
               "replay output differs from the saved document")
        return
    rows = _rows(out["text"], op["fmt"])
    if chk == "sweep":
        c.prop(len(rows) == len(ref["vs"]), "wrong number of sweep rows")
        prev = None
        for i, (row, w, v) in enumerate(zip(rows, ref["omegas"], ref["vs"])):
            c.prop(rel_err(float(row["omega"]), w) <= 1e-15,
                   f"row {i} omega {row['omega']} != {w!r}")
            _check_transform_row(c, row, v, f"row {i} ")
            tot = float(row["total"])
            c.prop(tot > 0 and (prev is None or tot < prev),
                   f"row {i}: S not positive and decreasing")
            prev = tot
        return
    row = rows[0]
    if row.get("flag"):
        c.fail("flagged", f"flag={row['flag']}")
        return
    if chk == "fpi":
        c.value("value", row["value"], ref["v"])
    elif chk == "transform":
        _check_transform_row(c, row, ref["v"])
    elif chk == "diffusivity":
        c.value("kappa_eff", row["kappa_eff"], ref["v"])
        c.prop(float(row["kappa_eff"]) > float(row["kappa"]),
               "kappa_eff <= kappa")
    elif chk == "specfun":
        c.value("value", row["value"], ref["v"])
    elif chk == "classify":
        c.prop(row["kind"] == ref["kind"],
               f"kind {row['kind']} != {ref['kind']}")
        c.prop(abs(float(row["exponent"]) - ref["exp"]) <= 1e-12,
               f"exponent {row['exponent']} != {ref['exp']}")
        c.prop(_truthy(row["carries_log"]) == ref["log"],
               "carries_log differs")
        c.value("coefficient", row["coefficient"], ref["coef"])
        c.value("leading_value", row["leading_value"], ref["lead"])
    else:
        raise ValueError(chk)


def check_round(groups, outputs, refs):
    """One (status, digits, why) per op, in execution order."""
    flat = workloads.flat_ops(groups)
    if not (len(flat) == len(outputs) == len(refs)):
        raise ValueError("outputs, references and ops do not line up")
    verdicts = []
    prev = {}          # sweep id -> total of the previous passing op
    for (g, op), out, ref in zip(flat, outputs, refs):
        c = _Op()
        if out["st"] == "raised":
            c.fail("raised", out["err"])
        elif g["kind"] == "sweep":
            if not out["conv"]:
                c.fail("flagged", "converged=False")
            else:
                c.value("total", out["total"], ref["v"])
                c.prop(out["naive"] + out["singular"] == out["total"],
                       "naive_sum + singular != total")
                last = prev.get(id(g))
                c.prop(out["total"] > 0 and (last is None
                                             or out["total"] < last),
                       "S not positive and decreasing in omega")
        elif g["kind"] == "diffusivity":
            c.value("kappa_eff", out["v"], ref["v"])
            c.prop(out["v"] > op["kappa"], "kappa_eff <= kappa")
        elif g["kind"] == "classify":
            c.prop(out["kind"] == ref["kind"],
                   f"kind {out['kind']} != {ref['kind']}")
            c.prop(abs(out["exp"] - ref["exp"]) <= 1e-12,
                   f"exponent {out['exp']} != {ref['exp']}")
            c.prop(out["log"] == ref["log"], "carries_log differs")
            c.value("coefficient", out["coef"], ref["coef"])
        elif g["kind"] == "specfun":
            c.value("value", out["v"], ref["v"])
        else:
            _check_cli(c, op, out, ref)
        v = c.verdict()
        if g["kind"] == "sweep" and v[0] == "pass":
            prev[id(g)] = out["total"]
        verdicts.append(v)
    return verdicts


def self_test():
    """The checker must fail a perturbed value, a flag and a raise."""
    g = {"kind": "sweep", "kernel": "stieltjes", "f": "exp(1)", "n": 1,
         "nu": 0.0, "a": 1.0, "omegas": [0.1, 0.2, 0.3, 0.4],
         "fault": False}
    refs = [{"v": 4.0}, {"v": 3.0}, {"v": 2.0}, {"v": 1.0}]

    def ok(total, conv=True):
        return {"st": "ok", "naive": total - 1.0, "singular": 1.0,
                "total": total, "k": 5, "conv": conv}

    outputs = [ok(4.0), ok(3.0 * (1 + 1e-8)), ok(2.0, conv=False),
               {"st": "raised", "err": "NonconvergenceError: test"}]
    got = [v[0] for v in check_round([g], outputs, refs)]
    want = ["pass", "wrong", "flagged", "raised"]
    if got != want:
        raise AssertionError(f"checker self-test: got {got}, want {want}")
