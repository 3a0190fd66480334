"""mpmath references for every op of a workload round, cached per seed.

The references are computed apart from the program: closed forms where
mpmath has them (incomplete gamma / generalized exponential integral,
``hyperu``, ``hyp2f1``, ``psi``) and ``mpmath.quad`` with breakpoints at
omega elsewhere, all at 30 significant digits.  The function literals are
parsed here too, so no finitepart code is involved.

Regenerate (or build for a new seed) with

    python3 bench/refs.py --workload series_sweep --seed 7 --force

Runs of ``bench/run.py`` build missing references the same way.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

import mpmath as mp

import workloads

DPS = 30
# a reference is refused unless mpmath's own error estimate is below this
REF_RTOL = 1e-17
CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                         "refs")


# ---------------------------------------------------------------------------
# function literals
# ---------------------------------------------------------------------------

class Fn:
    """c * x^p * exp(-b x), c * exp(-b x^2), or a polynomial, in mpmath."""

    def __init__(self, text):
        text = text.strip()
        self.c = mp.mpf(1)
        if "*" in text:
            head, _, text = text.partition("*")
            self.c = mp.mpf(head)
        name, _, inner = text[:-1].partition("(")
        self.kind = name
        self.p = 0
        self.b = None
        self.poly = None   # {power: coefficient}
        if name == "exp":
            self.b = mp.mpf(inner)
        elif name == "monexp":
            p, b = inner.split(",")
            self.p, self.b = int(p), mp.mpf(b)
        elif name == "gauss":
            self.b = mp.mpf(inner)
        elif name == "poly":
            body, _, start = inner.partition("@")
            lo = int(start) if start else 0
            self.poly = {lo + i: mp.mpf(c) for i, c in
                         enumerate(body.split(":")) if mp.mpf(c) != 0}
        elif name == "binpoly":
            p, q = (int(v) for v in inner.split(","))
            self.poly = {p + j: mp.mpf((-1) ** j * math.comb(q, j))
                         for j in range(q + 1)}
        else:
            raise ValueError(f"unknown function literal {text!r}")

    def __call__(self, x):
        if self.poly is not None:
            return self.c * sum(cf * x**k for k, cf in self.poly.items())
        if self.kind == "gauss":
            return self.c * mp.exp(-self.b * x * x)
        return self.c * x**self.p * mp.exp(-self.b * x)

    def leading(self):
        """(zero order, first nonzero Maclaurin coefficient)."""
        if self.poly is not None:
            k = min(self.poly)
            return k, self.c * self.poly[k]
        return self.p, self.c


def _quad(fn, pts):
    val, err = mp.quad(fn, pts, error=True, maxdegree=10)
    if not abs(err) <= REF_RTOL * abs(val):
        raise RuntimeError(f"reference quadrature did not settle: err={err}")
    return val


def _points(omega, a):
    pts = [mp.mpf(0), mp.mpf(omega)]
    if omega < 1 and 1 < a:
        pts.append(mp.mpf(1))
    pts.append(mp.inf if math.isinf(a) else mp.mpf(a))
    return pts


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def fpi(f, m, nu, a):
    """Finite part of int_0^a f(x) x^(-m-nu) dx."""
    nu = mp.mpf(nu)
    if f.poly is not None:
        if math.isinf(a):
            return mp.mpf(0)
        tot = mp.mpf(0)
        for k, cf in f.poly.items():
            e = k + 1 - m - nu
            tot += cf * (mp.log(a) if e == 0 else mp.mpf(a) ** e / e)
        return f.c * tot
    if f.kind not in ("exp", "monexp"):
        raise ValueError("no finite-part reference for " + f.kind)
    b = f.b
    s = 1 + f.p - m - nu          # x^(s-1) exp(-b x)
    if nu == 0 and s <= 0:
        mm = 1 - int(s)           # pole of order mm: log and psi terms
        val = ((-1) ** mm * b ** (mm - 1) * (mp.log(b) - mp.psi(0, mm))
               / mp.factorial(mm - 1))
        if not math.isinf(a):
            val -= mp.mpf(a) ** (1 - mm) * mp.expint(mm, a * b)
        return f.c * val
    # analytic continuation in the exponent equals the finite part
    val = mp.gamma(s)
    if not math.isinf(a):
        val -= mp.gammainc(s, a * b)
    return f.c * val / b**s


def transform(f, n, nu, a, omega):
    """int_0^a x^(-nu) f(x) (omega + x)^(-n) dx."""
    w = mp.mpf(omega)
    if f.kind == "exp" and nu == 0:
        b = f.b
        hi = mp.inf if math.isinf(a) else b * (w + a)
        return f.c * mp.exp(b * w) * b ** (n - 1) * mp.gammainc(1 - n, b * w,
                                                                 hi)
    if f.kind == "exp" and math.isinf(a):
        nu = mp.mpf(nu)
        return (f.c * mp.gamma(1 - nu) * w ** (1 - nu - n)
                * mp.hyperu(1 - nu, 2 - nu - n, f.b * w))
    if nu == 0:
        return _quad(lambda x: f(x) / (w + x) ** n, _points(omega, a))
    # x = t^q with q = 1/(1-nu) removes the x^(-nu) endpoint singularity
    q = 1 / (1 - mp.mpf(nu))
    pts = [p if p == mp.inf else p ** (1 / q) for p in _points(omega, a)]
    return _quad(lambda t: q * f(t**q) / (w + t**q) ** n, pts)


def quadratic(f, a, omega):
    """int_0^a f(x) / (omega^2 + x^2) dx."""
    w = mp.mpf(omega)
    return _quad(lambda x: f(x) / (w * w + x * x), _points(omega, a))


def diffusivity(g_plus, g_minus, pe, kappa):
    w = 1 / mp.mpf(pe)
    return kappa * (1 + quadratic(Fn(g_plus), math.inf, w)
                    + quadratic(Fn(g_minus), math.inf, w))


def classify(f, n, nu, a):
    """Dominant omega -> 0 term: kind, coefficient, exponent, log factor."""
    m, d0 = f.leading()
    if nu == 0:
        if m == n - 1:
            return "LogDominant", -d0, 0, True
        if m <= n - 2:
            coef = d0 * mp.beta(m + 1, n - m - 1)
            return "PowerDominant", coef, -(n - m - 1), False
    elif m <= n - 1:
        nu = mp.mpf(nu)
        coef = d0 * mp.beta(m + 1 - nu, n - m - 1 + nu)
        return "BranchPowerDominant", coef, m - n + 1 - nu, False
    # f x^(-n-nu) is integrable at the origin: an ordinary integral
    return "NaiveDominant", fpi(f, n, nu, a), 0, False


def specfun(op):
    fam = op["family"]
    if fam == "gauss-int":
        return mp.hyp2f1(op["n"], op["r"], op["s"], -mp.mpf(op["zeta"]))
    if fam == "gauss-branch":
        mu = mp.mpf(op["mu"])
        return mp.hyp2f1(op["n"], 1 - mu, op["s"] - mu + 2,
                         -mp.mpf(op["zeta"]))
    if fam == "kummer-int":
        s, n = op["s"], op["n"]
        return mp.hyperu(s, s + 1 - n, mp.mpf(op["omega"]))
    if fam == "kummer-frac":
        av = mp.mpf(op["afrac"])
        return mp.hyperu(av, av - op["n"] + 1, mp.mpf(op["omega"]))
    raise ValueError(fam)


def cli_grid(lo, hi, count):
    """The omegas of ``--omega-grid lo:hi:count``, in the same float steps."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    return [lo * ratio**i for i in range(count)]


def _sweep_value(g, omega):
    f = Fn(g["f"])
    if g["kernel"] == "quadratic":
        return quadratic(f, g["a"], omega)
    return transform(f, g["n"], g["nu"], g["a"], omega)


def _cli_ref(op):
    chk = op["check"]
    if chk == "fpi":
        return {"v": float(fpi(Fn(op["f"]), op["m"], op["nu"], op["a"]))}
    if chk == "transform":
        return {"v": float(_sweep_value(op, op["omega"]))}
    if chk == "diffusivity":
        return {"v": float(diffusivity(op["g_plus"], op["g_minus"],
                                       op["pe"], op["kappa"]))}
    if chk == "specfun":
        return {"v": float(specfun(op))}
    if chk == "classify":
        kind, coef, ex, lg = classify(Fn(op["f"]), op["n"], op["nu"],
                                      op["a"])
        w = mp.mpf(op["omega"])
        lead = coef * w ** ex * (mp.log(w) if lg else 1)
        return {"kind": kind, "coef": float(coef), "exp": float(ex),
                "log": lg, "lead": float(lead)}
    if chk == "sweep":
        oms = cli_grid(*op["grid"])
        return {"omegas": oms,
                "vs": [float(_sweep_value(op, w)) for w in oms]}
    if chk == "replay":
        return {}
    raise ValueError(chk)


def op_ref(group, op):
    kind = group["kind"]
    if kind == "sweep":
        return {"v": float(_sweep_value(group, op["omega"]))}
    if kind == "diffusivity":
        return {"v": float(diffusivity(op["g_plus"], op["g_minus"], op["pe"],
                                       op["kappa"]))}
    if kind == "classify":
        kind_, coef, ex, lg = classify(Fn(op["f"]), op["n"], op["nu"],
                                       op["a"])
        return {"kind": kind_, "coef": float(coef), "exp": float(ex),
                "log": lg}
    if kind == "specfun":
        return {"v": float(specfun(op))}
    if kind == "cli":
        return _cli_ref(op)
    raise ValueError(kind)


def round_key(groups):
    """Content hash of a round, so changed inputs never reuse old values."""
    blob = json.dumps(groups, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build(workload, seed):
    groups = workloads.build(workload, seed)
    with mp.workdps(DPS):
        return [op_ref(g, o) for g, o in workloads.flat_ops(groups)]


def load_or_build(workload, seed, force=False):
    """References for (workload, seed), from the cache when it is current."""
    groups = workloads.build(workload, seed)
    path = os.path.join(CACHE_DIR,
                        f"{workload}-{seed}-{round_key(groups)}.json")
    if not force and os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    refs = build(workload, seed)
    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(refs, fh)
    os.replace(tmp, path)
    return refs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--force", action="store_true",
                    help="recompute even when a cached file exists")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    refs = load_or_build(args.workload, args.seed, force=args.force)
    print(f"{len(refs)} references for {args.workload} seed {args.seed} "
          f"in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
