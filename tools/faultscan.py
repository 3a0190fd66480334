"""Classify the grid's transforms against mpmath: a correctness census.

    python3 tools/faultscan.py
    python3 tools/faultscan.py --root ../parent

The transforms and quadratic-kernel values of ``tools/bitdump.py``'s grid,
its REFUSED transforms included, are computed in dump order by the package
in ``<root>/src`` (``root`` defaults to the checkout this script sits in)
and compared with mpmath references at 30 digits from
``<root>/bench/refs.py``.  Each value is

  correct         converged, and total within tol |ref|
  flagged         converged is False
  rejected        a FinitePartError or ValueError naming the failure
  silently wrong  converged, but total off by more than tol |ref|
  raised raw      any other exception

with tol the grid's 1e-12.  Per route, the values computed, the silently
wrong ones, the values whose total lies outside their own tail_estimate
and the flagged ones whose total is within tol |ref| are counted too.  The
counts are printed, then one line per silently wrong, raw or
under-covered value of an integrated route.  The same census follows for
the grid's transforms at HIGH_NUS, where f(0) != 0 once kept the direct
route from being built.

A polynomial's transform at a = inf is summed term by term from the Beta
integral int_0^inf x^(s-1) (omega+x)^-n dx = omega^(s-n) B(s, n-s),
where the quadrature of ``bench/refs.py`` cannot settle the slow x^(s-n-1)
tail.  References are cached as text in ``.faultscan/refs.json`` at the
root of this checkout (git-ignored), keyed by function, n, nu, a and
omega; a reference that mpmath cannot settle is reported, not used, and
tried again on the next run.

Two more lines follow.  The split rungs at a = inf of gauss(1) and
gauss(0.7), m = 1-40 and nu in {0, 0.25, 0.5}, are counted where their
value is further from mpmath's than their own tail_bound; the reference
is the finite part over [0, 1], summed term by term from the Maclaurin
series, plus the integral over [1, inf).  Then effective_diffusivity
(e^{-x}, e^{-x}, Pe, kappa = 1) at DIFFUSIVITY_PES, against
``bench/refs.py``'s ``diffusivity``, is correct, silently wrong, rejected
or raised raw, with one line per silently wrong or raw value.

Then the four ``specfun`` families are classified the same way, over a
fixed grid with n <= 40, zeta in (1, 1e4] and omega in (0, 100], plus
SPECFUN_LARGE_N, against ``bench/refs.py``'s ``hyp2f1`` and ``hyperu``.
Their values carry no flag, so each is correct, silently wrong, rejected,
raised raw, or has no reference: mpmath's ``hyperu`` need not settle, so a
30-digit reference is used only where it agrees with the 40-digit one to
20 digits, and one that raises is none.  The counts are printed per family
and in all, each line ending in how many values the transform core's
direct-route integral computed (a call of ``specfun._direct`` that
returned a value; none in a checkout whose ``specfun`` has no such name)
and how many the series did, then one line per silently wrong, raw or
unreferenced value.

Last, the power-law leading coefficients of ``asymptotic.classify`` are
classified against mpmath's ``d0 * beta(m+1-nu, n-m-1+nu)``, on
x^m e^{-x} (d0 = 1) over n in CLASSIFY_NS, m in {0, 1, 2, 3, 5, n//2,
n-2, n-1} and nu in CLASSIFY_NUS: the power rows (nu = 0, m <= n-2) and
the branch rows (0 < nu < 1, m <= n-1).  Each is correct, silently wrong
(off by more than tol, or of the wrong kind or exponent), rejected or
raised raw; the counts are printed per row kind, then one line per
silently wrong or raw value.
"""

import argparse
import json
import math
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(os.path.dirname(HERE), ".faultscan", "refs.json")

# the make_stream names of REFUSED as refs.Fn literals
STREAM_FNS = {"expstream": "exp(1)", "xexp": "monexp(1,1)"}

SPECFUN_NS = (1, 2, 3, 5, 10, 20, 40)
SPECFUN_ZETAS = (1.01, 1.5, 2.0, 10.0, 100.0, 1e4)
SPECFUN_OMEGAS = (1e-3, 0.1, 0.5, 2.0, 10.0, 60.0, 100.0)
SPECFUN_FRACTIONS = (0.25, 0.5, 0.75)
# command lines whose factorials leave float range
SPECFUN_LARGE_N = [
    {"family": "gauss-int", "n": 300, "r": 1, "s": 200, "zeta": 1.5},
    {"family": "gauss-branch", "n": 300, "mu": 0.5, "s": 2, "zeta": 1.5},
    {"family": "kummer-int", "n": 300, "s": 3, "omega": 0.5},
    {"family": "kummer-int", "n": 3, "s": 300, "omega": 0.5},
    {"family": "kummer-frac", "n": 300, "afrac": 0.5, "omega": 0.5},
]

# branch exponents of the second transform census
HIGH_NUS = (0.75, 0.9)

CLASSIFY_NS = (*range(1, 41), 60, 80, 100, 120, 150, 170, 200, 300, 400,
               600, 800, 1000)
CLASSIFY_NUS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)

SPLIT_GAUSS = ("gauss(1)", "gauss(0.7)")
DIFFUSIVITY_PES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
                   100.0, 200.0, 500.0, 1000.0)


def reference(refs, cache, spec):
    """mpmath's value of ``spec`` = (text, n, nu, a, omega) as a string, or
    the message of a reference that did not settle; cached."""
    key = repr(spec)
    if cache.get(key, "no reference").startswith("no reference"):
        text, n, nu, a, w = spec
        fn = refs.Fn(STREAM_FNS.get(text, text))
        with refs.mp.workdps(refs.DPS):
            try:
                if n and fn.poly is not None and math.isinf(a):
                    v = beta_transform(refs.mp, fn, n, nu, w)
                elif n:
                    v = refs.transform(fn, n, nu, a, w)
                else:
                    v = refs.quadratic(fn, a, w)
                cache[key] = refs.mp.nstr(v, refs.DPS + 5)
            except (RuntimeError, ZeroDivisionError, ValueError) as exc:
                cache[key] = f"no reference: {exc}"
    return cache[key]


def split_rung_reference(mp, cache, text, m, nu):
    """The finite part of int_0^inf e^{-c x^2} x^(-m-nu) dx as a string:
    sum_i (-c)^i / i! / (2i - m - nu + 1) over [0, 1], the term of
    exponent -1 left out, plus mpmath's quadrature over [1, inf); cached."""
    key = repr(("split rung", text, m, nu))
    if key not in cache:
        with mp.workdps(40):
            c, nu = mp.mpf(text[6:-1]), mp.mpf(nu)
            head = mp.fsum((-c) ** i / mp.factorial(i) / (2 * i - m - nu + 1)
                           for i in range(200) if 2 * i - m - nu + 1 != 0)
            tail = mp.quad(lambda x: mp.exp(-c * x * x) * x ** (-m - nu),
                           [1, 2, 4, mp.inf])
            cache[key] = mp.nstr(head + tail, 35)
    return cache[key]


def split_rung_census(child, fp, mp, cache):
    """Print how many split rungs at a = inf lie outside their
    tail_bound, then one line per such rung."""
    lines = []
    count = 0
    for text in SPLIT_GAUSS:
        for nu in (0.0, 0.25, 0.5):
            f = child.make_function(text)
            for m in range(1, 41):
                got = fp.finite_part_integral(f, m, nu, math.inf)
                count += 1
                with mp.workdps(40):
                    err = abs(mp.mpf(split_rung_reference(
                        mp, cache, text, m, nu)) - got.value)
                if err > got.tail_bound:
                    lines.append(f"outside tail_bound  fpi {text} {nu} inf "
                                 f"{m}  |value - ref| {float(err):.3g} > "
                                 f"{got.tail_bound:.3g}")
    print(f"split rungs at a = inf outside tail_bound: {len(lines)} of "
          f"{count}")
    for line in lines:
        print(line)


def tally(kinds, lines, key, head, thunk, judge, rejections):
    """Count the outcome of ``thunk`` as kinds[key, kind]: "rejected"
    where it raises one of ``rejections``, "raised raw" where it raises
    anything else, and else the (kind, note) of ``judge`` of its value.
    Each kind but correct, flagged and rejected adds the line
    "<kind>  <head>  <note>"."""
    try:
        got = thunk()
    except rejections:
        kind = "rejected"
    except Exception as exc:
        kind, note = "raised raw", f"{type(exc).__name__}: {exc}"
    else:
        kind, note = judge(got)
    kinds[key, kind] += 1
    if kind not in ("correct", "flagged", "rejected"):
        lines.append(f"{kind}  {head}  {note}")


def against(ref, got, tol):
    """(kind, note) of ``got`` against the mpf ``ref``: correct within
    tol |ref|, else silently wrong with its relative error."""
    rel = float(abs(ref - got) / abs(ref)) if ref else abs(got)
    return ("correct", None) if rel <= tol else (
        "silently wrong", f"rel err {rel:.2g}")


def print_counts(label, kinds, keys, order):
    """One line "<label>: <kind>: <count> ...", the label left out where
    it is empty, summing kinds over keys."""
    print(f"{label}: " * bool(label) + " ".join(
        f"{k}: {sum(kinds[key, k] for key in keys)}" for k in order))


def diffusivity_census(entire, st, refs, cache, tol, error_types):
    """Print the census of effective_diffusivity(e^{-x}, e^{-x}, Pe, 1)."""
    kinds = Counter()
    lines = []
    g = entire.Exponential(1.0)

    def judge(got, pe):
        key = repr(("diffusivity", "exp(1)", pe))
        with refs.mp.workdps(refs.DPS):
            if key not in cache:
                cache[key] = refs.mp.nstr(refs.diffusivity(
                    "exp(1)", "exp(1)", pe, 1), refs.DPS + 5)
            return against(refs.mp.mpf(cache[key]), got, tol)

    for pe in DIFFUSIVITY_PES:
        tally(kinds, lines, "", f"diffusivity Pe {pe}",
              lambda: st.effective_diffusivity(g, g, pe, 1.0),
              lambda got: judge(got, pe), error_types)
    print_counts("diffusivity", kinds, ("",), ("correct", "silently wrong",
                                              "rejected", "raised raw"))
    for line in lines:
        print(line)


def specfun_ops():
    """The ops of the specfun census, in ``bench/refs.py``'s form."""
    for n in SPECFUN_NS:
        for r in (1, 2, 5):
            for s in sorted({r + 2, (r + 2 + n) // 2, n}):
                if r + 1 < s < n + 1:
                    yield from ({"family": "gauss-int", "n": n, "r": r,
                                 "s": s, "zeta": z} for z in SPECFUN_ZETAS)
        for mu in SPECFUN_FRACTIONS:
            for s in (1, 3, 10):
                yield from ({"family": "gauss-branch", "n": n, "mu": mu,
                             "s": s, "zeta": z} for z in SPECFUN_ZETAS)
        for s in SPECFUN_NS:
            yield from ({"family": "kummer-int", "n": n, "s": s,
                         "omega": w} for w in SPECFUN_OMEGAS)
        for a in SPECFUN_FRACTIONS:
            yield from ({"family": "kummer-frac", "n": n, "afrac": a,
                         "omega": w} for w in SPECFUN_OMEGAS)
    yield from SPECFUN_LARGE_N


def specfun_reference(refs, cache, op):
    """mpmath's value of the specfun ``op`` as a string, or the reason
    there is none; cached."""
    key = repr(("specfun", sorted(op.items())))
    if cache.get(key, "no reference").startswith("no reference"):
        try:
            with refs.mp.workdps(refs.DPS):
                v = refs.specfun(op)
            with refs.mp.workdps(refs.DPS + 10):
                check = refs.specfun(op)
                settled = abs(check - v) <= 1e-20 * abs(check)
            cache[key] = (refs.mp.nstr(v, refs.DPS + 5) if settled else
                          f"no reference: {v} at {refs.DPS} digits, "
                          f"{check} at {refs.DPS + 10}")
        except (ArithmeticError, ValueError,
                refs.mp.libmp.NoConvergence) as exc:
            cache[key] = f"no reference: {type(exc).__name__}: {exc}"
    return cache[key]


def specfun_census(child, refs, cache, tol, error_types):
    """Print the specfun census; ``error_types`` are the rejections."""
    kinds = Counter()
    methods = Counter()
    lines = []
    taken = []  # one entry per integral of the op being computed
    direct = getattr(child.sf, "_direct", None)

    def counted(*args):
        taken.append(args)
        return direct(*args)

    def compute(op):
        taken.clear()
        got = child._specfun_call(op)()
        methods[op["family"], "integral" if taken else "series"] += 1
        return got

    def judge(got, op):
        text = specfun_reference(refs, cache, op)
        if text.startswith("no reference"):
            return "no reference", text
        with refs.mp.workdps(refs.DPS):
            return against(refs.mp.mpf(text), got, tol)

    if direct is not None:
        child.sf._direct = counted
    try:
        for op in specfun_ops():
            tally(kinds, lines, op["family"],
                  " ".join(f"{k}={v}" for k, v in op.items()),
                  lambda: compute(op), lambda got: judge(got, op),
                  error_types)
    finally:
        if direct is not None:
            child.sf._direct = direct
    order = ("correct", "silently wrong", "rejected", "raised raw",
             "no reference")
    fams = ("gauss-int", "gauss-branch", "kummer-int", "kummer-frac")
    kinds += methods
    order += ("integral", "series")
    for fam in fams:
        print_counts(fam, kinds, (fam,), order)
    print_counts("specfun", kinds, fams, order)
    for line in lines:
        print(line)


def classify_census(asy, entire, mp, tol, error_types):
    """Print the census of classify's power and branch coefficients;
    ``error_types`` are the rejections."""
    kinds = Counter()
    lines = []

    def judge(lb, n, m, nu):
        with mp.workdps(30):
            ref = mp.beta(m + 1 - mp.mpf(nu), n - m - 1 + mp.mpf(nu))
            kind, _ = against(ref, lb.coefficient, tol)
            rel = float(abs(lb.coefficient - ref) / ref)
        want = (asy.LeadingKind.BRANCH_POWER_DOMINANT if nu
                else asy.LeadingKind.POWER_DOMINANT)
        if (kind, lb.kind, lb.exponent) == ("correct", want, m - n + 1 - nu):
            return "correct", None
        return "silently wrong", (f"rel err {rel:.2g}  {lb.kind.value} "
                                  f"{lb.exponent!r}")

    for n in CLASSIFY_NS:
        for m in sorted({0, 1, 2, 3, 5, n // 2, n - 2, n - 1}):
            for nu in CLASSIFY_NUS:
                if not 0 <= m <= n - 1 or nu == 0.0 and m == n - 1:
                    continue  # naive or log rows
                tally(kinds, lines, "branch" if nu else "power",
                      f"classify n={n} m={m} nu={nu}",
                      lambda: asy.classify(entire.MonomialExp(m, 1.0), n, nu),
                      lambda lb: judge(lb, n, m, nu), error_types)
    for row in ("power", "branch"):
        print_counts(f"classify {row}", kinds, (row,),
                     ("correct", "silently wrong", "rejected", "raised raw"))
    for line in lines:
        print(line)


def transform_census(cases, refs, cache, error_types, st, tol):
    """Print the census of the grid ``cases``, (head, reference, thunk)
    as ``bitdump.grid_cases`` yields them; ``error_types`` are the
    rejections."""
    kinds = Counter()
    routes = Counter()
    wrong = Counter()
    outside = Counter()
    flagged_within = Counter()
    lines = []
    tails = []  # the value's outside-tail line, after its own line

    def judge(got, head, spec):
        res = st.ExpansionResult(*got)
        text = reference(refs, cache, spec)
        if text.startswith("no reference"):
            return "no reference", text
        with refs.mp.workdps(refs.DPS):
            ref = refs.mp.mpf(text)
            err = abs(ref - res.total)
            kind, note = against(ref, res.total, tol)
        within = kind == "correct"
        routes[res.route] += 1
        if not res.converged:
            kind = "flagged"
            flagged_within[res.route] += within
        wrong[res.route] += kind == "silently wrong"
        if err > res.tail_estimate:
            outside[res.route] += 1
            if res.route != "series":
                tails.append(f"outside tail  {head}  |total - ref| "
                             f"{float(err):.3g} > tail "
                             f"{res.tail_estimate:.3g}  route {res.route}")
        return kind, f"{note}  route {res.route}"

    for head, spec, thunk in cases:
        if spec is not None:
            tally(kinds, lines, "", head, thunk,
                  lambda got: judge(got, head, spec), error_types)
            lines += tails
            tails.clear()
    print_counts("", kinds, ("",), (
        "correct", "flagged", "rejected", "silently wrong", "raised raw",
        "no reference"))
    for label, counts in (("computed by route", routes),
                          ("silently wrong by route", wrong),
                          ("flagged though within tol", flagged_within)):
        print(f"{label}: " + ", ".join(f"{r} {counts[r]}"
                                       for r in sorted(routes)))
    print("outside tail_estimate: " + ", ".join(
        f"{r} {outside[r]} of {routes[r]}" for r in sorted(routes)))
    for line in lines:
        print(line)


def beta_transform(mp, fn, n, nu, omega):
    """int_0^inf x^-nu p(x) (omega+x)^-n dx of the polynomial ``fn``, each
    term c x^k from the Beta integral with s = k + 1 - nu."""
    w = mp.mpf(omega)
    total = mp.mpf(0)
    for k, c in fn.poly.items():
        s = k + 1 - mp.mpf(nu)
        if not 0 < s < n:
            raise ValueError(f"x^{k} x^-nu (omega+x)^-{n} is not integrable")
        total += c * w ** (s - n) * mp.beta(s, n - s)
    return fn.c * total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src/ is scanned")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench"),
                    HERE]
    import bitdump
    import child
    import refs
    import finitepart.asymptotic as asy
    import finitepart.entire as entire
    import finitepart.finite_part as fp
    import finitepart.stieltjes as st
    from finitepart.errors import FinitePartError

    cache = {}
    if os.path.exists(CACHE):
        with open(CACHE) as fh:
            cache = json.load(fh)
    transform_census(bitdump.grid_cases(child, entire, st), refs, cache,
                     (FinitePartError, ValueError), st, bitdump.TOL)

    def high_nu_cases():
        for text in bitdump.FUNCTIONS:
            yield from bitdump.function_transforms(
                st, child.make_function, text, HIGH_NUS)
        for text, make_f in bitdump.streams(child, entire):
            yield from bitdump.stream_transforms(st, make_f, text, HIGH_NUS)

    print(f"transforms at nu in {HIGH_NUS}:")
    transform_census(high_nu_cases(), refs, cache,
                     (FinitePartError, ValueError), st, bitdump.TOL)
    split_rung_census(child, fp, refs.mp, cache)
    diffusivity_census(entire, st, refs, cache, bitdump.TOL,
                       (FinitePartError, ValueError))
    specfun_census(child, refs, cache, bitdump.TOL,
                   (FinitePartError, ValueError))
    classify_census(asy, entire, refs.mp, bitdump.TOL,
                    (FinitePartError, ValueError))
    os.makedirs(os.path.dirname(CACHE), exist_ok=True)
    with open(CACHE, "w") as fh:
        json.dump(cache, fh, indent=0, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
