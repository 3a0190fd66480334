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

with tol the grid's 1e-12.  Per route, the values whose total lies
outside their own tail_estimate are counted too, and the flagged ones
whose total is within tol |ref|.  The counts are printed, then one line
per silently wrong, raw or under-covered value of an integrated route.

A polynomial's transform at a = inf is summed term by term from the Beta
integral int_0^inf x^(s-1) (omega+x)^-n dx = omega^(s-n) B(s, n-s),
where the quadrature of ``bench/refs.py`` cannot settle the slow x^(s-n-1)
tail.  References are cached as text in ``.faultscan/refs.json`` at the
root of this checkout (git-ignored), keyed by function, n, nu, a and
omega; a reference that mpmath cannot settle is reported, not used, and
tried again on the next run.

Then the four ``specfun`` families are classified the same way, over a
fixed grid with n <= 40, zeta in (1, 1e4] and omega in (0, 100], plus
SPECFUN_LARGE_N, against ``bench/refs.py``'s ``hyp2f1`` and ``hyperu``.
Their values carry no flag, so each is correct, silently wrong, rejected,
raised raw, or has no reference: mpmath's ``hyperu`` need not settle, so a
30-digit reference is used only where it agrees with the 40-digit one to
20 digits, and one that raises is none.  The counts are printed per family
and in all, then one line per silently wrong, raw or unreferenced value.

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

CLASSIFY_NS = (*range(1, 41), 60, 80, 100, 120, 150, 170, 200, 300)
CLASSIFY_NUS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9)


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
    lines = []
    for op in specfun_ops():
        fam = op["family"]
        head = " ".join(f"{k}={v}" for k, v in op.items())
        try:
            got = child._specfun_call(op)()
        except error_types:
            kinds[fam, "rejected"] += 1
            continue
        except Exception as exc:
            kinds[fam, "raised raw"] += 1
            lines.append(f"raised raw  {head}  {type(exc).__name__}: {exc}")
            continue
        text = specfun_reference(refs, cache, op)
        if text.startswith("no reference"):
            kinds[fam, "no reference"] += 1
            lines.append(f"no reference  {head}  {text}")
            continue
        with refs.mp.workdps(refs.DPS):
            ref = refs.mp.mpf(text)
            rel = float(abs(ref - got) / abs(ref)) if ref else abs(got)
        if rel <= tol:
            kinds[fam, "correct"] += 1
        else:
            kinds[fam, "silently wrong"] += 1
            lines.append(f"silently wrong  {head}  rel err {rel:.2g}")
    order = ("correct", "silently wrong", "rejected", "raised raw",
             "no reference")
    fams = ("gauss-int", "gauss-branch", "kummer-int", "kummer-frac")
    for fam in fams + ("specfun",):
        sel = fams if fam == "specfun" else (fam,)
        print(f"{fam}: " + " ".join(
            f"{k}: {sum(kinds[f, k] for f in sel)}" for k in order))
    for line in lines:
        print(line)


def classify_census(asy, entire, mp, tol, error_types):
    """Print the census of classify's power and branch coefficients;
    ``error_types`` are the rejections."""
    kinds = Counter()
    lines = []
    for n in CLASSIFY_NS:
        for m in sorted({0, 1, 2, 3, 5, n // 2, n - 2, n - 1}):
            for nu in CLASSIFY_NUS:
                if not 0 <= m <= n - 1 or nu == 0.0 and m == n - 1:
                    continue  # naive or log rows
                row = "branch" if nu else "power"
                head = f"classify n={n} m={m} nu={nu}"
                try:
                    lb = asy.classify(entire.MonomialExp(m, 1.0), n, nu)
                except error_types:
                    kinds[row, "rejected"] += 1
                    continue
                except Exception as exc:
                    kinds[row, "raised raw"] += 1
                    lines.append(f"raised raw  {head}  "
                                 f"{type(exc).__name__}: {exc}")
                    continue
                with mp.workdps(30):
                    ref = mp.beta(m + 1 - mp.mpf(nu), n - m - 1 + mp.mpf(nu))
                    rel = float(abs(lb.coefficient - ref) / ref)
                want = (asy.LeadingKind.BRANCH_POWER_DOMINANT if nu
                        else asy.LeadingKind.POWER_DOMINANT)
                if (rel <= tol and lb.kind is want
                        and lb.exponent == m - n + 1 - nu):
                    kinds[row, "correct"] += 1
                else:
                    kinds[row, "silently wrong"] += 1
                    lines.append(f"silently wrong  {head}  rel err {rel:.2g}"
                                 f"  {lb.kind.value} {lb.exponent!r}")
    order = ("correct", "silently wrong", "rejected", "raised raw")
    for row in ("power", "branch"):
        print(f"classify {row}: " + " ".join(
            f"{k}: {kinds[row, k]}" for k in order))
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


def classify(res, ref, tol):
    """The class of a result against its reference, its total's error,
    whether that is within tol |ref| and whether it is within the result's
    tail_estimate; ``ref`` an mpf, compared at its own precision."""
    err = abs(ref - res.total)
    within = err <= tol * abs(ref)
    if not res.converged:
        kind = "flagged"
    else:
        kind = "correct" if within else "silently wrong"
    return kind, err, within, err <= res.tail_estimate


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
    import finitepart.stieltjes as st
    from finitepart.errors import FinitePartError

    cache = {}
    if os.path.exists(CACHE):
        with open(CACHE) as fh:
            cache = json.load(fh)
    kinds = Counter()
    routes = Counter()
    outside = Counter()
    flagged_within = Counter()
    lines = []
    for head, spec, thunk in bitdump.grid_cases(child, entire, st):
        if spec is None:
            continue
        try:
            got = thunk()
        except (FinitePartError, ValueError):
            kinds["rejected"] += 1
            continue
        except Exception as exc:
            kinds["raised raw"] += 1
            lines.append(f"raised raw  {head}  {type(exc).__name__}: {exc}")
            continue
        res = st.ExpansionResult(*got)
        text = reference(refs, cache, spec)
        if text.startswith("no reference"):
            kinds["no reference"] += 1
            lines.append(f"no reference  {head}  {text}")
            continue
        with refs.mp.workdps(refs.DPS):
            ref = refs.mp.mpf(text)
            kind, err, within, covered = classify(res, ref, bitdump.TOL)
            rel = float(err / abs(ref)) if ref else float(err)
        kinds[kind] += 1
        routes[res.route] += 1
        if kind == "flagged" and within:
            flagged_within[res.route] += 1
        if not covered:
            outside[res.route] += 1
        if kind == "silently wrong":
            lines.append(f"silently wrong  {head}  rel err {rel:.2g}  "
                         f"route {res.route}")
        if not covered and res.route != "series":
            lines.append(f"outside tail  {head}  |total - ref| "
                         f"{float(err):.3g} > tail "
                         f"{res.tail_estimate:.3g}  route {res.route}")
    order = ("correct", "flagged", "rejected", "silently wrong",
             "raised raw", "no reference")
    print(" ".join(f"{k}: {kinds[k]}" for k in order))
    print("outside tail_estimate: " + ", ".join(
        f"{r} {outside[r]} of {routes[r]}" for r in sorted(routes)))
    print("flagged though within tol: " + ", ".join(
        f"{r} {flagged_within[r]}" for r in sorted(routes)))
    for line in lines:
        print(line)
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
