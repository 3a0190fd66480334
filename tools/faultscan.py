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
    os.makedirs(os.path.dirname(CACHE), exist_ok=True)
    with open(CACHE, "w") as fh:
        json.dump(cache, fh, indent=0, sort_keys=True)
    order = ("correct", "flagged", "rejected", "silently wrong",
             "raised raw", "no reference")
    print(" ".join(f"{k}: {kinds[k]}" for k in order))
    print("outside tail_estimate: " + ", ".join(
        f"{r} {outside[r]} of {routes[r]}" for r in sorted(routes)))
    print("flagged though within tol: " + ", ".join(
        f"{r} {flagged_within[r]}" for r in sorted(routes)))
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
