"""Print one ``repr`` line per computed value, for a bit-for-bit diff.

    python3 tools/bitdump.py > change.txt
    python3 tools/bitdump.py --root ../parent > parent.txt
    diff parent.txt change.txt

Run with any Python that has the package's dependencies; the package is
imported from ``<root>/src`` and the benchmark's round from
``<root>/bench``, where ``root`` defaults to the checkout this script sits
in.  Three parts are printed:

  round   every warm-up output of the three benchmark workloads for the
          seeds given, through ``bench/child.py``'s ``Round``
  grid    finite parts of a fixed set of descriptors over m, nu and a,
          each (nu, a) on a fresh descriptor in ascending, descending and
          shuffled m, and per descriptor kind one ``pickle`` line: the
          descriptors of the last nu at the largest finite a and at
          a = inf, each copied through pickle, and rung M_TOP + 1 of the
          copy, so that state that cannot be pickled shows; then
          transforms, quadratic-kernel values and effective diffusivities,
          the user streams' (gauss(c) and ``expstream``) transforms and
          quadratic-kernel values at a = inf at STREAM_OMEGAS, and the
          transforms of REFUSED, whose pole term swamps the value, so that
          they come back flagged on the direct route; then the 2F1
          integer family at GAUSS_INT_WINDOWS and GAUSS_INT_ZETAS, either
          side of zeta = 2, where it turns from its Euler integral to its
          series; last, one ``repr`` line per public record (FpiValue,
          TransformSpec, ExpansionResult and LeadingBehavior), so that a
          change to a record's text shows
  cli     in-process ``finitepart.cli.main`` calls with ``COLUMNS=80``:
          the argv corpus of ``tests/cli_corpus.py`` (of this checkout, so
          both dumps run the same calls, read from the option tables or
          by argparse), each in a fresh working directory, then its
          save-then-``--replay`` scripts; one line per call with the exit
          code, stdout, stderr and the text of every file in the working
          directory

A transform or quadratic-kernel result prints as the tuple (naive_sum,
singular, total, k_used, tail_estimate, converged, route, direct),
``route`` read as "series" and ``direct`` as None from a result without
them, so dumps of checkouts with and without those fields line up.  A
raised error prints as its type and message, so a changed error path
shows as well.  Two dumps differ exactly where a value, a method, a
count, a bound, a route, ``direct`` or an error differs.
"""

import argparse
import cmath
import contextlib
import io
import math
import os
import pickle
import random
import sys
import tempfile
from functools import partial

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("series_sweep", "closed_form_mix", "cli_verify")

# descriptor texts: the CLI's mini-language, or gauss(c) for the
# benchmark's user stream exp(-c x^2)
FUNCTIONS = ("exp(1)", "exp(2.5)", "monexp(2,0.8)", "-0.5*exp(2.5)",
             "poly(1:0.5:-0.3)", "poly(-2@3)", "poly(0.7:0:-1.2@1)",
             "binpoly(1,2)", "binpoly(2,1)", "2*binpoly(1,3)", "gauss(1)",
             "gauss(0.7)")
M_TOP = 40
NUS = (0.0, 0.25, 0.5)
AS = (0.5, 1.0, 2.0, 4.0, 30.0, math.inf)
OMEGA_SHARES = (1e-3, 0.05, 0.3, 0.7, 0.95)
TOL = 1e-12  # of every transform and quadratic-kernel value
TRANSFORM_AS = (0.5, 1.0, 2.0, 30.0, math.inf)
# omega of the user streams at a = inf, around and far past the split point
STREAM_OMEGAS = (0.6, 0.9, 1.2, 3.0, 10.0, 20.0, 30.0)
# n = 1 transforms (stream, a, omega) whose pole term swamps the value:
# the identity (direct - singular) + singular == total alone rounds by
# more than tol |direct|, so the integral is kept and flagged
REFUSED = (("expstream", 30.0, 25.0), ("xexp", math.inf, 6.0),
           ("xexp", math.inf, 8.0), ("xexp", math.inf, 12.0))
# 2F1(n, r; s; -zeta): the benchmark's windows (n, r, s), one near
# zeta = 1 and one whose factorials leave float range
GAUSS_INT_WINDOWS = ((4, 1, 3), (6, 2, 5), (8, 2, 6), (10, 3, 8),
                     (40, 1, 40), (300, 1, 200))
GAUSS_INT_ZETAS = (1.5, math.nextafter(2.0, 1.0), 2.0, 2.5)


def make_stream(entire, name):
    """e^{-x} (``expstream``) or x e^{-x} (``xexp``) as a user stream
    with exact eval callbacks, as ``gauss(c)`` is."""
    if name == "expstream":
        return entire.CustomSeries(
            lambda k: (-1) ** k / math.factorial(k), lambda x: math.exp(-x),
            lambda z: cmath.exp(-z), decaying=True, label=name)
    return entire.CustomSeries(
        lambda k: k and (-1) ** (k - 1) / math.factorial(k - 1),
        lambda x: x * math.exp(-x), lambda z: z * cmath.exp(-z),
        decaying=True, label=name)


def parse_seeds(text):
    """'1-10' or '1,3,5' (or a mix) as a list of ints; '' as none."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def call(fn, *args, **kwargs):
    try:
        return repr(fn(*args, **kwargs))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def fields(res):
    """A transform result as a plain tuple of its fields."""
    return (res.naive_sum, res.singular, res.total, res.k_used,
            res.tail_estimate, res.converged, getattr(res, "route", "series"),
            getattr(res, "direct", None))


def pickled_rung(fp, f, m, nu, a):
    """(a copy of f through pickle, its rung m at (nu, a))."""
    copy = pickle.loads(pickle.dumps(f))
    return copy, fp.finite_part_integral(copy, m, nu, a)


def dump_rounds(child, workloads, seeds, out):
    with tempfile.TemporaryDirectory() as tmp:
        for wl in WORKLOADS:
            for seed in seeds:
                rnd = child.Round(workloads.build(wl, seed), tmp)
                outs = []
                rnd.run([], outs)
                for i, o in enumerate(outs):
                    out(f"round {wl} {seed} {i} {o!r}")


def dump_grid(child, entire, fp, st, asy, out):
    make = child.make_function
    rng = random.Random(0)
    ms = list(range(1, M_TOP + 1))
    orders = {"up": ms, "down": ms[::-1],
              "mixed": rng.sample(ms, len(ms))}
    for text in FUNCTIONS:
        last = {}
        for nu in NUS:
            for a in AS:
                for name, order in orders.items():
                    f = last[a] = make(text)
                    for m in order:
                        out(f"fpi {text} {nu!r} {a!r} {name} {m} "
                            + call(fp.finite_part_integral, f, m, nu, a))
        out(f"pickle {text} " + " ; ".join(
            call(pickled_rung, fp, last[a], M_TOP + 1, NUS[-1], a)
            for a in AS[-2:]))

    for line, _, thunk in grid_cases(child, entire, st):
        out(f"{line} {call(thunk)}")

    for n, r, s in GAUSS_INT_WINDOWS:
        for z in GAUSS_INT_ZETAS:
            op = {"family": "gauss-int", "n": n, "r": r, "s": s, "zeta": z}
            out(f"specfun gauss-int {n} {r} {s} {z!r} "
                + call(child._specfun_call(op)))

    f = make("monexp(1,0.8)")
    spec = st.TransformSpec(f, 2, 1.5, 2.0, 0.25)
    for thunk in (partial(fp.finite_part_integral, f, 3, 0.25, 2.0),
                  lambda: spec, partial(st.evaluate_transform, spec, tol=TOL),
                  partial(asy.classify, f, 2, 0.25, 2.0)):
        out(f"record {call(thunk)}")


def grid_cases(child, entire, st):
    """(line head, reference, thunk) of the grid's transforms, quadratic-
    kernel values, effective diffusivities and REFUSED transforms, in dump
    order: ``thunk()`` computes the value, on the descriptor the grid
    shares, so call each before the next is drawn.  ``reference`` is
    (function text, n, nu, a, omega), n = 0 for the quadratic kernel, or
    None for a diffusivity; ``expstream`` and a REFUSED text are
    ``make_stream`` names."""
    make = child.make_function

    def transform(f, n, w, a, nu):
        return fields(st.evaluate_transform(st.TransformSpec(f, n, w, a, nu),
                                            tol=TOL))

    def quadratic(f, w, a):
        return fields(st.eval_quadratic(f, w, a, tol=TOL))

    for text in FUNCTIONS:
        for nu in NUS:
            for a in TRANSFORM_AS:
                top = 1.5 if math.isinf(a) else a
                f = make(text)
                for n in (1, 2, 3):
                    for share in OMEGA_SHARES:
                        w = share * top
                        yield (f"transform {text} {nu!r} {a!r} {n} {w!r}",
                               (text, n, nu, a, w),
                               partial(transform, f, n, w, a, nu))
        for a in TRANSFORM_AS:
            top = 1.5 if math.isinf(a) else a
            f = make(text)
            for share in OMEGA_SHARES:
                w = share * top
                yield (f"quadratic {text} {a!r} {w!r}", (text, 0, 0.0, a, w),
                       partial(quadratic, f, w, a))
    streams = [(text, partial(make, text)) for text in FUNCTIONS
               if text.startswith("gauss(")]
    streams.append(("expstream", partial(make_stream, entire, "expstream")))
    for text, make_f in streams:
        for nu in NUS:
            f = make_f()
            for n in (1, 2, 3):
                for w in STREAM_OMEGAS:
                    yield (f"transform {text} {nu!r} inf {n} {w!r}",
                           (text, n, nu, math.inf, w),
                           partial(transform, f, n, w, math.inf, nu))
        f = make_f()
        for w in STREAM_OMEGAS:
            yield (f"quadratic {text} inf {w!r}", (text, 0, 0.0, math.inf, w),
                   partial(quadratic, f, w, math.inf))
    for pe in (0.5, 2.0, 30.0, 1e3):
        gp, gm = make("0.5*exp(1.3)"), make("monexp(1,0.9)")
        yield (f"diffusivity {pe!r}", None,
               partial(st.effective_diffusivity, gp, gm, pe, 1.0, tol=TOL))
    for name, a, w in REFUSED:
        yield (f"transform {name} 0.0 {a!r} 1 {w!r}", (name, 1, 0.0, a, w),
               partial(transform, make_stream(entire, name), 1, w, a, 0.0))


def run_cli(main, argv):
    """(exit code, stdout, stderr) of one in-process ``main(argv)``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a rejected argv or help
            code = exc.code
        except Exception as exc:  # a traceback and exit 1 from the shell
            code = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def dump_cli(cli, scripts, out):
    os.environ["COLUMNS"] = "80"
    home = os.getcwd()
    for script in scripts:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for argv in script:
                    code, stdout, stderr = run_cli(cli.main, argv)
                    files = {}
                    for name in sorted(os.listdir(tmp)):
                        with open(name) as fh:
                            files[name] = fh.read()
                    out(f"cli {argv!r} {code!r} {stdout!r} {stderr!r} "
                        f"{files!r}")
            finally:
                os.chdir(home)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src/ and bench/ are dumped")
    ap.add_argument("--seeds", default="1-10",
                    help="benchmark seeds, e.g. 1-10 or 1,4; '' for none")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench"),
                    os.path.join(os.path.dirname(HERE), "tests")]
    import child
    import cli_corpus
    import workloads
    import finitepart.asymptotic as asy
    import finitepart.cli as cli
    import finitepart.entire as entire
    import finitepart.finite_part as fp
    import finitepart.stieltjes as st

    write = sys.stdout.write

    def out(line):
        write(line + "\n")

    dump_rounds(child, workloads, parse_seeds(args.seeds), out)
    dump_grid(child, entire, fp, st, asy, out)
    dump_cli(cli, cli_corpus.SCRIPTS, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
