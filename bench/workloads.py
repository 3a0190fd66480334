"""Seeded inputs of the three benchmark workloads.

A workload is one *round*: a list of groups, each group a list of ops.  An
op is one public call into finitepart (one transform value, one
effective_diffusivity, classify or special-function value, or one
in-process ``finitepart.cli.main`` call).  A run repeats whole rounds, so
every run attempts the same ops in the same proportions.

The structure of a round (group kinds, orders, grid sizes) is fixed; the
seed sets the function parameters, the ``a`` values, the omega-grid
offsets and the group order.  Each seeded value is drawn inside a fixed
stratum of its range (the k-th of n values lies in the k-th n-th of it),
so the cost of a round and the slowest ops in it barely move between
seeds, while no two seeds share inputs.

Every sweep integrates a positive f, so its values must be positive and
decrease in omega.

Groups marked ``fault`` hold the known-fault inputs.  They do not depend
on the seed, so the ops that fail are the same in every run.

This module is plain data: it imports neither finitepart nor mpmath, so
the timed child, the reference builder and the checker all share it.
"""

import math
import random

WORKLOADS = ("series_sweep", "closed_form_mix", "cli_verify")
DEFAULT_SEED = 1
TOL = 1e-12

# op_ms_tail: of p90, p99 and p99.9, the highest percentile with at least
# ten samples beyond it at the op count of a 15 s run (see README.md)
TAIL_PERCENTILE = {"series_sweep": 99.9, "closed_form_mix": 99.9,
                   "cli_verify": 99.0}

# Seeded finite-a sweeps end at omega = SEEDED_TOP * a.  Beyond it the
# naive series loses accuracy (see the fixed near-a sweeps), and where
# that loss crosses the check tolerance depends on the seeded parameters.
SEEDED_TOP = 0.5


def _strat(rng, lo, hi, count, jitter=0.3, log=True):
    """count values spread over [lo, hi]: one per stratum, jittered inside."""
    out = []
    for i in range(count):
        t = (i + jitter * rng.random()) / count
        if log:
            out.append(lo * (hi / lo) ** t)
        else:
            out.append(lo + (hi - lo) * t)
    return out


def _r(x, digits=4):
    """Round a seeded parameter so that it prints and parses exactly."""
    return float(f"{x:.{digits}g}")


def omega_grid(rng, hi, count, decades):
    """Geometric grid ending exactly at hi, with a seeded lower offset of
    up to 0.3 of a grid step."""
    u = 0.3 * rng.random()
    return [hi * 10.0 ** (-decades * (1.0 - (i + u) / (count - 1 + u)))
            for i in range(count)]


def _fmt_a(a):
    return "inf" if math.isinf(a) else repr(a)


# ---------------------------------------------------------------------------
# series_sweep
# ---------------------------------------------------------------------------

def _series_sweep(rng):
    groups = []
    bs = _strat(rng, 0.6, 1.2, 6)
    avals = _strat(rng, 0.6, 2.0, 10)
    pts = 16

    def sweep(f, n, nu, a, kernel="stieltjes", hi=None):
        a = _r(a)
        top = SEEDED_TOP * a if hi is None else hi
        groups.append({
            "kind": "sweep", "kernel": kernel, "f": f, "n": n, "nu": nu,
            "a": a, "omegas": omega_grid(rng, top, pts, 3.0),
            "fault": False,
        })

    b = [_r(x, 3) for x in bs]
    p = [_r(x, 3) for x in _strat(rng, 0.4, 2.5, 3)]
    # integer order
    sweep(f"exp({b[0]})", 1, 0.0, avals[0])
    sweep(f"exp({b[1]})", 2, 0.0, avals[1])
    sweep(f"{p[0]}*exp({b[2]})", 3, 0.0, avals[2])
    sweep(f"monexp(1,{b[3]})", 3, 0.0, avals[3])
    sweep(f"poly({p[0]}:{p[1]}:{p[2]})", 2, 0.0, avals[4])
    sweep("binpoly(1,2)", 2, 0.0, min(avals[5], 1.0))
    # branch order
    sweep(f"{p[1]}*exp({b[4]})", 1, 0.5, avals[6])
    sweep(f"monexp(1,{b[5]})", 2, 0.25, avals[7])
    # quadratic kernel
    sweep(f"exp({b[0]})", 0, 0.0, avals[8], kernel="quadratic")
    sweep(f"poly({p[2]}:0:{p[0]})", 0, 0.0, avals[9], kernel="quadratic")
    # user streams: exp(-c x^2) with exact eval callbacks
    c = [_r(x, 3) for x in _strat(rng, 0.7, 1.5, 3)]
    sweep(f"gauss({c[0]})", 1, 0.0, avals[2])
    sweep(f"gauss({c[1]})", 1, 0.0, math.inf, hi=_r(_strat(rng, 0.8, 1.2, 1)[0]))
    sweep(f"gauss({c[2]})", 2, 0.5, math.inf, hi=_r(_strat(rng, 0.8, 1.2, 1)[0]))

    # known faults: cancellation as omega -> a and at large a; overflow at 60
    near = [0.6, 0.7, 0.8, 0.9]
    faults = [
        ("exp(1)", 1, 0.0, 30.0, [0.3, 3.0, 10.0, 20.0, 25.0, 27.0]),
        ("exp(1)", 1, 0.0, 40.0, [0.4, 4.0, 20.0, 36.0]),
        ("exp(1)", 1, 0.0, 60.0, [0.6, 6.0, 30.0, 54.0]),
        ("monexp(2,1)", 3, 0.0, 10.0, [9.0]),
        ("exp(1)", 2, 0.0, 2.0, [2 * r for r in near]),
        ("monexp(2,1)", 2, 0.25, 2.0, [2 * r for r in near]),
        ("binpoly(1,2)", 2, 0.0, 1.0, near),
        ("gauss(1)", 1, 0.0, 2.0, [2 * r for r in near]),
    ]
    for f, n, nu, a, oms in faults:
        groups.append({"kind": "sweep", "kernel": "stieltjes", "f": f,
                       "n": n, "nu": nu, "a": a, "omegas": oms,
                       "fault": True})
    groups.append({"kind": "sweep", "kernel": "quadratic", "f": "exp(1)",
                   "n": 0, "nu": 0.0, "a": 2.0, "omegas": [2 * r for r in near],
                   "fault": True})
    rng.shuffle(groups)
    return groups


# ---------------------------------------------------------------------------
# closed_form_mix
# ---------------------------------------------------------------------------

def _closed_form_mix(rng):
    groups = []
    inf = math.inf
    b = [_r(x, 3) for x in _strat(rng, 0.5, 2.0, 6)]
    tops = [_r(x, 3) for x in _strat(rng, 1.0, 2.0, 8)]
    pts = 12

    def sweep(f, n, nu, top, kernel="stieltjes"):
        groups.append({
            "kind": "sweep", "kernel": kernel, "f": f, "n": n, "nu": nu,
            "a": inf, "omegas": omega_grid(rng, top, pts, 4.0),
            "fault": False,
        })

    sweep(f"exp({b[0]})", 1, 0.0, tops[0])
    sweep(f"exp({b[1]})", 2, 0.0, tops[1])
    sweep(f"2*monexp(1,{b[2]})", 3, 0.0, tops[2])
    sweep(f"exp({b[3]})", 1, 0.3, tops[3])
    sweep(f"monexp(2,{b[4]})", 2, 0.6, tops[4])
    sweep("poly(1:0.5)", 3, 0.0, tops[5])
    sweep(f"exp({b[5]})", 0, 0.0, tops[6], kernel="quadratic")
    sweep(f"monexp(1,{b[0]})", 0, 0.0, tops[7], kernel="quadratic")

    # effective diffusivity over Peclet numbers
    for pe in _strat(rng, 2.0, 1e4, 8):
        groups.append({"kind": "diffusivity", "fault": False, "ops": [{
            "g_plus": f"{_r(0.5 + rng.random(), 3)}*exp({b[1]})",
            "g_minus": f"monexp(1,{b[2]})", "pe": _r(pe), "kappa": 1.0}]})

    # dominant-term classification: every kind
    binpoly_a = _r(0.5 + 0.4 * rng.random())
    ops = [{"f": f, "n": n, "nu": nu, "a": a} for f, n, nu, a in [
        (f"exp({b[0]})", 1, 0.0, inf), (f"exp({b[1]})", 3, 0.0, inf),
        (f"monexp(1,{b[2]})", 3, 0.0, inf), (f"monexp(2,{b[3]})", 2, 0.0, inf),
        (f"exp({b[4]})", 2, 0.5, inf), (f"monexp(2,{b[5]})", 1, 0.5, inf),
        ("poly(1:1)", 4, 0.0, inf), ("binpoly(2,1)", 2, 0.0, binpoly_a)]]
    groups.append({"kind": "classify", "fault": False, "ops": ops})

    # special functions: all four families
    zetas = _strat(rng, 1.5, 30.0, 8, jitter=0.05)
    nrs = [(4, 1, 3), (6, 2, 5), (8, 2, 6), (10, 3, 8)]
    ops = [{"family": "gauss-int", "n": n, "r": r, "s": s, "zeta": _r(z)}
           for (n, r, s), z in zip(nrs + nrs, zetas)]
    groups.append({"kind": "specfun", "fault": False, "ops": ops})
    zetas = _strat(rng, 1.5, 30.0, 8, jitter=0.05)
    mus = _strat(rng, 0.15, 0.85, 8, log=False)
    ops = [{"family": "gauss-branch", "n": 1 + i % 4, "s": 1 + i % 3,
            "mu": _r(mu), "zeta": _r(z)}
           for i, (mu, z) in enumerate(zip(mus, zetas))]
    groups.append({"kind": "specfun", "fault": False, "ops": ops})
    oms = _strat(rng, 0.02, 3.0, 8)
    sn = [(1, 1), (2, 4), (3, 3), (2, 5), (4, 2), (3, 1), (5, 3), (1, 3)]
    ops = [{"family": "kummer-int", "s": s, "n": n, "omega": _r(w)}
           for (s, n), w in zip(sn, oms)]
    groups.append({"kind": "specfun", "fault": False, "ops": ops})
    oms = _strat(rng, 0.02, 3.0, 8)
    avs = _strat(rng, 0.1, 0.9, 8, log=False)
    ops = [{"family": "kummer-frac", "afrac": _r(av), "n": 1 + i % 4,
            "omega": _r(w)} for i, (av, w) in enumerate(zip(avs, oms))]
    groups.append({"kind": "specfun", "fault": False, "ops": ops})

    # known faults: large omega at a = inf, integer and quadratic kernels
    groups.append({"kind": "sweep", "kernel": "stieltjes", "f": "exp(1)",
                   "n": 2, "nu": 0.0, "a": inf,
                   "omegas": [5.0, 10.0, 20.0, 30.0, 40.0],
                   "fault": True})
    groups.append({"kind": "sweep", "kernel": "quadratic", "f": "exp(1)",
                   "n": 0, "nu": 0.0, "a": inf,
                   "omegas": [5.0, 10.0, 20.0, 30.0],
                   "fault": True})
    rng.shuffle(groups)
    return groups


# ---------------------------------------------------------------------------
# cli_verify
# ---------------------------------------------------------------------------

def _cli_verify(rng):
    """Each op is an argv list; ``{out}`` is replaced by the op's file."""
    b = [_r(x, 3) for x in _strat(rng, 0.5, 2.0, 8)]
    a = [_r(x, 3) for x in _strat(rng, 0.5, 3.0, 8)]
    om = [_r(x, 3) for x in _strat(rng, 0.01, 0.4, 8)]
    z = [_r(x, 3) for x in _strat(rng, 2.0, 20.0, 4)]
    tol = ["--tol", repr(TOL)]

    def op(argv, fmt, **check):
        return {"argv": argv + ["--format", fmt, "--output", "{out}"] + tol,
                "fmt": fmt, **check}

    ops = [
        op(["fpi", "--f", f"exp({b[0]})", "--m", "1", "--a", "inf"], "json",
           check="fpi", f=f"exp({b[0]})", m=1, nu=0.0, a=math.inf),
        op(["fpi", "--f", f"monexp(1,{b[1]})", "--m", "3", "--nu", "0.5",
            "--a", repr(a[0])], "csv",
           check="fpi", f=f"monexp(1,{b[1]})", m=3, nu=0.5, a=a[0]),
        op(["fpi", "--f", f"poly(1:{b[2]}:0.5)", "--m", "2", "--a",
            repr(a[1])], "json",
           check="fpi", f=f"poly(1:{b[2]}:0.5)", m=2, nu=0.0, a=a[1]),
        op(["fpi", "--f", "binpoly(1,3)", "--m", "3", "--a", repr(a[2])],
           "csv", check="fpi", f="binpoly(1,3)", m=3, nu=0.0, a=a[2]),
        op(["stieltjes", "--f", f"exp({b[3]})", "--n", "2", "--omega",
            repr(om[0]), "--a", repr(a[3])], "csv",
           check="transform", kernel="stieltjes", f=f"exp({b[3]})", n=2,
           nu=0.0, omega=om[0], a=a[3]),
        op(["stieltjes", "--f", f"monexp(1,{b[4]})", "--n", "2", "--nu",
            "0.5", "--omega", repr(om[1])], "json",
           check="transform", kernel="stieltjes", f=f"monexp(1,{b[4]})",
           n=2, nu=0.5, omega=om[1], a=math.inf),
        op(["quadratic", "--f", f"exp({b[5]})", "--omega", repr(om[2])],
           "json", check="transform", kernel="quadratic", f=f"exp({b[5]})",
           n=0, nu=0.0, omega=om[2], a=math.inf),
        op(["quadratic", "--g-plus", f"0.5*exp({b[6]})", "--g-minus",
            f"0.5*exp({b[7]})", "--pe", repr(_r(1.0 / om[3]))], "csv",
           check="diffusivity", g_plus=f"0.5*exp({b[6]})",
           g_minus=f"0.5*exp({b[7]})", pe=_r(1.0 / om[3]), kappa=1.0),
        op(["specfun", "--family", "gauss-int", "--n", "6", "--r", "2",
            "--s", "5", "--zeta", repr(z[0])], "json",
           check="specfun", family="gauss-int", n=6, r=2, s=5, zeta=z[0]),
        op(["specfun", "--family", "gauss-branch", "--n", "3", "--mu",
            "0.4", "--s", "2", "--zeta", repr(z[1])], "csv",
           check="specfun", family="gauss-branch", n=3, mu=0.4, s=2,
           zeta=z[1]),
        op(["specfun", "--family", "kummer-int", "--n", "4", "--s", "2",
            "--omega", repr(om[4])], "json",
           check="specfun", family="kummer-int", n=4, s=2, omega=om[4]),
        op(["specfun", "--family", "kummer-frac", "--n", "2", "--afrac",
            "0.3", "--omega", repr(om[5])], "csv",
           check="specfun", family="kummer-frac", n=2, afrac=0.3,
           omega=om[5]),
        op(["asym", "--f", f"monexp(1,{b[0]})", "--n", "3", "--omega",
            repr(om[6])], "json",
           check="classify", f=f"monexp(1,{b[0]})", n=3, nu=0.0,
           a=math.inf, omega=om[6]),
        op(["asym", "--f", f"exp({b[1]})", "--n", "2", "--nu", "0.5",
            "--omega", repr(om[7])], "csv",
           check="classify", f=f"exp({b[1]})", n=2, nu=0.5, a=math.inf,
           omega=om[7]),
        op(["compare", "--op", "fpi", "--f", f"exp({b[2]})", "--m", "2",
            "--a", repr(a[4])], "json",
           check="fpi", f=f"exp({b[2]})", m=2, nu=0.0, a=a[4]),
        op(["compare", "--op", "fpi", "--f", f"monexp(1,{b[3]})", "--m",
            "3", "--a", "inf"], "csv",
           check="fpi", f=f"monexp(1,{b[3]})", m=3, nu=0.0, a=math.inf),
        op(["compare", "--op", "stieltjes", "--f", f"exp({b[4]})", "--n",
            "1", "--omega", repr(om[0]), "--a", repr(a[5])], "json",
           check="transform", kernel="stieltjes", f=f"exp({b[4]})", n=1,
           nu=0.0, omega=om[0], a=a[5]),
        op(["compare", "--op", "quadratic", "--f", f"monexp(1,{b[5]})",
            "--omega", repr(om[1])], "csv",
           check="transform", kernel="quadratic", f=f"monexp(1,{b[5]})",
           n=0, nu=0.0, omega=om[1], a=math.inf),
    ]
    for i, (f, n, nu, aa) in enumerate([
            (f"exp({b[6]})", 1, 0.0, a[6]),
            (f"monexp(1,{b[7]})", 2, 0.25, math.inf)]):
        lo, hi = _r(om[2 + i] / 20.0), _r(om[2 + i])
        argv = ["sweep", "--f", f, "--n", str(n), "--a", _fmt_a(aa),
                "--omega-grid", f"{lo!r}:{hi!r}:4", "--with-oracle"]
        if nu:
            argv += ["--nu", repr(nu)]
        ops.append(op(argv, "csv" if i else "json", check="sweep",
                      kernel="stieltjes", f=f, n=n, nu=nu, a=aa,
                      grid=[lo, hi, 4]))
    # a saved document and its replay, which must match byte for byte
    ops.append(op(["stieltjes", "--f", f"exp({b[7]})", "--n", "1",
                   "--omega", repr(om[3]), "--a", repr(a[7])], "json",
                  check="transform", kernel="stieltjes", f=f"exp({b[7]})",
                  n=1, nu=0.0, omega=om[3], a=a[7], save_as="doc"))
    ops.append({"argv": ["--replay", "{doc}", "--output", "{out}"],
                "fmt": "json", "check": "replay", "replay_of": "doc"})
    head, tail = ops[:-2], ops[-2:]
    rng.shuffle(head)
    ops = head + tail
    return [{"kind": "cli", "fault": False, "ops": [o]} for o in ops]


_BUILDERS = {"series_sweep": _series_sweep,
             "closed_form_mix": _closed_form_mix,
             "cli_verify": _cli_verify}


def build(workload, seed):
    """The round of ``workload`` for ``seed``, as plain data."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)


def flat_ops(groups):
    """(group, op) pairs in execution order; sweeps expand per omega."""
    out = []
    for g in groups:
        if g["kind"] == "sweep":
            for w in g["omegas"]:
                out.append((g, {"omega": w}))
        else:
            for o in g["ops"]:
                out.append((g, o))
    return out


def describe(workload, seed):
    """Make-up of one round: op kinds, shared queries, known-fault share."""
    groups = build(workload, seed)
    flat = flat_ops(groups)
    total = len(flat)
    kinds = {}
    for g, op in flat:
        if g["kind"] == "sweep":
            k = f"{g['kernel']} a={'inf' if math.isinf(g['a']) else 'finite'}"
        elif g["kind"] == "cli":
            k = "cli " + op["argv"][0].lstrip("-")
        elif g["kind"] == "specfun":
            k = "specfun " + op["family"]
        else:
            k = g["kind"]
        kinds[k] = kinds.get(k, 0) + 1
    # within a sweep every op after the first repeats (f, n, nu, a)
    repeated = sum(len(g["omegas"]) - 1 for g in groups if g["kind"] == "sweep")
    fault = sum(1 for g, _ in flat if g["fault"])
    lines = [f"{workload} seed {seed}: {total} ops per round"]
    lines += [f"  {k:28s} {v:4d}  {v / total:6.1%}"
              for k, v in sorted(kinds.items())]
    lines.append(f"  sharing (f, n, nu, a) with an earlier op of the sweep: "
                 f"{repeated / total:.1%}")
    lines.append(f"  in the known-fault ranges: {fault / total:.1%}")
    return "\n".join(lines)


if __name__ == "__main__":
    import argparse
    ap = argparse.ArgumentParser(description="print the make-up of a round")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seed = ap.parse_args().seed
    for w in WORKLOADS:
        print(describe(w, seed))
