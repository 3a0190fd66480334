"""One workload in one fresh, single-threaded interpreter.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  Modes:

  setup   import the package and build the round, report the set-up time
  run     untimed warm-up round, then whole rounds for --seconds, timing
          every op; no wrappers are installed
  trace   warm-up, an untraced phase, then TRACE_ROUNDS rounds with the
          tracer's wrappers installed; reports per-layer metrics

The last stdout line is a JSON object.  Outputs of the warm-up round are
returned for checking; every later round must reproduce them exactly, and
an op whose output differs in a round counts as failed in that round.
mpmath is not imported here, so it does not inflate the resident set.
"""

import argparse
import cmath
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction

import finitepart
import finitepart.asymptotic as asy
import finitepart.cli as cli
import finitepart.specfun as sf
import finitepart.stieltjes as st

import workloads

TOL = workloads.TOL
TRACE_ROUNDS = 2
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def make_function(text):
    """A freshly parsed descriptor, as the CLI builds one per run.

    ``gauss(c)`` is a user stream exp(-c x^2) with exact eval callbacks.
    """
    if text.startswith("gauss("):
        c = float(text[6:-1])

        def coeff(k):
            if k % 2:
                return 0.0
            j = k // 2
            return (-c) ** j / math.factorial(j)

        return finitepart.CustomSeries(
            coeff, lambda x: math.exp(-c * x * x),
            lambda z: cmath.exp(-c * z * z),
            decaying=True, label=text)
    return cli.parse_function(text)


def _specfun_call(op):
    fam = op["family"]
    if fam == "gauss-int":
        p = sf.Gauss2F1IntParams(op["n"], op["r"], op["s"], op["zeta"])
        return lambda: sf.gauss2f1_integer(p)
    if fam == "gauss-branch":
        p = sf.Gauss2F1BranchParams(op["n"], op["mu"], op["s"], op["zeta"])
        return lambda: sf.gauss2f1_branch(p)
    if fam == "kummer-int":
        p = sf.KummerParams(op["s"], op["n"], op["omega"])
    else:
        p = sf.KummerParams(op["afrac"], op["n"], op["omega"])
    return lambda: sf.kummer_u(p)


def _raised(exc):
    return {"st": "raised", "err": f"{type(exc).__name__}: {exc}"}


def _transform_out(res):
    return {"st": "ok", "naive": res.naive_sum, "singular": res.singular,
            "total": res.total, "k": res.k_used, "conv": res.converged}


class Round:
    """The prepared round: one closure per group, run in order."""

    def __init__(self, groups, tmpdir):
        self.groups = groups
        self.ops = sum(len(g["omegas"]) if g["kind"] == "sweep"
                       else len(g["ops"]) for g in groups)
        self.tmpdir = tmpdir
        self.paths = {}
        self.plans = [self._plan(g, i) for i, g in enumerate(groups)]

    def _plan(self, g, gi):
        kind = g["kind"]
        if kind == "specfun":
            return [_specfun_call(op) for op in g["ops"]]
        if kind == "cli":
            op = g["ops"][0]
            out = os.path.join(self.tmpdir, f"op{gi}.{op['fmt']}")
            if "save_as" in op:
                self.paths[op["save_as"]] = out
            argv = [a.replace("{out}", out) for a in op["argv"]]
            return (argv, out)
        return None

    def run(self, lat, outs):
        """Execute every op once; append latencies (ns) and outputs."""
        clock = time.perf_counter_ns
        for g, plan in zip(self.groups, self.plans):
            kind = g["kind"]
            if kind == "sweep":
                f = make_function(g["f"])
                n, nu, a = g["n"], g["nu"], g["a"]
                quadratic = g["kernel"] == "quadratic"
                for w in g["omegas"]:
                    t0 = clock()
                    try:
                        if quadratic:
                            res = st.eval_quadratic(f, w, a, tol=TOL)
                        else:
                            res = st.evaluate_transform(
                                st.TransformSpec(f, n, w, a, nu), tol=TOL)
                        out = _transform_out(res)
                    except Exception as exc:    # recorded and checked
                        out = _raised(exc)
                    lat.append(clock() - t0)
                    outs.append(out)
            elif kind == "diffusivity":
                for op in g["ops"]:
                    gp, gm = make_function(op["g_plus"]), make_function(op["g_minus"])
                    t0 = clock()
                    try:
                        out = {"st": "ok", "v": st.effective_diffusivity(
                            gp, gm, op["pe"], op["kappa"], tol=TOL)}
                    except Exception as exc:
                        out = _raised(exc)
                    lat.append(clock() - t0)
                    outs.append(out)
            elif kind == "classify":
                for op in g["ops"]:
                    f = make_function(op["f"])
                    t0 = clock()
                    try:
                        lb = asy.classify(f, op["n"], op["nu"], op["a"])
                        out = {"st": "ok", "kind": lb.kind.value,
                               "coef": lb.coefficient, "exp": lb.exponent,
                               "log": lb.carries_log}
                    except Exception as exc:
                        out = _raised(exc)
                    lat.append(clock() - t0)
                    outs.append(out)
            elif kind == "specfun":
                for call in plan:
                    t0 = clock()
                    try:
                        out = {"st": "ok", "v": call()}
                    except Exception as exc:
                        out = _raised(exc)
                    lat.append(clock() - t0)
                    outs.append(out)
            else:
                outs.append(self._run_cli(g["ops"][0], plan, lat))

    def _run_cli(self, op, plan, lat):
        argv, out_path = plan
        argv = [a.replace("{doc}", self.paths.get("doc", "")) for a in argv]
        if os.path.exists(out_path):
            os.remove(out_path)
        t0 = time.perf_counter_ns()
        try:
            code = cli.main(argv)
            res = {"st": "ok", "code": code}
        except SystemExit as exc:               # argparse rejects argv
            res = {"st": "raised", "err": f"SystemExit: {exc.code}"}
        except Exception as exc:
            res = _raised(exc)
        lat.append(time.perf_counter_ns() - t0)
        if res["st"] == "ok" and os.path.exists(out_path):
            with open(out_path) as fh:
                res["text"] = fh.read()
            if op["check"] == "replay":
                with open(self.paths[op["replay_of"]]) as fh:
                    res["same"] = fh.read() == res["text"]
        return res


def _percentile(sorted_vals, pct):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(pct / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


# On a machine whose cores other tenants share, the same round can take up
# to 1.5x as long for tens of seconds (seen on the reference machine).  A
# fixed pure-Python kernel, timed every CAL_EVERY seconds between rounds,
# measures that speed; each round's times are scaled by CAL_REF_S over the
# kernel's local time.  CAL_REF_S is the kernel's time on the reference
# machine (2-core x86-64 at 2.1 GHz, quiet).
CAL_REF_S = 2.5e-3
CAL_EVERY = 0.1


@dataclass(frozen=True)
class _Point:
    x: float
    k: int


class _Acc:
    def __init__(self):
        self.total = 0.0
        self.items = []

    def add(self, v):
        self.total += v
        if len(self.items) < 64:
            self.items.append(v)


def _cal_kernel():
    """What the series code does: small frozen dataclasses, method calls,
    float and math-module arithmetic, memo dict lookups, Fraction sums."""
    memo = {}
    acc = _Acc()
    for rep in range(20):
        t = 1.0
        for k in range(1, 100):
            p = _Point(k * 0.5, k)
            t = t * -0.7 / k
            key = (rep % 5, p.k)
            v = memo.get(key)
            if v is None:
                v = math.exp(-p.x * 0.01) / (k + 0.5)
                memo[key] = v
            acc.add(t * v + math.log(k + rep))
        acc.items.clear()
    s = Fraction(0)
    for j in range(1, 30):
        s += Fraction((-1) ** j, j * j + 1)
    return acc.total + float(s)


def calibrate():
    t0 = time.perf_counter()
    _cal_kernel()
    return time.perf_counter() - t0


def _timed_rounds(rnd, seconds, first, mismatch):
    """Whole rounds until ``seconds`` have passed.

    Returns one (wall seconds, op latencies in ns, speed factor) triple per
    round; the factor is CAL_REF_S over the median of the three kernel
    timings nearest the round."""
    rounds, cals = [], []
    t_end = time.perf_counter() + seconds
    t_cal = -math.inf
    while True:
        if time.perf_counter() - t_cal >= CAL_EVERY:
            cals.append(calibrate())
            t_cal = time.perf_counter()
        lat, outs = array("q"), []
        t0 = time.perf_counter()
        rnd.run(lat, outs)
        t1 = time.perf_counter()
        rounds.append((t1 - t0, lat, len(cals) - 1))
        for i, (a, b) in enumerate(zip(first, outs)):
            if a != b:
                mismatch[i] += 1
        if t1 >= t_end:
            break
    return [(w, lat, CAL_REF_S / statistics.median(cals[max(0, k - 1):k + 2]))
            for w, lat, k in rounds]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() just before the parent spawned us")
    args = ap.parse_args()

    tmpdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        rnd = Round(workloads.build(args.workload, args.seed), tmpdir)
        setup = {"raw_s": time.time() - args.spawned_at}
        setup["s"] = setup["raw_s"] * CAL_REF_S / statistics.median(
            calibrate() for _ in range(3))
        if args.mode == "setup":
            print(json.dumps({"setup": setup}))
            return 0
        result = run_workload(rnd, args)
        result["setup"] = setup
    finally:
        for name in os.listdir(tmpdir):
            os.remove(os.path.join(tmpdir, name))
        os.rmdir(tmpdir)
    print(json.dumps(result))
    return 0


def run_workload(rnd, args):
    first = []
    rnd.run([], first)                       # warm-up round, also checked
    mismatch = [0] * len(first)
    if args.mode == "run":
        rounds = _timed_rounds(rnd, args.seconds, first, mismatch)
        # before the sorted copies below add to the resident set
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = sorted(x * f for _, lats, f in rounds for x in lats)
        raw = sorted(x for _, lats, _ in rounds for x in lats)
        pct = workloads.TAIL_PERCENTILE[args.workload]
        return {
            "rounds": len(rounds) + 1, "ops_per_round": rnd.ops,
            "outputs": first, "mismatch": mismatch,
            "ops_per_s": rnd.ops / statistics.median(w * f for w, _, f in rounds),
            "op_ms_p50": statistics.median(lat) * 1e-6,
            "op_ms_tail": _percentile(lat, pct) * 1e-6,
            "raw": {"ops_per_s": rnd.ops / statistics.median(w for w, _, _ in rounds),
                    "op_ms_p50": statistics.median(raw) * 1e-6,
                    "op_ms_tail": _percentile(raw, pct) * 1e-6},
            "speed_factor": statistics.median(f for _, _, f in rounds),
            "samples": len(lat), "tail_pct": pct,
            "beyond_tail": len(lat) - math.ceil(pct / 100.0 * len(lat)),
            "peak_rss_mb": peak_rss_mb,
        }

    import tracer
    rounds = _timed_rounds(rnd, args.seconds / 2, first, mismatch)
    untraced = statistics.median(w for w, _, _ in rounds)
    tr = tracer.Tracer()
    tr.install()
    try:
        t0 = time.perf_counter()
        for _ in range(TRACE_ROUNDS):
            tr.new_round()
            outs = []
            rnd.run([], outs)
            for i, (a, b) in enumerate(zip(first, outs)):
                if a != b:
                    mismatch[i] += 1
        traced_wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    metrics = tracer.layer_metrics(tr, TRACE_ROUNDS, rnd.ops)
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / TRACE_ROUNDS / untraced,
        "unit": "ratio"}
    tr.write(os.path.join(OUT_DIR, f"trace-{args.workload}.bin"))
    return {"rounds": len(rounds) + 1 + TRACE_ROUNDS, "ops_per_round": rnd.ops,
            "outputs": first, "mismatch": mismatch, "layers": metrics}


if __name__ == "__main__":
    sys.exit(main())
