"""Benchmark command: one workload, checked against mpmath references.

    python3 bench/run.py --workload series_sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout, with the package imported from ``src``.
Steps: refuse FPI_MAX_TERMS; self-test the checker; load or build the
references for (workload, seed); time set-up in several fresh
interpreters; run the workload in one more fresh single-threaded child;
check every op; print a summary and, as the last stdout line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the metrics are the per-layer ones from a traced child.
Each result is also appended to ``bench/out/results.jsonl`` for
``bench/compare.py``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import check
import refs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 150

UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
         "op_ms_tail": "ms", "peak_rss_mb": "MB", "correct_digits_p50": "digits"}

# one thread for every BLAS / OpenMP pool the child could start
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, timeout=CHILD_TIMEOUT):
    """Run a child to completion; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")] + args + [
        "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times():
    """Cumulative import time of finitepart.cli and finitepart.oracles."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import finitepart.cli"], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("import of finitepart.cli failed")
    cum = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[1].strip().isdigit():
            cum[parts[2].strip()] = int(parts[1]) * 1e-6
    return {"oracles.import_s": {"value": cum["finitepart.oracles"], "unit": "s"},
            "cli.import_s": {"value": cum["finitepart.cli"], "unit": "s"}}


def summarize(groups, verdicts, res):
    """attempted, failed, correct and the failure lines of one run."""
    flat = workloads.flat_ops(groups)
    rounds = res["rounds"]
    failed = 0
    kinds = {"wrong": 0, "flagged": 0, "raised": 0}
    outside_faults = 0
    lines = []
    for i, ((g, op), (status, _, why)) in enumerate(zip(flat, verdicts)):
        n_bad = rounds if status != "pass" else res["mismatch"][i]
        if status == "pass" and n_bad:
            status, why = "wrong", f"output changed between rounds ({n_bad}x)"
        if not n_bad:
            continue
        failed += n_bad
        kinds[status] += n_bad
        if not g["fault"]:
            outside_faults += n_bad
        lines.append(f"  {status:7s} x{n_bad} {'[known fault] ' if g['fault'] else ''}"
                     f"{describe(g, op)}: {why}")
    return rounds * res["ops_per_round"], failed, kinds, outside_faults, lines


def describe(g, op):
    if g["kind"] == "sweep":
        return (f"{g['kernel']} f={g['f']} n={g['n']} nu={g['nu']} a={g['a']} "
                f"omega={op['omega']:.6g}")
    if g["kind"] == "cli":
        return "cli " + " ".join(op["argv"])
    return f"{g['kind']} {json.dumps(op)}"


def main(argv=None):
    ap = argparse.ArgumentParser(description="finitepart benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its child (subprocess.run does
    # so when an exception unwinds through it)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if "FPI_MAX_TERMS" in os.environ:
        raise SystemExit("refusing to run: FPI_MAX_TERMS changes the series cap")
    if not os.path.isfile(os.path.join(SRC, "finitepart", "__init__.py")):
        raise SystemExit(f"no finitepart package under {SRC}")
    check.self_test()
    os.makedirs(OUT, exist_ok=True)

    groups = workloads.build(args.workload, args.seed)
    references = refs.load_or_build(args.workload, args.seed)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    spawn(common + ["--mode", "setup"])          # warm bytecode and file cache
    setups = [spawn(common + ["--mode", "setup"])["setup"]
              for _ in range(SETUP_SAMPLES)]
    res = spawn(common + ["--mode", "trace" if args.trace else "run"])
    setups.append(res["setup"])

    verdicts = check.check_round(groups, res["outputs"], references)
    attempted, failed, kinds, outside, lines = summarize(groups, verdicts, res)
    passed_digits = [d for s, d, _ in verdicts if s == "pass" and d is not None]

    if args.trace:
        metrics = res["layers"]
        metrics.update(import_times())
    else:
        metrics = {
            "setup_s": statistics.median(s["s"] for s in setups),
            "ops_per_s": res["ops_per_s"],
            "op_ms_p50": res["op_ms_p50"],
            "op_ms_tail": res["op_ms_tail"],
            "peak_rss_mb": res["peak_rss_mb"],
            "correct_digits_p50": statistics.median(passed_digits),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {res['rounds']}  ops/round {res['ops_per_round']}")
    if not args.trace:
        print(f"  op_ms_tail is p{res['tail_pct']:g} of {res['samples']} "
              f"timed ops ({res['beyond_tail']} beyond it)")
        print(f"  times at the reference speed; this run's speed factor "
              f"{res['speed_factor']:.4f}, unscaled: setup_s "
              f"{statistics.median(s['raw_s'] for s in setups):.6g}, "
              + ", ".join(f"{k} {v:.6g}" for k, v in res["raw"].items()))
    for k, m in metrics.items():
        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}  (silently wrong "
          f"{kinds['wrong']}, flagged {kinds['flagged']}, raised "
          f"{kinds['raised']}; outside the known-fault inputs {outside})")
    for line in lines:
        print(line)

    result = {"correct": outside == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
