"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python3 tools/pairs.py ../parent . --workload series_sweep
    python3 tools/pairs.py PARENT_ROOT CHANGE_ROOT --workload W \\
        [--seed 11] [--pairs 10]

Each pair runs ``bench/run.py --trace 0`` once in each checkout, from that
checkout's root and with its own ``bench/`` and ``src/``, for the seconds
of ``run_seconds`` in the ``BENCHMARK.json`` of this script's checkout.  The
side that runs first alternates, the parent first in the first pair, so
that a drift of the machine's speed during the runs falls on both sides.
The last stdout line of every run, with ``workload``, ``seed`` and
``trace`` added, is written to ``parent.jsonl`` or ``change.jsonl`` in a
fresh temporary directory, whose path is printed first; last,
``bench/compare.py`` of this checkout prints its table for the two files.
Nothing is written under ``bench/`` beyond what ``run.py`` writes itself.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(root, workload, seed, seconds):
    """One untraced benchmark run in ``root``: its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench/run.py in {root} failed with exit code "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"workload": workload, "seed": seed, "trace": 0, **result}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    out = tempfile.mkdtemp(prefix="pairs-")
    print(out, flush=True)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    files = {side: os.path.join(out, f"{side}.jsonl") for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run(sides[side], args.workload, args.seed, seconds)
            with open(files[side], "a") as fh:
                fh.write(json.dumps(result) + "\n")
            ops = result["metrics"]["ops_per_s"]["value"]
            print(f"pair {i + 1}/{args.pairs} {side}: ops_per_s {ops:.6g}, "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
    return subprocess.run([sys.executable,
                           os.path.join(ROOT, "bench", "compare.py"),
                           files["parent"], files["change"]]).returncode


if __name__ == "__main__":
    sys.exit(main())
