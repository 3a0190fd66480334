"""Count the cyclic garbage collector's work in each benchmark round.

    python3 tools/gcscan.py [--seed 11] [--rounds 300]
    python3 tools/gcscan.py --root ../parent

Each workload's round is built by ``bench/workloads.py`` and run in this
process by ``bench/child.py``'s ``Round``, from ``<root>/src`` and
``<root>/bench``, where ``root`` defaults to the checkout this script sits
in; nothing under ``bench/`` is changed, and the files a round writes go
to a temporary directory.  After one untimed warm-up round, per workload:

  gen0..gen2  the collections of each generation per round over
              ``--rounds`` rounds, with the median pause of one such
              collection in microseconds ("-" where there is none)
  cyclic      the objects that ``gc.collect()`` finds unreachable after
              one round run with the collector off: garbage that only the
              cyclic collector frees, since reference counting frees the
              rest at once

One line per workload.  The pauses are wall times of this process, so
they vary with the machine and its load; the counts do not.
"""

import argparse
import gc
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("series_sweep", "closed_form_mix", "cli_verify")


class _Pauses:
    """A ``gc.callbacks`` entry that keeps each collection's pause in
    seconds, per generation."""

    def __init__(self):
        self.pauses = ([], [], [])
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pauses[info["generation"]].append(
                time.perf_counter() - self._start)


def scan(rnd, rounds):
    """(the pauses of each generation over ``rounds`` rounds, the objects
    found unreachable after one round with the collector off)."""
    rnd.run([], [])  # warm-up
    gc.collect()
    watch = _Pauses()
    gc.callbacks.append(watch)
    try:
        for _ in range(rounds):
            rnd.run([], [])
    finally:
        gc.callbacks.remove(watch)
    gc.collect()
    gc.disable()
    try:
        rnd.run([], [])
        cyclic = gc.collect()
    finally:
        gc.enable()
    return watch.pauses, cyclic


def line(workload, rounds, pauses, cyclic):
    cells = []
    for gen, ps in enumerate(pauses):
        median = f"{statistics.median(ps) * 1e6:.0f} us" if ps else "-"
        cells.append(f"gen{gen} {len(ps) / rounds:.3f}/round ({median})")
    return f"{workload:<16} " + "  ".join(cells) + f"  cyclic {cyclic}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="checkout whose src/ and bench/ are scanned")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--rounds", type=int, default=300)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import child
    import workloads

    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            rnd = child.Round(workloads.build(workload, args.seed), tmp)
            pauses, cyclic = scan(rnd, args.rounds)
        print(line(workload, args.rounds, pauses, cyclic), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
