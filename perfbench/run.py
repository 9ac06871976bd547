#!/usr/bin/env python3
"""Benchmark for the wigreg command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of fixtures, order-sweep, transform and intertwine.

Run from the root of a checkout.  The launcher pins the BLAS and OpenMP
thread variables to 1, points ``PYTHONPATH`` at the checkout's ``src``, and
runs the workload in a worker process of its own, so that its peak resident
memory is the workload's alone.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; lines
before it start with ``#`` and name every metric with its unit.  See
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "wigreg", "cli.py")):
        print(f"error: no wigreg sources under {root}/src", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    try:
        worker = subprocess.run(
            [sys.executable, os.path.join(here, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--root", root],
            env=env, timeout=WORKER_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return worker.returncode


if __name__ == "__main__":
    sys.exit(main())
