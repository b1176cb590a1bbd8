"""Run one santil benchmark workload and print its metrics.

    python3 perfbench/run.py --workload san-mnist --seed 1 --seconds 20 --trace 0

Run from the root of a santil checkout; santil is imported from ``src/``
there, never from an installed copy. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-module
metrics with ``--trace 1``. The line before it records the environment.
The exit code is 0 only when every sequence passed its checks.

BLAS is pinned to one thread before numpy is imported. On a 2-core machine
a second BLAS thread made san-mnist sequences slower (median 2.23 s against
2.07 s) and finetune-cifar ones faster (6.1 s against 7.6 s), at twice the
CPU time, and left run-to-run spreads no smaller. One thread keeps figures
comparable across machines. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--tiny", action="store_true", help="shrink the workload to about a second (self-test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "santil" / "__init__.py").is_file():
        print(f"error: no santil sources under {src}; run from a santil checkout", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import workload  # imports numpy, so only after the pin

    if args.workload not in workload.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {list(workload.WORKLOADS)}",
              file=sys.stderr)
        return 2
    # a terminated run still removes its output directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result, accuracy = workload.run(
        args.workload, args.seed, args.seconds, bool(args.trace), root, tiny=args.tiny
    )
    env = workload.environment(args.seed, BLAS_THREADS)
    print(json.dumps({"env": env, "workload": args.workload, "accuracy": accuracy}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
