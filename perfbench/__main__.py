"""``python -m perfbench run|compare`` (from the root of a checkout)."""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads and print every metric")
    run.add_argument("--workload", action="append", help="repeatable; default: all seven")
    run.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    run.add_argument("--seconds", type=float, default=10.0, help="how long one run measures")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    run.add_argument("--quick", action="store_true", help="op counts divided by ten (smoke test)")
    run.add_argument("--out", help="also write each result document into this directory")

    compare = sub.add_parser("compare", help="verdict per (workload, metric) for two result dirs")
    compare.add_argument("a", help="directory of baseline results (run --out)")
    compare.add_argument("b", help="directory of candidate results")

    args = parser.parse_args(argv)
    if args.command == "run":
        from .run import main as run_main

        return run_main(args)
    from .compare import main as compare_main

    return compare_main(args)


if __name__ == "__main__":
    sys.exit(main())
