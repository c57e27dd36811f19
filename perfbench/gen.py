"""Set-up step of one benchmark run: generate a workload's inputs from a seed.

Runs in its own interpreter, so neither the generator's memory nor its
imports count toward the process that times the operations:

    python3 perfbench/gen.py WORKLOAD SEED OUT_DIR [--smoke]
"""

import argparse
from pathlib import Path

import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    workloads.generate(args.workload, args.seed, args.out, smoke=args.smoke)


if __name__ == "__main__":
    main()
