"""Set-up probe: import lentparticle from ./src, build a workload's configs, print "ready".

    python3 benchmarks/setup_probe.py --workload W [--seed N]

run.py times this script from its start until it prints "ready"; that is the
``setup_s`` metric.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    import workloads

    workloads.build_configs(args.workload, args.seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
