"""Every benchmark metric in one command.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py on every workload, first untraced (end-to-end metrics), then
traced (per-layer metrics), from the root of an affinedim checkout.  Each
run prints its metrics by name with their units; this takes about five
minutes on a 2-core machine.
"""

import argparse
import sys

import run
from workloads import WORKLOADS


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args(argv)
    for trace in (0, 1):
        for name in WORKLOADS:
            print(f"== {name} --trace {trace}", flush=True)
            code = run.main(["--workload", name, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(trace)])
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
