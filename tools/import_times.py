"""Import self time of each affinedim module in a fresh interpreter.

    python3 tools/import_times.py CHECKOUT --runs 25

CHECKOUT is a directory that holds src/affinedim, such as a `git
archive` checkout.  Each of the N runs is a fresh
`python -X importtime -c "import affinedim.cli"` with the checkout's src
first on PYTHONPATH, OMP_NUM_THREADS=1 and PYTHONDONTWRITEBYTECODE=1, as
every CLI child of the benchmark starts.  For each affinedim.* module the
least self time over the runs is printed, then their sum: the start-up
cost of the package's own code, compiling its source included, which no
span of a traced run covers.
"""

import argparse
import os
import subprocess
import sys

CODE = "import affinedim.cli"


def environment(checkout):
    src = os.path.join(os.path.abspath(checkout), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
                PYTHONDONTWRITEBYTECODE="1")


def self_times(env):
    """{module: self time in microseconds} of the affinedim.* modules in
    one fresh interpreter."""
    run = subprocess.run([sys.executable, "-X", "importtime", "-c", CODE],
                         env=env, capture_output=True, text=True, check=True)
    times = {}
    for line in run.stderr.splitlines():
        # import time: self [us] | cumulative | imported package
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[2].strip().startswith("affinedim"):
            times[parts[2].strip()] = int(parts[0])
    return times


def least_self_times(checkout, runs):
    """{module: least self time in microseconds over the runs}."""
    env = environment(checkout)
    least = {}
    for _ in range(runs):
        for name, us in self_times(env).items():
            least[name] = min(us, least.get(name, us))
    return least


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout")
    p.add_argument("--runs", type=int, required=True)
    opts = p.parse_args()
    least = least_self_times(opts.checkout, opts.runs)
    for name in sorted(least):
        print(f"{name:24s} {least[name] / 1000:8.2f} ms")
    print(f"{'total':24s} {sum(least.values()) / 1000:8.2f} ms "
          f"(least of {opts.runs} runs per module)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
