"""Peak RSS of one affinedim CLI invocation, each run a fresh child.

    python3 tools/peak_rss.py CHECKOUT --runs 5 -- dims --input cone.json

CHECKOUT is a directory that holds src/affinedim, such as a `git archive`
checkout.  Each of the runs is a fresh `python3 -c` child that calls
`affinedim.cli.main` with the arguments after `--`, with the checkout's
src first on PYTHONPATH, OMP_NUM_THREADS=1, OPENBLAS_NUM_THREADS=1 and
PYTHONDONTWRITEBYTECODE=1, as the benchmark starts its children.  Each
child's own ru_maxrss, from os.wait4, is printed, then the least of them.

A child's ru_maxrss counts what the parent held when the child was
forked, so this parent imports the standard library alone: a parent that
imports numpy, as the benchmark's runner does, lifts every child to its
own peak, and a command that peaks lower reads as that floor.  The
children's output goes to os.devnull.
"""

import argparse
import os
import subprocess
import sys

CLI = "import sys; from affinedim.cli import main; sys.exit(main())"


def environment(checkout):
    src = os.path.join(os.path.abspath(checkout), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")


def child_peak(args, env):
    """(exit code, ru_maxrss in KiB) of one child running the CLI."""
    with open(os.devnull, "wb") as sink:
        proc = subprocess.Popen([sys.executable, "-c", CLI, *args], env=env,
                                stdin=subprocess.DEVNULL, stdout=sink,
                                stderr=sink)
        _, status, usage = os.wait4(proc.pid, 0)
    # reaped here, so Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage="%(prog)s CHECKOUT --runs K -- CLI ARGS...")
    p.add_argument("checkout")
    p.add_argument("--runs", type=int, required=True)
    split = argv.index("--") if "--" in argv else len(argv)
    opts, args = p.parse_args(argv[:split]), argv[split + 1:]
    if opts.runs < 1 or not args:
        p.error("give --runs of at least 1 and the CLI arguments after --")
    env = environment(opts.checkout)
    peaks = []
    for k in range(opts.runs):
        code, kib = child_peak(args, env)
        peaks.append(kib)
        print(f"run {k + 1}: {kib / 1024:8.2f} MiB  exit {code}")
    print(f"least {min(peaks) / 1024:8.2f} MiB (of {opts.runs} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
