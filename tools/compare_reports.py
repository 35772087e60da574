"""Compare the reports of two affinedim source checkouts.

    python3 tools/compare_reports.py PARENT CHANGE --seeds 1,2

PARENT and CHANGE are directories that hold src/affinedim, such as two
`git archive` checkouts.  At every seed, each checkout runs every
invocation of the benchmark's workloads (perfbench/workloads.py beside
this tool, loaded without writing bytecode), then `check`, `dims`,
every `verify` suite, `render --depth 3`, `render --depth 6
--directions`, `carpet` and `carpet --eps 0.01` on each shipped fixture,
each invocation once; a render's SVG is compared as its report.  Each
run is a fresh process started as the benchmark starts its children
(`environment`), with the checkout's src first on PYTHONPATH; the two
checkouts run side by side, one process each.

Every invocation whose report, stdout, stderr or exit code differs is
printed with a diff of what differs; a report that parses as JSON in
both checkouts with the same shape is printed as the JSON path of each
value that moved, parent -> change.  The last line counts the invocations, the
differences, the numbers that moved and the largest absolute change;
the exit code is 1 when anything differs, else 0.
"""

import argparse
import difflib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = "import sys; from affinedim.cli import main; sys.exit(main())"
LIST_SUITES = ("from affinedim.cli import SUITES; "
               "print(' '.join(sorted(SUITES)))")
FIXTURES = os.path.join("src", "affinedim", "fixtures")
# lines of a differing report, stdout or stderr printed in its diff
DIFF_LINES = 40


def load_workloads():
    """perfbench/workloads.py as a module, without perfbench on sys.path
    and without writing its bytecode."""
    path = os.path.join(HERE, os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def environment(checkout):
    """os.environ as the benchmark's runner starts a child: the
    checkout's src first on PYTHONPATH, OMP_NUM_THREADS,
    OPENBLAS_NUM_THREADS and MKL_NUM_THREADS at 1, no bytecode written,
    and no AFFINEDIM_WORD_CAP from the shell."""
    src = os.path.join(os.path.abspath(checkout), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("AFFINEDIM_WORD_CAP", None)
    return env


def fixtures(checkout):
    """Names of the shipped fixtures, without their .json."""
    return sorted(f[:-len(".json")]
                  for f in os.listdir(os.path.join(checkout, FIXTURES))
                  if f.endswith(".json") and f != "checksums.json")


def suites(checkout):
    out = subprocess.run([sys.executable, "-c", LIST_SUITES], check=True,
                         capture_output=True, text=True,
                         env=environment(checkout))
    return out.stdout.split()


def invocations(workloads, names, verify_suites):
    """(args, fixture) of every run at one seed, each once where it first
    comes: the benchmark's in workload order, then check, dims, each
    verify suite, two renders and two carpet reports per fixture."""
    runs = [(inv.args, inv.fixture)
            for calls in workloads.WORKLOADS.values() for inv in calls]
    commands = [("check",), ("dims",)] \
        + [("verify", suite) for suite in verify_suites] \
        + [("render", "--depth", "3"),
           ("render", "--depth", "6", "--directions"),
           ("carpet",), ("carpet", "--eps", "0.01")]
    return list(dict.fromkeys(
        runs + [(args, f) for args in commands for f in names]))


def argv(args, fixture, seed, out):
    return list(args) + ["--input", fixture + ".json", "--seed", str(seed),
                         "--out", out]


def run_both(checkouts, args, fixture, seed, workdir):
    """(report bytes or None, stdout bytes, stderr bytes, exit code) of
    one invocation in each checkout, the two processes running at once."""
    procs, outs = [], []
    for k, checkout in enumerate(checkouts):
        out = os.path.join(workdir, f"report{k}.json")
        if os.path.exists(out):
            os.unlink(out)
        outs.append(out)
        procs.append(subprocess.Popen(
            [sys.executable, "-c", CLI] + argv(args, fixture, seed, out),
            env=environment(checkout), cwd=workdir, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    results = []
    for proc, out in zip(procs, outs):
        stdout, stderr = proc.communicate()
        report = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                report = fh.read()
        results.append((report, stdout, stderr, proc.returncode))
    return results


def _kind(value):
    """The shape class of a JSON value: its type, one for all numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return "number"
    return type(value).__name__


def moved_values(parent, change):
    """(JSON path, parent value, change value) of every leaf that differs
    between two report texts, or None unless both parse as JSON with the
    same shape: the same keys, list lengths and kinds of leaf."""
    moved = []

    def walk(path, a, b):
        if _kind(a) != _kind(b):
            return False
        if isinstance(a, dict):
            return a.keys() == b.keys() \
                and all(walk(f"{path}.{k}", a[k], b[k]) for k in a)
        if isinstance(a, list):
            return len(a) == len(b) \
                and all(walk(f"{path}[{k}]", x, y)
                        for k, (x, y) in enumerate(zip(a, b)))
        if a != b:
            moved.append((path, a, b))
        return True
    try:
        a, b = json.loads(parent), json.loads(change)
    except (TypeError, ValueError):
        return None
    return moved if walk("$", a, b) else None


def differences(parent, change):
    """Lines describing each part of two run results that differs."""
    lines = []
    for part, a, b in zip(("report", "stdout", "stderr"), parent, change):
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"  {part}: written by "
                         f"{'change only' if a is None else 'parent only'}")
            continue
        moved = moved_values(a, b) if part == "report" else None
        if moved:
            lines.append(f"  {part} differs in {len(moved)} values:")
            lines += [f"    {path}: {x!r} -> {y!r}" for path, x, y in moved]
            continue
        diff = list(difflib.unified_diff(
            a.decode(errors="replace").splitlines(),
            b.decode(errors="replace").splitlines(),
            "parent", "change", lineterm="", n=1))
        lines.append(f"  {part} differs:")
        lines += ["    " + line for line in diff[:DIFF_LINES]]
        if len(diff) > DIFF_LINES:
            lines.append(f"    ... {len(diff) - DIFF_LINES} more lines")
    if parent[3] != change[3]:
        lines.append(f"  exit code: parent {parent[3]}, change {change[3]}")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--seeds", required=True,
                   type=lambda text: [int(s) for s in text.split(",")])
    opts = p.parse_args()
    checkouts = (opts.parent, opts.change)
    runs = invocations(load_workloads(), fixtures(opts.change),
                       suites(opts.change))
    n_runs = n_diff = 0
    changes = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in opts.seeds:
            for args, fixture in runs:
                parent, change = run_both(checkouts, args, fixture, seed,
                                          workdir)
                n_runs += 1
                lines = differences(parent, change)
                if lines:
                    n_diff += 1
                    print(" ".join(argv(args, fixture, seed, "OUT")),
                          flush=True)
                    print("\n".join(lines), flush=True)
                    changes += [abs(y - x) for _, x, y
                                in moved_values(parent[0], change[0]) or []
                                if _kind(x) == "number"]
    print(f"{n_runs} invocations per checkout, {n_diff} differ, "
          f"{len(changes)} numbers moved, largest change "
          f"{max(changes, default=0.0):.3g}")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
