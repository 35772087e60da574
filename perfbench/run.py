"""affinedim benchmark: timed CLI passes with oracle-checked reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an affinedim source checkout (the directory holding
src/affinedim).  A pass runs every invocation of the workload once, each as
a fresh `affinedim` process, one at a time (closed loop, one client).

--trace 0 measures passes until S seconds are used (at least one pass) and
prints the end-to-end metrics: wall_s (median pass time), peak_rss_mib
(median over passes of the largest child ru_maxrss) and setup_s (median
start-up time of a fresh interpreter that imports affinedim.cli and loads
a fixture, over SETUP_REPEATS children).  --trace 1 runs one plain pass
and one traced pass (see tracer.py) and prints the per-layer metrics.

The speed of a shared virtual machine drifts by a quarter or more within
seconds to minutes, whatever runs on it.  So wall_s and setup_s are wall
times at a reference speed: the benchmark and its children run on one CPU,
and a fixed probe (`probe`) is timed on it before each child, after it, and
every SAMPLE_S seconds while the child is stopped.  Each stretch of a child's
wall time is divided by the speed factor (probe time / PROBE_REF_S) of the
probes around it; pauses are not counted.  The raw wall times are printed
and kept in the result file beside them.

Every report is checked by oracles.judge, and hashed: a report that differs
from the same invocation's report at the same seed, in this run, in a
traced run or in an earlier run of the same source tree, is a failure.
The last line of output is one JSON object: correct, attempted, failed,
metrics.  `failed` counts every failed invocation, known defects included;
`correct` is false when any invocation fails in a way oracles.KNOWN_DEFECTS
does not list.  Result files go to .perfbench/results/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import select
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import oracles
import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

CLI = "import sys; from affinedim.cli import main; sys.exit(main())"
SETUP = "import affinedim.cli as c; c.load_input('cone.json')"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60
OUT_DIR = ".perfbench"

# Typical probe time on the reference machine (2-core Xeon VM); wall time is
# divided by (probe time / PROBE_REF_S).  Children are paused for a probe
# every SAMPLE_S seconds of their run.
PROBE_REF_S = 0.04
SAMPLE_S = 2.0
_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 40, 100_000)


def probe():
    """Wall time of a fixed mix of interpreter, sort and allocation work."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    np.unique(_PROBE_KEYS)
    np.ones(1_000_000).sum()
    return time.perf_counter() - start


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so the probe sees
    the speed the children see."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env(src):
    env = dict(os.environ)
    env.pop("AFFINEDIM_WORD_CAP", None)
    env.update(PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(cmd, env, stdout_path, stderr_path, speed, period=SAMPLE_S):
    """Run one child to completion.

    Returns (exit code, wall s, speed-normalised s, maxrss KiB, last probe
    time).  `speed` is the probe time just before the child.  Every `period`
    seconds the child is stopped while the probe runs on its CPU; each
    stretch of its wall time is divided by the mean speed factor of the
    probes on either side, and the pauses are not counted.  A child that
    runs longer than CHILD_TIMEOUT_S is killed.  The child is always reaped.
    """
    wall = norm = 0.0

    def account(stretch):
        nonlocal wall, norm, speed
        after = probe()
        wall += stretch
        norm += stretch * 2.0 * PROBE_REF_S / (speed + after)
        speed = after

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                left = CHILD_TIMEOUT_S - wall - (time.perf_counter() - begin)
                exited, _, _ = select.select([pidfd], [], [],
                                             max(min(period, left), 0.0))
                if exited:
                    break
                if left <= 0:
                    proc.kill()
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                os.waitid(os.P_PID, proc.pid,
                          os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                account(time.perf_counter() - begin)
                os.kill(proc.pid, signal.SIGCONT)
                begin = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, 0)
            stretch = time.perf_counter() - begin
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    account(stretch)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, norm, usage.ru_maxrss, speed


def run_pass(invocations, seed, env, work_dir, traced):
    """One pass over the workload; returns a record per invocation."""
    records = []
    speed = probe()
    for k, inv in enumerate(invocations):
        base = os.path.join(work_dir, f"{k:02d}")
        report_path = base + ".json"
        cmd = [sys.executable]
        if traced:
            cmd += [os.path.join(HERE, "tracer.py"), base + ".spans", "--"]
        else:
            cmd += ["-c", CLI]
        cmd += inv.argv(seed, report_path)
        # traced children are not paused, so spans hold no probe time
        rc, wall, norm, maxrss, speed = spawn(
            cmd, env, base + ".out", base + ".err", speed,
            CHILD_TIMEOUT_S if traced else SAMPLE_S)
        with open(base + ".err", errors="replace") as fh:
            stderr = fh.read()
        report, digest = None, None
        if os.path.exists(report_path):
            with open(report_path, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            try:
                report = json.loads(raw)
            except ValueError:
                pass
        failures = oracles.judge(inv, rc, stderr, report)
        if os.path.getsize(base + ".out"):
            failures.append(("contract", "report also written to stdout"))
        spans = None
        if traced and os.path.exists(base + ".spans"):
            with open(base + ".spans") as fh:
                spans = dict(json.load(fh), invocation=inv.label)
        records.append({"label": inv.label, "rc": rc, "wall_s": wall,
                        "norm_s": norm, "maxrss_kib": maxrss,
                        "sha256": digest, "failures": failures,
                        "spans": spans})
    return records


def measure_setup(env, work_dir):
    """Median speed-normalised start-up time, and the raw wall times."""
    walls, norms = [], []
    speed = probe()
    for k in range(SETUP_REPEATS):
        base = os.path.join(work_dir, f"setup{k}")
        rc, wall, norm, _, speed = spawn([sys.executable, "-c", SETUP], env,
                                         base + ".out", base + ".err", speed)
        if rc != 0:
            raise SystemExit(f"set-up child exited {rc}; see {base}.err")
        walls.append(wall)
        norms.append(norm)
    return statistics.median(norms), walls


def tree_digest(src):
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """Commit of the checkout if it is a git work tree, read from .git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, src_digest):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "commit": git_commit(), "src_sha256": src_digest, "seed": seed,
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "AFFINEDIM_WORD_CAP": None,
            "children": "one at a time"}


def check_determinism(passes, workload, seed, src_digest):
    """Flag reports whose bytes differ between passes, or from an earlier
    run of the same source tree, workload and seed; then record them."""
    path = os.path.join(OUT_DIR, "report_hashes.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    seen = known.get(src_digest, {})
    for records in passes:
        for rec in records:
            if rec["sha256"] is None:
                continue
            key = f"{workload}|{seed}|{rec['label']}"
            first = seen.setdefault(key, rec["sha256"])
            if first != rec["sha256"]:
                rec["failures"].append(
                    ("nondeterministic", f"report sha256 {rec['sha256'][:12]} "
                                         f"!= {first[:12]} at the same seed"))
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump({src_digest: seen}, fh)
    os.replace(tmp, path)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "affinedim", "cli.py")):
        print("perfbench: src/affinedim not found; run from the root of an "
              "affinedim source checkout", file=sys.stderr)
        return 2
    env = child_env(src)
    invocations = WORKLOADS[args.workload]
    src_digest = tree_digest(src)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_id = (f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
              f"-{os.getpid()}")
    work_dir = os.path.join(OUT_DIR, "work", run_id)
    os.makedirs(work_dir)
    env_info = environment(args.seed, src_digest)
    print("environment " + json.dumps(env_info, sort_keys=True))

    metrics, extra = {}, {}
    try:
        if args.trace:
            plain = run_pass(invocations, args.seed, env, work_dir, False)
            traced = run_pass(invocations, args.seed, env, work_dir, True)
            passes = [plain, traced]
            layer, calls, bases = tracer.aggregate(
                [r["spans"] for r in traced if r["spans"]])
            layer["trace.overhead_s"] = sum(r["wall_s"] for r in traced) \
                - sum(r["wall_s"] for r in plain)
            for name, unit, _ in tracer.PER_LAYER:
                metrics[name] = {"value": layer[name], "unit": unit}
            extra = {"span_calls": calls, "ratio_bases": bases,
                     "spans": [r["spans"] for r in traced]}
        else:
            setup_s, setup_walls = measure_setup(env, work_dir)
            passes = []
            start = time.perf_counter()
            while True:
                records = run_pass(invocations, args.seed, env, work_dir,
                                   False)
                passes.append(records)
                last = sum(r["wall_s"] for r in records)
                if time.perf_counter() - start + last > args.seconds:
                    break
            walls = [sum(r["norm_s"] for r in p) for p in passes]
            rss = [max(r["maxrss_kib"] for r in p) / 1024.0 for p in passes]
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "peak_rss_mib": {"value": statistics.median(rss),
                                 "unit": "MiB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
            extra = {"pass_norm_s": walls, "pass_peak_rss_mib": rss,
                     "pass_raw_wall_s": [sum(r["wall_s"] for r in p)
                                         for p in passes],
                     "setup_raw_wall_s": setup_walls}
        check_determinism(passes, args.workload, args.seed, src_digest)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for r in p if r["failures"])
    unexpected = [(r["label"], code, detail) for p in passes for r in p
                  for code, detail in r["failures"]
                  if not oracles.is_known(r["label"], code)]
    for k, records in enumerate(passes):
        kind = "traced" if args.trace and k == 1 else "plain"
        for r in records:
            verdict = "ok" if not r["failures"] else "; ".join(
                ("known defect " if oracles.is_known(r["label"], c) else "")
                + f"{c}: {d}" for c, d in r["failures"])
            print(f"pass {k} {kind:6s} {r['label']:40s} exit {r['rc']} "
                  f"wall {r['wall_s']:7.3f} s norm {r['norm_s']:7.3f} s "
                  f"{r['maxrss_kib'] / 1024.0:7.1f} MiB {verdict}")
    print(f"failed_ops {failed}/{attempted} invocations "
          f"({len(invocations)} per pass x {len(passes)} passes), "
          f"{len(unexpected)} unexpected failures")
    if args.trace:
        for r in passes[1]:
            if r["spans"]:
                top = sorted(((v, k) for k, v in tracer.aggregate(
                    [r["spans"]])[0].items() if k.endswith(".s")),
                    reverse=True)[:3]
                print(f"top layers {r['label']:40s} " + ", ".join(
                    f"{k} {v:.3f} s" for v, k in top))
    for name, m in metrics.items():
        base = extra.get("ratio_bases", {}).get(name)
        print(f"metric {name} = {m['value']!r} {m['unit']}"
              + (f" ({base})" if base else ""))

    result = {"correct": not unexpected, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", run_id + ".json"), "w") as fh:
        json.dump({"workload": args.workload, "environment": env_info,
                   "result": result, "unexpected_failures": unexpected,
                   "passes": [[{k: v for k, v in r.items() if k != "spans"}
                               for r in p] for p in passes], **extra},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
