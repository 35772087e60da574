"""tools/compare_reports.py: the runs it makes and the differences it
reports; tools/import_times.py: the modules it times; tools/peak_rss.py:
the peak it reads."""

import importlib.util
import os
import subprocess
import sys

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def load_tool(name="compare_reports"):
    path = os.path.join(REPO, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tool)
    finally:
        sys.dont_write_bytecode = writes
    return tool


def test_runs_every_benchmark_call_and_every_suite():
    tool = load_tool()
    workloads = tool.load_workloads()
    names = tool.fixtures(REPO)
    suites = tool.suites(REPO)
    assert len(names) == 7 and "carpet" in names
    assert {"diml", "dima", "content"} <= set(suites)
    runs = tool.invocations(workloads, names, suites)
    benchmark = [(inv.args, inv.fixture)
                 for calls in workloads.WORKLOADS.values() for inv in calls]
    assert len(benchmark) == 28 and runs[:28] == benchmark
    assert len(suites) == 6
    # the 23 benchmark calls that the per-fixture commands repeat run once
    assert len(set(runs)) == len(runs) == 28 + (2 + 6 + 4) * 7 - 23 == 89
    assert (("verify", "dima"), "carpet") in runs
    assert (("check",), "sim3") in runs and (("dims",), "square4") in runs
    assert (("render", "--depth", "3"), "cone") in runs
    assert (("render", "--depth", "6", "--directions"), "overlap") in runs
    assert (("carpet",), "carpet") in runs
    assert (("carpet", "--eps", "0.01"), "positive_pair") in runs


def test_reports_what_differs():
    tool = load_tool()
    same = (b'{"a": 1}\n', b"", b"", 0)
    assert tool.differences(same, same) == []
    # a report of another shape is shown as a diff
    lines = tool.differences(same, (b'{"a": 1, "b": 2}\n', b"", b"", 2))
    assert lines[0] == "  report differs:"
    assert '    +{"a": 1, "b": 2}' in lines and '    -{"a": 1}' in lines
    assert lines[-1] == "  exit code: parent 0, change 2"
    assert tool.differences((None, b"x\n", b"", 1), same) \
        == ["  report: written by change only", "  stdout differs:",
            "    --- parent", "    +++ change", "    @@ -1 +0,0 @@",
            "    -x", "  exit code: parent 1, change 0"]


def test_reports_a_stderr_that_differs(tmp_path):
    tool = load_tool()
    parent, change = tool.run_both((REPO, REPO), ("carpet",), "sim3", 1,
                                   str(tmp_path))
    assert parent == change
    assert parent[2] == b"error: carpet command needs a p/q/digits input\n"
    assert parent[3] == 1
    change = (None, b"", b"error: needs p, q and digits\n", 1)
    assert tool.differences(parent, change) \
        == ["  stderr differs:", "    --- parent", "    +++ change",
            "    @@ -1 +1 @@",
            "    -error: carpet command needs a p/q/digits input",
            "    +error: needs p, q and digits"]


def test_lists_the_values_that_moved():
    tool = load_tool()
    parent = b'{"a": {"x": 1.0, "y": [2, 3.5]}, "s": "Pass", "n": null}\n'
    change = b'{"a": {"x": 1.0, "y": [2, 3.25]}, "s": "Fail", "n": null}\n'
    assert tool.moved_values(parent, change) \
        == [("$.a.y[1]", 3.5, 3.25), ("$.s", "Pass", "Fail")]
    assert tool.differences((parent, b"", b"", 0), (change, b"", b"", 0)) \
        == ["  report differs in 2 values:", "    $.a.y[1]: 3.5 -> 3.25",
            "    $.s: 'Pass' -> 'Fail'"]
    # other keys, list lengths or kinds of leaf are another shape
    for other in (b'{"a": {"x": 1.0, "y": [2]}, "s": "Pass", "n": null}',
                  b'{"a": {"x": 1.0, "z": [2, 3.5]}, "s": "Pass", "n": 0}',
                  b'{"a": {"x": true, "y": [2, 3.5]}, "s": "Pass", "n": 1}',
                  b"<svg/>", None):
        assert tool.moved_values(parent, other) is None
    assert tool.moved_values(parent, parent) == []


def test_one_invocation_in_two_checkouts(tmp_path):
    tool = load_tool()
    parent, change = tool.run_both((REPO, REPO), ("check",), "sim3", 1,
                                   str(tmp_path))
    assert parent == change
    assert parent[3] == 0 and b'"command": "check"' in parent[0]


def test_a_render_is_compared_as_its_svg(tmp_path):
    tool = load_tool()
    parent, change = tool.run_both((REPO, REPO), ("render", "--depth", "3"),
                                   "sim3", 1, str(tmp_path))
    assert parent == change
    assert parent[3] == 0 and parent[0].count(b"<polygon") == 27


def test_children_start_as_the_benchmark_starts_them(tmp_path,
                                                     monkeypatch):
    # perfbench/run.py drops a word cap set in the shell and pins three
    # thread counts; a cap of 10 words would make `check sim3` exit 3
    monkeypatch.setenv("AFFINEDIM_WORD_CAP", "10")
    for name in ("compare_reports", "import_times", "peak_rss"):
        env = load_tool(name).environment(REPO)
        assert "AFFINEDIM_WORD_CAP" not in env, name
        assert [env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS",
                                 "PYTHONDONTWRITEBYTECODE")] == ["1"] * 4
    parent, change = load_tool().run_both((REPO, REPO), ("check",), "sim3",
                                          1, str(tmp_path))
    assert parent == change and parent[3] == 0


def test_import_times_lists_every_module():
    tool = os.path.join(REPO, "tools", "import_times.py")
    run = subprocess.run([sys.executable, tool, REPO, "--runs", "1"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    src = os.path.join(REPO, "src", "affinedim")
    want = {"affinedim"} | {f"affinedim.{f[:-len('.py')]}"
                            for f in os.listdir(src)
                            if f.endswith(".py") and f != "__init__.py"}
    lines = run.stdout.splitlines()
    assert {line.split()[0] for line in lines[:-1]} == want
    assert lines[-1].startswith("total") and float(lines[-1].split()[1]) > 0


def test_peak_rss_of_one_run():
    tool = os.path.join(REPO, "tools", "peak_rss.py")
    run = subprocess.run([sys.executable, tool, REPO, "--runs", "1", "--",
                          "check", "--input", "sim3.json"],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    first, last = run.stdout.splitlines()
    assert first.startswith("run 1:") and first.endswith("exit 0")
    assert last.startswith("least") and float(last.split()[1]) > 0
