"""Traced affinedim CLI run: spans around the entry points of every layer.

    python3 perfbench/tracer.py SPANS_JSON -- CLI_ARGS...

runs `affinedim CLI_ARGS...` in this process after wrapping the public
entry points of cli, ifs, projective, thermo, estimators and geometry,
then writes the spans to SPANS_JSON.  Reports are untouched: the wrappers
only read arguments and results.  `aggregate` (used by run.py, which never
imports affinedim) turns the span lists of a pass into per-layer metrics.
"""

import importlib
import inspect
import json
import os
import sys
import time
import traceback

# (span name, module, attribute) of each wrapped entry point.  Methods are
# patched on their class; functions in every namespace that bound them.
TARGETS = [
    ("cli.load_input", "affinedim.cli", "load_input"),
    ("cli.write_report", "affinedim.cli", "write_report"),
    ("ifs.compose_word", "affinedim.ifs", "Ifs.compose_word"),
    ("ifs.level_products", "affinedim.ifs", "Ifs.level_products"),
    ("ifs.level_singular_values", "affinedim.ifs",
     "Ifs.level_singular_values"),
    ("ifs.cylinder_centers", "affinedim.ifs", "Ifs._cylinder_centers"),
    ("ifs.attractor_sample", "affinedim.ifs", "Ifs.attractor_sample"),
    ("projective.find_invariant_multicone", "affinedim.projective",
     "find_invariant_multicone"),
    ("projective.furstenberg_directions", "affinedim.projective",
     "furstenberg_directions"),
    ("projective.classify_irreducibility", "affinedim.projective",
     "classify_irreducibility"),
    ("projective.strictly_affine", "affinedim.projective", "strictly_affine"),
    ("thermo.affinity_dimension", "affinedim.thermo", "affinity_dimension"),
    ("thermo.transfer_matrix", "affinedim.thermo", "transfer_matrix"),
    ("thermo.equilibrium_state", "affinedim.thermo", "equilibrium_state"),
    ("thermo.cylinder_directions", "affinedim.thermo", "_cylinder_directions"),
    ("estimators.grid_count", "affinedim.estimators", "grid_count"),
    ("estimators.covering", "affinedim.estimators", "_covering_count"),
    ("estimators.box_dim", "affinedim.estimators", "box_dim"),
    ("estimators.assouad_two_scale", "affinedim.estimators",
     "assouad_two_scale"),
    ("estimators.lower_two_scale", "affinedim.estimators", "lower_two_scale"),
    ("geometry.diameter_table", "affinedim.geometry",
     "DiameterTable.__init__"),
    ("geometry.posc_check", "affinedim.geometry", "posc_check"),
    ("geometry.proj_stopping", "affinedim.geometry", "_proj_stopping"),
    ("geometry.ssc_check", "affinedim.geometry", "ssc_check"),
    ("geometry.tangent_dimension_scan", "affinedim.geometry",
     "tangent_dimension_scan"),
    ("geometry.weak_tangent", "affinedim.geometry", "weak_tangent"),
    ("geometry.slice_upper_bound", "affinedim.geometry", "slice_upper_bound"),
    ("geometry.slice_points", "affinedim.geometry", "slice_points"),
    ("geometry.interval_content", "affinedim.geometry", "interval_content"),
    ("geometry.hausdorff_content_projection", "affinedim.geometry",
     "hausdorff_content_projection"),
    ("geometry.content_consistency", "affinedim.geometry",
     "content_consistency"),
]

# Per-layer metrics (name, unit, better), in BENCHMARK.json order.
SELF_TIMES = [name for name, _, _ in TARGETS] + ["cli.main"]
COUNTERS = [
    ("geometry.diameter_table.bytes", "B", "lower"),
    ("geometry.proj_stopping.words", "count", "lower"),
    ("geometry.proj_stopping.budget_exceeded", "count", "lower"),
    ("ifs.compose_word.calls", "count", "lower"),
    ("projective.furstenberg_directions.depth_ratio", "ratio", "higher"),
    ("estimators.grid_count.calls", "count", "lower"),
    ("estimators.grid_count.points", "count", "lower"),
    ("estimators.covering.kept_ratio", "ratio", "higher"),
    ("ifs.attractor_sample.points", "count", "lower"),
    ("geometry.interval_content.intervals", "count", "lower"),
    ("ifs.cylinder_centers.words", "count", "lower"),
    ("thermo.transfer_matrix.nnz", "count", "lower"),
    ("thermo.equilibrium_state.iterations", "count", "lower"),
    ("ifs.level_products.words", "count", "lower"),
    ("thermo.affinity_dimension.bracket_width", "1", "lower"),
    ("cli.write_report.bytes", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
PER_LAYER = [(f"{n}.s", "s", "lower") for n in SELF_TIMES] + COUNTERS

# Each span is [name, start, end, parent index, n]; n is the size of the
# work the call was given or produced, as set by the hooks below.
SPANS = []
COUNTS = {}
_STACK = []


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _add(key, value):
    COUNTS[key] = COUNTS.get(key, 0) + value


def _n(measure):
    """Hook that stores measure(fn, args, kwargs, result) as the span's n."""
    def hook(fn, args, kwargs, result, idx, state):
        SPANS[idx][4] = measure(fn, args, kwargs, result)
    return hook


def _diameter_table(fn, args, kwargs, result, idx, state):
    # the projection array is (cylinder centres) x (grid angles) float64;
    # the centres come from the table's first cylinder_centers call
    points = next(s[4] for s in SPANS[idx + 1:]
                  if s[3] == idx and s[0] == "ifs.cylinder_centers")
    _add("geometry.diameter_table.bytes", points * len(args[0].thetas) * 8)


def _level_products(fn, args, kwargs, result, idx, state):
    # count the words of the levels this call built, not cache hits;
    # level 0 is the identity and costs nothing
    ifs, n = args[0], _arg(fn, args, kwargs, "n")
    SPANS[idx][4] = sum(ifs.n_maps ** k for k in range(max(state, 1), n + 1))


def _furstenberg(fn, args, kwargs, result, idx, state):
    _add("furstenberg.reached", result.depth)
    _add("furstenberg.requested", _arg(fn, args, kwargs, "depth"))


def _affinity(fn, args, kwargs, result, idx, state):
    lo, hi = result[1]
    COUNTS["affinity.width"] = max(COUNTS.get("affinity.width", 0.0), hi - lo)


def _write_report(fn, args, kwargs, result, idx, state):
    if result is not None:
        SPANS[idx][4] = os.path.getsize(result)


# Run before the call: may replace the arguments and returns (args, state).
BEFORE = {
    # callers pass a zip; materialise it once so it can be counted
    "geometry.interval_content":
        lambda args: ((list(args[0]),) + tuple(args[1:]), None),
    "ifs.level_products":
        lambda args: (args, len(args[0]._cache.get("levels", []))),
}

# Run after a call that returned.
AFTER = {
    "geometry.diameter_table": _diameter_table,
    "ifs.level_products": _level_products,
    "projective.furstenberg_directions": _furstenberg,
    "thermo.affinity_dimension": _affinity,
    "cli.write_report": _write_report,
    "geometry.interval_content": _n(lambda f, a, k, r: len(a[0])),
    "ifs.cylinder_centers": _n(lambda f, a, k, r: len(r[0])),
    "ifs.attractor_sample": _n(lambda f, a, k, r: len(r)),
    "estimators.grid_count": _n(
        lambda f, a, k, r: len(_arg(f, a, k, "points"))),
    "estimators.covering": _n(
        lambda f, a, k, r: len(_arg(f, a, k, "points"))),
    "geometry.proj_stopping": _n(lambda f, a, k, r: len(r)),
    "thermo.transfer_matrix": _n(lambda f, a, k, r: r.nnz),
    "thermo.equilibrium_state": _n(lambda f, a, k, r: r.iterations),
}


def _wrap(name, fn):
    before, after = BEFORE.get(name), AFTER.get(name)

    def traced(*args, **kwargs):
        state = None
        if before is not None:
            args, state = before(args)
        idx = len(SPANS)
        SPANS.append([name, 0.0, 0.0, _STACK[-1] if _STACK else -1, 0])
        _STACK.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if name == "geometry.proj_stopping" and isinstance(
                    exc, sys.modules["affinedim.errors"].BudgetExceeded):
                _add("proj_stopping.budget_exceeded", 1)
            raise
        finally:
            SPANS[idx][1], SPANS[idx][2] = start, time.perf_counter()
            _STACK.pop()
        if after is not None:
            after(fn, args, kwargs, result, idx, state)
        return result

    return traced


def install():
    """Wrap every target wherever affinedim bound it."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "affinedim" or n.startswith("affinedim.")]
    for name, modname, attr in TARGETS:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(name, getattr(cls, meth)))
            continue
        orig = getattr(mod, attr)
        traced = _wrap(name, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)


def aggregate(runs):
    """Per-layer metrics from the span files of one traced pass."""
    self_s = {name: 0.0 for name in SELF_TIMES}
    calls, work, counts = {}, {}, {}
    kept = 0
    for run in runs:
        spans = run["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, n in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent, n) in enumerate(spans):
            self_s[name] += (end - start) - child[k]
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + n
            if name == "estimators.grid_count" and parent >= 0 \
                    and spans[parent][0] == "estimators.covering":
                kept += n
        for key, value in run["counts"].items():
            if key == "affinity.width":
                counts[key] = max(counts.get(key, 0.0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    requested = counts.get("furstenberg.requested", 0)
    scanned = work.get("estimators.covering", 0)
    out = {f"{name}.s": self_s[name] for name in SELF_TIMES}
    out.update({
        "geometry.diameter_table.bytes":
            counts.get("geometry.diameter_table.bytes", 0),
        "geometry.proj_stopping.words": work.get("geometry.proj_stopping", 0),
        "geometry.proj_stopping.budget_exceeded":
            counts.get("proj_stopping.budget_exceeded", 0),
        "ifs.compose_word.calls": calls.get("ifs.compose_word", 0),
        "projective.furstenberg_directions.depth_ratio":
            counts.get("furstenberg.reached", 0) / requested
            if requested else 0.0,
        "estimators.grid_count.calls": calls.get("estimators.grid_count", 0),
        "estimators.grid_count.points": work.get("estimators.grid_count", 0),
        "estimators.covering.kept_ratio": kept / scanned if scanned else 0.0,
        "ifs.attractor_sample.points": work.get("ifs.attractor_sample", 0),
        "geometry.interval_content.intervals":
            work.get("geometry.interval_content", 0),
        "ifs.cylinder_centers.words": work.get("ifs.cylinder_centers", 0),
        "thermo.transfer_matrix.nnz": work.get("thermo.transfer_matrix", 0),
        "thermo.equilibrium_state.iterations":
            work.get("thermo.equilibrium_state", 0),
        "ifs.level_products.words": work.get("ifs.level_products", 0),
        "thermo.affinity_dimension.bracket_width":
            counts.get("affinity.width", 0.0),
        "cli.write_report.bytes": work.get("cli.write_report", 0),
    })
    bases = {
        "projective.furstenberg_directions.depth_ratio":
            f"{counts.get('furstenberg.reached', 0)} reached / "
            f"{requested} requested levels",
        "estimators.covering.kept_ratio":
            f"{kept} points to grid_count / {scanned} scanned",
    }
    return out, calls, bases


def main(argv):
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON -- CLI_ARGS...")
    from affinedim.cli import main as cli_main
    install()
    code = 1
    try:
        code = _wrap("cli.main", cli_main)(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": SPANS, "counts": COUNTS}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
