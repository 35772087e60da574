"""Tests of the benchmark itself: metric definitions, oracles, layer map.

    python3 -m pytest perfbench -q

The layer-map tests run one traced pass of every workload (about one and
a half minutes on a 2-core machine).
"""

import copy
import json
import os

import pytest

import oracles
import run
import tracer
from workloads import WORKLOADS, Invocation

ROOT = os.path.dirname(run.HERE)

# Which workload each traced span is mapped to, as the benchmark promises.
LAYER_MAP = {
    "certify": ["geometry.diameter_table", "geometry.posc_check",
                "geometry.proj_stopping", "ifs.compose_word",
                "projective.find_invariant_multicone",
                "projective.furstenberg_directions",
                "projective.classify_irreducibility",
                "projective.strictly_affine", "geometry.ssc_check"],
    "estimate": ["estimators.grid_count", "estimators.covering",
                 "estimators.box_dim", "estimators.assouad_two_scale",
                 "estimators.lower_two_scale",
                 "geometry.tangent_dimension_scan", "geometry.weak_tangent",
                 "geometry.slice_upper_bound", "geometry.slice_points",
                 "ifs.attractor_sample", "thermo.affinity_dimension",
                 "ifs.level_products", "ifs.level_singular_values"],
    "spectral": ["geometry.interval_content",
                 "geometry.hausdorff_content_projection",
                 "geometry.content_consistency", "ifs.cylinder_centers",
                 "thermo.transfer_matrix", "thermo.equilibrium_state",
                 "thermo.cylinder_directions"],
}
EVERY_WORKLOAD = ["cli.main", "cli.load_input", "cli.write_report"]

# Layers that must stay idle outside the workloads named here.
IDLE_OUTSIDE = {
    "estimators.grid_count": {"estimate"},
    "geometry.interval_content": {"spectral"},
    "geometry.diameter_table": {"certify"},
    "thermo.transfer_matrix": {"spectral"},
}


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.PER_LAYER
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"wall_s", "peak_rss_mib", "setup_s"}
    assert sorted(sum(LAYER_MAP.values(), []) + EVERY_WORKLOAD) \
        == sorted(tracer.SELF_TIMES)


def _dims_report(fixture, value, bracket):
    return {"command": "dims", "input": fixture + ".json",
            "affinity": {"value": value, "bracket": list(bracket)},
            "box": {"dimension": 0.7}, "assouad_lower_estimate": 1.0,
            "lower_upper_estimate": 0.6,
            "tangents": {"dims": [0.7], "min_dim": 0.7, "max_dim": 0.7}}


def test_oracle_accepts_the_seed_report_and_flags_a_moved_value():
    inv = Invocation(("dims",), "cone")
    lo, hi = oracles.SEED_BRACKETS["cone"]
    good = _dims_report("cone", hi, (lo, hi))
    assert oracles.judge(inv, 0, "", good) == []

    moved = copy.deepcopy(good)
    moved["affinity"]["value"] = hi + 1e-3
    moved["affinity"]["bracket"] = [lo + 1e-3, hi + 1e-3]
    codes = [code for code, _ in oracles.judge(inv, 0, "", moved)]
    assert codes == ["outside_seed_bracket"]

    unbracketed = copy.deepcopy(good)
    unbracketed["affinity"]["value"] = lo - 1e-3
    codes = [code for code, _ in oracles.judge(inv, 0, "", unbracketed)]
    assert codes == ["outside_seed_bracket", "bracket"]


def test_oracle_flags_closed_forms_widths_and_the_exit_contract():
    sim3 = Invocation(("dims",), "sim3")
    off = _dims_report("sim3", 1.0 + 1e-6, (1.0, 1.0 + 1e-6))
    codes = [code for code, _ in oracles.judge(sim3, 0, "", off)]
    assert codes == ["outside_seed_bracket", "closed_form", "bracket_width"]

    check = Invocation(("check",), "square4")
    assert oracles.judge(check, 7, "", None)[0][0] == "exit_code"
    crash = "Traceback (most recent call last):\n  ...\nValueError: x\n"
    assert oracles.judge(check, 1, crash, None) \
        == [("traceback", "ValueError: x")]
    assert oracles.is_known("dims carpet", "traceback")
    assert not oracles.is_known("dims carpet", "exit_code")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    env = run.child_env(os.path.join(ROOT, "src"))
    out = {}
    for name, invocations in WORKLOADS.items():
        work = str(tmp_path_factory.mktemp(name))
        records = run.run_pass(invocations, 0, env, work, True)
        _, calls, _ = tracer.aggregate([r["spans"] for r in records])
        out[name] = (records, calls)
    return out


def test_traced_reports_pass_their_oracles(traced):
    for name, (records, _) in traced.items():
        for r in records:
            for code, detail in r["failures"]:
                assert oracles.is_known(r["label"], code), \
                    (name, r["label"], code, detail)


def test_every_span_fires_on_its_workload(traced):
    for name, spans in LAYER_MAP.items():
        calls = traced[name][1]
        for span in spans + EVERY_WORKLOAD:
            assert calls.get(span, 0) >= 1, (name, span)


def test_layers_predicted_idle_record_zero_calls(traced):
    for span, busy in IDLE_OUTSIDE.items():
        for name in WORKLOADS:
            if name not in busy:
                assert traced[name][1].get(span, 0) == 0, (name, span)
