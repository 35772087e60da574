import json
import os

import pytest

from affinedim.cli import EXIT_CONDITION, EXIT_INPUT, EXIT_OK, InputError, \
    fixture_path, load_input, main
from affinedim.ifs import Ifs

from conftest import FIXTURE_DIR


def fx(name):
    return os.path.join(FIXTURE_DIR, name)


class TestInput:
    def test_autodetect_maps(self):
        ifs, spec = load_input(fx("cone.json"))
        assert ifs.n_maps == 3
        assert spec is None

    def test_autodetect_carpet(self):
        ifs, spec = load_input(fx("carpet.json"))
        assert spec is not None
        assert ifs.n_maps == spec.n_maps == 5

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_input("/nonexistent/spec.json")

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        with pytest.raises(InputError):
            load_input(str(p))

    def test_wrong_shape(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text('{"something": 1}')
        with pytest.raises(InputError):
            load_input(str(p))

    def test_bare_fixture_name_resolves(self):
        ifs, _ = load_input("sim3.json")
        assert ifs.n_maps == 3

    def test_checksums_cover_all_fixtures(self):
        for name in os.listdir(FIXTURE_DIR):
            if name == "checksums.json":
                continue
            assert os.path.exists(fixture_path(name))


class TestExitCodes:
    def test_missing_input_is_input_error(self):
        assert main(["dims", "--input", "/nonexistent.json"]) == EXIT_INPUT

    def test_usage_error_is_input_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--input", "x"])
        assert exc.value.code == EXIT_INPUT
        capsys.readouterr()

    def test_check_flags_overlap(self, tmp_path, capsys):
        p = tmp_path / "touch.json"
        mk = {"a": 0.6, "b": 0.0, "c": 0.0, "d": 0.6, "tx": 0.0, "ty": 0.0}
        mk2 = dict(mk, tx=0.1)
        p.write_text(json.dumps({"maps": [mk, mk2]}))
        code = main(["check", "--input", str(p),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_CONDITION
        rep = json.loads((tmp_path / "r.json").read_text())
        assert rep["ssc"]["separated"] == "Overlap"

    def test_check_square4_overlaps(self, tmp_path):
        # the four tiles of the square touch, so the SSC check reports an
        # overlap and the command exits with the condition code by design
        out = tmp_path / "check.json"
        assert main(["check", "--input", fx("square4.json"),
                     "--out", str(out)]) == EXIT_CONDITION
        rep = json.loads(out.read_text())
        assert rep["ssc"]["separated"] == "Overlap"

    def test_check_square4_builds_each_cloud_once(self, tmp_path,
                                                  monkeypatch):
        clouds = {}
        centers = Ifs._cylinder_centers

        def spy(self, depth, cap=None):
            out = centers(self, depth, cap)
            clouds.setdefault(depth, []).append(out[0])
            return out

        monkeypatch.setattr(Ifs, "_cylinder_centers", spy)
        main(["check", "--input", fx("square4.json"),
              "--out", str(tmp_path / "check.json")])
        assert 6 in clouds
        for depth, seen in clouds.items():
            assert all(pts is seen[0] for pts in seen), depth


class TestCommands:
    def test_check_cone_green(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--input", fx("cone.json"),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["domination"]["certified"]
        assert rep["irreducibility"]["class"] == "StronglyIrreducible"
        assert rep["ssc"]["separated"] == "Certified"
        assert rep["posc"]["appears_to_hold"]

    def test_check_carpet_reducible(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--input", fx("carpet.json"),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["irreducibility"]["class"] == "Reducible"

    def test_dims_similarity(self, tmp_path):
        out = tmp_path / "dims.json"
        assert main(["dims", "--input", fx("sim3.json"),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["affinity"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert rep["box"]["dimension"] == pytest.approx(1.0, abs=0.1)
        assert rep["slice_upper_bound"] < 1.0

    def test_carpet_report(self, tmp_path):
        out = tmp_path / "carpet.json"
        assert main(["carpet", "--input", fx("carpet.json"), "--eps", "0.01",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["chain_holds"]
        assert rep["mackay_assouad"] == pytest.approx(1.4750874448465634)
        assert rep["s_eps"] == pytest.approx(1.14086082632982, abs=1e-9)

    def test_verify_gibbs_similarity(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "gibbs", "--input", fx("sim3.json"),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["status"] == "Pass"
        assert all(v == pytest.approx(1.0)
                   for v in rep["measured"]["spreads"].values())

    def test_verify_skipped_is_not_failure(self, tmp_path):
        # positive-pair norms exceed 1/2, so the derivative hypothesis
        # fails and the suite must skip rather than fail
        out = tmp_path / "v.json"
        assert main(["verify", "trans", "--input", fx("positive_pair.json"),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["status"] == "Skipped"


class TestRender:
    def test_polygon_count_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = ["render", "--input", fx("carpet.json"), "--depth", "2"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--threads", "8", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("<polygon") == 25

    def test_directions_overlay(self, tmp_path):
        out = tmp_path / "d.svg"
        assert main(["render", "--input", fx("cone.json"), "--depth", "2",
                     "--directions", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.count('class="direction"') > 0
        assert text.count("<polygon") == 9
