import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import warnings

from hypothesis import HealthCheck, given, reject, settings, strategies as st
import numpy as np
import pytest

from affinedim import cli, estimators, projective
from affinedim.cli import ERROR_EXITS, EXIT_BUDGET, EXIT_CONDITION, \
    EXIT_INPUT, EXIT_OK, InputError, fixture_path, load_input, main
from affinedim.errors import AffinedimError, DegenerateRange
from affinedim.geometry import PoscReport
from affinedim.ifs import LEVEL_BLOCK, Ifs

from conftest import FIXTURE_DIR, kept_arrays, twenty_maps

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def fx(name):
    return os.path.join(FIXTURE_DIR, name)


def strict_json(text):
    """The JSON document in text; NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_python(code, argv=(), **kwargs):
    """Python code in a fresh process that imports the package from the
    source tree, so an escaping exception shows as a traceback on stderr.
    Keyword arguments go to subprocess.run."""
    path = os.pathsep.join(filter(None, [os.path.abspath(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), **kwargs)


def run_cli(argv, **kwargs):
    """The CLI in a fresh process; see run_python."""
    return run_python(
        "import sys; from affinedim.cli import main; sys.exit(main())",
        argv, **kwargs)


def cap_memory():
    # a 512 MiB data limit for a child process (its preexec_fn)
    limit = 512 * 2 ** 20
    resource.setrlimit(resource.RLIMIT_DATA, (limit, limit))


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

    def test_maps_and_carpet_together(self, tmp_path, capsys):
        # dims would read the maps and carpet the p/q/digits
        p = tmp_path / "both.json"
        p.write_text(json.dumps(dict(
            Ifs([[[0.4, 0.0], [0.0, 0.4]]] * 2, [(0, 0), (0.5, 0)]).to_json(),
            p=2, q=3, digits=[[0, 0], [1, 1]])))
        with pytest.raises(InputError, match="expected either a 'maps'"):
            load_input(str(p))
        for command in ("dims", "carpet"):
            assert main([command, "--input", str(p)]) == EXIT_INPUT
        assert "expected either a 'maps'" in capsys.readouterr().err

    def test_bare_fixture_name_resolves(self):
        ifs, _ = load_input("sim3.json")
        assert ifs.n_maps == 3

    def test_bare_fixture_name_closes_its_file(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_input("sim3.json")
            gc.collect()
        assert [str(w.message) for w in caught] == []

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

    @pytest.mark.parametrize("maps, message", [
        ('[{"a": 0.4, "b": 0, "c": 0, "d": 0.4, "tx": 0, "ty": 0}]',
         "need at least two maps"),
        ('[{"a": 0.4, "b": 0, "c": 0, "d": 0.4, "tx": 0, "ty": 0},'
         ' {"a": NaN, "b": 0, "c": 0, "d": 0.4, "tx": 0.5, "ty": 0}]',
         "map 2 has a non-finite entry"),
        ('[{"a": 0.4, "b": 0, "c": 0, "d": 0.4, "tx": 0, "ty": 0},'
         ' {"a": 0.4, "b": 0.2, "c": 0.4, "d": 0.2, "tx": 0.5, "ty": 0}]',
         "map 2 is singular"),
        ('[{"a": 0.4, "b": 0, "c": 0, "d": 0.4, "tx": 0, "ty": 0},'
         ' {"a": 0.4, "b": Infinity, "c": 0, "d": 0.4, "tx": 0.5, "ty": 0}]',
         "map 2 has a non-finite entry"),
    ], ids=["one-map", "nan", "singular", "infinity"])
    @pytest.mark.parametrize("command", ["check", "dims"])
    def test_invalid_maps_are_input_errors(self, tmp_path, capsys, maps,
                                           message, command):
        p = tmp_path / "bad.json"
        p.write_text('{"maps": ' + maps + '}')
        with pytest.raises(InputError, match=message):
            load_input(str(p))
        assert main([command, "--input", str(p)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: invalid spec") and message in err

    @pytest.mark.parametrize("command", ["check", "dims"])
    def test_one_digit_carpet_is_an_input_error(self, tmp_path, capsys,
                                                command):
        p = tmp_path / "one.json"
        p.write_text('{"p": 2, "q": 3, "digits": [[0, 0]]}')
        with pytest.raises(InputError, match="need at least two maps"):
            load_input(str(p))
        assert main([command, "--input", str(p)]) == EXIT_INPUT
        assert "need at least two maps" in capsys.readouterr().err

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

        def spy(self, depth):
            out = centers(self, depth)
            clouds.setdefault(depth, []).append(out[0])
            return out

        monkeypatch.setattr(Ifs, "_cylinder_centers", spy)
        main(["check", "--input", fx("square4.json"),
              "--out", str(tmp_path / "check.json")])
        assert 6 in clouds
        for depth, seen in clouds.items():
            assert all(pts is seen[0] for pts in seen), depth


class TestOptions:
    # the options of each command and verify suite besides --input and
    # --out: the ones it reads, and --seed, which every command takes
    OPTIONS = {
        "check": {"--depth", "--seed"},
        "dims": {"--depth", "--budget", "--tol", "--seed"},
        "verify ahl": {"--depth", "--seed"},
        "verify content": {"--seed"},
        "verify dima": {"--seed"},
        "verify diml": {"--depth", "--seed"},
        "verify gibbs": {"--seed"},
        "verify trans": {"--seed"},
        "render": {"--depth", "--directions", "--seed"},
        "carpet": {"--eps", "--seed"},
    }

    def test_each_command_takes_the_options_it_reads(self):
        found = {}

        def walk(parser, name):
            subs = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
            if subs:
                for key, child in subs[0].choices.items():
                    walk(child, f"{name} {key}".strip())
            else:
                found[name] = {flag for a in parser._actions
                               for flag in a.option_strings} \
                    - {"-h", "--help", "--input", "--out"}

        walk(cli.build_parser(), "")
        assert found == self.OPTIONS
        assert sum(map(len, found.values())) == 19


class TestErrorContract:
    def test_every_toolkit_error_has_an_exit_code(self):
        assert set(ERROR_EXITS) == set(AffinedimError.__subclasses__())

    @pytest.mark.parametrize("argv, code", [
        (["check", "--input", "cone.json", "--depth", "1"], EXIT_INPUT),
        (["dims", "--input", "cone.json", "--tol", "-1"], EXIT_INPUT),
        (["dims", "--input", "cone.json", "--budget", "-1"], EXIT_INPUT),
        (["render", "--input", "cone.json", "--depth", "-2"], EXIT_INPUT),
        (["verify", "trans", "--input", "cone.json", "--seed", "-1"],
         EXIT_INPUT),
        (["carpet", "--input", "carpet.json", "--eps", "0.7"], EXIT_INPUT),
        (["render", "--input", "sim3.json", "--directions"], EXIT_CONDITION),
        (["render", "--input", "cantor2.json", "--directions"],
         EXIT_CONDITION),
        (["render", "--input", "square4.json", "--directions"],
         EXIT_CONDITION),
        (["check", "--input", "cone.json", "--budget", "5"], EXIT_INPUT),
        (["render", "--input", "cone.json", "--tol", "1e-9"], EXIT_INPUT),
        (["carpet", "--input", "carpet.json", "--depth", "3"], EXIT_INPUT),
        (["verify", "gibbs", "--input", "cone.json", "--depth", "3"],
         EXIT_INPUT),
        (["verify", "ahl", "--input", "cone.json", "--depth", "1"],
         EXIT_INPUT),
    ])
    def test_documented_code_without_traceback(self, tmp_path, argv, code):
        out = run_cli([fx(a) if a.endswith(".json") else a for a in argv]
                      + ["--out", str(tmp_path / "out")])
        assert out.returncode == code
        assert "Traceback" not in out.stderr
        assert [line for line in out.stderr.splitlines()
                if line.startswith("error:")] \
            == out.stderr.strip().splitlines()[-1:]

    @pytest.mark.parametrize("cap", ["abc", "1e3", "-5"])
    def test_malformed_word_cap(self, tmp_path, monkeypatch, cap):
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", cap)
        out = run_cli(["check", "--input", fx("cone.json"),
                       "--out", str(tmp_path / "out")])
        assert out.returncode == EXIT_INPUT
        assert out.stderr.splitlines() == [
            "error: AFFINEDIM_WORD_CAP must be a nonnegative integer, "
            f"got {cap!r}"]
        assert not (tmp_path / "out").exists()

    # a dominated family whose second map has det < 0: the image of a
    # narrow interval under it must not come out as the complement, or the
    # limit directions cover the projective line
    REVERSING = {"maps": [
        {"a": 0.12700579217518887, "b": 0.015918047203201748,
         "c": 0.09969561678819522, "d": 0.12570306014069105,
         "tx": 0.790896478828252, "ty": 0.74439093604867},
        {"a": 0.020658121238756284, "b": 0.2207036449150033,
         "c": 0.01562995863224481, "d": 0.161433838835621,
         "tx": -0.5934943277708704, "ty": -0.35011471084878787},
        {"a": 0.21821066001239836, "b": 0.09377455923644691,
         "c": 0.05123914256276616, "d": 0.19084604265318472,
         "tx": 0.597878981926268, "ty": -0.5289670853876571}]}

    @pytest.mark.parametrize("argv", [["check"], ["render", "--directions"]])
    def test_orientation_reversing_maps(self, tmp_path, argv):
        spec = tmp_path / "reversing.json"
        spec.write_text(json.dumps(self.REVERSING))
        out = run_cli(argv + ["--input", str(spec),
                              "--out", str(tmp_path / "out")])
        assert out.returncode in (EXIT_OK, EXIT_CONDITION)
        assert "Traceback" not in out.stderr

    # a two-map family, the first map nearly singular and of det < 0, on
    # which `images` turns intervals 4.3e-9 wide at the third inverse step
    # into intervals of width pi - 1e-15, so the limit directions cover the
    # projective line
    FLIP = {"maps": [
        {"a": -0.08725422701036524, "b": -0.017587402086153656,
         "c": 0.05936364122547701, "d": 0.011965634964070758,
         "tx": -0.890663877196324, "ty": -0.9318994421059248},
        {"a": 0.1160682903006369, "b": 0.029490021285488166,
         "c": -0.11036085480116109, "d": -0.028039988127975837,
         "tx": 0.4784937480673841, "ty": -0.6086943401093581}]}
    COVERED = ("limit directions at inverse step 3: interval union covers "
               "the projective line")

    def test_covered_line_skips_in_check(self, tmp_path):
        spec = tmp_path / "flip.json"
        spec.write_text(json.dumps(self.FLIP))
        out = tmp_path / "check.json"
        assert main(["check", "--input", str(spec),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        for key in ("posc", "limit_directions"):
            assert rep[key] == {"status": "skipped",
                                "diagnostic": self.COVERED}

    def test_covered_line_is_a_condition_failure_in_render(self, tmp_path,
                                                           capsys):
        spec = tmp_path / "flip.json"
        spec.write_text(json.dumps(self.FLIP))
        assert main(["render", "--input", str(spec), "--directions",
                     "--out", str(tmp_path / "render.svg")]) \
            == EXIT_CONDITION
        assert capsys.readouterr().err.splitlines() \
            == [f"error: Inconclusive: {self.COVERED}"]

    # two cylinders with the same projected images make a zero POSC
    # separation: two copies of one map, and cone's maps with its first
    # map twice; the SSC verdict is Overlap
    TWINS = {"maps": [{"a": 0.1, "b": 0.0, "c": 0.0, "d": 0.0001,
                       "tx": 0.0, "ty": 0.0}] * 2}

    @pytest.mark.parametrize("family", ["twins", "cone_and_a_copy"])
    def test_zero_separation_is_strict_json(self, tmp_path, family):
        maps = self.TWINS["maps"]
        if family == "cone_and_a_copy":
            with open(fx("cone.json")) as fh:
                maps = json.load(fh)["maps"]
            maps = maps + maps[:1]
        spec = tmp_path / "family.json"
        spec.write_text(json.dumps({"maps": maps}))
        out = tmp_path / "check.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--input", str(spec),
                         "--out", str(out)]) == EXIT_CONDITION
        rep = strict_json(out.read_text())
        assert rep["ssc"]["separated"] == "Overlap"
        assert rep["posc"]["eta_hat"] == 0.0
        assert rep["posc"]["trend"] is None
        assert rep["posc"]["appears_to_hold"] is False

    def test_non_finite_report_is_a_condition_failure(self, tmp_path,
                                                      monkeypatch, capsys):
        def nan_scan(ifs, depth):
            return PoscReport(float("nan"), {}, 0.0, True)

        monkeypatch.setattr(cli, "posc_check", nan_scan)
        out = tmp_path / "check.json"
        assert main(["check", "--input", fx("cone.json"),
                     "--out", str(out)]) == EXIT_CONDITION
        assert capsys.readouterr().err.splitlines() == [
            "error: DegenerateRange: report not written: Out of range "
            "float values are not JSON compliant: nan"]
        assert not out.exists()
        with pytest.raises(DegenerateRange):
            cli.write_report({"x": float("inf")}, str(out), "r.json")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["check", "--depth", "3"],
                                      ["verify", "diml"], ["check"]])
    def test_many_maps_in_bounded_memory(self, tmp_path, argv):
        # the full 4 x 7 carpet: 28 maps and their 812 level-1 and level-2
        # products run every stage of the command at once; the carpet is
        # Reducible at its first candidate line, the x-axis, so the
        # irreducibility classifier forms no pair here (see the next test)
        spec = tmp_path / "carpet28.json"
        spec.write_text(json.dumps({"p": 4, "q": 7, "digits": [
            [j, k] for j in range(4) for k in range(7)]}))
        out = run_cli(argv + ["--input", str(spec),
                              "--out", str(tmp_path / "out")],
                      preexec_fn=cap_memory)
        assert out.returncode in (EXIT_OK, EXIT_CONDITION)
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("family, code, ssc", [
        ("carpet", EXIT_CONDITION, "Overlap"),
        ("rotations", EXIT_OK, "Certified")])
    def test_twenty_maps_check_at_default_depth(self, tmp_path, family,
                                                code, ssc):
        # every depth of check is fitted to 500,000 words: level 4 of 20
        # maps, not the 64M words of level 6
        spec = tmp_path / "family.json"
        spec.write_text(json.dumps(twenty_maps(family)))
        out = run_cli(["check", "--input", str(spec),
                       "--out", str(tmp_path / "check.json")],
                      preexec_fn=cap_memory)
        assert (out.returncode, out.stderr) == (code, "")
        rep = strict_json((tmp_path / "check.json").read_text())
        assert (rep["ssc"]["separated"], rep["ssc"]["depth"]) == (ssc, 4)
        if family == "rotations":
            assert rep["strictly_affine"] == {"found": False,
                                              "witness": None}
            assert rep["irreducibility"]["diagnostic"].startswith(
                "no proximal product up to depth 4;")

    def test_pair_stage_in_bounded_memory(self):
        # 28 positive maps: none of their 1,624 candidate lines is fixed
        # by every map and no pair is swapped, so the classifier tests
        # every pair; it must hold one row of the pair table at a time,
        # not every map against every pair (563 MiB as floats)
        out = run_python(
            "import numpy as np\n"
            "from affinedim.ifs import Ifs\n"
            "from affinedim.projective import classify_irreducibility\n"
            "g = np.random.default_rng(4)\n"
            "ifs = Ifs(g.uniform(0.01, 0.1, (28, 2, 2)),\n"
            "          g.uniform(0.0, 1.0, (28, 2)))\n"
            "print(classify_irreducibility(ifs).tag)\n",
            preexec_fn=cap_memory)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == "StronglyIrreducible\n"


@st.composite
def families(draw):
    """Two or three maps R(a) diag(n, n r) F R(b) with operator norm n in
    [0.1, 0.6], r below 1e-3 for about half the maps (nearly singular), F
    a reflection (det < 0) for about half of them, and translations in
    [-1, 1]^2."""
    unit, turn = st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * np.pi)

    def rotation(angle):
        return np.array([[np.cos(angle), -np.sin(angle)],
                         [np.sin(angle), np.cos(angle)]])

    lins, vs = [], []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.floats(0.1, 0.6))
        r = draw(st.floats(1e-6, 1e-3) if draw(st.booleans())
                 else st.floats(1e-3, 1.0))
        flip = np.diag([1.0, -1.0 if draw(st.booleans()) else 1.0])
        lins.append(rotation(draw(turn)) @ np.diag([n, n * r]) @ flip
                    @ rotation(draw(turn)))
        vs.append((draw(unit), draw(unit)))
    try:
        return Ifs(lins, vs).to_json()
    except ValueError:
        reject()


class TestExitContract:
    """Every run ends in a documented exit code, whatever the family."""

    @settings(derandomize=True, deadline=None, max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(families())
    def test_exit_code_is_documented(self, tmp_path, monkeypatch, family):
        monkeypatch.setenv("AFFINEDIM_WORD_CAP", "100000")
        spec = tmp_path / "family.json"
        spec.write_text(json.dumps(family))
        report = tmp_path / "report.json"
        for argv in (["check"], ["dims"], ["render", "--depth", "3"],
                     ["render", "--depth", "6", "--directions"],
                     *[["verify", suite] for suite in (
                         "trans", "diml", "dima", "ahl", "gibbs", "content")]):
            code = main(argv + ["--input", str(spec), "--out", str(report)])
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONDITION,
                            EXIT_BUDGET), argv
            if report.exists():
                # render writes SVG, every other command JSON
                if argv[0] != "render":
                    strict_json(report.read_text())
                report.unlink()


class TestDerivedOnce:
    """Values the family determines are computed once per command."""

    @staticmethod
    def search_calls(monkeypatch):
        # certify_invariance is called by the multicone search alone
        calls = []
        certify = projective.certify_invariance

        def spy(cone, arrs):
            calls.append(1)
            return certify(cone, arrs)

        monkeypatch.setattr(projective, "certify_invariance", spy)
        return calls

    @pytest.mark.parametrize("argv", [["check"], ["verify", "gibbs"]])
    def test_one_multicone_search(self, tmp_path, monkeypatch, argv):
        calls = self.search_calls(monkeypatch)
        projective.find_invariant_multicone(load_input(fx("cone.json"))[0])
        one_search = len(calls)
        assert one_search >= 1
        calls.clear()
        main(argv + ["--input", fx("cone.json"),
                     "--out", str(tmp_path / "r.json")])
        assert len(calls) == one_search

    def test_check_iterates_limit_directions_once(self, tmp_path,
                                                  monkeypatch):
        # only furstenberg_directions builds a DirectionsApprox
        made = []
        approx = projective.DirectionsApprox

        def spy(depth, cone):
            made.append(depth)
            return approx(depth, cone)

        monkeypatch.setattr(projective, "DirectionsApprox", spy)
        main(["check", "--input", fx("cone.json"),
              "--out", str(tmp_path / "check.json")])
        assert len(made) == 1

    def test_dims_sweeps_the_two_scale_counts_once(self, tmp_path,
                                                   monkeypatch):
        # one sweep of 32 centres x 4 scale pairs serves both estimates
        calls = []
        count = estimators._covering_count

        def spy(*args):
            calls.append(1)
            return count(*args)

        monkeypatch.setattr(estimators, "_covering_count", spy)
        main(["dims", "--input", fx("positive_pair.json"),
              "--out", str(tmp_path / "dims.json")])
        assert len(calls) == 32 * 4

    def test_check_carpet_keeps_no_level(self, tmp_path, monkeypatch):
        # the diameter's depth-8 level of 5^8 words is walked in blocks
        loaded = []

        def spy(path):
            loaded.append(load_input(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_input", spy)
        main(["check", "--input", fx("carpet.json"),
              "--out", str(tmp_path / "check.json")])
        ifs = loaded[0][0]
        assert max(len(part) for part in kept_arrays(ifs)) <= LEVEL_BLOCK


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

    def test_dims_carpet_fits_at_base_2(self, tmp_path):
        # a carpet's base-q scales are too few above the sample
        # resolution, so its box fit runs at base 2 like any other input's
        out = tmp_path / "dims.json"
        assert main(["dims", "--input", fx("carpet.json"),
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert {"box", "tangents", "carpet_formulas"} <= set(rep)
        scales = rep["box"]["scales"]
        assert len(scales) >= 5
        assert all(a == 2.0 * b for a, b in zip(scales, scales[1:]))
        assert not any("base-" in w for w in rep["warnings"])

    def test_carpet_report(self, tmp_path):
        out = tmp_path / "carpet.json"
        assert main(["carpet", "--input", fx("carpet.json"), "--eps", "0.01",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["chain_holds"]
        assert rep["mackay_assouad"] == pytest.approx(1.4750874448465634)
        assert rep["s_eps"] == pytest.approx(1.14086082632982, abs=1e-9)

    def test_carpet_eps_reads_its_input(self, tmp_path):
        # s_eps is the input carpet's, not the 4 x 5 example's 1.14086
        spec = tmp_path / "c23.json"
        spec.write_text('{"p": 2, "q": 3, "digits": [[0, 0], [1, 1], [0, 2]]}')
        out = tmp_path / "carpet.json"
        assert main(["carpet", "--input", str(spec), "--eps", "0.01",
                     "--out", str(out)]) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["s_eps"] == 1.3699245901329027
        assert rep["chain_holds"]

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


class TestOutDirectory:
    # each command writes into a directory under its default file name; the
    # suites that skip on these inputs still write their reports
    @pytest.mark.parametrize("argv, name", [
        ("check sim3.json", "check.json"),
        ("dims cantor2.json", "dims.json"),
        ("verify diml carpet.json", "verify_diml.json"),
        ("verify dima cone.json", "verify_dima.json"),
        ("verify ahl positive_pair.json", "verify_ahl.json"),
        ("verify gibbs sim3.json", "verify_gibbs.json"),
        ("verify content positive_pair.json", "verify_content.json"),
        ("verify trans positive_pair.json", "verify_trans.json"),
        ("render carpet.json", "render.svg"),
        ("carpet carpet.json", "carpet.json"),
    ])
    def test_writes_its_default_file(self, tmp_path, argv, name):
        *command, spec = argv.split()
        assert main(command + ["--input", fx(spec),
                               "--out", str(tmp_path)]) == EXIT_OK
        assert os.listdir(tmp_path) == [name]


class TestRender:
    def test_polygon_count_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        argv = ["render", "--input", fx("carpet.json"), "--depth", "2"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("<polygon") == 25

    def test_directions_overlay(self, tmp_path):
        out = tmp_path / "d.svg"
        assert main(["render", "--input", fx("cone.json"), "--depth", "2",
                     "--directions", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.count('class="direction"') > 0
        assert text.count("<polygon") == 9
