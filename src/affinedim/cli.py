"""Command-line front end: ingest planar IFS or carpet specs, run the
condition checks and dimension estimators, and emit deterministic JSON
reports and SVG renders.

Exit codes: 0 success, 1 input error, 2 condition failure, 3 budget or
convergence failure; ERROR_EXITS assigns one to each toolkit error.
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import carpets
from .config import seeded_rng, word_cap
from .errors import AffinedimError, BudgetExceeded, DegenerateRange, \
    HypothesisViolated, Inconclusive, IndexOutOfRange, InputError, \
    NotConverged, NotDominated, NotSeparated, PlacementFailed
from .estimators import assouad_two_scale, box_dim, lowest_exponent, \
    lower_two_scale, two_scale_exponents
from .geometry import content_consistency, hausdorff_content_projection, \
    posc_check, projected_gap, sampled_cylinder_directions, slice_points, \
    slice_upper_bound, ssc_check, tangent_dimension_scan, \
    transversality_derivative, transversality_tail_bound
from .ifs import Ifs, batch_singular_values, fit_level, word_label
from .projective import PI, ProjPoint, classify_irreducibility, \
    furstenberg_directions, is_dominated, strictly_affine
from .thermo import affinity_dimension, gibbs_spread_by_depth

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONDITION = 2
EXIT_BUDGET = 3

# exit code of each toolkit error that reaches main
ERROR_EXITS = {
    NotDominated: EXIT_CONDITION,
    NotSeparated: EXIT_CONDITION,
    Inconclusive: EXIT_CONDITION,
    HypothesisViolated: EXIT_CONDITION,
    DegenerateRange: EXIT_CONDITION,
    PlacementFailed: EXIT_CONDITION,
    BudgetExceeded: EXIT_BUDGET,
    NotConverged: EXIT_BUDGET,
    IndexOutOfRange: EXIT_INPUT,
}

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; remap them to the input
    error code so 2 stays reserved for condition failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _ranged(kind, ok, rule):
    """argparse type: a kind value for which ok holds; other values are
    usage errors that state the rule."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    # argparse names the type in its message for text kind() rejects
    parse.__name__ = kind.__name__
    return parse


def _depth(args, default):
    """--depth, or default when it is unset or 0; the separation checks
    need two levels."""
    if args.depth and args.depth < 2:
        raise InputError(f"--depth must be >= 2, got {args.depth}")
    return args.depth or default


def fixture_path(name):
    """Resolve a shipped fixture by file name, verifying its checksum."""
    path = os.path.join(FIXTURE_DIR, name)
    if not os.path.exists(path):
        raise InputError(f"unknown fixture {name!r}")
    with open(os.path.join(FIXTURE_DIR, "checksums.json")) as fh:
        sums = json.load(fh)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if sums.get(name) != digest:
        raise InputError(f"fixture {name!r} failed its checksum")
    return path


def load_input(path):
    """Parse an input file into (ifs, carpet_spec-or-None).

    Accepts either a map list {"maps": [{a,b,c,d,tx,ty}, ...], "ball":
    {cx,cy,r}?} or a carpet {"p", "q", "digits"}, not both; bare fixture
    names resolve against the shipped fixtures directory.
    """
    if not os.path.exists(path) and os.path.sep not in path:
        path = fixture_path(path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}")
    try:
        keys = {"maps", "p", "q", "digits"} & set(data)
        if keys == {"maps"}:
            ifs, spec = Ifs.from_json(data), None
        elif keys == {"p", "q", "digits"}:
            spec = carpets.CarpetSpec.from_json(data)
            ifs = carpets.to_ifs(spec)
        else:
            raise InputError(f"{path}: expected either a 'maps' list or a "
                             "p/q/digits carpet")
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"invalid spec in {path}: {e}")
    return ifs, spec


def _write_text(text, out, default_name):
    """Write text to stdout when out is None, else to the file out, or to
    default_name inside out when out is a directory; returns the path
    written, None for stdout."""
    if out is None:
        sys.stdout.write(text)
        return None
    path = os.path.join(out, default_name) if os.path.isdir(out) else out
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_report(report, out, default_name):
    """Write a report as strict JSON; a non-finite value raises
    DegenerateRange and nothing is written."""
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as e:
        raise DegenerateRange(f"report not written: {e}")
    return _write_text(text + "\n", out, default_name)


# ---------------------------------------------------------------------------
# check


def cmd_check(ifs, spec, args):
    depth = _depth(args, 6)
    dom = is_dominated(ifs, depth=max(depth, 3))
    report = {"domination": {
        "certified": dom["certified"],
        "fitted_tau": dom["fitted_tau"],
        "fitted_C": dom["fitted_C"],
        "multicone": np.column_stack(dom["multicone"]).tolist()
        if dom["multicone"] is not None else None,
    }}

    try:
        cls = classify_irreducibility(ifs)
        report["irreducibility"] = {"class": cls.tag, "certified": True}
    except Inconclusive as e:
        report["irreducibility"] = {"class": "Inconclusive", "certified": False,
                                    "diagnostic": str(e)}

    found, witness = strictly_affine(ifs)
    report["strictly_affine"] = {
        "found": found, "witness": word_label(witness) if witness else None}

    ssc = ssc_check(ifs, depth)
    report["ssc"] = ssc.to_json()

    try:
        posc = posc_check(ifs, depth)
        report["posc"] = posc.to_json()
    except AffinedimError as e:
        report["posc"] = {"status": "skipped", "diagnostic": str(e)}

    try:
        if not dom["certified"]:
            raise NotDominated("no multicone certificate")
        da = furstenberg_directions(ifs, depth=30)
        n_intervals = len(da.cone.widths)
        width_bound = float(da.cone.widths.max())
        report["limit_directions"] = {
            "depth": da.depth,
            "n_intervals": n_intervals,
            "width_bound": width_bound,
            "singleton_plausible": n_intervals == 1 and width_bound < 0.1,
        }
    except AffinedimError as e:
        report["limit_directions"] = {"status": "skipped",
                                      "diagnostic": str(e)}

    return report, EXIT_CONDITION if ssc.separated == "Overlap" else EXIT_OK


# ---------------------------------------------------------------------------
# dims


def cmd_dims(ifs, spec, args):
    depth = _depth(args, 6)
    warnings = []

    s_star, bracket = affinity_dimension(ifs, tol=args.tol or 1e-10,
                                         budget=args.budget or 200_000)
    report = {"affinity": {"value": s_star, "bracket": list(bracket)}}

    cloud = ifs.attractor_sample(0.002)
    cover = box_dim(cloud)
    report["box"] = cover.to_json()
    if cover.residual > 0.05:
        warnings.append(f"box-count fit residual {cover.residual:.3f} > 0.05")

    try:
        exponents = two_scale_exponents(cloud, seed=args.seed)
        report["assouad_lower_estimate"] = max(exponents, default=0.0)
        report["lower_upper_estimate"] = lowest_exponent(exponents)
    except AffinedimError as e:
        warnings.append(f"two-scale estimates skipped: {e}")

    try:
        report["slice_upper_bound"] = slice_upper_bound(ifs, depth=depth)
    except NotSeparated as e:
        report["slice_upper_bound"] = None
        warnings.append(f"slice bound skipped: {e}")

    try:
        report["tangents"] = tangent_dimension_scan(ifs, seed=args.seed)
    except (AffinedimError, ValueError) as e:
        warnings.append(f"tangent scan skipped: {e}")

    if spec is not None:
        report["carpet_formulas"] = carpets.closed_forms(spec)

    report["warnings"] = warnings
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# verify suites


def _skip(suite, reason):
    return {"suite": suite, "status": "Skipped", "reason": reason}, EXIT_OK


def _verdict(suite, passed, measured):
    return ({"suite": suite, "status": "Pass" if passed else "Fail",
             "measured": measured},
            EXIT_OK if passed else EXIT_CONDITION)


def _suite_diml(ifs, spec, args):
    try:
        cls = classify_irreducibility(ifs)
    except Inconclusive as e:
        return _skip("diml", str(e))
    if cls.tag != "StronglyIrreducible":
        return _skip("diml", f"needs strong irreducibility, got {cls.tag}")
    depth = _depth(args, 6)
    ssc = ssc_check(ifs, depth)
    while ssc.separated == "Unknown" and depth < 14:
        # inconclusive just means the cylinder balls are still too fat
        depth += 4
        ssc = ssc_check(ifs, depth)
    if ssc.separated != "Certified":
        return _skip("diml", f"needs certified separation, got {ssc.separated}")
    s_star, _ = affinity_dimension(ifs)
    if s_star <= 1.0:
        return _skip("diml", f"needs affinity dimension > 1, got {s_star}")
    cloud = ifs.attractor_sample(0.0008)
    est = lower_two_scale(cloud, seed=args.seed)
    return _verdict("diml", 0.85 <= est <= 1.15,
                    {"lower_two_scale": est, "affinity": s_star})


def _suite_dima(ifs, spec, args):
    if spec is None:
        return _skip("dima", "needs a carpet spec input")
    cloud = ifs.attractor_sample(0.002)
    assouad = assouad_two_scale(cloud, seed=args.seed)
    v = ProjPoint(PI / 2.0)     # vertical slices through column points
    best = 0.0
    xs = sorted({(j + 0.0) / spec.p for j, _ in spec.digits})
    for x0 in xs:
        pc = slice_points(ifs, v, np.array([x0, 0.0]), 0.002, 1e-4)
        if len(pc) < 32:
            continue
        try:
            d = box_dim(pc, base=float(spec.q)).dimension
        except AffinedimError:
            continue
        best = max(best, d)
    gap = abs(assouad - 1.0 - best)
    return _verdict("dima", gap <= 0.2,
                    {"assouad_two_scale": assouad, "max_slice_dim": best,
                     "gap": gap})


def _suite_ahl(ifs, spec, args):
    depth = _depth(args, 8)
    s_star, _ = affinity_dimension(ifs)
    if s_star > 1.0:
        return _skip("ahl", f"content comparison needs s <= 1, got {s_star}")
    try:
        out = content_consistency(ifs, depth, args.seed)
    except (NotDominated, NotConverged) as e:
        return _skip("ahl", str(e))
    return _verdict("ahl", out["cv"] <= 0.2, {"cv": out["cv"], "s": out["s"]})


def _suite_gibbs(ifs, spec, args):
    s_star, _ = affinity_dimension(ifs)
    depths = list(range(4, fit_level(ifs.n_maps, 8, 200_000, 3) + 1))
    if len(depths) < 2:
        return _skip("gibbs", "alphabet too large for the depth ladder")
    try:
        spreads = gibbs_spread_by_depth(ifs, s_star, depths)
    except (NotDominated, NotConverged) as e:
        return _skip("gibbs", str(e))
    vals = [spreads[d] for d in depths]
    growth = max(b / a for a, b in zip(vals, vals[1:]))
    ok = growth < 1.05 or all(abs(v - 1.0) < 1e-9 for v in vals)
    return _verdict("gibbs", ok,
                    {"s": s_star, "spreads": {str(d): spreads[d]
                                              for d in depths},
                     "max_growth_per_depth": growth})


def _suite_content(ifs, spec, args):
    s_star, _ = affinity_dimension(ifs)
    if s_star > 1.0:
        return _skip("content", f"needs s <= 1, got {s_star}")
    try:
        idx, thetas = sampled_cylinder_directions(ifs, 4, 12, args.seed)
    except NotDominated as e:
        return _skip("content", str(e))
    drops = {}
    for k, theta in zip(idx, thetas):
        v = ProjPoint(float(theta))
        v6 = hausdorff_content_projection(ifs, v, s_star, 6).value
        v10 = hausdorff_content_projection(ifs, v, s_star, 10).value
        drops[word_label(ifs.word_from_flat(int(k), 4))] = 1.0 - v10 / v6
    worst = max(drops.values())
    return _verdict("content", worst >= 0.30,
                    {"s": s_star, "max_drop": worst, "drops": drops})


def _suite_trans(ifs, spec, args):
    mats, ts = ifs.lins, ifs.vs
    a_max = float(batch_singular_values(mats)[0].max())
    if a_max >= 0.5:
        return _skip("trans", "needs max matrix norm < 1/2")
    rng = seeded_rng(args.seed)
    n = ifs.n_maps
    depth = 30
    tail = transversality_tail_bound(mats, depth)
    h = 1e-6
    worst_err = 0.0
    worst_val = math.inf
    for _ in range(10):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        w = np.array([math.cos(theta), math.sin(theta)])
        i0, j0 = rng.choice(n, size=2, replace=False) + 1
        wi = (int(i0),) + tuple(int(t) + 1 for t in rng.integers(0, n, 2))
        wj = (int(j0),) + tuple(int(t) + 1 for t in rng.integers(0, n, 2))
        val = transversality_derivative(mats, w, wi, wj, depth)
        # central difference in the first-letter translation along w
        def gap(shift):
            ts2 = list(ts)
            ts2[wi[0] - 1] = np.asarray(ts[wi[0] - 1]) + shift * w
            return projected_gap(mats, ts2, w, wi, wj, depth)
        fd = abs(gap(h) - gap(-h)) / (2.0 * h)
        worst_err = max(worst_err, abs(val - fd))
        worst_val = min(worst_val, val)
    # both series tails are geometric, so the leading identity term can
    # lose at most 2 a/(1-a) of its unit size
    lower = max(0.0, 1.0 - 2.0 * a_max / (1.0 - a_max))
    ok = worst_err <= 1e-6 and worst_val >= lower - tail
    return _verdict("trans", ok,
                    {"max_fd_error": worst_err, "min_value": worst_val,
                     "guaranteed_lower": lower, "tail_bound": tail})


# the runner of each suite and the options it reads
SUITES = {
    "diml": (_suite_diml, ("--depth",)),
    "dima": (_suite_dima, ()),
    "ahl": (_suite_ahl, ("--depth",)),
    "gibbs": (_suite_gibbs, ()),
    "content": (_suite_content, ()),
    "trans": (_suite_trans, ()),
}


# ---------------------------------------------------------------------------
# render


def _fmt(x):
    return f"{x:.6f}"


def cmd_render(ifs, spec, args):
    depth = args.depth or 3
    c, r = ifs.ball_center, ifs.ball_radius
    corners = np.array([[c[0] - r, c[1] - r], [c[0] + r, c[1] - r],
                        [c[0] + r, c[1] + r], [c[0] - r, c[1] + r]])
    # polygon vertices: the images of the bounding square, in word order
    polys = ifs.level_images(corners[None], depth)

    allp = polys.reshape(-1, 2)
    x0, y0 = allp.min(axis=0)
    x1, y1 = allp.max(axis=0)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad

    def svg_xy(p):
        # flip y so the mathematical orientation survives the SVG axis
        return _fmt(p[0]), _fmt(y0 + y1 - p[1])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(x1 - x0)} {_fmt(y1 - y0)}" '
        f'width="640" height="640">',
    ]
    for poly in polys:
        coords = " ".join(",".join(svg_xy(p)) for p in poly)
        lines.append(f'<polygon class="cylinder" points="{coords}" '
                     'fill="#1f3a5f" fill-opacity="0.35" stroke="none"/>')
    if args.directions:
        da = furstenberg_directions(ifs, depth=20)
        span = 0.6 * max(x1 - x0, y1 - y0)
        cx, cy = ifs.ball_center
        for angle in da.sample_angles(3):
            dx, dy = math.cos(angle), math.sin(angle)
            a = svg_xy((cx - span * dx, cy - span * dy))
            b = svg_xy((cx + span * dx, cy + span * dy))
            lines.append(f'<line class="direction" x1="{a[0]}" y1="{a[1]}" '
                         f'x2="{b[0]}" y2="{b[1]}" stroke="#b22222" '
                         'stroke-width="0.002"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------------------
# carpet


def cmd_carpet(ifs, spec, args):
    if spec is None:
        raise InputError("carpet command needs a p/q/digits input")
    report = {
        "p": spec.p, "q": spec.q, "n_maps": spec.n_maps,
        "column_counts": spec.column_counts(),
        "uniform_fibers": carpets.uniform_fibers(spec),
        **carpets.closed_forms(spec),
    }
    if args.eps is not None:
        fix = carpets.example_fixture(spec, args.eps)
        report["s_eps"] = fix["s_eps"]
        report["chain_holds"] = bool(
            report["fraser_lower"] < report["affinity"] <= fix["s_eps"]
            < report["mackay_assouad"])
    return report, EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = _Parser(prog="affinedim",
                     description="planar self-affine set analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--depth": dict(type=_ranged(int, lambda d: d >= 0, "must be >= 0")),
        "--budget": dict(type=_ranged(int, lambda b: b >= 0, "must be >= 0")),
        "--tol": dict(type=_ranged(float, lambda t: 0.0 <= t < math.inf,
                                   "must be finite and >= 0")),
        "--directions": dict(action="store_true",
                             help="overlay the limit-direction fan"),
        "--eps": dict(type=_ranged(float, lambda e: 0.0 < e < 0.5,
                                   "must be in (0, 0.5)"),
                      help="also build the augmented example at this eps"),
    }

    def command(parent, name, summary, run, report_name, *flags):
        p = parent.add_parser(name, help=summary)
        p.set_defaults(run=run, report_name=report_name)
        p.add_argument("--input", required=True,
                       help="IFS or carpet JSON file, or a fixture name")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        # every command takes a seed, read or not, so one argument list
        # can run any command at a given seed
        p.add_argument("--seed", default=0,
                       type=_ranged(int, lambda s: 0 <= s < 2 ** 128,
                                    "must be in [0, 2^128)"))
        p.add_argument("--out", default=None,
                       help="output file or directory (default stdout)")

    command(sub, "check", "condition certificates", cmd_check, "check.json",
            "--depth")
    command(sub, "dims", "dimension table", cmd_dims, "dims.json",
            "--depth", "--budget", "--tol")
    verify = sub.add_parser("verify", help="named acceptance suite")
    suites = verify.add_subparsers(dest="suite", required=True)
    for suite, (run, flags) in sorted(SUITES.items()):
        command(suites, suite, f"the {suite} suite", run,
                f"verify_{suite}.json", *flags)
    command(sub, "render", "SVG of depth-n cylinders", cmd_render,
            "render.svg", "--depth", "--directions")
    command(sub, "carpet", "carpet closed forms", cmd_carpet, "carpet.json",
            "--eps")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a malformed word cap stops the command before any work
        word_cap()
        ifs, spec = load_input(args.input)
        report, code = args.run(ifs, spec, args)
        if isinstance(report, str):
            _write_text(report, args.out, args.report_name)
        else:
            report.update(command=args.command,
                          input=os.path.basename(args.input))
            write_report(report, args.out, args.report_name)
        return code
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except AffinedimError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return ERROR_EXITS[type(e)]


if __name__ == "__main__":
    sys.exit(main())
