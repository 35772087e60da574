"""Seed-independent oracles for affinedim CLI reports.

`judge` returns the failures of one invocation as (code, detail) pairs; an
empty list means the invocation passed.  Every expectation here depends
only on the fixture and the command, never on --seed, so one table serves
every benchmark seed.  Verdicts that do depend on the seed (the sampled
verify suites) are checked only against the exit-code contract.
"""

import math

EXIT_CODES = {0, 1, 2, 3}

# Closed-form affinity dimensions: similarities with ratio 1/3 (three maps
# and two maps), and the 4x5 carpet with five digits, whose root solves
# 5 * (1/4) * (1/5)^(s-1) = 1.
CLOSED_FORMS = {
    "sim3": 1.0,
    "cantor2": math.log(2.0) / math.log(3.0),
    "carpet": 1.0 + math.log(5.0 / 4.0) / math.log(5.0),
}

# Default-budget (200k words) affinity brackets reported by the seed code.
# Any affinity value the CLI reports, at any budget, must lie inside.
SEED_BRACKETS = {
    "sim3": (1.0, 1.0000000000000002),
    "cantor2": (0.6309297535714575, 0.6309297535714576),
    "positive_pair": (1.0968788421070925, 1.0978056287141726),
    "cone": (0.681332354456598, 0.6816047434817972),
    "overlap": (0.681332354456598, 0.6816047434817972),
    "carpet": (1.1386468838532138, 1.1386468838532138),
}

# brentq solves the pressure root to xtol 1e-10, so values are only
# meaningful to about that; containment allows ten times the solver step.
ROOT_TOL = 1e-9

# Bracket widths (hi - lo) the seed code reports, by (fixture, budget).
# A report may be at most 25% wider: a speed-up must not buy time with
# accuracy.  Pairs not listed are not constrained.
SEED_WIDTHS = {
    ("sim3", None): 2.220446049250313e-16,
    ("cantor2", None): 1.1102230246251565e-16,
    ("positive_pair", None): 9.267866070801e-04,
    ("cone", None): 2.723890251992e-04,
    ("overlap", None): 2.723890251992e-04,
    ("carpet", None): 0.0,
    ("sim3", 4000000): 2.220446049250313e-16,
    ("cantor2", 4000000): 1.1102230246251565e-16,
    ("positive_pair", 4000000): 1.5697749281143e-02,
    ("cone", 4000000): 2.308805113364e-04,
    ("overlap", 4000000): 2.308805113364e-04,
}
WIDTH_SLACK = 1.25
WIDTH_FLOOR = 1e-12

# Certificate verdicts of `check`: exit code, domination certificate,
# irreducibility class, proximal product found, strong separation.
CHECK_VERDICTS = {
    "sim3": (0, False, "Reducible", False, "Certified"),
    "cantor2": (0, False, "Reducible", False, "Certified"),
    "square4": (2, False, "Reducible", False, "Overlap"),
    "positive_pair": (0, True, "StronglyIrreducible", True, "Unknown"),
    "cone": (0, True, "StronglyIrreducible", True, "Certified"),
    "overlap": (0, True, "StronglyIrreducible", True, "Certified"),
    "carpet": (0, True, "Reducible", True, "Certified"),
}

# verify gibbs reads no seed, so its verdict is fixed per fixture.
GIBBS_STATUS = {"positive_pair": "Pass", "cone": "Fail", "carpet": "Pass"}

# Failures the seed code is known to produce.  They still count as failed
# invocations; they only keep `correct` true while they fail exactly this
# way.  Any other failure is unexpected.
KNOWN_DEFECTS = {
    # the README's own example: box_dim finds fewer than 5 base-5 scales
    ("dims carpet", "traceback"): "uncaught DegenerateRange",
    # at level 21 about half the products get alpha2 = 0 from cancellation
    # in a*d - b*c, which pulls the pressure root below the bracket
    ("dims --budget 4000000 positive_pair", "outside_seed_bracket"):
        "cancellation in level-21 determinants",
}


def is_known(label, code):
    return (label, code) in KNOWN_DEFECTS


def judge(inv, rc, stderr, report):
    """Failures of one finished invocation.

    inv: workloads.Invocation; rc: exit code; stderr: captured text;
    report: parsed JSON report, or None when none was written.
    """
    if "Traceback (most recent call last)" in stderr:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return [("traceback", last[:200])]
    if rc not in EXIT_CODES:
        return [("exit_code", f"exit {rc} outside the 0/1/2/3 contract")]
    if rc in (0, 2) and report is None:
        return [("no_report", f"exit {rc} without a report")]
    if report is None:
        return [("exit_code", f"exit {rc}: {stderr.strip()[-200:]}")]
    if report.get("input") != inv.fixture + ".json":
        return [("contract", f"report input {report.get('input')!r}")]
    check = {"check": _check, "dims": _dims, "verify": _verify}[inv.command]
    return check(inv, rc, report)


def _check(inv, rc, report):
    want_rc, dom, irr, prox, ssc = CHECK_VERDICTS[inv.fixture]
    got = (rc, report["domination"]["certified"],
           report["irreducibility"]["class"],
           report["strictly_affine"]["found"], report["ssc"]["separated"])
    out = []
    if got != (want_rc, dom, irr, prox, ssc):
        out.append(("verdict", f"(rc, domination, irreducibility, proximal, "
                               f"ssc) = {got}, expected "
                               f"{(want_rc, dom, irr, prox, ssc)}"))
    s = report["ssc"]
    if s["separated"] == "Certified" and not 0.0 < s["delta_lower"] \
            <= s["delta_upper"]:
        out.append(("verdict", f"certified SSC with gap bounds "
                               f"[{s['delta_lower']}, {s['delta_upper']}]"))
    return out


def _budget(inv):
    if "--budget" in inv.args:
        return int(inv.args[inv.args.index("--budget") + 1])
    return None


def affinity_failures(fixture, value, bracket=None, budget=None):
    """Oracle on one reported affinity value and, if given, its bracket."""
    out = []
    lo, hi = SEED_BRACKETS[fixture]
    if not lo - ROOT_TOL <= value <= hi + ROOT_TOL:
        out.append(("outside_seed_bracket",
                    f"affinity {value!r} outside the seed bracket "
                    f"[{lo!r}, {hi!r}]"))
    exact = CLOSED_FORMS.get(fixture)
    if exact is not None and abs(value - exact) > ROOT_TOL:
        out.append(("closed_form", f"affinity {value!r} != {exact!r}"))
    if bracket is not None:
        b_lo, b_hi = bracket
        if not b_lo <= value <= b_hi:
            out.append(("bracket", f"value {value!r} outside its own "
                                   f"bracket [{b_lo!r}, {b_hi!r}]"))
        seed_w = SEED_WIDTHS.get((fixture, budget))
        if seed_w is not None and \
                b_hi - b_lo > WIDTH_SLACK * seed_w + WIDTH_FLOOR:
            out.append(("bracket_width", f"width {b_hi - b_lo!r} over "
                                         f"{WIDTH_SLACK} x seed {seed_w!r}"))
    return out


def _dims(inv, rc, report):
    if rc != 0:
        return [("exit_code", f"dims exited {rc}")]
    aff = report["affinity"]
    out = affinity_failures(inv.fixture, aff["value"], aff["bracket"],
                            _budget(inv))
    estimates = [report["box"]["dimension"]]
    for key in ("assouad_lower_estimate", "lower_upper_estimate"):
        if key in report:
            estimates.append(report[key])
    if "tangents" in report:
        t = report["tangents"]
        estimates.extend(t["dims"])
        if not t["min_dim"] <= t["max_dim"]:
            out.append(("estimate", "tangent min_dim > max_dim"))
    if not all(0.0 <= e <= 2.0 for e in estimates):
        out.append(("estimate", f"dimension estimate outside [0, 2]: "
                                f"{estimates}"))
    if inv.fixture == "carpet":
        cf = report.get("carpet_formulas", {}).get("affinity")
        if cf is None or abs(cf - CLOSED_FORMS["carpet"]) > ROOT_TOL:
            out.append(("closed_form", f"carpet_formulas.affinity {cf!r}"))
    return out


def _verify(inv, rc, report):
    suite = inv.args[1]
    status = report.get("status")
    want_rc = {"Pass": 0, "Skipped": 0, "Fail": 2}.get(status)
    if report.get("suite") != suite or want_rc is None:
        return [("contract", f"suite {report.get('suite')!r} status "
                             f"{status!r}")]
    if rc != want_rc:
        return [("contract", f"status {status} with exit {rc}")]
    out = []
    if suite == "gibbs" and status != GIBBS_STATUS[inv.fixture]:
        out.append(("verdict", f"gibbs {status}, expected "
                               f"{GIBBS_STATUS[inv.fixture]}"))
    measured = report.get("measured", {})
    s = measured.get("affinity", measured.get("s"))
    if s is not None:
        out.extend(affinity_failures(inv.fixture, s))
    return out
