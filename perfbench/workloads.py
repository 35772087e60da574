"""The benchmark's workloads: which affinedim CLI invocations each pass runs.

Every invocation is one fresh `affinedim` process on a shipped fixture; the
benchmark's seed is appended as `--seed`.  Each workload puts a different
library layer on the critical path and leaves the others idle, so a change
to one layer has a workload that exercises it and one that bypasses it.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand arguments and the fixture passed as --input."""

    args: tuple
    fixture: str

    @property
    def label(self):
        return " ".join(self.args + (self.fixture,))

    @property
    def command(self):
        return self.args[0]

    def argv(self, seed, out):
        return list(self.args) + ["--input", self.fixture + ".json",
                                  "--seed", str(seed), "--out", out]


def _calls(args, fixtures):
    return [Invocation(tuple(args.split()), f) for f in fixtures.split()]


WORKLOADS = {
    # domination, irreducibility, SSC and POSC certificates: geometry
    # (DiameterTable, posc_check), projective search, ifs.compose_word.
    # check carpet projects 5^8 cylinder centres on 720 directions (2.27 GiB
    # peak RSS), so this workload owns peak RSS; check square4 exits 2
    # (certified overlap).
    "certify": _calls(
        "check", "sim3 cantor2 square4 positive_pair cone overlap carpet"),
    # box, two-scale and tangent estimates: mostly estimators.grid_count;
    # then the headline affinity root at high precision, where
    # Ifs.level_products and thermo.affinity_dimension do most of the work
    # on cached levels of up to 4M words (elsewhere under 2% of the work).  The
    # two halves share one pass because a pass of the 4M calls alone is
    # dominated by one call and too noisy to compare on a shared machine.
    # dims square4 is left out only for run length (81 s per call).
    "estimate": _calls("dims",
                       "sim3 cantor2 positive_pair cone overlap carpet")
    + _calls("verify diml", "positive_pair")
    + _calls("verify dima", "carpet")
    + _calls("dims --budget 4000000",
             "cone overlap sim3 cantor2 positive_pair"),
    # projected Hausdorff content (geometry.interval_content) and the
    # transfer operator (thermo.transfer_matrix, equilibrium_state).
    "spectral": _calls("verify content", "cone overlap")
    + _calls("verify ahl", "cone overlap sim3")
    + _calls("verify gibbs", "positive_pair cone carpet"),
}
