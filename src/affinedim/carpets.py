"""Grid-aligned self-affine carpets: closed-form dimensions and the
augmented example, a carpet with an extra positive matrix.
"""

import json
import math

import numpy as np

from .errors import PlacementFailed
from .estimators import Frozen
from .ifs import Ifs, batch_singular_values, log_svf
from .geometry import ssc_check
from .roots import brentq


class CarpetSpec(Frozen):
    """Subdivision p x q (q > p >= 2) with a chosen digit set of cells
    (j, k), j indexing columns and k rows, held sorted.  Two specs are
    equal when their subdivisions and digit sets are."""

    __slots__ = ("p", "q", "digits")

    def __init__(self, p, q, digits):
        if not (isinstance(p, int) and isinstance(q, int)):
            raise TypeError("p and q must be integers")
        if not q > p >= 2:
            raise ValueError("need q > p >= 2")
        digs = tuple(sorted((int(j), int(k)) for j, k in digits))
        if len(set(digs)) != len(digs):
            raise ValueError("digits must be distinct")
        for j, k in digs:
            if not (0 <= j < p and 0 <= k < q):
                raise ValueError(f"digit {(j, k)} out of range")
        if len(digs) < 1:
            raise ValueError("need at least one digit")
        for name, value in zip(self.__slots__, (p, q, digs)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not CarpetSpec:
            return NotImplemented
        return (self.p, self.q, self.digits) \
            == (other.p, other.q, other.digits)

    def __hash__(self):
        return hash((self.p, self.q, self.digits))

    @property
    def n_maps(self):
        return len(self.digits)

    def column_counts(self):
        out = [0] * self.p
        for j, _ in self.digits:
            out[j] += 1
        return out

    def to_json(self):
        return {"p": self.p, "q": self.q,
                "digits": [list(d) for d in self.digits]}

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        return cls(int(data["p"]), int(data["q"]),
                   tuple(tuple(d) for d in data["digits"]))


def _grid_matrix(spec):
    return np.array([[1.0 / spec.p, 0.0], [0.0, 1.0 / spec.q]])


def to_ifs(spec):
    return Ifs(np.broadcast_to(_grid_matrix(spec), (spec.n_maps, 2, 2)),
               [(j / spec.p, k / spec.q) for j, k in spec.digits])


def mackay_assouad(spec):
    """Column count term plus the heaviest fiber term."""
    n = spec.column_counts()
    cols = sum(1 for c in n if c)
    return math.log(cols) / math.log(spec.p) \
        + math.log(max(n)) / math.log(spec.q)


def mcmullen_hausdorff(spec):
    n = spec.column_counts()
    e = math.log(spec.p) / math.log(spec.q)
    return math.log(sum(c ** e for c in n if c)) / math.log(spec.p)


def fraser_lower(spec):
    """Column count term plus the lightest nonempty fiber term."""
    n = [c for c in spec.column_counts() if c]
    return math.log(len(n)) / math.log(spec.p) \
        + math.log(min(n)) / math.log(spec.q)


def uniform_fibers(spec):
    n = [c for c in spec.column_counts() if c]
    return len(set(n)) == 1


def carpet_affinity(spec):
    """Piecewise closed form for the affinity dimension of the carpet
    tuple: log N / log p while the first singular value dominates, then
    1 + log(N/p)/log q once every column direction is exhausted."""
    n = spec.n_maps
    if n <= spec.p:
        return math.log(n) / math.log(spec.p)
    return 1.0 + math.log(n / spec.p) / math.log(spec.q)


def closed_forms(spec):
    """The carpet's closed-form dimensions by report key."""
    return {"affinity": carpet_affinity(spec),
            "mackay_assouad": mackay_assouad(spec),
            "mcmullen_hausdorff": mcmullen_hausdorff(spec),
            "fraser_lower": fraser_lower(spec)}


EXAMPLE_SPEC = CarpetSpec(4, 5, ((0, 0), (0, 2), (0, 4), (2, 0), (3, 3)))

def s_eps_root(spec, b):
    """Root of log(N phi^s(diag(1/p,1/q)) + phi^s(B)) = 0 on [0, 2] for
    a 2x2 matrix B, with both terms taken in logs."""
    a1, a2 = batch_singular_values(np.stack([_grid_matrix(spec), b]))
    la1, la2 = np.log(a1), np.log(a2)
    log_n = math.log(spec.n_maps)

    def f(s):
        log_a, log_b = log_svf(la1, la2, s)
        return float(np.logaddexp(log_n + log_a, log_b))

    return brentq(f, 1e-9, 2.0, xtol=1e-12)


def example_fixture(spec, eps):
    """The carpet of spec plus the small positive matrix
    B = eps [[0.6, 0.3], [0.2, 0.5]], fixed at the center of the first
    empty grid cell (emptiest column first, in a column nearest the middle
    row) where `ssc_check` certifies the first-level pieces disjoint.

    Returns the augmented system together with the root s_eps of the
    associated pressure equation; PlacementFailed when no cell serves.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must be in (0, 0.5)")
    b = eps * np.array([[0.6, 0.3], [0.2, 0.5]])
    base = to_ifs(spec)
    counts = spec.column_counts()
    cells = sorted(
        ((j, k) for j in range(spec.p) for k in range(spec.q)
         if (j, k) not in spec.digits),
        key=lambda c: (counts[c[0]], c[0], abs(c[1] - (spec.q - 1) / 2)))
    for j, k in cells:
        fix = ((j + 0.5) / spec.p, (k + 0.5) / spec.q)
        # translation so the fixed point sits at the cell center
        tx = fix[0] - b[0, 0] * fix[0] - b[0, 1] * fix[1]
        ty = fix[1] - b[1, 0] * fix[0] - b[1, 1] * fix[1]
        cand = Ifs(np.concatenate([base.lins, b[None]]),
                   np.concatenate([base.vs, [(tx, ty)]]))
        if ssc_check(cand, 5).separated == "Certified":
            return {"ifs": cand, "s_eps": s_eps_root(spec, b)}
    raise PlacementFailed("no disjoint cell found for the extra map")
