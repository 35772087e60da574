"""Thermodynamic formalism for the singular value cocycle.

Finite-level pressure sums, the affinity dimension as the pressure root
with an honest bracket, the weighted transfer operator discretized on
cylinders, and the resulting equilibrium cylinder weights with their
Gibbs-ratio diagnostics.
"""

import math
from typing import NamedTuple

import numpy as np

from .config import word_cap
from .errors import DegenerateRange, NotConverged, NotDominated
from .ifs import LEVEL_BLOCK, derived, det2, fit_level, log_svf, mul2, \
    pull_back
from .projective import ProjPoint, complement, find_invariant_multicone
from .roots import brentq

# power iteration of equilibrium_state: most steps, eigenvalue tolerance
EIG_ITERS = 2000
EIG_TOL = 1e-12
# most words of a chunk of the pressure sum: the size of its one buffer
# and of its suffix table of letter sums
PRESSURE_CHUNK = 4 * LEVEL_BLOCK


class PressureSample(NamedTuple):
    s: float
    depth: int
    value: float


def pressure(ifs, s, n):
    """Exact finite-level pressure (1/n) log sum of phi^s over level n."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return PressureSample(s, n, _pressure_fn(ifs, n)(s))


def _pressure_fn(ifs, n):
    """p(s), the level-n pressure, over the log alpha1 of level n, which
    lives as long as p; the level's products are never held whole, nor a
    level of log alpha2."""
    return _log_sum_fn(ifs.level_log_alpha1(n),
                       np.log(np.abs(det2(ifs.lins))), n)


def _letter_sums(log_dets, k):
    """The sums of log_dets over the letters of every word of length k,
    in lexicographic word order, right-nested: L(iw) = log_dets[i] +
    L(w), as `Ifs._level_walk` nests det A_iw = det A_i * det A_w."""
    sums = np.zeros(1)
    for _ in range(k):
        sums = np.add.outer(log_dets, sums).reshape(-1)
    return sums


def _log_sum_fn(la1, log_dets, n):
    """p(s) = (1/n) log sum of phi^s over the words of level n, from
    their log alpha1 la1 in lexicographic word order and the log|det| of
    the letters.  alpha1 alpha2 = |det A_w|, and det is multiplicative, so
    log alpha2 is the letter sum of log|det| less log alpha1.  For s > 1,
    where phi^s reads it, it is rebuilt in one buffer, a chunk of at most
    PRESSURE_CHUNK words that share a prefix at a time, as the prefix's
    letter sum plus the suffixes' (`_letter_sums`) less log alpha1; for
    s <= 1 the buffer takes s log alpha1 alone.  Each chunk is summed
    shifted by its own max and joined to the running sum in the same
    pass.  Each s is summed once: the root solvers ask again for the ends
    of their bracket."""
    k = fit_level(len(log_dets), n, PRESSURE_CHUNK, 1)
    suffix, prefix = _letter_sums(log_dets, k), _letter_sums(log_dets, n - k)
    buf = np.empty(len(suffix))
    seen = {}

    def p(s):
        if s not in seen:
            m, total = -math.inf, 0.0
            for lead, start in zip(prefix, range(0, len(la1), len(buf))):
                words = la1[start:start + len(buf)]
                la2 = None
                if s > 1.0:
                    la2 = np.add(lead, suffix, out=buf)
                    la2 -= words
                logs = log_svf(words, la2, s, out=buf)
                top = logs.max()
                logs -= top
                chunk = np.exp(logs, out=logs).sum()
                if top > m:
                    m, total = top, total * math.exp(m - top) + chunk
                else:
                    total += chunk * math.exp(top - m)
            seen[s] = (m + math.log(total)) / n
        return seen[s]
    return p


def is_similarity(ifs):
    """True when every linear part is a scaled rotation [[a, -b], [b, a]]
    or reflection [[a, b], [b, -a]] to within 1e-12 of its Frobenius norm,
    read from the entries: alpha1 - alpha2 from batch_singular_values
    cancels to rounding noise on such a map."""
    a, b, c, d = ifs.lins.reshape(-1, 4).T
    tol = 1e-12 * np.sqrt(a * a + b * b + c * c + d * d)
    rotation = (np.abs(a - d) < tol) & (np.abs(b + c) < tol)
    reflection = (np.abs(a + d) < tol) & (np.abs(b - c) < tol)
    return bool((rotation | reflection).all())


@derived
def affinity_dimension(ifs, tol=1e-10, budget=200_000):
    """Root of the finite-level pressure at the largest affordable level.

    The level-n pressure dominates the limit, so its root is an upper
    bound; the lower bracket edge comes from two-point Richardson
    extrapolation against the half-depth level.  A similarity family
    reads level 1 alone, whatever the budget: phi^s is submultiplicative,
    so the level-1 root is an upper bound, and alpha1(A_w) >= alpha2(A_w)
    >= prod alpha2(A_i) makes the root of log sum alpha2(A_i)^s a lower
    one.  Returns (s_star, (lo, hi)); the memo keeps these three floats,
    and the log singular values of the levels live only while the roots
    are solved.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def solve(p):
        a, b = 0.0, 4.0
        if p(a) <= 0:
            return 0.0
        if p(b) >= 0:
            raise DegenerateRange("pressure does not change sign on [0, 4]")
        return brentq(p, a, b, xtol=tol)

    if is_similarity(ifs):
        root_hi = solve(_pressure_fn(ifs, 1))
        # the level-1 sum at alpha1 = alpha2 = alpha2(A_i)
        la2 = np.log(ifs.level_singular_values(1)[1])
        lo, hi = sorted((solve(_log_sum_fn(la2, 2.0 * la2, 1)), root_hi))
        return root_hi, (lo, hi)
    # the deepest level of at least 2 that fits: N >= 2, so no level
    # deeper than the budget's bit length does
    budget = min(budget, word_cap())
    n_hi = fit_level(ifs.n_maps, max(budget.bit_length(), 2), budget, 2)
    n_lo = max(n_hi // 2, 1)
    p_hi = _pressure_fn(ifs, n_hi)
    p_lo = _pressure_fn(ifs, n_lo)
    root_hi = solve(p_hi)           # upper bound for the true root
    w = n_hi - n_lo

    def p_extrap(s):
        return (n_hi * p_hi(s) - n_lo * p_lo(s)) / w

    try:
        root_lo = solve(p_extrap)
    except DegenerateRange:
        root_lo = root_hi
    lo, hi = sorted((root_lo, root_hi))
    return root_hi, (lo, hi)


class EqState(NamedTuple):
    """Discretized transfer-operator eigendata on depth-m cylinders.

    h and nu are indexed by the flat lexicographic cylinder order of
    Ifs.level_products; h is positive with sup norm 1 scaling adjusted so
    the pairing <h, nu> is 1, nu is a probability vector."""

    s: float
    depth: int
    h: np.ndarray
    nu: np.ndarray
    eigenvalue: float
    iterations: int


@derived
def _cylinder_directions(ifs, m):
    """Limit direction estimate for each depth-m cylinder w: the inverse
    product A_{w1}^{-1} ... A_{wm}^{-1} applied to a direction in the
    complement of the invariant cone, block by block from the inverse
    walk of `Ifs._level_walk`.  For similarity tuples every direction
    carries the same norm, so the zero angle is returned."""
    if is_similarity(ifs):
        return np.zeros(ifs.n_maps ** m)
    cone = find_invariant_multicone(ifs)
    if cone is None:
        raise NotDominated("transfer operator needs a certified multicone")
    gaps = complement(cone)
    v0 = ProjPoint(gaps.starts[0] + gaps.widths[0] / 2.0).vector
    thetas = np.empty(ifs._level_size(m))
    for start, prods, _ in ifs._level_walk(m, np.linalg.inv(ifs.lins)):
        vecs = mul2(prods, v0[:, None])[..., 0]
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        np.arctan2(vecs[:, 1], vecs[:, 0],
                   out=thetas[start:start + len(vecs)])
    return np.mod(thetas, math.pi, out=thetas)


class TransferOperator(NamedTuple):
    """Sparse operator on depth-m cylinders held as its (N, N^m) weight
    table: (L f)(w) sums vals[i, w] * f(i w|_m) over the letters i, and
    the cylinder i w|_m has index i * N^(m-1) + w // N.  The sums run in
    ascending letter order and the adjoint's in ascending w, the orders of
    a compressed-row matrix and of its transpose."""

    vals: np.ndarray

    @property
    def shape(self):
        size = self.vals.shape[1]
        return size, size

    @property
    def nnz(self):
        return self.vals.size

    def __matmul__(self, f):
        n = len(self.vals)
        out = np.zeros(self.shape[0])
        for vals, part in zip(self.vals, f.reshape(n, -1)):
            out += vals * np.repeat(part, n)
        return out

    def adjoint(self, g):
        """L^T g: entry i * N^(m-1) + q sums vals[i, w] * g[w] over the
        N cylinders w = q N + r."""
        n = len(self.vals)
        terms = (self.vals * g).reshape(n, -1, n)
        out = np.zeros(terms.shape[:2])
        for r in range(n):
            out += terms[:, :, r]
        return out.ravel()


def transfer_matrix(ifs, s, m):
    """Sparse depth-m cylinder discretization of the weighted transfer
    operator: (Lf)(w) = sum_i exp(g_s(i w)) f((i w)|_m)."""
    ifs._level_size(m)          # raises before a level over the word cap
    thetas = _cylinder_directions(ifs, m)
    # g_s(i w) pairs letter i with the direction of cylinder w
    perp = thetas + math.pi / 2.0
    u = np.stack([np.cos(perp), np.sin(perp)], axis=1)
    vals = []
    for a, det in zip(ifs.lins, det2(ifs.lins)):
        # weight at log alpha1 := log|A^T u|, log alpha2 := log|det A| - that
        la1 = np.log(np.linalg.norm(pull_back(a, u), axis=1))
        vals.append(np.exp(log_svf(la1, math.log(abs(det)) - la1, s)))
    return TransferOperator(np.stack(vals))


def equilibrium_state(ifs, s, m):
    """Power iteration for the discretized transfer operator's leading
    eigendata: eigenfunction h (forward), eigenmeasure nu (adjoint),
    eigenvalue lambda.  The iteration stops once lambda moves by less
    than EIG_TOL and fails after EIG_ITERS steps.  Period-2 oscillations
    are averaged out."""
    L = transfer_matrix(ifs, s, m)
    size = L.shape[0]
    h = np.ones(size)
    nu = np.full(size, 1.0 / size)
    lam_prev = lam_prev2 = None
    lam = None
    it = 0
    for it in range(1, EIG_ITERS + 1):
        h2 = L @ h
        lam_h = h2.max()
        h_new = h2 / lam_h
        nu2 = L.adjoint(nu)
        lam_nu = nu2.sum()
        nu_new = nu2 / lam_nu
        lam = 0.5 * (lam_h + lam_nu)
        if lam_prev is not None and abs(lam - lam_prev) < EIG_TOL:
            h, nu = h_new, nu_new
            break
        if lam_prev2 is not None and abs(lam - lam_prev2) < EIG_TOL \
                and abs(lam - lam_prev) > EIG_TOL:
            # period-2 oscillation: average consecutive iterates
            h_new = 0.5 * (h + h_new)
            nu_new = 0.5 * (nu + nu_new)
            nu_new /= nu_new.sum()
        h, nu = h_new, nu_new
        lam_prev2, lam_prev = lam_prev, lam
    else:
        raise NotConverged(
            f"eigenvalue not stable after {EIG_ITERS} iterations")
    if h.min() <= 0:
        raise NotConverged("eigenfunction lost positivity")
    h = h / float(h @ nu)
    return EqState(s, m, h, nu, float(lam), it)


class GibbsWeights(NamedTuple):
    depth: int
    weights: np.ndarray
    s: float
    gibbs_spread: float


def kaenmaki_weights(ifs, depth, s):
    """Cylinder weights of the equilibrium state at s, the pressure root:
    proportional to h * nu on depth-`depth` cylinders.  The Gibbs ratio
    weight / phi^s is taken in logs and its max/min spread reported."""
    state = equilibrium_state(ifs, s, m=depth)
    w = state.h * state.nu
    w = w / w.sum()
    logs = [np.log(x, out=x) for x in ifs.level_singular_values(depth)]
    lr = np.log(w) - log_svf(*logs, s)
    return GibbsWeights(depth, w, s, float(np.exp(lr.max() - lr.min())))


def gibbs_spread_by_depth(ifs, s, depths):
    """Gibbs ratio spread per depth, reusing one equilibrium state per
    depth; feeds the bounded-spread stability check."""
    out = {}
    for d in depths:
        gw = kaenmaki_weights(ifs, d, s=s)
        out[d] = gw.gibbs_spread
    return out
