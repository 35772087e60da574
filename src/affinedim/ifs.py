"""Planar affine iterated function systems and their symbolic dynamics.

An `Ifs` is a family of contractive invertible affine maps
x -> A_i x + v_i held as two arrays, the (N,2,2) linear parts `lins` and
the (N,2) translations `vs`; there is no matrix or map object.  On these
arrays sit the batched 2x2 kernels, finite words over the map alphabet,
and the cylinder frontier `Ifs.frontier`, which gives the scale-indexed
stopping sets (prefix-free partitions of the cylinder tree) for any stop
rule.  A value the family determines is computed once per family and word
cap through the memo `derived`.
"""

from dataclasses import dataclass
import functools
import json
import math

import numpy as np

from .config import word_cap
from .errors import BudgetExceeded, IndexOutOfRange
from .estimators import PointCloud

_DET_EPS = 1e-14
# most words in one block of `Ifs.level_blocks` (more only for level-1
# blocks of a family with more maps than this)
LEVEL_BLOCK = 2 ** 14


def batch_singular_values(mats, det=None):
    """(alpha1, alpha2) arrays for a (k,2,2) stack of matrices, from the
    eigenvalues of A^T A.  det, when given, holds the determinants and
    replaces a*d - b*c, which cancels on long products."""
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 0]
    d = mats[:, 1, 1]
    # trace and determinant of A^T A
    t = a * a + b * b + c * c + d * d
    if det is None:
        det = a * d - b * c
    disc = np.maximum(t * t - 4.0 * det * det, 0.0)
    a1 = np.sqrt(0.5 * (t + np.sqrt(disc)))
    # alpha2 via |det|/alpha1 keeps the product identity exact
    a2 = np.abs(det) / a1
    return a1, a2


def log_svf(la1, la2, s, out=None):
    """log phi^s from log alpha1 and log alpha2: the three branches of the
    singular value function in the log domain, s * la1,
    la1 + (s - 1) * la2 and (s / 2) * (la1 + la2), written into out when
    it is given."""
    if s <= 1.0:
        return np.multiply(s, la1, out=out)
    if s <= 2.0:
        out = np.multiply(s - 1.0, la2, out=out)
        return np.add(la1, out, out=out)
    out = np.add(la1, la2, out=out)
    return np.multiply(0.5 * s, out, out=out)


def mul2(left, right, out=None):
    """Products left @ right over broadcast stacks of 2x2 matrices (shape
    (..., 2, 2)) by 2x2 matrices or 2x1 columns (shape (..., 2, k)).

    Each output entry is two whole-array multiplies and an add, written
    into out (a new C-ordered array when it is None) through views of its
    entries.  The final += 0.0 turns a sum of two -0.0 products into +0.0,
    as a sum accumulated from +0.0 gives, so the result equals np.einsum's
    bit for bit whatever the layout of out.
    """
    shape = np.broadcast_shapes(left.shape[:-2], right.shape[:-2])
    if out is None:
        out = np.empty(shape + (2, right.shape[-1]))
    tmp = np.empty(shape)
    for p in range(2):
        for r in range(right.shape[-1]):
            entry = out[..., p, r]
            np.multiply(left[..., p, 0], right[..., 0, r], out=entry)
            np.multiply(left[..., p, 1], right[..., 1, r], out=tmp)
            entry += tmp
    out += 0.0
    return out


def center_step(lins, vs, pts):
    """Centres p_iw = A_i p_w + v_i of the cylinders phi_iw(B) from the
    centres p_w of the cylinders phi_w(B), over broadcast stacks: lins of
    shape (..., 2, 2), vs and pts of shape (..., 2)."""
    return mul2(lins, pts[..., None])[..., 0] + vs


def word_products(lins, n):
    """The (N^n, 2, 2) products A_w of all words of length n over the
    stack lins, in lexicographic word order (first letter most significant).

    Each level is held entry-major: the (N^k, 2, 2) view of a (2, 2, N^k)
    buffer, so every entry that `mul2` writes and `batch_singular_values`
    reads is one contiguous row.  The values are those of a C-ordered
    stack; a stacked @ rounds differently on this layout, so copy it with
    np.ascontiguousarray before one.  A level of at most LEVEL_BLOCK words
    is the one block of `Ifs.level_blocks`."""
    prods = np.eye(2)[None]
    for _ in range(n):
        level = _entry_major(len(lins) * len(prods))
        mul2(lins[:, None], prods[None],
             out=level.reshape(len(lins), len(prods), 2, 2))
        prods = level
    return prods


def _entry_major(size):
    """An empty (size, 2, 2) stack whose four entries are contiguous rows."""
    return np.empty((2, 2, size)).transpose(2, 0, 1)


def derived(fn):
    """Memo for a value that a family determines: fn(ifs, *args, **kwargs)
    is computed once and kept in ifs._cache under the arguments and the
    word cap, so a lowered cap still raises where a value was kept.
    Exceptions are not kept, and every array kept (alone or in a tuple) is
    made read-only."""
    @functools.wraps(fn)
    def memo(ifs, *args, **kwargs):
        key = (fn, args, tuple(sorted(kwargs.items())), word_cap())
        if key not in ifs._cache:
            value = fn(ifs, *args, **kwargs)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            ifs._cache[key] = value
        return ifs._cache[key]
    return memo


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet {1, ..., N}; empty word allowed."""

    indices: tuple = ()

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if any(i < 1 for i in idx):
            raise IndexOutOfRange(f"letters must be >= 1, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __str__(self):
        return "".join(str(i) for i in self.indices) or "-"


class Ifs:
    """Contractive invertible affine maps x -> A_i x + v_i, i = 1..N, held
    as the read-only (N,2,2) stack `lins` of linear parts A_i and (N,2)
    stack `vs` of translations v_i, with an invariant bounding ball B:
    phi_i(B) inside B for every map.  The ball is fitted when not given.

    Raises ValueError for fewer than two maps, a non-finite entry, a
    linear part with |det| <= 1e-14 * (largest squared row norm), a map
    that is not contractive, and a ball that is not invariant.
    """

    def __init__(self, lins, vs, ball_center=None, ball_radius=None):
        if len(lins) < 2:
            raise ValueError("need at least two maps")
        for k, (((a, b), (c, d)), v) in enumerate(zip(lins, vs), 1):
            if not all(map(math.isfinite, (a, b, c, d, *v))):
                raise ValueError(f"map {k} has a non-finite entry")
            det = a * d - b * c
            if abs(det) <= _DET_EPS * max(a * a + b * b, c * c + d * d,
                                          1e-300):
                raise ValueError(f"map {k} is singular: determinant {det} "
                                 "too close to zero")
        fit = ball_center is None or ball_radius is None
        if not fit and not all(map(math.isfinite,
                                   (*ball_center, ball_radius))):
            raise ValueError("the ball has a non-finite entry")
        self.lins = np.array(lins, dtype=float)
        self.vs = np.array(vs, dtype=float)
        if self.vs.shape != (len(self.lins), 2):
            raise ValueError("need one translation (tx, ty) per map")
        a1 = batch_singular_values(self.lins)[0]
        expanding = np.flatnonzero(~(a1 < 1.0))
        if len(expanding):
            raise ValueError(f"map {expanding[0] + 1} is not contractive")
        if fit:
            ball_center, ball_radius = self._fit_ball(a1)
        self.ball_center = np.asarray(ball_center, dtype=float)
        self.ball_radius = float(ball_radius)
        self._check_ball(a1)
        self.lins.flags.writeable = self.vs.flags.writeable = False
        self._cache = {}

    @property
    def n_maps(self):
        return len(self.lins)

    def _drifts(self, x):
        """|phi_i(x) - x| for every map, one map at a time: the norm of a
        stack of vectors rounds differently, and the fitted ball enters
        every report."""
        return [np.linalg.norm(x @ lin.T + v - x)
                for lin, v in zip(self.lins, self.vs)]

    def _fit_ball(self, a1):
        fixed = np.linalg.solve(np.eye(2) - self.lins, self.vs[..., None])
        center = fixed[..., 0].mean(axis=0)
        r = max(d / (1.0 - a) for d, a in zip(self._drifts(center), a1))
        return center, max(r, 1e-12) * 1.0000001

    def _check_ball(self, a1):
        c, r = self.ball_center, self.ball_radius
        for k, (d, a) in enumerate(zip(self._drifts(c), a1), 1):
            if d + a * r > r * (1.0 + 1e-9):
                raise ValueError(
                    f"bounding ball is not invariant under map {k}")

    # -- symbolic operations ------------------------------------------------

    def compose_word(self, word):
        """(A_w, t_w) with phi_w(x) = A_w x + t_w for
        phi_w = phi_{w1} o ... o phi_{wn}; the empty word gives the
        identity."""
        lin, v = np.eye(2), np.zeros(2)
        for letter in word:
            if not 1 <= letter <= self.n_maps:
                raise IndexOutOfRange(
                    f"letter {letter} out of range 1..{self.n_maps}")
            lin, v = lin @ self.lins[letter - 1], lin @ self.vs[letter - 1] + v
        return lin, v

    # -- level products -----------------------------------------------------

    def _level_size(self, n):
        """N^n, the words of level n; raises before a level that is
        negative or over the word cap is allocated."""
        if n < 0:
            raise ValueError("level must be nonnegative")
        cap = word_cap()
        if self.n_maps ** n > cap:
            raise BudgetExceeded(cap, self.n_maps ** n)
        return self.n_maps ** n

    @derived
    def level_products(self, n):
        """All products A_w for |w| = n, in the order of word_products."""
        self._level_size(n)
        return word_products(self.lins, n)

    def _level_walk(self, n, suffix, steps):
        """Level n in contiguous blocks of arrays over its words: yields
        (start, *arrays), each array holding its values on the words start
        to start + len - 1 in the order of level_products(n).

        suffix(m) gives the arrays over the words of level m, the deepest
        level of at most LEVEL_BLOCK words (level 1 when there are more
        maps), and steps[k](i, x, out) writes into out the values of array
        k on the words i w from its values x on the words w.  The walk
        extends level m by one letter per depth, depth first, and keeps
        one block per depth.  The first letter of the word changes
        fastest, so most steps rebuild the top block alone.  Blocks come
        in that order, not in word order, and each is overwritten by the
        next.  With n <= m the one block is suffix(n) itself."""
        self._level_size(n)
        m = self._suffix_level(n)
        blocks = [suffix(m)]
        blocks += [[np.empty_like(x) for x in blocks[0]]
                   for _ in range(n - m)]
        # letters[j] is applied at depth j + 1, so it is letter n - m - j
        # of the word; blocks[j + 1] is rebuilt when letters[j] changes
        letters = [0] * (n - m)
        depth = 0
        while True:
            for j in range(depth, n - m):
                for step, x, out in zip(steps, blocks[j], blocks[j + 1]):
                    step(letters[j], x, out)
            yield (sum(i * self.n_maps ** (m + j)
                       for j, i in enumerate(letters)), *blocks[-1])
            depth = next((j for j in reversed(range(n - m))
                          if letters[j] < self.n_maps - 1), None)
            if depth is None:
                return
            letters[depth:] = [letters[depth] + 1] + [0] * (n - m - depth - 1)

    def _suffix_level(self, n):
        """The level that `_level_walk` extends to level n: the deepest
        level m <= n of at most LEVEL_BLOCK words, or level 1."""
        m = n
        while self.n_maps ** m > LEVEL_BLOCK and m > 1:
            m -= 1
        return m

    def _product_step(self, i, prods, out):
        """Products A_iw from the products A_w, as `_level_walk` steps."""
        mul2(self.lins[i], prods, out=out)

    def level_blocks(self, n):
        """Level n in contiguous blocks of `_level_walk`: yields (start,
        prods, dets), where prods is level_products(n)[start:start +
        len(prods)] bit for bit and dets their determinants, carried as
        det A_iw = det A_i * det A_w since a*d - b*c cancels on long
        words."""
        a, b, c, d = self.lins.reshape(-1, 4).T
        letter_dets = a * d - b * c

        def suffix(m):
            dets = np.ones(1)
            for _ in range(m):
                dets = np.multiply.outer(letter_dets, dets).reshape(-1)
            return self.level_products(m), dets

        def det_step(i, dets, out):
            np.multiply(letter_dets[i], dets, out=out)

        yield from self._level_walk(n, suffix, (self._product_step, det_step))

    def _level_pair(self, n, pair):
        """Two arrays of level n's size holding pair(prods, dets) of each
        block of level_blocks(n); no more of the level's products is held
        than its blocks."""
        out = np.empty((2, self._level_size(n)))
        for start, prods, dets in self.level_blocks(n):
            out[:, start:start + len(prods)] = pair(prods, dets)
        return out[0], out[1]

    @derived
    def level_singular_values(self, n):
        """(alpha1, alpha2) of level_products(n), block by block, from the
        determinants that level_blocks carries."""
        return self._level_pair(n, batch_singular_values)

    @derived
    def level_log_singular_values(self, n):
        """(log alpha1, log alpha2) of level n, equal to np.log of
        level_singular_values(n) bit for bit and reduced block by block,
        so neither the level's products nor its singular values are held
        whole."""
        return self._level_pair(n, lambda prods, dets: np.log(
            batch_singular_values(prods, dets)))

    def word_from_flat(self, flat, n):
        """Word of length n from its lexicographic index in level_products."""
        letters = []
        for _ in range(n):
            flat, rem = divmod(flat, self.n_maps)
            letters.append(rem + 1)
        return Word(tuple(reversed(letters)))

    # -- certified diameter -------------------------------------------------

    @derived
    def diam_bounds(self, depth=8):
        """Certified (lower, upper) bounds for diam(X) from a cylinder-center
        cloud: cloud diameter -/+ twice the largest error radius."""
        hull, radius = self._hull(self._fit_depth(depth))
        d = _cloud_diameter(hull)
        e = 2.0 * radius
        return max(d - e, 0.0), d + e

    @derived
    def _hull(self, depth):
        """(`hull_vertices`, largest error radius) of the depth-n cylinder
        centres of `_cylinder_centers`, from the blocks of one
        `_level_walk`: the hull of a union is the hull of its parts' hull
        vertices, and max(alpha1) * r is max(alpha1 * r) since rounding is
        monotone.  alpha1 is read from the products alone, as
        `_cylinder_centers` reads it, and no more of the level than its
        blocks is held."""
        def suffix(m):
            return self.level_products(m), self._cylinder_centers(m)[0]

        def step(i, pts, out):
            out[...] = center_step(self.lins[i], self.vs[i], pts)

        hulls, a1 = [], 0.0
        for _, prods, pts in self._level_walk(
                depth, suffix, (self._product_step, step)):
            hulls.append(hull_vertices(pts))
            a1 = max(a1, batch_singular_values(prods)[0].max())
        return hull_vertices(np.concatenate(hulls)), a1 * self.ball_radius

    @property
    def diam_upper(self):
        return self.diam_bounds()[1]

    def _fit_depth(self, depth):
        """The depth, lowered to at least 2 until a full level fits in
        min(word cap, 500_000) words."""
        limit = min(word_cap(), 500_000)
        while self.n_maps ** depth > limit and depth > 2:
            depth -= 1
        return depth

    @derived
    def _cylinder_centers(self, depth):
        """Centers and error radii of all depth-n cylinders, vectorized,
        in the lexicographic order of level_products."""
        mats = self.level_products(depth)
        pts = self.ball_center[None]
        for _ in range(depth):
            # prepend a letter: phi_i applied after phi_w requires
            # building from the left; p_{iw} = A_i p_w + v_i keeps
            # lexicographic order
            pts = center_step(self.lins[:, None], self.vs[:, None],
                              pts[None]).reshape(-1, 2)
        return pts, batch_singular_values(mats)[0] * self.ball_radius

    # -- cylinder frontier --------------------------------------------------

    def frontier(self, stop, prune=None, cap=None, lex=False):
        """Stopping set of a walk over the cylinder tree.

        The walk is breadth-first from the one-letter words.  Each level
        computes alpha1 of the products A_w, drops the nodes where
        prune(mats, pts, a1) holds, emits those where stop(mats, pts, a1)
        holds and expands the rest by every letter; pts are the canonical
        points phi_w(ball center).  BudgetExceeded is raised before a level
        is expanded when emitted + n_maps * unfinished > cap (the word cap
        when cap is None), which for an unpruned walk means the stopping
        set would exceed cap, and when nodes are still unfinished below
        the deepest level whose word codes fit in an int64.

        Without lex the cylinders come in emission order: level by level,
        children letter-major, products by `mul2`.  With lex they
        come in lexicographic word order, that of a depth-first walk, and
        each product A_w A_i is a stacked matmul, which repeats the
        arithmetic of a node-by-node walk bit for bit.
        """
        cap = word_cap() if cap is None else cap
        n, c = self.n_maps, self.ball_center
        # child of word w by letter i: p_{wi} = p_w + A_w (phi_i(c) - c)
        drifts = mul2(self.lins, c[:, None])[..., 0] + self.vs - c
        codes, mats, pts = np.arange(n), self.lins, c + drifts
        found, emitted = [], 0
        for depth in range(1, int(63 / math.log2(max(n, 2))) + 1):
            a1 = batch_singular_values(mats)[0]
            if prune is not None:
                keep = ~prune(mats, pts, a1)
                codes, mats, pts, a1 = codes[keep], mats[keep], pts[keep], \
                    a1[keep]
            done = stop(mats, pts, a1)
            found.append((depth, codes[done], mats[done], pts[done], a1[done]))
            emitted += len(found[-1][1])
            live = ~done
            codes, mats, pts = codes[live], mats[live], pts[live]
            if emitted + n * len(codes) > cap:
                raise BudgetExceeded(cap, emitted + n * len(codes))
            if not len(codes):
                break
            codes = (codes[None, :] * n + np.arange(n)[:, None]).reshape(-1)
            pts = (mul2(mats[None], drifts[:, None, :, None])[..., 0]
                   + pts[None, :, :]).reshape(-1, 2)
            if lex:
                mats = mats[None] @ self.lins[:, None]
            else:
                mats = mul2(mats[None], self.lins[:, None])
            mats = mats.reshape(-1, 2, 2)
        else:
            raise BudgetExceeded(cap, None)
        depths, *parts = zip(*found)
        lengths = np.repeat(depths, [len(k) for k in parts[0]])
        parts = [lengths] + [np.concatenate(p) for p in parts]
        if lex:
            # the words are prefix-free, so their codes padded to the
            # longest length are distinct keys in lexicographic order
            pad = lengths.max(initial=0) - lengths
            order = np.argsort(parts[1] * np.int64(n) ** pad)
            parts = [p[order] for p in parts]
        return Cylinders(*parts)

    def attractor_sample(self, resolution, mode="cylinder-centers", seed=0,
                         count=10000):
        """Point cloud approximating the attractor.

        cylinder-centers: one point per by-alpha1 stopping word at scale
        resolution*diam, so every attractor point is within
        resolution*ball_radius of the cloud.  chaos-game: deterministic
        counter-based sampling for a fixed seed.
        """
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if mode == "cylinder-centers":
            r = resolution * self.diam_upper
            found = self.frontier(
                lambda mats, pts, a1: a1 * self.diam_upper <= r)
            return PointCloud(found.pts,
                              max(found.a1.max() * self.ball_radius, 1e-300))
        if mode == "chaos-game":
            rng = np.random.Generator(np.random.Philox(key=seed))
            burn = 64
            idx = rng.integers(0, self.n_maps, size=count + burn)
            x = self.ball_center.copy()
            pts = np.empty((count, 2))
            for k, i in enumerate(idx):
                x = self.lins[i] @ x + self.vs[i]
                if k >= burn:
                    pts[k - burn] = x
            return PointCloud(pts, resolution * self.ball_radius)
        raise ValueError(f"unknown mode {mode!r}")

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "maps": [{"a": a, "b": b, "c": c, "d": d, "tx": tx, "ty": ty}
                     for (a, b, c, d), (tx, ty)
                     in zip(self.lins.reshape(-1, 4).tolist(),
                            self.vs.tolist())],
            "ball": {"cx": float(self.ball_center[0]),
                     "cy": float(self.ball_center[1]),
                     "r": self.ball_radius},
        }

    @classmethod
    def from_json(cls, data):
        """The system of a to_json dict or string; the ball is fitted when
        the dict has none."""
        if isinstance(data, str):
            data = json.loads(data)
        maps = data["maps"]
        lins = [((m["a"], m["b"]), (m["c"], m["d"])) for m in maps]
        vs = [(m["tx"], m["ty"]) for m in maps]
        ball = data.get("ball")
        if ball:
            return cls(lins, vs, (ball["cx"], ball["cy"]), ball["r"])
        return cls(lins, vs)


@dataclass(frozen=True)
class Cylinders:
    """Cylinders phi_w(X) found by `Ifs.frontier`: word lengths, word codes
    (the lexicographic index of w among the words of its length, as in
    level_products), products A_w, canonical points phi_w(ball center) and
    alpha1(A_w)."""

    lengths: np.ndarray
    codes: np.ndarray
    mats: np.ndarray
    pts: np.ndarray
    a1: np.ndarray

    def __len__(self):
        return len(self.codes)

    def word(self, ifs, k):
        return ifs.word_from_flat(int(self.codes[k]), int(self.lengths[k]))

    def words(self, ifs):
        return [self.word(ifs, k) for k in range(len(self))]


def hull_vertices(pts):
    """Vertices of the convex hull of a planar cloud in clockwise order:
    the two ends of a flat cloud, the one point of a cloud of copies.  A
    linear function, and the distance between two points, is largest on
    these points.

    Quickhull with an explicit stack.  The lexicographically least and
    greatest points are vertices; each edge a->b with points strictly to
    its left gets the farthest of them as a new vertex c, and the edges
    a->c and c->b keep only the points left of them.
    """
    x, y = pts[:, 0], pts[:, 1]
    first = np.flatnonzero(x == x.min())
    first = first[np.argmin(y[first])]
    last = np.flatnonzero(x == x.max())
    last = last[np.argmax(y[last])]
    if (pts[first] == pts[last]).all():
        return pts[[first]]
    out = []
    everything = np.arange(len(pts))
    stack = [(last, first, everything), (first, last, everything)]
    while stack:
        a, b, cand = stack.pop()
        edge = pts[b] - pts[a]
        off = pts[cand] - pts[a]
        cross = edge[0] * off[:, 1] - edge[1] * off[:, 0]
        left = cross > 0.0
        if not left.any():
            out.append(a)
            continue
        c = cand[np.argmax(cross)]
        cand = cand[left]
        stack += [(c, b, cand), (a, c, cand)]
    return pts[out]


def _cloud_diameter(hull):
    """Diameter of a finite planar point set from its hull vertices."""
    diff = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())
