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

import functools
import json
import math

import numpy as np

from .config import seeded_rng, word_cap
from .errors import BudgetExceeded, IndexOutOfRange
from .estimators import Frozen, PointCloud

_DET_EPS = 1e-14
# most words in one block of `Ifs._level_walk` (more only for level 1 of
# a family with more maps than this)
LEVEL_BLOCK = 2 ** 14


def fit_level(n_maps, n, words, least):
    """The deepest level m <= n whose n_maps^m words are at most words,
    not lowered below least; n itself when n <= least.  The one rule by
    which a depth is fitted to a word count, in integers: a ratio of
    float logs loses the level at an exact power such as 3^13."""
    m = n
    while n_maps ** m > words and m > least:
        m -= 1
    return m


def det2(mats):
    """Determinants a*d - b*c over a stack of 2x2 matrices (shape
    (..., 2, 2)): the one place they are taken from the entries."""
    return mats[..., 0, 0] * mats[..., 1, 1] \
        - mats[..., 0, 1] * mats[..., 1, 0]


def batch_singular_values(mats, det=None):
    """(alpha1, alpha2) arrays for a (k,2,2) stack of matrices, from the
    eigenvalues of A^T A.  det, when given, holds the determinants and
    replaces `det2`, which cancels on long products."""
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 0]
    d = mats[:, 1, 1]
    # trace and determinant of A^T A
    t = a * a + b * b + c * c + d * d
    if det is None:
        det = det2(mats)
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
    if out is None:
        out = np.empty(np.broadcast_shapes(left.shape[:-2], right.shape[:-2])
                       + (2, right.shape[-1]))
    tmp = np.empty(out.shape[:-2])
    for p in range(2):
        for r in range(right.shape[-1]):
            entry = out[..., p, r]
            np.multiply(left[..., p, 0], right[..., 0, r], out=entry)
            np.multiply(left[..., p, 1], right[..., 1, r], out=tmp)
            entry += tmp
    out += 0.0
    return out


def pull_back(mats, u):
    """The pulled-back axes A^T u over broadcast stacks of matrices
    (..., 2, 2) and axes (..., 2), through `mul2`."""
    return mul2(mats.swapaxes(-1, -2), u[..., None])[..., 0]


def _entry_major(size):
    """An empty stack of size 2x2 matrices held entry-major: the
    (size, 2, 2) view of a (2, 2, size) buffer, so every entry that `mul2`
    writes and `batch_singular_values` reads is one contiguous row."""
    return np.empty((2, 2, size)).transpose(2, 0, 1)


def compose(lins, vs, word):
    """(A_w, t_w) with phi_w(x) = A_w x + t_w for
    phi_w = phi_{w1} o ... o phi_{wn}, the maps x -> lins[i - 1] x +
    vs[i - 1] taken letter by letter; the empty word gives the
    identity."""
    lin, v = np.eye(2), np.zeros(2)
    for letter in word:
        lin, v = lin @ lins[letter - 1], lin @ vs[letter - 1] + v
    return lin, v


def word_label(word):
    """The letters of a word joined, or "-" for the empty word.  A letter
    of two or more digits is bracketed, so that no two words share a
    label: (1, 12), (11, 2) and (1, 1, 2) give "1[12]", "[11]2" and
    "112"."""
    return "".join(str(k) if k < 10 else f"[{k}]" for k in word) or "-"


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


class Ifs:
    """Contractive invertible affine maps x -> A_i x + v_i, i = 1..N, held
    as the read-only (N,2,2) stack `lins` of linear parts A_i and (N,2)
    stack `vs` of translations v_i, with an invariant bounding ball B:
    phi_i(B) inside B for every map.  The ball is fitted when not given.

    Raises ValueError for fewer than two maps, a non-finite entry, a
    linear part with |det| <= 1e-14 * (largest squared row norm), a map
    that is not contractive, a ball center or radius alone, and a ball
    that is not invariant.
    """

    def __init__(self, lins, vs, ball_center=None, ball_radius=None):
        if len(lins) < 2:
            raise ValueError("need at least two maps")
        for k, (((a, b), (c, d)), v) in enumerate(zip(lins, vs), 1):
            if not all(map(math.isfinite, (a, b, c, d, *v))):
                raise ValueError(f"map {k} has a non-finite entry")
            det = float(det2(np.array(((a, b), (c, d)), dtype=float)))
            if abs(det) <= _DET_EPS * max(a * a + b * b, c * c + d * d,
                                          1e-300):
                raise ValueError(f"map {k} is singular: determinant {det} "
                                 "too close to zero")
        if (ball_center is None) != (ball_radius is None):
            raise ValueError("give the ball's center and radius together")
        fit = ball_center is None
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
        for letter in word:
            if not 1 <= letter <= self.n_maps:
                raise IndexOutOfRange(
                    f"letter {letter} out of range 1..{self.n_maps}")
        return compose(self.lins, self.vs, word)

    # -- levels ---------------------------------------------------------------

    def _level_size(self, n):
        """N^n, the words of level n; raises before a level that is
        negative or over the word cap is allocated."""
        if n < 0:
            raise ValueError("level must be nonnegative")
        cap = word_cap()
        if self.n_maps ** n > cap:
            raise BudgetExceeded(cap, self.n_maps ** n)
        return self.n_maps ** n

    def _level_walk(self, n, lins):
        """Level n of the products A_w over the stack lins (the maps'
        linear parts or their inverses) in contiguous blocks: yields
        (start, prods, dets), the entry-major products and their
        determinants on the words start to start + len - 1 in
        lexicographic word order (first letter most significant).  The
        determinants are carried as det A_iw = det A_i * det A_w, since
        `det2` cancels on long words.

        A level of at most LEVEL_BLOCK words, or level 1, is one block,
        built whole from the level below with every letter prepended at
        once.  A deeper level prepends each letter in turn to each block
        of the level below and holds one block of that size, so the first
        letter changes fastest: blocks come in that order, not in word
        order, and each is overwritten by the next."""
        size = self._level_size(n)
        letter_dets = det2(lins)
        if n == 0:
            yield 0, np.eye(2)[None], np.ones(1)
        elif self._suffix_level(n) == n:
            _, below, dets = next(self._level_walk(n - 1, lins))
            prods = _entry_major(size)
            mul2(lins[:, None], below,
                 out=prods.reshape(self.n_maps, *below.shape))
            yield 0, prods, np.multiply.outer(letter_dets, dets).reshape(-1)
        else:
            prods = dets = None
            for start, below, below_dets in self._level_walk(n - 1, lins):
                if prods is None:
                    prods = _entry_major(len(below))
                    dets = np.empty(len(below))
                for i in range(self.n_maps):
                    mul2(lins[i], below, out=prods)
                    np.multiply(letter_dets[i], below_dets, out=dets)
                    yield i * (size // self.n_maps) + start, prods, dets

    def _suffix_level(self, n):
        """The deepest level m <= n of at most LEVEL_BLOCK words, or level
        1: the level whose blocks `_level_walk` extends to level n."""
        return fit_level(self.n_maps, n, LEVEL_BLOCK, 1)

    def level_images(self, x, n):
        """phi_w(x) for every word w of length n, in lexicographic word
        order: points x of shape (k, ..., 2) give a C-ordered
        (N^n k, ..., 2) array.  Each level holds the images of the level
        below under every map at once, map-major (Hutchinson's operator);
        raises before a level over the word cap is allocated."""
        self._level_size(n)
        lins = self.lins.reshape(self.n_maps, *[1] * (x.ndim - 1), 2, 2)
        vs = self.vs.reshape(self.n_maps, *[1] * (x.ndim - 1), 2)
        for _ in range(n):
            x = mul2(lins, x[None, ..., None])[..., 0]
            x += vs
            x = x.reshape(-1, *x.shape[2:])
        return x

    @derived
    def level_products(self, n):
        """All products A_w for |w| = n in lexicographic word order, held
        entry-major (see `_entry_major`) with the values of a C-ordered
        stack; `mul2`, `pull_back` and `det2` read either layout alike.
        The one block of `_level_walk`, or its blocks gathered: the one
        place a whole level of products is held."""
        size, level = self.n_maps ** n, None
        for start, prods, _ in self._level_walk(n, self.lins):
            if len(prods) == size:
                return prods
            if level is None:
                level = _entry_major(size)
            level[start:start + len(prods)] = prods
        return level

    def level_singular_values(self, n):
        """(alpha1, alpha2) of level_products(n), block by block from the
        products and the determinants that `_level_walk` carries, so no
        more of the level's products is held than its blocks.  They are
        not kept, and a caller may overwrite them."""
        a1, a2 = np.empty((2, self._level_size(n)))
        for start, prods, dets in self._level_walk(n, self.lins):
            span = slice(start, start + len(prods))
            a1[span], a2[span] = batch_singular_values(prods, dets)
        return a1, a2

    def level_log_alpha1(self, n):
        """log alpha1 of level n, equal to np.log of
        level_singular_values(n)[0] bit for bit: gathered block by block
        from `_level_walk` and taken in place, so the level holds one
        float per word.  It is not kept: the pressure reads it only while
        its root is solved, and rebuilds log alpha2 from the letters'
        log|det|."""
        la1 = np.empty(self._level_size(n))
        for start, prods, dets in self._level_walk(n, self.lins):
            la1[start:start + len(prods)] = \
                batch_singular_values(prods, dets)[0]
        return np.log(la1, out=la1)

    def word_from_flat(self, flat, n):
        """The word of length n, a tuple of letters, at its lexicographic
        index in level_products."""
        letters = []
        for _ in range(n):
            flat, rem = divmod(flat, self.n_maps)
            letters.append(rem + 1)
        return tuple(reversed(letters))

    # -- certified diameter -------------------------------------------------

    @derived
    def diam_bounds(self):
        """Certified (lower, upper) bounds for diam(X) from the depth-8
        cylinder-center cloud, fitted to the word cap: cloud diameter -/+
        twice the largest error radius."""
        hull, radius = self._hull(self._fit_depth(8))
        d = _cloud_diameter(hull)
        e = 2.0 * radius
        return max(d - e, 0.0), d + e

    @derived
    def _hull(self, depth):
        """(`hull_vertices`, largest error radius) of the depth-n cylinder
        centres of `_cylinder_centers`.  An affine map takes a hull to the
        hull of its vertices' images, so each level's hull is that of the
        images of the level above's hull vertices.  alpha1 is read from
        the products alone, as `_cylinder_centers` reads it, one block of
        `_level_walk` at a time: max(alpha1) * r is max(alpha1 * r)."""
        a1 = 0.0
        for _, prods, _ in self._level_walk(depth, self.lins):
            a1 = max(a1, batch_singular_values(prods)[0].max())
        hull = self.ball_center[None]
        for _ in range(depth):
            hull = hull_vertices(self.level_images(hull, 1))
        return hull, a1 * self.ball_radius

    @property
    def diam_upper(self):
        return self.diam_bounds()[1]

    def _fit_depth(self, depth):
        """The depth, lowered to at least 2 until a full level fits in
        min(word cap, 500_000) words."""
        return fit_level(self.n_maps, depth, min(word_cap(), 500_000), 2)

    @derived
    def _cylinder_centers(self, depth):
        """Centers and error radii of all depth-n cylinders, vectorized,
        in the lexicographic order of level_products."""
        # the radii before the centres: in the other order their
        # temporaries leave the heap so that `verify content` peaks higher
        errs = batch_singular_values(self.level_products(depth))[0]
        errs *= self.ball_radius
        return self.level_images(self.ball_center[None], depth), errs

    # -- cylinder frontier --------------------------------------------------

    def frontier(self, stop, prune=None, cap=None):
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

        The cylinders come in emission order: level by level, children
        letter-major, each product A_w A_i by `mul2`.  The products are
        held entry-major (see `_entry_major`), in the callbacks and in the
        result.
        """
        cap = word_cap() if cap is None else cap
        n, c = self.n_maps, self.ball_center
        # child of word w by letter i: p_{wi} = p_w + A_w (phi_i(c) - c)
        drifts = self.level_images(c[None], 1) - c
        codes, pts = np.arange(n), c + drifts
        mats = _entry_major(n)
        mats[...] = self.lins

        def rows(x, at):
            # the nodes at some indices: a mask is turned into indices
            # once, and an entry-major stack is taken along the word axis
            # of its (2, 2, k) buffer, so it stays entry-major
            return x.transpose(1, 2, 0).take(at, axis=2).transpose(2, 0, 1)

        found, emitted = [], 0
        for depth in range(1, fit_level(n, 63, 2 ** 63, 1) + 1):
            a1 = batch_singular_values(mats)[0]
            if prune is not None:
                keep = np.flatnonzero(~prune(mats, pts, a1))
                codes, mats, pts, a1 = codes.take(keep), rows(mats, keep), \
                    pts.take(keep, axis=0), a1.take(keep)
            done = stop(mats, pts, a1)
            live, done = np.flatnonzero(~done), np.flatnonzero(done)
            found.append((depth, codes.take(done), rows(mats, done),
                          pts.take(done, axis=0), a1.take(done)))
            emitted += len(done)
            codes, mats, pts = codes.take(live), rows(mats, live), \
                pts.take(live, axis=0)
            if emitted + n * len(codes) > cap:
                raise BudgetExceeded(cap, emitted + n * len(codes))
            if not len(codes):
                break
            codes = (codes[None, :] * n + np.arange(n)[:, None]).reshape(-1)
            pts = (mul2(mats[None], drifts[:, None, :, None])[..., 0]
                   + pts[None, :, :]).reshape(-1, 2)
            out = _entry_major(len(codes))
            mul2(mats[None], self.lins[:, None], out=out.reshape(n, -1, 2, 2))
            mats = out
        else:
            raise BudgetExceeded(cap, None)
        depths, codes, mats, pts, a1 = zip(*found)
        lengths = np.repeat(depths, [len(k) for k in codes])
        mats = np.concatenate(mats, out=_entry_major(len(lengths)))
        return Cylinders(lengths, np.concatenate(codes), mats,
                         np.concatenate(pts), np.concatenate(a1))

    @derived
    def attractor_sample(self, resolution):
        """Point cloud approximating the attractor, with read-only points:
        one point per by-alpha1 stopping word at scale resolution*diam, so
        every attractor point is within resolution*ball_radius of the
        cloud."""
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        r = resolution * self.diam_upper
        found = self.frontier(lambda mats, pts, a1: a1 * self.diam_upper <= r)
        found.pts.flags.writeable = False
        return PointCloud(found.pts,
                          max(found.a1.max() * self.ball_radius, 1e-300))

    @derived
    def chaos_game(self, seed, count):
        """count points of the chaos game as a read-only (count, 2) array:
        the orbit of the ball center under maps drawn by the counter-based
        generator of seed, after 64 burn-in steps."""
        rng = seeded_rng(seed)
        burn = 64
        idx = rng.integers(0, self.n_maps, size=count + burn)
        x = self.ball_center.copy()
        pts = np.empty((count, 2))
        for k, i in enumerate(idx):
            x = self.lins[i] @ x + self.vs[i]
            if k >= burn:
                pts[k - burn] = x
        return pts

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


class Cylinders(Frozen):
    """Cylinders phi_w(X) found by `Ifs.frontier`: word lengths, word codes
    (the lexicographic index of w among the words of its length, as in
    level_products), entry-major products A_w, canonical points
    phi_w(ball center) and alpha1(A_w), in the emission order of the
    walk.  Its length is the number of words."""

    __slots__ = ("lengths", "codes", "mats", "pts", "a1")

    def __init__(self, lengths, codes, mats, pts, a1):
        for name, value in zip(self.__slots__,
                               (lengths, codes, mats, pts, a1)):
            object.__setattr__(self, name, value)

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
