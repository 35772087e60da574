"""Planar affine iterated function systems and their symbolic dynamics.

The central objects are 2x2 invertible matrices, contractive affine maps,
finite tuples of such maps, finite words over the map alphabet, and
scale-indexed stopping sets (prefix-free partitions of the cylinder tree).
"""

from dataclasses import dataclass
import json
import math

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .config import word_cap
from .errors import BudgetExceeded, IndexOutOfRange, SingularMatrix

_DET_EPS = 1e-14


@dataclass(frozen=True)
class Matrix2:
    """Invertible 2x2 real matrix, row-major entries (a b / c d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        scale = max(self.a * self.a + self.b * self.b,
                    self.c * self.c + self.d * self.d, 1e-300)
        if abs(self.det) <= _DET_EPS * scale:
            raise SingularMatrix(f"determinant {self.det} too close to zero")

    @classmethod
    def from_array(cls, arr):
        arr = np.asarray(arr, dtype=float)
        return cls(arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1])

    @property
    def array(self):
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def transpose(self):
        return Matrix2(self.a, self.c, self.b, self.d)

    @property
    def inverse(self):
        det = self.det
        return Matrix2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __matmul__(self, other):
        if isinstance(other, Matrix2):
            return Matrix2.from_array(self.array @ other.array)
        return self.array @ np.asarray(other, dtype=float)

    def singular_values(self):
        return singular_values(self)


def singular_values(m):
    """Singular values (alpha1, alpha2) of a Matrix2, alpha1 >= alpha2 > 0.

    Closed form of `batch_singular_values`; alpha1*alpha2 = |det A|.
    """
    a1, a2 = batch_singular_values(m.array[None])
    return float(a1[0]), float(a2[0])


def svf(m, s):
    """Singular value function of a matrix at dimension parameter s >= 0.

    alpha1^s for s in [0,1], alpha1*alpha2^(s-1) for s in (1,2],
    |det|^(s/2) for s > 2; continuous at s=1 and s=2.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    return float(svf_from_singular_values(*singular_values(m), s))


def svf_from_singular_values(a1, a2, s):
    """Vectorized singular value function given alpha arrays."""
    a1 = np.asarray(a1, dtype=float)
    a2 = np.asarray(a2, dtype=float)
    if s <= 1.0:
        return a1 ** s
    if s <= 2.0:
        return a1 * a2 ** (s - 1.0)
    return (a1 * a2) ** (0.5 * s)


def batch_singular_values(mats):
    """(alpha1, alpha2) arrays for a (k,2,2) stack of matrices, from the
    eigenvalues of A^T A."""
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 0]
    d = mats[:, 1, 1]
    # trace and determinant of A^T A
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.maximum(t * t - 4.0 * det * det, 0.0)
    a1 = np.sqrt(0.5 * (t + np.sqrt(disc)))
    # alpha2 via |det|/alpha1 keeps the product identity exact
    a2 = np.abs(det) / a1
    return a1, a2


def extend_level(lins, prods):
    """Products A_i A_w for every letter i and every product A_w of a
    level, letter-major, so a level in lexicographic word order yields the
    next one in lexicographic order."""
    return np.einsum("ipq,wqr->iwpr", lins, prods).reshape(-1, 2, 2)


@dataclass(frozen=True)
class AffineMap:
    """Affine map x -> A x + v on the plane."""

    linear: Matrix2
    translation: tuple

    def __post_init__(self):
        object.__setattr__(self, "translation",
                           (float(self.translation[0]), float(self.translation[1])))

    @property
    def v(self):
        return np.array(self.translation, dtype=float)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.linear.array.T + self.v

    def compose(self, other):
        """self after other: (self.compose(other))(x) = self(other(x))."""
        lin = self.linear @ other.linear
        v = self.linear @ other.v + self.v
        return AffineMap(lin, tuple(v))

    def fixed_point(self):
        eye = np.eye(2) - self.linear.array
        return np.linalg.solve(eye, self.v)

    @property
    def is_contractive(self):
        return singular_values(self.linear)[0] < 1.0


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

    def concat(self, other):
        return Word(self.indices + tuple(other))

    def prefix(self, n):
        return Word(self.indices[:n])

    @property
    def parent(self):
        return Word(self.indices[:-1])

    @property
    def reversed(self):
        return Word(self.indices[::-1])

    def common_prefix(self, other):
        n = 0
        for x, y in zip(self.indices, other.indices):
            if x != y:
                break
            n += 1
        return Word(self.indices[:n])

    def is_prefix_of(self, other):
        return other.indices[: len(self.indices)] == self.indices


class Ifs:
    """A finite tuple of contractive invertible affine maps with an
    invariant bounding ball B: phi_i(B) inside B for every map."""

    def __init__(self, maps, ball_center=None, ball_radius=None):
        maps = tuple(maps)
        if len(maps) < 1:
            raise ValueError("need at least one map")
        for k, m in enumerate(maps):
            if not m.is_contractive:
                raise ValueError(f"map {k + 1} is not contractive")
        self.maps = maps
        # the map stack: (N,2,2) linear parts and (N,2) translations
        self.lins = np.stack([m.linear.array for m in maps])
        self.vs = np.stack([m.v for m in maps])
        if ball_center is None or ball_radius is None:
            ball_center, ball_radius = self._fit_ball()
        self.ball_center = np.asarray(ball_center, dtype=float)
        self.ball_radius = float(ball_radius)
        self._check_ball()
        self._cache = {}

    @property
    def n_maps(self):
        return len(self.maps)

    def _fit_ball(self):
        fixed = np.array([m.fixed_point() for m in self.maps])
        center = fixed.mean(axis=0)
        r = 0.0
        for m in self.maps:
            a1 = singular_values(m.linear)[0]
            drift = np.linalg.norm(m(center) - center)
            r = max(r, drift / (1.0 - a1))
        return center, max(r, 1e-12) * 1.0000001

    def _check_ball(self):
        c, r = self.ball_center, self.ball_radius
        for k, m in enumerate(self.maps):
            a1 = singular_values(m.linear)[0]
            if np.linalg.norm(m(c) - c) + a1 * r > r * (1.0 + 1e-9):
                raise ValueError(f"bounding ball is not invariant under map {k + 1}")

    # -- symbolic operations ------------------------------------------------

    def map_for(self, letter):
        if not 1 <= letter <= self.n_maps:
            raise IndexOutOfRange(f"letter {letter} out of range 1..{self.n_maps}")
        return self.maps[letter - 1]

    def compose_word(self, word):
        """phi_w = phi_{w1} o ... o phi_{wn}; the empty word gives the identity."""
        out = AffineMap(Matrix2(1.0, 0.0, 0.0, 1.0), (0.0, 0.0))
        for letter in word:
            out = out.compose(self.map_for(letter))
        return out

    def word_matrix(self, word):
        arr = np.eye(2)
        for letter in word:
            arr = arr @ self.map_for(letter).linear.array
        return arr

    def canonical_point(self, word):
        """Image of the ball center under phi_w with a certified error radius.

        Every infinite extension of the word projects within err_radius of
        the returned point.
        """
        if len(word) < 1:
            raise ValueError("word must be nonempty")
        p = self.ball_center.copy()
        for letter in reversed(word.indices):
            p = self.map_for(letter)(p)
        a1 = batch_singular_values(self.word_matrix(word)[None])[0][0]
        return p, a1 * self.ball_radius

    # -- cached level products ---------------------------------------------

    def level_products(self, n, cap=None):
        """All products A_w for |w| = n as a (N^n, 2, 2) array in
        lexicographic word order (first letter most significant)."""
        cap = word_cap(cap)
        if self.n_maps ** n > cap:
            raise BudgetExceeded(cap, self.n_maps ** n)
        cached = self._cache.setdefault("levels", [np.eye(2)[None]])
        while len(cached) <= n:
            cached.append(extend_level(self.lins, cached[-1]))
        return cached[n]

    def level_singular_values(self, n, cap=None):
        key = ("svals", n)
        if key not in self._cache:
            self._cache[key] = batch_singular_values(self.level_products(n, cap))
        return self._cache[key]

    def word_from_flat(self, flat, n):
        """Word of length n from its lexicographic index in level_products."""
        letters = []
        for _ in range(n):
            flat, rem = divmod(flat, self.n_maps)
            letters.append(rem + 1)
        return Word(tuple(reversed(letters)))

    def flat_from_word(self, word):
        flat = 0
        for letter in word:
            flat = flat * self.n_maps + (letter - 1)
        return flat

    # -- certified diameter -------------------------------------------------

    def diam_bounds(self, depth=8, cap=None):
        """Certified (lower, upper) bounds for diam(X) from a cylinder-center
        cloud: cloud diameter -/+ twice the largest error radius."""
        key = ("diam", depth)
        if key in self._cache:
            return self._cache[key]
        pts, errs = self._cylinder_centers(self._fit_depth(depth, cap), cap)
        d = _cloud_diameter(pts)
        e = 2.0 * errs.max()
        bounds = (max(d - e, 0.0), d + e)
        self._cache[key] = bounds
        return bounds

    @property
    def diam_upper(self):
        return self.diam_bounds()[1]

    def _fit_depth(self, depth, cap=None):
        """The depth, lowered to at least 2 until a full level fits in
        min(cap, 500_000) words."""
        limit = min(word_cap(cap), 500_000)
        while self.n_maps ** depth > limit and depth > 2:
            depth -= 1
        return depth

    def _cylinder_centers(self, depth, cap=None):
        """Centers and error radii of all depth-n cylinders, vectorized,
        in the lexicographic order of level_products.  Both arrays are
        cached by depth and read-only."""
        mats = self.level_products(depth, cap)
        key = ("centers", depth)
        if key not in self._cache:
            pts = self.ball_center[None]
            for _ in range(depth):
                # prepend a letter: phi_i applied after phi_w requires
                # building from the left; p_{iw} = A_i p_w + v_i keeps
                # lexicographic order
                pts = (np.einsum("ipq,wq->iwp", self.lins, pts)
                       + self.vs[:, None, :]).reshape(-1, 2)
            errs = batch_singular_values(mats)[0] * self.ball_radius
            pts.flags.writeable = errs.flags.writeable = False
            self._cache[key] = pts, errs
        return self._cache[key]

    # -- cylinder frontier --------------------------------------------------

    def frontier(self, stop, prune=None, cap=None, lex=False):
        """Stopping set of a walk over the cylinder tree.

        The walk is breadth-first from the one-letter words.  Each level
        computes alpha1 of the products A_w, drops the nodes where
        prune(mats, pts, a1) holds, emits those where stop(mats, pts, a1)
        holds and expands the rest by every letter; pts are the canonical
        points phi_w(ball center).  BudgetExceeded is raised before a level
        is expanded when emitted + n_maps * unfinished > cap, which for an
        unpruned walk means the stopping set would exceed cap, and when
        nodes are still unfinished below the deepest level whose word codes
        fit in an int64.

        Without lex the cylinders come in emission order: level by level,
        children letter-major, products by a batched einsum.  With lex they
        come in lexicographic word order, that of a depth-first walk, and
        each product A_w A_i is a stacked matmul, which repeats the
        arithmetic of a node-by-node walk bit for bit.
        """
        cap = word_cap(cap)
        n, c = self.n_maps, self.ball_center
        # child of word w by letter i: p_{wi} = p_w + A_w (phi_i(c) - c)
        drifts = np.einsum("ipq,q->ip", self.lins, c) + self.vs - c
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
            pts = (np.einsum("wpq,iq->iwp", mats, drifts)
                   + pts[None, :, :]).reshape(-1, 2)
            if lex:
                mats = mats[None] @ self.lins[:, None]
            else:
                mats = np.einsum("wpq,iqr->iwpr", mats, self.lins)
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

    # -- stopping sets ------------------------------------------------------

    def stopping_set(self, r, criterion="by-alpha1", rho=0.1, direction=None,
                     cap=None):
        """Prefix-free partition of the cylinder tree at scale r, in
        lexicographic word order.

        criterion:
          "by-alpha1"    stop when alpha1(A_w)*diam_ub <= r
          "by-alpha2-aspect" stop when additionally
                         alpha2(A_w)*diam_ub < rho*alpha1(A_w)
          "by-projected-diameter" stop when the certified projected diameter
                         bound in the given direction drops below r
        Convention: r at or above the diameter bound returns the N one-letter
        words so downstream partition logic stays uniform.
        """
        diam = self.diam_upper
        if criterion == "by-projected-diameter":
            from .geometry import _proj_stopping
            found = _proj_stopping(self, direction, r, cap)
        elif criterion == "by-alpha1":
            found = self.frontier(lambda mats, pts, a1: a1 * diam <= r,
                                  cap=cap, lex=True)
        elif criterion == "by-alpha2-aspect":
            def stop(mats, pts, a1):
                a2 = batch_singular_values(mats)[1]
                return (a2 * diam < rho * a1) & (a1 * diam <= r)
            found = self.frontier(stop, cap=cap, lex=True)
        else:
            raise ValueError(f"unknown criterion {criterion!r}")
        return StoppingSet(tuple(found.words(self)), criterion)

    def attractor_sample(self, resolution, mode="cylinder-centers", seed=0,
                         count=10000, cap=None):
        """Point cloud approximating the attractor.

        cylinder-centers: one point per by-alpha1 stopping word at scale
        resolution*diam, so every attractor point is within
        resolution*ball_radius of the cloud.  chaos-game: deterministic
        counter-based sampling for a fixed seed.
        """
        from .estimators import PointCloud

        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if mode == "cylinder-centers":
            r = resolution * self.diam_upper
            found = self.frontier(
                lambda mats, pts, a1: a1 * self.diam_upper <= r, cap=cap)
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
            "maps": [
                {"a": m.linear.a, "b": m.linear.b, "c": m.linear.c,
                 "d": m.linear.d, "tx": m.translation[0], "ty": m.translation[1]}
                for m in self.maps
            ],
            "ball": {"cx": self.ball_center[0], "cy": self.ball_center[1],
                     "r": self.ball_radius},
        }

    @classmethod
    def from_json(cls, data):
        if isinstance(data, str):
            data = json.loads(data)
        maps = [
            AffineMap(Matrix2(m["a"], m["b"], m["c"], m["d"]),
                      (m["tx"], m["ty"]))
            for m in data["maps"]
        ]
        ball = data.get("ball")
        if ball:
            return cls(maps, (ball["cx"], ball["cy"]), ball["r"])
        return cls(maps)


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


@dataclass(frozen=True)
class StoppingSet:
    """Prefix-free exhaustive set of stopping words at some scale."""

    words: tuple
    criterion: str = "by-alpha1"

    def __len__(self):
        return len(self.words)

    def is_prefix_free(self):
        seen = set(w.indices for w in self.words)
        for w in self.words:
            for k in range(len(w)):
                if w.indices[:k] in seen:
                    return False
        return True


def _cloud_diameter(pts):
    """Diameter of a finite planar point set via its convex hull."""
    if len(pts) < 2:
        return 0.0
    if len(pts) > 16:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            # a flat cloud: the point farthest from any point is an end of
            # the segment, and the point farthest from that end is the
            # other end, so two O(n) sweeps give the exact diameter of
            # collinear points
            end = pts[np.argmax(((pts - pts[0]) ** 2).sum(-1))]
            return float(np.sqrt(((pts - end) ** 2).sum(-1)).max())
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff ** 2).sum(-1)).max())
