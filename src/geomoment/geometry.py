"""Point clouds, diameters, minimal enclosing balls, regular simplices and
the sample shapes used by the bound computations.
"""

import csv
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSupportError, NoConvergenceError, ParseError

RANK_TOL = 1e-10
CONTAIN_TOL = 1e-12


class PointCloud:
    """Finite list of points in R^n standing in for a compact set.

    1-D input is accepted as a flat sequence and reshaped to (N, 1).
    """

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        _check_points(pts)
        pts = pts.copy()
        pts.setflags(write=False)
        self._points = pts

    @property
    def points(self):
        return self._points

    @property
    def dim(self):
        return self._points.shape[1]

    def __len__(self):
        return self._points.shape[0]

    def __repr__(self):
        return f"PointCloud({len(self)} points in R^{self.dim})"

    def translated(self, w):
        return PointCloud(self._points + np.asarray(w, dtype=float))

    def scaled(self, s):
        return PointCloud(self._points * float(s))


def _check_points(P):
    """Raise ValueError unless P is a nonempty (N, n) array of finite reals
    whose coordinate sums are representable: 2 N times the largest |x_ij|,
    a bound on any sum of N coordinates and its rounding, must be finite.
    No arithmetic runs before the check, so bad input warns of nothing."""
    if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] == 0:
        raise ValueError("point cloud must be a nonempty (N, n) array")
    top = float(np.abs(P).max())
    if not top < math.inf:  # nan fails too
        raise ValueError("point cloud has non-finite coordinates")
    if not 2.0 * P.shape[0] * top < math.inf:
        raise ValueError("point cloud is too large to sum its coordinates")


def as_cloud(cloud):
    """``cloud`` if it is a PointCloud, else the PointCloud of the raw
    points, which applies its checks: empty, ragged or non-finite input
    raises ValueError."""
    return cloud if isinstance(cloud, PointCloud) else PointCloud(cloud)


def _as_points(cloud):
    """The (N, n) coordinates of a PointCloud, or of a raw array (a 1-D one
    is a single point) that passes the same checks."""
    if isinstance(cloud, PointCloud):
        return cloud.points
    P = np.atleast_2d(np.asarray(cloud, dtype=float))
    _check_points(P)
    return P


@dataclass(frozen=True)
class Ball:
    """Closed ball with center q and radius R >= 0.

    A ball that :func:`min_enclosing_ball` returns also carries its dual
    measure: ``support``, the indices of cloud points on its sphere, and
    ``weights``, q's affine weights on them, nonnegative where its loop
    stops: their barycenter is q and their variance R^2 certifies the
    radius from below.  Other balls carry None for both.  Plain lists cost
    the search, which builds thousands of balls a second, no array
    conversions; ``P[support]`` and ``weights @ X`` work on them as they are.
    """

    center: np.ndarray
    radius: float
    support: list | None = None
    weights: list | None = None

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "center", q)
        object.__setattr__(self, "radius", float(self.radius))
        if (self.support is None) != (self.weights is None) or (
                self.support is not None and len(self.support) != len(self.weights)):
            raise ValueError("support and weights come together, one weight per index")

    def contains(self, points, tol=0.0):
        d = np.atleast_2d(np.asarray(points, dtype=float)) - self.center
        # np.linalg.norm's arithmetic for real input, without its dispatch
        return bool((np.sqrt(np.add.reduce(d * d, axis=1)) <= self.radius + tol).all())


@dataclass(frozen=True)
class SimplexSpec:
    """A regular simplex: n+1 equidistant vertices with given diameter."""

    dim: int
    diameter: float
    center: np.ndarray
    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        d = float(self.diameter)
        n = int(self.dim)
        tol = 1e-12 * d
        if v.shape != (n + 1, n):
            raise ValueError(f"expected {n + 1} vertices in R^{n}, got {v.shape}")
        pd = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=2)
        off = pd[~np.eye(n + 1, dtype=bool)]
        if np.abs(off - d).max() > tol:
            raise ValueError("vertices are not equidistant at the stated diameter")
        if np.linalg.norm(v.mean(axis=0) - c) > tol:
            raise ValueError("vertex mean does not match the stated center")
        circum = np.linalg.norm(v - c, axis=1)
        if np.abs(circum - jung_radius(n) * d).max() > tol:
            raise ValueError("circumradius does not match jung_radius(n) * diameter")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "diameter", d)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "vertices", v)


class Shape:
    """Parametric sample geometry: interval, ball, ellipse, box, diamond,
    or an explicit point cloud."""

    INTERVAL = "interval"
    BALL = "ball"
    ELLIPSE = "ellipse"
    BOX = "box"
    DIAMOND = "diamond"
    CLOUD = "cloud"

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params
        if kind == self.INTERVAL:
            if not params["k_lo"] <= params["k_hi"]:
                raise ValueError("interval requires k_lo <= k_hi")
        elif kind == self.BALL:
            if params["radius"] < 0:
                raise ValueError("ball radius must be nonnegative")
            if params.setdefault("dim", 2) < 1:
                raise ValueError(f"ball dimension must be at least 1, got {params['dim']}")
        elif kind == self.ELLIPSE:
            if not params["a"] > params["b"] > 0:
                raise ValueError("ellipse requires a > b > 0")
        elif kind == self.BOX:
            a = np.atleast_1d(np.asarray(params["a"], dtype=float))
            if (a <= 0).any():
                raise ValueError("box half-widths must be positive")
            params["a"] = a
        elif kind == self.DIAMOND:
            if not params["a1"] > params["a2"] > 0:
                raise ValueError("diamond requires a1 > a2 > 0")
        elif kind == self.CLOUD:
            if not isinstance(params["cloud"], PointCloud):
                raise ValueError("cloud shape requires a PointCloud")
        else:
            raise ValueError(f"unknown shape kind {kind!r}")
        if kind != self.CLOUD and not all(np.isfinite(v).all() for v in params.values()):
            raise ValueError(f"{kind} parameters must be finite")

    @classmethod
    def interval(cls, k_lo, k_hi):
        return cls(cls.INTERVAL, k_lo=float(k_lo), k_hi=float(k_hi))

    @classmethod
    def ball(cls, radius, dim=2):
        return cls(cls.BALL, radius=float(radius), dim=int(dim))

    @classmethod
    def ellipse(cls, a, b):
        return cls(cls.ELLIPSE, a=float(a), b=float(b))

    @classmethod
    def box(cls, a):
        return cls(cls.BOX, a=a)

    @classmethod
    def diamond(cls, a1, a2):
        return cls(cls.DIAMOND, a1=float(a1), a2=float(a2))

    @classmethod
    def cloud(cls, cloud):
        return cls(cls.CLOUD, cloud=cloud)

    @property
    def dim(self):
        if self.kind == self.INTERVAL:
            return 1
        if self.kind == self.BALL:
            return self.params["dim"]
        if self.kind in (self.ELLIPSE, self.DIAMOND):
            return 2
        if self.kind == self.BOX:
            return self.params["a"].size
        return self.params["cloud"].dim

    def contains(self, x, tol=CONTAIN_TOL):
        """Closed membership; curved boundaries get a relative tolerance,
        polytopes are exact."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, shape has {self.dim}")
        p = self.params
        if self.kind == self.INTERVAL:
            return bool(p["k_lo"] <= x[0] <= p["k_hi"])
        if self.kind == self.BALL:
            r = p["radius"]
            return bool(np.linalg.norm(x) <= r * (1 + tol) + tol)
        if self.kind == self.ELLIPSE:
            q = (x[0] / p["a"]) ** 2 + (x[1] / p["b"]) ** 2
            return bool(q <= 1 + tol)
        if self.kind == self.BOX:
            return bool((np.abs(x) <= p["a"]).all())
        if self.kind == self.DIAMOND:
            return bool(abs(x[0]) / p["a1"] + abs(x[1]) / p["a2"] <= 1)
        pts = p["cloud"].points
        return bool(np.min(np.linalg.norm(pts - x, axis=1)) <= tol)


def diameter(cloud):
    """Largest pairwise Euclidean distance; 0 for a singleton.

    The cloud is recentred on its mean first, so that the Gram identity
    |x - y|^2 = |x|^2 + |y|^2 - 2 x.y does not cancel far from the origin.
    """
    P = _as_points(cloud)
    N = P.shape[0]
    if N == 1:
        return 0.0
    P = P - P.mean(axis=0)
    sq = (P * P).sum(axis=1)
    best = 0.0
    step = max(1, int(2e6 / max(N, 1)))
    for i0 in range(0, N, step):
        blk = P[i0:i0 + step]
        d2 = sq[i0:i0 + step, None] + sq[None, :] - 2.0 * (blk @ P.T)
        best = max(best, float(d2.max()))
    return math.sqrt(max(best, 0.0))


def jung_radius(n):
    """Circumradius of the unit n-simplex, sqrt(n / (2n + 2))."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return math.sqrt(n / (2.0 * n + 2.0))


def circumball(points):
    """Smallest ball with all the given points on its boundary.

    Requires the points to be affinely independent (each one's distance
    from the affine hull of those before it above RANK_TOL times its
    distance from the first); raises DegenerateSupportError otherwise.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    span = _Span(P)
    for i in range(len(P)):
        if not span.push(i):
            raise DegenerateSupportError(
                f"{len(P)} support points are affinely dependent (rank tolerance {RANK_TOL})")
    center = span.circumcenter()
    return Ball(center, float(np.linalg.norm(center - P[0])))


class _Span:
    """Affinely independent rows of a point array Q, pushed one at a time
    (Gärtner's push arithmetic, "Fast and Robust Smallest Enclosing Balls",
    1999).  With m rows pushed, the offsets u_k = p_k - p_0 (k = 1..m-1)
    are held orthogonalized, each against those before it, as V[k-1] with
    squared length Z[k-1], and with u_k = V[k-1] + sum_j L[k-1][j] V[j].
    Gram-Schmidt runs a second pass when the first cancels over half of
    |u|^2, so the rows stay orthogonal to rounding however thin the
    simplex.  A row whose orthogonal part v has |v|^2 at most RANK_TOL^2
    |u|^2 is dependent and is not pushed.  F holds the circumcenter's steps
    along V: the point of the hull equidistant from every pushed row is
    p_0 + sum_k F[k] V[k].
    """

    def __init__(self, Q):
        k = min(Q.shape[0] - 1, Q.shape[1])  # the most offsets that can be pushed
        self.Q = Q
        self.rows = []
        self.V = np.empty((k, Q.shape[1]))
        self.Z = np.empty(k)
        self.L = [None] * k
        self.F = [0.0] * k

    def push(self, i):
        """Push row i unless it is dependent on the pushed rows; True if pushed."""
        k = len(self.rows) - 1
        if k >= 0:
            u = self.Q[i] - self.Q[self.rows[0]]
            u2 = float(u @ u)
            v, a, zk = u, [], u2
            if k:
                W, z = self.V[:k], self.Z[:k]
                b = (W @ u) / z
                v = u - b @ W
                zk = float(v @ v)
                if zk < 0.5 * u2:  # a second pass after a cancellation
                    e = (W @ v) / z
                    v -= e @ W
                    b += e
                    zk = float(v @ v)
                a = b.tolist()
            if not zk > RANK_TOL * RANK_TOL * u2:  # NaN is dependent too
                return False
            # the circumcenter y = sum_j F[j] V[j] solves 2 y . u_k = |u_k|^2
            F, Z = self.F, self.Z
            F[k] = (0.5 * u2 - sum(a[j] * F[j] * Z[j] for j in range(k))) / zk
            self.V[k], Z[k], self.L[k] = v, zk, a
        self.rows.append(i)
        return True

    def drop(self, k):
        """Remove the k-th pushed row and push the later ones again."""
        later = self.rows[k + 1:]
        del self.rows[k:]
        for i in later:
            self.push(i)

    def circumcenter(self):
        k = len(self.rows) - 1
        return self.Q[self.rows[0]] + np.asarray(self.F[:k]) @ self.V[:k]

    def project(self, x):
        """x's steps f along V to its projection onto the affine hull, and
        the residual from that projection to x."""
        k = len(self.rows) - 1
        W = self.V[:k]
        y = x - self.Q[self.rows[0]]
        f = (W @ y) / self.Z[:k]
        return f.tolist(), y - f @ W

    def weights(self, f):
        """The affine weights, one per pushed row in push order, of the point
        p_0 + sum_k f[k] V[k] of the hull (back-substitution on L)."""
        k = len(self.rows) - 1
        L = self.L
        lam = [0.0] * (k + 1)
        for j in range(k, 0, -1):
            lam[j] = f[j - 1] - sum(L[i - 1][j - 1] * lam[i] for i in range(j + 1, k + 1))
        lam[0] = 1.0 - sum(lam)
        return lam


def min_enclosing_ball(cloud, first=None):
    """Smallest closed ball containing the cloud, with its dual measure.

    The loop of Fischer, Gärtner and Kutz ("Fast Smallest-Enclosing-Ball
    Computation in High Dimensions", ESA 2003); nothing is random.  On the
    cloud recentred on its mean, it keeps a center c and a support T of
    affinely independent points at one distance r from c, such that B(c, r)
    contains the cloud; it starts at the mean with T the farthest point.
    While |T| <= dim and c lies off the affine hull of T by more than
    RANK_TOL r, c walks toward its projection onto the hull, which keeps T
    on the shrinking sphere, until a vectorized ratio test finds the first
    point to reach the sphere, which joins T (ties within 1e-12 of the walk
    go to the point approaching fastest).  Otherwise the point of T with
    the most negative affine weight of c leaves T; with none negative, c is
    in the hull of T, the optimality condition, and the ball is returned.
    Each round first checks that B(c, r) contains the cloud, up to
    CONTAIN_TOL times the larger of r^2 and the cloud's largest squared
    distance from its mean: a point that rounding let out (one too near the
    hull of T to stop a walk) starts T afresh.  A loop still running after
    64 (dim + 1) rounds raises NoConvergenceError.  The radius returned is
    the largest distance from the center to a point of the cloud, measured
    on the original points, so the ball contains the cloud.

    The ball carries ``support``, the indices of T, and ``weights``, the
    center's affine weights on them, nonnegative where the loop stops and
    never clipped: a measure on the sphere with the center as barycenter,
    whose variance R^2 certifies the radius from below, the variance
    maximizer over measures on the cloud.  A singleton gives support [0]
    with weight 1.

    ``first`` is a guess at the support, typically that of a nearby ball: a
    sequence of distinct integer point indices in 0..N-1.  A guess of 1 to
    dim + 1 points starts the loop with T its independent points and c
    their circumcenter, so a guess whose ball contains the cloud and whose
    center has nonnegative weights is returned at once.  A circumcenter
    farther from the mean than the farthest point, or a longer or empty
    guess, starts at the mean.  A repeated index, one outside 0..N-1 or a
    value that is not an integer raises ValueError.  The ball is unique, so
    the guess changes only its rounding.  Empty, ragged or non-finite input
    raises ValueError, as PointCloud does, and so does a cloud whose squared
    spread is not representable: one where 64 n times the largest squared
    coordinate of a point's offset from the mean overflows.  That bounds the
    squared spread with the margin the loop needs, since no square it forms
    exceeds 20 times the squared spread, and the check runs before any
    square is formed.
    """
    P = _as_points(cloud)
    N, n = P.shape
    head = None if first is None else _check_first(first, N)
    if N == 1:
        return Ball(P[0], 0.0, [0], [1.0])
    # P.mean's arithmetic, without its dispatch: np.add.reduce is
    # ndarray.sum's own ufunc, in its order, without the Python-level wrapper
    mean = np.add.reduce(P, axis=0) / N
    Q = P - mean
    top = float(np.abs(Q).max())
    if not 64.0 * n * top * top < math.inf:  # checked before any square is formed
        raise ValueError("point cloud is too spread out to square its distances")
    spread2 = float(np.add.reduce(Q * Q, axis=1).max())
    span, c, f = _Span(Q), np.zeros(n), None  # f: c's steps along V once c is on the hull
    for i in head if head and len(head) <= n + 1 else ():
        span.push(i)
    if span.rows:
        c, f = span.circumcenter(), span.F
    if c @ c > spread2:
        # no smallest ball is centered farther from the mean than its farthest point
        span, c, f = _Span(Q), np.zeros(n), None
    for _ in range(64 * (n + 1)):
        D = Q - c
        d2 = np.add.reduce(D * D, axis=1)
        far = int(d2.argmax())
        r2 = float(d2[span.rows[0]]) if span.rows else -1.0
        if d2[far] > r2 + CONTAIN_TOL * max(r2, spread2):
            # the start, a guess too small, or a point that rounding let out
            span, f = _Span(Q), None
            span.push(far)
            r2 = float(d2[far])
        if f is None:
            f, res = span.project(c)
            res2 = float(res @ res)
            if len(span.rows) <= n and res2 > RANK_TOL * RANK_TOL * r2:
                # walking to c - t res, p's slack r^2 - |p - c|^2 falls by 2 t
                # rate; a point with rate <= 4 RANK_TOL |res| r is that near the
                # hull of T and is not taken, so every point taken can be pushed
                rate = D @ res + res2
                rate[span.rows] = 0.0
                near = np.flatnonzero(rate > 4.0 * RANK_TOL * math.sqrt(res2) * math.sqrt(r2))
                # a point outside by rounding stops the walk at once
                ts = np.maximum(r2 - d2[near], 0.0) / (2.0 * rate[near])
                t = float(ts.min()) if near.size else 1.0
                if t < 1.0:
                    ties = near[ts <= t + 1e-12]
                    span.push(int(ties[rate[ties].argmax()]))
                    f = None
                c = c - min(t, 1.0) * res  # on the hull unless a point stopped it
                continue
        lam, f = span.weights(f), None
        low = min(lam)
        if low >= 0.0:
            c = c + mean
            D = P - c
            return Ball(c, math.sqrt(np.add.reduce(D * D, axis=1).max()), span.rows, lam)
        span.drop(lam.index(low))
    raise NoConvergenceError(
        f"enclosing-ball loop did not stop within {64 * (n + 1)} rounds")


def _check_first(first, N):
    """The indices of ``first`` as a list, checked to be distinct and in
    0..N-1."""
    try:
        head = [operator.index(i) for i in first]
    except TypeError:
        raise ValueError("first must hold integer point indices") from None
    if not all(0 <= i < N for i in head):
        raise ValueError(f"first must hold point indices in 0..{N - 1}")
    if len(set(head)) != len(head):
        raise ValueError("first must hold distinct point indices")
    return head


def meb_support(cloud, ball, tol=None):
    """Indices of cloud points on the boundary sphere of ``ball``.

    ``tol`` defaults to 1e-9 R plus 16 eps max_i |x_i|: relative to the
    radius, with a floor at the rounding of a distance computed from the
    coordinates (at most 1.4 eps max_i |x_i| on regular simplices far from
    the origin), so neither a small cloud nor a far one changes the answer.
    """
    P = _as_points(cloud)
    if tol is None:
        scale = float(np.linalg.norm(P, axis=1).max())
        tol = 1e-9 * ball.radius + 16.0 * np.finfo(float).eps * scale
    d = np.linalg.norm(P - ball.center, axis=1)
    return np.nonzero(np.abs(d - ball.radius) <= tol)[0]


def regular_simplex(n, d=1.0, center=None):
    """Regular n-simplex with diameter d, vertices centered on ``center``.

    The vertex set of the standard simplex in R^{n+1} (side sqrt(2)) is
    mapped isometrically onto its n-dimensional affine hull via a Helmert
    basis, rescaled to side d and recentered.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if d <= 0:
        raise ValueError("diameter must be positive")
    if center is None:
        center = np.zeros(n)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    H = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        H[k - 1, :k] = 1.0
        H[k - 1, k] = -k
        H[k - 1] /= math.sqrt(k * (k + 1.0))
    E = np.eye(n + 1) - 1.0 / (n + 1)
    V = (H @ E).T * (d / math.sqrt(2.0))
    V = V - V.mean(axis=0) + center
    return SimplexSpec(dim=n, diameter=d, center=center, vertices=V)


def shape_sample(shape, resolution, seed=0):
    """Deterministic-for-seed point cloud covering a shape.

    Polytopes contribute their vertices first (resolution must cover
    them); curved shapes get ``resolution`` boundary points plus
    resolution // 4 interior samples.
    """
    rng = np.random.default_rng(seed)
    p = shape.params
    if shape.kind == Shape.CLOUD:
        return p["cloud"]
    if shape.kind == Shape.INTERVAL:
        if resolution < 2:
            raise ValueError("interval sampling needs resolution >= 2")
        return PointCloud(np.linspace(p["k_lo"], p["k_hi"], resolution))
    if shape.kind == Shape.BOX:
        a = p["a"]
        n = a.size
        if resolution < 2 ** n:
            raise ValueError(f"box sampling needs resolution >= {2 ** n}")
        verts = np.array(list(itertools.product(*[(-ai, ai) for ai in a])))
        inner = rng.uniform(-1.0, 1.0, (resolution - verts.shape[0], n)) * a
        return PointCloud(np.vstack([verts, inner]))
    if shape.kind == Shape.DIAMOND:
        a1, a2 = p["a1"], p["a2"]
        if resolution < 4:
            raise ValueError("diamond sampling needs resolution >= 4")
        verts = np.array([[a1, 0.0], [-a1, 0.0], [0.0, a2], [0.0, -a2]])
        m = resolution - 4
        tri = rng.integers(0, 4, m)
        u = np.sqrt(rng.uniform(size=m))
        v = rng.uniform(size=m)
        # uniform in the triangle (0, s1*a1, s2*a2)
        s1 = np.where(tri % 2 == 0, 1.0, -1.0)
        s2 = np.where(tri < 2, 1.0, -1.0)
        x = u * (1 - v) * s1 * a1
        y = u * v * s2 * a2
        return PointCloud(np.vstack([verts, np.column_stack([x, y])]))
    if shape.kind == Shape.BALL:
        R, n = p["radius"], p["dim"]
        if resolution < 2:
            raise ValueError("ball sampling needs resolution >= 2")
        if n == 1:
            bdry = np.array([[-R], [R]])
        elif n == 2:
            th = 2.0 * np.pi * np.arange(resolution) / resolution
            bdry = R * np.column_stack([np.cos(th), np.sin(th)])
        else:
            g = rng.standard_normal((resolution, n))
            bdry = R * g / np.linalg.norm(g, axis=1, keepdims=True)
        m = resolution // 4
        g = rng.standard_normal((m, n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        r = R * rng.uniform(size=(m, 1)) ** (1.0 / n)
        return PointCloud(np.vstack([bdry, r * g]) if m else bdry)
    if shape.kind == Shape.ELLIPSE:
        a, b = p["a"], p["b"]
        if resolution < 3:
            raise ValueError("ellipse sampling needs resolution >= 3")
        th = 2.0 * np.pi * np.arange(resolution) / resolution
        bdry = np.column_stack([a * np.cos(th), b * np.sin(th)])
        m = resolution // 4
        phi = 2.0 * np.pi * rng.uniform(size=m)
        r = np.sqrt(rng.uniform(size=m))
        inner = np.column_stack([a * r * np.cos(phi), b * r * np.sin(phi)])
        return PointCloud(np.vstack([bdry, inner]) if m else bdry)
    raise ValueError(f"unknown shape kind {shape.kind!r}")


def read_cloud_csv(path):
    """Read a PointCloud from CSV with header x1,...,xn; rejects ragged rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        n = len(header)
        if header != [f"x{i + 1}" for i in range(n)]:
            raise ParseError(f"{path}: expected header x1,...,x{n}, got {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n:
                raise ParseError(f"{path}: row {lineno} has {len(row)} fields, expected {n}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ParseError(f"{path}: row {lineno}: {exc}") from None
        if not rows:
            raise ParseError(f"{path}: no data rows")
    return PointCloud(np.array(rows))


def write_cloud_csv(cloud, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(cloud.dim)])
        for row in cloud.points:
            writer.writerow([format(v, ".17g") for v in row])
