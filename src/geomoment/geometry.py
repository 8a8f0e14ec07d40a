"""Point clouds, diameters, minimal enclosing balls, regular simplices and
the sample shapes used by the bound computations.
"""

import csv
import itertools
import math
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


def _frame(P, origin):
    """(P - origin) / s and s, the power of two above the offsets' largest
    |coordinate| (1 if all are 0, at most 2^1023); the division is exact, so
    answers scaled back (:func:`_unframe`) are P's where its squares are normal."""
    with np.errstate(over="ignore"):
        Y = P - origin
    top = float(np.abs(Y).max())
    if not top < math.inf:  # nan fails too
        raise ValueError("the points' offsets from their origin are not finite")
    s = math.ldexp(1.0, min(math.frexp(top)[1], 1023))
    return Y / s, s


def _unframe(value, s=1.0, p=0):
    """value s^p, an answer of degree p (1 for a length, 2 for a variance)
    computed in a frame of scale s; ValueError if it is no finite float."""
    out = float(value)
    for _ in range(p):
        out *= s
    if not math.isfinite(out):
        raise ValueError(f"the answer is not representable: it reads {out!r}")
    return out


def _rounding(P):
    """16 eps times the largest norm of the points P, measured in a frame:
    the rounding of a distance computed from their coordinates."""
    Z, s = _frame(P, 0.0)
    return _unframe(16.0 * np.finfo(float).eps * np.linalg.norm(Z, axis=1).max(), s, 1)


@dataclass(frozen=True)
class Ball:
    """Closed ball with center q and radius R >= 0.

    A ball that :func:`min_enclosing_ball` returns also carries its dual
    measure: ``support``, the indices of cloud points on its sphere, and
    ``weights``, q's affine weights on them, nonnegative where its loop
    stops: their barycenter is q and their variance R^2 certifies the
    radius from below.  Other balls carry None for both.  Plain lists cost
    no array conversions; ``P[support]`` and ``weights @ X`` work on them as
    they are.
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
        d, s = _frame(np.atleast_2d(np.asarray(points, dtype=float)), self.center)
        # np.linalg.norm's arithmetic for real input, without its dispatch
        return bool((np.sqrt(np.add.reduce(d * d, axis=1)) <= (self.radius + tol) / s).all())


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
        polytopes are exact.  A cloud contains the points within ``tol``
        times its spread (the largest distance of an atom from their mean)
        of an atom, plus the coordinates' rounding (:func:`_rounding`)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, shape has {self.dim}")
        p = self.params
        if self.kind == self.INTERVAL:
            return bool(p["k_lo"] <= x[0] <= p["k_hi"])
        if self.kind == self.BALL:
            y, s = _frame(x, 0.0)
            return bool(np.linalg.norm(y) <= p["radius"] * (1 + tol) / s)
        if self.kind == self.ELLIPSE:
            q = (x[0] / p["a"]) ** 2 + (x[1] / p["b"]) ** 2
            return bool(q <= 1 + tol)
        if self.kind == self.BOX:
            return bool((np.abs(x) <= p["a"]).all())
        if self.kind == self.DIAMOND:
            return bool(abs(x[0]) / p["a1"] + abs(x[1]) / p["a2"] <= 1)
        pts = p["cloud"].points
        (y, s), (d, t) = _frame(pts, pts.mean(axis=0)), _frame(pts, x)
        return bool(t * float(np.linalg.norm(d, axis=1).min())
                    <= tol * s * float(np.linalg.norm(y, axis=1).max()) + _rounding(pts))


def diameter(cloud):
    """Largest pairwise Euclidean distance; 0 for a singleton.

    Measured in the frame of the mean (:func:`_frame`), where the Gram
    identity |x - y|^2 = |x|^2 + |y|^2 - 2 x.y neither cancels nor overflows.
    """
    P = _as_points(cloud)
    N = P.shape[0]
    if N == 1:
        return 0.0
    P, s = _frame(P, P.mean(axis=0))
    sq = (P * P).sum(axis=1)
    best = 0.0
    step = max(1, int(2e6 / max(N, 1)))
    for i0 in range(0, N, step):
        blk = P[i0:i0 + step]
        d2 = sq[i0:i0 + step, None] + sq[None, :] - 2.0 * (blk @ P.T)
        best = max(best, float(d2.max()))
    return _unframe(math.sqrt(max(best, 0.0)), s, 1)


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
    span = _Span(P.tolist())
    for i in range(len(P)):
        if not span.push(i):
            raise DegenerateSupportError(
                f"{len(P)} support points are affinely dependent (rank tolerance {RANK_TOL})")
    center = np.array(span.circumcenter())
    return Ball(center, float(np.linalg.norm(center - P[0])))


class _Span:
    """Affinely independent rows of a point set Q, pushed one at a time
    (Gärtner's push arithmetic, "Fast and Robust Smallest Enclosing Balls",
    1999): the one Gram-Schmidt, circumcenter and affine-weight arithmetic
    of the package, which the enclosing-ball loop, :func:`circumball` and
    the isodiametric search's guessed balls share.  Q is a list of rows, or
    an array whose rows are converted as they are pushed; everything else
    is plain floats, with every sum added left to right, since the builtin
    sum compensates its rounding from Python 3.12 on.  With m rows pushed,
    the offsets u_k = p_k - p_0 (k = 1..m-1) are held orthogonalized, each
    against those before it, as V[k-1] with squared length Z[k-1], and with
    u_k = V[k-1] + sum_j L[k-1][j] V[j].  Gram-Schmidt runs a second pass
    when the first cancels over half of |u|^2, so the rows stay orthogonal
    to rounding however thin the simplex.  A row whose orthogonal part v
    has |v|^2 at most RANK_TOL^2 |u|^2 is dependent and is not pushed.  F
    holds the circumcenter's steps along V: the point of the hull
    equidistant from every pushed row is p_0 + sum_k F[k] V[k].
    """

    def __init__(self, Q):
        self.Q, self.p0, self.rows = Q, None, []
        self.V, self.Z, self.L, self.F = [], [], [], []

    def push(self, i):
        """Push row i unless it is dependent on the pushed rows; True if pushed."""
        x = self.Q[i]
        if not isinstance(x, list):
            x = x.tolist()
        if not self.rows:
            self.p0 = x
        else:
            V, Z, F = self.V, self.Z, self.F
            u = [a - b for a, b in zip(x, self.p0)]
            u2 = _dot(u, u)
            a, v = self._split(u)
            z = _dot(v, v)
            if z < 0.5 * u2:  # a second pass after a cancellation
                e, v = self._split(v)
                a = [s + t for s, t in zip(a, e)]
                z = _dot(v, v)
            if not z > RANK_TOL * RANK_TOL * u2:  # NaN is dependent too
                return False
            # the circumcenter y = sum_j F[j] V[j] solves 2 y . u_k = |u_k|^2
            t = 0.0
            for aj, fj, zj in zip(a, F, Z):
                t += aj * fj * zj
            F.append((0.5 * u2 - t) / z)
            V.append(v)
            Z.append(z)
            self.L.append(a)
        self.rows.append(i)
        return True

    def _split(self, u):
        """u's steps along V, and u minus its parts along V: one classical
        Gram-Schmidt pass."""
        a = [_dot(u, v) / z for v, z in zip(self.V, self.Z)]
        for aj, v in zip(a, self.V):
            u = [x - aj * y for x, y in zip(u, v)]
        return a, u

    def drop(self, k):
        """Remove the k-th pushed row and push the later ones again."""
        later = self.rows[k + 1:]
        del self.rows[k:]
        j = max(k - 1, 0)
        del self.V[j:], self.Z[j:], self.L[j:], self.F[j:]
        for i in later:
            self.push(i)

    def circumcenter(self):
        """p_0 + sum_k F[k] V[k], added left to right."""
        c = self.p0
        for f, v in zip(self.F, self.V):
            c = [a + f * b for a, b in zip(c, v)]
        return c

    def project(self, x):
        """x's steps f along V to its projection onto the affine hull, and
        the residual from that projection to x, for a point x given as a
        list."""
        return self._split([a - b for a, b in zip(x, self.p0)])

    def weights(self, f):
        """The affine weights, one per pushed row in push order, of the point
        p_0 + sum_k f[k] V[k] of the hull: back-substitution on L, then
        lam_0 = 1 minus the others."""
        L, k = self.L, len(self.L)
        lam = [0.0] * (k + 1)
        for j in range(k, 0, -1):
            t = 0.0
            for i in range(j + 1, k + 1):
                t += L[i - 1][j - 1] * lam[i]
            lam[j] = f[j - 1] - t
        t = 0.0
        for w in lam:
            t += w
        lam[0] = 1.0 - t
        return lam


def _dot(x, y):
    """x . y for two lists, added left to right."""
    t = 0.0
    for a, b in zip(x, y):
        t += a * b
    return t


def min_enclosing_ball(cloud):
    """Smallest closed ball containing the cloud, with its dual measure.

    The loop of Fischer, Gärtner and Kutz ("Fast Smallest-Enclosing-Ball
    Computation in High Dimensions", ESA 2003); nothing is random.  On the
    cloud in the frame of its mean (:func:`_frame`), it keeps a center c
    and a support T of affinely independent points at one distance r from
    c, such that B(c, r) contains the cloud; it starts at the mean with T
    the farthest point.
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
    the largest distance from the center to an original point, so the ball
    contains the cloud.

    The ball carries ``support``, the indices of T, and ``weights``, the
    center's affine weights on them, nonnegative where the loop stops and
    never clipped: a measure on the sphere with the center as barycenter,
    whose variance R^2 certifies the radius from below, the variance
    maximizer over measures on the cloud.  A singleton gives support [0]
    with weight 1.  Bad input raises ValueError, as PointCloud does.
    """
    P = _as_points(cloud)
    N, n = P.shape
    if N == 1:
        return Ball(P[0], 0.0, [0], [1.0])
    # P.mean's arithmetic, without its dispatch: np.add.reduce is
    # ndarray.sum's own ufunc, in its order, without the Python-level wrapper
    mean = np.add.reduce(P, axis=0) / N
    Q, s = _frame(P, mean)
    spread2 = float(np.add.reduce(Q * Q, axis=1).max())
    span, c, f = _Span(Q), np.zeros(n), None  # f: c's steps along V once c is on the hull
    for _ in range(64 * (n + 1)):
        D = Q - c
        d2 = np.add.reduce(D * D, axis=1)
        far = int(d2.argmax())
        r2 = float(d2[span.rows[0]]) if span.rows else -1.0
        if d2[far] > r2 + CONTAIN_TOL * max(r2, spread2):
            # the start, or a point that rounding let out
            span, f = _Span(Q), None
            span.push(far)
            r2 = float(d2[far])
        if f is None:
            f, res = span.project(c.tolist())
            res2 = _dot(res, res)
            if len(span.rows) <= n and res2 > RANK_TOL * RANK_TOL * r2:
                res = np.array(res)
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
            c = c * s + mean
            D = (P - c) / s  # c is in the cloud's hull: no offset exceeds 2 s
            r = _unframe(math.sqrt(np.add.reduce(D * D, axis=1).max()), s, 1)
            return Ball(c, r, span.rows, lam)
        span.drop(lam.index(low))
    raise NoConvergenceError(
        f"enclosing-ball loop did not stop within {64 * (n + 1)} rounds")


def meb_support(cloud, ball, tol=None):
    """Indices of cloud points on the boundary sphere of ``ball``, within
    ``tol`` of it: by default 1e-9 R plus the coordinates' rounding
    (:func:`_rounding`), so neither a small cloud nor a far one changes it.
    """
    P = _as_points(cloud)
    if tol is None:
        tol = 1e-9 * ball.radius + _rounding(P)
    d, s = _frame(P, ball.center)
    return np.nonzero(np.abs(np.linalg.norm(d, axis=1) - ball.radius / s) <= tol / s)[0]


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
