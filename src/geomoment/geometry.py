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
    """Raise ValueError unless P is a nonempty (N, n) array of finite reals;
    no arithmetic runs before the check, so bad input warns of nothing."""
    if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] == 0:
        raise ValueError("point cloud must be a nonempty (N, n) array")
    if not np.isfinite(P).all():
        raise ValueError("point cloud has non-finite coordinates")


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
    measure: ``support``, a list of the indices of cloud points on its
    sphere, and ``weights``, a list of barycentric weights on them
    (nonnegative, summing to 1) whose barycenter is q.  Their variance is
    R^2, the value that certifies the radius from below.  Other balls carry
    None for both.  Plain lists cost the search, which builds thousands of
    balls a second, no array conversions; ``P[support]`` and
    ``weights @ X`` work on them as they are.
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
        return bool((np.sqrt((d * d).sum(axis=1)) <= self.radius + tol).all())


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

    Requires the points to be affinely independent (rank tolerance 1e-10);
    raises DegenerateSupportError otherwise.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))
    M = P.shape[0]
    if M == 1:
        return Ball(P[0], 0.0)
    U = P[1:] - P[0]
    s = np.linalg.svd(U, compute_uv=False)
    if s.size < M - 1 or s[-1] <= RANK_TOL * max(1.0, s[0]):
        raise DegenerateSupportError(
            f"{M} support points are affinely dependent (rank tolerance {RANK_TOL})"
        )
    G = U @ U.T
    alpha = np.linalg.solve(G, 0.5 * (U * U).sum(axis=1))
    center = P[0] + alpha @ U
    return Ball(center, float(np.linalg.norm(center - P[0])))


def _welzl(Q, spread2, order, guess=0, pivot=False):
    """Smallest ball around a core of a few points: the rows ``order`` (a
    list of distinct indices) of Q, a cloud recentred on its mean.  Welzl's
    move-to-front recursion on Gärtner's push/pop support stack (Welzl
    1991; Gärtner, "Fast and Robust Smallest Enclosing Balls", 1999),
    scanning the core in the order given.

    With m support points pushed, level k < m of the stack holds the
    smallest ball C[k], R2[k] (center, squared radius) with the first k + 1
    of them on its boundary, and for k >= 1 the k-th point's offset from
    the first, orthogonalized against the earlier directions, as V[k] with
    squared length Z[k].  A push orthogonalizes p - C[0] against V[1..m-1]
    and moves the center along the new direction until p is on the sphere,
    in O(n m); a pop only lowers m.  A point whose orthogonal part has
    |v|^2 at most RANK_TOL^2 |p - C[0]|^2 is affinely dependent on the
    support and is not pushed.  The current ball is the one of the latest
    push; a point is covered when its squared distance from the center
    exceeds R2 by at most CONTAIN_TOL times max(R2, spread2), where
    spread2 is the cloud's largest squared distance from its mean.
    Recursion depth <= dim + 1.  The core lives in a linked list (Python
    lists of node indices) so that move-to-front never changes which points
    precede a recursion marker.

    Returns the center, the squared radius, the rows of levels 0..top and
    the center's barycentric weights on them: the ball's dual.  The k-th
    pushed offset is p_k - C[0] = V[k] + sum_{j<k} A[k][j-1] V[j], with
    A[k] the push's Gram-Schmidt coefficients, and the center is C[0] +
    sum_k F[k] V[k], so the weights follow from F by back-substitution,
    once, on return.  Levels below the latest push are never overwritten
    while it is the latest, so levels 0..top stay one consistent chain.
    The center of the smallest ball lies in the hull of its support, so the
    weights are nonnegative but for rounding; a negative one is set to 0
    and the rest are rescaled to sum to 1, so that they always form a
    probability vector, whose variance bounds R^2 from below.

    Before any scan, a guess at the support is certified: with 1 <=
    ``guess`` <= dim + 1 the first ``guess`` points of the core, with
    ``pivot`` all of them (the first is the pivot, a point outside the ball
    of the others, which they support).  It is pushed, and its ball is
    returned if it covers the core and its center has nonnegative weights,
    for then it is the smallest ball around the core (its optimality
    condition).  A pivot's guess skips dependent pushes and drops its most
    negative weight (never the pivot's) until none is left, Gärtner's
    pivot step; otherwise a dependent push, a negative weight or an
    uncovered point (NaN fails every test) pops the stack back to empty
    and the recursion runs.
    """
    K, n = len(order), Q.shape[1]
    C = [None] * (n + 1)
    R2 = [0.0] * (n + 1)
    V = [None] * (n + 1)
    Z = [0.0] * (n + 1)
    A = [None] * (n + 1)  # A[k]: the k-th push's Gram-Schmidt coefficients
    F = [0.0] * (n + 1)  # F[k]: the k-th push's center step along V[k]
    I = [0] * (n + 1)  # I[k]: the row of Q of the k-th pushed point
    m = 0  # support points on the stack
    top = -1  # level of the latest push, whose ball is the current one

    def push(i, p):
        nonlocal m, top
        if m:
            v = p - C[0]
            u2 = v @ v
            a = []
            for k in range(1, m):
                c = (v @ V[k]) / Z[k]
                v -= c * V[k]
                a.append(float(c))
            z = float(v @ v)
            if z <= RANK_TOL * RANK_TOL * u2:
                return False
            d = p - C[m - 1]
            e = float(d @ d) - R2[m - 1]  # p's excess over ball m - 1
            f = 0.5 * e / z
            C[m] = C[m - 1] + f * v
            R2[m] = R2[m - 1] + 0.5 * e * f
            V[m] = v
            Z[m] = z
            A[m] = a
            F[m] = f
        else:
            C[0] = p
            R2[0] = 0.0
        I[m] = i
        top = m
        m += 1
        return True

    def weights():
        """The current center's barycentric weights on levels 0..top."""
        lam = [0.0] * (top + 1)
        for k in range(top, 0, -1):
            lam[k] = F[k] - sum(lam[i] * A[i][k - 1] for i in range(k + 1, top + 1))
        lam[0] = 1.0 - sum(lam)
        return lam

    keep = order[:guess or (K if pivot else 0)]
    while keep:
        pushed = [i for i in keep if push(i, Q[i])]
        lam = weights()
        low = min(lam)
        if low >= 0.0 and (pivot or pushed == keep):
            D = (Q if K == len(Q) else Q[order]) - C[top]
            r2 = R2[top]
            if ((D * D).sum(axis=1) <= r2 + CONTAIN_TOL * max(r2, spread2)).all():
                return C[top], r2, I[:top + 1], lam
            keep = []
        elif pivot and lam[0] > low:
            keep.remove(pushed[lam.index(low)])
        else:
            keep = []
        m, top = 0, -1
    seq = [K] + list(range(K))  # node K is the list head sentinel
    nxt = [0] * (K + 1)
    prv = [0] * (K + 1)
    for a, b in zip(seq, seq[1:]):
        nxt[a] = b
        prv[b] = a
    nxt[seq[-1]] = -1
    rows = [Q[i] for i in order]

    def covers(p):
        d = p - C[top]
        r2 = R2[top]
        return d @ d <= r2 + CONTAIN_TOL * max(r2, spread2)

    def solve(end):
        nonlocal m
        if m == n + 1:
            return
        v = nxt[K]
        while v != end and v != -1:
            after = nxt[v]
            p = rows[v]
            if (top < 0 or not covers(p)) and push(order[v], p):
                solve(v)
                m -= 1
                # move v to the front; v stays ahead of every active marker
                nxt[prv[v]] = nxt[v]
                if nxt[v] != -1:
                    prv[nxt[v]] = prv[v]
                first = nxt[K]
                nxt[v] = first
                prv[v] = K
                nxt[K] = v
                if first != -1:
                    prv[first] = v
            v = after

    solve(-1)
    lam = weights()
    if min(lam) < 0.0:
        lam = [max(w, 0.0) for w in lam]
        total = sum(lam)
        lam = [w / total for w in lam]
    return C[top], R2[top], I[:top + 1], lam


def min_enclosing_ball(cloud, first=None):
    """Smallest closed ball containing the cloud, with its dual measure.

    Gärtner's pivoting; nothing is random.  The cloud is recentred on its
    mean and :func:`_welzl` solves a core: the 2(n + 1) points farthest
    from the mean (a stable sort), which hold the support more often than
    not, or a guess ``first``.  One vectorized pass tests every point
    against the core's ball by the recursion's own relative cover test.  While the farthest point lies
    outside, it becomes the pivot: the ball is solved again on the pivot
    and the ball's support, at most dim + 2 points.  The radius rises
    strictly at each pivot, so a support that comes back (a cycle of
    rounding) raises NoConvergenceError; the radius is not compared, as a
    pivot can raise R^2 by the square of its excess, below the rounding of
    R^2.  The radius returned is the largest distance from the center to a
    point of the cloud, measured on the original points, so the ball
    contains the cloud.

    The ball carries ``support``, the indices of the points that determine
    it, and ``weights``, the center's barycentric weights on them
    (nonnegative, summing to 1), back-substituted from the recursion's own
    stack: a measure on the sphere with the center as barycenter, whose
    variance R^2 certifies the radius from below.  It is the variance
    maximizer over measures on the cloud.  A singleton gives support [0]
    with weight 1.

    ``first`` is a guess at the support, typically that of a nearby ball: a
    sequence of distinct integer point indices in 0..N-1.  A guess of 1 to
    dim + 1 points is certified before any scan: if the ball through the
    guessed points has its center in their hull and contains the cloud, it
    is the smallest one (its optimality condition) and is returned.
    Otherwise the recursion scans the core, the guess first, and a small
    cloud's other points in index order.  A longer or empty guess is only
    checked.  A repeated index, one outside 0..N-1 (negative ones
    included) or a value that is not an integer raises ValueError.  The
    ball is unique, so the guess changes only its rounding, but a good
    guess is certified with no recursion at all.  Empty, ragged or
    non-finite input raises ValueError, as PointCloud does.
    """
    P = _as_points(cloud)
    N, n = P.shape
    head = None if first is None else _check_first(first, N)
    if N == 1:
        return Ball(P[0], 0.0, [0], [1.0])
    mean = P.sum(axis=0) / N  # P.mean's arithmetic, without its dispatch
    Q = P - mean
    sq = (Q * Q).sum(axis=1)
    spread2 = float(sq.max())
    size = 2 * (n + 1)
    guess = len(head) if head and len(head) <= n + 1 else 0
    if guess:
        # a small cloud is scanned whole, the other points in index order
        core = head + [i for i in range(N) if i not in head] if N <= size else head
    else:
        core = np.argsort(-sq, kind="stable")[:size].tolist()
    c, r2, support, lam = _welzl(Q, spread2, core, guess)
    seen = set()  # the supports of the balls pivoted from
    while len(core) < N:  # else the ball is the whole cloud's
        D = Q - c
        d2 = (D * D).sum(axis=1)
        far = int(d2.argmax())
        if d2[far] <= r2 + CONTAIN_TOL * max(r2, spread2):
            break
        if frozenset(support) in seen:
            raise NoConvergenceError(f"enclosing-ball pivoting came back to {sorted(support)}")
        seen.add(frozenset(support))
        core = [far] + support
        c, r2, support, lam = _welzl(Q, spread2, core, pivot=True)
    center = c + mean
    return Ball(center, math.sqrt(((P - center) ** 2).sum(axis=1).max()), support, lam)


def _check_first(first, N):
    """The indices of ``first`` as a list, checked to be distinct and in
    0..N-1."""
    try:
        head = [operator.index(i) for i in first]
    except TypeError:
        raise ValueError("first must hold integer point indices") from None
    if not all(0 <= i < N for i in head):
        # a negative index would alias the recursion's list sentinel
        raise ValueError(f"first must hold point indices in 0..{N - 1}")
    if len(set(head)) != len(head):
        # a repeated point would close a cycle in the recursion's list
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
