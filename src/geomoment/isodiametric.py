"""Moment maximization under a diameter constraint: the sharp simplex
bound, its extremal measures, a multi-restart local search that recovers
them, and checkers for the sphere-support tension statement and for the
enclosing-ball/diameter ratio bound.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import AtomicMeasure
from .errors import DomainError, NoConvergenceError
from .genvar import RadialCost
from .geometry import (as_cloud, diameter, jung_radius, meb_support,
                       min_enclosing_ball, regular_simplex)
from .lp import hull_membership

WEIGHT_FLOOR = 1e-12
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SearchConfig:
    n: int
    d: float
    atom_count: int
    restarts: int = 50
    max_iters: int = 400
    step: float | None = None
    seed: int = 0
    cost: RadialCost = field(default_factory=lambda: RadialCost.power(2))

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need dimension n >= 1")
        if self.atom_count < self.n + 1:
            raise ValueError("need at least n+1 atoms")
        if not 0 < self.d < math.inf:
            raise ValueError("diameter bound must be positive and finite")
        if self.step is not None and not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iters < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class SearchResult:
    best_measure: AtomicMeasure
    best_value: float
    per_restart_values: list
    diameter_residual: float
    converged_restarts: int
    wall_clock: float

    def to_report(self, config):
        return {
            "config": {
                "n": config.n, "d": config.d, "atom_count": config.atom_count,
                "restarts": config.restarts, "max_iters": config.max_iters,
                "step": config.step, "seed": config.seed,
                "cost": config.cost.to_spec(),
            },
            "per_restart_values": self.per_restart_values,
            "best_value": self.best_value,
            "bound": isodiametric_bound(config.n, config.d, config.cost),
            "diameter_residual": self.diameter_residual,
            "converged_restarts": self.converged_restarts,
            "wall_clock": self.wall_clock,
            "best_measure": {
                "atoms": self.best_measure.atoms.points,
                "weights": self.best_measure.weights,
            },
        }


@dataclass(frozen=True)
class TensionReport:
    classification: str
    origin_in_hull: bool
    simplex_vertices: bool
    violation: bool
    radius: float
    threshold_radius: float


@dataclass(frozen=True)
class JungReport:
    radius: float
    bound: float
    ok: bool
    tight: bool
    simplex_points: np.ndarray | None
    extraction_ok: bool | None


def isodiametric_bound(n, d, cost=None):
    """Sharp upper bound v(r_n * d) on the recentered moment of any
    measure whose support has diameter at most d."""
    if cost is None:
        cost = RadialCost.power(2)
    return float(cost(jung_radius(n) * d))


def simplex_maximizer(n, d):
    """The extremal measure: mass 1/(n+1) on each vertex of a regular
    n-simplex of diameter d centered at the origin."""
    spec = regular_simplex(n, d)
    return AtomicMeasure(spec.vertices, np.full(n + 1, 1.0 / (n + 1)))


def _project_diameter(atoms, w, d):
    """Restore diameter <= d by pulling the worst-separated pair together
    along its chord, repeatedly; this rearranges angles and is what lets
    atoms coalesce into clusters.  The pair pulled is the first, in
    row-major order, at the largest rounded distance (distinct squared
    distances can share a root); both its rows of a copy of ``atoms``
    move in place, each by half the excess.  A global contraction toward
    the weighted centroid is the fallback if pair repair cycles."""
    atoms = atoms.copy()
    N = atoms.shape[0]
    col, row = atoms[:, None, :], atoms[None, :, :]  # views: they see each pull
    for _ in range(10 * N + 20):
        diff = col - row
        # the square root of every entry, not only of the largest: distinct
        # squares can share a root, and the first pair at the largest root
        # is the one pulled.  np.add.reduce is ndarray.sum's own ufunc, in
        # its order, without the Python-level wrapper
        D = np.sqrt(np.add.reduce(diff * diff, axis=2))
        k = int(D.argmax())
        dij = D.item(k)
        if dij <= d:
            return atoms - (w @ atoms)
        a, b = atoms[k // N], atoms[k % N]  # row views, pulled in place
        half = (0.5 * (dij - d)) * ((b - a) / dij)
        a += half
        b -= half
    dia = diameter(atoms)
    if dia > d:
        centroid = w @ atoms
        atoms = centroid + (atoms - centroid) * (d / dia)
    return atoms - (w @ atoms)


def _weights_at_atoms(atoms, ball, cost):
    """Best weights at fixed atoms, with the value they attain, read off
    the atoms' smallest enclosing ball (center c, radius R).

    By the saddle identity, no measure on the atoms has a recentered
    moment above v(R), and weights on the ball's sphere whose barycenter
    is c attain it for every convex increasing radial cost v: their cost
    gradient at c, the sum of w_i v'(R) (c - x_i) / R, vanishes, so c is
    their center.  The weights are the ball's own dual (its ``weights`` on
    its ``support``, zero elsewhere), and the value is
    sum w_i v(|x_i - c|).
    """
    w = np.zeros(len(atoms))
    w[ball.support] = ball.weights
    return w, float(w @ cost(np.linalg.norm(atoms - ball.center, axis=1)))


def _pair_certified(atoms, ball, boundary, d):
    """Does the pair certificate hold: does the ascent reject every step
    of at most d from this state?

    It holds when the ball's support is one pair and its atoms are the only
    ones within 1e-7 (d + R) of the sphere (``boundary``), and the pair
    reads at least d - eps d apart: the 1-simplex, a stationary point of
    the ascent.  A step t <= d moves the pair apart along its chord, to
    |x_i - x_j| + 2 t, and leaves the others, at most m < R from the
    center, where they are.  Each other pair is then at most R + t + m
    apart, shorter, so the projection pulls the stepped pair back to d
    along the stepped chord and stops: after the pull-back every other
    pair is at most R + m, at least 1e-7 (d + R) below d.  Rounding in the step moves
    the pair's midpoint by a few eps (d + t), far inside the band that
    keeps the others in the pair's ball.  So the candidate's ball is the
    pair's, and its radius exceeds R by half the pair's lengthening plus
    rounding.

    That this rounding stays below the 1e-15 d = 9.007 u d (u = eps / 2) an
    accepted step must gain is measured, not proved.  Bounded term by term,
    in units of u d, the growth is at most: about 1 from the band; n / 4 + 1
    from the projection's exit test, which reads the pair at most d; 0.75
    from the recentring; n / 4 + 1 from the state's own chord reading; 2.5
    from the new center; and n / 4 + 1 from each radius reading.  That is
    n + 8.25, above 9.007 for every n, so it proves nothing.  The errors do
    not align at their bounds: over the 28980 steps of d, d / 2, ... down to
    1e-9 d from the 966 certified states of 40 seeds of 4 restarts at (n,
    atoms) in {(1, 4), (2, 5), (2, 6), (2, 8), (3, 6), (3, 8), (4, 8)} and
    d in {1, 3.7e-4, 123.4}, the radius grew by at most 2.0 u d.  A test
    replays such states and fails when the growth passes 4.5 u d, half the
    gain.
    """
    if len(boundary) != 2 or sorted(ball.support) != boundary:
        return False
    chord = atoms[boundary[0]] - atoms[boundary[1]]
    return math.sqrt(float(chord @ chord)) >= d - EPS * d


def _reach(cand, first):
    """The largest distance from the circumcenter of the atoms ``first`` of
    ``cand`` to any atom of ``cand``: inf when that guess is degenerate,
    and inf or nan when the circumcenter overflows.

    A ball of this radius around any point contains ``cand``, so the reach
    is an upper bound on ``cand``'s enclosing radius, however the center
    is rounded.  The circumcenter is p_0 + sum_k F_k v_k, with the offsets
    u_k = p_k - p_0 orthogonalized into v_k as :class:`geometry._Span`
    does, in one pass: a Gram solve of at most n unknowns.  A guess of
    more than n + 1 atoms, or one with a pivot |v_k|^2 that is not
    positive, is degenerate.  Plain floats: the guess has a few atoms in a
    few dimensions, too few for arrays to pay.
    """
    rows = cand.tolist()
    p = rows[first[0]]
    if len(first) > len(p) + 1:
        return math.inf
    c, V = p, []  # V: (v_k, |v_k|^2, F_k)
    for i in first[1:]:
        u = [a - b for a, b in zip(rows[i], p)]
        v, t = u, 0.5 * sum([a * a for a in u])
        for vj, zj, fj in V:
            a = sum([x * y for x, y in zip(u, vj)]) / zj
            v = [x - a * y for x, y in zip(v, vj)]
            t -= a * fj * zj
        z = sum([a * a for a in v])
        if not z > 0.0:
            return math.inf
        f = t / z
        V.append((v, z, f))
        c = [x + f * y for x, y in zip(c, v)]
    return max([math.dist(x, c) for x in rows])


def _outward(atoms, ball, d):
    """What a search state's steps need: each atom's unit direction from
    the ball's center if it lies on the ball's sphere (within 1e-7 (d + R))
    and off the center, else 0; the indices of the atoms on the sphere, as
    a list, the guess at the next ball's support; and whether the state's
    :func:`_pair_certified` holds."""
    offs = atoms - ball.center
    norms = np.sqrt(np.add.reduce(offs * offs, axis=1))
    boundary = (np.abs(norms - ball.radius) <= 1e-7 * (d + ball.radius)).nonzero()[0].tolist()
    dirs = np.zeros(atoms.shape)
    for i in boundary:  # a few rows: no mask over every atom
        if norms[i] > 1e-12 * d:
            dirs[i] = offs[i] / norms[i]
    return dirs, boundary, _pair_certified(atoms, ball, boundary, d)


def _search_one(config, restart):
    """One restart: ascend the enclosing-ball radius of the configuration
    under the diameter cap (boundary atoms step outward, worst pairs get
    pulled back together), then weight the final atoms on the final
    ball's sphere.  The radius level v(R) is exactly the largest
    recentered moment any measure on the atoms can achieve, so it is the
    search objective, and the restart's value is read off the ball the
    ascent ends with (:func:`_weights_at_atoms`): no second ball and no
    inner minimization.

    Each step's enclosing ball is warm-started from the atoms the step
    pushed outward, the support of the previous ball: they are almost
    always the new support too, and the ball through them is certified
    and returned at once; when it is not, the enclosing-ball loop starts
    at its center.

    The retry, the step right after an accepted one at the size just
    accepted, is mostly undone by the projection, and its ball comes out
    smaller than the current one.  So it is first checked on a cheaper
    bound: its reach (:func:`_reach`), the largest distance from the
    circumcenter of its atoms ``first`` to any of its atoms, is the radius
    of a ball that contains it, and so no smaller than its enclosing
    radius.  That is proved.  A retry whose reach is at least 1e-12 d
    (9007 u d, u = eps / 2) below the current radius R is rejected without
    solving its ball.  That the solve would reject it too is measured: over
    all 80118 steps of 504 search configurations ((n, atoms) in {(1, 4),
    (2, 5), (2, 6), (2, 8), (3, 6), (3, 8), (4, 8)}, p in {1, 2, 3}, d in
    {1, 3.7e-4, 123.4}, ``max_iters`` in {400, 29}, 4 restarts, 4 seeds),
    the solved radius exceeded the reach by at most 1.04 eps d (2.1 u d),
    far inside the band, so it stayed below R and short of the 1e-15 d
    (9.007 u d) an accepted step must gain.  On three of the benchmark's
    search rounds at seed 1 the bound rejects 3800 of the 4495 retries (the
    solve rejects 3803), and the ball solves fall from 8520 to 4871.  Other
    steps are rarely rejected there (89 of 3954), so they go straight to
    the solve.

    A rejected step changes neither the atoms nor the ball, so each state's
    boundary atoms, outward directions, support guess and pair certificate
    (:func:`_pair_certified`) are computed once, when the state is
    accepted, and serve all of its halvings.  Lower-dimensional regular
    simplices are stationary for the ascent, and many restarts settle
    within a step or two on one diameter pair, then halve a step that the
    projection undoes every time.  In a certified state every step of at
    most d is rejected, so the restart halves to the floor without taking
    them, and converges exactly when those halvings fit within
    ``max_iters``.  On three of the benchmark's search rounds at seed 1
    this skips the ends of 83 of 222 restarts, 21% of all steps.  Every
    tolerance is relative to d + R (or to d), so the search
    does not depend on the scale of the diameter cap.
    """
    rng = np.random.default_rng(config.seed + restart)
    n, N, d, cost = config.n, config.atom_count, config.d, config.cost

    w0 = np.full(N, 1.0 / N)
    atoms = _project_diameter(rng.uniform(-0.5 * d, 0.5 * d, (N, n)), w0, d)
    ball = min_enclosing_ball(atoms)
    step = config.step if config.step is not None else 0.25 * d
    step_floor = 1e-9 * d
    converged = False
    dirs, first, certified = _outward(atoms, ball, d)
    retry = False  # is this step the one right after an accepted step, at its size?
    for it in range(config.max_iters):
        if certified and step <= d:
            # this halving and every later one would be rejected
            halvings = 1
            while step * 0.5 ** halvings >= step_floor:
                halvings += 1
            converged = it + halvings <= config.max_iters
            break
        cand = _project_diameter(atoms + step * dirs, w0, d)
        # the candidate's own ball is no larger than its reach
        if not (retry and _reach(cand, first) <= ball.radius - 1e-12 * d):
            cand_ball = min_enclosing_ball(cand, first=first)
            if cand_ball.radius > ball.radius + 1e-15 * d:
                atoms, ball = cand, cand_ball
                dirs, first, certified = _outward(atoms, ball, d)
                retry = True
                continue
        retry = False
        step *= 0.5
        if step < step_floor:
            converged = True
            break
    w, val = _weights_at_atoms(atoms, ball, cost)
    return atoms, w, val, converged


def search_max(config):
    """Multi-restart alternating ascent over (atoms, weights) under the
    diameter cap.  Deterministic for a fixed seed; restarts use derived
    seeds and the best restart wins.  Restarts that exhaust the iteration
    budget are recorded, not fatal; only all of them failing is an error.
    """
    t0 = time.perf_counter()
    per_restart = []
    best = None
    converged_count = 0
    for r in range(config.restarts):
        atoms, w, val, converged = _search_one(config, r)
        per_restart.append(val)
        converged_count += bool(converged)
        if best is None or val > best[2]:
            best = (atoms, w, val)
    if converged_count == 0:
        raise NoConvergenceError(
            f"no restart converged within {config.max_iters} iterations",
            cap=config.max_iters,
        )
    atoms, w, val = best
    keep = w > WEIGHT_FLOOR
    measure = AtomicMeasure(atoms[keep], w[keep] / w[keep].sum())
    support, _ = measure.support()
    residual = max(0.0, diameter(support) - config.d)
    return SearchResult(measure, val, per_restart, residual,
                        converged_count, time.perf_counter() - t0)


def _single_linkage(points, threshold):
    """Cluster indices by single linkage at the given distance threshold."""
    N = points.shape[0]
    parent = list(range(N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(N):
        for j in range(i + 1, N):
            if np.linalg.norm(points[i] - points[j]) <= threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(N):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _simplex_clusters(points, n, side, tol, weights=None):
    """Single-link the points at ``tol``.  When they form n+1 clusters
    whose centers (weighted by ``weights`` if given, plain means if not)
    lie pairwise within ``tol`` of ``side`` apart, return (clusters,
    centers); otherwise None."""
    clusters = _single_linkage(points, tol)
    if len(clusters) != n + 1:
        return None
    centers = np.asarray([
        np.average(points[idx], axis=0, weights=None if weights is None else weights[idx])
        for idx in clusters])
    dists = [np.linalg.norm(centers[i] - centers[j])
             for i in range(n + 1) for j in range(i + 1, n + 1)]
    if np.abs(np.asarray(dists) - side).max() > tol:
        return None
    return clusters, centers


def verify_simplex_optimality(result, n, d, tol, tol_geom=None, cost=None):
    """Is the search result the simplex extremizer?

    Requires the value to reach the sharp bound within ``tol``, the
    positive-mass atoms to form exactly n+1 clusters of radius at most
    ``tol_geom`` with pairwise cluster distances within ``tol_geom`` of d,
    and cluster masses within ``tol`` of 1/(n+1).
    """
    if tol_geom is None:
        tol_geom = max(1e-3 * d, 10 * 1e-8)
    bound = isodiametric_bound(n, d, cost)
    if result.best_value < bound - tol:
        return False
    atoms, w = result.best_measure.support()
    found = _simplex_clusters(atoms, n, d, tol_geom, weights=w)
    if found is None:
        return False
    clusters, centers = found
    for idx, ctr in zip(clusters, centers):
        if np.linalg.norm(atoms[idx] - ctr, axis=1).max() > tol_geom:
            return False
    masses = np.array([w[idx].sum() for idx in clusters])
    return bool(np.abs(masses - 1.0 / (n + 1)).max() <= tol)


def tension_check(points, r, tol=1e-9):
    """Classify a sphere-supported, diameter-capped configuration.

    Preconditions: every point within ``tol`` of the centered sphere of
    radius r, and diameter at most 1 + tol.  With the origin in the hull,
    radii above the threshold r_n + tol are impossible and flag a
    violation; at the threshold the points must form unit-simplex
    vertices; below it no claim is made.
    """
    cloud = as_cloud(points)
    P = cloud.points
    n = cloud.dim
    radii = np.linalg.norm(P, axis=1)
    if np.abs(radii - r).max() > tol:
        raise DomainError(
            f"point {int(np.argmax(np.abs(radii - r)))} is off the radius-{r} sphere"
        )
    dia = diameter(cloud)
    if dia > 1.0 + tol:
        raise DomainError(f"diameter {dia} exceeds 1")
    rn = jung_radius(n)
    in_hull = hull_membership(P, np.zeros(n)) is not None
    if not in_hull:
        return TensionReport("OriginOutsideHull", False, False, False, r, rn)
    if r > rn + tol:
        return TensionReport("OriginInHull_Violation", True, False, True, r, rn)
    if r >= rn - tol:
        simplexish = _simplex_clusters(P, n, 1.0, max(tol, 1e-7)) is not None
        label = "OriginInHull_SimplexVertices" if simplexish else "OriginInHull"
        return TensionReport(label, True, simplexish, False, r, rn)
    return TensionReport("OriginInHull", True, False, False, r, rn)


def jung_verify(cloud, tol=1e-7):
    """Check the enclosing-ball radius against r_n times the diameter.

    ``tight`` means the ratio is attained within ``tol``, relative: the
    radius is at least (1 - tol) times the bound.  In that case the report
    tries to extract n+1 atoms forming a simplex at the diameter.  ``ok``
    allows the radius 1e-9 of the bound above it, the extraction takes the
    points within ``tol`` times the radius of the sphere and clusters them
    at max(1e-3, 10 tol) times the diameter, so no answer depends on the
    scale of the cloud.
    """
    cloud = as_cloud(cloud)
    ball = min_enclosing_ball(cloud)
    dia = diameter(cloud)
    n = cloud.dim
    bound = jung_radius(n) * dia
    ok = ball.radius <= bound + 1e-9 * bound
    tight = ball.radius >= bound - tol * bound
    simplex_points = None
    extraction_ok = None
    if tight and dia > 0:
        idx = meb_support(cloud, ball, tol=tol * ball.radius)
        found = _simplex_clusters(cloud.points[idx], n, dia, max(1e-3, 10 * tol) * dia)
        extraction_ok = found is not None
        if extraction_ok:
            simplex_points = found[1]
    return JungReport(ball.radius, bound, bool(ok), bool(tight),
                      simplex_points, extraction_ok)
