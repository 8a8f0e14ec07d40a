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
from .geometry import (CONTAIN_TOL, RANK_TOL, Ball, _dot, _Span, as_cloud, diameter,
                       jung_radius, meb_support, min_enclosing_ball, regular_simplex)
from .lp import hull_membership

WEIGHT_FLOOR = 1e-12
EPS = np.finfo(float).eps


@dataclass(frozen=True, slots=True)
class SearchConfig:
    n: int
    d: float
    atom_count: int
    restarts: int = 50
    max_iters: int = 400
    seed: int = 0
    cost: RadialCost = field(default_factory=lambda: RadialCost.power(2))

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need dimension n >= 1")
        if self.atom_count < self.n + 1:
            raise ValueError("need at least n+1 atoms")
        if not 0 < self.d < math.inf:
            raise ValueError("diameter bound must be positive and finite")
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
                "seed": config.seed,
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


def _project_diameter(atoms, d):
    """Restore diameter <= d by pulling the worst-separated pair together
    along its chord, repeatedly; this rearranges angles and is what lets
    atoms coalesce into clusters.  The atoms are recentred on their mean on
    entry, which makes the copy the pulls act on: a pull moves two rows by
    +-half, so it keeps the mean, and nothing moves the atoms after the
    exit test has read every pair at most d apart.  The pair pulled is the
    first, in row-major order, at the largest rounded distance (distinct
    squared distances can share a root); both its rows move in place, each
    by half the excess.  A contraction toward the mean is the fallback if
    pair repair cycles."""
    N = atoms.shape[0]
    atoms = atoms - np.add.reduce(atoms, axis=0) / N
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
            return atoms
        a, b = atoms[k // N], atoms[k % N]  # row views, pulled in place
        half = (0.5 * (dij - d)) * ((b - a) / dij)
        a += half
        b -= half
    dia = diameter(atoms)
    if dia > d:
        atoms *= d / dia
    return atoms


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


def _sq_dists(rows, c):
    """The squared distance from c to each row, for rows and c given as
    lists, every sum added left to right."""
    d2 = []
    for x in rows:
        t = 0.0
        for a, b in zip(x, c):
            t += (a - b) * (a - b)
        d2.append(t)
    return d2


def _guess_ball(rows, first, d):
    """The smallest enclosing ball of the atoms ``rows`` (a list of lists)
    if ``first``, a guess at its support, can be certified to carry it, as
    (c, reach, weights, d2), else None.

    One :class:`geometry._Span` over ``rows`` pushes the atoms ``first``
    and gives their circumcenter c and its affine weights on them.  The
    ball is B(c, reach), where the reach is the largest distance from c to
    any atom, with ``first`` as its support and those weights as its
    weights; d2 holds each atom's squared distance to c, added left to
    right.  It is returned when the optimality condition that ends
    :func:`geometry.min_enclosing_ball`'s loop holds, the duality of the
    moment problem: c lies in the hull of atoms on its sphere.  That is:

    - the guess has at most n + 1 atoms and every push is independent
      under the loop's test |v_k|^2 > RANK_TOL^2 |u_k|^2;
    - every affine weight of c is >= 0;
    - no atom lies farther from c than the farthest atom of the guess by
      more than 1e-13 (d + R), capped at 0.4 CONTAIN_TOL R, where R is that
      atom's distance.  The loop lets a point out of B(c, R) by at least
      0.5 CONTAIN_TOL R, up to rounding, and the cap binds only when
      R < d / 3.

    The guess has a few atoms in a few dimensions, too few for arrays to
    pay: everything here is plain floats, and no :class:`Ball` is built.
    """
    if len(first) > len(rows[0]) + 1:
        return None
    span = _Span(rows)
    for i in first:
        if not span.push(i):
            return None
    lam = span.weights(span.F)
    if min(lam) < 0.0:
        return None
    c = span.circumcenter()
    d2 = _sq_dists(rows, c)
    reach = math.sqrt(max(d2))
    R = math.sqrt(max([d2[i] for i in first]))
    if not reach <= R + min(1e-13 * (d + R), 0.4 * CONTAIN_TOL * R):  # nan fails too
        return None
    return c, reach, lam, d2


def _solved_ball(cand, rows):
    """``min_enclosing_ball(cand)`` in the form the search steps with:
    (c, R, support, weights, d2), the center as a list and d2 the squared
    distances from it to ``rows``, the rows of ``cand`` as lists."""
    ball = min_enclosing_ball(cand)
    c = ball.center.tolist()
    return c, ball.radius, ball.support, ball.weights, _sq_dists(rows, c)


def _outward(rows, c, R, d2, d):
    """What a search state's steps need, for atoms ``rows`` in the ball of
    center c and radius R, d2 holding each atom's squared distance to c:
    each atom's unit direction from c if it lies on the ball's sphere
    (within 1e-7 (d + R)) and off the center, else 0, as an (N, n) array;
    and the indices of the atoms on the sphere, as a list, the guess at the
    next ball's support.  Plain floats throughout: below n = 8, numpy adds a
    row's squares left to right too, so this is numpy's arithmetic on the
    same numbers."""
    band, floor = 1e-7 * (d + R), 1e-12 * d
    dirs, boundary = np.zeros((len(rows), len(c))), []
    for i, t in enumerate(d2):
        norm = math.sqrt(t)
        if abs(norm - R) <= band:
            boundary.append(i)
            if norm > floor:
                dirs[i] = [(a - b) / norm for a, b in zip(rows[i], c)]
    return dirs, boundary


def _jung_floor(n, d):
    """r_n d - 4.5 u d (u = eps / 2): the radius from which the Jung stop
    holds, where the ascent rejects every step.

    By Jung's theorem, a corollary of the paper's, no candidate of
    diameter at most d has an enclosing radius above r_n d, and an accepted
    step must reach R + 1e-15 d = R + 9.007 u d.  From R >= r_n d - 4.5 u d
    that is r_n d + 4.5 u d, which only rounding could give, and rounding
    is not bounded here but measured: a test replays every state where the
    stop holds on a grid of searches and fails when a step's cold-solved
    radius passes R + 4.5 u d.
    """
    return jung_radius(n) * d - 2.25 * EPS * d


def _solve_spd(G, r):
    """y with G y = r for a small symmetric positive definite G (lists),
    by Cholesky in plain floats, every sum added left to right; None if a
    pivot is not positive."""
    m = len(r)
    C = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            t = G[i][j]
            for k in range(j):
                t -= C[i][k] * C[j][k]
            if i == j:
                if not t > 0.0:  # NaN fails too
                    return None
                C[i][i] = math.sqrt(t)
            else:
                C[i][j] = t / C[j][j]
    y = [0.0] * m
    for i in range(m):
        t = r[i]
        for k in range(i):
            t -= C[i][k] * y[k]
        y[i] = t / C[i][i]
    for i in range(m - 1, -1, -1):
        t = y[i]
        for k in range(i + 1, m):
            t -= C[k][i] * y[k]
        y[i] = t / C[i][i]
    return y


def _finish(rows, first, R, d):
    """The finish of a state near a regular k-simplex: its atoms as a list
    of lists, to be projected and tested as a step's are, with the guess at
    their ball's support; or None.

    It applies when the state's sphere holds k + 1 atoms (``first``), 1 <= k
    <= n, every two of them within 1e-2 d of d apart, and the Jung stop does
    not hold yet.  Those atoms are the active diameter constraints of an
    active set (Nocedal and Wright, *Numerical Optimization*, ch. 15-16):
    Gauss-Newton (ibid., ch. 10) solves |x_i - x_j|^2 = d^2 for every pair
    of them.  Its steps are least-norm, -J^T (J J^T)^-1 r, so they hold no
    rigid motion, and it stops once every residual is within 4 eps d^2 of 0,
    or after eight steps.  Every other atom lies off the sphere with weight
    0 and moves halfway toward the centroid of the k + 1: that keeps it in
    the ball, so the value cannot change, and takes it off the diameter
    pairs that the projection would otherwise pull back on every step.

    For k < n the state is stationary but not maximal: by the paper's
    theorem only the regular n-simplex maximizes, and no step leaves the
    k-flat of the sphere's atoms.  So the finish also lifts the off-sphere
    atom farthest from that flat to c + h u, where u is its unit normal
    from the flat (any unit normal if no atom is more than RANK_TOL d off
    it), c the simplex's circumcenter and h = sqrt(d^2 - |x_0 - c|^2): at
    distance d from every vertex, so the atoms make a regular
    (k + 1)-simplex, with a larger circumradius.  The search is not told
    the maximizer: nothing snaps to :func:`geometry.regular_simplex`.
    Plain floats, every sum added left to right, so the finish rounds alike
    on every BLAS build.
    """
    n, m = len(rows[0]), len(first)
    if not 2 <= m <= n + 1 or R >= _jung_floor(n, d):
        return None
    P = [rows[i] for i in first]
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    for a, b in pairs:
        if not abs(math.sqrt(_sq_dists([P[a]], P[b])[0]) - d) <= 1e-2 * d:
            return None
    for _ in range(8):
        E = [[x - y for x, y in zip(P[a], P[b])] for a, b in pairs]
        r = [_dot(e, e) - d * d for e in E]
        if max(abs(t) for t in r) <= 4.0 * EPS * d * d:
            break
        # (J J^T)_pq = 4 (e_p . e_q) sum_s sigma_p(s) sigma_q(s), where the
        # pair p = (a, b) has sigma_p(a) = 1 and sigma_p(b) = -1
        G = [[4.0 * _dot(ep, eq) * ((a == k) + (b == l) - (a == l) - (b == k))
              for (k, l), eq in zip(pairs, E)] for (a, b), ep in zip(pairs, E)]
        y = _solve_spd(G, r)
        if y is None:
            return None
        step = [[0.0] * n for _ in P]
        for (a, b), e, t in zip(pairs, E, y):
            step[a] = [s - 2.0 * t * x for s, x in zip(step[a], e)]
            step[b] = [s + 2.0 * t * x for s, x in zip(step[b], e)]
        P = [[x + s for x, s in zip(p, q)] for p, q in zip(P, step)]
    if not all(math.isfinite(x) for p in P for x in p):
        return None
    g = [0.0] * n
    for p in P:
        g = [s + x for s, x in zip(g, p)]
    g = [s / m for s in g]
    out = [[0.5 * (x + y) for x, y in zip(row, g)] for row in rows]
    for i, p in zip(first, P):
        out[i] = p
    if m == n + 1:
        return out, first
    span = _Span(P)
    if not all(span.push(i) for i in range(m)):
        return None
    offs = {i: span.project(rows[i])[1] for i in range(len(rows)) if i not in first}
    top = max(offs, key=lambda i: _dot(offs[i], offs[i]))
    u = offs[top]
    if not _dot(u, u) > (RANK_TOL * d) ** 2:  # every atom is on the flat
        axes = [span.project([x + d * (j == k) for k, x in enumerate(span.p0)])[1]
                for j in range(n)]
        u = max(axes, key=lambda v: _dot(v, v))
    c = span.circumcenter()
    h2 = d * d - _sq_dists([P[0]], c)[0]
    if not h2 > 0.0:  # Gauss-Newton left the simplex too wide to lift
        return None
    h = math.sqrt(h2) / math.sqrt(_dot(u, u))
    out[top] = [a + h * b for a, b in zip(c, u)]
    return out, first + [top]


def _search_one(config, restart):
    """One restart: ascend the enclosing-ball radius of the configuration
    under the diameter cap (boundary atoms step outward, worst pairs get
    pulled back together), then weight the final atoms on the final
    ball's sphere.  The radius level v(R) is exactly the largest
    recentered moment any measure on the atoms can achieve, so it is the
    search objective, and the restart's value is read off the ball the
    ascent ends with (:func:`_weights_at_atoms`): no second ball and no
    inner minimization.

    Each step's enclosing ball is guessed to have the support of the
    previous ball plus the atoms the step pushed outward (``first``), and
    :func:`_guess_ball` certifies the guess by the duality of the moment
    problem, the test that ends :func:`min_enclosing_ball`'s loop too.
    Every step follows one rule: the certified ball if there is one, else
    ``min_enclosing_ball(cand)``, and the step is taken if its radius
    grows by more than 1e-15 d.  The ball is unique, so the certificate
    changes only its rounding.  Only the projection works on arrays: each
    candidate is converted to lists once, and the guess, the radius test
    and the next state's :func:`_outward` run in plain floats.  A
    :class:`Ball` is built only by :func:`min_enclosing_ball`, for the
    first ball and the guesses that fail, and once at the end.

    A rejected step changes neither the atoms nor the ball, so each state's
    boundary atoms, outward directions, support guess, stop and finish are
    computed once, when it is accepted, and serve all of its halvings.  A
    state whose sphere holds a near-regular k-simplex first tries its
    :func:`_finish`, as one iteration that is projected and tested like a
    step, with the lifted atom added to the support guess, and, if
    rejected, leaves the step as it is.  For k < n the finish lifts the
    restart off the stationary k-simplex, where steps alone stall, to a
    (k + 1)-simplex; for k = n it closes in one iteration the gap that
    halving steps would crawl.  Where the Jung stop holds (R at least
    :func:`_jung_floor`), every step would be rejected, so the restart
    halves to the floor without taking them and converges exactly when
    those halvings fit within ``max_iters``.  The first step is d / 4, each
    rejected step halves it, and a restart converges when it falls below
    1e-9 d.  Every tolerance is relative to d + R (or to d), so the search
    does not depend on the scale of the diameter cap.
    """
    rng = np.random.default_rng(config.seed + restart)
    n, N, d, cost = config.n, config.atom_count, config.d, config.cost

    atoms = _project_diameter(rng.uniform(-0.5 * d, 0.5 * d, (N, n)), d)
    rows = atoms.tolist()
    c, R, support, lam, d2 = _solved_ball(atoms, rows)
    step, step_floor, jung_floor = 0.25 * d, 1e-9 * d, _jung_floor(n, d)
    converged = False
    dirs, first = _outward(rows, c, R, d2, d)
    stop = R >= jung_floor
    finish = None if stop else _finish(rows, first, R, d)
    for it in range(config.max_iters):
        if stop:
            # this halving and every later one would be rejected
            halvings = 1
            while step * 0.5 ** halvings >= step_floor:
                halvings += 1
            converged = it + halvings <= config.max_iters
            break
        if finish is None:
            cand, cand_first = _project_diameter(atoms + step * dirs, d), first
        else:
            cand, cand_first = _project_diameter(np.array(finish[0]), d), finish[1]
        cand_rows = cand.tolist()
        guess = _guess_ball(cand_rows, cand_first, d)
        if guess is None:
            cand_c, reach, cand_support, cand_lam, d2 = _solved_ball(cand, cand_rows)
        else:
            (cand_c, reach, cand_lam, d2), cand_support = guess, cand_first
        if reach > R + 1e-15 * d:
            atoms, rows, c, R, support, lam = cand, cand_rows, cand_c, reach, cand_support, cand_lam
            dirs, first = _outward(rows, c, R, d2, d)
            stop = R >= jung_floor
            finish = None if stop else _finish(rows, first, R, d)
            continue
        if finish is not None:  # a rejected finish leaves the step as it is
            finish = None
            continue
        step *= 0.5
        if step < step_floor:
            converged = True
            break
    w, val = _weights_at_atoms(atoms, Ball(c, R, support, lam), cost)
    return atoms, w, val, converged


def search_max(config):
    """Multi-restart alternating ascent over (atoms, weights) under the
    diameter cap.  Deterministic for a fixed seed; restarts use derived
    seeds and the best restart wins.  Restarts that exhaust the iteration
    budget are recorded, not fatal; only all of them failing is an error.

    Values within 1e-12 relative of the largest tie, and the first restart
    among them wins: restarts that end at the bound agree to a few ulps,
    and another numpy/BLAS build rounds the ascent differently by as much.
    """
    t0 = time.perf_counter()
    per_restart, ends = [], []
    converged_count = 0
    for r in range(config.restarts):
        atoms, w, val, converged = _search_one(config, r)
        per_restart.append(val)
        ends.append((atoms, w))
        converged_count += bool(converged)
    if converged_count == 0:
        raise NoConvergenceError(
            f"no restart converged within {config.max_iters} iterations",
            cap=config.max_iters,
        )
    top = max(per_restart)
    best = next(r for r, val in enumerate(per_restart) if val >= top - 1e-12 * abs(top))
    (atoms, w), val = ends[best], per_restart[best]
    keep = w > WEIGHT_FLOOR
    measure = AtomicMeasure(atoms[keep], w[keep] / w[keep].sum())
    # the atoms' distances as the projection reads them: the Gram identity
    # of geometry.diameter reads sides left at d one ulp above it
    support, _ = measure.support()
    diff = support[:, None, :] - support[None, :, :]
    residual = max(0.0, float(np.sqrt(np.add.reduce(diff * diff, axis=2)).max()) - config.d)
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

    Requires the value to reach the sharp bound within ``tol`` relative,
    at least bound (1 - tol), the positive-mass atoms to form exactly n+1
    clusters of radius at most ``tol_geom`` with pairwise cluster distances
    within ``tol_geom`` of d, and cluster masses within ``tol`` of 1/(n+1):
    masses and the value's relative gap do not depend on the scale of d.
    """
    if tol_geom is None:
        tol_geom = 1e-3 * d
    bound = isodiametric_bound(n, d, cost)
    if result.best_value < bound * (1.0 - tol):
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
