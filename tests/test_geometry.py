import dataclasses
import itertools
import math
import re
import time
import warnings

import numpy as np
import pytest

from geomoment import (AtomicMeasure, Ball, DegenerateSupportError, ParseError,
                       PointCloud, RadialCost, Shape, biconjugate_at,
                       bhatia_davis_bound, bounds, chebyshev_level, circumball,
                       conjugate, conjugate_at, diameter, duality_gap,
                       equality_case, genvar, hull_membership, jung_radius,
                       jung_verify, lp, max_variance, meb_support,
                       min_enclosing_ball, phi, primal_lp_value,
                       read_cloud_csv, regular_simplex, shape_sample,
                       sup_genvar, translated_biconjugate_zero,
                       verify_saddle, write_cloud_csv, zero_mean_dual_center)
from geomoment import NoConvergenceError, geometry, isodiametric


def test_pointcloud_validation():
    with pytest.raises(ValueError):
        PointCloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointCloud([[np.nan, 0.0]])
    c = PointCloud([1.0, 2.0, 3.0])
    assert c.dim == 1 and len(c) == 3


@pytest.mark.parametrize("P, message", [
    ([[np.nan, 0.0], [1.0, 1.0]], "non-finite"),
    ([[np.inf, 0.0], [1.0, 1.0]], "non-finite"),
    ([[0.0, 0.0], [1.0, -np.inf]], "non-finite"),
    (np.empty((0, 2)), "nonempty"),
    ([], "nonempty"),
    ([[5e307, 0.0], [1.0, 1.0]], "too large to sum"),
])
@pytest.mark.parametrize("func", [diameter, min_enclosing_ball])
def test_raw_array_rejected_like_pointcloud(P, message, func):
    # diameter([[nan, 0], [1, 1]]) used to return 0.0 (max(0.0, nan) keeps
    # 0.0) and the ball was NaN; an empty array warned before it failed
    with pytest.raises(ValueError, match=message) as exc:
        PointCloud(P)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(str(exc.value))):
            func(P)


def test_diameter_examples():
    assert diameter(PointCloud([0.0, 1.0])) == pytest.approx(1.0)
    square = PointCloud([[0, 0], [1, 0], [0, 1], [1, 1]])
    assert diameter(square) == pytest.approx(math.sqrt(2))
    tet = regular_simplex(3, 1.0)
    assert diameter(PointCloud(tet.vertices)) == pytest.approx(1.0, abs=1e-12)
    assert diameter(PointCloud([[2.0, 5.0]])) == 0.0


def test_circumball_pair():
    b = circumball([[0.0], [1.0]])
    assert b.center[0] == pytest.approx(0.5)
    assert b.radius == pytest.approx(0.5)


def test_circumball_right_triangle():
    # oracle: the equidistant point solves a 2x2 linear system by hand; the
    # rank test is relative, so a triangle of side 1e-12 is not degenerate
    for s in (1.0, 1e-12, 1e6):
        T = s * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = circumball(T)
        assert np.allclose(b.center, [0.5 * s, 0.5 * s], rtol=1e-12, atol=0.0)
        assert b.radius == pytest.approx(s * math.sqrt(2) / 2, rel=1e-12)
        # boundary residual
        for p in T:
            assert abs(np.linalg.norm(b.center - p) - b.radius) <= 1e-10 * b.radius


def test_circumball_collinear_degenerate():
    with pytest.raises(DegenerateSupportError):
        circumball([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])


def test_meb_antipodal_pair():
    b = min_enclosing_ball(PointCloud([[-1.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(b.center, [0.0, 0.0], atol=1e-12)
    assert b.radius == pytest.approx(1.0)


def test_meb_simplex_jung_radius():
    V = regular_simplex(2, 1.0).vertices
    b = min_enclosing_ball(PointCloud(V))
    assert b.radius == pytest.approx(1.0 / math.sqrt(3), abs=1e-9)


def _brute_meb(P):
    """Exhaustive oracle: the smallest ball covering the cloud among the
    circumballs of every 1 to n + 1 of its points; the smallest enclosing
    ball is one of them."""
    best = None
    for k in range(1, P.shape[1] + 2):
        for rows in itertools.combinations(range(len(P)), k):
            try:
                b = circumball(P[list(rows)])
            except DegenerateSupportError:
                continue
            if (best is None or b.radius < best.radius) and (
                    np.linalg.norm(P - b.center, axis=1) <= b.radius * (1 + 1e-10)).all():
                best = b
    return best


def test_meb_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    P = rng.uniform(size=(100, 2))
    b = min_enclosing_ball(PointCloud(P))
    assert abs(b.radius - _brute_meb(P).radius) <= 1e-9


def test_meb_contains_and_radius_window():
    rng = np.random.default_rng(17)
    for trial in range(40):
        n = int(rng.integers(1, 6))
        P = rng.normal(size=(int(rng.integers(2, 60)), n))
        cloud = PointCloud(P)
        b = min_enclosing_ball(cloud)
        d = np.linalg.norm(P - b.center, axis=1)
        assert d.max() <= b.radius + 1e-9 * (1 + b.radius)
        dia = diameter(cloud)
        assert dia / 2 - 1e-9 <= b.radius <= dia + 1e-9


def test_meb_translation_equivariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        cloud = PointCloud(rng.normal(size=(25, n)))
        w = rng.normal(size=n) * 10
        b0 = min_enclosing_ball(cloud)
        b1 = min_enclosing_ball(cloud.translated(w))
        assert np.abs(b1.center - (b0.center + w)).max() <= 1e-9
        assert abs(b1.radius - b0.radius) <= 1e-9


def test_meb_support_certifies_center():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        cloud = PointCloud(rng.normal(size=(30, n)))
        b = min_enclosing_ball(cloud)
        idx = meb_support(cloud, b)
        assert 1 <= len(idx) <= 5 * (n + 1)
        w = hull_membership(cloud.points[idx], b.center)
        assert w is not None  # center in hull of boundary support


def test_meb_matches_exhaustive_oracle():
    rng = np.random.default_rng(8)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        P = rng.normal(size=(int(rng.integers(n + 2, 13)), n))
        exact = _brute_meb(P)
        b = min_enclosing_ball(PointCloud(P))
        assert abs(b.radius - exact.radius) <= 1e-12 * exact.radius
        assert np.linalg.norm(b.center - exact.center) <= 1e-9 * exact.radius


def test_meb_is_certified_optimal():
    # a ball that contains the cloud and carries a probability measure on
    # its sphere with barycenter at its center is the smallest one: any
    # other center is farther from some point of the measure's support
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        P = rng.normal(size=(50, n))
        b = min_enclosing_ball(PointCloud(P))
        assert np.linalg.norm(P - b.center, axis=1).max() <= b.radius
        _assert_dual(P, b)


def _pivoted_cloud(excess):
    """+-e1, (1 + excess) e2 and e3, six points inside the unit ball near
    -(e2 + e3) and forty near 0.6 (e2 + e3): the ball through the four axis
    points is the smallest, and its R^2 exceeds 1 by about excess^2."""
    rng = np.random.default_rng(5)
    low = rng.normal(size=(6, 3)) * 0.05 + [0.0, -1.0, -1.0]
    low *= 0.95 / np.linalg.norm(low, axis=1, keepdims=True)
    mid = rng.normal(size=(40, 3)) * 0.01 + [0.0, 0.6, 0.6]
    e = 1.0 + excess
    return np.vstack([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, e, 0.0], [0.0, 0.0, e], low, mid])


@pytest.mark.parametrize("excess", [1e-8, 1e-9, 1e-10])
def test_meb_pivot_below_the_rounding_of_the_radius(excess):
    # pivoting on (1 + excess) e2 and e3 raises R^2 by about excess^2, below
    # its rounding: a loop that required the radius to rise raised
    # NoConvergenceError here
    P = _pivoted_cloud(excess)
    b = min_enclosing_ball(P)
    e = 1.0 + excess
    y = (e * e - 1.0) / (2.0 * e)  # the center (0, y, y) of the ball through all four
    assert sorted(b.support) == [0, 1, 2, 3]
    assert np.linalg.norm(b.center - [0.0, y, y]) <= 1e-12
    assert abs(b.radius - math.sqrt(1.0 + 2.0 * y * y)) <= 1e-12
    _assert_dual(P, b)


def test_meb_loop_that_cannot_finish_raises(monkeypatch):
    # a walk that forgot the point that stopped it would be stopped by that
    # point again at once, forever: the cap on rounds ends the loop
    push = geometry._Span.push

    def forgetful(span, i):
        return push(span, i) if not span.rows else False

    monkeypatch.setattr(geometry._Span, "push", forgetful)
    with pytest.raises(NoConvergenceError, match="did not stop within"):
        min_enclosing_ball(_pivoted_cloud(1e-3))


@pytest.mark.parametrize("scale", [1e78, 1e100, 1e150])
def test_meb_at_scales_whose_fourth_power_overflows(scale):
    # the walk's threshold took the square root of res^2 r^2, which
    # overflows above about 1e77: no point was ever near, and every such
    # cloud raised NoConvergenceError
    rng = np.random.default_rng(0)
    for _ in range(40):
        P = rng.normal(size=(10, 2))
        radius = min_enclosing_ball(P).radius
        assert min_enclosing_ball(P * scale).radius / scale == pytest.approx(radius, rel=1e-15)


def test_meb_rejects_a_cloud_whose_squares_overflow():
    # at 1e300 the squared distances overflow: this used to warn, then fail
    # with an IndexError on an empty span
    P = np.random.default_rng(0).normal(size=(10, 2)) * 1e300
    with pytest.raises(ValueError, match="too spread out"):
        min_enclosing_ball(P)


def test_meb_near_sphere_high_dim_is_fast():
    # 40 points within 1e-3 of the unit sphere in R^12 hold a support of up
    # to 13 points; a move-to-front recursion on them took 1.2 s a cloud
    rng = np.random.default_rng(12)
    clouds = []
    for _ in range(3):
        g = rng.normal(size=(40, 12))
        clouds.append(g / np.linalg.norm(g, axis=1, keepdims=True)
                      * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=(40, 1))))
    start = time.perf_counter()
    balls = [min_enclosing_ball(P) for P in clouds]
    assert time.perf_counter() - start < 0.5
    for P, b in zip(clouds, balls):
        _assert_dual(P, b)


def test_meb_dual_on_cospherical_clouds():
    # every point on the sphere: the center is in the hull of a support
    # found among many points that tie, with weights taken as computed
    th = 2.0 * np.pi * np.arange(240) / 240
    circle = np.column_stack([np.cos(th), np.sin(th)])
    ball = min_enclosing_ball(circle)
    assert abs(ball.radius - 1.0) <= 1e-12 and np.linalg.norm(ball.center) <= 1e-12
    _assert_dual(circle, ball)
    rng = np.random.default_rng(88)
    for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        g = rng.normal(size=(60, 8))
        shift = scale * rng.uniform(-1e3, 1e3, size=8)
        P = scale * g / np.linalg.norm(g, axis=1, keepdims=True) + shift
        ball = min_enclosing_ball(P)
        assert np.linalg.norm(P - ball.center, axis=1).max() <= ball.radius
        _assert_dual(P, ball)


def test_meb_high_dim_covers_the_cloud():
    rng = np.random.default_rng(2)
    P = rng.normal(size=(80, 15))
    cloud = PointCloud(P)
    b = min_enclosing_ball(cloud)
    d = np.linalg.norm(P - b.center, axis=1)
    assert d.max() <= b.radius + 1e-9 * (1 + b.radius)


def test_meb_refinement_cover_test_is_relative():
    # a core's cover test with an absolute floor of 1e-12 accepted, at
    # scale 1e-11, a core ball up to 2e-2 of the radius too small, and the
    # radius came from whichever point the floor let through
    rng = np.random.default_rng(0)
    for _ in range(20):
        P = rng.normal(size=(30, 14))
        R = min_enclosing_ball(P).radius
        assert abs(min_enclosing_ball(P * 1e-11).radius / 1e-11 - R) <= 1e-14 * R


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("d", [1.0, math.sqrt(2), 3.7])
def test_regular_simplex_invariants(n, d):
    spec = regular_simplex(n, d)
    V = spec.vertices
    pd = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2)
    off = pd[~np.eye(n + 1, dtype=bool)]
    assert np.abs(off - d).max() <= 1e-12 * d
    assert np.abs(V.mean(axis=0)).max() <= 1e-12 * d
    assert np.abs(np.linalg.norm(V, axis=1) - jung_radius(n) * d).max() <= 1e-12 * d


def test_regular_simplex_examples():
    v = regular_simplex(1, 1.0).vertices
    assert np.allclose(sorted(v.ravel()), [-0.5, 0.5])
    assert regular_simplex(2, 1.0) is not None
    r3 = np.linalg.norm(regular_simplex(3, 1.0).vertices[0])
    assert r3 == pytest.approx(math.sqrt(3.0 / 8.0))


def test_jung_radius_values():
    assert jung_radius(1) == pytest.approx(0.5)
    assert jung_radius(2) == pytest.approx(1.0 / math.sqrt(3))
    assert jung_radius(3) == pytest.approx(0.6123724356957945)


def test_shape_sample_box_has_vertices():
    cloud = shape_sample(Shape.box([1.0, 1.0]), 4)
    got = {tuple(p) for p in cloud.points}
    assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    with pytest.raises(ValueError):
        shape_sample(Shape.box([1.0, 1.0]), 3)


def test_shape_sample_diamond_has_vertices():
    cloud = shape_sample(Shape.diamond(2.0, 1.0), 4)
    got = {tuple(p) for p in cloud.points}
    assert got == {(2, 0), (-2, 0), (0, 1), (0, -1)}


def test_shape_sample_ball_boundary():
    cloud = shape_sample(Shape.ball(1.0), 64)
    r = np.linalg.norm(cloud.points[:64], axis=1)
    assert np.abs(r - 1.0).max() <= 1e-12


def test_shape_sample_inside_shape():
    rng_seeds = [0, 1]
    for seed in rng_seeds:
        for shape in (Shape.ball(2.0), Shape.ellipse(2.0, 1.0),
                      Shape.box([1.0, 0.5]), Shape.diamond(2.0, 1.0)):
            cloud = shape_sample(shape, 64, seed=seed)
            for p in cloud.points:
                assert shape.contains(p)


def test_shape_sample_deterministic_for_seed():
    a = shape_sample(Shape.ellipse(2.0, 1.0), 32, seed=9)
    b = shape_sample(Shape.ellipse(2.0, 1.0), 32, seed=9)
    assert np.array_equal(a.points, b.points)


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape.ellipse(1.0, 1.0)
    with pytest.raises(ValueError):
        Shape.diamond(1.0, 2.0)
    with pytest.raises(ValueError):
        Shape.box([1.0, -1.0])
    for dim in (0, -2):
        with pytest.raises(ValueError, match=f"dimension must be at least 1, got {dim}"):
            Shape.ball(1.0, dim=dim)


def test_cloud_csv_round_trip(tmp_path):
    cloud = PointCloud([[1.25, -3.5e-7], [2.0, 4.0]])
    path = tmp_path / "cloud.csv"
    write_cloud_csv(cloud, path)
    back = read_cloud_csv(path)
    assert np.array_equal(back.points, cloud.points)


def test_cloud_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n1,2\n3\n")
    with pytest.raises(ParseError) as exc:
        read_cloud_csv(path)
    assert "row 3" in str(exc.value)


def test_cloud_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError):
        read_cloud_csv(path)


def test_ball_contains():
    b = Ball(np.zeros(2), 1.0)
    assert b.contains([[0.5, 0.5]])
    assert not b.contains([[1.5, 0.0]])
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -1.0)


def test_meb_degenerate_inputs():
    # duplicates, collinear 2-D clouds, and fully coincident clouds all
    # exercise the dependent-support handling
    P = np.array([[0.0, 0.0]] * 5 + [[1.0, 0.0]] * 4 + [[0.5, 0.7]] * 3)
    b = min_enclosing_ball(PointCloud(P))
    assert (np.linalg.norm(P - b.center, axis=1) <= b.radius + 1e-9).all()
    line = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
    b = min_enclosing_ball(PointCloud(line))
    assert np.allclose(b.center, [0.5, 0.0], atol=1e-9)
    assert b.radius == pytest.approx(0.5, abs=1e-9)
    same = np.tile([2.0, -1.0], (6, 1))
    b = min_enclosing_ball(PointCloud(same))
    assert b.radius == 0.0
    rng = np.random.default_rng(0)
    base = rng.normal(size=(10, 3))
    near = np.vstack([base, base + 1e-13 * rng.normal(size=(10, 3))])
    b = min_enclosing_ball(PointCloud(near))
    d = np.linalg.norm(near - b.center, axis=1)
    assert d.max() <= b.radius + 1e-9


def test_shape_cloud_membership():
    cloud = PointCloud([[0.0, 0.0], [1.0, 1.0]])
    shape = Shape.cloud(cloud)
    assert shape.contains([1.0, 1.0])
    assert not shape.contains([0.5, 0.5])
    assert shape.dim == 2


def test_diameter_far_from_origin():
    # the Gram identity cancels far from the origin unless the cloud is
    # recentred first: a spread-5 cloud moved by 1e6 keeps its diameter
    rng = np.random.default_rng(5)
    P = rng.uniform(-2.5, 2.5, (200, 3))
    d0 = diameter(PointCloud(P))
    moved = diameter(PointCloud(P + 1e6))
    assert abs(moved - d0) <= 1e-9 * d0
    tri = regular_simplex(2, 1.0).vertices
    for offset in (1e6, 1e7):
        assert abs(diameter(PointCloud(tri + offset)) - 1.0) <= 1e-8


def _simplex_clusters(rng, n, d, rho):
    """n+1 clusters of 2-3 points within rho * d of the vertices of a
    regular simplex of diameter d: the configurations the isodiametric
    search converges to."""
    pts = []
    for v in regular_simplex(n, d).vertices:
        g = rng.normal(size=(int(rng.integers(2, 4)), n))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts.append(v + rho * d * rng.uniform(size=(len(g), 1)) * g)
    P = np.vstack(pts)
    return P[rng.permutation(len(P))]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1e-3, 1.0, 1e3])
def test_meb_clustered_simplex_support(n, d):
    rng = np.random.default_rng(100 * n + int(math.log10(d)) + 3)
    for rho in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        P = _simplex_clusters(rng, n, d, rho)
        cloud = PointCloud(P)
        radii = []
        for seed in range(5):  # the loop's path depends on the order of the points
            b = min_enclosing_ball(P[np.random.default_rng(seed).permutation(len(P))])
            assert np.linalg.norm(P - b.center, axis=1).max() <= b.radius * (1 + 1e-12)
            assert hull_membership(P[meb_support(cloud, b)], b.center) is not None
            radii.append(b.radius)
        assert max(radii) - min(radii) <= 1e-12 * max(radii)


@pytest.mark.parametrize("spread, offset", [(1e-6, 0.0), (1e-3, 1e6), (1.0, 1e6)])
def test_meb_support_default_tolerance_is_relative(spread, offset):
    # points 1e-4 R and 1e-3 R inside the sphere are not support; the old
    # absolute 1e-9 (1 + R) took them for support at spread 1e-6
    V = regular_simplex(2, spread).vertices
    R = np.linalg.norm(V[0])
    u = np.array([0.6, 0.8])
    cloud = PointCloud(np.vstack([V, (1 - 1e-4) * R * u, -(1 - 1e-3) * R * u]) + offset)
    b = min_enclosing_ball(cloud)
    assert meb_support(cloud, b).tolist() == [0, 1, 2]


def _assert_dual(P, ball):
    # the ball's dual: a probability vector on points of its sphere whose
    # barycenter is its center
    R = ball.radius
    w = np.asarray(ball.weights)
    X = P[ball.support]
    assert len(set(ball.support)) == len(ball.support) == w.size >= 1
    assert (w >= 0.0).all()
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.linalg.norm(w @ X - ball.center) <= 1e-9 * R
    assert np.abs(np.linalg.norm(X - ball.center, axis=1) - R).max() <= 1e-9 * R


def _dual_clouds(rng):
    """Random clouds in R^1..R^5, regular polygons with interior points,
    cube corners and duplicated simplex vertices, each in random order."""
    clouds = [rng.normal(size=(int(rng.integers(2, 40)), n))
              for n in range(1, 6) for _ in range(12)]
    for k in range(3, 10):
        th = 2.0 * np.pi * np.arange(k) / k
        inner = rng.uniform(-0.5, 0.5, size=(4, 2))
        clouds.append(np.vstack([np.column_stack([np.cos(th), np.sin(th)]), inner]))
    for n in range(1, 5):
        clouds.append(np.array(list(itertools.product([-1.0, 1.0], repeat=n))))
        S = regular_simplex(n, 1.0).vertices
        clouds.append(np.vstack([S, S, S[:1]]))
    return [P[rng.permutation(len(P))] for P in clouds]


def test_min_enclosing_ball_carries_its_dual():
    rng = np.random.default_rng(71)
    for P in _dual_clouds(rng):
        # the points in their own order and in three random ones
        for order in [np.arange(len(P))] + [np.random.default_rng(seed).permutation(len(P))
                                            for seed in range(3)]:
            ball = min_enclosing_ball(P[order])
            _assert_dual(P[order], ball)
        # the search's guess at the support, certified, carries the weights
        # it certified with
        c, reach, lam, _ = isodiametric._guess_ball(P[order].tolist(), ball.support,
                                                    2.0 * ball.radius)
        _assert_dual(P[order], Ball(c, reach, ball.support, lam))


def test_min_enclosing_ball_dual_on_refinement_and_singleton():
    rng = np.random.default_rng(72)
    for n in (13, 15):
        P = rng.normal(size=(60, n))
        _assert_dual(P, min_enclosing_ball(P))
    ball = min_enclosing_ball([[2.0, -1.0]])
    assert ball.support == [0] and ball.weights == [1.0]
    _assert_dual(np.array([[2.0, -1.0]]), ball)
    # a ball not solved as an enclosing ball carries no dual
    assert Ball(np.zeros(2), 1.0).support is None
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 1.0, [0, 1], [1.0])


def test_max_variance_maximizer_is_the_ball_dual():
    # in low and high dimensions and on a singleton
    rng = np.random.default_rng(74)
    clouds = _dual_clouds(rng)[::3] + [rng.normal(size=(60, n)) for n in (13, 14, 15)]
    for P in clouds + [np.array([[3.0, 4.0]])]:
        rep = max_variance(P)
        w = rep.maximizer.weights
        on = np.nonzero(w)[0].tolist()
        _assert_dual(P, Ball(rep.dual_center, rep.enclosing_ball.radius, on, w[on].tolist()))
        assert rep.gap <= 1e-12 * rep.dual_value


def test_chebyshev_level_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("chebyshev_level solved an LP")

    for mod in (lp, bounds, genvar, conjugate):
        if hasattr(mod, "solve_lp"):
            monkeypatch.setattr(mod, "solve_lp", no_lp)
    rng = np.random.default_rng(73)
    for P in _dual_clouds(rng)[::3]:
        for cost in (RadialCost.power(1), RadialCost.power(3)):
            lam, z = chebyshev_level(PointCloud(P), cost)
            R = min_enclosing_ball(P).radius
            assert abs(lam - cost(R)) <= 1e-12 * (1.0 + cost(R))
            assert np.linalg.norm(P - z, axis=1).max() <= R * (1.0 + 1e-12)


def _numbers(x):
    """A result's numbers, in a form that == compares exactly."""
    if isinstance(x, (PointCloud, AtomicMeasure)):
        return _numbers(x.points if isinstance(x, PointCloud) else (x.atoms, x.weights))
    if dataclasses.is_dataclass(x):
        return [_numbers(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        return [_numbers(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


_RAW = np.array([[1.0, 0.1], [-0.2, 1.0], [-1.0, -0.1], [0.1, -1.0],
                 [0.3, 0.2], [-0.4, 0.1]])
_MEASURE = AtomicMeasure(_RAW[:4], [0.25, 0.25, 0.25, 0.25])
_COST = RadialCost.power(3)

CLOUD_ENTRIES = {
    "max_variance": lambda c: max_variance(c),
    "chebyshev_level": lambda c: chebyshev_level(c, _COST),
    "sup_genvar": lambda c: sup_genvar(c, _COST),
    "verify_saddle": lambda c: verify_saddle(_MEASURE, c, _COST),
    "jung_verify": lambda c: jung_verify(c),
    "duality_gap": lambda c: duality_gap(c),
    "primal_lp_value": lambda c: primal_lp_value(c),
    "zero_mean_dual_center": lambda c: zero_mean_dual_center(c),
    "equality_case": lambda c: equality_case(_MEASURE, c),
    # the verdict True handed the raw array on to the witness's LP
    "equality_case_extremal": lambda c: equality_case(max_variance(_RAW).maximizer, c),
    "bhatia_davis_bound": lambda c: bhatia_davis_bound(c, [0.1, 0.0]),
    "conjugate_at": lambda c: conjugate_at(c, [0.5, -0.5]),
    "biconjugate_at": lambda c: biconjugate_at(c, [0.1, 0.0]),
    "translated_biconjugate_zero": lambda c: translated_biconjugate_zero(c, [0.1, 0.0]),
    "phi": lambda c: phi(c, _RAW[0]),
}


@pytest.mark.parametrize("entry", sorted(CLOUD_ENTRIES))
def test_cloud_entries_accept_raw_arrays(entry):
    # each raised AttributeError on an (N, n) array
    call = CLOUD_ENTRIES[entry]
    assert _numbers(call(_RAW)) == _numbers(call(PointCloud(_RAW)))
    with pytest.raises(ValueError):
        call([[0.0, 1.0], [2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        call([[np.nan, 0.0], [1.0, 1.0]])


def test_float_sums_add_left_to_right():
    # the builtin sum compensates its rounding from Python 3.12 on:
    # sum([1e16, 1.0, -1e16]) is 1.0 there and 0.0 on 3.11.  _Span, which
    # the enclosing ball, circumball and the search's guessed balls share,
    # adds left to right, so they round alike on every Python version
    assert geometry._dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
    # orthogonal offsets (L = 0): lam_j = f[j-1], and lam_0 = 1 minus them
    span = geometry._Span([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert all(span.push(i) for i in range(4))
    assert span.L == [[], [0.0], [0.0, 0.0]]
    assert span.weights([1e16, 1.0, -1e16]) == [1.0, 1e16, 1.0, -1e16]
    # squared distances of 1e16 + 1 + 1 from the pair's midpoint: 1e16 left
    # to right, 1e16 + 2 compensated, whose root is one ulp above 1e8
    c, reach, lam, d2 = isodiametric._guess_ball([[0.0, 0.0, 0.0], [2e8, 2.0, 2.0]], [0, 1], 1.0)
    assert reach == 1e8 and d2 == [1e16, 1e16]
