import json

import numpy as np
import pytest

from geomoment import (AtomicMeasure, DomainError, PointCloud, Shape,
                       bd_1d, bhatia_davis_bound, biconjugate_at,
                       duality_gap, equality_case, max_variance, mean,
                       popoviciu, primal_lp_value, read_measure_json,
                       regular_simplex, shape_sample, variance,
                       write_measure_json)
from geomoment import RadialCost, bounds, chebyshev_level, generalized_variance, lp
from geomoment.bounds import in_hull_interior, zero_mean_dual_center


def test_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, 1.0], [1.5, -0.5])
    with pytest.raises(ValueError):
        AtomicMeasure([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        AtomicMeasure([[0.0], [1.0]], [np.nan, np.nan])


def test_mean_examples():
    assert mean(AtomicMeasure([0.0, 1.0], [0.5, 0.5]))[0] == pytest.approx(0.5)
    c = np.array([0.4, -1.0])
    spec = regular_simplex(2, 1.0, center=c)
    mu = AtomicMeasure(spec.vertices, np.ones(3) / 3)
    assert np.allclose(mean(mu), c, atol=1e-12)
    dirac = AtomicMeasure([[2.0, 3.0]], [1.0])
    assert np.allclose(mean(dirac), [2.0, 3.0])


def test_variance_examples():
    assert variance(AtomicMeasure([0.0, 1.0], [0.5, 0.5])) == pytest.approx(0.25)
    mu = AtomicMeasure(regular_simplex(2, 1.0).vertices, np.ones(3) / 3)
    assert variance(mu) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert variance(AtomicMeasure([[5.0, 1.0]], [1.0])) == 0.0


def test_bd_1d():
    assert bd_1d(0.0, 1.0, 0.5) == pytest.approx(0.25)
    assert bd_1d(0.0, 1.0, 0.0) == 0.0
    assert bd_1d(-2.0, 3.0, 1.0) == pytest.approx(6.0)
    with pytest.raises(DomainError):
        bd_1d(0.0, 1.0, 2.0)


def test_popoviciu():
    assert popoviciu(0.0, 1.0) == pytest.approx(0.25)
    assert popoviciu(3.0, 3.0) == 0.0
    assert popoviciu(-1.0, 3.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        popoviciu(1.0, 0.0)
    # computed in a frame: the square of 2e200 raised OverflowError from
    # Python's float power; an answer that no float holds raises ValueError
    assert popoviciu(-1e150, 1e150) == pytest.approx(1e300, rel=1e-15)
    with pytest.raises(ValueError, match="not representable"):
        popoviciu(-1e200, 1e200)


def test_bound_closed_forms():
    assert bhatia_davis_bound(Shape.ball(1.0), [0.6, 0.0]) == pytest.approx(0.64)
    a = np.array([1.0, 1.0])
    assert bhatia_davis_bound(Shape.box(a), [0.0, 0.0]) == pytest.approx(2.0)
    assert bhatia_davis_bound(Shape.diamond(2.0, 1.0), [0.0, 0.0]) == pytest.approx(4.0)
    assert bhatia_davis_bound(Shape.interval(0.0, 1.0), [0.5]) == pytest.approx(0.25)


def test_bound_diamond_matches_printed_formula_off_axis():
    a1, a2 = 2.0, 1.0
    for xb in ([0.3, 0.2], [0.0, -0.5], [-1.0, 0.1]):
        expected = a1 ** 2 - (a1 ** 2 - a2 ** 2) / a2 * abs(xb[1]) - (xb[0] ** 2 + xb[1] ** 2)
        assert bhatia_davis_bound(Shape.diamond(a1, a2), xb) == pytest.approx(expected)


def test_bound_closed_form_vs_lp_meshes():
    xb = np.array([0.2, -0.1])
    ball_mesh = shape_sample(Shape.ball(1.0), 256, seed=1)
    assert bhatia_davis_bound(ball_mesh, xb) == pytest.approx(
        bhatia_davis_bound(Shape.ball(1.0), xb), abs=1e-6)
    box_mesh = shape_sample(Shape.box([1.0, 1.0]), 256, seed=1)
    assert bhatia_davis_bound(box_mesh, xb) == pytest.approx(
        bhatia_davis_bound(Shape.box([1.0, 1.0]), xb), abs=1e-6)
    dia_mesh = shape_sample(Shape.diamond(2.0, 1.0), 256, seed=1)
    assert bhatia_davis_bound(dia_mesh, xb) == pytest.approx(
        bhatia_davis_bound(Shape.diamond(2.0, 1.0), xb), abs=1e-6)


def test_bound_outside_hull_certificate():
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError) as exc:
        bhatia_davis_bound(cloud, [2.0, 2.0])
    y = exc.value.certificate
    assert y is not None
    # separating functional: u.x <= c on atoms, u.target > c
    u, c = y[:2], -y[2]
    assert (cloud.points @ u).max() <= c + 1e-7
    assert u @ np.array([2.0, 2.0]) > c


def test_bound_shape_domain_errors():
    with pytest.raises(DomainError):
        bhatia_davis_bound(Shape.ball(1.0), [2.0, 0.0])
    with pytest.raises(DomainError):
        bhatia_davis_bound(Shape.box([1.0, 1.0]), [1.5, 0.0])
    with pytest.raises(DomainError):
        bhatia_davis_bound(Shape.diamond(2.0, 1.0), [1.5, 0.9])


@pytest.mark.parametrize("R", [1e-9, 1.0, 1e9])
def test_ball_bound_slack_is_relative(R):
    # an absolute 1e-15 on |xbar|^2 took a mean at 20 R for a point of the
    # ball of radius 1e-9, and Shape.contains's absolute 1e-12 took a point
    # 1e-4 R outside it
    with pytest.raises(DomainError):
        bhatia_davis_bound(Shape.ball(R), [20.0 * R, 0.0])
    with pytest.raises(DomainError):
        bhatia_davis_bound(Shape.ball(R), [R * (1 + 1e-9), 0.0])
    assert bhatia_davis_bound(Shape.ball(R), [0.9 * R, 0.0]) == pytest.approx(0.19 * R * R)
    assert not Shape.ball(R).contains([R * (1 + 1e-4), 0.0])
    assert Shape.ball(R).contains([0.0, 0.9 * R])
    assert Shape.ball(R).contains([0.6 * R, 0.8 * R])


def test_max_variance_two_point():
    rep = max_variance(PointCloud([-1.0, 1.0]))
    assert rep.dual_value == pytest.approx(1.0)
    assert rep.gap <= 1e-12
    assert np.allclose(rep.maximizer.weights, [0.5, 0.5])


def test_max_variance_simplex():
    rep = max_variance(PointCloud(regular_simplex(2, 1.0).vertices))
    assert rep.dual_value == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert np.allclose(rep.maximizer.weights, 1.0 / 3.0, atol=1e-9)
    assert rep.gap <= 1e-7


def test_max_variance_square_some_optimizer():
    cloud = PointCloud([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    rep = max_variance(cloud)
    assert rep.dual_value == pytest.approx(2.0, abs=1e-9)
    assert rep.gap <= 1e-7
    assert np.allclose(mean(rep.maximizer), [0.0, 0.0], atol=1e-7)
    ec = equality_case(rep.maximizer, cloud)
    assert ec.is_equality is True


def test_max_variance_singleton():
    rep = max_variance(PointCloud([[3.0, 4.0]]))
    assert rep.dual_value == 0.0
    assert rep.primal_value == 0.0


@pytest.mark.parametrize("spread, offset", [(1e-6, 1.0), (1e-3, 1e3), (1.0, 1e6)])
def test_max_variance_far_from_origin(spread, offset):
    # offset/spread = 1e6; an absolute support tolerance of 1e-7 (1 + R)
    # took interior points for support at spread 1e-6 (relative gaps to 0.03)
    rng = np.random.default_rng(3)
    for _ in range(20):
        Q = rng.normal(size=(int(rng.integers(10, 41)), int(rng.integers(2, 5))))
        rep = max_variance(PointCloud(Q * spread + offset))
        ref = max_variance(PointCloud(Q))
        assert rep.gap <= 1e-9 * rep.dual_value
        assert abs(rep.dual_value - ref.dual_value * spread ** 2) <= 1e-9 * rep.dual_value
        R = rep.enclosing_ball.radius
        assert np.abs(mean(rep.maximizer) - rep.dual_center).max() <= 1e-8 * R


@pytest.mark.parametrize("scale", [1e8, 1e10, 1e12])
def test_max_variance_one_weight_solve_at_any_scale(scale, monkeypatch):
    # the maximizer is the enclosing ball's own dual: no LP at any scale
    rng = np.random.default_rng(5)
    clouds = [rng.normal(size=(int(rng.integers(8, 31)), int(rng.integers(2, 5))))
              for _ in range(40)]
    ref = [max_variance(PointCloud(Q)).primal_value for Q in clouds]

    def no_lp(*args, **kwargs):
        raise AssertionError("max_variance solved an LP")

    for mod in (lp, bounds):
        monkeypatch.setattr(mod, "solve_lp", no_lp)
    for Q, r in zip(clouds, ref):
        rep = max_variance(PointCloud(Q * scale))
        assert abs(rep.primal_value / scale ** 2 - r) <= 1e-9 * r


@pytest.mark.parametrize("call", [
    lambda: Shape.ball(float("nan")),
    lambda: Shape.box([float("nan"), 1.0]),
    lambda: Shape.interval(0.0, float("inf")),
    lambda: Shape.ellipse(float("inf"), 1.0),
    lambda: bhatia_davis_bound(Shape.ball(1.0), [float("nan"), 0.0]),
    lambda: bhatia_davis_bound(PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                               [float("inf"), 0.0]),
    lambda: generalized_variance(AtomicMeasure([[0.0], [1.0], [3.0]], [0.2, 0.5, 0.3]),
                                 RadialCost.power(3), tol=float("nan")),
    lambda: chebyshev_level(PointCloud(regular_simplex(2, 1.0).vertices),
                            RadialCost.power(2), tol=float("nan")),
], ids=["ball-radius", "box-half-width", "interval-end", "ellipse-axis", "shape-mean",
        "cloud-mean", "genvar-tol", "chebyshev-tol"])
def test_non_finite_input_rejected(call):
    # the CLI rejects these flag values; the library must not return nan,
    # inf or an uncertified result for them either
    with pytest.raises(ValueError):
        call()


def test_primal_lp_value_examples():
    assert primal_lp_value(PointCloud([-1.0, 1.0])) == pytest.approx(1.0)
    V = regular_simplex(2, 1.0).vertices
    assert primal_lp_value(PointCloud(V)) == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert primal_lp_value(PointCloud([-2.0, 1.0])) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        primal_lp_value(PointCloud([1.0, 2.0]))


def test_duality_gap_examples():
    assert duality_gap(PointCloud([-1.0, 1.0])) <= 1e-10
    assert duality_gap(PointCloud(regular_simplex(2, 1.0).vertices)) <= 1e-9
    with pytest.raises(DomainError):
        duality_gap(PointCloud([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]]))


def test_duality_gap_random_clouds(make_cloud):
    rng = np.random.default_rng(101)
    for trial in range(50):
        n = int(rng.choice([2, 3, 5]))
        cloud = make_cloud(rng, n, recentered=True)
        assert duality_gap(cloud) <= 1e-7


def test_zero_mean_strong_duality_at_optimal_center(make_cloud):
    # the dual optimum over centers exactly equals the zero-mean primal
    rng = np.random.default_rng(113)
    for _ in range(25):
        n = int(rng.choice([2, 3, 5]))
        cloud = make_cloud(rng, n, recentered=True)
        primal = primal_lp_value(cloud)
        q, dual = zero_mean_dual_center(cloud)
        assert abs(primal - dual) <= 1e-7 * (1 + abs(primal))
        # q is the center of the smallest sphere carrying a zero-mean measure
        r = np.linalg.norm(cloud.points - q, axis=1).max()
        assert abs((r * r - q @ q) - primal) <= 1e-7 * (1 + abs(primal))


def test_primal_equals_negative_envelope_at_zero(make_cloud):
    rng = np.random.default_rng(57)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        cloud = make_cloud(rng, n, recentered=True)
        assert primal_lp_value(cloud) == pytest.approx(
            -biconjugate_at(cloud, np.zeros(n)), abs=1e-8)


def test_variance_bounded_by_bd_bound_random(make_cloud):
    rng = np.random.default_rng(63)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        cloud = make_cloud(rng, n)
        w = rng.dirichlet(np.ones(len(cloud)))
        mu = AtomicMeasure(cloud.points, w)
        assert variance(mu) <= bhatia_davis_bound(cloud, mean(mu)) + 1e-8


def test_maximizer_attains_equality_case(make_cloud):
    rng = np.random.default_rng(71)
    for _ in range(15):
        cloud = make_cloud(rng, int(rng.integers(1, 4)))
        rep = max_variance(cloud)
        assert abs(variance(rep.maximizer) - rep.dual_value) <= 1e-8
        ec = equality_case(rep.maximizer, cloud)
        if ec.is_equality is not None:  # boundary-mean cases are indeterminate
            assert ec.is_equality is True


def test_scaling_covariance(make_cloud):
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cloud = make_cloud(rng, n)
        w = rng.dirichlet(np.ones(len(cloud)))
        mu = AtomicMeasure(cloud.points, w)
        s = float(rng.uniform(0.1, 5.0))
        assert variance(mu.scaled(s)) == pytest.approx(s * s * variance(mu), rel=1e-9)
        xb = mean(mu)
        b0 = bhatia_davis_bound(cloud, xb)
        b1 = bhatia_davis_bound(cloud.scaled(s), s * xb)
        assert b1 == pytest.approx(s * s * b0, rel=1e-9, abs=1e-12)


def test_translation_invariance(make_cloud):
    rng = np.random.default_rng(97)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        cloud = make_cloud(rng, n)
        w = rng.dirichlet(np.ones(len(cloud)))
        mu = AtomicMeasure(cloud.points, w)
        t = rng.normal(size=n) * 3
        assert variance(mu.translated(t)) == pytest.approx(variance(mu), abs=1e-9)
        b0 = bhatia_davis_bound(cloud, mean(mu))
        b1 = bhatia_davis_bound(cloud.translated(t), mean(mu) + t)
        assert b1 == pytest.approx(b0, abs=1e-9)


def test_equality_case_square_vertices():
    cloud = PointCloud([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    mu = AtomicMeasure(cloud.points, np.ones(4) / 4)
    ec = equality_case(mu, cloud)
    assert ec.is_equality is True
    assert ec.witness is not None
    assert ec.witness.contains(cloud.points, tol=1e-7)


def test_equality_case_interior_mass_false():
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0], [0.0, 0.0]])
    cloud = PointCloud(pts)
    mu = AtomicMeasure(pts, np.full(5, 0.2))
    ec = equality_case(mu, cloud)
    assert ec.is_equality is False


def test_equality_case_diamond_three_vertices():
    # two far vertices plus one near vertex, mean off-axis: printed
    # characterization says equality holds
    pts = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cloud = PointCloud(pts)
    mu = AtomicMeasure(pts, [1 / 3, 1 / 3, 1 / 3, 0.0])
    xb = mean(mu)
    bound = bhatia_davis_bound(Shape.diamond(2.0, 1.0), xb)
    assert variance(mu) == pytest.approx(bound, abs=1e-9)
    ec = equality_case(mu, cloud, tol=1e-9)
    assert ec.is_equality is True
    # mass on both near vertices breaks equality
    mu_bad = AtomicMeasure(pts, [0.35, 0.35, 0.15, 0.15])
    assert equality_case(mu_bad, cloud).is_equality is False


def test_equality_case_boundary_mean_indeterminate():
    cloud = PointCloud([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    mu = AtomicMeasure(cloud.points, [0.5, 0.5, 0.0, 0.0])  # mean on an edge
    ec = equality_case(mu, cloud)
    assert ec.is_equality is None


def test_bound_on_a_cloud_whose_squares_overflow_raises():
    # s^2 overflowed at 1e300 and the bound came out nan, silently; the
    # bound is near 1e600, which no float holds
    P = np.random.default_rng(0).normal(size=(10, 2)) * 1e300
    with pytest.raises(ValueError, match="not representable"):
        bhatia_davis_bound(Shape.cloud(PointCloud(P)), np.zeros(2))


@pytest.mark.filterwarnings("error")
def test_bound_whose_offsets_from_xbar_overflow_raises():
    # an offset of -1.8e308 is no float: the frame of xbar refuses it
    # before any arithmetic can warn
    with pytest.raises(ValueError, match="offsets from their origin are not finite"):
        bhatia_davis_bound(PointCloud([[-8e307]]), [1e308])


def test_primal_lp_value_on_a_cloud_whose_squares_overflow_raises():
    # primal_lp_value solved its own copy of the bound's envelope LP,
    # without the bound's overflow check, and returned inf at 1e200; the
    # bound is 1e400, which no float holds
    with pytest.raises(ValueError, match="not representable"):
        primal_lp_value(PointCloud([[1e200], [-1e200]]))


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e8])
def test_equality_case_tolerances_are_relative(s):
    # at s = 1e-8 the absolute tol (1 + |bound|) took a measure with 0.6 of
    # the bound's variance for an extremal one.  A regular triangle of
    # diameter s plus its center, at the origin and offset by 3 s
    base = np.vstack([regular_simplex(2, s).vertices, [[0.0, 0.0]]])
    for P in (base, base + 3.0 * s):
        extremal = equality_case(AtomicMeasure(P, [1 / 3, 1 / 3, 1 / 3, 0.0]), PointCloud(P))
        assert extremal.is_equality is True
        assert extremal.witness.contains(P, tol=1e-7 * extremal.witness.radius)
        inner = equality_case(AtomicMeasure(P, [0.2, 0.2, 0.2, 0.4]), PointCloud(P))
        assert inner.is_equality is False
        assert inner.variance == pytest.approx(0.6 * inner.bound, rel=1e-9)
    # an atom 1e-6 s off a cloud point is no cloud point at any scale
    with pytest.raises(ValueError, match="not a cloud point"):
        equality_case(AtomicMeasure(base + [1e-6 * s, 0.0], np.full(4, 0.25)), PointCloud(base))


def test_equality_case_requires_atoms_in_cloud():
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mu = AtomicMeasure([[5.0, 5.0]], [1.0])
    with pytest.raises(ValueError):
        equality_case(mu, cloud)


def test_in_hull_interior_surrogate():
    V = regular_simplex(2, 1.0).vertices
    assert in_hull_interior(V, np.zeros(2))
    assert not in_hull_interior(V, V[0])  # a vertex is not interior


def test_interior_min_weight_is_scale_free():
    # posed on raw coordinates, the LP's absolute tolerances read the min
    # weight up to 4.5x wrong at scale 1e-10 and 7.4e-9 relative off at
    # offset 1e7 (against the same rounded points moved back, exactly)
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(n + 2, 12))
        X = rng.normal(size=(N, n))
        t = rng.dirichlet(np.ones(N)) @ X
        m = lp.hull_membership(X, t).min()
        assert m > 0
        assert lp.hull_membership(X * 1e-10, t * 1e-10).min() == pytest.approx(m, rel=1e-9)
        Xo, to = X + 1e7, t + 1e7
        moved_back = lp.hull_membership(Xo - 1e7, to - 1e7).min()
        assert lp.hull_membership(Xo, to).min() == pytest.approx(moved_back, rel=1e-9)


def test_measure_json_round_trip(tmp_path):
    mu = AtomicMeasure([[0.1, 0.2], [0.3, -0.4]], [0.25, 0.75])
    path = tmp_path / "measure.json"
    write_measure_json(mu, path)
    data = json.loads(path.read_text())
    assert set(data) == {"atoms", "weights"}
    back = read_measure_json(path)
    assert np.array_equal(back.atoms.points, mu.atoms.points)
    assert np.array_equal(back.weights, mu.weights)


def test_bound_diamond_four_vertex_cloud_cross_check():
    # the printed closed form against the envelope LP on just the vertices
    verts = PointCloud([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    for xb in ([0.0, 0.0], [0.3, 0.2], [-0.5, -0.4]):
        assert bhatia_davis_bound(verts, np.asarray(xb)) == pytest.approx(
            bhatia_davis_bound(Shape.diamond(2.0, 1.0), xb), abs=1e-10)


def test_read_measure_json_errors(tmp_path):
    from geomoment import ParseError

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        read_measure_json(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"atoms": [[0.0]], "weights": [0.5]}')
    with pytest.raises(ParseError):
        read_measure_json(wrong)
