import math

import numpy as np
import pytest

from geomoment import (PointCloud, Shape, biconjugate_at, conjugate_at, phi,
                       shape_sample, translated_biconjugate_zero)


def test_phi_ball_boundary():
    assert phi(Shape.ball(1.0), [0.6, 0.8]) == pytest.approx(-1.0)


def test_phi_outside_interval_is_inf():
    assert math.isinf(phi(Shape.interval(0.0, 1.0), [2.0]))


@pytest.mark.filterwarnings("error")
def test_phi_far_from_the_origin():
    # |x|^2 overflowed at 5e199: the ball read its interior point as
    # outside, and phi returned +inf for it.  Its -|x|^2 is no float, so phi
    # raises; a cloud at that scale contains its atoms
    ball = Shape.ball(1e200)
    assert ball.contains([5e199, 0.0]) and not ball.contains([1.1e200, 0.0])
    with pytest.raises(ValueError, match="not representable"):
        phi(ball, [5e199, 0.0])
    cloud = Shape.cloud(PointCloud([[1e200, 0.0], [0.0, -1e200]]))
    assert cloud.contains([1e200, 0.0]) and not cloud.contains([0.0, 0.0])
    assert math.isinf(phi(cloud, [0.0, 0.0]))


def test_phi_cloud_non_atom_is_inf():
    assert math.isinf(phi(PointCloud([-1.0, 1.0]), [0.0]))
    assert phi(PointCloud([-1.0, 1.0]), [1.0]) == pytest.approx(-1.0)


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e8])
def test_phi_cloud_atoms_match_at_any_scale(scale):
    # an absolute 1e-12 counted every point of a cloud 1e-13 across as an
    # atom: phi was -2.5e-27 at the midpoint of [[0, 0], [1e-13, 0]]
    assert math.isinf(phi(Shape.cloud(PointCloud([[0.0, 0.0], [1e-13 * scale, 0.0]])),
                          [5e-14 * scale, 0.0]))
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7], [-0.4, 0.2]])
    P = scale * (base + [3.0, -2.0])
    shape = Shape.cloud(PointCloud(P))
    for i, x in enumerate(P):
        assert phi(shape, x) == -float(x @ x)
        # an atom whose coordinates are rounded by an ulp is still an atom
        assert math.isfinite(phi(shape, np.nextafter(x, math.inf)))
        for y in P[i + 1:]:
            assert math.isinf(phi(shape, 0.5 * (x + y)))


def test_conjugate_two_point_cloud():
    # by hand: max(-y + 1, y + 1) = |y| + 1
    cloud = PointCloud([-1.0, 1.0])
    assert conjugate_at(cloud, [0.0]) == pytest.approx(1.0)
    for y in (-2.0, -0.3, 0.7, 5.0):
        assert conjugate_at(cloud, [y]) == pytest.approx(abs(y) + 1.0)


def test_conjugate_ball_boundary_sample():
    r = 0.7
    mesh = shape_sample(Shape.ball(r), 512)
    bdry = PointCloud(mesh.points[:512])
    for q in ([1.0, 0.0], [0.3, -1.1], [0.0, 0.0]):
        q = np.asarray(q)
        expected = r * np.linalg.norm(q) + r * r
        assert conjugate_at(bdry, q) == pytest.approx(expected, abs=1e-4)


def test_conjugate_singleton():
    p = np.array([0.3, -0.4])
    cloud = PointCloud([p])
    y = np.array([2.0, 1.0])
    assert conjugate_at(cloud, y) == pytest.approx(float(y @ p + p @ p))


def test_biconjugate_two_point():
    assert biconjugate_at(PointCloud([-1.0, 1.0]), [0.0]) == pytest.approx(-1.0)


def test_biconjugate_unit_interval_formula():
    cloud = PointCloud([0.0, 1.0])
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert biconjugate_at(cloud, [t]) == pytest.approx(-t, abs=1e-10)


def test_biconjugate_outside_hull_is_inf():
    assert math.isinf(biconjugate_at(PointCloud([0.0, 1.0]), [2.0]))
    # far outside, where x's own binary exponent is 1024
    assert math.isinf(biconjugate_at(PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                                     [1e308, 0.0]))


def test_translated_no_shift():
    assert translated_biconjugate_zero(PointCloud([-1.0, 1.0]), [0.0]) == pytest.approx(-1.0)


def test_translated_half_shift():
    # both sides by hand: envelope of {-0.5, 0.5} at 0 is -0.25
    got = translated_biconjugate_zero(PointCloud([0.0, 1.0]), [0.5])
    assert got == pytest.approx(-0.25)
    assert got == pytest.approx(0.25 + biconjugate_at(PointCloud([0.0, 1.0]), [0.5]))


def test_translation_identity_random():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.choice([1, 2, 3, 5]))
        N = int(rng.integers(n + 1, 14))
        cloud = PointCloud(rng.normal(size=(N, n)))
        w = rng.dirichlet(np.ones(N)) @ cloud.points  # interior of hull
        lhs = translated_biconjugate_zero(cloud, w)
        rhs = float(w @ w) + biconjugate_at(cloud, w)
        assert abs(lhs - rhs) <= 1e-8


def test_fenchel_young_on_atoms():
    rng = np.random.default_rng(13)
    cloud = PointCloud(rng.normal(size=(12, 3)))
    for _ in range(30):
        y = rng.normal(size=3) * 2
        fstar = conjugate_at(cloud, y)
        vals = [phi(cloud, x) + fstar - float(y @ x) for x in cloud.points]
        assert min(vals) >= -1e-10  # inequality for every atom
        assert min(vals) <= 1e-10   # equality at the maximizing atom


def test_envelope_below_phi_on_atoms():
    rng = np.random.default_rng(19)
    cloud = PointCloud(rng.normal(size=(10, 2)))
    for x in cloud.points:
        assert biconjugate_at(cloud, x) <= phi(cloud, x) + 1e-10


def test_conjugate_midpoint_convexity():
    rng = np.random.default_rng(29)
    cloud = PointCloud(rng.normal(size=(15, 3)))
    for _ in range(40):
        y1 = rng.normal(size=3)
        y2 = rng.normal(size=3)
        mid = conjugate_at(cloud, 0.5 * (y1 + y2))
        assert mid <= 0.5 * conjugate_at(cloud, y1) + 0.5 * conjugate_at(cloud, y2) + 1e-10


def test_hull_indifference():
    # atoms that are convex combinations of existing atoms never change the
    # envelope (the concavity of -|x|^2 makes them redundant)
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        P = rng.normal(size=(8, n))
        cloud = PointCloud(P)
        extra = np.array([rng.dirichlet(np.ones(8)) @ P for _ in range(4)])
        bigger = PointCloud(np.vstack([P, extra]))
        x = rng.dirichlet(np.ones(8)) @ P
        assert biconjugate_at(bigger, x) == pytest.approx(
            biconjugate_at(cloud, x), abs=1e-9)


def test_closed_form_envelopes_from_samples():
    # interval: envelope at x is k_lo*k_hi - (k_lo+k_hi)*x
    cloud = shape_sample(Shape.interval(-0.5, 2.0), 101)
    for t in (-0.5, 0.0, 1.0, 2.0):
        expected = (-0.5) * 2.0 - (-0.5 + 2.0) * t
        assert biconjugate_at(cloud, [t]) == pytest.approx(expected, abs=1e-9)
    # ball: envelope is constant -R^2
    mesh = shape_sample(Shape.ball(1.5), 256)
    for x in ([0.0, 0.0], [0.7, -0.2], [1.0, 1.0]):
        assert biconjugate_at(mesh, x) == pytest.approx(-2.25, abs=2e-3)
