"""Property tests: the geometry core and the variance duality do not depend
on where the cloud sits or on its scale, up to the rounding of its
coordinates.

A base cloud is drawn, then scaled by s in [1e-6, 1e6] and translated by
t with |t| up to 1e7.  Storing s x + t rounds each coordinate by up to
eps |t|, so the diameter, the radius and the center are compared with a
slack of 1e-12 s D plus a few eps |t|.  The support set and the duality
gap are exact statements only while that rounding is small against the
spread, so their offsets are also held to 1e8 times the spread, where it
is 2e-8 of it.  The minimax level v(R) of a power cost t^p moves by at
most p (s R + slack)^(p-1) times the radius's slack.  Every routine that
solves in a power-of-two frame is also run at scales from 1e-150 to
1e150, where its squares would overflow or lose digits to underflow
without the frame.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geomoment import (PointCloud, RadialCost, bhatia_davis_bound,  # noqa: E402
                       biconjugate_at, chebyshev_level, diameter, duality_gap,
                       max_variance, meb_support, min_enclosing_ball,
                       primal_lp_value, regular_simplex,
                       translated_biconjugate_zero, zero_mean_dual_center)
from geomoment.isodiametric import _guess_ball  # noqa: E402

EPS = np.finfo(float).eps
MAX_RATIO = 1e8  # offset over spread, for the support and the gap

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


@st.composite
def placements(draw, max_ratio=math.inf, dims=(1, 4), scales=(-6.0, 6.0)):
    """(rng, n, s, t): a generator for a base cloud in R^n, a scale (a power
    of ten with its exponent in ``scales``) and an offset."""
    n = draw(st.integers(*dims))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = 10.0 ** draw(st.floats(*scales))
    offset = min(10.0 ** draw(st.floats(-1.0, 7.0)), max_ratio * s)
    u = rng.normal(size=n)
    return rng, n, s, offset * u / np.linalg.norm(u)


def _random_cloud(rng, n, max_points=24):
    return rng.normal(size=(int(rng.integers(2, max_points + 1)), n))


def _slack(s, spread, t):
    return 1e-12 * s * spread + 8.0 * EPS * float(np.linalg.norm(t))


@SETTINGS
@given(placements())
def test_diameter_invariant(placed):
    rng, n, s, t = placed
    P = _random_cloud(rng, n)
    d0 = diameter(PointCloud(P))
    d1 = diameter(PointCloud(s * P + t))
    assert abs(d1 - s * d0) <= _slack(s, d0, t)


def _assert_meb_invariant(placed, max_points):
    # the solved ball, and the search's guess of its support on the placed
    # points, which must be certified as the same ball
    rng, n, s, t = placed
    P = _random_cloud(rng, n, max_points)
    b0 = min_enclosing_ball(PointCloud(P))
    slack = _slack(s, b0.radius, t)
    Q = s * P + t
    b1 = min_enclosing_ball(PointCloud(Q))
    guessed = _guess_ball(Q.tolist(), b1.support, diameter(PointCloud(Q)))
    assert guessed is not None
    for center, radius in ((b1.center, b1.radius), guessed[:2]):
        assert abs(radius - s * b0.radius) <= slack
        assert np.linalg.norm(center - (s * b0.center + t)) <= 1e3 * slack


@SETTINGS
@given(placements())
def test_min_enclosing_ball_invariant(placed):
    _assert_meb_invariant(placed, 24)


@SETTINGS
@given(placements(dims=(13, 16)))
def test_min_enclosing_ball_invariant_high_dim(placed):
    # up to 60 points, several times the n + 1 that a support can hold
    _assert_meb_invariant(placed, 60)


@SETTINGS
@given(st.one_of(placements(max_ratio=MAX_RATIO),
                 placements(max_ratio=1e5, scales=(-150.0, 150.0))), st.integers(0, 8))
def test_meb_support_invariant(placed, interior):
    # a regular simplex, turned at random, with points inside its
    # circumball, down to 1e-4 R from its sphere: the support is exactly
    # the n + 1 vertices, at scales from 1e-150 to 1e150 too
    rng, n, s, t = placed
    V = regular_simplex(n, 1.0).vertices @ _rotation(rng, n)
    R = np.linalg.norm(V[0])
    g = rng.normal(size=(interior, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    inner = R * (1.0 - 10.0 ** rng.uniform(-4.0, 0.0, size=(interior, 1))) * g
    cloud = PointCloud(s * np.vstack([V, inner]) + t)
    ball = min_enclosing_ball(cloud)
    assert meb_support(cloud, ball).tolist() == list(range(n + 1))


@SETTINGS
@given(placements(max_ratio=MAX_RATIO))
def test_max_variance_gap_invariant(placed):
    rng, n, s, t = placed
    P = _random_cloud(rng, n)
    rep0 = max_variance(PointCloud(P))
    rep1 = max_variance(PointCloud(s * P + t))
    assert rep1.gap <= 1e-9 * rep1.dual_value
    r0, r1 = math.sqrt(rep0.dual_value), math.sqrt(rep1.dual_value)
    assert abs(r1 - s * r0) <= _slack(s, r0, t)
    # the maximizer, the ball's own dual, has variance R^2 up to the same
    # slack on its standard deviation
    assert abs(math.sqrt(rep1.primal_value) - s * r0) <= _slack(s, r0, t)


@SETTINGS
@given(placements(), st.sampled_from([1, 2, 3]))
def test_chebyshev_level_invariant(placed, p):
    rng, n, s, t = placed
    P = _random_cloud(rng, n)
    cost = RadialCost.power(p)
    r0 = min_enclosing_ball(PointCloud(P)).radius
    slack = _slack(s, r0, t)
    # the level's own slack: the rounding of a center near t widens the
    # certified bracket by as much as it moves the level
    level_slack = p * (s * r0 + slack) ** (p - 1) * slack
    lam0, z0 = chebyshev_level(PointCloud(P), cost)
    lam1, z1 = chebyshev_level(PointCloud(s * P + t), cost,
                               tol=1e-6 * (s * r0) ** p + level_slack)
    assert abs(lam1 - s ** p * lam0) <= level_slack
    assert np.linalg.norm(z1 - (s * z0 + t)) <= 1e3 * slack


@SETTINGS
@given(placements(max_ratio=1e6, scales=(-8.0, 8.0)))
def test_bhatia_davis_bound_invariant(placed):
    # the envelope LP ran on the raw coordinates, whose absolute tolerances
    # put the bound 0.46 off at s = 1e-8 and 1e-6, and 6.9e8 off at spread
    # 1e-6 and offset 1e3; on the offsets from the mean over their largest
    # norm, what is left is the rounding of the coordinates, eps |t|
    rng, n, s, t = placed
    P = rng.normal(size=(int(rng.integers(n + 1, 25)), n))
    w = rng.dirichlet(np.ones(len(P)))
    b0 = bhatia_davis_bound(PointCloud(P), w @ P)
    Q = s * P + t
    b1 = bhatia_davis_bound(PointCloud(Q), w @ Q)
    assert abs(b1 / s ** 2 - b0) <= 1e-9 * b0


@SETTINGS
@given(placements(scales=(-8.0, 8.0)))
def test_envelope_values_scale(placed):
    # the envelope LP ran on the raw coordinates, whose absolute tolerances
    # put primal_lp_value 60% and the biconjugate 37% off at s = 1e-8 (30
    # clouds); solved on the cloud divided by a power of two near its
    # largest coordinate, each value scales as s^2 up to rounding, and so
    # does the duality gap, a residual of the enclosing ball's R^2
    rng, n, s, _ = placed
    P = rng.normal(size=(int(rng.integers(n + 2, 25)), n))
    P -= P.mean(axis=0)
    x, w = rng.dirichlet(np.ones(len(P)), size=2) @ P
    for value in (lambda Q, s: primal_lp_value(Q),
                  lambda Q, s: biconjugate_at(Q, s * x),
                  lambda Q, s: translated_biconjugate_zero(Q, s * w)):
        v0 = value(P, 1.0)
        assert abs(value(s * P, s) / s ** 2 - v0) <= 1e-9 * abs(v0)
    R = min_enclosing_ball(P).radius
    assert duality_gap(s * P) <= 1e-9 * (s * R) ** 2


def _close(got, want, rel=1e-9):
    return abs(got - want) <= rel * abs(want)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(placements(max_ratio=1e5, scales=(-150.0, 150.0)))
def test_answers_scale_to_the_limits_of_double_precision(placed):
    # each routine works on the cloud in a power-of-two frame
    # (geometry._frame), so its answer scales as s or s^2 however far s is
    # from 1: up to the rounding of the placed coordinates, eps |t| with
    # |t| at most 1e5 times the spread, every answer is within 1e-9 of the
    # unit cloud's, scaled
    rng, n, s, t = placed
    P = rng.normal(size=(int(rng.integers(n + 2, 25)), n))
    P -= P.mean(axis=0)
    Q = s * P + t
    assert _close(diameter(Q), s * diameter(P))
    b0, b1 = min_enclosing_ball(P), min_enclosing_ball(Q)
    assert _close(b1.radius, s * b0.radius)
    assert np.linalg.norm(b1.center - (s * b0.center + t)) <= 1e-9 * s * b0.radius
    rep0, rep1 = max_variance(P), max_variance(Q)
    assert _close(rep1.dual_value, s * s * rep0.dual_value)
    assert rep1.gap <= 1e-9 * rep1.dual_value
    for p in (1, 2):
        cost = RadialCost.power(p)
        lam0, _ = chebyshev_level(P, cost)
        lam1, _ = chebyshev_level(Q, cost, tol=1e-6 * (s * b0.radius) ** p)
        assert _close(lam1, s ** p * lam0)
    w = rng.dirichlet(np.ones(len(P)))
    assert _close(bhatia_davis_bound(Q, w @ Q), s * s * bhatia_davis_bound(P, w @ P))
    # the origin is part of these answers: the cloud is only scaled
    x = rng.dirichlet(np.ones(len(P))) @ P
    assert _close(primal_lp_value(s * P), s * s * primal_lp_value(P))
    assert _close(biconjugate_at(s * P, s * x), s * s * biconjugate_at(P, x))
    q0, v0 = zero_mean_dual_center(P)
    q1, v1 = zero_mean_dual_center(s * P)
    assert _close(v1, s * s * v0) and np.linalg.norm(q1 - s * q0) <= 1e-9 * s * b0.radius


@pytest.mark.parametrize("s", [1e-100, 1e100])
def test_zero_mean_dual_center_far_from_unit_scale(s):
    # its LP ran on the raw coordinates, whose absolute tolerances put the
    # dual value 13% off at 1e-100 and 1e100; posed in the frame of the
    # mean it scales as s^2, and its center as s
    rng = np.random.default_rng(5)
    for _ in range(10):
        P = rng.normal(size=(int(rng.integers(4, 25)), int(rng.integers(1, 4))))
        P -= P.mean(axis=0)
        q0, v0 = zero_mean_dual_center(P)
        q1, v1 = zero_mean_dual_center(P * s)
        assert _close(v1 / (s * s), v0, rel=1e-12)
        assert np.abs(q1 / s - q0).max() <= 1e-12 * np.abs(P).max()
