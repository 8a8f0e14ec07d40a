import math

import numpy as np
import pytest

from geomoment import (AtomicMeasure, ParseError, PointCloud, RadialCost,
                       chebyshev_level, generalized_variance, mean,
                       min_enclosing_ball, regular_simplex, sup_genvar,
                       variance, verify_saddle)
from geomoment import genvar
from geomoment.genvar import MAX_CUTS, _cut_lp, _minimize_convex, read_cost_json
from geomoment.lp import LpProblem, LpStatus, solve_lp


def unit_simplex_measure(n):
    V = regular_simplex(n, 1.0).vertices
    return AtomicMeasure(V, np.full(n + 1, 1.0 / (n + 1)))


def test_power_validation():
    with pytest.raises(ValueError):
        RadialCost.power(0.5)
    RadialCost.power(1.0)


def test_pwl_validation_messages():
    with pytest.raises(ValueError, match="strictly increasing"):
        RadialCost.piecewise_linear([[0, 0], [0, 1]])
    with pytest.raises(ValueError, match="convex"):
        RadialCost.piecewise_linear([[0, 0], [1, 2], [2, 3]])
    with pytest.raises(ValueError, match="increasing"):
        RadialCost.piecewise_linear([[0, 1], [1, 0], [2, 1]])
    with pytest.raises(ValueError, match="coercivity"):
        RadialCost.piecewise_linear([[0, 0], [1, 0]])
    with pytest.raises(ValueError, match="abscissa must be 0"):
        RadialCost.piecewise_linear([[1, 0], [2, 1]])


def test_pwl_evaluation_and_slope():
    c = RadialCost.piecewise_linear([[0, 0.1], [1, 0.6], [2, 2.0]])
    assert c(0.0) == pytest.approx(0.1)
    assert c(0.5) == pytest.approx(0.35)
    assert c(1.5) == pytest.approx(1.3)
    assert c(3.0) == pytest.approx(2.0 + 1.4)  # last-slope extrapolation
    assert c.slope(0.5) == pytest.approx(0.5)
    assert c.slope(1.5) == pytest.approx(1.4)
    assert c.slope(5.0) == pytest.approx(1.4)


def test_cost_json_round_trip(tmp_path):
    c = RadialCost.from_spec({"kind": "power", "p": 2})
    assert c.kind == "power" and c.p == 2
    c2 = read_cost_json('{"kind":"pwl","knots":[[0,0],[1,1]]}')
    assert c2.kind == "pwl"
    path = tmp_path / "cost.json"
    path.write_text('{"kind":"power","p":3}')
    assert read_cost_json(str(path)).p == 3
    with pytest.raises(ParseError):
        read_cost_json('{"kind":"power"}')
    with pytest.raises(ParseError):
        read_cost_json('{"kind":"pwl","knots":[[0,0],[1,-1]]}')


def test_quadratic_reduces_to_variance_and_mean():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 12))
        mu = AtomicMeasure(rng.normal(size=(N, n)), rng.dirichlet(np.ones(N)))
        res = generalized_variance(mu, RadialCost.power(2))
        assert abs(res.value - variance(mu)) <= 1e-8
        assert np.abs(res.center - mean(mu)).max() <= 1e-4
        assert res.converged and res.unique


def test_power1_simplex_centroid():
    mu = unit_simplex_measure(2)
    res = generalized_variance(mu, RadialCost.power(1))
    assert res.value == pytest.approx(1 / math.sqrt(3), abs=1e-8)
    assert np.abs(res.center).max() <= 1e-8
    assert not res.unique  # affine cost: uniqueness not guaranteed


def test_dirac_any_power():
    mu = AtomicMeasure([[1.0, 2.0]], [1.0])
    for p in (1, 2, 3.5):
        res = generalized_variance(mu, RadialCost.power(p))
        assert res.value == 0.0
        assert np.allclose(res.center, [1.0, 2.0])


def test_general_power_certified():
    mu = unit_simplex_measure(2)
    res = generalized_variance(mu, RadialCost.power(3), tol=1e-6)
    assert res.converged
    assert res.inner_gap <= 1e-6
    # symmetry: center at centroid, value = r_2^3
    assert res.value == pytest.approx((1 / math.sqrt(3)) ** 3, abs=1e-5)


def test_pwl_cost_inner_minimization():
    mu = AtomicMeasure([[-1.0], [1.0]], [0.5, 0.5])
    c = RadialCost.piecewise_linear([[0, 0], [0.5, 0.25], [2, 2.5]])
    res = generalized_variance(mu, c, tol=1e-6)
    assert res.converged
    assert res.value == pytest.approx(c(1.0), abs=1e-5)  # center at 0
    assert not res.unique


def test_weiszfeld_atom_collision():
    # heavy atom: the optimal center IS that atom (subgradient condition)
    mu = AtomicMeasure([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.6, 0.2, 0.2])
    res = generalized_variance(mu, RadialCost.power(1), tol=1e-8)
    assert np.abs(res.center - [0.0, 0.0]).max() <= 1e-6
    assert res.value == pytest.approx(0.4, abs=1e-8)


def test_chebyshev_quadratic_matches_enclosing_ball():
    rng = np.random.default_rng(5)
    for trial in range(100):
        n = [2, 3, 5][trial % 3]
        cloud = PointCloud(rng.normal(size=(int(rng.integers(5, 30)), n)))
        lam, z = chebyshev_level(cloud, RadialCost.power(2), tol=1e-6)
        ball = min_enclosing_ball(cloud)
        assert abs(lam - ball.radius ** 2) <= 1e-6
        assert np.linalg.norm(z - ball.center) <= 1e-3
    pwl = RadialCost.piecewise_linear([[0, 0], [0.5, 0.2], [1.5, 1.5], [3, 4.5]])
    for trial in range(30):
        cost = [RadialCost.power(1), RadialCost.power(3), pwl][trial // 3 % 3]
        P = rng.normal(size=(int(rng.integers(5, 30)), [2, 3, 5][trial % 3]))
        for cloud in (PointCloud(P), PointCloud(P + 1e3)):
            lam, z = chebyshev_level(cloud, cost, tol=1e-6)
            exact = cost(min_enclosing_ball(cloud).radius)
            assert abs(lam - exact) <= 1e-12 * exact
            reach = cost(np.linalg.norm(cloud.points - z, axis=1).max())
            assert abs(lam - reach) <= 1e-12 * lam


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("scale", [1e2, 1e4, 1e6])
def test_chebyshev_default_tol_certifies_at_any_scale(p, scale):
    # the default tol is absolute; the bracket is allowed the rounding of
    # the level on top of it, without which power(3) raised on 57 of these
    # 100 clouds at scale 1e4 and 44 at 1e6
    rng = np.random.default_rng(9)
    cost = RadialCost.power(p)
    for _ in range(100):
        P = rng.normal(size=(int(rng.integers(5, 31)), int(rng.integers(2, 6))))
        lam, _ = chebyshev_level(P * scale, cost)
        assert abs(lam - cost(min_enclosing_ball(P).radius * scale)) <= 1e-12 * lam


def test_chebyshev_power1_simplex():
    V = regular_simplex(2, 1.0).vertices
    lam, z = chebyshev_level(PointCloud(V), RadialCost.power(1), tol=1e-8)
    assert lam == pytest.approx(1 / math.sqrt(3), abs=1e-8)
    assert np.abs(z).max() <= 1e-6


def test_chebyshev_singleton():
    lam, z = chebyshev_level(PointCloud([[2.0, (3.0)]]), RadialCost.power(4))
    assert lam == 0.0
    assert np.allclose(z, [2.0, 3.0])


def test_sup_genvar_examples():
    assert sup_genvar(PointCloud([-1.0, 1.0]), RadialCost.power(2), 1e-8) == \
        pytest.approx(1.0, abs=1e-8)
    V2 = regular_simplex(2, 1.0).vertices
    assert sup_genvar(PointCloud(V2), RadialCost.power(2), 1e-8) == \
        pytest.approx(1.0 / 3.0, abs=1e-8)
    V3 = regular_simplex(3, 1.0).vertices
    assert sup_genvar(PointCloud(V3), RadialCost.power(1), 1e-8) == \
        pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-8)


def test_weak_duality_random_measures(make_cloud):
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        cloud = make_cloud(rng, n, size=int(rng.integers(3, 12)))
        w = rng.dirichlet(np.ones(len(cloud)))
        mu = AtomicMeasure(cloud.points, w)
        cost = RadialCost.power(float(rng.choice([1, 2, 3])))
        lam, _ = chebyshev_level(cloud, cost, tol=1e-6)
        res = generalized_variance(mu, cost, tol=1e-6)
        assert res.value <= lam + 2e-6


def test_verify_saddle_uniform_simplex():
    mu = unit_simplex_measure(2)
    rep = verify_saddle(mu, PointCloud(mu.atoms.points), RadialCost.power(2), tol=1e-6)
    assert rep.is_maximizer and rep.support_on_level and rep.value_attained


def test_verify_saddle_two_point_not_maximizer():
    V = regular_simplex(2, 1.0).vertices
    mu = AtomicMeasure(V, [0.5, 0.5, 0.0])
    rep = verify_saddle(mu, PointCloud(V), RadialCost.power(2), tol=1e-6)
    assert not rep.is_maximizer
    assert rep.genvar == pytest.approx(0.25, abs=1e-8)  # 1/4 < 1/3


def test_verify_saddle_dirac_singleton():
    mu = AtomicMeasure([[4.0, -1.0]], [1.0])
    rep = verify_saddle(mu, PointCloud([[4.0, -1.0]]), RadialCost.power(2), tol=1e-8)
    assert rep.is_maximizer
    assert rep.level == pytest.approx(0.0, abs=1e-12)


def test_monotone_costs_give_monotone_levels(make_cloud):
    rng = np.random.default_rng(33)
    grid = np.linspace(0, 3, 50)
    for _ in range(10):
        cloud = make_cloud(rng, 2, size=10)
        c1 = RadialCost.piecewise_linear([[0, 0], [1, 0.5], [3, 2.0]])
        c2 = RadialCost.power(1)
        assert (np.asarray(c1(grid)) <= np.asarray(c2(grid)) + 1e-12).all()
        l1, _ = chebyshev_level(cloud, c1, tol=1e-7)
        l2, _ = chebyshev_level(cloud, c2, tol=1e-7)
        assert l1 <= l2 + 1e-6


def test_center_translation_equivariance():
    rng = np.random.default_rng(41)
    for p in (1, 2, 3):
        mu = AtomicMeasure(rng.normal(size=(8, 2)), rng.dirichlet(np.ones(8)))
        t = np.array([2.5, -1.0])
        r0 = generalized_variance(mu, RadialCost.power(p), tol=1e-8)
        r1 = generalized_variance(mu.translated(t), RadialCost.power(p), tol=1e-8)
        assert np.abs(r1.center - (r0.center + t)).max() <= 1e-4
        assert abs(r1.value - r0.value) <= 1e-6


def test_chebyshev_coincident_cloud():
    P = PointCloud(np.tile([2.0, -1.0], (6, 1)))
    lam, z = chebyshev_level(P, RadialCost.power(2))
    assert lam == 0.0
    assert np.allclose(z, [2.0, -1.0])


def test_verify_saddle_power1_tetrahedron():
    V = regular_simplex(3, 1.0).vertices
    mu = AtomicMeasure(V, np.full(4, 0.25))
    rep = verify_saddle(mu, PointCloud(V), RadialCost.power(1), tol=1e-6)
    assert rep.is_maximizer
    assert rep.level == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-6)


def _primal_cut_lp(cuts_g, cuts_c, lo, hi):
    """Reference master: min h s.t. h >= c_j + g_j . z over the box, as an
    epigraph LP with z = lo + s, box slacks, h = h+ - h- and one surplus
    per cut.  Returns the optimal h."""
    n = lo.size
    ncuts = len(cuts_c)
    G = np.asarray(cuts_g)
    A = np.zeros((n + ncuts, 2 * n + 2 + ncuts))
    b = np.zeros(n + ncuts)
    A[:n, :n] = np.eye(n)
    A[:n, n:2 * n] = np.eye(n)
    b[:n] = hi - lo
    A[n:, :n] = -G
    A[n:, 2 * n] = 1.0
    A[n:, 2 * n + 1] = -1.0
    A[n:, 2 * n + 2:] = -np.eye(ncuts)
    b[n:] = np.asarray(cuts_c) + G @ lo
    c = np.zeros(2 * n + 2 + ncuts)
    c[2 * n] = 1.0
    c[2 * n + 1] = -1.0
    sol = solve_lp(LpProblem(c, A, b))
    assert sol.status is LpStatus.OPTIMAL
    return sol.value


def _random_cuts(rng, ncuts, lo, hi, tangent):
    """(G, c) of ncuts cuts over the box [lo, hi]: tangent planes of a
    convex function, as the engine makes them, or random planes."""
    n = lo.size
    if tangent:
        a = rng.normal(size=n)
        Z = lo + (hi - lo) * rng.uniform(size=(ncuts, n))
        G = 2.0 * (Z - a)
        return G, ((Z - a) ** 2).sum(axis=1) - (G * Z).sum(axis=1)
    return rng.normal(size=(ncuts, n)), rng.normal(size=ncuts)


def test_cut_master_dual_matches_primal_epigraph():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = trial % 5 + 1
        ncuts = int(rng.integers(1, MAX_CUTS + 3))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.1, 3.0, size=n)
        G, cc = _random_cuts(rng, ncuts, lo, hi, tangent=trial % 2)
        cuts_g, cuts_c = list(G), list(cc)
        z, lower = _cut_lp(cuts_g, cuts_c, lo, hi)
        h = _primal_cut_lp(cuts_g, cuts_c, lo, hi)
        assert abs(lower - h) <= 1e-9 * (1 + abs(h))
        assert (lo <= z).all() and (z <= hi).all()
        assert abs(float((cc + G @ z).max()) - lower) <= 1e-9 * (1 + abs(h))


def test_cut_master_crash_basis_matches_cold_solve(monkeypatch):
    # the master started from its crash basis against the same master solved
    # with a phase 1, on full cut sets and after the engine's MAX_CUTS
    # eviction of the two oldest cuts
    def cold_solve_lp(problem, basis=None):
        assert basis is not None
        return solve_lp(problem)

    rng = np.random.default_rng(23)
    for trial in range(60):
        n = trial % 5 + 1
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0.1, 3.0, size=n)
        ncuts = MAX_CUTS + 1 if trial % 3 else int(rng.integers(1, 30))
        G, cc = _random_cuts(rng, ncuts, lo, hi, tangent=trial % 2)
        cuts_g, cuts_c = list(G), list(cc)
        sets = [(cuts_g, cuts_c)]
        if ncuts > MAX_CUTS:
            sets.append((cuts_g[2:], cuts_c[2:]))
        for cg, c in sets:
            z, lower = _cut_lp(cg, c, lo, hi)
            with monkeypatch.context() as m:
                m.setattr(genvar, "solve_lp", cold_solve_lp)
                _, cold = _cut_lp(cg, c, lo, hi)
            assert abs(lower - cold) <= 1e-12 * abs(cold)
            assert (lo <= z).all() and (z <= hi).all()
            assert abs(float((np.asarray(c) + np.asarray(cg) @ z).max()) - lower) <= 1e-9


def test_weiszfeld_steps_off_a_colliding_start():
    # Weiszfeld starts at the weighted mean, here the atom at the origin;
    # that atom is not the median, so the collision step has to move off it
    P = np.array([[0.0, 0.0], [-1.0, 0.0], [2.0, 2.0], [2.0, -2.0]])
    w = np.array([0.25, 0.5, 0.125, 0.125])
    assert np.array_equal(w @ P, P[0])
    tol = 1e-8
    res = generalized_variance(AtomicMeasure(P, w), RadialCost.power(1), tol=tol)
    assert res.converged and res.inner_gap <= tol
    assert np.linalg.norm(res.center - P[0]) > 1e-3

    def oracle(z):
        d = np.linalg.norm(P - z, axis=1)
        # at an atom, 0 is a subgradient of its own term
        coef = np.divide(w, d, out=np.zeros_like(d), where=d > 0)
        return float(w @ d), (coef[:, None] * (z - P)).sum(axis=0)

    val, _, _, ok = _minimize_convex(oracle, P.min(axis=0), P.max(axis=0), tol)
    assert ok
    assert abs(res.value - val) <= tol


@pytest.mark.parametrize("cost", [RadialCost.power(3),
                                  RadialCost.piecewise_linear([[0, 0], [0.5, 0.25], [2, 2.5]])],
                         ids=["power3", "pwl"])
def test_kelley_cut_eviction_keeps_results_certified(cost, monkeypatch):
    # with room for only 12 cuts the oldest are dropped every round; the
    # lower bound stays valid, so the result stays certified within tol
    rng = np.random.default_rng(11)
    measures = [AtomicMeasure(rng.normal(size=(10, 2)), rng.dirichlet(np.ones(10)))
                for _ in range(4)]
    tol = 1e-6
    full = [generalized_variance(mu, cost, tol=tol) for mu in measures]
    lengths = []

    def spy(cuts_g, cuts_c, lo, hi):
        lengths.append(len(cuts_c))
        return _cut_lp(cuts_g, cuts_c, lo, hi)

    monkeypatch.setattr(genvar, "MAX_CUTS", 12)
    monkeypatch.setattr(genvar, "_cut_lp", spy)
    for mu, ref in zip(measures, full):
        res = generalized_variance(mu, cost, tol=tol)
        assert res.converged and res.inner_gap <= tol
        assert abs(res.value - ref.value) <= tol
    assert max(lengths) <= 12
    # without eviction every round's master has more cuts than the last
    assert any(b <= a for a, b in zip(lengths, lengths[1:]))
