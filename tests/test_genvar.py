import importlib.util
import math
import os

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [0.0, 3.0])
def test_weiszfeld_on_atoms_at_one_point(x):
    # at the origin the collision floor is 0, and an iterate at distance 0
    # from every atom divided 0 by 0: a warning, which the CLI fuzz found.
    # An atom at distance 0 is met, so all the mass is at one location
    mu = AtomicMeasure(np.full((3, 2), x), [0.2, 0.3, 0.5])
    res = generalized_variance(mu, RadialCost.power(1))
    assert res.converged and res.value == 0.0
    assert res.center.tolist() == [x, x]


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


@pytest.mark.parametrize("s", [1e-8, 1e-6])
def test_weiszfeld_power1_does_not_depend_on_scale(s):
    # the collision floor was 1e-13 (1 + max |x|), absolute: at s = 1e-8 it
    # took iterates 3e-6 of the spread from an atom for the atom, and four
    # of these clouds reported converged while over 1e-8 off (worst 7.8e-7;
    # 9e-9 at s = 1e-6)
    rng = np.random.default_rng(5)
    for _ in range(40):
        N, n = int(rng.integers(8, 31)), int(rng.integers(2, 5))
        P, w = rng.normal(size=(N, n)), rng.dirichlet(np.ones(N))
        ref = generalized_variance(AtomicMeasure(P, w), RadialCost.power(1), tol=1e-9)
        res = generalized_variance(AtomicMeasure(s * P, w), RadialCost.power(1), tol=1e-9 * s)
        assert ref.converged and res.converged
        assert res.value / s == pytest.approx(ref.value, rel=1e-9, abs=0)


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


def _minimax_p1_measures(seed):
    """The first-power measures of the benchmark's first ``minimax`` round
    at ``seed``, made by ``perfbench/workloads.py`` as the benchmark makes
    them: 20, 25, 30 and 5 atoms in R^2 ... R^5."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [inst.measure for inst in workloads.minimax_round(np.random.default_rng(seed))
            if isinstance(inst, workloads.GenvarInstance) and inst.cost.kind == "power"
            and inst.cost.p == 1]


def test_median_center_first_minimax_round_is_exact_and_quick():
    # the default tol certifies 1e-6, and Newton lands on the tol = 1e-10
    # answer to rounding, within 20 rounds on every measure
    for mu in _minimax_p1_measures(5):
        ref = generalized_variance(mu, RadialCost.power(1), tol=1e-10)
        res = generalized_variance(mu, RadialCost.power(1))
        assert ref.converged and res.converged and res.inner_gap <= genvar.DEFAULT_TOL_ITER
        assert res.value <= ref.value + 1e-14 * ref.value
        P, w = mu.support()
        assert genvar._median_center(P, w, genvar.DEFAULT_TOL_ITER, max_iters=20)[2]


def test_median_center_stops_on_a_far_optimal_atom():
    # a benchmark measure (seed 13, 5 atoms in R^5) whose center is an atom
    # more than half the spread from the weighted mean, Newton's start: the
    # atom test ends the descent there in one round, with no gap
    mu = _minimax_p1_measures(13)[3]
    P, w = mu.support()
    m = w @ P
    res = generalized_variance(mu, RadialCost.power(1))
    j = int(np.argmin(np.linalg.norm(P - res.center, axis=1)))
    assert res.converged and res.inner_gap == 0.0 and np.array_equal(res.center, P[j])
    assert np.linalg.norm(P[j] - m) > 0.5 * np.linalg.norm(P - m, axis=1).max()
    # the atom's optimality condition, read independently
    E = np.delete(P[j] - P, j, axis=0)
    pull = (np.delete(w, j) / np.linalg.norm(E, axis=1)) @ E
    assert np.linalg.norm(pull) <= w[j]
    assert genvar._median_center(P, w, genvar.DEFAULT_TOL_ITER, max_iters=1)[2]


@pytest.mark.filterwarnings("error")
def test_median_center_collinear_atoms_in_the_plane():
    # on a line every Hessian is singular along it, so each round takes
    # Weiszfeld's step.  The center is the weighted median on the line, the
    # atom at t = 0 (mass 0.3 below it, 0.45 above); the weighted mean,
    # t = 0.725, is nearest the atom at t = 0.5, which is not
    t = np.array([-1.0, 0.0, 0.5, 2.0, 3.0])
    w = np.array([0.3, 0.25, 0.05, 0.2, 0.2])
    P = np.outer(t, [3.0, -4.0]) + [1.0, 2.0]
    res = generalized_variance(AtomicMeasure(P, w), RadialCost.power(1), tol=1e-10)
    assert res.converged and res.inner_gap <= 1e-10
    assert np.array_equal(res.center, P[1])
    assert res.value == pytest.approx(5.0 * float(w @ np.abs(t)), rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_median_center_flat_median_in_one_dimension():
    # mass 1/2 on each side of [0, 2], so every point of it is a center;
    # the weighted mean, 3.9375, is nearest the atom at 5.5, which is not
    P = np.array([[-1.0], [0.0], [2.0], [5.5], [13.0]])
    w = np.array([0.25, 0.25, 0.125, 0.125, 0.25])
    res = generalized_variance(AtomicMeasure(P, w), RadialCost.power(1), tol=1e-10)
    assert res.converged and res.inner_gap <= 1e-10
    assert 0.0 <= res.center[0] <= 2.0
    assert res.value == pytest.approx(4.4375, rel=1e-14)


def test_median_center_duplicated_atoms_match_merged():
    # two copies of the atom at the origin, which is the weighted mean but
    # not the center: meeting one copy, the other is mass on the same atom,
    # not a sign that all the mass is at one location
    P = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    w = np.array([0.05, 0.05, 0.3, 0.3, 0.3])
    assert np.array_equal(w @ P, [0.0, 0.0])
    res = generalized_variance(AtomicMeasure(P, w), RadialCost.power(1), tol=1e-10)
    merged = generalized_variance(AtomicMeasure(P[1:], [0.1, 0.3, 0.3, 0.3]),
                                  RadialCost.power(1), tol=1e-10)
    assert res.converged and merged.converged
    assert abs(res.value - merged.value) <= 1e-10
    assert np.linalg.norm(res.center - merged.center) <= 1e-6
    # the origin is 0.13 (1 - 1/sqrt 2) worse than the center
    assert res.value < float(w @ np.linalg.norm(P, axis=1)) - 1e-3


_KNOTS = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, 1.0], [3.0, 5.0]])


def test_kelley_pwl_value_at_scale_1e9_is_the_unit_value():
    # atoms and knot abscissae scaled together by 1e9: the master's cuts
    # had gradients near 1e-9, below the simplex's pivot tolerance, so it
    # pivoted on none of them, and its bound read the best value seen:
    # 1.19156 was printed certified with gap 0, 1.4% above the value the
    # unit center attains
    rng = np.random.default_rng(2)
    P, w = rng.normal(size=(12, 3)), rng.dirichlet(np.ones(12))
    unit = generalized_variance(AtomicMeasure(P, w), RadialCost.piecewise_linear(_KNOTS))
    cost = RadialCost.piecewise_linear(_KNOTS * [1e9, 1.0])
    res = generalized_variance(AtomicMeasure(1e9 * P, w), cost)
    assert unit.value == pytest.approx(1.17485, abs=1e-5)
    assert res.converged and res.inner_gap <= 1e-6
    assert abs(res.value - unit.value) <= res.inner_gap + unit.inner_gap


@pytest.mark.parametrize("kind", ["pwl", "power3"])
def test_kelley_answers_do_not_depend_on_scale(kind):
    # 20 measures at nine scales s, atoms (and a PWL cost's knot abscissae)
    # times s and tol 1e-6 s^p: every run is certified, and none prints a
    # value that the unit run's center, scaled, beats by more than the gap
    p = 3 if kind == "power3" else 0

    def cost(s):
        return RadialCost.power(3) if p else RadialCost.piecewise_linear(_KNOTS * [s, 1.0])

    rng = np.random.default_rng(2)
    for _ in range(20):
        N, n = int(rng.integers(3, 15)), int(rng.integers(1, 5))
        P, w = rng.normal(size=(N, n)), rng.dirichlet(np.ones(N))
        unit = generalized_variance(AtomicMeasure(P, w), cost(1.0), tol=1e-6)
        for s in (1e-100, 1e-30, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e30, 1e100):
            tol = 1e-6 * s ** p
            res = generalized_variance(AtomicMeasure(s * P, w), cost(s), tol=tol)
            assert res.converged and res.inner_gap <= tol
            beat = float(w @ cost(s)(np.linalg.norm(s * P - s * unit.center, axis=1)))
            assert res.value - res.inner_gap <= beat * (1.0 + 1e-12), (s, res.value, beat)
            assert abs(res.value / s ** p - unit.value) \
                <= res.inner_gap / s ** p + unit.inner_gap + 1e-12 * unit.value, s
