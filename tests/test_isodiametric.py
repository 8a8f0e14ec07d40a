import math

import numpy as np
import pytest

from geomoment import (AtomicMeasure, DomainError, PointCloud, RadialCost,
                       SearchConfig, diameter, generalized_variance,
                       isodiametric_bound, jung_radius, jung_verify,
                       regular_simplex, search_max, simplex_maximizer,
                       tension_check, variance, verify_simplex_optimality)
from geomoment import bounds, genvar, geometry, isodiametric, lp
from geomoment.isodiametric import SearchResult


def test_bound_values():
    assert isodiametric_bound(2, 1.0) == pytest.approx(1.0 / 3.0)
    assert isodiametric_bound(3, 1.0) == pytest.approx(3.0 / 8.0)
    assert isodiametric_bound(1, 1.0) == pytest.approx(0.25)
    assert isodiametric_bound(3, 1.0, RadialCost.power(1)) == \
        pytest.approx(math.sqrt(3.0 / 8.0))
    assert isodiametric_bound(2, 2.0) == pytest.approx(4.0 / 3.0)


def test_simplex_maximizer_examples():
    m1 = simplex_maximizer(1, 1.0)
    assert sorted(m1.atoms.points.ravel()) == pytest.approx([-0.5, 0.5])
    assert np.allclose(m1.weights, 0.5)
    assert variance(m1) == pytest.approx(0.25, rel=1e-12)
    m2 = simplex_maximizer(2, 1.0)
    assert variance(m2) == pytest.approx(1.0 / 3.0, rel=1e-12)
    m2s = simplex_maximizer(2, math.sqrt(2))
    assert variance(m2s) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert diameter(m2s.atoms) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=0, d=1.0, atom_count=3)
    with pytest.raises(ValueError):
        SearchConfig(n=2, d=1.0, atom_count=2)
    with pytest.raises(ValueError):
        SearchConfig(n=1, d=-1.0, atom_count=3)
    with pytest.raises(ValueError):
        SearchConfig(n=1, d=1.0, atom_count=3, restarts=0)
    for d in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SearchConfig(n=1, d=d, atom_count=3)
    # a step of 0 or below used to report every restart converged below
    # the sharp bound
    for step in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            SearchConfig(n=1, d=1.0, atom_count=3, step=step)
    # no iteration at all used to fail every restart: "no restart converged
    # within -5 iterations", exit 4
    for max_iters in (0, -5):
        with pytest.raises(ValueError):
            SearchConfig(n=1, d=1.0, atom_count=3, max_iters=max_iters)


def test_search_n1_recovers_popoviciu_pair():
    res = search_max(SearchConfig(n=1, d=1.0, atom_count=4, restarts=10, seed=3))
    assert res.best_value == pytest.approx(0.25, abs=1e-9)
    atoms, w = res.best_measure.support()
    assert diameter(PointCloud(atoms)) == pytest.approx(1.0, abs=1e-9)
    # mass splits onto two clusters at distance 1
    order = np.argsort(atoms.ravel())
    gap = np.diff(atoms.ravel()[order])
    clusters = (gap > 0.5).sum() + 1
    assert clusters == 2
    assert res.diameter_residual <= 1e-9


def test_search_n2_reaches_triangle():
    cfg = SearchConfig(n=2, d=1.0, atom_count=6, restarts=20, seed=7)
    res = search_max(cfg)
    assert 1.0 / 3.0 - 1e-4 <= res.best_value <= 1.0 / 3.0 + 1e-8
    assert verify_simplex_optimality(res, 2, 1.0, tol=1e-3)
    assert len(res.per_restart_values) == 20
    assert max(res.per_restart_values) == pytest.approx(res.best_value)


def test_search_power1_tetrahedron():
    cfg = SearchConfig(n=3, d=1.0, atom_count=8, restarts=12, seed=11,
                       cost=RadialCost.power(1))
    res = search_max(cfg)
    assert abs(res.best_value - math.sqrt(3.0 / 8.0)) <= 1e-3


@pytest.mark.parametrize("cost", [
    RadialCost.power(2), RadialCost.power(1), RadialCost.power(1.5), RadialCost.power(3),
    RadialCost.piecewise_linear([[0, 0], [0.5, 0.2], [1.5, 1.5], [3, 4.5]]),
], ids=["p2", "p1", "p1.5", "p3", "pwl"])
def test_search_value_is_certified_genvar(cost):
    # the value is read off the final ball by the saddle identity; the
    # inner minimization over centers must agree with it
    cfg = SearchConfig(n=2, d=1.0, atom_count=5, restarts=5, seed=19, cost=cost)
    res = search_max(cfg)
    again = generalized_variance(res.best_measure, cfg.cost, tol=1e-8)
    assert abs(again.value - res.best_value) <= 1e-7


def test_search_scaling_of_values():
    # quadratic cost: values scale by d^2
    base = search_max(SearchConfig(n=2, d=1.0, atom_count=4, restarts=8, seed=23))
    scaled = search_max(SearchConfig(n=2, d=2.5, atom_count=4, restarts=8, seed=23))
    assert scaled.best_value / base.best_value == pytest.approx(2.5 ** 2, rel=1e-6)


def test_search_never_beats_bound_and_random_measures_obey_it():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        bound2 = isodiametric_bound(n, 1.0)
        bound1 = isodiametric_bound(n, 1.0, RadialCost.power(1))
        for _ in range(300):
            N = int(rng.integers(n + 1, 9))
            P = rng.normal(size=(N, n))
            dia = diameter(PointCloud(P))
            if dia > 0:
                P = P / dia  # diameter exactly 1
            mu = AtomicMeasure(P, rng.dirichlet(np.ones(N)))
            assert variance(mu) <= bound2 + 1e-8
            r1 = generalized_variance(mu, RadialCost.power(1), tol=1e-6)
            assert r1.value <= bound1 + 1e-6


def test_verify_simplex_optimality_on_exact_maximizer():
    mu = simplex_maximizer(2, 1.0)
    res = SearchResult(mu, variance(mu), [variance(mu)], 0.0, 1, 0.0)
    assert verify_simplex_optimality(res, 2, 1.0, tol=1e-6)


def test_verify_simplex_optimality_rejects_two_point():
    mu = AtomicMeasure([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    res = SearchResult(mu, variance(mu), [variance(mu)], 0.0, 1, 0.0)
    assert not verify_simplex_optimality(res, 2, 1.0, tol=1e-3)


def test_verify_simplex_optimality_rejects_jittered():
    rng = np.random.default_rng(31)
    V = regular_simplex(2, 1.0).vertices + rng.normal(size=(3, 2)) * 0.05
    mu = AtomicMeasure(V, np.ones(3) / 3)
    val = variance(mu)
    res = SearchResult(mu, val, [val], 0.0, 1, 0.0)
    assert not verify_simplex_optimality(res, 2, 1.0, tol=1e-3, tol_geom=1e-3)


def test_tension_simplex_at_threshold():
    V = regular_simplex(2, 1.0).vertices
    rep = tension_check(PointCloud(V), jung_radius(2), tol=1e-9)
    assert rep.classification == "OriginInHull_SimplexVertices"
    assert rep.origin_in_hull and rep.simplex_vertices and not rep.violation


def test_tension_cap_above_threshold_origin_outside():
    # configurations on a sphere of radius 0.7 > r_2 with diameter <= 1
    # must keep the origin out of their hull; sample valid ones rejection-style
    rng = np.random.default_rng(5)
    r = 0.7
    found = 0
    for _ in range(10_000):
        ths = rng.uniform(0, 2 * np.pi, 3)
        P = r * np.column_stack([np.cos(ths), np.sin(ths)])
        if diameter(PointCloud(P)) <= 1.0:
            rep = tension_check(PointCloud(P), r)
            assert rep.classification == "OriginOutsideHull"
            found += 1
        if found >= 200:
            break
    assert found >= 50  # non-vacuous


def test_tension_below_threshold_no_claim():
    P = np.array([[0.4, 0.0], [-0.4, 0.0]])
    rep = tension_check(PointCloud(P), 0.4)
    assert rep.origin_in_hull
    assert rep.simplex_vertices is False
    assert rep.violation is False


def test_tension_precondition_errors():
    P = np.array([[0.5, 0.0], [0.0, 0.7]])
    with pytest.raises(DomainError, match="sphere"):
        tension_check(PointCloud(P), 0.5)
    V = regular_simplex(2, 2.0).vertices  # diameter 2 > 1
    with pytest.raises(DomainError, match="diameter"):
        tension_check(PointCloud(V), jung_radius(2) * 2.0)


def test_jung_simplex_tight_with_extraction():
    for n in (1, 2, 3):
        V = regular_simplex(n, 1.0).vertices
        rep = jung_verify(PointCloud(V))
        assert rep.ok and rep.tight and rep.extraction_ok
        assert rep.simplex_points.shape == (n + 1, n)
        assert rep.radius == pytest.approx(jung_radius(n), abs=1e-9)


def test_jung_two_point_tight_in_1d():
    rep = jung_verify(PointCloud([0.0, 1.0]))
    assert rep.radius == pytest.approx(0.5)
    assert rep.bound == pytest.approx(0.5)
    assert rep.ok and rep.tight and rep.extraction_ok


def test_jung_random_clouds(make_cloud):
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.choice([2, 3]))
        cloud = make_cloud(rng, n)  # factory already asserts the bound
        rep = jung_verify(cloud)
        assert rep.ok


def test_search_report_payload():
    cfg = SearchConfig(n=1, d=1.0, atom_count=3, restarts=3, seed=1)
    res = search_max(cfg)
    payload = res.to_report(cfg)
    assert payload["bound"] == pytest.approx(0.25)
    assert len(payload["per_restart_values"]) == 3
    assert payload["config"]["cost"] == {"kind": "power", "p": 2.0}
    assert payload["wall_clock"] >= 0.0


def test_search_scaling_power1():
    # first-power cost: values scale linearly with the diameter cap
    cost = RadialCost.power(1)
    base = search_max(SearchConfig(n=2, d=1.0, atom_count=4, restarts=6, seed=41, cost=cost))
    scaled = search_max(SearchConfig(n=2, d=3.0, atom_count=4, restarts=6, seed=41, cost=cost))
    assert scaled.best_value / base.best_value == pytest.approx(3.0, rel=1e-5)


def test_search_with_explicit_step_and_iters():
    cfg = SearchConfig(n=1, d=1.0, atom_count=3, restarts=4, seed=2,
                       max_iters=200, step=0.1)
    res = search_max(cfg)
    assert res.best_value == pytest.approx(0.25, abs=1e-8)


@pytest.mark.parametrize("offset", [1e6, 1e7])
def test_jung_simplex_tight_far_from_origin(offset):
    # the diameter used to lose 0.031 at offset 1e7, so the ratio read as
    # not attained
    V = regular_simplex(2, 1.0).vertices + offset
    rep = jung_verify(PointCloud(V))
    assert rep.ok and rep.tight
    assert rep.extraction_ok
    assert np.abs(rep.simplex_points[np.lexsort(rep.simplex_points.T)]
                  - V[np.lexsort(V.T)]).max() <= 1e-6


def test_jung_verdicts_do_not_depend_on_scale():
    # the tolerances used to be absolute: this cloud (ratio 0.868) read
    # tight=True, extraction_ok=False at scale 1e-8, and simplices of
    # diameter 1e-6 failed their extraction
    cases = [(np.random.default_rng(3).normal(size=(40, 2)), (True, False, None))]
    cases += [(regular_simplex(n, 1.0).vertices + 0.3, (True, True, True)) for n in (1, 2, 3)]
    for P, verdict in cases:
        for s in (1.0, 1e-3, 1e-6, 1e-8):
            rep = jung_verify(PointCloud(P * s))
            assert (rep.ok, rep.tight, rep.extraction_ok) == verdict


@pytest.mark.parametrize("p, d", [(1, 1e-6), (1, 1e6), (2, 1e-6), (2, 1e6), (3, 1e-6), (3, 1e6)])
def test_search_scale_invariant(p, d):
    # every tolerance of the search is relative to the diameter cap, and
    # the sphere's offsets to its radius; at d = 1e-6 the absolute ones
    # used to change the restarts' values (power(3): all of them read 0)
    cost = RadialCost.power(p)

    def ratios(dd):
        res = search_max(SearchConfig(n=2, d=dd, atom_count=6, restarts=6, seed=41, cost=cost))
        return np.array(res.per_restart_values) / isodiametric_bound(2, dd, cost)

    assert np.abs(ratios(d) - ratios(1.0)).max() <= 1e-6


@pytest.mark.parametrize("tol", [1e-6, 1e-6 * 1e18])
def test_search_measure_genvar_at_large_scale(tol):
    # the cut master's phase 1 declared this measure's master infeasible at
    # d = 1e6, where its cut values reach 1e17; started from its crash basis
    # it runs no phase 1, and the value is the search's
    cost = RadialCost.power(3)
    res = search_max(SearchConfig(n=2, d=1e6, atom_count=6, restarts=6, seed=41, cost=cost))
    gv = generalized_variance(res.best_measure, cost, tol=tol)
    assert gv.converged
    assert gv.value == pytest.approx(res.best_value, rel=1e-9)


@pytest.mark.parametrize("p", [1, 2])
def test_search_warm_start_matches_cold_start(p, monkeypatch):
    # the enclosing ball is unique, so starting from the previous support
    # changes only its rounding: the search ends where a guess too long to
    # be used, which starts at the mean, does
    warm = []
    orders = np.random.default_rng(0)

    def spy(cloud, first=None):
        warm.append(first is not None)
        return geometry.min_enclosing_ball(cloud, first=first)

    def cold(cloud, first=None):
        return geometry.min_enclosing_ball(cloud, first=orders.permutation(len(cloud)))

    configs = [SearchConfig(n=n, d=1.0, atom_count=N, restarts=r, seed=seed,
                            cost=RadialCost.power(p))
               for n, N, r in ((1, 4, 10), (2, 6, 20), (3, 8, 20)) for seed in (1, 7, 23)]
    monkeypatch.setattr(isodiametric, "min_enclosing_ball", spy)
    ws = [search_max(cfg) for cfg in configs]
    assert sum(warm) > 0.9 * len(warm)
    monkeypatch.setattr(isodiametric, "min_enclosing_ball", cold)
    for w, c in zip(ws, (search_max(cfg) for cfg in configs)):
        assert np.allclose(w.per_restart_values, c.per_restart_values, rtol=1e-12, atol=0)
        assert w.converged_restarts == c.converged_restarts


@pytest.mark.parametrize("p", [1, 2])
def test_search_certified_rejection_matches_full_solve(p, monkeypatch):
    # a step whose atoms all lie in the current ball cannot grow its radius,
    # so rejecting it unsolved must end every restart where solving does
    configs = [SearchConfig(n=n, d=1.0, atom_count=N, restarts=r, seed=seed,
                            cost=RadialCost.power(p))
               for n, N, r in ((1, 4, 10), (2, 6, 20), (3, 8, 20)) for seed in (1, 7, 23)]
    contains = geometry.Ball.contains
    weights_at_atoms = isodiametric._weights_at_atoms
    covered, finals = [], []

    def spy(self, points, tol=0.0):
        covered.append(contains(self, points, tol))
        return covered[-1]

    def record(atoms, *args):  # every restart's final atoms
        finals.append(atoms)
        return weights_at_atoms(atoms, *args)

    monkeypatch.setattr(isodiametric, "_weights_at_atoms", record)
    monkeypatch.setattr(geometry.Ball, "contains", spy)
    short = [search_max(cfg) for cfg in configs]
    assert any(covered) and not all(covered)
    short_atoms = finals.copy()
    finals.clear()
    monkeypatch.setattr(geometry.Ball, "contains", lambda self, points, tol=0.0: False)
    full = [search_max(cfg) for cfg in configs]
    assert len(short_atoms) == len(finals) == sum(cfg.restarts for cfg in configs)
    for a, b in zip(short_atoms, finals):
        assert np.array_equal(a, b)
    for s, f in zip(short, full):
        assert s.per_restart_values == f.per_restart_values
        assert s.converged_restarts == f.converged_restarts
        assert np.array_equal(s.best_measure.atoms.points, f.best_measure.atoms.points)


@pytest.mark.parametrize("p", [1, 3])
def test_search_solves_no_lp(p, monkeypatch):
    # every restart's weights are its final ball's own dual: no LP is solved
    def no_lp(*args, **kwargs):
        raise AssertionError("search_max solved an LP")

    for mod in (lp, bounds, genvar):
        monkeypatch.setattr(mod, "solve_lp", no_lp)
    cfg = SearchConfig(n=2, d=1.0, atom_count=4, restarts=2, seed=3, cost=RadialCost.power(p))
    res = search_max(cfg)
    assert res.best_value == pytest.approx(isodiametric_bound(2, 1.0, cfg.cost), rel=1e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_split_vertices_cluster_into_simplex(n):
    # each vertex becomes two atoms 1e-4 d apart, which single linkage has
    # to merge back into one cluster per vertex
    d = 2.0
    V = regular_simplex(n, d).vertices
    rng = np.random.default_rng(n)
    u = rng.normal(size=V.shape)
    u -= (u * V).sum(axis=1, keepdims=True) * V / (V * V).sum(axis=1, keepdims=True)
    u *= 0.5e-4 * d / np.linalg.norm(u, axis=1, keepdims=True)
    P = np.vstack([V + u, V - u])
    mu = AtomicMeasure(P, np.full(2 * (n + 1), 0.5 / (n + 1)))
    res = SearchResult(mu, variance(mu), [variance(mu)], 0.0, 1, 0.0)
    assert verify_simplex_optimality(res, n, d, tol=1e-3)
    rep = jung_verify(PointCloud(P), tol=1e-3)
    assert rep.tight and rep.extraction_ok
    assert rep.simplex_points.shape == (n + 1, n)
    centers = rep.simplex_points[np.argsort(rep.simplex_points @ V.T, axis=0)[-1]]
    assert np.abs(centers - V).max() <= 1e-9 * d
