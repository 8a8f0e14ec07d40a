import dataclasses
import itertools
import math

import numpy as np
import pytest

from geomoment import (AtomicMeasure, DomainError, NoConvergenceError,
                       PointCloud, RadialCost, SearchConfig, diameter,
                       generalized_variance,
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
    # a retry whose reach, the radius of a ball around its guessed
    # circumcenter that contains it, is 1e-12 d below the current radius
    # cannot grow the radius, so rejecting it unsolved must end every
    # restart where solving every retry does, within a tight budget too
    configs = [SearchConfig(n=n, d=1.0, atom_count=N, restarts=r, seed=seed,
                            max_iters=max_iters, cost=RadialCost.power(p))
               for n, N, r in ((1, 4, 10), (2, 6, 20), (3, 8, 20)) for seed in (1, 7, 23)
               for max_iters in (400, 29)]
    reach, meb = isodiametric._reach, isodiametric.min_enclosing_ball
    weights_at_atoms = isodiametric._weights_at_atoms
    reaches, solves, finals = [], [], []

    def spy(cand, first):
        reaches.append(reach(cand, first))
        return reaches[-1]

    def count(cloud, first=None):
        solves.append(None)
        return meb(cloud, first=first)

    def record(atoms, *args):  # every restart's final atoms
        finals.append(atoms)
        return weights_at_atoms(atoms, *args)

    monkeypatch.setattr(isodiametric, "_weights_at_atoms", record)
    monkeypatch.setattr(isodiametric, "min_enclosing_ball", count)
    monkeypatch.setattr(isodiametric, "_reach", spy)
    short = [_search_or_error(cfg) for cfg in configs]
    short_solves, short_atoms = len(solves), finals.copy()
    solves.clear()
    finals.clear()
    monkeypatch.setattr(isodiametric, "_reach", lambda cand, first: math.inf)
    full = [_search_or_error(cfg) for cfg in configs]
    # every step of the full search solves its ball, so the difference is
    # the number of retries the bound rejected: some of them, not all
    assert 0 < len(solves) - short_solves < len(reaches)
    assert len(short_atoms) == len(finals) == sum(cfg.restarts for cfg in configs)
    for a, b in zip(short_atoms, finals):
        assert np.array_equal(a, b)
    # the tight budget leaves restarts unconverged
    assert any(s[1] < cfg.restarts for s, cfg in zip(short, configs) if not isinstance(s, str))
    for s, f in zip(short, full):
        if isinstance(s, str) or isinstance(f, str):
            assert s == f
            continue
        assert s[0] == f[0]  # per-restart values
        assert s[1] == f[1]  # converged restarts
        assert np.array_equal(s[2], f[2])  # best measure's atoms


@pytest.mark.parametrize("d", [1.0, 3.7e-4, 123.4])
def test_reach_bounds_the_enclosing_radius(d):
    # around any center, the largest distance to the cloud is the radius of
    # a ball that contains it; from a guess that holds the ball's support
    # the reach is its radius, up to the rounding of the two centers and of
    # their distances (at most 1.04 eps d over every step of the search)
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            cand = rng.uniform(-0.5 * d, 0.5 * d, (n + 4, n))
            ball = geometry.min_enclosing_ball(cand)
            guesses = [rng.permutation(len(cand))[:k].tolist() for k in range(1, n + 2)]
            for first in guesses + [ball.support]:
                assert isodiametric._reach(cand, first) >= ball.radius - 2 * isodiametric.EPS * d


def test_reach_degenerate_guess_never_certifies():
    # two equal atoms, collinear atoms (exactly so, and up to rounding),
    # and more than n + 1 atoms: the search never rejects on such a guess
    def certifies(cand, first):
        radius = geometry.min_enclosing_ball(cand).radius
        return isodiametric._reach(np.asarray(cand, dtype=float), first) <= radius - 1e-12

    inner = [[0.05, -0.02], [-0.03, 0.04]]
    assert not certifies([[0.3, 0.1], [0.3, 0.1], [-0.4, 0.2]] + inner, [0, 1])
    assert not certifies([[0.0, 0.0], [0.2, 0.2], [0.4, 0.4]] + inner, [0, 1, 2])
    assert not certifies([[0.0, 0.0], [0.1, 0.3], [0.2, 0.6]] + inner, [0, 1, 2])
    assert not certifies([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, -0.5]] + inner,
                         [0, 1, 2, 3])
    assert isodiametric._reach(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]), [0, 1]) == math.inf


def _search_or_error(cfg):
    """(per-restart values, converged restarts, best atoms), or the message
    of the NoConvergenceError that a budget too small for every restart
    raises."""
    try:
        res = search_max(cfg)
    except NoConvergenceError as exc:
        return str(exc)
    return res.per_restart_values, res.converged_restarts, res.best_measure.atoms.points


@pytest.mark.parametrize("p", [1, 2, 3])
def test_search_pair_certificate_matches_taking_every_step(p, monkeypatch):
    # a restart stalled on one diameter pair halves its step to the floor
    # without taking the halvings; taking them must end it where it ends.
    # From 0.25 d, 28 halvings reach the floor, and the restarts that stall
    # settle within two accepted steps: with max_iters = 29 some cascades
    # would overrun the budget and must leave their restart unconverged
    configs = [SearchConfig(n=n, d=1.0, atom_count=N, restarts=r, seed=seed,
                            max_iters=max_iters, cost=RadialCost.power(p))
               for n, N, r in ((1, 4, 10), (2, 6, 20), (3, 8, 20)) for seed in (1, 7, 23)
               for max_iters in (400, 29)]
    project, search_one = isodiametric._project_diameter, isodiametric._search_one
    pair_certified = isodiametric._pair_certified
    steps, certified, restarts = [], [], []

    def count(*args):
        steps.append(None)
        return project(*args)

    def spy(*args):
        certified.append(pair_certified(*args))
        return certified[-1]

    def one(config, restart):  # (a pair certificate held, converged)
        certified.clear()
        out = search_one(config, restart)
        restarts.append((any(certified), out[3]))
        return out

    monkeypatch.setattr(isodiametric, "_project_diameter", count)
    monkeypatch.setattr(isodiametric, "_pair_certified", spy)
    monkeypatch.setattr(isodiametric, "_search_one", one)
    short = [_search_or_error(cfg) for cfg in configs]
    short_steps = len(steps)
    steps.clear()
    monkeypatch.setattr(isodiametric, "_pair_certified", lambda *args: False)
    stepped = [_search_or_error(cfg) for cfg in configs]
    assert short_steps < len(steps)  # the certificate fired
    assert (True, True) in restarts and (True, False) in restarts
    for a, b in zip(short, stepped):
        if isinstance(a, str) or isinstance(b, str):
            assert a == b
            continue
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert np.array_equal(a[2], b[2])


def test_search_pair_certificate_converges_at_the_exact_budget(monkeypatch):
    # a certified restart that takes k steps when it takes every one
    # converges with max_iters = k and not with k - 1, with or without the
    # certificate
    project, pair_certified = isodiametric._project_diameter, isodiametric._pair_certified
    calls, certified = [], []

    def count(*args):
        calls.append(None)
        return project(*args)

    def spy(*args):
        certified.append(pair_certified(*args))
        return certified[-1]

    monkeypatch.setattr(isodiametric, "_project_diameter", count)
    checked = 0
    for n, N in ((1, 4), (2, 6)):
        config = SearchConfig(n=n, d=1.0, atom_count=N, seed=5)
        for r in range(10):
            monkeypatch.setattr(isodiametric, "_pair_certified", spy)
            certified.clear()
            isodiametric._search_one(config, r)
            if not any(certified):
                continue
            monkeypatch.setattr(isodiametric, "_pair_certified", lambda *args: False)
            calls.clear()
            full = isodiametric._search_one(config, r)
            k = len(calls) - 1  # the first projection is the start's
            assert full[3] and k < config.max_iters
            for budget, converged in ((k, True), (k - 1, False)):
                budgeted = dataclasses.replace(config, max_iters=budget)
                stepped = isodiametric._search_one(budgeted, r)
                monkeypatch.setattr(isodiametric, "_pair_certified", pair_certified)
                short = isodiametric._search_one(budgeted, r)
                monkeypatch.setattr(isodiametric, "_pair_certified", lambda *args: False)
                assert stepped[3] is short[3] is converged
                assert stepped[2] == short[2]
                assert np.array_equal(stepped[0], short[0])
            checked += 1
    assert checked >= 3


def _project_reference(atoms, w, d, by_square=False):
    """The pull loop of :func:`isodiametric._project_diameter` with
    whole-array indexing and numpy scalars throughout: the oracle its
    rewritten loop must match bit for bit.  ``by_square`` pulls the pair
    with the largest squared distance instead of the first pair at the
    largest root."""
    atoms = atoms.copy()
    N = atoms.shape[0]
    for _ in range(10 * N + 20):
        diff = atoms[:, None, :] - atoms[None, :, :]
        S = np.add.reduce(diff * diff, axis=2)
        D = np.sqrt(S)
        i, j = divmod(int((S if by_square else D).argmax()), N)
        dij = D[i, j]
        if dij <= d:
            return atoms - (w @ atoms)
        u = (atoms[j] - atoms[i]) / dij
        excess = dij - d
        half = 0.5 * excess * u
        atoms[i] += half
        atoms[j] -= half
    dia = diameter(atoms)
    if dia > d:
        centroid = w @ atoms
        atoms = centroid + (atoms - centroid) * (d / dia)
    return atoms - (w @ atoms)


def _outward_reference(atoms, ball, d):
    """:func:`isodiametric._outward` with boolean masks over every atom: its
    oracle."""
    offs = atoms - ball.center
    norms = np.sqrt(np.add.reduce(offs * offs, axis=1))
    on_bdry = np.abs(norms - ball.radius) <= 1e-7 * (d + ball.radius)
    movable = on_bdry & (norms > 1e-12 * d)
    dirs = np.zeros(atoms.shape)
    dirs[movable] = offs[movable] / norms[movable, None]
    boundary = on_bdry.nonzero()[0].tolist()
    return dirs, boundary, isodiametric._pair_certified(atoms, ball, boundary, d)


def _outward_matches_reference(atoms, d):
    ball = geometry.min_enclosing_ball(atoms)
    dirs, boundary, certified = isodiametric._outward(atoms, ball, d)
    ref_dirs, ref_boundary, ref_certified = _outward_reference(atoms, ball, d)
    return (dirs.tobytes() == ref_dirs.tobytes() and boundary == ref_boundary
            and certified == ref_certified)


def test_project_and_outward_match_their_references():
    # 2070 configurations; at n = 8 each squared distance is a sum of 8
    # squares, which numpy's reduction adds pairwise, not left to right
    rng = np.random.default_rng(2024)
    for N, n, d in itertools.product(range(4, 10), [1, 2, 3, 4, 8], [1.0, 3.7e-4, 123.4]):
        for _ in range(23):
            atoms = rng.uniform(-1.0, 1.0, (N, n)) * (rng.uniform(0.3, 1.5) * d)
            given = atoms.copy()
            w = rng.dirichlet(np.ones(N))
            got = isodiametric._project_diameter(atoms, w, d)
            assert got.tobytes() == _project_reference(atoms, w, d).tobytes()
            assert atoms.tobytes() == given.tobytes()  # the pulls act on a copy
            assert _outward_matches_reference(got, d)
    # every atom at the center: all on the sphere of radius 0, none moves
    same = np.full((5, 2), 0.25)
    assert _outward_matches_reference(same, 1.0)
    assert not isodiametric._outward(same, geometry.min_enclosing_ball(same), 1.0)[0].any()


def test_project_diameter_pulls_the_first_pair_at_the_largest_root():
    # |x_0 - x_1|^2 = 1 and |x_0 - x_2|^2 = 1 + 2^-52: distinct squares
    # with one rounded root, 1.  The first pair in row-major order, (0, 1),
    # is pulled first, not (0, 2), which has the largest square
    atoms = np.array([[0.0, 0.0], [1.0, 0.0], [0.95532880527733, 0.29554504531016823]])
    sq = np.add.reduce(atoms * atoms, axis=1)
    assert sq[1] < sq[2] and np.sqrt(sq[1]) == np.sqrt(sq[2]) == 1.0
    w = np.full(3, 1.0 / 3.0)
    got = isodiametric._project_diameter(atoms, w, 0.9)
    assert got.tobytes() == _project_reference(atoms, w, 0.9).tobytes()
    assert got.tobytes() != _project_reference(atoms, w, 0.9, by_square=True).tobytes()


@pytest.mark.parametrize("d", [1.0, 3.7e-4])
def test_pair_certified(d):
    def certified(P):
        P = np.asarray(P, dtype=float) * d
        ball = geometry.min_enclosing_ball(P)
        return isodiametric._outward(P, ball, d)[2], ball

    # a pair at distance d with atoms inside
    inner = [[0.0, 0.1], [0.05, -0.2], [-0.3, 0.0]]
    got, ball = certified([[-0.5, 0.0], [0.5, 0.0]] + inner)
    assert sorted(ball.support) == [0, 1] and got
    # an inner atom in the 1e-7 (d + R) band at the sphere steps too
    got, ball = certified([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5 * (1 - 1e-9)]] + inner)
    assert sorted(ball.support) == [0, 1] and not got
    # a pair d (1 - 1e-9) apart still gains radius from a step
    half = 0.5 * (1 - 1e-9)
    assert not certified([[-half, 0.0], [half, 0.0]] + inner)[0]
    # a support of three atoms: an equilateral triangle of side d
    got, ball = certified(regular_simplex(2, 1.0).vertices.tolist() + [[0.0, 0.0]])
    assert len(ball.support) == 3 and not got


def _pair_state(n, d, rng, half):
    """A recentred search state: a pair 2 half apart along a random
    direction and three atoms well inside its ball, with the state's ball
    and :func:`isodiametric._outward`."""
    e = rng.normal(size=n)
    e /= np.linalg.norm(e)
    inner = rng.uniform(-0.15 * d, 0.15 * d, (3, n))
    atoms = np.vstack([-half * e, half * e, inner])
    atoms -= np.full(len(atoms), 1.0 / len(atoms)) @ atoms
    ball = geometry.min_enclosing_ball(atoms)
    return atoms, ball, isodiametric._outward(atoms, ball, d)


def _steps_rejected(atoms, ball, dirs, first, d):
    """Is every step of d, d / 2, ... down to the search's floor rejected,
    as the search would reject it?"""
    w0 = np.full(len(atoms), 1.0 / len(atoms))
    step = d
    while step >= 1e-9 * d:
        cand = isodiametric._project_diameter(atoms + step * dirs, w0, d)
        if not ball.contains(cand):
            if geometry.min_enclosing_ball(cand, first=first).radius > ball.radius + 1e-15 * d:
                return False
        step *= 0.5
    return True


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1.0, 3.7e-4, 123.4])
def test_pair_certified_at_band_edge_rejects_every_step(n, d):
    # a pair that reads as short as the band allows: one ulp shorter and the
    # certificate no longer holds.  Every step it skips is still rejected
    rng = np.random.default_rng(17 * n)
    for _ in range(4):
        state = rng.bit_generator.state
        half, edge = 0.5 * d * (1 + 4 * isodiametric.EPS), None
        while True:
            rng.bit_generator.state = state
            atoms, ball, (dirs, first, certified) = _pair_state(n, d, rng, half)
            if not certified:
                break
            edge = atoms, ball, dirs, first
            half = np.nextafter(half, 0.0)
        assert edge is not None
        atoms, ball, dirs, first = edge
        assert sorted(ball.support) == first == [0, 1]
        assert _steps_rejected(atoms, ball, dirs, first, d)
    # the same steps from a pair 1e-9 d short of the cap are taken
    atoms, ball, (dirs, first, certified) = _pair_state(n, d, rng, 0.5 * d * (1 - 1e-9))
    assert not certified and not _steps_rejected(atoms, ball, dirs, first, d)


def test_pair_certificate_growth_stays_below_half_the_gain(monkeypatch):
    # the pair certificate's skip rests on a measured margin, not a proof:
    # in every state where it holds, no step of d, d / 2, ... down to the
    # floor may grow the radius by half the 1e-15 d = 9.007 u d (u = eps / 2)
    # an accepted step must gain.  The largest growth here is 2.0 u d, as
    # on 40 seeds
    outward, states = isodiametric._outward, []

    def spy(atoms, ball, d):
        out = outward(atoms, ball, d)
        if out[2]:
            states.append((atoms, ball, out[0], out[1], d))
        return out

    monkeypatch.setattr(isodiametric, "_outward", spy)
    for (n, N), d in itertools.product(((1, 4), (2, 5), (2, 6), (2, 8), (3, 6), (3, 8), (4, 8)),
                                       (1.0, 3.7e-4, 123.4)):
        _search_or_error(SearchConfig(n=n, d=d, atom_count=N, restarts=8, seed=0))
    growth = []
    for atoms, ball, dirs, first, d in states:
        w0 = np.full(len(atoms), 1.0 / len(atoms))
        step = d
        while step >= 1e-9 * d:
            cand = isodiametric._project_diameter(atoms + step * dirs, w0, d)
            radius = geometry.min_enclosing_ball(cand, first=first).radius
            growth.append((radius - ball.radius) / (0.5 * isodiametric.EPS * d))
            step *= 0.5
    assert len(states) >= 50
    assert max(growth) <= 0.5 * 1e-15 / (0.5 * isodiametric.EPS)


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
