import dataclasses
import itertools
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


def test_search_best_restart_does_not_turn_on_rounding(monkeypatch):
    # restarts that end at the bound agree to a few ulps, and another
    # numpy/BLAS build rounds them differently by as much: values within
    # 1e-12 of the largest tie, and the first restart among them wins, so
    # nudging each value by a few ulps picks the same measure
    config = SearchConfig(n=2, d=1.0, atom_count=6, restarts=8, seed=1)
    res = search_max(config)
    bound = isodiametric_bound(2, 1.0)
    assert sum(abs(v - bound) <= 1e-12 * bound for v in res.per_restart_values) >= 2
    search_one = isodiametric._search_one
    for sign in (1, -1):
        def nudged(config, restart):
            atoms, w, val, converged = search_one(config, restart)
            return atoms, w, val * (1 + sign * (-1) ** restart * 4 * isodiametric.EPS), converged

        monkeypatch.setattr(isodiametric, "_search_one", nudged)
        again = search_max(config).best_measure.atoms.points
        assert np.array_equal(again, res.best_measure.atoms.points)


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


def test_verify_simplex_optimality_at_small_diameter():
    # the default tol_geom had a floor of 1e-7: at d = 1e-9 single linkage
    # merged every atom into one cluster, and the search's own maximizer,
    # within 5.4e-10 of the bound, read False
    d = 1e-9
    res = search_max(SearchConfig(n=2, d=d, atom_count=6, restarts=6, seed=1))
    assert res.best_value >= isodiametric_bound(2, d) * (1 - 1e-9)
    assert verify_simplex_optimality(res, 2, d, tol=1e-6)


@pytest.mark.parametrize("d", [1e-9, 1.0, 1e9])
def test_verify_simplex_optimality_value_test_is_relative(d):
    # an absolute tol read a maximizer 5.4e-10 relative below the bound, as
    # the search's own ended before its finish, as True at d = 1e-9 and 1
    # and as False at d = 1e9
    res = search_max(SearchConfig(n=2, d=d, atom_count=6, restarts=6, seed=1))
    bound = isodiametric_bound(2, d)
    near = dataclasses.replace(res, best_value=bound * (1 - 5.4e-10))
    assert verify_simplex_optimality(near, 2, d, tol=1e-6)
    # the same measure with a value 2e-6 relative short of the bound fails
    short = dataclasses.replace(res, best_value=bound * (1 - 2e-6))
    assert not verify_simplex_optimality(short, 2, d, tol=1e-6)


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


def test_search_with_explicit_iters():
    cfg = SearchConfig(n=1, d=1.0, atom_count=3, restarts=4, seed=2, max_iters=200)
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


def _project_reference(atoms, d, by_square=False):
    """The pull loop of :func:`isodiametric._project_diameter` with
    whole-array indexing and numpy scalars throughout: the oracle its
    rewritten loop must match bit for bit.  ``by_square`` pulls the pair
    with the largest squared distance instead of the first pair at the
    largest root."""
    N = atoms.shape[0]
    atoms = atoms - np.add.reduce(atoms, axis=0) / N
    for _ in range(10 * N + 20):
        diff = atoms[:, None, :] - atoms[None, :, :]
        S = np.add.reduce(diff * diff, axis=2)
        D = np.sqrt(S)
        i, j = divmod(int((S if by_square else D).argmax()), N)
        dij = D[i, j]
        if dij <= d:
            return atoms
        u = (atoms[j] - atoms[i]) / dij
        excess = dij - d
        half = 0.5 * excess * u
        atoms[i] += half
        atoms[j] -= half
    dia = diameter(atoms)
    if dia > d:
        atoms = atoms * (d / dia)
    return atoms


def _outward_reference(atoms, ball, d):
    """:func:`isodiametric._outward` in numpy, on an array of atoms and a
    :class:`Ball`, with boolean masks over every atom: its oracle, and the
    search's state before it stepped in plain floats.  Each row's squares
    are added left to right by ``np.cumsum``, as ``np.add.reduce`` adds
    them below n = 8; from n = 8 on, numpy's reduction adds them
    pairwise."""
    offs = atoms - ball.center
    norms = np.sqrt(np.cumsum(offs * offs, axis=1)[:, -1])
    on_bdry = np.abs(norms - ball.radius) <= 1e-7 * (d + ball.radius)
    movable = on_bdry & (norms > 1e-12 * d)
    dirs = np.zeros(atoms.shape)
    dirs[movable] = offs[movable] / norms[movable, None]
    return dirs, on_bdry.nonzero()[0].tolist()


def _solved_outward(atoms, d):
    """The smallest enclosing ball of ``atoms``, solved, and
    :func:`isodiametric._outward` of the state it makes."""
    rows = atoms.tolist()
    c, R, support, lam, d2 = isodiametric._solved_ball(atoms, rows)
    return geometry.Ball(c, R, support, lam), isodiametric._outward(rows, c, R, d2, d)


def _outward_matches_reference(atoms, d):
    ball, (dirs, boundary) = _solved_outward(atoms, d)
    ref_dirs, ref_boundary = _outward_reference(atoms, ball, d)
    return dirs.tobytes() == ref_dirs.tobytes() and boundary == ref_boundary


def _search_one_reference(config, restart, *, guess=True, finish=True, lift=True,
                          jung_stop=True, log=None):
    """:func:`isodiametric._search_one` as it stepped before its state went
    to plain floats, a :class:`Ball` for every candidate and each accepted
    state read again in numpy by :func:`_outward_reference`, with one
    switch per shortcut of the ascent:

    - ``guess`` certifies each candidate's guessed ball by
      :func:`isodiametric._guess_ball`; without it, every candidate's ball
      is solved by ``min_enclosing_ball``;
    - ``finish`` tries :func:`isodiametric._finish` once per accepted
      state, and ``lift`` lets it lift a k-simplex with k < n (without it,
      the finish is tried on n-simplices only);
    - ``jung_stop`` stops a state whose radius is within 4.5 u d of Jung's
      bound r_n d (u = eps / 2); without it, every halving is taken.

    ``log``, a dict, gathers across calls every projection's output under
    "projections", whether each guess was certified under "guesses", and
    each accepted state where the stop holds, taken or not, as (atoms, R,
    dirs, d) under "stopped"."""
    rng = np.random.default_rng(config.seed + restart)
    n, N, d = config.n, config.atom_count, config.d

    def note(key, value):
        if log is not None:
            log.setdefault(key, []).append(value)

    def project(moved):
        cand = isodiametric._project_diameter(moved, d)
        note("projections", cand)
        return cand

    def state(atoms, ball):
        dirs, first = _outward_reference(atoms, ball, d)
        held = ball.radius >= isodiametric._jung_floor(n, d)
        if held:
            note("stopped", (atoms, ball.radius, dirs, d))
        move = None
        if finish and (lift or len(first) == n + 1):
            move = isodiametric._finish(atoms.tolist(), first, ball.radius, d)
        return dirs, first, jung_stop and held, move

    atoms = project(rng.uniform(-0.5 * d, 0.5 * d, (N, n)))
    ball = geometry.min_enclosing_ball(atoms)
    step, step_floor = 0.25 * d, 1e-9 * d
    converged = False
    dirs, first, stop, move = state(atoms, ball)
    for it in range(config.max_iters):
        if stop:
            halvings = 1
            while step * 0.5 ** halvings >= step_floor:
                halvings += 1
            converged = it + halvings <= config.max_iters
            break
        if move is None:
            cand, cand_first = project(atoms + step * dirs), first
        else:
            cand, cand_first = project(np.array(move[0])), move[1]
        certified = None
        if guess:
            certified = isodiametric._guess_ball(cand.tolist(), cand_first, d)
            note("guesses", certified is not None)
        if certified is None:
            cand_ball = geometry.min_enclosing_ball(cand)
        else:
            cand_ball = geometry.Ball(certified[0], certified[1], list(cand_first), certified[2])
        if cand_ball.radius > ball.radius + 1e-15 * d:
            atoms, ball = cand, cand_ball
            dirs, first, stop, move = state(atoms, ball)
            continue
        if move is not None:
            move = None
            continue
        step *= 0.5
        if step < step_floor:
            converged = True
            break
    w, val = isodiametric._weights_at_atoms(atoms, ball, config.cost)
    return atoms, w, val, converged


@pytest.mark.parametrize("p", [1, 2, 3])
def test_search_warm_start_matches_cold_start(p):
    # the enclosing ball is unique, so guessing it from the previous support
    # changes only its rounding.  Almost every step's ball is the certified
    # ball of its guess (the reference with the guess ends every restart as
    # the search does, bit for bit); the cold reference certifies no guess
    # and solves every ball.  Both end each restart alike at any scale of d
    # and within a tight budget
    configs = [SearchConfig(n=n, d=1.0, atom_count=N, restarts=r, seed=seed,
                            cost=RadialCost.power(p))
               for n, N, r in ((1, 4, 10), (2, 6, 20), (3, 8, 20)) for seed in (1, 7, 23)]
    configs += [SearchConfig(n=n, d=d, atom_count=N, restarts=4, seed=seed,
                             max_iters=max_iters, cost=RadialCost.power(p))
                for n, N in ((1, 4), (2, 6), (3, 8)) for d in (1.0, 3.7e-4, 123.4)
                for seed in (3, 11) for max_iters in (400, 29)]
    log, outcomes = {}, []
    for config in configs:
        for r in range(config.restarts):
            _, _, val, converged = isodiametric._search_one(config, r)
            warm = _search_one_reference(config, r, log=log)
            cold = _search_one_reference(config, r, guess=False)
            assert warm[2] == val and warm[3] == converged
            assert np.isclose(cold[2], val, rtol=1e-12, atol=0) and cold[3] == converged
            outcomes.append(converged)
    assert sum(log["guesses"]) > 0.9 * len(log["guesses"])
    assert not all(outcomes)  # the tight budget leaves restarts unconverged


@pytest.mark.parametrize("d", [1.0, 3.7e-4, 123.4])
def test_guess_ball_matches_min_enclosing_ball(d):
    # whenever a guess is certified, its ball is the smallest enclosing
    # ball: the same support, radius and weights up to rounding.  The
    # support, pushed in any order, is certified
    rng = np.random.default_rng(31)
    certified = tried = 0
    for n in (1, 2, 3, 4):
        for _ in range(60):
            cand = rng.uniform(-0.5 * d, 0.5 * d, (n + 4, n))
            ref = geometry.min_enclosing_ball(cand)
            order = rng.permutation(ref.support).tolist()
            guesses = [rng.permutation(len(cand))[:k].tolist() for k in range(1, n + 2)]
            for first in [order] + guesses:
                guess = isodiametric._guess_ball(cand.tolist(), first, d)
                tried += first is order
                if guess is None:
                    continue
                certified += first is order
                c, reach, lam, d2 = guess
                assert sorted(first) == sorted(ref.support)
                assert abs(reach - ref.radius) <= 2 * isodiametric.EPS * d
                assert np.linalg.norm(c - ref.center) <= 8 * isodiametric.EPS * d
                weight = dict(zip(ref.support, ref.weights))
                assert np.allclose(lam, [weight[i] for i in first], rtol=0, atol=1e-9)
                assert min(lam) >= 0.0
                offs = cand - c
                # below n = 8 numpy adds each row's squares left to right too
                assert d2 == np.add.reduce(offs * offs, axis=1).tolist()
                assert math.sqrt(max(d2)) == reach
                assert np.linalg.norm(offs, axis=1).max() <= reach
    assert certified == tried


def test_reach_degenerate_guess_never_certifies():
    # no ball where the guess is degenerate: two equal atoms, collinear
    # atoms (exactly so, and up to rounding), more than n + 1 atoms, an
    # obtuse triangle (its circumcenter has a negative weight) and an atom
    # outside the guess's circumsphere
    def guess(cand, first):
        return isodiametric._guess_ball(np.asarray(cand, dtype=float).tolist(), first, 1.0)

    inner = [[0.05, -0.02], [-0.03, 0.04]]
    degenerate = [([[0.3, 0.1], [0.3, 0.1], [-0.4, 0.2]] + inner, [0, 1]),
                  ([[0.0, 0.0], [0.2, 0.2], [0.4, 0.4]] + inner, [0, 1, 2]),
                  ([[0.0, 0.0], [0.1, 0.3], [0.2, 0.6]] + inner, [0, 1, 2]),
                  ([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5], [0.0, -0.5]] + inner, [0, 1, 2, 3])]
    for cand, first in degenerate:
        assert guess(cand, first) is None
    assert guess([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]], [0, 1]) is None
    obtuse = [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.1]] + inner
    assert guess(obtuse, [0, 1, 2]) is None
    assert guess(obtuse, [0, 1]) is not None
    outside = [[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5 + 1e-9]] + inner
    assert guess(outside, [0, 1]) is None
    assert guess(outside, [0, 1, 2]) is not None


def test_search_jung_stop_converges_at_the_exact_budget():
    # a restart that stops at Jung's bound and takes k steps when it takes
    # every one converges with max_iters = k and not with k - 1, with or
    # without the stop
    checked = 0
    for n, N in ((1, 4), (2, 6)):
        config = SearchConfig(n=n, d=1.0, atom_count=N, seed=5)
        for r in range(10):
            log = {}
            full = _search_one_reference(config, r, jung_stop=False, log=log)
            if not log.get("stopped"):
                continue
            k = len(log["projections"]) - 1  # the first projection is the start's
            assert full[3] and k < config.max_iters
            for budget, converged in ((k, True), (k - 1, False)):
                budgeted = dataclasses.replace(config, max_iters=budget)
                stepped = _search_one_reference(budgeted, r, jung_stop=False)
                short = isodiametric._search_one(budgeted, r)
                assert stepped[3] is short[3] is converged
                assert stepped[2] == short[2]
                assert np.array_equal(stepped[0], short[0])
            checked += 1
    assert checked >= 3


def test_search_steps_match_the_numpy_reference():
    # the plain-float steps are the numpy steps bit for bit: every restart
    # ends on the same atoms, weights, value and outcome, within a tight
    # budget too
    outcomes = []
    for (n, N), p, d, max_iters in itertools.product(
            ((1, 4), (2, 6), (3, 8)), (1, 2, 3), (1.0, 3.7e-4, 123.4), (400, 29)):
        config = SearchConfig(n=n, d=d, atom_count=N, restarts=4, seed=1,
                              max_iters=max_iters, cost=RadialCost.power(p))
        for r in range(config.restarts):
            atoms, w, val, converged = isodiametric._search_one(config, r)
            ref_atoms, ref_w, ref_val, ref_converged = _search_one_reference(config, r)
            assert val == ref_val and converged == ref_converged
            assert atoms.tobytes() == ref_atoms.tobytes() and w.tobytes() == ref_w.tobytes()
            outcomes.append(converged)
    assert len(outcomes) == 216 and 0 < sum(outcomes) < len(outcomes)


def _power_grid(p):
    """The configurations at cost power ``p`` on which the Jung stop is
    checked against the ascent that takes every step.  From 0.25 d, 28
    halvings reach the floor: with max_iters = 29 some cascades would
    overrun the budget and must leave their restart unconverged."""
    return [SearchConfig(n=n, d=1.0, atom_count=N, restarts=r, seed=seed,
                         max_iters=max_iters, cost=RadialCost.power(p))
            for n, N, r in ((1, 4, 10), (2, 6, 20), (3, 8, 20)) for seed in (1, 7, 23)
            for max_iters in (400, 29)]


def _jung_stop_parity(configs, finish):
    """Run every restart of ``configs`` with the Jung stop and with the
    reference that takes every halving, with the finish or without it
    (where the reference with the stop stands in for the search), and check
    that both end on the same atoms, weights, value and outcome.  Returns
    (the stop held, converged) for each restart and the count of
    projections that the stop skipped."""
    restarts, skipped = [], 0
    for config in configs:
        for r in range(config.restarts):
            log, short_log = {}, {}
            stepped = _search_one_reference(config, r, finish=finish, jung_stop=False, log=log)
            if finish:
                short = isodiametric._search_one(config, r)
            else:
                short = _search_one_reference(config, r, finish=False, log=short_log)
                skipped += len(log["projections"]) - len(short_log["projections"])
            assert short[2] == stepped[2] and short[3] == stepped[3]
            assert short[0].tobytes() == stepped[0].tobytes()
            assert short[1].tobytes() == stepped[1].tobytes()
            restarts.append((bool(log.get("stopped")), stepped[3]))
    return restarts, skipped


@pytest.mark.parametrize("p", [1, 2, 3])
def test_search_jung_stop_matches_taking_every_step(p):
    # a restart at Jung's bound halves its step to the floor without taking
    # the halvings; taking them must end it where it ends.  A restart that
    # converges where the stop held is one where the stop skipped halvings;
    # on the budget of 29 some such restarts do not converge
    restarts, _ = _jung_stop_parity(_power_grid(p), finish=True)
    assert (True, True) in restarts and (True, False) in restarts


@pytest.mark.parametrize("finish", [True, False])
def test_search_jung_stop_matches_the_reference_that_takes_every_step(finish):
    # the Jung stop skips only steps that the ascent would reject, with the
    # finish and without it, over three scales.  Without the finish the
    # power grids run here too, as their own test runs the search, which
    # finishes
    configs = [SearchConfig(n=n, d=d, atom_count=N, restarts=4, seed=1, max_iters=max_iters)
               for (n, N), d, max_iters in itertools.product(
                   ((1, 4), (2, 6), (3, 8)), (1.0, 3.7e-4, 123.4), (400, 29))]
    if not finish:
        configs += [config for p in (1, 2, 3) for config in _power_grid(p)]
    restarts, skipped = _jung_stop_parity(configs, finish)
    assert (True, True) in restarts and (True, False) in restarts
    assert finish or skipped > 0


def test_search_lift_takes_stalled_restarts_to_the_bound():
    # without the lift, the reference leaves restarts on regular k-simplices
    # with k < n, which are stationary for its steps; every restart that it
    # ends at the bound ends there with the lift too, and more of them do
    for n, N in ((2, 6), (3, 8), (4, 8)):
        config = SearchConfig(n=n, d=1.0, atom_count=N, restarts=12, seed=1)
        bound = isodiametric_bound(n, 1.0)

        def at_bound(search):
            return [abs(search(config, r)[2] - bound) <= 1e-12 * bound
                    for r in range(config.restarts)]

        lifted = at_bound(isodiametric._search_one)
        stalled = at_bound(lambda config, r: _search_one_reference(config, r, lift=False))
        assert all(a or not b for a, b in zip(lifted, stalled))
        assert sum(lifted) > sum(stalled)


def test_project_and_outward_match_their_references():
    # 2070 configurations; at n = 8 each squared distance is a sum of 8
    # squares, which numpy's reduction adds pairwise, not left to right:
    # the projection's reference adds them as numpy does, and _outward's
    # left to right
    rng = np.random.default_rng(2024)
    for N, n, d in itertools.product(range(4, 10), [1, 2, 3, 4, 8], [1.0, 3.7e-4, 123.4]):
        for _ in range(23):
            atoms = rng.uniform(-1.0, 1.0, (N, n)) * (rng.uniform(0.3, 1.5) * d)
            given = atoms.copy()
            got = isodiametric._project_diameter(atoms, d)
            assert got.tobytes() == _project_reference(atoms, d).tobytes()
            assert atoms.tobytes() == given.tobytes()  # the pulls act on a copy
            assert _longest_side(got) <= d
            assert _outward_matches_reference(got, d)
    # every atom at the center: all on the sphere of radius 0, none moves
    same = np.full((5, 2), 0.25)
    assert _outward_matches_reference(same, 1.0)
    assert not _solved_outward(same, 1.0)[1][0].any()


def test_project_diameter_pulls_the_first_pair_at_the_largest_root():
    # |x_0 - x_1|^2 = 1 and |x_0 - x_2|^2 = 1 + 2^-52: distinct squares
    # with one rounded root, 1.  The first pair in row-major order, (0, 1),
    # is pulled first, not (0, 2), which has the largest square
    atoms = np.array([[0.0, 0.0], [1.0, 0.0], [0.95532880527733, 0.29554504531016823]])
    sq = np.add.reduce(atoms * atoms, axis=1)
    assert sq[1] < sq[2] and np.sqrt(sq[1]) == np.sqrt(sq[2]) == 1.0
    got = isodiametric._project_diameter(atoms, 0.9)
    assert got.tobytes() == _project_reference(atoms, 0.9).tobytes()
    assert got.tobytes() != _project_reference(atoms, 0.9, by_square=True).tobytes()


def _pair_at_cap(atoms, ball, boundary, d):
    """A stalled pair state: the ball's support is one pair, its atoms are
    the only ones on the sphere, and it reads at least d - eps d apart.
    The search once stopped on such states; now the Jung stop ends them at
    n = 1 and the finish lifts them at n >= 2."""
    if len(boundary) != 2 or sorted(ball.support) != boundary:
        return False
    chord = atoms[boundary[0]] - atoms[boundary[1]]
    return math.sqrt(float(np.cumsum(chord * chord)[-1])) >= d - isodiametric.EPS * d


def _lift_taken(atoms, ball, first, d):
    """Does :func:`isodiametric._finish` lift the state to a (k + 1)-simplex
    whose candidate, projected and solved cold, the search would accept?"""
    move = isodiametric._finish(atoms.tolist(), first, ball.radius, d)
    if move is None or len(move[1]) != len(first) + 1:
        return False
    cand = isodiametric._project_diameter(np.array(move[0]), d)
    return geometry.min_enclosing_ball(cand).radius > ball.radius + 1e-15 * d


@pytest.mark.parametrize("d", [1.0, 3.7e-4])
def test_pair_certified(d):
    # the states a pair at the cap makes, and their neighbours, end where
    # the search can still end them
    def state(P):
        atoms = np.asarray(P, dtype=float) * d
        ball, (dirs, first) = _solved_outward(atoms, d)
        return atoms, ball, dirs, first

    # a pair at distance d with atoms inside: lifted at n = 2, where plain
    # steps stall, and stopped by Jung's bound at n = 1
    inner = [[0.0, 0.1], [0.05, -0.2], [-0.3, 0.0]]
    atoms, ball, dirs, first = state([[-0.5, 0.0], [0.5, 0.0]] + inner)
    assert sorted(ball.support) == first == [0, 1] and _pair_at_cap(atoms, ball, first, d)
    assert _steps_rejected(atoms, ball, dirs, d) and _lift_taken(atoms, ball, first, d)
    atoms, ball, _, first = state([[-0.5], [0.5], [0.1], [-0.2], [0.0]])
    assert _pair_at_cap(atoms, ball, first, d) and ball.radius >= isodiametric._jung_floor(1, d)
    # an inner atom in the 1e-7 (d + R) band at the sphere: no regular
    # simplex to finish, and a step is taken
    atoms, ball, dirs, first = state([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.5 * (1 - 1e-9)]] + inner)
    assert sorted(ball.support) == [0, 1] and not _pair_at_cap(atoms, ball, first, d)
    assert isodiametric._finish(atoms.tolist(), first, ball.radius, d) is None
    assert not _steps_rejected(atoms, ball, dirs, d)
    # a pair d (1 - 1e-9) apart is lifted too
    half = 0.5 * (1 - 1e-9)
    atoms, ball, _, first = state([[-half, 0.0], [half, 0.0]] + inner)
    assert not _pair_at_cap(atoms, ball, first, d) and _lift_taken(atoms, ball, first, d)
    # a support of three atoms, an equilateral triangle of side d, is at
    # Jung's bound: it stops and is not finished
    atoms, ball, _, first = state(regular_simplex(2, 1.0).vertices.tolist() + [[0.0, 0.0]])
    assert len(ball.support) == 3 and not _pair_at_cap(atoms, ball, first, d)
    assert ball.radius >= isodiametric._jung_floor(2, d)
    assert isodiametric._finish(atoms.tolist(), first, ball.radius, d) is None


def _pair_state(n, d, rng, half):
    """A recentred search state: a pair 2 half apart along a random
    direction and three atoms well inside its ball, with the state's ball
    and :func:`isodiametric._outward`."""
    e = rng.normal(size=n)
    e /= np.linalg.norm(e)
    inner = rng.uniform(-0.15 * d, 0.15 * d, (3, n))
    atoms = np.vstack([-half * e, half * e, inner])
    atoms -= np.full(len(atoms), 1.0 / len(atoms)) @ atoms
    return (atoms, *_solved_outward(atoms, d))


def _cold_radii(atoms, dirs, d):
    """The radius of each step of d, d / 2, ... down to the search's floor
    from a state, its candidate projected and its ball solved cold."""
    radii, step = [], d
    while step >= 1e-9 * d:
        cand = isodiametric._project_diameter(atoms + step * dirs, d)
        radii.append(geometry.min_enclosing_ball(cand).radius)
        step *= 0.5
    return radii


def _steps_rejected(atoms, ball, dirs, d):
    """Is every step of d, d / 2, ... down to the search's floor rejected,
    as the search would reject it, with each ball solved cold?"""
    return max(_cold_radii(atoms, dirs, d)) <= ball.radius + 1e-15 * d


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1.0, 3.7e-4, 123.4])
def test_pair_certified_at_band_edge_rejects_every_step(n, d):
    # a pair that reads as short as a pair at the cap can: one ulp shorter
    # and it reads below d - eps d.  Every plain step from it is rejected,
    # so only the Jung stop (n = 1) or the lift (n >= 2) ends it, and they do
    rng = np.random.default_rng(17 * n)
    for _ in range(4):
        state = rng.bit_generator.state
        half, edge = 0.5 * d * (1 + 4 * isodiametric.EPS), None
        while True:
            rng.bit_generator.state = state
            atoms, ball, (dirs, first) = _pair_state(n, d, rng, half)
            if not _pair_at_cap(atoms, ball, first, d):
                break
            edge = atoms, ball, dirs, first
            half = np.nextafter(half, 0.0)
        assert edge is not None
        atoms, ball, dirs, first = edge
        assert sorted(ball.support) == first == [0, 1]
        assert _steps_rejected(atoms, ball, dirs, d)
        assert (ball.radius >= isodiametric._jung_floor(n, d)) == (n == 1)
        assert n == 1 or _lift_taken(atoms, ball, first, d)
    # the same steps from a pair 1e-9 d short of the cap are taken
    atoms, ball, (dirs, first) = _pair_state(n, d, rng, 0.5 * d * (1 - 1e-9))
    assert not _pair_at_cap(atoms, ball, first, d) and not _steps_rejected(atoms, ball, dirs, d)


@pytest.fixture(scope="module")
def stopped_states():
    """Every accepted state of 8 restarts at seed 0 of each (n, atoms) in
    {(1, 4), (2, 5), (2, 6), (2, 8), (3, 6), (3, 8), (4, 8)} and d in {1,
    3.7e-4, 123.4} where the Jung stop holds, as (atoms, R, dirs, d)."""
    log = {}
    for (n, N), d in itertools.product(((1, 4), (2, 5), (2, 6), (2, 8), (3, 6), (3, 8), (4, 8)),
                                       (1.0, 3.7e-4, 123.4)):
        config = SearchConfig(n=n, d=d, atom_count=N, restarts=8, seed=0)
        for r in range(config.restarts):
            _search_one_reference(config, r, log=log)
    return log["stopped"]


def _largest_growth(states):
    """The most any step of d, d / 2, ... down to the search's floor from
    one of the states grows its radius, with each ball solved cold, in
    units of u d (u = eps / 2)."""
    return max((radius - R) / (0.5 * isodiametric.EPS * d)
               for atoms, R, dirs, d in states for radius in _cold_radii(atoms, dirs, d))


# half the 1e-15 d = 9.007 u d an accepted step must gain
HALF_THE_GAIN = 0.5 * 1e-15 / (0.5 * isodiametric.EPS)


def test_jung_stop_growth_stays_below_half_the_gain(stopped_states):
    # the Jung stop rests on a measured margin too: a state within 4.5 u d
    # of r_n d is a regular n-simplex up to rounding, and no step from it may
    # grow the radius by half the gain.  Each state's radius is within a few
    # u d of r_n d
    states = stopped_states
    assert len(states) >= 50
    assert {len(dirs[0]) for _, _, dirs, _ in states} == {1, 2, 3, 4}
    offsets = [(R - jung_radius(len(dirs[0])) * d) / (0.5 * isodiametric.EPS * d)
               for _, R, dirs, d in states]
    assert -4.5 <= min(offsets) and max(offsets) <= 4.5
    assert _largest_growth(states) <= HALF_THE_GAIN


def test_search_restarts_at_the_bound_end_on_it():
    # the finish and the Jung stop end every restart that gets near the bound
    # on it, up to rounding: on the 378 configurations, each restart within
    # 1e-3 of the bound ends within [bound (1 - 1e-12), bound (1 + 4 eps)]
    near = 0
    for (n, N), p, d, max_iters, seed in itertools.product(
            ((1, 4), (2, 5), (2, 6), (2, 8), (3, 6), (3, 8), (4, 8)), (1, 2, 3),
            (1.0, 3.7e-4, 123.4), (400, 29), (1, 7, 23)):
        config = SearchConfig(n=n, d=d, atom_count=N, restarts=4, seed=seed,
                              max_iters=max_iters, cost=RadialCost.power(p))
        bound = isodiametric_bound(n, d, config.cost)
        for r in range(config.restarts):
            val = isodiametric._search_one(config, r)[2]
            if abs(val - bound) <= 1e-3 * bound:
                near += 1
                assert bound * (1 - 1e-12) <= val <= bound * (1 + 4 * isodiametric.EPS)
    assert near >= 500


@pytest.mark.parametrize("n", range(2, 9))
def test_search_finds_the_simplex_in_every_dimension(n):
    # only the regular n-simplex maximizes; lower-dimensional regular
    # simplices are stationary, and restarts that settle on one are lifted
    # off it.  So the best of the default 50 restarts is the maximizer, up
    # to n = 8, and no restart passes the bound by more than rounding
    res = search_max(SearchConfig(n=n, d=1.0, atom_count=max(6, n + 4), seed=1))
    assert verify_simplex_optimality(res, n, 1.0, tol=1e-6)
    assert max(res.per_restart_values) <= isodiametric_bound(n, 1.0) * (1 + 4 * isodiametric.EPS)


def _sides(P):
    return np.linalg.norm(P[:, None] - P[None], axis=2)[np.triu_indices(len(P), 1)]


@pytest.mark.parametrize("d", [1.0, 3.7e-4, 123.4])
def test_lift_turns_a_regular_triangle_into_a_regular_tetrahedron(d):
    # a triangle in R^3 with sides within 1e-3 d of d, turned at random, and
    # three atoms inside its ball: Gauss-Newton makes it regular, the atom
    # farthest from its plane is lifted to distance d from every vertex, on
    # its own side, and the others move halfway to the triangle's centroid
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    tri = np.hstack([regular_simplex(2, d).vertices, np.zeros((3, 1))])
    tri = (tri + rng.uniform(-2e-4 * d, 2e-4 * d, tri.shape)) @ Q.T
    inner = np.array([[0.05, 0.02, 0.1], [-0.03, 0.01, -0.2], [0.1, -0.05, 0.05]]) * d @ Q.T
    rows = np.vstack([tri, inner]).tolist()
    R = geometry.min_enclosing_ball(np.array(rows)).radius
    out, first = isodiametric._finish(rows, [0, 1, 2], R, d)
    assert first == [0, 1, 2, 4]
    out = np.array(out)
    assert np.abs(_sides(out[first]) - d).max() <= 8 * isodiametric.EPS * d
    assert np.abs(_sides(out[:3]) - d).max() < np.abs(_sides(tri) - d).max()
    normal = np.cross(out[1] - out[0], out[2] - out[0])
    assert np.sign((out[4] - out[0]) @ normal) == np.sign((inner[1] - out[0]) @ normal)
    g = out[:3].mean(axis=0)
    for i in (3, 5):
        assert np.allclose(out[i], 0.5 * (np.array(rows[i]) + g), rtol=0, atol=4 * isodiametric.EPS * d)


def test_lift_with_no_atom_off_the_flat():
    # a pair of side d in R^2 whose other atoms lie on its line: no atom is
    # off the 1-flat, so the first of them is lifted along a unit normal,
    # to an equilateral triangle; the others stay on the line, halfway to
    # the pair's midpoint
    d = 3.7e-4
    rows = [[-0.5 * d, 0.0], [0.5 * d, 0.0], [0.1 * d, 0.0], [-0.2 * d, 0.0]]
    out, first = isodiametric._finish(rows, [0, 1], 0.5 * d, d)
    assert first == [0, 1, 2]
    out = np.array(out)
    assert np.abs(_sides(out[first]) - d).max() <= 4 * isodiametric.EPS * d
    assert out[2, 0] == 0.0 and out[3].tolist() == [-0.1 * d, 0.0]
    # the pair itself, or a state at Jung's bound, is not lifted
    assert isodiametric._finish([[-0.5 * d], [0.5 * d], [0.0]], [0, 1], 0.5 * d, d) is None


def _longest_side(P):
    """The largest distance between two rows of P, read as the projection
    reads it: the root of each pair's squares added by ``np.add.reduce``."""
    diff = P[:, None] - P[None]
    return float(np.sqrt(np.add.reduce(diff * diff, axis=2)).max())


def test_search_diameter_residual_reads_pairwise_distances():
    # geometry.diameter reads |x - y|^2 as |x|^2 + |y|^2 - 2 x.y, which reads
    # sides that the projection left at d one ulp above it: diameter_residual
    # read 2.2e-16 where the atoms' own differences read at most d
    gram_above = 0
    for seed in range(40):
        res = search_max(SearchConfig(n=2, d=1.0, atom_count=6, restarts=3, seed=seed))
        P, _ = res.best_measure.support()
        assert res.diameter_residual == max(0.0, _longest_side(P) - 1.0)
        gram_above += diameter(P) > 1.0 >= _longest_side(P)
    assert gram_above >= 1


def test_projections_read_their_own_sides_at_most_d():
    # the projection recentred its output after its exit test had read every
    # side at most d, and the recentring's rounding lengthened sides: 201 of
    # 5074 projections on this grid read a side of 1 + 2.2e-16.  It recentres
    # its input now, and a pull keeps the mean
    log = {}
    for (n, N), seed in itertools.product(((2, 6), (3, 8)), range(40)):
        config = SearchConfig(n=n, d=1.0, atom_count=N, restarts=3, seed=seed)
        for r in range(config.restarts):
            _search_one_reference(config, r, log=log)
    assert len(log["projections"]) > 4000
    assert max(_longest_side(P) for P in log["projections"]) <= 1.0


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
