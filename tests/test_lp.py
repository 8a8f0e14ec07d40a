import numpy as np
import pytest

from geomoment import (LpProblem, LpStatus, NoConvergenceError,
                       hull_membership, regular_simplex, solve_lp)
from geomoment._simplex_py import ITERATION_LIMIT, OPTIMAL
from geomoment._simplex_py import simplex_iterate as py_iterate
from geomoment.lp import PIVOT_TOL


def test_symmetric_equalities():
    # minimize 0 s.t. t1 - t2 = 0, t1 + t2 = 1
    p = LpProblem(np.zeros(2), np.array([[1.0, -1.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
    s = solve_lp(p, 1e-8)
    assert s.status is LpStatus.OPTIMAL
    assert np.allclose(s.solution, [0.5, 0.5])


def test_corner_of_simplex():
    p = LpProblem(np.array([1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]))
    s = solve_lp(p, 1e-8)
    assert s.status is LpStatus.OPTIMAL
    assert s.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(s.solution, [0.0, 1.0])


def test_sign_contradiction_infeasible():
    p = LpProblem(np.zeros(1), np.array([[1.0]]), np.array([-1.0]))
    s = solve_lp(p, 1e-8)
    assert s.status is LpStatus.INFEASIBLE


def test_unbounded():
    p = LpProblem(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))
    assert solve_lp(p, 1e-8).status is LpStatus.UNBOUNDED


def test_dimension_mismatch_contract_violation():
    with pytest.raises(ValueError):
        LpProblem(np.zeros(3), np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        LpProblem(np.zeros(2), np.ones((2, 2)), np.zeros(3))


def test_iteration_cap_raises_named_error():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(8, 20))
    t0 = np.abs(rng.normal(size=20))
    p = LpProblem(rng.normal(size=20), A, A @ t0)
    with pytest.raises(NoConvergenceError) as exc:
        solve_lp(p, 1e-8, max_iters=1)
    assert exc.value.cap == 1
    assert "1" in str(exc.value)


def test_bad_feas_tol():
    p = LpProblem(np.zeros(1), np.ones((1, 1)), np.ones(1))
    with pytest.raises(ValueError):
        solve_lp(p, 0.0)


def test_classic_cycling_instance_terminates():
    # Beale's example: Dantzig with naive tie-breaking cycles forever;
    # the stall-triggered Bland rule must terminate at value -1/20
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.50, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.00, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    s = solve_lp(LpProblem(c, A, b), 1e-8)
    assert s.status is LpStatus.OPTIMAL
    assert s.value == pytest.approx(-0.05, abs=1e-10)


def test_optimal_resubstitution_residuals():
    rng = np.random.default_rng(7)
    for _ in range(60):
        k = int(rng.integers(1, 8))
        m = int(rng.integers(k, 25))
        A = rng.normal(size=(k, m))
        t0 = np.abs(rng.normal(size=m))
        b = A @ t0
        c = rng.normal(size=m)
        s = solve_lp(LpProblem(c, A, b), 1e-8)
        if s.status is LpStatus.UNBOUNDED:
            continue
        assert s.status is LpStatus.OPTIMAL
        assert np.abs(A @ s.solution - b).max() <= 1e-8
        assert s.solution.min() >= -1e-8
        assert abs(c @ s.solution - s.value) <= 1e-10 * (1 + abs(s.value))


def test_weak_duality_against_known_feasible_points():
    rng = np.random.default_rng(11)
    for _ in range(40):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k + 1, 20))
        A = rng.normal(size=(k, m))
        t0 = np.abs(rng.normal(size=m))
        b = A @ t0
        c = np.abs(rng.normal(size=m))  # bounded below on the nonneg orthant
        s = solve_lp(LpProblem(c, A, b), 1e-8)
        assert s.status is LpStatus.OPTIMAL
        assert s.value <= c @ t0 + 1e-8


def test_infeasible_farkas_certificate():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(1, 4))
        X = rng.normal(size=(int(rng.integers(2, 8)), n))
        target = X.max(axis=0) + np.abs(rng.normal(size=n)) + 0.5
        N = X.shape[0]
        A = np.vstack([X.T, np.ones((1, N))])
        b = np.concatenate([target, [1.0]])
        s = solve_lp(LpProblem(np.zeros(N), A, b), 1e-8)
        if s.status is not LpStatus.INFEASIBLE:
            continue
        y = s.certificate
        assert y is not None
        # Farkas: y.A <= 0 (within tolerance) while y.b > 0
        assert (y @ A).max() <= 1e-6
        assert y @ b > 1e-9
        checked += 1
    assert checked > 20


def test_hull_membership_midpoint():
    w = hull_membership(np.array([[-1.0], [1.0]]), [0.0])
    assert np.allclose(w, [0.5, 0.5])


def test_hull_membership_segment_misses_origin():
    assert hull_membership(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0]) is None


def test_hull_membership_simplex_barycentric():
    # oracle: solve the 3x3 barycentric system for the origin directly
    V = regular_simplex(2, 1.0).vertices
    M = np.vstack([V.T, np.ones(3)])
    expected = np.linalg.solve(M, np.array([0.0, 0.0, 1.0]))
    w = hull_membership(V, np.zeros(2))
    assert np.allclose(w, expected, atol=1e-9)
    assert np.allclose(expected, 1.0 / 3.0)


def test_hull_membership_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(n + 1, 15))
        X = rng.normal(size=(N, n))
        w_true = rng.dirichlet(np.ones(N))
        target = w_true @ X
        w = hull_membership(X, target)
        assert w is not None
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w.min() >= 0.0
        assert np.abs(w @ X - target).max() <= 1e-7


def test_hull_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        hull_membership(np.array([[1.0, 0.0]]), [0.0])


@pytest.mark.parametrize("spread", [1e-6, 1e-8])
def test_hull_membership_relative_to_spread(spread):
    # a target outside the triangle by 1e-3 of its spread is outside at any
    # scale: an absolute feasibility tolerance took it for inside at 1e-6
    V = spread * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]) + 3.0
    inside = V.mean(axis=0)
    outside = spread * (np.array([0.5, 0.5]) + 1e-3 / np.sqrt(2.0)) + 3.0
    w = hull_membership(V, inside)
    assert w is not None and np.allclose(w, 1.0 / 3.0)
    assert hull_membership(V, outside) is None


# the support of the smallest ball around 20 points in R^14: 6 points that
# span 5 dimensions, and the ball's center, on which their weights (the
# smallest 9.9e-6) reproduce it to 1.3e-16 R; the LP's 9 rows that are
# dependent up to rounding made phase 1 report the center outside the hull
_SPAN5_SUPPORT = np.array([
    [0.002869428984922706, -0.0022823959591278253, 0.000822594782221131,
     0.004074387605214724, -0.002408312657280476, 0.005707941250875592,
     0.0014002197958689067, 0.004683806416323932, -0.0008743933831283357,
     -0.001207381171752786, 0.0024539942351111677, 0.0017510856532680918,
     0.00339650793466717, -0.0028549375747388694],
    [0.003328975837575854, 0.004888958048013592, 0.002596213160586558,
     -0.0028370511481625726, 0.002307692988324561, 0.003991168745415052,
     -0.0001688221818767488, -0.007015137531197979, 0.0007690378552069888,
     0.001255338163559827, -0.003059758000745205, 0.0034020259154203814,
     0.0024377816371270455, -0.0032666022416378837],
    [-0.004115304593142355, 0.0012918779750634712, -0.006709278416337838,
     0.00451116390649986, -3.135167389700655e-05, 0.001301155407418264,
     -0.0016648742193865473, -0.0036398453435140254, 0.00074149894862785,
     -0.0026878780446395467, -0.002809658863043296, 0.00029656388051080285,
     0.0032852410131454235, -0.003232408664189279],
    [0.0019591725522332126, 0.0022386591242593568, -0.002850019548986893,
     -0.0022366105567925842, 0.004020957996544894, 0.0005543791012314614,
     -0.003481070802990871, 0.0014893401380504656, 0.00013917065734858625,
     0.004026610832738697, 0.005725579760110122, -0.0032785338453322765,
     -0.009976929155527614, 0.002329229875613237],
    [-0.0007471778753824765, 0.0038494657605951943, 0.0037981973036949057,
     0.0047578376907040365, -0.0017484884847362991, -0.004749385838294984,
     -0.0013104528834446683, -0.0003948789012611087, 0.0020355344204290304,
     -0.0010083427027893777, -0.0008244992968684528, 0.006974221368182043,
     -0.004682099937781459, 0.004359840640972834],
    [-0.001813289985875599, 0.002364021836910979, -0.002501636771739868,
     -0.001552993337099906, -0.0016586159199505346, -0.005082770492663258,
     0.00014760766771360068, 0.0030755033844798163, 0.0028771912184311077,
     -0.005425468581961468, -0.0016278144594252808, -0.004592358041008993,
     0.006497606900666142, -0.0016511732937942725],
])
_SPAN5_CENTER = np.array(
    [0.0009019188883547162, 0.002498838960356463, -0.0004136173007572932,
     -0.00045415924650219337, 0.0006742245017111701, -0.0005594606063320254,
     -0.001089937185321261, 0.00045831051031999153, 0.0011476560409860405,
     -0.00026983077396036453, 0.0008997552514323901, -0.00038404521334906624,
     -0.0012002929657549703, 2.792488953878457e-05])


def test_hull_membership_rank_deficient_points():
    X, c = _SPAN5_SUPPORT, _SPAN5_CENTER
    assert np.linalg.matrix_rank(X[1:] - X[0]) == 5
    spread = np.linalg.norm(X - c, axis=1).max()
    w = hull_membership(X, c)
    assert w is not None
    assert np.linalg.norm(w @ X - c) <= 1e-7 * spread
    # off the points' affine hull by 1e-3 of their spread, it is outside
    normal = np.linalg.svd(X - X.mean(axis=0))[2][-1]
    assert hull_membership(X, c + 1e-3 * spread * normal) is None


def _slack_tableau(A, b, c):
    """Tableau of min c.x over A x <= b, x >= 0 (b >= 0) on its slack basis."""
    k, m = A.shape
    T = np.zeros((k + 1, m + k + 1))
    T[:k, :m] = A
    T[:k, m:m + k] = np.eye(k)
    T[:k, -1] = b
    T[k, :m] = c
    return T, np.arange(m, m + k, dtype=np.int64)


# Beale's example, which cycles under the most-negative-cost rule; its
# optimum is -5/4 at x = (1, 0, 1, 0)
BEALE = (np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]),
         np.array([0.0, 0.0, 1.0]), np.array([-0.75, 20.0, -0.5, 6.0]))


def test_bland_rule_reaches_the_default_optimum():
    # stall_threshold=0 runs Bland's rule from the first pivot
    rng = np.random.default_rng(29)
    lps = [BEALE] + [(rng.uniform(0.1, 2.0, size=(k, m)), rng.uniform(0.5, 2.0, size=k),
                      rng.normal(size=m))
                     for k, m in rng.integers(2, 8, size=(20, 2))]
    optima = []
    for A, b, c in lps:
        values = []
        for stall in (0, 10 * sum(A.shape)):
            T, basis = _slack_tableau(A, b, c)
            status, _ = py_iterate(T, basis, PIVOT_TOL, 1000, stall)
            assert status == OPTIMAL
            values.append(-T[-1, -1])
        assert values[0] == pytest.approx(values[1], abs=1e-9)
        optima.append(values[0])
    assert optima[0] == pytest.approx(-1.25, abs=1e-12)
    # without the switch to Bland's rule, the most-negative-cost rule cycles
    T, basis = _slack_tableau(*BEALE)
    assert py_iterate(T, basis, PIVOT_TOL, 1000, 10 ** 9)[0] == ITERATION_LIMIT


def _random_bounded_lp(rng):
    """A feasible program, bounded below on the orthant (c >= 0), with
    full row rank, so phase 1 drops no row."""
    k = int(rng.integers(1, 8))
    m = int(rng.integers(k + 1, 25))
    A = rng.normal(size=(k, m))
    return A, A @ np.abs(rng.normal(size=m)), np.abs(rng.normal(size=m))


def _final_basis(sol):
    _, _, basis, keep = sol._basis
    assert keep.all()
    return basis


def test_warm_start_at_the_optimal_basis_takes_no_pivots():
    rng = np.random.default_rng(41)
    for _ in range(60):
        A, b, c = _random_bounded_lp(rng)
        cold = solve_lp(LpProblem(c, A, b))
        basis = _final_basis(cold).copy()
        warm = solve_lp(LpProblem(c, A, b), basis=basis)
        assert warm.status is LpStatus.OPTIMAL
        assert warm.iterations == 0
        assert np.array_equal(basis, _final_basis(cold))  # the caller's array is not pivoted
        assert warm.value == pytest.approx(cold.value, rel=1e-12, abs=1e-12)
        assert np.allclose(warm.solution, cold.solution, rtol=1e-12, atol=1e-12)
        assert np.allclose(warm.duals, cold.duals, rtol=1e-9, atol=1e-9)


def test_warm_start_from_another_feasible_basis():
    # the optimal basis for one objective is a feasible start for another
    rng = np.random.default_rng(43)
    pivots = []
    for _ in range(60):
        A, b, c = _random_bounded_lp(rng)
        cold = solve_lp(LpProblem(c, A, b))
        start = _final_basis(solve_lp(LpProblem(np.abs(rng.normal(size=c.size)), A, b)))
        warm = solve_lp(LpProblem(c, A, b), basis=start)
        assert warm.status is LpStatus.OPTIMAL
        assert warm.value == pytest.approx(cold.value, rel=1e-9, abs=1e-9)
        assert np.abs(A @ warm.solution - b).max() <= 1e-9 and warm.solution.min() >= 0.0
        y = warm.duals
        assert (A.T @ y <= c + 1e-9).all()
        assert abs(b @ y - warm.value) <= 1e-9
        pivots.append((warm.iterations, cold.iterations))
    assert sum(w for w, _ in pivots) < sum(c for _, c in pivots)


def test_warm_start_reports_unbounded():
    # min -t0 over t0 - t1 = 1: the basis {t0} is feasible and the ray t1 unbounded
    p = LpProblem(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))
    assert solve_lp(p, basis=[0]).status is LpStatus.UNBOUNDED


def test_warm_start_zeroes_values_within_feas_tol():
    # basic values -1e-10 and 1 + 1e-10: inside feas_tol of feasible
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    p = LpProblem(np.array([1.0, 1.0, 1.0]), A, np.array([-1e-10, 1.0]))
    s = solve_lp(p, basis=[0, 1])
    assert s.status is LpStatus.OPTIMAL
    assert s.solution.min() >= 0.0


@pytest.mark.parametrize("basis, match", [
    ([0], "must list 2 column indices"),
    ([0, 1, 2], "must list 2 column indices"),
    ([[0, 1]], "must list 2 column indices"),
    ([0.0, 1.0], "integer"),
    ([1, 1], "repeated"),
    ([0, 4], r"lie in \[0, 4\)"),
    ([-1, 0], r"lie in \[0, 4\)"),
    ([0, 3], "singular"),  # column 3 is twice column 0
    ([2, 1], "infeasible"),  # t2 = -1
])
def test_invalid_warm_start_basis_raises(basis, match):
    A = np.array([[1.0, 0.0, -1.0, 2.0], [0.0, 1.0, 0.0, 0.0]])
    p = LpProblem(np.ones(4), A, np.array([1.0, 1.0]))
    assert solve_lp(p, basis=[0, 1]).status is LpStatus.OPTIMAL
    with pytest.raises(ValueError, match=match):
        solve_lp(p, basis=basis)
