"""Randomized cross-validation of the simplex solver against scipy."""

import numpy as np
import pytest

from geomoment import LpProblem, LpStatus, solve_lp

scipy_opt = pytest.importorskip("scipy.optimize")


def _scipy_status(res):
    if res.status == 0:
        return LpStatus.OPTIMAL
    if res.status == 2:
        return LpStatus.INFEASIBLE
    if res.status == 3:
        return LpStatus.UNBOUNDED
    raise AssertionError(f"oracle failed: {res.message}")


def _check_duals(A, b, c, sol, tol=1e-7):
    """Optimal duals certify the value: b.y = c.t and A^T y <= c."""
    y = sol.duals
    assert y.shape == b.shape
    assert abs(float(b @ y) - sol.value) <= tol
    assert (A.T @ y <= c + tol).all()


def test_against_scipy_on_random_programs():
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(200):
        k = int(rng.integers(1, 10))
        m = int(rng.integers(1, 30))
        A = rng.normal(size=(k, m))
        if rng.random() < 0.7:
            b = A @ np.abs(rng.normal(size=m))  # feasible by construction
        else:
            b = rng.normal(size=k)
        c = rng.normal(size=m)
        if rng.random() < 0.5:
            c = np.abs(c)  # bounded below on the orthant
        ours = solve_lp(LpProblem(c, A, b), 1e-8)
        ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ours.status is _scipy_status(ref)
        if ours.status is LpStatus.OPTIMAL:
            assert ours.value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            _check_duals(A, b, c, ours)
            agree += 1
        else:
            assert ours.duals is None
    assert agree >= 80  # plenty of optimal instances exercised


def test_warm_starts_against_scipy():
    # start from the optimal basis of another objective: a feasible basis,
    # from which phase 2 alone must reach scipy's verdict and value
    rng = np.random.default_rng(2025)
    warm = 0
    for _ in range(200):
        k = int(rng.integers(1, 10))
        m = int(rng.integers(k, 30))
        A = rng.normal(size=(k, m))
        b = A @ np.abs(rng.normal(size=m))
        c = rng.normal(size=m)
        if rng.random() < 0.5:
            c = np.abs(c)
        start = solve_lp(LpProblem(np.abs(rng.normal(size=m)), A, b))
        assert start.status is LpStatus.OPTIMAL
        _, _, basis, keep = start._basis
        if not keep.all():
            continue
        ours = solve_lp(LpProblem(c, A, b), 1e-8, basis=basis)
        ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ours.status is _scipy_status(ref)
        if ours.status is LpStatus.OPTIMAL:
            assert ours.value == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)
            _check_duals(A, b, c, ours)
            warm += 1
    assert warm >= 60


def test_against_scipy_on_envelope_programs():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(n + 1, 40))
        P = rng.normal(size=(N, n))
        x = rng.dirichlet(np.ones(N)) @ P
        A = np.vstack([P.T, np.ones((1, N))])
        b = np.concatenate([x, [1.0]])
        c = -(P * P).sum(axis=1)
        ours = solve_lp(LpProblem(c, A, b), 1e-8)
        ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ours.status is LpStatus.OPTIMAL and ref.status == 0
        assert ours.value == pytest.approx(ref.fun, abs=1e-8, rel=1e-8)
        _check_duals(A, b, c, ours)


def test_dual_of_redundant_row_is_zero():
    # phase 1 pivots on row 0 (ties go to the smaller basis index), which
    # zeroes the identical row 1, so row 1 is dropped as redundant
    A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0, 1.5])
    c = np.array([1.0, 2.0, 1.0])
    sol = solve_lp(LpProblem(c, A, b))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.duals[1] == 0.0
    _check_duals(A, b, c, sol)
    ref = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert sol.value == pytest.approx(ref.fun, abs=1e-9)
