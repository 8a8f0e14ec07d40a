"""Parity between the compiled pivot kernel and the numpy fallback."""

import numpy as np
import pytest

from geomoment import LpProblem, LpStatus, solve_lp
from geomoment import _kernel
from geomoment._simplex_py import simplex_iterate as py_iterate

cython_missing = "cython" not in _kernel.available_kernels()


def _random_tableau(rng, k, m):
    A = rng.normal(size=(k, m))
    b = np.abs(A @ np.abs(rng.normal(size=m)))
    T = np.zeros((k + 1, m + k + 1))
    T[:k, :m] = A
    T[:k, m:m + k] = np.eye(k)
    T[:k, -1] = b
    T[k, :m] = -A.sum(axis=0)
    T[k, -1] = -b.sum()
    basis = np.arange(m, m + k, dtype=np.int64)
    return T, basis


@pytest.mark.skipif(cython_missing, reason="compiled kernel not built")
def test_kernels_take_identical_pivot_sequences():
    from geomoment._simplex_core import simplex_iterate as cy_iterate

    rng = np.random.default_rng(123)
    for _ in range(25):
        k = int(rng.integers(1, 10))
        m = int(rng.integers(k, 30))
        T, basis = _random_tableau(rng, k, m)
        T2, basis2 = T.copy(), basis.copy()
        r1 = py_iterate(T, basis, 1e-9, 500, 10 * (k + m))
        r2 = cy_iterate(T2, basis2, 1e-9, 500, 10 * (k + m))
        assert r1 == r2
        assert np.array_equal(basis, basis2)
        assert np.array_equal(T, T2)


@pytest.mark.skipif(cython_missing, reason="compiled kernel not built")
def test_solve_lp_identical_across_kernels():
    rng = np.random.default_rng(9)
    problems = []
    for _ in range(20):
        k = int(rng.integers(1, 8))
        m = int(rng.integers(k, 20))
        A = rng.normal(size=(k, m))
        b = A @ np.abs(rng.normal(size=m))
        problems.append(LpProblem(np.abs(rng.normal(size=m)), A, b))
    # each problem again from a feasible basis, the optimal one of another
    # objective, so phase 2 also runs without a phase 1
    starts = []
    for p in problems:
        other = solve_lp(LpProblem(np.abs(rng.normal(size=p.objective.size)),
                                   p.constraint_matrix, p.rhs), 1e-8)
        _, _, basis, keep = other._basis
        if keep.all():
            starts.append((p, basis))
    assert len(starts) >= 10

    results = {}
    for name in ("python", "cython"):
        _kernel.set_kernel(name)
        try:
            results[name] = ([solve_lp(p, 1e-8) for p in problems]
                             + [solve_lp(p, 1e-8, basis=basis) for p, basis in starts])
        finally:
            _kernel.set_kernel("cython")
    for sp, sc in zip(results["python"], results["cython"]):
        assert sp.status is sc.status
        assert sp.iterations == sc.iterations
        if sp.status is LpStatus.OPTIMAL:
            assert np.array_equal(sp.solution, sc.solution)
            assert sp.value == sc.value


def test_set_kernel_rejects_unknown():
    with pytest.raises(ValueError):
        _kernel.set_kernel("fortran")
