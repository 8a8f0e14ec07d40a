"""The compiled pivot kernel: parity with the numpy kernel, and its checks
on the arrays it is given."""

import numpy as np
import pytest

from geomoment import LpProblem, LpStatus, solve_lp
from geomoment import _kernel
from geomoment._simplex_py import simplex_iterate as py_iterate

compiled_missing = "compiled" not in _kernel.available_kernels()


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


def _beale_tableau():
    """Beale's LP, which cycles under the most-negative reduced cost rule:
    min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 from the slack basis x1, x2, x3."""
    T = np.array([[1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0, 0.0],
                  [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                  [0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0, 0.0]])
    return T, np.arange(3, dtype=np.int64)


def _assert_same_pivots(T, basis, max_iters, stall_threshold):
    """Run both kernels on copies of one tableau; return their common result."""
    from geomoment._simplex_core import simplex_iterate as compiled_iterate

    T2, basis2 = T.copy(), basis.copy()
    r1 = py_iterate(T, basis, 1e-9, max_iters, stall_threshold)
    r2 = compiled_iterate(T2, basis2, 1e-9, max_iters, stall_threshold)
    assert r1 == r2
    assert np.array_equal(basis, basis2)
    assert np.array_equal(T, T2)
    return r1


@pytest.mark.skipif(compiled_missing, reason="compiled kernel not built")
def test_kernels_take_identical_pivot_sequences():
    rng = np.random.default_rng(123)
    for _ in range(25):
        k = int(rng.integers(1, 10))
        m = int(rng.integers(k, 30))
        T, basis = _random_tableau(rng, k, m)
        _assert_same_pivots(T, basis, 500, 10 * (k + m))


@pytest.mark.skipif(compiled_missing, reason="compiled kernel not built")
@pytest.mark.parametrize("stall_threshold", [0, 1, 3, 1000])
def test_kernels_agree_on_beales_cycling_lp(stall_threshold):
    # Bland's rule from a stall of 0, 1 or 3 pivots ends at the optimum -1/20;
    # without it the pivots cycle until the iteration limit
    T, basis = _beale_tableau()
    status, iters = _assert_same_pivots(T, basis, 50, stall_threshold)
    if stall_threshold < 1000:
        assert status == _kernel.OPTIMAL
        assert T[-1, -1] == pytest.approx(0.05)
    else:
        assert (status, iters) == (_kernel.ITERATION_LIMIT, 50)


@pytest.mark.skipif(compiled_missing, reason="compiled kernel not built")
def test_kernels_agree_on_an_unbounded_lp():
    # min -x1 s.t. x1 - x2 + s = 1: after x1 enters, x2 rises without bound
    T = np.array([[1.0, -1.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0]])
    basis = np.array([2], dtype=np.int64)
    assert _assert_same_pivots(T, basis, 50, 10) == (_kernel.UNBOUNDED, 1)


def _bad_buffers():
    T, basis = _beale_tableau()
    read_only = T.copy()
    read_only.setflags(write=False)
    return {
        "non-contiguous T": (np.asfortranarray(T), basis),
        "read-only T": (read_only, basis),
        "float32 T": (T.astype(np.float32), basis),
        "1-D T": (T.ravel(), basis),
        "list T": (T.tolist(), basis),
        "int32 basis": (T, basis.astype(np.int32)),
        "float64 basis": (T, basis.astype(np.float64)),
        "short basis": (T, basis[:2].copy()),
        "long basis": (T, np.arange(4, dtype=np.int64)),
        "one-column T": (np.zeros((4, 1)), basis),
    }


@pytest.mark.skipif(compiled_missing, reason="compiled kernel not built")
@pytest.mark.parametrize("case", sorted(_bad_buffers()))
def test_compiled_kernel_rejects_bad_buffers(case):
    from geomoment._simplex_core import simplex_iterate as compiled_iterate

    T, basis = _bad_buffers()[case]
    before = (np.array(T), np.array(basis))
    with pytest.raises((ValueError, TypeError)):
        compiled_iterate(T, basis, 1e-9, 50, 10)
    assert np.array_equal(np.array(T), before[0])
    assert np.array_equal(np.array(basis), before[1])


@pytest.mark.skipif(compiled_missing, reason="compiled kernel not built")
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
    for name in ("python", "compiled"):
        _kernel.set_kernel(name)
        try:
            results[name] = ([solve_lp(p, 1e-8) for p in problems]
                             + [solve_lp(p, 1e-8, basis=basis) for p, basis in starts])
        finally:
            _kernel.set_kernel("compiled")
    for sp, sc in zip(results["python"], results["compiled"]):
        assert sp.status is sc.status
        assert sp.iterations == sc.iterations
        if sp.status is LpStatus.OPTIMAL:
            assert np.array_equal(sp.solution, sc.solution)
            assert sp.value == sc.value


def test_set_kernel_rejects_unknown():
    with pytest.raises(ValueError):
        _kernel.set_kernel("fortran")
