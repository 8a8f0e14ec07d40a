"""Pure-python (numpy) simplex pivot kernel.

The reference for the hand-written C kernel ``geomoment._simplex_core``,
which follows it operation for operation: same entering and leaving rules,
same elementwise tableau arithmetic, so both kernels take identical pivot
sequences on identical input (tests/test_kernel.py checks this).  It runs
wherever the C kernel is not built.
"""

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1
ITERATION_LIMIT = 2


def simplex_iterate(T, basis, pivot_tol, max_iters, stall_threshold):
    """Run simplex pivots in place on the dense tableau ``T``.

    ``T`` has shape (k+1, m+1): k constraint rows, the reduced-cost row
    last, the right-hand side in the last column (so T[k, m] is minus the
    current objective).  ``basis`` (int64, length k) is updated in place.

    Entering column: most negative reduced cost, switching to Bland's rule
    after ``stall_threshold`` consecutive pivots without objective
    improvement.  Leaving row: minimum ratio, ties broken by smallest basis
    index.

    Returns ``(status, iterations)``.
    """
    k = T.shape[0] - 1
    m = T.shape[1] - 1
    iters = 0
    stall = 0
    while iters < max_iters:
        red = T[k, :m]
        if stall >= stall_threshold:
            neg = np.nonzero(red < -pivot_tol)[0]
            if neg.size == 0:
                return OPTIMAL, iters
            j = int(neg[0])
        else:
            j = int(np.argmin(red))
            if red[j] >= -pivot_tol:
                return OPTIMAL, iters
        col = T[:k, j]
        elig = np.nonzero(col > pivot_tol)[0]
        if elig.size == 0:
            return UNBOUNDED, iters
        ratios = T[elig, m] / col[elig]
        order = np.lexsort((basis[elig], ratios))
        ip = int(elig[order[0]])
        prev = T[k, m]
        pivot(T, ip, j)
        basis[ip] = j
        iters += 1
        stall = 0 if T[k, m] > prev else stall + 1
    return ITERATION_LIMIT, iters


def pivot(T, ip, j):
    """Pivot the tableau on entry (ip, j), eliminating column j elsewhere."""
    T[ip, :] /= T[ip, j]
    f = T[:, j].copy()
    f[ip] = 0.0
    T -= f[:, None] * T[ip, None, :]
    T[:, j] = 0.0
    T[ip, j] = 1.0
