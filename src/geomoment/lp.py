"""Dense two-phase simplex for small standard-form linear programs.

Everything in this package that needs optimization reduces to programs of
the form ``min c.t`` subject to ``A t = b, t >= 0`` with at most a few
thousand variables, so a dense tableau with Bland's anti-cycling rule is
all the machinery required.  The pivot loop runs in a compiled kernel with
a pure-python fallback (see :mod:`geomoment._kernel`).

One solve gives both sides of the program: an optimal :class:`LpSolution`
carries the primal vertex ``t`` and, as ``duals``, the dual vector ``y`` of
``max b.y`` subject to ``A^T y <= c``, read off the final basis B by
solving ``B^T y = c_B`` on the original rows (on first use, so callers
that need only ``t`` pay nothing for it).  Rows that phase 1 drops as
redundant get dual 0, so ``A^T y <= c`` and ``b.y = c.t`` hold up to
rounding.

A caller that already knows a feasible basis (k column indices whose
basic solution ``B^-1 b`` is nonnegative) passes it as ``basis``: the
phase-2 tableau ``B^-1 [A | b]`` is then built with one dense solve, and
phase 1, with its k artificial columns, is skipped.  The Kelley master of
:mod:`geomoment.genvar` reads such a basis off its own structure.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import _kernel
from ._kernel import ITERATION_LIMIT, UNBOUNDED
from ._simplex_py import pivot as _pivot
from .errors import NoConvergenceError
from .geometry import _frame

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """Standard form: minimize objective . t over A t = rhs, t >= 0."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.objective, dtype=float)
        A = np.ascontiguousarray(self.constraint_matrix, dtype=float)
        b = np.ascontiguousarray(self.rhs, dtype=float)
        if c.ndim != 1 or b.ndim != 1 or A.ndim != 2:
            raise ValueError("objective and rhs must be vectors, constraint_matrix a matrix")
        if A.shape != (b.size, c.size):
            raise ValueError(
                f"inconsistent dimensions: constraint_matrix is {A.shape}, "
                f"expected ({b.size}, {c.size})"
            )
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", A)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LpSolution:
    """Certified outcome of :func:`solve_lp`.

    ``certificate`` carries the phase-1 dual vector (a Farkas certificate
    of infeasibility) when status is INFEASIBLE.  ``duals`` is the optimal
    dual vector y, one entry per constraint row (0 on a row dropped as
    redundant), when status is OPTIMAL and None otherwise:
    ``A^T y <= c`` and ``b.y = value``.
    """

    status: LpStatus
    value: float | None
    solution: np.ndarray | None
    iterations: int
    certificate: np.ndarray | None = None
    # (A, c, final basis, kept rows) of an optimal solve
    _basis: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def duals(self):
        """Solved from ``B^T y = c_B`` on first use: one dense solve of the
        basis size, which most callers never need."""
        if self._basis is None:
            return None
        A, c, basis, keep = self._basis
        y = np.zeros(keep.size)
        y[keep] = np.linalg.solve(A[:, basis][keep].T, c[basis])
        return y


def _refresh_objective(T, basis, cost_full):
    """Recompute the reduced-cost row exactly from the current basis.

    The maintained row drifts under long degenerate pivot sequences;
    verdicts are only accepted once they are stable under this refresh.
    """
    k = T.shape[0] - 1
    cb = cost_full[basis]
    T[k, :-1] = cost_full - cb @ T[:k, :-1]
    T[k, -1] = -(cb @ T[:k, -1])


def _run_phase(T, basis, cost_full, max_iters, stall):
    total = 0
    for _ in range(4):
        status, it = _kernel.simplex_iterate(
            T, basis, PIVOT_TOL, max(max_iters - total, 1), stall
        )
        total += it
        if status == ITERATION_LIMIT:
            return status, total
        row = T[-1, :].copy()
        _refresh_objective(T, basis, cost_full)
        drift = np.max(np.abs(row - T[-1, :]))
        if drift <= 0.5 * PIVOT_TOL * (1.0 + np.max(np.abs(row))):
            return status, total
    return status, total


def _basis_tableau(A, b, basis, feas_tol):
    """Phase-2 tableau ``B^-1 [A | b]`` (reduced-cost row left to the
    caller) and the int64 basis, for a given feasible basis."""
    k, m = A.shape
    basis = np.asarray(basis)
    if basis.shape != (k,):
        raise ValueError(f"basis must list {k} column indices, got shape {basis.shape}")
    if k and basis.dtype.kind not in "iu":
        raise ValueError(f"basis must hold integer column indices, got {basis.dtype}")
    cols = basis.tolist()
    if k and (min(cols) < 0 or max(cols) >= m):
        raise ValueError(f"basis indices must lie in [0, {m})")
    if len(set(cols)) != k:
        raise ValueError("basis holds a repeated column index")
    basis = basis.astype(np.int64)  # a copy: the pivots update it in place
    T = np.zeros((k + 1, m + 1))
    T[:k, :m] = A
    T[:k, m] = b
    try:
        T[:k] = np.linalg.solve(A[:, basis], T[:k])
    except np.linalg.LinAlgError:
        raise ValueError("basis matrix is singular") from None
    if not np.isfinite(T).all():
        raise ValueError("basis matrix is singular")
    T[:k, basis] = np.eye(k)  # basic columns exactly unit, as after a pivot
    x = T[:k, m]
    if k and x.min() < -feas_tol:
        raise ValueError(f"basis is infeasible: basic value {x.min():.3g} < -feas_tol")
    np.maximum(x, 0.0, out=x)
    return T, basis


def solve_lp(problem, feas_tol=FEAS_TOL, max_iters=None, basis=None):
    """Two-phase dense simplex on a standard-form problem.

    Phase-1 optimum above ``feas_tol`` yields INFEASIBLE with a Farkas
    certificate; an unbounded ray in phase 2 yields UNBOUNDED; an optimum
    comes with its dual vector (``B^T y = c_B`` on the final basis).  Bland's
    rule engages after 10*(k+m) pivots without improvement; exceeding the
    iteration cap (default 50*(k+m)) raises NoConvergenceError.

    ``basis``, k column indices of a feasible basis, skips phase 1: phase 2
    starts from it, ``iterations`` counts its pivots only and no row is
    dropped.  A basis of the wrong length, with a repeated or out-of-range
    index, with a singular matrix B or with an entry of ``B^-1 b`` below
    ``-feas_tol`` raises ValueError (entries in [-feas_tol, 0) are set to 0).
    """
    if feas_tol <= 0:
        raise ValueError("feas_tol must be positive")
    c = problem.objective
    A = problem.constraint_matrix
    b = problem.rhs
    k, m = A.shape
    if max_iters is None:
        max_iters = 50 * (k + m)
    stall = 10 * (k + m)
    keep = np.ones(k, dtype=bool)
    it1 = 0

    if basis is not None:
        T2, basis = _basis_tableau(A, b, basis, feas_tol)
    else:
        # phase 1: nonnegative rhs, artificial basis
        flip = b < 0
        b1 = np.where(flip, -b, b)
        T = np.zeros((k + 1, m + k + 1))
        T[:k, :m] = np.where(flip[:, None], -A, A)  # no sign-flipped copy of A is kept
        T[:k, m:m + k] = np.eye(k)
        T[:k, -1] = b1
        T[k, :m] = -T[:k, :m].sum(axis=0)
        T[k, -1] = -b1.sum()
        basis = np.arange(m, m + k, dtype=np.int64)
        cost1 = np.concatenate([np.zeros(m), np.ones(k)])

        status, it1 = _run_phase(T, basis, cost1, max_iters, stall)
        if status == ITERATION_LIMIT:
            raise NoConvergenceError(
                f"simplex phase 1 exceeded the iteration cap of {max_iters}", cap=max_iters
            )
        if status == UNBOUNDED:  # sum of artificials is bounded below by 0
            raise NoConvergenceError("phase 1 reported unbounded; tableau is corrupt")
        phase1 = -T[k, -1]
        if phase1 > feas_tol:
            y = 1.0 - T[k, m:m + k]
            y = np.where(flip, -y, y)
            return LpSolution(LpStatus.INFEASIBLE, None, None, it1, certificate=y)

        # drive leftover artificials out of the basis; drop redundant rows
        for i in range(k):
            if basis[i] >= m:
                row = T[i, :m]
                cand = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
                if cand.size:
                    _pivot(T, i, int(cand[0]))
                    basis[i] = int(cand[0])
                else:
                    keep[i] = False
        if not keep.all():
            T = np.vstack([T[:k][keep], T[k:]])
            basis = basis[keep]
            k = basis.size

        T2 = np.ascontiguousarray(np.concatenate([T[:, :m], T[:, -1:]], axis=1))
        del T  # a wide program (a mesh of 1e4 points) holds one tableau less in phase 2
    _refresh_objective(T2, basis, c)

    status, it2 = _run_phase(T2, basis, c, max(max_iters - it1, 1), stall)
    iters = it1 + it2
    if status == ITERATION_LIMIT:
        raise NoConvergenceError(
            f"simplex phase 2 exceeded the iteration cap of {max_iters}", cap=max_iters
        )
    if status == UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, None, None, iters)

    t = np.zeros(m)
    t[basis] = T2[:k, m]
    return LpSolution(LpStatus.OPTIMAL, float(c @ t), t, iters, _basis=(A, c, basis, keep))


def hull_membership(points, target):
    """Convex-combination weights expressing ``target`` over ``points``,
    the ones whose smallest weight is largest.

    Returns weights w >= 0 with sum 1 and ``w @ points = target``, or None
    when target is outside the convex hull of ``points``, an (N, n)
    array-like (phase-1 infeasibility).  The program writes w = u + m 1
    with u >= 0 and maximizes m, so ``w.min()`` says how deep inside the
    hull target lies: 0 on its boundary.  It is posed on the offsets
    ``target - x_i`` divided by the largest of their norms, so its
    feasibility tolerance is relative to the points' spread around target,
    and in an orthonormal basis of their span: one row per direction whose
    singular value exceeds FEAS_TOL times the largest, so that points
    spanning fewer dimensions than they have coordinates pose no rows that
    are dependent up to rounding, which phase 1 could not clear.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    tgt = np.atleast_1d(np.asarray(target, dtype=float))
    if X.shape[1] != tgt.size:
        raise ValueError(f"target has dimension {tgt.size}, points have {X.shape[1]}")
    N = X.shape[0]
    D = -_frame(X, tgt)[0]  # the norms below cannot overflow, and the quotient is the same
    D = D / (np.linalg.norm(D, axis=1).max() or 1.0)  # 1 when every offset is 0
    U, s, _ = np.linalg.svd(D, full_matrices=False)
    span = s > FEAS_TOL * s[0]  # none when every offset is 0
    M = (U[:, span] * s[span]).T
    A = np.vstack([np.hstack([M, M.sum(axis=1, keepdims=True)]), np.append(np.ones(N), N)])
    b = np.concatenate([np.zeros(int(span.sum())), [1.0]])
    c = np.zeros(N + 1)
    c[N] = -1.0
    sol = solve_lp(LpProblem(c, A, b))
    if sol.status is not LpStatus.OPTIMAL:
        return None
    w = np.clip(sol.solution[:N] + sol.solution[N], 0.0, None)
    return w / w.sum()
