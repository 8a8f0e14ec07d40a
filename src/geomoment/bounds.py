"""Variance bounds over compact supports: the classical one-dimensional
inequalities, their multidimensional envelope form, the variance-
maximization program with its enclosing-ball dual, and equality-case
detection.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import report
from .conjugate import envelope_lp
from .errors import DomainError, ParseError
from .geometry import Ball, Shape, as_cloud, min_enclosing_ball, shape_sample
from .lp import LpProblem, LpStatus, solve_lp

INTERIOR_MARGIN = 1e-6
ELLIPSE_RESOLUTION = 256


class AtomicMeasure:
    """Finitely supported probability measure: atoms plus weights."""

    def __init__(self, atoms, weights):
        atoms = as_cloud(atoms)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size != len(atoms):
            raise ValueError(f"{w.size} weights for {len(atoms)} atoms")
        if w.min() < -1e-12:
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        w = np.clip(w, 0.0, None)
        w.setflags(write=False)
        self._atoms = atoms
        self._weights = w

    @property
    def atoms(self):
        return self._atoms

    @property
    def weights(self):
        return self._weights

    @property
    def dim(self):
        return self._atoms.dim

    def support(self, weight_floor=1e-12):
        """Atoms carrying more than ``weight_floor`` mass."""
        idx = np.nonzero(self._weights > weight_floor)[0]
        return self._atoms.points[idx], self._weights[idx]

    def translated(self, w):
        return AtomicMeasure(self._atoms.translated(w), self._weights)

    def scaled(self, s):
        return AtomicMeasure(self._atoms.scaled(s), self._weights)

    def __repr__(self):
        return f"AtomicMeasure({len(self._atoms)} atoms in R^{self.dim})"


@dataclass(frozen=True)
class DualityReport:
    """Optimal primal/dual pair of the variance-maximization program."""

    primal_value: float
    dual_value: float
    gap: float
    dual_center: np.ndarray
    enclosing_ball: Ball
    maximizer: AtomicMeasure


@dataclass(frozen=True)
class EqualityCase:
    """Verdict of the equality-case test; ``is_equality`` is None when the
    barycenter sits on the hull boundary and the test does not apply."""

    is_equality: bool | None
    witness: Ball | None
    bound: float | None = None
    variance: float | None = None


def mean(measure):
    """Barycenter sum w_i x_i."""
    return measure.weights @ measure.atoms.points


def variance(measure):
    """Centered second moment sum w_i |x_i - mean|^2."""
    m = mean(measure)
    d = measure.atoms.points - m
    return float(measure.weights @ (d * d).sum(axis=1))


def bd_1d(k_lo, k_hi, xbar):
    """One-dimensional mean-constrained variance bound (k_hi - xbar)(xbar - k_lo)."""
    if not k_lo <= xbar <= k_hi:
        raise DomainError(f"mean {xbar} outside [{k_lo}, {k_hi}]")
    return (k_hi - xbar) * (xbar - k_lo)


def popoviciu(k_lo, k_hi):
    """Range-only variance bound (k_hi - k_lo)^2 / 4."""
    if k_lo > k_hi:
        raise ValueError("k_lo must not exceed k_hi")
    return 0.25 * (k_hi - k_lo) ** 2


def _interior_min_weight(points, target):
    """Largest m such that target = sum w_i x_i with w_i >= m, sum w = 1.

    Solved as an LP in (u, m) with w = u + m; returns -inf when the target
    is not even in the hull.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    tgt = np.atleast_1d(np.asarray(target, dtype=float))
    N, n = X.shape
    A = np.zeros((n + 1, N + 1))
    A[:n, :N] = X.T
    A[:n, N] = X.sum(axis=0)
    A[n, :N] = 1.0
    A[n, N] = N
    b = np.concatenate([tgt, [1.0]])
    c = np.zeros(N + 1)
    c[N] = -1.0
    sol = solve_lp(LpProblem(c, A, b))
    if sol.status is not LpStatus.OPTIMAL:
        return -math.inf
    return float(sol.solution[N])


def in_hull_interior(points, target):
    """Quantitative surrogate for interior membership: the max-min-weight
    representation must keep every weight at least INTERIOR_MARGIN."""
    return _interior_min_weight(points, target) >= INTERIOR_MARGIN


def bhatia_davis_bound(shape_or_cloud, xbar, resolution=ELLIPSE_RESOLUTION, seed=0):
    """Sharp bound on the variance of any measure on the given support
    with barycenter ``xbar``: -|xbar|^2 minus the envelope value there.

    Closed forms for interval, ball, box and diamond supports; clouds (a
    PointCloud or a raw (N, n) array), and the ellipse via a boundary mesh,
    go through the envelope LP.  Raises
    DomainError, carrying a separating certificate when one is available,
    if ``xbar`` lies outside the support's convex hull.
    """
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    if not np.isfinite(xbar).all():
        raise ValueError("mean must be finite")
    if not isinstance(shape_or_cloud, Shape):
        return _bd_bound_cloud(as_cloud(shape_or_cloud), xbar)
    shape = shape_or_cloud
    if xbar.size != shape.dim:
        raise ValueError(f"mean has dimension {xbar.size}, shape has {shape.dim}")
    p = shape.params
    if shape.kind == Shape.INTERVAL:
        return bd_1d(p["k_lo"], p["k_hi"], float(xbar[0]))
    if shape.kind == Shape.BALL:
        R = p["radius"]
        nx = float(xbar @ xbar)
        if nx > R * R * (1 + 1e-12) + 1e-15:
            raise DomainError(f"mean with |x|={math.sqrt(nx)} outside ball of radius {R}",
                              certificate=xbar / max(math.sqrt(nx), 1e-300))
        return R * R - nx
    if shape.kind == Shape.BOX:
        a = p["a"]
        if (np.abs(xbar) > a).any():
            i = int(np.argmax(np.abs(xbar) - a))
            cert = np.zeros(a.size)
            cert[i] = math.copysign(1.0, xbar[i])
            raise DomainError(f"mean coordinate {i + 1} outside [-{a[i]}, {a[i]}]",
                              certificate=cert)
        return float(a @ a) - float(xbar @ xbar)
    if shape.kind == Shape.DIAMOND:
        a1, a2 = p["a1"], p["a2"]
        if abs(xbar[0]) / a1 + abs(xbar[1]) / a2 > 1:
            cert = np.array([math.copysign(1.0 / a1, xbar[0]),
                             math.copysign(1.0 / a2, xbar[1])])
            raise DomainError("mean outside the diamond", certificate=cert)
        envelope = a1 * a1 - (a1 * a1 - a2 * a2) / a2 * abs(float(xbar[1]))
        return envelope - float(xbar @ xbar)
    if shape.kind == Shape.ELLIPSE:
        mesh = shape_sample(shape, resolution, seed=seed)
        return _bd_bound_cloud(mesh, xbar)
    if shape.kind == Shape.CLOUD:
        return _bd_bound_cloud(p["cloud"], xbar)
    raise ValueError(f"unknown shape kind {shape.kind!r}")


def _bd_bound_cloud(cloud, xbar):
    """The envelope bound at xbar, solved on the offsets y_i = (x_i - xbar) / s
    at 0, with s = max |x_i - xbar|: the variance about xbar is s^2 times
    theirs, and the LP's absolute tolerances see a cloud of unit size, so
    neither the scale nor the position of the cloud changes the answer.  A
    separating certificate (u, -c) of 0 from the y_i, u.y_i <= c, maps back
    to u.x_i <= s c + u.xbar.
    """
    if xbar.size != cloud.dim:
        raise ValueError(f"mean has dimension {xbar.size}, cloud has {cloud.dim}")
    Y = cloud.points - xbar
    s = float(np.linalg.norm(Y, axis=1).max())
    if s == 0.0:  # every atom at xbar
        return 0.0
    sol = envelope_lp(Y / s, np.zeros(cloud.dim))
    if sol.status is LpStatus.INFEASIBLE:
        u, y = sol.certificate[:-1], sol.certificate[-1]
        raise DomainError("mean outside the convex hull of the atoms",
                          certificate=np.append(u, s * y - u @ xbar))
    return -s * s * sol.value


def max_variance(cloud):
    """Variance maximizer over all measures on the cloud.

    The dual optimum is the squared radius R^2 of the smallest enclosing
    ball, and the maximizer is the measure that ball carries as its dual:
    weights on its support, nonnegative and summing to 1, whose barycenter
    is its center, so that their variance is R^2 (weight 1 on a single
    point).  No LP is solved.  Both are computed on the cloud recentred on
    its mean, so the center keeps its precision far from the origin.
    """
    cloud = as_cloud(cloud)
    shift = cloud.points.mean(axis=0)
    ball = min_enclosing_ball(cloud.points - shift)
    w = np.zeros(len(cloud))
    w[ball.support] = ball.weights
    maximizer = AtomicMeasure(cloud, w)
    primal = variance(maximizer)
    dual = ball.radius ** 2
    center = ball.center + shift
    return DualityReport(primal, dual, abs(primal - dual), center,
                         Ball(center, ball.radius), maximizer)


def primal_lp_value(cloud):
    """Exact optimum of: maximize sum w_i |x_i|^2 over zero-mean weights."""
    cloud = as_cloud(cloud)
    sol = envelope_lp(cloud, np.zeros(cloud.dim))
    if sol.status is LpStatus.INFEASIBLE:
        raise DomainError("origin not in the convex hull of the atoms",
                          certificate=sol.certificate)
    return -sol.value


def duality_gap(cloud):
    """Strong-duality residual: moment program vs enclosing ball.

    The zero-mean moment program over the cloud recentered on the
    enclosing-ball center must equal the squared ball radius (for the
    recentered cloud the ball center is the dual optimizer, so the dual
    value R^2 - |q'|^2 reduces to R^2).  The two sides come from
    independent code paths (simplex LP vs the enclosing-ball loop).

    Requires the origin in the interior of the hull (quantitative
    surrogate: max-min-weight representation >= INTERIOR_MARGIN).
    """
    return _duality(cloud)[0]


def _duality(cloud):
    """:func:`duality_gap` and the enclosing ball it solved."""
    cloud = as_cloud(cloud)
    if not in_hull_interior(cloud.points, np.zeros(cloud.dim)):
        raise DomainError(
            "origin is not interior to the convex hull (attainment hypothesis fails)"
        )
    ball = min_enclosing_ball(cloud)
    primal = primal_lp_value(cloud.translated(-ball.center))
    return abs(primal - ball.radius ** 2), ball


def zero_mean_dual_center(cloud):
    """Dual optimizer of the zero-mean moment program: the center q whose
    smallest enclosing sphere supports a zero-mean measure, found by
    minimizing the piecewise-affine dual objective max_i(|x_i|^2 - 2 x_i.q).

    Returns (q, dual value R(q)^2 - |q|^2).
    """
    cloud = as_cloud(cloud)
    ball = _dual_ball_for_mean(cloud, np.zeros(cloud.dim))
    if ball is None:
        raise DomainError("dual program unbounded: origin not interior to the hull")
    return ball.center, ball.radius ** 2 - float(ball.center @ ball.center)


def _dual_ball_for_mean(cloud, m):
    """Smallest enclosing ball whose center solves the recentered dual.

    Minimizes max_i (|x_i|^2 - 2 q . (x_i - m)) over q: a linear epigraph
    program whose optimizer is the dual center for barycenter m.
    """
    P = cloud.points
    N, n = P.shape
    # variables: q+ (n), q- (n), h+, h-, surplus (N)
    A = np.zeros((N, 2 * n + 2 + N))
    D = 2.0 * (P - m)
    A[:, :n] = D
    A[:, n:2 * n] = -D
    A[:, 2 * n] = 1.0
    A[:, 2 * n + 1] = -1.0
    A[:, 2 * n + 2:] = -np.eye(N)
    b = (P * P).sum(axis=1)
    c = np.zeros(2 * n + 2 + N)
    c[2 * n] = 1.0
    c[2 * n + 1] = -1.0
    sol = solve_lp(LpProblem(c, A, b))
    if sol.status is not LpStatus.OPTIMAL:
        return None
    q = sol.solution[:n] - sol.solution[n:2 * n]
    r2 = sol.value - 2.0 * float(q @ m) + float(q @ q)
    return Ball(q, math.sqrt(max(r2, 0.0)))


def equality_case(measure, cloud, tol=1e-9):
    """Does the measure attain the variance bound on this cloud?

    True requires a ball enclosing the whole cloud with every positive-mass
    atom within ``tol`` of its boundary; with the barycenter interior to
    the hull this is equivalent to attaining the bound, which is how the
    verdict is decided.  Barycenters on the hull boundary return
    ``is_equality=None`` (indeterminate): the supporting-sphere criterion
    degenerates there and is out of scope.
    """
    P = as_cloud(cloud).points
    atoms, w = measure.support()
    scale = 1.0 + float(np.abs(P).max())
    for a in atoms:
        if np.min(np.linalg.norm(P - a, axis=1)) > 1e-9 * scale:
            raise ValueError("measure has an atom that is not a cloud point")
    m = mean(measure)
    if not in_hull_interior(P, m):
        return EqualityCase(None, None)
    bound = bhatia_davis_bound(cloud, m)
    var = variance(measure)
    is_eq = var >= bound - tol * (1.0 + abs(bound))
    if not is_eq:
        return EqualityCase(False, None, bound=bound, variance=var)
    witness = _dual_ball_for_mean(cloud, m)
    if witness is not None and not witness.contains(P, tol=1e-7 * (1 + witness.radius)):
        witness = None
    return EqualityCase(True, witness, bound=bound, variance=var)


def write_measure_json(measure, path):
    with open(path, "w") as fh:
        fh.write(report.dumps({
            "atoms": measure.atoms.points,
            "weights": measure.weights,
        }))
        fh.write("\n")


def read_measure_json(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    try:
        return AtomicMeasure(np.asarray(data["atoms"], dtype=float),
                             np.asarray(data["weights"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None
