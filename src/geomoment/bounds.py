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
from .geometry import (Ball, Shape, _frame, _rounding, _unframe, as_cloud, min_enclosing_ball,
                       shape_sample)
from .lp import LpProblem, LpStatus, hull_membership, solve_lp

INTERIOR_MARGIN = 1e-6
ELLIPSE_RESOLUTION = 256


class AtomicMeasure:
    """Finitely supported probability measure: atoms plus weights."""

    def __init__(self, atoms, weights):
        atoms = as_cloud(atoms)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if w.size != len(atoms):
            raise ValueError(f"{w.size} weights for {len(atoms)} atoms")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
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
    """Centered second moment sum w_i |x_i - mean|^2, in the mean's frame."""
    d, s = _frame(measure.atoms.points, mean(measure))
    return _unframe(measure.weights @ (d * d).sum(axis=1), s, 2)


def bd_1d(k_lo, k_hi, xbar):
    """One-dimensional mean-constrained variance bound (k_hi - xbar)(xbar - k_lo)."""
    if not k_lo <= xbar <= k_hi:
        raise DomainError(f"mean {xbar} outside [{k_lo}, {k_hi}]")
    (lo, hi, x), s = _frame(np.array([k_lo, k_hi, xbar], dtype=float), 0.0)
    return _unframe((hi - x) * (x - lo), s, 2)


def popoviciu(k_lo, k_hi):
    """Range-only variance bound (k_hi - k_lo)^2 / 4; ValueError if it is
    no finite float."""
    if k_lo > k_hi:
        raise ValueError("k_lo must not exceed k_hi")
    (lo, hi), s = _frame(np.array([k_lo, k_hi], dtype=float), 0.0)
    return _unframe(0.25 * (hi - lo) ** 2, s, 2)


def in_hull_interior(points, target):
    """Quantitative surrogate for interior membership: the max-min-weight
    representation (:func:`lp.hull_membership`) must keep every weight at
    least INTERIOR_MARGIN."""
    w = hull_membership(points, target)
    return w is not None and float(w.min()) >= INTERIOR_MARGIN


def bhatia_davis_bound(shape_or_cloud, xbar, resolution=ELLIPSE_RESOLUTION, seed=0):
    """Sharp bound on the variance of any measure on the given support
    with barycenter ``xbar``: -|xbar|^2 minus the envelope value there.

    Closed forms for interval, ball, box and diamond supports; clouds (a
    PointCloud or a raw (N, n) array), and the ellipse via a boundary mesh,
    go through the envelope LP, each in a frame (:func:`geometry._frame`).
    Raises DomainError, carrying a separating certificate when one is
    available, if ``xbar`` lies outside the support's convex hull, and
    ValueError if the bound is not a finite float.
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
        y, s = _frame(np.append(xbar, p["radius"]), 0.0)
        y, r, nx = y[:-1], y[-1], float(y[:-1] @ y[:-1])
        if nx > r * r * (1 + 1e-12):
            raise DomainError(f"mean with |x|={s * math.sqrt(nx)} outside ball of radius "
                              f"{p['radius']}", certificate=y / max(math.sqrt(nx), 1e-300))
        return _unframe(r * r - nx, s, 2)
    if shape.kind == Shape.BOX:
        a = p["a"]
        if (np.abs(xbar) > a).any():
            i = int(np.argmax(np.abs(xbar) - a))
            cert = np.zeros(a.size)
            cert[i] = math.copysign(1.0, xbar[i])
            raise DomainError(f"mean coordinate {i + 1} outside [-{a[i]}, {a[i]}]",
                              certificate=cert)
        y, s = _frame(np.concatenate([a, xbar]), 0.0)
        return _unframe(float(y[:a.size] @ y[:a.size]) - float(y[a.size:] @ y[a.size:]), s, 2)
    if shape.kind == Shape.DIAMOND:
        a1, a2 = p["a1"], p["a2"]
        if abs(xbar[0]) / a1 + abs(xbar[1]) / a2 > 1:
            cert = np.array([math.copysign(1.0 / a1, xbar[0]),
                             math.copysign(1.0 / a2, xbar[1])])
            raise DomainError("mean outside the diamond", certificate=cert)
        y, s = _frame(np.append([a1, a2], xbar), 0.0)
        a1, a2, y = y[0], y[1], y[2:]
        return _unframe(a1 * a1 - (a1 * a1 - a2 * a2) / a2 * abs(float(y[1])) - float(y @ y), s, 2)
    if shape.kind == Shape.ELLIPSE:
        mesh = shape_sample(shape, resolution, seed=seed)
        return _bd_bound_cloud(mesh, xbar)
    if shape.kind == Shape.CLOUD:
        return _bd_bound_cloud(p["cloud"], xbar)
    raise ValueError(f"unknown shape kind {shape.kind!r}")


def _bd_bound_cloud(cloud, xbar):
    """The envelope bound at xbar: the largest variance about xbar, the
    envelope program at 0 on the cloud in the frame of xbar
    (:func:`geometry._frame`), so neither the scale nor the position of the
    cloud changes the answer.  A separating certificate (u, -c) of 0 from
    the offsets, u.(x_i - xbar) <= s c, maps back to u.x_i <= s c + u.xbar.
    """
    if xbar.size != cloud.dim:
        raise ValueError(f"mean has dimension {xbar.size}, cloud has {cloud.dim}")
    Y, s = _frame(cloud.points, xbar)
    sol = envelope_lp(Y, np.zeros(cloud.dim))
    if sol.status is LpStatus.INFEASIBLE:
        u, c = sol.certificate[:-1], sol.certificate[-1]
        raise DomainError("mean outside the convex hull of the atoms",
                          certificate=np.append(u, s * c - u @ xbar))
    return _unframe(-sol.value, s, 2)


def max_variance(cloud):
    """Variance maximizer over all measures on the cloud.

    The dual optimum is the squared radius R^2 of the smallest enclosing
    ball, and the maximizer is the measure that ball carries as its dual:
    weights on its support, nonnegative and summing to 1, whose barycenter
    is its center, so that their variance is R^2 (weight 1 on a single
    point).  No LP is solved.  Both are computed on the cloud recentred on
    its mean, so the center's shift back does not round the radius.
    """
    cloud = as_cloud(cloud)
    shift = cloud.points.mean(axis=0)
    ball = min_enclosing_ball(cloud.points - shift)
    w = np.zeros(len(cloud))
    w[ball.support] = ball.weights
    maximizer = AtomicMeasure(cloud, w)
    primal = variance(maximizer)
    dual = _unframe(ball.radius * ball.radius)
    center = ball.center + shift
    return DualityReport(primal, dual, abs(primal - dual), center,
                         Ball(center, ball.radius), maximizer)


def primal_lp_value(cloud):
    """Exact optimum of: maximize sum w_i |x_i|^2 over zero-mean weights,
    the envelope bound at 0 (:func:`bhatia_davis_bound`), solved at unit
    scale."""
    cloud = as_cloud(cloud)
    return _bd_bound_cloud(cloud, np.zeros(cloud.dim))


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
    ball, value = _dual_ball_for_mean(cloud, np.zeros(cloud.dim))
    if ball is None:
        raise DomainError("dual program unbounded: origin not interior to the hull")
    return ball.center, value


def _dual_ball_for_mean(cloud, m):
    """Smallest enclosing ball whose center solves the recentered dual,
    with the dual value R(q)^2 - |q - m|^2; (None, None) without an optimum.

    A linear epigraph program, min over p = 2 q of max_i (|y_i|^2 - p.y_i),
    on the offsets y_i from m in their frame (:func:`geometry._frame`), so
    its tolerances are relative to the spread about m; its columns for p
    are the offsets, with entries below 1 as in its other columns.
    """
    P, s = _frame(cloud.points, m)
    N, n = P.shape
    # variables: p+ (n), p- (n), h+, h-, surplus (N)
    A = np.zeros((N, 2 * n + 2 + N))
    A[:, :n] = P
    A[:, n:2 * n] = -P
    A[:, 2 * n] = 1.0
    A[:, 2 * n + 1] = -1.0
    A[:, 2 * n + 2:] = -np.eye(N)
    b = (P * P).sum(axis=1)
    c = np.zeros(2 * n + 2 + N)
    c[2 * n] = 1.0
    c[2 * n + 1] = -1.0
    sol = solve_lp(LpProblem(c, A, b))
    if sol.status is not LpStatus.OPTIMAL:
        return None, None
    q = 0.5 * (sol.solution[:n] - sol.solution[n:2 * n])
    r = math.sqrt(max(sol.value + float(q @ q), 0.0))
    return Ball(m + s * q, _unframe(r, s, 1)), _unframe(sol.value, s, 2)


def equality_case(measure, cloud, tol=1e-9):
    """Does the measure attain the variance bound on this cloud?

    True requires the variance to reach the bound within ``tol`` times the
    bound; with the barycenter interior to the hull this is equivalent to a
    ball enclosing the whole cloud with every positive-mass atom on its
    boundary, which the witness shows when its LP finds one.  Barycenters
    on the hull boundary return ``is_equality=None`` (indeterminate): the
    supporting-sphere criterion degenerates there and is out of scope.
    Every tolerance is relative to the bound or to the cloud's spread, plus
    the coordinates' rounding (:func:`geometry._rounding`).
    """
    cloud = as_cloud(cloud)
    P = cloud.points
    atoms, w = measure.support()
    if not all(Shape.cloud(cloud).contains(a, tol=1e-9) for a in atoms):
        raise ValueError("measure has an atom that is not a cloud point")
    rnd = _rounding(P)
    m = mean(measure)
    if not in_hull_interior(P, m):
        return EqualityCase(None, None)
    bound = bhatia_davis_bound(cloud, m)
    var = variance(measure)
    # a standard deviation off by rnd moves the variance by 2 rnd sqrt(bound)
    is_eq = var >= bound - tol * bound - 2.0 * rnd * math.sqrt(max(bound, 0.0))
    if not is_eq:
        return EqualityCase(False, None, bound=bound, variance=var)
    witness = _dual_ball_for_mean(cloud, m)[0]
    if witness is not None and not witness.contains(P, tol=1e-7 * witness.radius + rnd):
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
