"""Convex-conjugate machinery for the squared-norm cost over a support set.

``phi`` is the function equal to -|x|^2 on the set and +infinity outside;
its conjugate and biconjugate drive all the variance bounds.  +infinity is
represented by ``math.inf`` throughout (an explicit IEEE value, checked by
``math.isinf``), never by a large finite sentinel.  For finite clouds the
biconjugate is evaluated exactly, pointwise, by a small linear program
over the atoms rather than by building the lower convex hull.
"""

import math

import numpy as np

from .errors import NoConvergenceError
from .geometry import Shape, _frame, _unframe, as_cloud
from .lp import LpProblem, LpStatus, solve_lp


def phi(shape, x):
    """-|x|^2 on the shape (closed membership), +inf off it."""
    if not isinstance(shape, Shape):
        shape = Shape.cloud(as_cloud(shape))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if shape.contains(x):
        y, s = _frame(x, 0.0)
        return -_unframe(y @ y, s, 2)
    return math.inf


def conjugate_at(cloud, y):
    """sup over atoms of y.x + |x|^2 (the conjugate of phi at y)."""
    cloud = as_cloud(cloud)
    P = cloud.points
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != cloud.dim:
        raise ValueError(f"probe has dimension {y.size}, cloud has {cloud.dim}")
    return float(np.max(P @ y + (P * P).sum(axis=1)))


def envelope_lp(cloud, x):
    """The envelope program at x: min sum t_i (-|x_i|^2) over weights
    t >= 0 with unit mass and mean x.

    Returns the :class:`LpSolution`: OPTIMAL, or INFEASIBLE with a
    separating certificate when x lies outside the convex hull of the atoms.
    """
    P = as_cloud(cloud).points
    N = P.shape[0]
    A = np.vstack([P.T, np.ones((1, N))])
    b = np.concatenate([x, [1.0]])
    sol = solve_lp(LpProblem(-(P * P).sum(axis=1), A, b))
    if sol.status is LpStatus.UNBOUNDED:
        raise NoConvergenceError("envelope program cannot be unbounded on a simplex")
    return sol


def biconjugate_at(cloud, x):
    """Convex envelope of phi over the cloud, evaluated at x.

    The value of :func:`envelope_lp` at x, solved in the atoms' frame
    about the origin (:func:`geometry._frame`); +inf when x lies outside
    the convex hull of the atoms, without a solve when a coordinate of x
    exceeds twice the atoms' largest |coordinate|.
    """
    cloud = as_cloud(cloud)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != cloud.dim:
        raise ValueError(f"point has dimension {x.size}, cloud has {cloud.dim}")
    if float(np.abs(x).max()) > 2.0 * float(np.abs(cloud.points).max()):
        return math.inf
    Y, s = _frame(cloud.points, 0.0)
    sol = envelope_lp(Y, x / s)
    if sol.status is LpStatus.INFEASIBLE:
        return math.inf
    return _unframe(sol.value, s, 2)


def translated_biconjugate_zero(cloud, w):
    """Envelope of the cloud shifted by -w, evaluated at the origin.

    Satisfies the translation identity: equals |w|^2 plus the envelope of
    the unshifted cloud at w (when w is in the hull; +inf otherwise).
    """
    cloud = as_cloud(cloud)
    w = np.atleast_1d(np.asarray(w, dtype=float))
    return biconjugate_at(cloud.translated(-w), np.zeros(cloud.dim))
