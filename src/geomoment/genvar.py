"""Generalized variances: radial convex costs, the recentered moment
functional, its minimizing center, and the minimax level it never exceeds.

The minimax (smallest sublevel set covering the cloud, after translation)
is the cost profile at the smallest enclosing ball's radius, certified from
below by the measure the ball carries as its dual (weights on its support
whose barycenter is its center, so their variance is R^2): one
deterministic enclosing-ball loop and no LP; the inner
minimization behind the generalized variance uses the closed form for the
quadratic cost, damped Newton for the first-power cost, and a
cutting-plane engine for everything else.  That engine is Kelley's: each
round solves the master LP over the cuts so far as its dual, an (n + 1)-row
program over convex combinations of the cuts, whose optimum certifies a
lower bound and whose LP duals give the next cut point.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, ParseError
from .geometry import _frame, _unframe, as_cloud, min_enclosing_ball
from .lp import LpProblem, LpStatus, solve_lp

DEFAULT_TOL_CLOSED = 1e-8
DEFAULT_TOL_ITER = 1e-6
MAX_CUTS = 120
EPS = np.finfo(float).eps


class RadialCost:
    """Convex increasing radial profile v; the cost is V(x) = v(|x|).

    Either a power t^p with finite p >= 1 or a piecewise-linear profile
    given by finite knots [(t, v(t)), ...] with nondecreasing, nonnegative
    slopes and a positive final slope (so sublevel sets stay compact).
    """

    __slots__ = ("kind", "p", "knots", "_slopes")

    def __init__(self, kind, p=None, knots=None):
        self.kind = kind
        if kind == "power":
            if p is None or not (math.isfinite(p) and p >= 1):
                raise ValueError(f"power cost requires a finite p >= 1, got {p!r}")
            self.p = float(p)
        elif kind == "pwl":
            k = np.asarray(knots, dtype=float)
            if k.ndim != 2 or k.shape[1] != 2 or k.shape[0] < 2:
                raise ValueError("pwl cost requires at least two (t, v) knots")
            if not np.isfinite(k).all():
                raise ValueError("pwl knots must be finite")
            t, v = k[:, 0], k[:, 1]
            if t[0] != 0.0:
                raise ValueError("first knot abscissa must be 0")
            if not (np.diff(t) > 0).all():
                raise ValueError("knot abscissae must be strictly increasing")
            if v[0] < 0:
                raise ValueError("v(0) must be nonnegative")
            slopes = np.diff(v) / np.diff(t)
            if (slopes < 0).any():
                raise ValueError("slopes must be nonnegative (v must be increasing)")
            if (np.diff(slopes) < -1e-15).any():
                raise ValueError("slopes must be nondecreasing (v must be convex)")
            if slopes[-1] <= 0:
                raise ValueError("final slope must be positive (coercivity)")
            self.knots = k
            self._slopes = slopes
        else:
            raise ValueError(f"unknown cost kind {kind!r}")

    @classmethod
    @functools.lru_cache(maxsize=64)
    def power(cls, p):
        """The cost t^p.  No method changes a cost, so equal powers share
        one instance."""
        return cls("power", p=p)

    @classmethod
    def piecewise_linear(cls, knots):
        return cls("pwl", knots=knots)

    @property
    def strictly_convex(self):
        return self.kind == "power" and self.p > 1

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            out = t ** self.p
        else:
            kt, kv = self.knots[:, 0], self.knots[:, 1]
            out = np.interp(t, kt, kv)
            over = t > kt[-1]
            if np.any(over):
                out = np.where(over, kv[-1] + self._slopes[-1] * (t - kt[-1]), out)
        return float(out) if out.ndim == 0 else out

    def slope(self, t):
        """Subgradient selection v'(t); right derivative at the knots."""
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            if self.p == 1:
                out = np.ones_like(t)
            else:
                out = self.p * t ** (self.p - 1.0)
        else:
            kt = self.knots[:, 0]
            idx = np.clip(np.searchsorted(kt, t, side="right") - 1, 0, len(self._slopes) - 1)
            out = self._slopes[idx]
        return float(out) if out.ndim == 0 else out

    def to_spec(self):
        if self.kind == "power":
            return {"kind": "power", "p": self.p}
        return {"kind": "pwl", "knots": self.knots.tolist()}

    @classmethod
    def from_spec(cls, spec):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ValueError("cost spec must be an object with a 'kind' field")
        if spec["kind"] == "power":
            return cls.power(spec["p"])
        if spec["kind"] == "pwl":
            return cls.piecewise_linear(spec["knots"])
        raise ValueError(f"unknown cost kind {spec['kind']!r}")

    def __repr__(self):
        if self.kind == "power":
            return f"RadialCost.power({self.p})"
        return f"RadialCost.piecewise_linear({self.knots.tolist()})"


def read_cost_json(path_or_text):
    """Parse a cost from a JSON file path or an inline JSON string."""
    text = path_or_text
    if not path_or_text.lstrip().startswith("{"):
        with open(path_or_text) as fh:
            text = fh.read()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"cost spec: {exc}") from None
    try:
        return RadialCost.from_spec(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"cost spec: {exc}") from None


@dataclass(frozen=True)
class GenVarResult:
    value: float
    center: np.ndarray
    converged: bool
    inner_gap: float
    unique: bool


@dataclass(frozen=True)
class SaddleReport:
    """Optimality verdict for a candidate maximizing measure."""

    is_maximizer: bool
    support_on_level: bool
    value_attained: bool
    level: float
    center: np.ndarray
    genvar: float


def _cut_lp(cuts_g, cuts_c, lo, hi):
    """Kelley master min_z max_j (c_j + g_j . z) over the box [lo, hi],
    solved as its LP dual in the master's own units.

    With z = lo + u y (u = hi - lo, y in [0, 1]^n) and the cuts divided by
    sigma, the mean |g_ji u_i|, cut j is b_j + a_j . y, where b_j = (c_j +
    g_j . lo) / sigma and a_j = g_j u / sigma are of order 1 in any units,
    as the simplex's absolute pivot tolerance needs.  The dual

        max sum_j lam_j b_j - sum_i mu_i   subject to   sum_j lam_j = 1,
        sum_j lam_j a_j + mu - nu = 0,   lam, mu, nu >= 0,

    has n + 1 rows and ncuts + 2n columns.  Returns (z, lower bound):
    sigma times the dual optimum, and z = lo + u y, y the LP dual vector of
    the last n rows clipped to [0, 1].  Every feasible lam gives a lower
    bound by weak duality, even if the simplex stops short of its optimum.

    The simplex starts from a crash basis, so it runs no phase 1: lam_j = 1
    on the single cut j with the largest minimum over the box,
    b_j - sum_i max(0, -a_ji), and per coordinate i the slack that balances
    a_ji, mu_i = -a_ji if a_ji < 0 and nu_i = a_ji otherwise.  Its matrix
    [[1, 0], [a_j, +-I]] has determinant +-1 and its values (1, |a_j|) are
    nonnegative, so that basis is feasible for every cut set.
    """
    G = np.asarray(cuts_g)
    ncuts, n = G.shape
    u = hi - lo
    Gu = G * u
    sigma = float(np.abs(Gu).mean()) or 1.0  # all cuts flat: any sigma will do
    A = np.zeros((n + 1, ncuts + 2 * n))
    A[0, :ncuts] = 1.0
    A[1:, :ncuts] = Gu.T / sigma
    A[1:, ncuts:ncuts + n] = np.eye(n)
    A[1:, ncuts + n:] = -np.eye(n)
    rhs = np.zeros(n + 1)
    rhs[0] = 1.0
    b = (np.asarray(cuts_c) + G @ lo) / sigma
    c = np.concatenate([-b, np.ones(n), np.zeros(n)])
    j = int(np.argmax(b + np.minimum(A[1:, :ncuts], 0.0).sum(axis=0)))
    basis = np.concatenate([[j], ncuts + np.arange(n) + n * (A[1:, j] >= 0)])
    sol = solve_lp(LpProblem(c, A, rhs), basis=basis)
    if sol.status is not LpStatus.OPTIMAL:
        raise NoConvergenceError("cut relaxation must be feasible and bounded on a box")
    return lo + u * np.clip(sol.duals[1:], 0.0, 1.0), -sol.value * sigma


def _minimize_convex(oracle, lo, hi, tol, max_iters=300, init_points=()):
    """Kelley cutting planes over a box.

    ``oracle(z) -> (f, g)`` returns the value and a subgradient.  Returns
    (best value, best point, certified gap, converged).  Each round solves
    the master min_z max_j (c_j + g_j . z) as its LP dual (:func:`_cut_lp`):
    the dual value is a lower bound on the function over the box (weak
    duality), the gap is the best value seen minus that bound, and the
    master's minimizer, read off the LP duals, is the next cut point.  A
    midpoint cut is added each round to damp zigzagging, and stale cuts are
    dropped beyond MAX_CUTS (which keeps the lower bound valid, merely
    looser).
    """
    cuts_g, cuts_c = [], []
    best_f = math.inf
    best_z = None

    def add_cut(z):
        nonlocal best_f, best_z
        f, g = oracle(z)
        cuts_g.append(g)
        cuts_c.append(f - float(g @ z))
        if f < best_f:
            best_f = f
            best_z = z
        return f

    for z in init_points:
        add_cut(np.clip(np.asarray(z, dtype=float), lo, hi))
    if best_z is None:
        add_cut(0.5 * (lo + hi))

    scale = float((hi - lo).max())
    gap = math.inf
    for _ in range(max_iters):
        z_lp, lower = _cut_lp(cuts_g, cuts_c, lo, hi)
        gap = best_f - lower
        if gap <= tol:
            return best_f, best_z, max(gap, 0.0), True
        mid = 0.5 * (z_lp + best_z)
        add_cut(z_lp)
        if np.linalg.norm(mid - z_lp) > 1e-12 * scale:
            add_cut(mid)
        if len(cuts_c) > MAX_CUTS:
            del cuts_g[:2], cuts_c[:2]
    return best_f, best_z, max(gap, 0.0), False


def chebyshev_level(cloud, cost, tol=None):
    """Smallest level lambda such that some translate of the cloud fits in
    the cost's lambda-sublevel set, with the attaining center.

    Since v is nondecreasing, min_z max_i v(|x_i - z|) = v(R) for the
    smallest enclosing ball (radius R), attained at its center z: the
    returned level v(r) is the cost that z attains: the ball's radius r is
    the largest distance from z to a point.  The ball is solved once, on
    the cloud as given, and its loop stops when the center's affine weights
    w on points of the sphere are nonnegative.  That measure, the ball's
    dual, certifies the level from below: every
    center has max_i |x_i - z|^2 >= sum w_i |x_i - z|^2 >= var(w), and
    var(w) = R^2 up to rounding; a certified bracket [v(sqrt(var(w))),
    lambda = v(r)] wider than ``tol`` plus the rounding of lambda,
    v(r + 8 eps (r + max|x_i|)) - v(r), raises NoConvergenceError, and a
    var(w) or lambda that is not a finite float ValueError.  No LP is
    solved.  The cloud may be a PointCloud or a raw (N, n) array.
    """
    if tol is None:
        tol = DEFAULT_TOL_ITER
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    cloud = as_cloud(cloud)
    P = cloud.points
    ball = min_enclosing_ball(cloud)
    z, r = ball.center, ball.radius
    S = P[ball.support]
    D, s = _frame(S, ball.weights @ S)
    # v at sqrt(var(w)), at r, and a few ulps of r and of the coordinates above r
    t = np.array([math.sqrt(_unframe(ball.weights @ (D * D).sum(axis=1), s, 2)), r,
                  r + 8.0 * EPS * (r + float(np.abs(P).max()))])
    with np.errstate(over="ignore"):  # v overflows to inf, which lambda is checked for
        lower, lam, top = cost(t).tolist()
    lam, rounding = _unframe(lam), top - lam
    if lam - lower > tol + rounding:
        raise NoConvergenceError(
            f"minimax level bracket [{lower}, {lam}] is wider than tol={tol}",
            best=(lam, z),
        )
    return lam, z


def _median_center(P, w, tol, max_iters=500):
    """Damped Newton for the first-power center: the z that minimizes
    f(z) = sum_i w_i |x_i - z|, the weighted geometric median.

    It runs on the atoms in the frame of their weighted mean, its start
    (:func:`_frame`), so their scale changes nothing.  Off the atoms f has
    gradient g = sum_i w_i u_i, u_i = (z - x_i) / d_i, and Hessian
    H = sum_i w_i (I - u_i u_i^T) / d_i (Boyd and Vandenberghe, *Convex
    Optimization*, 9.5); the Newton step -H^-1 g is backtracked on f.
    Where H gives no step that descends (it is singular when z and the
    atoms are collinear, so always for n = 1), z takes Weiszfeld's step
    -g / sum_i (w_i / d_i), which descends, doubled while f falls.  An atom
    x_j that is first nearest z is tested, as Vardi and Zhang ("The
    multivariate L1-median and associated data depth", PNAS 2000) do: x_j
    is the center when |sum_i w_i (x_j - x_i) / |x_j - x_i|| over the atoms
    off x_j is at most the mass on it.  An iterate that meets an atom that
    is not the center takes their step off it.

    Certificate: f(z) - f* <= |g| max_i d_i, since the center lies in the
    atoms' hull; at an atom the minimal subgradient's norm, that sum's norm
    less the mass on the atom, takes |g|'s place.  Returns (center, gap,
    converged) in the atoms' units, the center the last iterate if the
    rounds run out; Newton and Weiszfeld steps and the step off an atom all
    descend, so it is the best one.
    """
    m = w @ P
    Y, s = _frame(P, m)
    # z meets an atom within 1e-13 of the atoms' spread about their mean,
    # plus the rounding of a distance between coordinates of size max |x|
    spread = float(np.sqrt((Y * Y).sum(axis=1).max()))
    collision = 1e-13 * spread + 16.0 * EPS * float(np.abs(P).max()) / s

    def at(z):
        D = z - Y
        d = np.sqrt((D * D).sum(axis=1))
        return z, D, d, float(w @ d)

    z, D, d, f = at(np.zeros(Y.shape[1]))
    tested, gap = set(), math.inf
    for _ in range(max_iters):
        j = int(d.argmin())
        if j not in tested or d[j] <= collision:
            tested.add(j)
            E = Y[j] - Y
            e = np.sqrt((E * E).sum(axis=1))
            off = e > collision
            a = w[off] / e[off]
            r = float(np.linalg.norm(a @ E[off]))
            mass = float(w[~off].sum())
            if r <= mass:  # x_j is the center
                return P[j].copy(), 0.0, True
            if d[j] <= collision:
                gap = (r - mass) * float(e.max())
                if gap * s <= tol:
                    return P[j].copy(), _unframe(gap, s, 1), True
                # Vardi and Zhang's step off x_j, toward Weiszfeld's map of
                # the other atoms
                z, D, d, f = at((1.0 - mass / r) * ((a @ Y[off]) / a.sum()) + (mass / r) * Y[j])
                continue
        a = w / d
        U = D / d[:, None]
        g = w @ U
        gap = float(np.linalg.norm(g)) * float(d.max())
        if gap * s <= tol:
            return m + s * z, _unframe(gap, s, 1), True
        try:
            step = np.linalg.solve(a.sum() * np.eye(len(g)) - (U.T * a) @ U, -g)
        except np.linalg.LinAlgError:  # H singular
            step = np.full(len(g), math.inf)
        new = None
        # the center is within max d_i of z: a longer step is H's rounding
        if float(np.linalg.norm(step)) <= d.max():
            slope, t = float(g @ step), 1.0
            while slope < 0.0 and t > 1e-3 and new is None:
                trial = at(z + t * step)
                if trial[3] <= f + 1e-4 * t * slope + 4.0 * EPS * f:
                    new = trial
                t *= 0.5
        if new is None:
            # Weiszfeld's step, doubled while f falls: on a line, where H is
            # singular, it crawls away from an atom it has just passed
            step = -g / a.sum()
            new = at(z + step)
            while 2.0 * float(np.linalg.norm(step)) <= d.max():
                step = 2.0 * step
                trial = at(z + step)
                if trial[3] >= new[3]:
                    break
                new = trial
        z, D, d, f = new
    return m + s * z, _unframe(gap, s, 1), False


def generalized_variance(measure, cost, tol=None):
    """Recentered moment functional: inf over centers z of the weighted
    cost sum, with the attaining center.

    Quadratic cost: exact (center is the mean, value the variance).
    First-power cost: damped Newton with a gradient certificate
    (:func:`_median_center`).  Other costs, and a first-power center Newton
    does not certify: cutting planes with a two-sided certificate, whose
    oracle works in the atoms' units: ValueError if their bounding box's
    squared diagonal, or the cost there, is no finite float.
    """
    if tol is None:
        tol = DEFAULT_TOL_CLOSED if (cost.kind == "power" and cost.p == 2) else DEFAULT_TOL_ITER
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    P, w = measure.support()
    unique = cost.strictly_convex or P.shape[0] == 1
    lo, hi = P.min(axis=0), P.max(axis=0)
    Y, s = _frame(hi, lo)
    with np.errstate(over="ignore"):
        _unframe(cost(math.sqrt(_unframe(Y @ Y, s, 2))))

    if cost.kind == "power" and cost.p == 2:
        z = w @ P
        d = P - z
        val = float(w @ (d * d).sum(axis=1))
        return GenVarResult(val, z, True, 0.0, True)

    if P.shape[0] == 1:
        return GenVarResult(float(cost(0.0)), P[0].copy(), True, 0.0, unique)

    if cost.kind == "power" and cost.p == 1:
        z, gap, ok = _median_center(P, w, tol)
        if ok:
            d = np.linalg.norm(P - z, axis=1)
            return GenVarResult(float(w @ d), z, True, gap, unique)
        # fall through to the cutting-plane engine from the best iterate
        init = [z]
    else:
        init = [w @ P]

    def oracle(z):
        D = z - P
        d = np.sqrt((D * D).sum(axis=1))
        # unit vectors, so no slope overflows; at an atom 0 is a subgradient
        U = np.divide(D, d[:, None], out=np.zeros_like(D), where=d[:, None] > 0)
        return float(w @ cost(d)), (w * cost.slope(d)) @ U

    pad = 1e-9 * float((hi - lo).max())
    val, z, gap, ok = _minimize_convex(oracle, lo - pad, hi + pad, tol,
                                       init_points=init + [p for p in P[:8]])
    if not ok:
        raise NoConvergenceError(
            "inner minimization not certified within the cutting-plane budget",
            best=GenVarResult(val, z, False, gap, unique),
        )
    return GenVarResult(val, z, True, gap, unique)


def sup_genvar(cloud, cost, tol=None):
    """Largest generalized variance over measures on the cloud: the
    minimax level of :func:`chebyshev_level`, which is the cost of the
    smallest enclosing ball's radius."""
    lam, _ = chebyshev_level(cloud, cost, tol=tol)
    return lam


def verify_saddle(measure, cloud, cost, tol=None):
    """Check the saddle-point characterization of a maximizing measure:
    every positive-mass atom must sit on the level set of the minimax
    level (after recentering by the measure's own center), and the
    measure's generalized variance must attain that level."""
    if tol is None:
        tol = DEFAULT_TOL_ITER
    inner = min(DEFAULT_TOL_ITER, tol / 4)
    lam, _ = chebyshev_level(cloud, cost, tol=inner)
    gv = generalized_variance(measure, cost, tol=inner)
    P, _ = measure.support()
    levels = cost(np.linalg.norm(P - gv.center, axis=1))
    on_level = bool(np.abs(np.atleast_1d(levels) - lam).max() <= tol)
    value_ok = gv.value >= lam - tol
    return SaddleReport(on_level and value_ok, on_level, value_ok,
                        lam, gv.center, gv.value)
