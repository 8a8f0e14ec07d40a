"""The three workloads: instance generators, the calls they make into the
public API, and the independent check applied to every answer.

A workload is a fixed *round* of instance specs.  Every round draws fresh
random data for each spec from the workload seed, so each round has the same
mix of sizes and calls; a run repeats rounds until its measured time is used.
``Instance.call`` is the timed part: the API calls one CLI command makes,
plus the ``report.dumps`` serialisation the CLI applies to every result.
``Instance.check`` runs afterwards, untimed, and returns a failure message
or None.  API functions are looked up on their modules at call time so the
tracer's wrappers see the calls.
"""

import math

import numpy as np

from geomoment import bounds, genvar, geometry, isodiametric, report

# -- shared helpers -----------------------------------------------------------


def encloses(ball, P):
    """Containment with slack relative to the radius, plus the rounding of
    the coordinates themselves (clouds far from the origin carry absolute
    error of order eps * |x|)."""
    slack = 1e-9 * ball.radius + 1e-13 * float(np.abs(P).max())
    return bool(np.linalg.norm(P - ball.center, axis=1).max() <= ball.radius + slack)


def random_cloud(rng, kind, N, n):
    if kind == "normal":
        return rng.normal(size=(N, n))
    if kind == "box":
        return rng.uniform(-1.0, 1.0, (N, n))
    g = rng.normal(size=(N, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    if kind == "sphere":  # most points near the boundary: large MEB support
        return g * (1.0 - 0.01 * rng.uniform(size=(N, 1)))
    return g * rng.uniform(size=(N, 1)) ** (1.0 / n)  # uniform in the ball


def derived_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


class Instance:
    """One call of a workload: inputs, timed call, untimed check."""

    def call(self):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError

    def hit_count(self, failed):
        """(hits, tries) for ``hit_ratio``: an instance hits when it passes."""
        return (0 if failed else 1), 1


# -- search: the isodiametric multi-restart search ---------------------------


class SearchInstance(Instance):
    def __init__(self, rng, n, atoms, p, restarts):
        self.config = isodiametric.SearchConfig(
            n=n, d=1.0, atom_count=atoms, restarts=restarts,
            seed=derived_seed(rng), cost=genvar.RadialCost.power(p))
        self.hits = 0

    def call(self):
        result = isodiametric.search_max(self.config)
        payload = result.to_report(self.config)
        payload.pop("wall_clock")  # as the CLI does: timings stay off stdout
        return result, report.dumps(payload)

    def check(self, out):
        result, _ = out
        cfg = self.config
        bound = isodiametric.isodiametric_bound(cfg.n, cfg.d, cfg.cost)
        self.hits = sum(abs(v - bound) <= 1e-3 for v in result.per_restart_values)
        if result.best_value > bound + 1e-8:
            return f"value {result.best_value} above the sharp bound {bound}"
        if result.diameter_residual > 1e-9 * cfg.d:
            return f"diameter residual {result.diameter_residual}"
        quadratic = cfg.cost.p == 2
        gv = genvar.generalized_variance(result.best_measure, cfg.cost,
                                         tol=1e-8 if quadratic else 1e-6)
        slack = 1e-9 * (1 + abs(gv.value)) if quadratic else 4e-6
        if abs(gv.value - result.best_value) > slack:
            return f"value {result.best_value} != genvar of its measure {gv.value}"
        return None

    def hit_count(self, failed):
        """Restarts whose value is within 1e-3 of the sharp bound."""
        return self.hits, self.config.restarts


# (n, atoms, cost power, restarts).  search_max fails only when every
# restart exhausts its iteration budget, which about 2% of single n=3
# restarts and 1% of single n=2 restarts do, so n=3 calls make four
# restarts and n=2 calls three.  An n=3 call takes about four times as long
# as an n=2 call.  Its restarts' cost is heavy-tailed (a restart that runs
# out of budget costs about six times the mean), so the n=3 calls decide
# most of how much a run's cost depends on its seed: one call in twelve is
# an n=3 call, about 30% of the call time.  The median and the p75 fall
# inside the n=2 calls.  Nine calls in twenty-four use the first-power cost.
SEARCH_ROUND = [(3, 8, 2, 4), (2, 6, 2, 3), (2, 6, 1, 3), (2, 6, 2, 3),
                (2, 6, 2, 3), (2, 6, 1, 3), (2, 6, 2, 3), (2, 6, 1, 3),
                (2, 6, 2, 3), (2, 6, 2, 3), (2, 6, 1, 3), (2, 6, 2, 3),
                (3, 8, 1, 4), (2, 6, 2, 3), (2, 6, 1, 3), (2, 6, 2, 3),
                (2, 6, 2, 3), (2, 6, 1, 3), (2, 6, 2, 3), (2, 6, 1, 3),
                (2, 6, 2, 3), (2, 6, 2, 3), (2, 6, 1, 3), (2, 6, 2, 3)]


def search_round(rng):
    return [SearchInstance(rng, *spec) for spec in SEARCH_ROUND]


# -- minimax: minimax levels and generalized variances -----------------------


def random_cost(rng, kind):
    if kind == "p1":
        return genvar.RadialCost.power(1)
    if kind == "p3":
        return genvar.RadialCost.power(3)
    # convex increasing piecewise-linear profile: sorted positive slopes
    slopes = np.sort(rng.uniform(0.2, 3.0, 4))
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, 4))])
    v = np.concatenate([[0.0], np.cumsum(slopes * np.diff(t))])
    return genvar.RadialCost.piecewise_linear(np.column_stack([t, v]))


class ChebyshevInstance(Instance):
    def __init__(self, rng, cost_kind, n, N):
        self.cloud = geometry.PointCloud(random_cloud(rng, "normal", N, n))
        self.cost = random_cost(rng, cost_kind)

    def call(self):
        lam, z = genvar.chebyshev_level(self.cloud, self.cost)
        return (lam, z), report.dumps({"lambda": lam, "z": z})

    def check(self, out):
        (lam, z), _ = out
        # identity: min_z max_i v(|x_i - z|) = v(R_MEB), v nondecreasing
        exact = float(self.cost(geometry.min_enclosing_ball(self.cloud).radius))
        if abs(lam - exact) > genvar.DEFAULT_TOL_ITER + 1e-12 * (1 + exact):
            return f"minimax level {lam} != v(MEB radius) {exact}"
        reach = float(self.cost(np.linalg.norm(self.cloud.points - z, axis=1).max()))
        if abs(reach - lam) > 1e-12 * (1 + lam):
            return f"level {lam} is not the cost reach {reach} at its center"
        return None


class GenvarInstance(Instance):
    def __init__(self, rng, cost_kind, n, N):
        P = random_cloud(rng, "normal", N, n)
        self.measure = bounds.AtomicMeasure(P, rng.dirichlet(np.ones(N)))
        self.cost = random_cost(rng, cost_kind)

    def call(self):
        res = genvar.generalized_variance(self.measure, self.cost)
        return res, report.dumps({
            "value": res.value, "center": res.center, "converged": res.converged,
            "inner_gap": res.inner_gap, "unique": res.unique,
            "classical_mean": bounds.mean(self.measure),
            "classical_variance": bounds.variance(self.measure),
        })

    def check(self, out):
        res, _ = out
        tol = genvar.DEFAULT_TOL_ITER
        if not res.converged or res.inner_gap > tol:
            return f"not certified: converged={res.converged} gap={res.inner_gap}"
        P, w = self.measure.atoms.points, self.measure.weights
        at_mean = float(w @ self.cost(np.linalg.norm(P - w @ P, axis=1)))
        if res.value > at_mean + 1e-12 * (1 + abs(at_mean)):
            return f"value {res.value} above the cost at the weighted mean {at_mean}"
        at_center = float(w @ self.cost(np.linalg.norm(P - res.center, axis=1)))
        if abs(at_center - res.value) > 1e-12 * (1 + abs(at_center)):
            return f"value {res.value} is not the cost at its center {at_center}"
        return None


# (class, cost, dimension, points).  Every round covers 5-30 points in each
# dimension; the sizes are fixed per spec rather than drawn, so rounds of
# different seeds cost about the same and the median call is steadier.
_KINDS = [(cls, cost) for cost in ("p1", "p3", "pwl")
          for cls in (ChebyshevInstance, GenvarInstance)]
MINIMAX_ROUND = [(cls, cost, n, 5 * (1 + (i + n) % 6))
                 for n in (2, 3, 4, 5) for i, (cls, cost) in enumerate(_KINDS)]


def minimax_round(rng):
    return [cls(rng, cost, n, N) for cls, cost, n, N in MINIMAX_ROUND]


# -- clouds: per-cloud certificate commands and envelope bounds --------------


def transformed(rng, P, offset):
    """The cloud in its own units: spread 1e-3..1e3, and for commands whose
    answer does not refer to the origin, an offset up to 1e6."""
    s = 10.0 ** rng.uniform(-3.0, 3.0)
    P = P * s
    if offset:
        P = P + rng.uniform(-1.0, 1.0, P.shape[1]) * 10.0 ** rng.uniform(0.0, 6.0)
    return P


class CloudInstance(Instance):
    def __init__(self, rng, command, kind, N, n, transform):
        P = random_cloud(rng, kind, N, n)
        if command in ("duality", "zmdc"):
            P = P - P.mean(axis=0)  # precondition: origin interior to the hull
        if transform:
            P = transformed(rng, P, offset=command in ("meb", "maxvar"))
        self.command = command
        self.cloud = geometry.PointCloud(P)
        if command == "bound":
            w = rng.dirichlet(np.ones(4))
            self.xbar = w @ P[rng.choice(N, 4, replace=False)]

    def call(self):
        c = self.cloud
        if self.command == "meb":
            ball = geometry.min_enclosing_ball(c)
            support = geometry.meb_support(c, ball)
            out = {"center": ball.center, "radius": ball.radius,
                   "support_indices": [int(i) for i in support],
                   "support_atoms": c.points[support]}
            return ball, report.dumps(out)
        if self.command == "maxvar":
            rep = bounds.max_variance(c)
            return rep, report.dumps({
                "primal_value": rep.primal_value, "dual_value": rep.dual_value,
                "gap": rep.gap, "dual_center": rep.dual_center,
                "radius": rep.enclosing_ball.radius,
                "maximizer": {"atoms": rep.maximizer.atoms.points,
                              "weights": rep.maximizer.weights}})
        if self.command == "duality":
            gap = bounds.duality_gap(c)
            ball = geometry.min_enclosing_ball(c)
            return (gap, ball), report.dumps(
                {"gap": gap, "dual_center": ball.center, "radius": ball.radius})
        if self.command == "jung":
            rep = isodiametric.jung_verify(c)
            return rep, report.dumps({
                "radius": rep.radius, "bound": rep.bound, "ok": rep.ok,
                "tight": rep.tight, "simplex_points": rep.simplex_points,
                "extraction_ok": rep.extraction_ok})
        if self.command == "bound":
            value = bounds.bhatia_davis_bound(c, self.xbar)
            return value, report.dumps({"bound": value, "route": "envelope-lp"})
        q, dual = bounds.zero_mean_dual_center(c)
        return (q, dual), report.dumps({"dual_center": q, "dual_value": dual})

    def check(self, out):
        res, _ = out
        P = self.cloud.points
        if self.command == "meb":
            if not encloses(res, P):
                return "enclosing ball misses a point"
            return None
        if self.command == "maxvar":
            R2 = res.enclosing_ball.radius ** 2
            if res.gap > 1e-7 * (1 + R2):
                return f"duality gap {res.gap} at R^2 = {R2}"
            if not encloses(res.enclosing_ball, P):
                return "dual ball misses a point"
            return None
        if self.command == "duality":
            gap, ball = res
            if gap > 1e-7 * (1 + ball.radius ** 2):
                return f"duality gap {gap} at R^2 = {ball.radius ** 2}"
            if not encloses(ball, P):
                return "enclosing ball misses a point"
            return None
        if self.command == "jung":
            return None if res.ok else f"radius {res.radius} above bound {res.bound}"
        if self.command == "bound":
            # cloud inside its enclosing ball: the ball's closed form bounds it
            ball = geometry.min_enclosing_ball(self.cloud)
            R2 = ball.radius ** 2
            cap = R2 - float(((self.xbar - ball.center) ** 2).sum())
            slack = 1e-7 * (1 + R2)
            if not -slack <= res <= cap + slack:
                return f"envelope bound {res} outside [0, {cap}]"
            return None
        q, dual = res
        primal = bounds.primal_lp_value(self.cloud)
        if abs(dual - primal) > 1e-7 * (1 + abs(primal)):
            return f"dual value {dual} != primal LP value {primal}"
        return None


class MeshInstance(Instance):
    """``geomoment bound`` on a shape mesh, through the envelope LP."""

    def __init__(self, rng, kind, resolution):
        self.kind = kind
        self.resolution = resolution
        self.seed = derived_seed(rng)
        if kind == "box":
            n = int(rng.integers(2, 4))
            self.shape = geometry.Shape.box(rng.uniform(0.5, 2.0, n))
            self.xbar = rng.uniform(-0.9, 0.9, n) * self.shape.params["a"]
        elif kind == "diamond":
            a2 = rng.uniform(0.5, 1.5)
            self.shape = geometry.Shape.diamond(a2 * rng.uniform(1.2, 3.0), a2)
            u = rng.uniform(-1.0, 1.0, 2)
            u *= rng.uniform(0.0, 0.95) / np.abs(u).sum()
            self.xbar = u * np.array([self.shape.params["a1"], a2])
        elif kind == "ball":
            n = int(rng.integers(2, 4))
            R = rng.uniform(0.5, 2.0)
            self.shape = geometry.Shape.ball(R, dim=n)
            g = rng.normal(size=n)
            self.xbar = g / np.linalg.norm(g) * R * rng.uniform(0.0, 0.9)
        else:
            b = rng.uniform(0.5, 1.5)
            self.shape = geometry.Shape.ellipse(b * rng.uniform(1.2, 3.0), b)
            th = rng.uniform(0.0, 2 * math.pi)
            r = rng.uniform(0.0, 0.9)
            self.xbar = r * np.array([self.shape.params["a"] * math.cos(th),
                                      b * math.sin(th)])

    def call(self):
        if self.kind == "ellipse":  # meshed inside the library
            value = bounds.bhatia_davis_bound(self.shape, self.xbar,
                                              resolution=self.resolution, seed=self.seed)
        else:
            mesh = geometry.shape_sample(self.shape, self.resolution, seed=self.seed)
            value = bounds.bhatia_davis_bound(mesh, self.xbar)
        return value, report.dumps({"bound": value, "route": "envelope-lp"})

    def check(self, out):
        value, _ = out
        p = self.shape.params
        if self.kind == "ellipse":
            closed, scale = p["a"] ** 2 - float(self.xbar @ self.xbar), p["a"] ** 2
        else:
            closed = bounds.bhatia_davis_bound(self.shape, self.xbar)
            scale = closed + float(self.xbar @ self.xbar)
        slack = 1e-9 * (1 + scale)
        if value < -slack:
            return f"negative envelope bound {value}"
        if self.kind in ("box", "diamond"):
            # the mesh holds the vertices, where the envelope is attained
            if abs(value - closed) > slack:
                return f"{self.kind} mesh bound {value} != closed form {closed}"
        elif value > closed + slack:
            return f"{self.kind} mesh bound {value} above {closed}"
        return None


# (command, distribution, points, dim, own units).  Dimensions above
# geometry.WELZL_MAX_DIM take the farthest-point refine path, whose cost
# varies tenfold between clouds of one size (its exact solves grow with the
# support found); with 20 points a refine call costs 10-100 ms, so these
# three calls do not decide a run's total on their own.  Per round,
# the two 240-point zero_mean_dual_center calls (one 240-row LP each, whose
# tableau still fits a 2 MB L2 cache) are the slowest, so the 95th
# percentile falls inside them; the six calls
# under 5 ms (cloud and mesh envelope bounds) are fewer than the fifteen
# 5-250 ms certificate calls, so the median falls inside the latter.
CLOUD_ROUND = [
    ("meb", "normal", 1000, 2, True),
    ("meb", "sphere", 300, 3, True),
    ("meb", "ball", 500, 2, True),
    ("meb", "normal", 20, 16, False),
    ("maxvar", "sphere", 500, 2, True),
    ("maxvar", "box", 100, 4, False),
    ("maxvar", "normal", 300, 3, True),
    ("maxvar", "normal", 20, 14, True),
    ("duality", "sphere", 200, 2, True),
    ("duality", "normal", 120, 5, False),
    ("duality", "box", 300, 3, True),
    ("jung", "ball", 200, 3, True),
    ("jung", "sphere", 400, 2, True),
    ("jung", "normal", 20, 13, False),
    ("bound", "box", 400, 3, True),
    ("bound", "normal", 50, 2, False),
    ("zmdc", "sphere", 240, 2, True),
    ("zmdc", "sphere", 240, 2, False),
    ("zmdc", "normal", 100, 4, False),
]
MESH_ROUND = [("box", 4096), ("diamond", 8192), ("ball", 16384), ("ellipse", 4096)]


def clouds_round(rng):
    return ([CloudInstance(rng, *spec) for spec in CLOUD_ROUND]
            + [MeshInstance(rng, *spec) for spec in MESH_ROUND])


ROUNDS = {"search": search_round, "minimax": minimax_round, "clouds": clouds_round}
# Fixed per workload, so runs of faster code stay comparable.  Each leaves
# 10 or more samples beyond it in a 36 s run.  On search the p75 falls
# inside the n=2 calls, well below the n=3 calls (the slowest twelfth),
# whose cost varies most.
TAIL_PERCENTILE = {"search": 75.0, "minimax": 95.0, "clouds": 95.0}
# call seconds of one round at the seed commit on the reference machine
# (see README.md); a traced run makes round(seconds / 2 / ROUND_SECONDS)
# rounds, so that its untraced pass and its traced replay together take
# about as long as an untraced run
ROUND_SECONDS = {"search": 3.9, "minimax": 1.4, "clouds": 0.6}


def round_size(workload):
    return len(ROUNDS[workload](np.random.default_rng(0)))


def warm_up(workload):
    """One untimed call of the workload's kind, part of set-up: the second
    spec of the round, a small call in every workload."""
    rng = np.random.default_rng(12345)
    inst = ROUNDS[workload](rng)[1]
    inst.check(inst.call())
