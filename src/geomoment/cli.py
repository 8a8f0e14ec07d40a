"""Command-line surface: ``geomoment <command> [flags]``.

Each command prints exactly one JSON run report on stdout (floats at 17
significant digits, byte-identical for identical inputs and seed on one
numpy/BLAS build: BLAS dot products need not add left to right, so another
build may round differently) and human diagnostics on stderr.  Exit codes:
0 success, 2 parse error or invalid flag value, 3 domain precondition, 4 no
convergence.
"""

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import __version__, report
from .bounds import (ELLIPSE_RESOLUTION, _duality, bhatia_davis_bound, max_variance,
                     mean, read_measure_json, variance)
from .errors import DomainError, NoConvergenceError, ParseError
from .genvar import chebyshev_level, generalized_variance, read_cost_json
from .geometry import Shape, min_enclosing_ball, meb_support, read_cloud_csv
from .isodiametric import SearchConfig, jung_verify, search_max


def _parse_vec(text, name):
    try:
        vec = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ParseError(f"--{name}: expected comma-separated reals, got {text!r}") from None
    if not np.isfinite(vec).all():
        raise ValueError(f"--{name}: entries must be finite, got {text!r}")
    return vec


def _finite_float(text):
    """argparse type: a finite real; nan and +-inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a real, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite real, got {text!r}")
    return value


def _dimension(text):
    """argparse type: a dimension, an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"dimension must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag or flag value on stderr as ``invalid input: ...``,
    the prefix of every other invalid-value message, then the usage line;
    the exit code stays 2."""

    def error(self, message):
        self.exit(2, f"invalid input: {self.prog}: {message}\n{self.format_usage()}")


def _run_report(command, inputs, outputs, diagnostics):
    return {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "outputs": outputs,
        "diagnostics": diagnostics,
    }


# the flags (argparse dests) each shape takes, all but OPTIONAL required;
# only the ellipse is meshed, so only it takes the mesh's resolution and seed
SHAPE_FLAGS = {"interval": {"k"}, "ball": {"R", "dim"},
               "ellipse": {"a_scalar", "b", "resolution", "seed"},
               "box": {"a"}, "diamond": {"a"}, None: set()}
OPTIONAL = {"dim", "resolution", "seed"}


def _shape_from_args(args):
    if not (args.cloud or args.shape):
        raise ParseError("either --shape or --cloud is required")
    given = {d for d in ("k", "R", "dim", "a", "a_scalar", "b", "resolution", "seed")
             if getattr(args, d) is not None}
    takes = SHAPE_FLAGS[args.shape]
    name = f"--shape {args.shape}" if args.shape else "--cloud"
    for verb, dests in (("does not take", given - takes), ("requires", takes - given - OPTIONAL)):
        if dests:
            flags = ", ".join("--" + d.replace("_", "-") for d in sorted(dests))
            raise ValueError(f"{name} {verb} {flags}")
    if args.cloud:
        return Shape.cloud(read_cloud_csv(args.cloud)), {"cloud": args.cloud}
    kind = args.shape
    try:
        if kind == "interval":
            k = _parse_vec(args.k, "k")
            return Shape.interval(k[0], k[1]), {"shape": "interval", "k": k}
        if kind == "ball":
            dim = 2 if args.dim is None else args.dim
            return Shape.ball(args.R, dim=dim), {"shape": "ball", "R": args.R, "dim": dim}
        if kind == "ellipse":
            return Shape.ellipse(args.a_scalar, args.b), \
                {"shape": "ellipse", "a": args.a_scalar, "b": args.b}
        a = _parse_vec(args.a, "a")
        if kind == "box":
            return Shape.box(a), {"shape": "box", "a": a}
        return Shape.diamond(a[0], a[1]), {"shape": "diamond", "a": a}
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad shape parameters for {kind!r}: {exc}") from None


def cmd_meb(args):
    cloud = read_cloud_csv(args.cloud)
    ball = min_enclosing_ball(cloud)
    support = meb_support(cloud, ball)
    return _run_report(
        "meb",
        {"cloud": args.cloud, "points": len(cloud), "dim": cloud.dim},
        {
            "center": ball.center,
            "radius": ball.radius,
            "support_indices": [int(i) for i in support],
            "support_atoms": cloud.points[support],
        },
        {},
    )


def cmd_bound(args):
    shape, echo = _shape_from_args(args)
    xbar = _parse_vec(args.xbar, "xbar")
    mesh = {}
    if shape.kind == Shape.ELLIPSE:
        mesh = {"resolution": ELLIPSE_RESOLUTION if args.resolution is None else args.resolution,
                "seed": 0 if args.seed is None else args.seed}
    value = bhatia_davis_bound(shape, xbar, **mesh)
    closed = shape.kind in (Shape.INTERVAL, Shape.BALL, Shape.BOX, Shape.DIAMOND)
    return _run_report(
        "bound",
        {**echo, "xbar": xbar},
        {"bound": value, "route": "closed-form" if closed else "envelope-lp"},
        mesh,
    )


def cmd_maxvar(args):
    cloud = read_cloud_csv(args.cloud)
    rep = max_variance(cloud)
    return _run_report(
        "maxvar",
        {"cloud": args.cloud, "points": len(cloud), "dim": cloud.dim},
        {
            "primal_value": rep.primal_value,
            "dual_value": rep.dual_value,
            "gap": rep.gap,
            "dual_center": rep.dual_center,
            "radius": rep.enclosing_ball.radius,
            "maximizer": {
                "atoms": rep.maximizer.atoms.points,
                "weights": rep.maximizer.weights,
            },
        },
        {},
    )


def cmd_genvar(args):
    measure = read_measure_json(args.measure)
    cost = read_cost_json(args.cost)
    res = generalized_variance(measure, cost, tol=args.tol)
    return _run_report(
        "genvar",
        {"measure": args.measure, "atoms": len(measure.atoms), "cost": cost.to_spec()},
        {
            "value": res.value,
            "center": res.center,
            "converged": res.converged,
            "inner_gap": res.inner_gap,
            "unique": res.unique,
            "classical_mean": mean(measure),
            "classical_variance": variance(measure),
        },
        {"tol": args.tol},
    )


def cmd_chebyshev(args):
    cloud = read_cloud_csv(args.cloud)
    cost = read_cost_json(args.cost)
    lam, z = chebyshev_level(cloud, cost, tol=args.tol)
    return _run_report(
        "chebyshev",
        {"cloud": args.cloud, "points": len(cloud), "cost": cost.to_spec()},
        {"lambda": lam, "z": z},
        {"tol": args.tol},
    )


def cmd_isodiametric(args):
    cost = read_cost_json(args.cost)
    config = SearchConfig(n=args.n, d=args.d, atom_count=args.atoms,
                          restarts=args.restarts, max_iters=args.iters,
                          seed=args.seed, cost=cost)
    result = search_max(config)
    payload = result.to_report(config)
    wall = payload.pop("wall_clock")
    print(f"search finished in {wall:.3f} s "
          f"({result.converged_restarts}/{config.restarts} restarts converged)",
          file=sys.stderr)
    if args.emit_csv:
        os.makedirs(args.emit_csv, exist_ok=True)
        with open(os.path.join(args.emit_csv, "restarts.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["restart", "value"])
            for i, v in enumerate(result.per_restart_values):
                w.writerow([i, format(v, ".17g")])
        atoms, wts = result.best_measure.atoms.points, result.best_measure.weights
        with open(os.path.join(args.emit_csv, "atoms.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{i + 1}" for i in range(atoms.shape[1])] + ["weight"])
            for row, wt in zip(atoms, wts):
                w.writerow([format(v, ".17g") for v in row] + [format(wt, ".17g")])
    return _run_report(
        "isodiametric",
        {"n": args.n, "d": args.d, "atoms": args.atoms,
         "restarts": args.restarts, "cost": cost.to_spec()},
        payload,
        {"seed": args.seed, "max_iters": args.iters},
    )


def cmd_jung(args):
    cloud = read_cloud_csv(args.cloud)
    rep = jung_verify(cloud)
    return _run_report(
        "jung",
        {"cloud": args.cloud, "points": len(cloud), "dim": cloud.dim},
        {
            "radius": rep.radius,
            "bound": rep.bound,
            "ok": rep.ok,
            "tight": rep.tight,
            "simplex_points": rep.simplex_points,
            "extraction_ok": rep.extraction_ok,
        },
        {},
    )


def cmd_duality(args):
    cloud = read_cloud_csv(args.cloud)
    gap, ball = _duality(cloud)
    return _run_report(
        "duality",
        {"cloud": args.cloud, "points": len(cloud), "dim": cloud.dim},
        {
            "gap": gap,
            "dual_center": ball.center,
            "radius": ball.radius,
        },
        {},
    )


def build_parser():
    parser = _Parser(
        prog="geomoment",
        description="Geometric bounds on variances and recentered moments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meb", help="smallest enclosing ball of a cloud")
    p.add_argument("cloud")
    p.set_defaults(func=cmd_meb)

    p = sub.add_parser("bound", help="sharp variance bound at a given mean")
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--shape", choices=["interval", "ball", "ellipse", "box", "diamond"])
    shape.add_argument("--cloud")
    p.add_argument("--xbar", required=True, help="mean, comma-separated")
    p.add_argument("--k", help="interval endpoints lo,hi")
    p.add_argument("--R", type=_finite_float, help="ball radius")
    p.add_argument("--dim", type=_dimension, help="ball dimension (default 2)")
    p.add_argument("--a", help="box/diamond half-widths, comma-separated")
    p.add_argument("--a-scalar", dest="a_scalar", type=_finite_float, help="ellipse semi-axis a")
    p.add_argument("--b", type=_finite_float, help="ellipse semi-axis b")
    p.add_argument("--resolution", type=int,
                   help=f"ellipse mesh points (default {ELLIPSE_RESOLUTION})")
    p.add_argument("--seed", type=int, help="ellipse mesh seed (default 0)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("maxvar", help="variance maximizer over a cloud")
    p.add_argument("cloud")
    p.set_defaults(func=cmd_maxvar)

    p = sub.add_parser("genvar", help="generalized variance of a measure")
    p.add_argument("measure", help="measure JSON file")
    p.add_argument("--cost", default='{"kind":"power","p":2}',
                   help="cost JSON (inline or file path)")
    p.add_argument("--tol", type=_finite_float, default=None, help="tolerance override")
    p.set_defaults(func=cmd_genvar)

    p = sub.add_parser("chebyshev", help="minimax cost level over a cloud")
    p.add_argument("cloud")
    p.add_argument("--cost", default='{"kind":"power","p":2}')
    p.add_argument("--tol", type=_finite_float, default=None, help="tolerance override")
    p.set_defaults(func=cmd_chebyshev)

    p = sub.add_parser("isodiametric", help="diameter-capped moment search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_finite_float, default=1.0)
    p.add_argument("--cost", default='{"kind":"power","p":2}')
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--iters", type=int, default=400)
    p.add_argument("--emit-csv", metavar="DIR", default=None,
                   help="directory for CSV side files")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.set_defaults(func=cmd_isodiametric)

    p = sub.add_parser("jung", help="enclosing-ball vs diameter ratio check")
    p.add_argument("cloud")
    p.set_defaults(func=cmd_jung)

    p = sub.add_parser("duality", help="moment program vs enclosing ball gap")
    p.add_argument("cloud")
    p.set_defaults(func=cmd_duality)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text = report.dumps(args.func(args))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        if exc.certificate is not None:
            print(f"separating certificate: {list(np.asarray(exc.certificate))}",
                  file=sys.stderr)
        return 3
    except NoConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
