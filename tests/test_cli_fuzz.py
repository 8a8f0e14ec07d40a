"""End-to-end fuzz of the command line, in process through ``cli.main``.

Every command runs on a cloud centred on the origin, scaled by 10^k for k
in [-150, 150], and, where the answer does not refer to the origin,
translated by up to 1e6 times its spread; the clouds are normal, with
duplicate points, a single point, collinear, or in 10 to 16 dimensions.
Every run must exit with 0, 2, 3 or 4, with no traceback and no warning,
and print no nan or inf when it exits 0; chebyshev and genvar may exit 2
but not 3 or 4 where the unit run exits 0.  Where the same command on the
unit cloud exits 0 too, the answers of meb, maxvar, jung, duality, bound
on a cloud, chebyshev, genvar and isodiametric with a power cost, and
chebyshev and genvar with a piecewise-linear cost whose knots' abscissae
are scaled with the cloud, must be the unit answers scaled: within 1e-9
relative, plus the rounding of the placed coordinates, eps sqrt(n) max|x|
on a length, which the offsets make up to 1e6 times larger than at the
origin, plus for genvar the two runs' certified gaps.  Answers that
underflow below 1e-290 lose their digits to the float format and are only
checked to be finite; one that overflows exits 2 as not representable.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from geomoment import AtomicMeasure, PointCloud, write_cloud_csv, write_measure_json  # noqa: E402
from geomoment.cli import main  # noqa: E402

EPS = float(np.finfo(float).eps)  # a Python float: a slack too large for a float is inf
# (output key, degree) of each answer compared with the unit cloud's
ANSWERS = {"meb": [("radius", 1)], "maxvar": [("dual_value", 2), ("primal_value", 2)],
           "jung": [("radius", 1), ("bound", 1)], "duality": [("radius", 1)],
           "bound": [("bound", 2)], "chebyshev": [("lambda", None)],
           "genvar": [("value", None)],
           "isodiametric": [("best_value", None), ("bound", None)]}


def _run(*args):
    """(exit code, stdout, stderr) of one in-process run; a warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def _pow(x, q, v=1.0):
    """v x^q for an integer q >= 0, multiplied out one x at a time: inf
    where it overflows, and 0 for v = 0."""
    for _ in range(q):
        v *= x
    return v


def _floats(obj):
    """Every number and string in a parsed report."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for v in obj for x in _floats(v)]
    return [obj] if isinstance(obj, (int, float, str)) else []


def _base_cloud(kind, rng):
    if kind == "one-point":
        return np.zeros((1, int(rng.integers(1, 5))))
    n = int(rng.integers(10, 17)) if kind == "high-dim" else int(rng.integers(1, 5))
    N = int(rng.integers(2, n + 8))
    if kind == "collinear":
        P = rng.normal(size=(N, 1)) * rng.normal(size=n)
    elif kind == "duplicate":
        m = int(rng.integers(1, 4))
        P = rng.normal(size=(m, n))[rng.integers(0, m, N)]
        P = np.vstack([P, P[:1]])
    else:
        P = rng.normal(size=(N, n))
    return P - P.mean(axis=0)


@st.composite
def cases(draw):
    """(command, rng, base cloud, s, offset, cost power)."""
    command = draw(st.sampled_from(["meb", "maxvar", "jung", "duality", "bound", "shape",
                                    "chebyshev", "genvar", "isodiametric"]))
    kind = draw(st.sampled_from(["normal", "duplicate", "one-point", "collinear", "high-dim"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = _base_cloud(kind, rng)
    s = 10.0 ** draw(st.integers(-150, 150))
    spread = float(np.linalg.norm(P, axis=1).max())
    t = np.zeros(P.shape[1])
    if command not in ("duality", "shape", "isodiametric") and spread > 0:
        u = rng.normal(size=P.shape[1])
        t = 10.0 ** draw(st.floats(-1.0, 6.0)) * s * spread * u / np.linalg.norm(u)
    return command, rng, P, s, t, draw(st.sampled_from([1, 2, 3, "pwl"]))


def _argv(command, rng, P, s, t, p, tmp):
    """The arguments of one run on the cloud s P + t, files written to tmp."""
    Q = s * P + t
    # the knots' abscissae are lengths, scaled with the cloud, and their
    # values are not: v_s(s r) = v(r), an answer of degree 0
    cost = (f'{{"kind":"pwl","knots":[[0,0],[{s!r},1],[{2 * s!r},3]]}}' if p == "pwl"
            else f'{{"kind":"power","p":{p}}}')
    # genvar's and chebyshev's tolerance is absolute: 1e-6 of v at unit
    # scale, which is the default for a PWL cost at every scale
    tol = 0.0 if p == "pwl" else 1e-6 * _pow(s, p)
    tol = ["--tol", repr(tol)] if 0.0 < tol < math.inf else []
    if command == "isodiametric":
        n = int(rng.integers(1, 4))
        return ["isodiametric", "--n", n, "--d", repr(s), "--atoms", n + int(rng.integers(1, 4)),
                "--restarts", 2, "--seed", int(rng.integers(0, 100)), "--cost", cost]
    if command == "shape":
        kind = rng.choice(["ball", "box", "interval", "diamond", "ellipse"])
        x = rng.uniform(-0.5, 0.5, size=1 if kind == "interval" else 2) * s
        shape = {"ball": ["--R", repr(s)], "box": ["--a", f"{s!r},{s!r}"],
                 "interval": [f"--k={-s!r},{s!r}"], "diamond": ["--a", f"{2 * s!r},{s!r}"],
                 "ellipse": ["--a-scalar", repr(2 * s), "--b", repr(s), "--resolution", 16]}[kind]
        return ["bound", "--shape", kind, *shape, "--xbar=" + ",".join(repr(float(v)) for v in x)]
    if command == "genvar":
        path = tmp / "measure.json"
        write_measure_json(AtomicMeasure(Q, rng.dirichlet(np.ones(len(Q)))), path)
        return ["genvar", path, "--cost", cost, *tol]
    path = tmp / "cloud.csv"
    write_cloud_csv(PointCloud(Q), path)
    if command == "bound":
        xbar = rng.dirichlet(np.ones(len(Q))) @ Q
        return ["bound", "--cloud", path, "--xbar=" + ",".join(repr(float(v)) for v in xbar)]
    if command == "chebyshev":
        return ["chebyshev", path, "--cost", cost, *tol]
    return [command, path]


def _check_run(code, out, err):
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err and "Warning" not in err
    if code != 0:
        assert out == ""
        return None
    outputs = json.loads(out)["outputs"]
    for x in _floats(outputs):
        assert x not in ("nan", "inf", "-inf") and (isinstance(x, str) or math.isfinite(x))
    return outputs


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(cases())
def test_cli_answers_scale_to_the_limits_of_double_precision(tmp_path_factory, case):
    command, rng, P, s, t, p = case
    tmp = tmp_path_factory.mktemp("fuzz")
    state = rng.bit_generator.state
    code, out, err = _run(*_argv(command, rng, P, s, t, p, tmp))
    got = _check_run(code, out, err)
    if command not in ANSWERS or (command == "isodiametric" and p == "pwl"):
        return
    rng.bit_generator.state = state  # the unit run draws what the scaled one drew
    want = _check_run(*_run(*_argv(command, rng, P, 1.0, np.zeros_like(t), p, tmp)))
    if want is not None and command in ("chebyshev", "genvar"):
        # the scale changes no certificate: only an answer that no float
        # holds (exit 2) keeps a scaled run from the unit run's exit 0
        assert code in (0, 2), err
    if want is None or got is None:
        return
    # a length's rounding, eps sqrt(n) max|x|, moves an answer of degree q
    # by at most q L^(q-1) times it for lengths up to L, twice the spread
    # about xbar for the bound
    L = 4.0 * s * max(float(np.linalg.norm(P, axis=1).max()), 1e-300)
    rounding = EPS * math.sqrt(P.shape[1]) * (float(np.abs(s * P + t).max()) + L)
    for key, q in ANSWERS[command]:
        if q is None and p == "pwl":
            # degree 0, and v(r / s) has slopes up to 2 / s
            q, slack = 0, 8.0 * rounding / s
        else:
            q = q or p
            slack = 4.0 * q * _pow(L, q - 1) * rounding
        scaled = _pow(s, q, want[key])
        if abs(scaled) < 1e-290:  # lost to underflow
            continue
        if command == "genvar":  # each value is certified within its gap
            slack += got["inner_gap"] + _pow(s, q, want["inner_gap"])
        assert abs(got[key] - scaled) <= 1e-9 * abs(scaled) + slack, (key, got[key], scaled)
    if command == "duality":
        assert got["gap"] <= 1e-9 * got["radius"] ** 2
