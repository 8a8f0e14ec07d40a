import json
import math

import numpy as np
import pytest

from geomoment import (AtomicMeasure, NoConvergenceError, PointCloud, RadialCost,
                       bounds, chebyshev_level, cli, duality_gap, genvar, geometry,
                       read_cloud_csv, report, write_cloud_csv, write_measure_json)
from geomoment.cli import main
from geomoment.geometry import regular_simplex


@pytest.fixture
def two_point_csv(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("x1\n-1\n1\n")
    return str(path)


@pytest.fixture
def simplex_csv(tmp_path):
    path = tmp_path / "simplex.csv"
    write_cloud_csv(PointCloud(regular_simplex(2, 1.0).vertices), path)
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_meb_two_point(capsys, two_point_csv):
    code, out, _ = run_cli(capsys, "meb", two_point_csv)
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "meb"
    assert rep["outputs"]["center"] == [0]
    assert rep["outputs"]["radius"] == 1


def test_meb_simplex_radius(capsys, simplex_csv):
    code, out, _ = run_cli(capsys, "meb", simplex_csv)
    rep = json.loads(out)
    assert rep["outputs"]["radius"] == pytest.approx(0.5773503, abs=1e-7)


def test_meb_empty_file_exit_2(capsys, tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, out, err = run_cli(capsys, "meb", str(path))
    assert code == 2
    assert out == ""
    assert "parse error" in err


def test_meb_missing_file_exit_2(capsys):
    code, _, _ = run_cli(capsys, "meb", "/nonexistent/nowhere.csv")
    assert code == 2


def test_bound_ball(capsys):
    code, out, _ = run_cli(capsys, "bound", "--shape", "ball", "--R", "1",
                           "--xbar", "0.6,0")
    assert code == 0
    assert json.loads(out)["outputs"]["bound"] == pytest.approx(0.64)


def test_bound_box(capsys):
    code, out, _ = run_cli(capsys, "bound", "--shape", "box", "--a", "1,1",
                           "--xbar", "0,0")
    assert json.loads(out)["outputs"]["bound"] == pytest.approx(2.0)


def test_bound_interval(capsys):
    code, out, _ = run_cli(capsys, "bound", "--shape", "interval", "--k", "0,1",
                           "--xbar", "0.5")
    assert json.loads(out)["outputs"]["bound"] == pytest.approx(0.25)


def test_bound_diamond_and_ellipse(capsys):
    code, out, _ = run_cli(capsys, "bound", "--shape", "diamond", "--a", "2,1",
                           "--xbar", "0,0")
    assert json.loads(out)["outputs"]["bound"] == pytest.approx(4.0)
    code, out, _ = run_cli(capsys, "bound", "--shape", "ellipse", "--a-scalar", "2",
                           "--b", "1", "--xbar", "0,0", "--resolution", "128")
    assert code == 0
    assert json.loads(out)["outputs"]["route"] == "envelope-lp"
    assert json.loads(out)["outputs"]["bound"] == pytest.approx(4.0, abs=1e-2)


def test_bound_echoes_mesh_flags_only_for_the_ellipse(capsys):
    code, out, _ = run_cli(capsys, "bound", "--shape", "ellipse", "--a-scalar", "2",
                           "--b", "1", "--xbar", "0,0", "--resolution", "64")
    assert code == 0
    assert json.loads(out)["diagnostics"] == {"resolution": 64, "seed": 0}
    code, out, _ = run_cli(capsys, "bound", "--shape", "ball", "--R", "1", "--xbar", "0,0")
    assert code == 0
    assert json.loads(out)["diagnostics"] == {}


def test_bound_outside_hull_exit_3(capsys):
    code, out, err = run_cli(capsys, "bound", "--shape", "ball", "--R", "1",
                             "--xbar", "2,0")
    assert code == 3
    assert out == ""
    assert "domain error" in err


def test_bound_cloud_route(capsys, two_point_csv):
    code, out, _ = run_cli(capsys, "bound", "--cloud", two_point_csv, "--xbar", "0")
    assert json.loads(out)["outputs"]["bound"] == pytest.approx(1.0)


def test_bound_bad_vector_exit_2(capsys):
    code, _, err = run_cli(capsys, "bound", "--shape", "ball", "--R", "1",
                           "--xbar", "zork")
    assert code == 2


def test_maxvar(capsys, simplex_csv):
    code, out, _ = run_cli(capsys, "maxvar", simplex_csv)
    rep = json.loads(out)
    assert rep["outputs"]["dual_value"] == pytest.approx(1 / 3, abs=1e-9)
    assert rep["outputs"]["gap"] <= 1e-7
    assert np.allclose(rep["outputs"]["maximizer"]["weights"], 1 / 3, atol=1e-9)


def test_genvar_power2(capsys, tmp_path):
    mu = AtomicMeasure([[0.0], [1.0]], [0.5, 0.5])
    path = tmp_path / "measure.json"
    write_measure_json(mu, path)
    code, out, _ = run_cli(capsys, "genvar", str(path))
    rep = json.loads(out)
    assert rep["outputs"]["value"] == pytest.approx(0.25)
    assert rep["outputs"]["center"] == [0.5]


def test_genvar_power1_inline_cost(capsys, tmp_path):
    V = regular_simplex(2, 1.0).vertices
    mu = AtomicMeasure(V, np.ones(3) / 3)
    path = tmp_path / "m.json"
    write_measure_json(mu, path)
    code, out, _ = run_cli(capsys, "genvar", str(path), "--cost",
                           '{"kind":"power","p":1}')
    assert json.loads(out)["outputs"]["value"] == pytest.approx(
        1 / math.sqrt(3), abs=1e-6)


def test_genvar_bad_cost_exit_2(capsys, tmp_path):
    mu = AtomicMeasure([[0.0]], [1.0])
    path = tmp_path / "m.json"
    write_measure_json(mu, path)
    code, _, err = run_cli(capsys, "genvar", str(path), "--cost",
                           '{"kind":"power","p":0.2}')
    assert code == 2


def test_chebyshev(capsys, simplex_csv):
    code, out, _ = run_cli(capsys, "chebyshev", simplex_csv, "--tol", "1e-8")
    rep = json.loads(out)
    assert rep["outputs"]["lambda"] == pytest.approx(1 / 3, abs=1e-7)


def test_chebyshev_uncertified_ball_exit_4(capsys, monkeypatch, simplex_csv):
    # a ball whose dual puts all its weight on one support point: the
    # certificate v(sqrt(var(w))) = v(0) leaves a bracket wider than tol
    solve = genvar.min_enclosing_ball

    def one_point_dual(*args, **kwargs):
        ball = solve(*args, **kwargs)
        return geometry.Ball(ball.center, ball.radius, ball.support[:1], [1.0])

    monkeypatch.setattr(genvar, "min_enclosing_ball", one_point_dual)
    with pytest.raises(NoConvergenceError):
        chebyshev_level(PointCloud(regular_simplex(2, 1.0).vertices), RadialCost.power(2))
    code, out, err = run_cli(capsys, "chebyshev", simplex_csv)
    assert code == 4
    assert out == ""
    assert "no convergence" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["bound", "--cloud", "{simplex}", "--xbar", "0.5"],
    ["isodiametric", "--n", "0", "--atoms", "3", "--restarts", "2"],
    ["isodiametric", "--n", "2", "--atoms", "3", "--restarts", "0"],
    ["isodiametric", "--n", "2", "--atoms", "0", "--restarts", "2"],
    ["genvar", "{measure}", "--tol", "-1"],
    ["chebyshev", "{simplex}", "--tol", "-1"],
    ["bound", "--shape", "ellipse", "--a-scalar", "2", "--b", "1",
     "--xbar", "0,0", "--resolution", "0"],
    ["isodiametric", "--n", "0", "--atoms", "3", "--restarts", "2",
     "--cost", '{{"kind":"power","p":1}}'],
    ["isodiametric", "--n", "2", "--atoms", "3", "--restarts", "2", "--d", "nan"],
    ["isodiametric", "--n", "2", "--atoms", "3", "--restarts", "2", "--d", "inf"],
    ["genvar", "{measure}", "--tol", "nan"],
    ["chebyshev", "{simplex}", "--tol", "nan"],
    ["bound", "--shape", "ball", "--R", "nan", "--xbar", "0,0"],
    ["bound", "--shape", "ball", "--R", "inf", "--xbar", "0,0"],
    ["bound", "--shape", "ball", "--R", "1", "--xbar", "nan,0"],
    ["bound", "--shape", "ellipse", "--a-scalar", "inf", "--b", "1", "--xbar", "0,0"],
    ["bound", "--shape", "ellipse", "--a-scalar", "2", "--b", "nan", "--xbar", "0,0"],
    ["bound", "--shape", "ball", "--R", "1", "--dim", "0", "--xbar", "0,0"],
    ["bound", "--shape", "ball", "--R", "1", "--dim", "-2", "--xbar", "0,0"],
    # a shape without its required parameter
    ["bound", "--shape", "interval", "--xbar", "0.5"],
    ["bound", "--shape", "box", "--xbar", "0,0"],
    ["isodiametric", "--n", "2", "--atoms", "3", "--restarts", "1", "--iters", "-5"],
    ["isodiametric", "--n", "2", "--atoms", "3", "--restarts", "1", "--iters", "0"],
])
def test_invalid_flag_value_exit_2(capsys, tmp_path, simplex_csv, args):
    measure = tmp_path / "m.json"
    write_measure_json(AtomicMeasure([[0.0], [1.0]], [0.5, 0.5]), measure)
    args = [a.format(simplex=simplex_csv, measure=measure) for a in args]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:")


@pytest.mark.parametrize("dim", [0, -2])
def test_ball_dimension_below_one_is_named(capsys, dim):
    # the mean's dimension was reported as the fault: "mean has dimension 2,
    # shape has -2"
    code, out, err = run_cli(capsys, "bound", "--shape", "ball", "--R", "1",
                             "--dim", str(dim), "--xbar", "0,0")
    assert code == 2 and out == ""
    assert f"--dim: dimension must be at least 1, got {dim}" in err
    assert "mean has dimension" not in err


def test_jung(capsys, simplex_csv):
    code, out, _ = run_cli(capsys, "jung", simplex_csv)
    rep = json.loads(out)
    assert rep["outputs"]["ok"] is True
    assert rep["outputs"]["tight"] is True


def test_duality(capsys, simplex_csv):
    code, out, _ = run_cli(capsys, "duality", simplex_csv)
    rep = json.loads(out)
    assert rep["outputs"]["gap"] <= 1e-7


def test_duality_solves_its_ball_once(capsys, tmp_path, monkeypatch):
    # the command solved the ball once inside duality_gap and again for its
    # center and radius; the report is what those two calls gave
    P = np.random.default_rng(3).normal(size=(40, 3))
    path = tmp_path / "cloud.csv"
    write_cloud_csv(PointCloud(P - P.mean(axis=0)), path)
    cloud = read_cloud_csv(path)
    gap, ball = duality_gap(cloud), geometry.min_enclosing_ball(cloud)
    expected = {"gap": gap, "dual_center": ball.center, "radius": ball.radius}
    calls = []

    def counted(cloud):
        calls.append(len(cloud))
        return ball_solver(cloud)

    ball_solver = geometry.min_enclosing_ball
    for mod in (bounds, cli, geometry):
        monkeypatch.setattr(mod, "min_enclosing_ball", counted, raising=False)
    code, out, _ = run_cli(capsys, "duality", str(path))
    assert code == 0 and calls == [40]
    assert json.loads(out)["outputs"] == json.loads(report.dumps(expected))


def test_duality_domain_error_exit_3(capsys, tmp_path):
    path = tmp_path / "offset.csv"
    path.write_text("x1,x2\n1,0\n2,0\n1,1\n")
    code, _, err = run_cli(capsys, "duality", str(path))
    assert code == 3


@pytest.mark.parametrize("command", [["meb"], ["maxvar"], ["jung"],
                                     ["bound", "--xbar", "0,0", "--cloud"]])
def test_cloud_whose_squares_overflow_exit_2(capsys, tmp_path, command):
    # at 1e300, meb, maxvar and jung died with an IndexError and bound
    # printed "nan" and exited 0
    path = tmp_path / "huge.csv"
    write_cloud_csv(PointCloud(np.random.default_rng(0).normal(size=(10, 2)) * 1e300), path)
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == 2
    assert "Traceback" not in err
    assert "nan" not in out and "inf" not in out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["meb", "maxvar", "jung", "chebyshev", "duality"])
def test_cloud_whose_sums_overflow_exit_2(capsys, tmp_path, command):
    # at 5e307 the mean of ten points overflowed: each command printed an
    # overflow RuntimeWarning, which -W error made a traceback and exit 1
    P = np.random.default_rng(0).normal(size=(10, 2)) * 5e307
    path = tmp_path / "huge.csv"
    path.write_text("x1,x2\n" + "".join(f"{x!r},{y!r}\n" for x, y in P.tolist()))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert err.startswith("invalid input:") and "Traceback" not in err
    assert out == ""


def test_isodiametric_deterministic_and_csv(capsys, tmp_path):
    args = ["isodiametric", "--n", "1", "--d", "1", "--atoms", "3",
            "--restarts", "3", "--seed", "5"]
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    rep = json.loads(out1)
    assert rep["outputs"]["best_value"] == pytest.approx(0.25, abs=1e-8)
    assert "wall_clock" not in rep["outputs"]
    csv_dir = tmp_path / "plots"
    code3, out3, _ = run_cli(capsys, *args, "--emit-csv", str(csv_dir))
    assert (csv_dir / "restarts.csv").exists()
    assert (csv_dir / "atoms.csv").exists()
    assert out3 == out1  # side files don't change the report


def test_reports_are_valid_json_with_17_digits(capsys, two_point_csv):
    code, out, _ = run_cli(capsys, "maxvar", two_point_csv)
    rep = json.loads(out)  # parses
    assert rep["version"]
    # round-trip exactness of an irrational-ish value
    code, out, _ = run_cli(capsys, "bound", "--shape", "interval",
                           "--k", "0,1", "--xbar", "0.3")
    val = json.loads(out)["outputs"]["bound"]
    assert val == (1 - 0.3) * (0.3 - 0)


def test_usage_error_exit_2(capsys):
    assert main(["bound"]) == 2  # missing required --xbar
    capsys.readouterr()


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args", [
    ["meb", "{simplex}", "--tol", "1e-3"],
    ["jung", "{simplex}", "--emit-csv", "{dir}"],
    ["bound", "--shape", "ball", "--R", "1", "--xbar", "0,0", "--tol", "1e-3"],
    ["genvar", "measure.json", "--seed", "5"],
    ["chebyshev", "{simplex}", "--seed", "5"],
    # a shape-parameter flag of a shape that is not being computed
    ["bound", "--shape", "box", "--a", "1,1", "--R", "5", "--xbar", "0,0"],
    ["bound", "--shape", "ball", "--R", "1", "--k", "0,1", "--xbar", "0,0"],
    ["bound", "--shape", "interval", "--k", "0,1", "--dim", "5", "--xbar", "0.5"],
    ["bound", "--cloud", "{simplex}", "--shape", "ball", "--xbar", "0,0"],
    ["bound", "--cloud", "{simplex}", "--R", "1", "--xbar", "0,0"],
    # the enclosing ball is scanned in one fixed order, so no seed reaches it
    ["meb", "{simplex}", "--seed", "5"],
    ["maxvar", "{simplex}", "--seed", "5"],
    ["jung", "{simplex}", "--seed", "5"],
    ["duality", "{simplex}", "--seed", "5"],
    # only the ellipse is meshed, so only it takes the mesh's flags
    ["bound", "--shape", "ball", "--R", "1", "--seed", "5", "--xbar", "0,0"],
    ["bound", "--shape", "ball", "--R", "1", "--resolution", "3", "--xbar", "0,0"],
    ["bound", "--cloud", "{simplex}", "--seed", "5", "--xbar", "0,0"],
    ["bound", "--cloud", "{simplex}", "--resolution", "3", "--xbar", "0,0"],
])
def test_flag_without_effect_exit_2(capsys, tmp_path, simplex_csv, args):
    args = [a.format(simplex=simplex_csv, dir=tmp_path / "side") for a in args]
    code, out, err = run_cli(capsys, *args)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input:") and "Traceback" not in err
    # argparse names an unknown flag or one excluded by another; the bound
    # command names the flag its shape does not take
    assert ("unrecognized arguments" in err or "not allowed with argument" in err
            or f"does not take {args[-4]}" in err)
    assert not (tmp_path / "side").exists()
