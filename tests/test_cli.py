import json
import warnings

import numpy as np
import pytest

from vorfunc.cli import main


def write_points(tmp_path, name, pts):
    path = tmp_path / name
    path.write_text(json.dumps({"points": pts}))
    return str(path)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_functional_single_triangle(tmp_path, capsys):
    path = write_points(tmp_path, "tri.json", [[0, 0], [1, 0], [0, 1]])
    code, out, _ = run_cli(["functional", "--input", path], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["total"] == pytest.approx(1 / 12)
    assert len(obj["per_simplex"]) == 1


def test_functional_square_exits_3(tmp_path, capsys):
    path = write_points(tmp_path, "sq.json", [[0, 0], [1, 0], [0, 1], [1, 1]])
    code, _, err = run_cli(["functional", "--input", path], capsys)
    assert code == 3
    assert err.startswith("error:")
    assert "labels" in err


def test_functional_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["functional", "--input", str(bad)], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_functional_octahedron_dim3(tmp_path, capsys):
    pts = [
        [7.99, 5.80, 1.65],
        [9.86, 0.00, 1.65],
        [7.80, -5.80, 1.65],
        [7.89, 0.00, 6.14],
        [-2.00, -0.01, 4.02],
        [6.89, 0.00, -4.14],
    ]
    path = write_points(tmp_path, "octa.json", pts)
    code, out, _ = run_cli(
        ["functional", "--input", path, "--dim", "3", "--diagonal", "BE"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == pytest.approx(3413.75, abs=0.05)
    code, out, _ = run_cli(
        ["functional", "--input", path, "--dim", "3", "--diagonal", "AC"], capsys
    )
    assert json.loads(out)["total"] == pytest.approx(3432.96, abs=0.05)


def test_functional_rajan_and_rf(tmp_path, capsys):
    path = write_points(tmp_path, "tri.json", [[0, 0], [1, 0], [0, 1]])
    code, out, _ = run_cli(["functional", "--input", path, "--which", "rajan"], capsys)
    assert json.loads(out)["total"] == pytest.approx(1 / 6)
    code, out, _ = run_cli(
        ["functional", "--input", path, "--which", "rf", "--alpha", "2"], capsys
    )
    assert json.loads(out)["total"] == pytest.approx(0.25)


def test_functional_csv_has_the_schema_one_row_per_triangle_and_the_json_total(tmp_path, capsys):
    pts = np.random.default_rng(30).random((40, 2)).tolist()
    path = write_points(tmp_path, "pts.json", pts)
    code, out, _ = run_cli(["functional", "--input", path, "--format", "csv"], capsys)
    assert code == 0
    _, report, _ = run_cli(["functional", "--input", path], capsys)
    report = json.loads(report)
    lines = out.splitlines()
    assert lines[:2] == ["# schema=1", "simplex,contribution"]
    rows = [line.split(",") for line in lines[2:-1]]
    assert [int(i) for i, _ in rows] == list(range(len(report["per_simplex"])))
    assert [float(v) for _, v in rows] == [v for _, v in report["per_simplex"]]
    assert lines[-1] == f"total,{report['total']!r}"


def test_scan_csv_rows(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        ["scan", "--n", "5", "--trials", "4", "--seed", "7", "--out", str(out_path)], capsys
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "trial,triangulation,vf,is_delaunay,is_max"
    rows = [l.split(",") for l in lines[2:]]
    trials = {int(r[0]) for r in rows}
    assert trials == {0, 1, 2, 3}
    for r in rows:
        assert r[3] in ("0", "1") and r[4] in ("0", "1")
    # Every trial has exactly one Delaunay member, and it is maximal.
    for t in trials:
        flags = [(r[3], r[4]) for r in rows if int(r[0]) == t]
        assert sum(1 for d, _ in flags if d == "1") == 1
        assert all(m == "1" for d, m in flags if d == "1")


def test_scan_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(["scan", "--n", "5", "--trials", "3", "--seed", "11", "--out", str(a)], capsys)
    run_cli(["scan", "--n", "5", "--trials", "3", "--seed", "11", "--out", str(b)], capsys)
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_scan_without_trials_exits_2(trials, capsys):
    code, out, err = run_cli(["scan", "--n", "5", "--trials", trials, "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_counterexamples_octahedron(tmp_path, capsys):
    out_path = tmp_path / "octa.json"
    code, _, _ = run_cli(
        ["counterexamples", "--which", "octahedron", "--out", str(out_path)], capsys
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["verdict"] == "pass"
    assert obj["schema"] == 1


def test_counterexamples_fold(capsys):
    code, out, _ = run_cli(["counterexamples", "--which", "fold"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert (obj["values"]["preserved"], obj["values"]["reversed"]) == (16, 8)


def test_render_obtuse_gamma_shades_two_cells(tmp_path, capsys):
    path = write_points(tmp_path, "obtuse.json", [[0, 0], [4, 0], [2, 0.5]])
    out_path = tmp_path / "img.svg"
    code, _, _ = run_cli(
        ["render", "--input", path, "--what", "gamma", "--out", str(out_path)], capsys
    )
    assert code == 0
    svg = out_path.read_text()
    assert svg.count('class="cell neg"') == 2
    assert svg.startswith("<svg")


def test_render_deterministic(tmp_path, capsys):
    path = write_points(tmp_path, "tri.json", [[0, 0], [1, 0], [0.2, 1.1], [1.3, 0.9]])
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    run_cli(["render", "--input", path, "--what", "subdivision", "--out", str(a)], capsys)
    run_cli(["render", "--input", path, "--what", "subdivision", "--out", str(b)], capsys)
    assert a.read_text() == b.read_text()
    # Fixed two-decimal coordinates only.
    import re

    for coord in re.findall(r'points="([^"]+)"', a.read_text()):
        for token in coord.replace(",", " ").split():
            assert re.fullmatch(r"-?\d+\.\d\d", token)


def test_samples_floor_enforced(capsys):
    code, _, err = run_cli(
        ["counterexamples", "--which", "topological", "--samples", "10"], capsys
    )
    assert code == 2
    assert "--samples" in err


@pytest.mark.parametrize("command", ["functional", "render"])
@pytest.mark.parametrize("points", [[1, 2, 3], []])
def test_points_not_a_point_list_exits_2(tmp_path, capsys, command, points):
    path = write_points(tmp_path, "flat.json", points)
    code, out, err = run_cli([command, "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["functional", "--input", "pts.json"],
        ["functional", "--input", "pts.json", "--dim", "3"],
        ["render", "--input", "pts.json"],
    ],
    ids=["functional", "functional-dim3", "render"],
)
def test_points_with_a_nan_coordinate_exit_2(tmp_path, capsys, argv):
    from vorfunc.experiments import OCTA_POINTS

    pts = OCTA_POINTS.tolist() if "--dim" in argv else [[0, 0], [1, 0], [0, 1], [1, 1.2]]
    pts[2][1] = float("nan")
    path = write_points(tmp_path, "pts.json", pts)
    code, out, err = run_cli([path if a == "pts.json" else a for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "point 2 has a non-finite coordinate" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["functional", "--input", "pts.json", "--which", "bogus"],
        ["counterexamples", "--which", "bogus"],
        ["render", "--input", "pts.json", "--what", "bogus"],
    ],
    ids=["functional", "counterexamples", "render"],
)
def test_unknown_choice_exits_2(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "invalid choice: 'bogus'" in err


def test_functional_dim3_needs_six_points(tmp_path, capsys):
    pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    path = write_points(tmp_path, "five.json", pts)
    code, out, err = run_cli(["functional", "--input", path, "--dim", "3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "got 5" in err


def test_functional_dim3_counts_points_before_the_diagonal(tmp_path, capsys):
    pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, 0, 1], [0, 2, 1]]
    path = write_points(tmp_path, "seven.json", pts)
    code, out, err = run_cli(["functional", "--input", path, "--dim", "3", "--diagonal", "1,9"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "got 7" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-1000"])
def test_functional_non_finite_rf_exits_2(tmp_path, capsys, alpha, fmt):
    # Circumradius 0.07: its -1000th power overflows to inf.
    path = write_points(tmp_path, "small.json", [[0, 0], [0.1, 0], [0, 0.1]])
    argv = ["functional", "--input", path, "--which", "rf", f"--alpha={alpha}", "--format", fmt]
    with np.errstate(over="ignore"):
        code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("which", ["vf", "rajan"])
def test_functional_overflow_exits_2(tmp_path, capsys, which):
    path = write_points(tmp_path, "huge.json", [[0, 0], [1e100, 0], [0, 1e100]])
    with np.errstate(over="ignore", invalid="ignore"):
        code, out, err = run_cli(["functional", "--input", path, "--which", which], capsys)
    assert code == 2
    assert out == ""
    assert "not finite" in err


@pytest.mark.parametrize(
    "points, options",
    [
        ([[0, 0], [1e100, 0], [0, 1e100]], ["--which", "vf"]),
        ([[0, 0], [1e100, 0], [0, 1e100]], ["--which", "rajan"]),
        ([[0, 0], [0.1, 0], [0, 0.1]], ["--which", "rf", "--alpha=-1000"]),
    ],
)
def test_functional_non_finite_exits_2_without_warnings(tmp_path, capsys, points, options):
    # The error line is all that reaches stderr: no numpy RuntimeWarning.
    path = write_points(tmp_path, "pts.json", points)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["functional", "--input", path, *options], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_functional_on_a_triangle_whose_area_overflows_exits_2(tmp_path, capsys):
    # The triangle is not degenerate (orient2 is exact), so the Delaunay
    # sweep accepts it; its area overflows, so the functional is not finite.
    path = write_points(tmp_path, "huge.json", [[0, 0], [1e160, 0], [0, 1e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["functional", "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: functional vf is not finite") and err.count("\n") == 1


@pytest.mark.parametrize("what, code", [("gamma", 2), ("subdivision", 0), ("triangulation", 0)])
def test_render_of_a_triangle_whose_circumcenter_overflows(tmp_path, capsys, what, code):
    # The circumcenter of the 1e160 triangle overflows: the gamma image
    # would draw it, so it exits 2 with one error line and nothing on stdout;
    # the other views draw only the points and their barycenters.
    path = write_points(tmp_path, "huge.json", [[0, 0], [1e160, 0], [0, 1e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(["render", "--input", path, "--what", what], capsys)
    assert got == code
    if code:
        assert out == ""
        assert err == "error: cannot draw the gamma image: its point 0 has a non-finite viewport coordinate\n"
    else:
        assert err == "" and out.startswith("<svg") and "nan" not in out


def test_functional_on_an_integer_grid_exits_3(tmp_path, capsys):
    path = write_points(tmp_path, "grid.json", [[x, y] for x in range(12) for y in range(12)])
    code, out, err = run_cli(["functional", "--input", path], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: not in general position: labels (") and err.count("\n") == 1


@pytest.mark.parametrize("diagonal", [(1, 4), (0, 2), (3, 5)])
def test_functional_dim3_per_tet_equals_one_tet_vf3(tmp_path, capsys, diagonal):
    from vorfunc.experiments import OCTA_LABELS, OCTA_POINTS, octahedron_decomposition
    from vorfunc.subdivision import TetComplex, vf3

    path = write_points(tmp_path, "octa.json", OCTA_POINTS.tolist())
    name = "".join(OCTA_LABELS[i] for i in diagonal)
    code, out, _ = run_cli(["functional", "--input", path, "--dim", "3", "--diagonal", name], capsys)
    assert code == 0
    obj = json.loads(out)
    tc = octahedron_decomposition(OCTA_POINTS, diagonal)
    expected = [vf3(TetComplex(tc.points, [tet])) for tet in tc.tets]
    assert [v for _, v in obj["per_simplex"]] == expected
    assert obj["total"] == sum(expected)
    assert obj["total"] == vf3(tc)


@pytest.mark.parametrize("diagonal", ["BE", "AC", "DX"])
def test_functional_dim3_total_does_not_depend_on_the_tetrahedron_order(tmp_path, capsys, monkeypatch, diagonal):
    # The total is one exactly rounded sum of every flag term, as in vf3, so
    # rotating the decomposition's tetrahedra moves the rows but not the total.
    import vorfunc.cli
    from vorfunc.experiments import OCTA_POINTS, octahedron_decomposition
    from vorfunc.subdivision import TetComplex

    def rotated(r):
        def decomposition(pts, diag):
            tc = octahedron_decomposition(pts, diag)
            return TetComplex(tc.points, tc.tets[r:] + tc.tets[:r])

        return decomposition

    path = write_points(tmp_path, "octa.json", OCTA_POINTS.tolist())
    totals = []
    for r in range(4):
        monkeypatch.setattr(vorfunc.cli, "octahedron_decomposition", rotated(r))
        code, out, _ = run_cli(["functional", "--input", path, "--dim", "3", "--diagonal", diagonal], capsys)
        assert code == 0
        totals.append(json.loads(out)["total"])
    assert len(set(totals)) == 1


@pytest.mark.parametrize("diagonal", ["1,2,3", "x,y", "1,1", "BB", "B", "", "AB", "0,1"])
def test_functional_dim3_rejects_a_malformed_or_non_diagonal_pair(tmp_path, capsys, diagonal):
    from vorfunc.experiments import OCTA_POINTS

    path = write_points(tmp_path, "octa.json", OCTA_POINTS.tolist())
    code, out, err = run_cli(["functional", "--input", path, "--dim", "3", "--diagonal", diagonal], capsys)
    assert code == 2
    assert out == ""
    if diagonal in ("AB", "0,1"):
        assert err == "error: (0, 1) is not a diagonal of the octahedron\n"
    else:
        assert err.startswith(f"error: --diagonal {diagonal!r}: expected two letters of ABCDEX or labels i,j")
