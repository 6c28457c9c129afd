import fractions
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from vorfunc.errors import (
    CapExceeded,
    CollinearImage,
    NonConvexQuad,
    NotGeneralPosition,
    NotInteriorEdge,
)
from vorfunc.experiments import FOLDED_POINTS, FOLDED_SWAP, OCTA_POINTS, octahedron_decomposition
from vorfunc.geom import simplex_volume
from vorfunc import tri2d
from vorfunc.subdivision import TetComplex, interior_cancellation_check
from vorfunc.tri2d import (
    Triangulation2,
    _radial_order,
    convex_hull,
    delaunay,
    empty_circumcircle_violations,
    enumerate_triangulations,
    flip,
    make_topological,
)

from conftest import random_delaunay


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_delaunay_single_triangle():
    d = delaunay(np.array([[0, 0], [1, 0], [0, 1]], float))
    assert d.canonical() == ((0, 1, 2),)


def test_point_set_keeps_a_read_only_copy(rng):
    pts = rng.random((20, 2))
    want = delaunay(pts.copy())
    got = delaunay(pts)
    pts[0] += 1.0
    assert got.triangles == want.triangles and np.array_equal(got.points, want.points)
    assert got.points is not pts
    with pytest.raises(ValueError):
        got.points[0, 0] = 0.0


_BAD_POINTS = {
    "nan": ([[0, 0], [1, 0], [np.nan, 1]], r"^point 2 has a non-finite coordinate$"),
    "inf": ([[0, 0], [np.inf, 0], [0, 1]], r"^point 1 has a non-finite coordinate$"),
    "-inf": ([[0, -np.inf], [1, 0], [0, 1]], r"^point 0 has a non-finite coordinate$"),
    "three columns": ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], r"^expected points of dimension 2, got shape \(3, 3\)$"),
}


@pytest.mark.parametrize("case", list(_BAD_POINTS))
def test_triangulation_rejects_non_finite_or_misshapen_points(case):
    pts, message = _BAD_POINTS[case]
    for kind in ("geometric", "topological"):
        with pytest.raises(ValueError, match=message):
            Triangulation2(pts, [(0, 1, 2)], kind=kind)
    with pytest.raises(ValueError, match=message):
        delaunay(pts)
    with pytest.raises(ValueError, match=message):
        convex_hull(pts)


@pytest.mark.parametrize("kind", ["geometric", "topological"])
@pytest.mark.parametrize("label", [-1, 3])
def test_triangulation_rejects_a_label_out_of_range(kind, label):
    # -1 would index the last point, and 3 would raise IndexError.
    pts = np.array([[0, 0], [1, 0], [0, 1]], float)
    with pytest.raises(ValueError, match=rf"^triangle \(0, 1, {label}\) has a label outside range\(3\)$"):
        Triangulation2(pts, [(0, 1, label)], kind=kind)


# Triangle (0, 1, 2) of _ON_A_LINE is degenerate: labels are checked before
# any orientation is read.
_ON_A_LINE = np.array([[0, 0], [1, 0], [2, 0], [0, 1]], float)


def _delaunay12():
    return delaunay(np.random.default_rng(5).random((12, 2)))


# Entry point -> (n, the call with label x, the simplex its message names).
_LABEL_ENTRY_POINTS = {
    "geometric": (4, lambda x: Triangulation2(_ON_A_LINE, [(0, 1, 2), (0, 3, x)]), "triangle (0, 3, {})"),
    "topological": (
        4,
        lambda x: Triangulation2(_ON_A_LINE, [(0, 1, 2), (0, 3, x)], kind="topological"),
        "triangle (0, 3, {})",
    ),
    "unnormalized": (4, lambda x: Triangulation2(_ON_A_LINE, [(0, 3, x)], _normalize=False), "triangle (0, 3, {})"),
    "tetrahedron": (6, lambda x: TetComplex(OCTA_POINTS, [(0, 1, 2, x)]), "tetrahedron (0, 1, 2, {})"),
    "diagonal": (6, lambda x: octahedron_decomposition(OCTA_POINTS, (1, x)), "diagonal (1, {})"),
    "edge": (12, lambda x: flip(_delaunay12(), (0, x)), "edge (0, {})"),
    "vertex": (12, lambda x: interior_cancellation_check(_delaunay12(), x), "vertex ({})"),
}


def _label_cases():
    for entry, (n, _, simplex) in _LABEL_ENTRY_POINTS.items():
        for x in (-1, n, 1.7):
            message = rf"^{re.escape(simplex.format(x))} has a label outside range\({n}\)$"
            yield pytest.param(entry, x, message, id=f"{entry}-{x}")
    # Both labels in range, but a repeated one is no diagonal.
    yield pytest.param("diagonal", 1, r"^\(1, 1\) is not a diagonal of the octahedron$", id="diagonal-repeated")


@pytest.mark.parametrize("entry, x, message", list(_label_cases()))
def test_every_label_entry_point_rejects_a_label_outside_range(entry, x, message):
    # -1 would read a point from the end, n would raise IndexError, and 1.7
    # would be truncated to 1.
    with pytest.raises(ValueError, match=message):
        _LABEL_ENTRY_POINTS[entry][1](x)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: Triangulation2(_ON_A_LINE, [(0, 1), (2, 3), (0, 2)], _normalize=False),
            r"triangle rows of 3 labels, got shape \(3, 2\)",
        ),
        (lambda: Triangulation2(_ON_A_LINE, [0, 1, 3, 1, 2, 3]), r"triangle rows of 3 labels, got shape \(6,\)"),
        (lambda: TetComplex(OCTA_POINTS, [0, 1, 2, 3, 0, 1, 2, 4]), r"tetrahedron rows of 4 labels, got shape \(8,\)"),
        (lambda: flip(_delaunay12(), (0, 1, 2)), r"edge rows of 2 labels, got shape \(3,\)"),
    ],
    ids=["pairs", "flat triangles", "flat tetrahedra", "three-label edge"],
)
def test_simplices_of_another_length_are_rejected(call, message):
    # Reshaped, these labels would regroup into other simplices.
    with pytest.raises(ValueError, match=rf"^expected {message}$"):
        call()


def test_delaunay_unit_square_rejected():
    with pytest.raises(NotGeneralPosition) as exc:
        delaunay(np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float))
    assert len(exc.value.labels) == 4


def test_delaunay_collinear_rejected():
    with pytest.raises(NotGeneralPosition):
        delaunay(np.array([[0, 0], [1, 0], [2, 0], [1, 1]], float))


def test_delaunay_random_empty_circumcircle(rng):
    d = random_delaunay(rng, 50)
    d.validate()
    assert empty_circumcircle_violations(d) == []


def _scipy_triangles(pts):
    from scipy.spatial import Delaunay

    return {tuple(sorted(int(i) for i in s)) for s in Delaunay(pts).simplices}


@pytest.mark.parametrize(
    "kind, n", [("uniform", 1000), ("anisotropic", 1000), ("uniform", 10000)], ids=str
)
def test_delaunay_matches_scipy_at_cli_sizes(kind, n):
    rng = np.random.default_rng(1000)
    if kind == "uniform":
        pts = rng.random((n, 2))
    else:
        # Gaussian with 20:1 axes, rotated: long thin triangles.
        ang = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        pts = (rng.standard_normal((n, 2)) * [1.0, 0.05]) @ rot.T
    assert set(delaunay(pts).canonical()) == _scipy_triangles(pts)


def _in_circle_int(a, b, c, d):
    """Exact in-circle determinant of integer points: > 0 when d is inside ccw (a, b, c)."""
    rows = [(p[0] - d[0], p[1] - d[1]) for p in (a, b, c)]
    (ax, ay), (bx, by), (cx, cy) = rows
    return (
        (ax * ax + ay * ay) * (bx * cy - by * cx)
        + (bx * bx + by * by) * (cx * ay - cy * ax)
        + (cx * cx + cy * cy) * (ax * by - ay * bx)
    )


def test_delaunay_on_integer_points_near_a_circle_is_exact_or_rejected():
    # The 12 integer points on x^2 + y^2 = 25 give many exactly cocircular
    # quads; random integer points add collinear triples and duplicates.
    circle = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
    rng = np.random.default_rng(25)
    accepted = 0
    for _ in range(400):
        on = rng.choice(len(circle), size=rng.integers(4, 8), replace=False)
        pts = [circle[i] for i in on] + rng.integers(-6, 7, size=(rng.integers(0, 6), 2)).tolist()
        pts = [tuple(int(c) for c in pts[i]) for i in rng.permutation(len(pts))]
        try:
            d = delaunay(np.array(pts, float))
        except NotGeneralPosition:
            continue
        accepted += 1
        assert set(d.canonical()) == _scipy_triangles(np.array(pts, float))
        for (i, j), tids in d.edge_map().items():
            if len(tids) == 2:
                t1, t2 = (d.triangles[k] for k in tids)
                (l,) = set(t2) - {i, j}
                assert _in_circle_int(*(pts[k] for k in t1), pts[l]) < 0
    assert accepted > 0


def test_delaunay_triangles_are_in_canonical_order(rng):
    d = random_delaunay(rng, 200)
    assert list(d.triangles) == sorted(d.triangles)
    for t in d.triangles:
        assert t[0] == min(t)
        assert simplex_volume(d.points[list(t)]) > 0


def test_triangulation_keeps_a_read_only_point_array(rng):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = Triangulation2(pts, [(0, 1, 2)])
    pts[1, 0] = -1.0
    assert t.points[1, 0] == 1.0 and t.signs == (1,)
    with pytest.raises(ValueError):
        t.points[0, 0] = 2.0
    # The triangulations of one enumeration share their root's array.
    tris = enumerate_triangulations(random_delaunay(rng, 7).points)
    assert all(u.points is tris[0].points for u in tris)


def test_flip_rectangle_diagonal():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 2, 3)])
    flipped = flip(t, (0, 2))
    assert flipped.canonical() == ((0, 1, 3), (1, 2, 3))


def test_flip_twice_is_identity():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 2, 3)])
    back = flip(flip(t, (0, 2)), (1, 3))
    assert back.canonical() == t.canonical()


def test_flip_hull_edge_rejected():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(NotInteriorEdge):
        flip(t, (0, 1))


def test_flip_nonconvex_rejected():
    # Vertex 3 sits inside triangle (0, 1, 2): edge (0, 2) is not flippable.
    pts = np.array([[0, 0], [4, 0], [2, 3], [2, 1]], float)
    t = Triangulation2(pts, [(0, 1, 3), (1, 2, 3), (0, 3, 2)])
    with pytest.raises(NonConvexQuad):
        flip(t, (0, 3))


def test_enumerate_convex_quad():
    pts = np.array([[0, 0], [2, 0], [2.1, 1], [0.2, 1.1]], float)
    assert len(enumerate_triangulations(pts)) == 2


def test_enumerate_interior_point_forces_fan():
    pts = np.array([[0, 0], [2, 0], [1, 2], [1.05, 0.7]], float)
    assert len(enumerate_triangulations(pts)) == 1


@pytest.mark.parametrize("n, catalan", [(5, 5), (6, 14), (7, 42), (8, 132), (9, 429), (10, 1430), (12, 16796)])
def test_enumerate_convex_polygon_catalan(rng, n, catalan):
    # A convex n-gon has Catalan number C_(n-2) triangulations; jittered radii
    # keep the corners off one circle.
    ang = np.linspace(0, 2 * np.pi, n + 1)[:n]
    rad = 1.0 + rng.uniform(-0.05, 0.05, n)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    tris = enumerate_triangulations(pts)
    assert len(tris) == catalan
    assert len({t.canonical() for t in tris}) == catalan


def test_enumerate_members_are_valid_and_distinct(rng):
    d = random_delaunay(rng, 7)
    tris = enumerate_triangulations(d.points)
    keys = {t.canonical() for t in tris}
    assert len(keys) == len(tris)
    assert d.canonical() in keys
    for t in tris:
        t.validate()


def test_enumerate_cap():
    ang = np.linspace(0, 2 * np.pi, 9)[:8]
    rad = 1.0 + np.linspace(0, 0.07, 8)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    with pytest.raises(CapExceeded):
        enumerate_triangulations(pts, cap=5)


@pytest.mark.parametrize("cap", [0, -5, 2.5, True, "7", None])
def test_enumerate_rejects_a_cap_that_is_not_a_positive_int(cap):
    pts = np.array([[0, 0], [1, 0], [0, 1]], float)
    with pytest.raises(ValueError, match="cap must be an int >= 1"):
        enumerate_triangulations(pts, cap=cap)


def _reference_enumeration(pts):
    # Depth-first search over the flip graph through the public API only.
    root = delaunay(pts)
    seen = {root.canonical(): root}
    stack = [root]
    while stack:
        cur = stack.pop()
        for edge, tids in cur.edge_map().items():
            if len(tids) != 2:
                continue
            try:
                nxt = flip(cur, edge)
            except NonConvexQuad:
                continue
            if nxt.canonical() not in seen:
                seen[nxt.canonical()] = nxt
                stack.append(nxt)
    return list(seen.values())


def _assert_matches_reference(pts):
    ref = _reference_enumeration(pts)
    got = enumerate_triangulations(pts)
    assert [t.canonical() for t in got] == [t.canonical() for t in ref]
    assert [t.triangles for t in got] == [t.triangles for t in ref]
    assert len(enumerate_triangulations(pts, cap=len(ref))) == len(ref)
    # A set with one triangulation leaves cap 0, which is not a cap at all.
    with pytest.raises(CapExceeded if len(ref) > 1 else ValueError):
        enumerate_triangulations(pts, cap=len(ref) - 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10])
def test_enumeration_order_matches_reference_and_cap_is_exact(rng, n):
    _assert_matches_reference(random_delaunay(rng, n).points)


def test_enumeration_order_matches_reference_on_a_thin_gaussian():
    # A 20:1 Gaussian puts most of its points on the hull, so most flips
    # meet hull edges.
    pts = np.random.default_rng(2709).standard_normal((9, 2)) * [1.0, 0.05]
    _assert_matches_reference(pts)


def test_flip_from_delaunay_decreases_angle_vector(rng):
    # Lexicographic max-min angle characterization.
    def angle_vector(t):
        angs = []
        for tri in t.triangles:
            v = t.points[list(tri)]
            for i in range(3):
                u1 = v[(i + 1) % 3] - v[i]
                u2 = v[(i + 2) % 3] - v[i]
                angs.append(
                    np.arccos(np.clip((u1 @ u2) / np.linalg.norm(u1) / np.linalg.norm(u2), -1, 1))
                )
        return sorted(angs)

    for _ in range(10):
        d = random_delaunay(rng, 8)
        base = angle_vector(d)
        for edge in [e for e, ts in d.edge_map().items() if len(ts) == 2]:
            try:
                flipped = flip(d, edge)
            except NonConvexQuad:
                continue
            assert angle_vector(flipped) < base


def test_make_topological_identity(rng):
    d = random_delaunay(rng, 6)
    t = make_topological(d, list(range(6)))
    assert t.kind == "topological"
    assert t.signs == (1,) * len(t.triangles)
    assert t.canonical() == d.canonical()


def test_make_topological_swap_flips_shared_triangles(rng):
    # Swapping two vertex positions always reverses the triangles containing
    # both of them (other triangles may or may not flip, depending on shape).
    for _ in range(20):
        d = random_delaunay(rng, 6)
        interior = [e for e, ts in d.edge_map().items() if len(ts) == 2]
        if not interior:
            continue
        u, v = interior[0]
        perm = list(range(6))
        perm[u], perm[v] = v, u
        try:
            k = make_topological(d, perm)
        except CollinearImage:
            continue
        for idx, tri in enumerate(d.triangles):
            if u in tri and v in tri:
                assert k.signs[idx] == -1
        return
    pytest.fail("no instance with an interior edge")


def _interior_vertex_swap(rng, n):
    # A Delaunay triangulation with two interior vertices swapped.
    for _ in range(100):
        d = random_delaunay(rng, n)
        interior = sorted(set(range(n)) - d.boundary_vertices())
        if len(interior) < 2:
            continue
        u, v = interior[:2]
        perm = list(range(n))
        perm[u], perm[v] = v, u
        try:
            return d, make_topological(d, perm)
        except CollinearImage:
            continue
    pytest.fail("no instance with two interior vertices")


def test_make_topological_signed_area_identity(rng):
    # Swapping interior vertices keeps the boundary cycle, so the signed
    # covering sums to the hull area.
    d, k = _interior_vertex_swap(rng, 9)
    total = sum(
        s * abs(simplex_volume(k.points[list(tri)])) for s, tri in zip(k.signs, k.triangles)
    )
    hull = convex_hull(d.points)
    hull_area = sum(
        simplex_volume(d.points[[hull[0], hull[i], hull[i + 1]]])
        for i in range(1, len(hull) - 1)
    )
    assert total == pytest.approx(hull_area, rel=1e-9)


def test_make_topological_collinear_image():
    # Positions 0, 1, 4 are exactly collinear but never form a triangle of the
    # Delaunay complex; a relabeling that maps a triangle onto them must fail.
    pts = np.array([[0, 0], [1, 0.1], [1.5, -2], [1.5, 2], [2, 0.2]], float)
    t = delaunay(pts)
    target = {0, 1, 4}
    assert all(set(tri) != target for tri in t.triangles)
    i, j, k = t.triangles[0]
    perm = list(range(5))
    rest_src = [x for x in range(5) if x not in (i, j, k)]
    rest_dst = [x for x in range(5) if x not in target]
    for src, dst in zip((i, j, k), sorted(target)):
        perm[src] = dst
    for src, dst in zip(rest_src, rest_dst):
        perm[src] = dst
    with pytest.raises(CollinearImage):
        make_topological(t, perm)


def test_json_round_trip(rng):
    d = random_delaunay(rng, 8)
    t2 = Triangulation2.from_json(d.to_json(), d.points)
    assert t2.canonical() == d.canonical() and np.array_equal(t2.points, d.points)
    assert json.loads(d.to_json())["kind"] == "geometric"


def test_malformed_triangulations_are_rejected_by_name():
    pts = np.array([[0, 0], [1, 0], [0, 1]], float)
    with pytest.raises(ValueError, match="unknown triangulation kind 'bogus'"):
        Triangulation2.from_json('{"triangles": [[0, 1, 2]], "kind": "bogus"}', pts)
    with pytest.raises(ValueError, match="unknown triangulation kind"):
        Triangulation2(pts, [(0, 1, 2)], kind="Geometric")
    for tri in ([0, 1, 2.7], [0, 1, 5], [0, 1], [0, 1, -1], [0, 1, True], [0, 1, "2"], 3):
        text = json.dumps({"triangles": [tri]})
        with pytest.raises(ValueError, match=r"^triangle .* is not three labels in range\(3\)$"):
            Triangulation2.from_json(text, pts)
    # An integral float is a label; the result is the same triangulation.
    assert Triangulation2.from_json('{"triangles": [[0, 1.0, 2]]}', pts).triangles == ((0, 1, 2),)
    d = delaunay(np.array([[0, 0], [1, 0], [0, 1], [1, 1.1], [0.4, 0.5], [0.2, 1.7]], float))
    for perm in ([0, 1.5, 2, 3, 4, 5], [0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 4, float("nan")]):
        with pytest.raises(ValueError, match=r"^relabeling entry .* is not a label in range\(6\)$"):
            make_topological(d, perm)
    assert make_topological(d, np.arange(6.0)).kind == "topological"
    assert make_topological(d, (i for i in range(6))).triangles == d.triangles


def test_delaunay_names_the_hull_edge_a_new_point_is_collinear_with():
    # The first triple (0, 1, 2) is clockwise; point 3 lies on the line of hull edge (0, 2).
    with pytest.raises(NotGeneralPosition) as exc:
        delaunay(np.array([[0, 0], [0, 1], [1, 0], [2, 0]], float))
    assert exc.value.args[0] == "point 3 collinear with hull edge (0, 2)"
    assert exc.value.labels == (0, 2, 3)


def test_delaunay_accepts_a_point_collinear_with_a_hull_edge_that_a_later_point_covers():
    # Point 3 lies on the line of hull edge (0, 2) when it is added, and
    # without point 4 the set is rejected; point 4 covers vertex 0 between
    # the collinear edges, and the Delaunay triangulation is unique.
    pts = np.array([[0, 0], [3, 4], [0, -5], [0, 5], [-3, -4]], float)
    with pytest.raises(NotGeneralPosition, match="point 3 collinear with hull edge"):
        delaunay(pts[:4])
    _assert_delaunay(pts)


def test_delaunay_of_antipodal_pairs_on_a_circle_and_its_centre():
    # Each pair is collinear with the centre, which meets the hull edges of
    # the first points on their lines; the covered vertices leave no
    # collinear hull triple, so every set is triangulated.
    circle = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
    pairs = [p for p in circle if p > (0, 0)]
    rng = np.random.default_rng(30)
    for _ in range(400):
        chosen = [pairs[i] for i in rng.choice(len(pairs), size=rng.integers(2, len(pairs) + 1), replace=False)]
        pts = chosen + [(-x, -y) for x, y in chosen] + [(0, 0)]
        _assert_delaunay(np.array([pts[i] for i in rng.permutation(len(pts))], float))


def test_delaunay_rejects_collinear_points_and_fewer_than_three():
    with pytest.raises(NotGeneralPosition) as exc:
        delaunay(np.array([[0, 0], [1, 1], [3, 3], [2, 2]], float))
    a, b, c = exc.value.labels
    assert exc.value.args[0] == f"collinear points {a}, {b}, {c}" and len({a, b, c}) == 3
    for pts in ([[0, 0], [1, 0]], [[0, 0]]):
        with pytest.raises(ValueError, match=r"^need at least 3 points$"):
            delaunay(np.array(pts, float))


def test_empty_circumcircle_violations_names_each_triangle_and_the_point_in_its_circle():
    # Flipping the one interior edge of a convex quad's Delaunay
    # triangulation puts each new triangle's opposite corner in its circle.
    d = delaunay(np.array([[0, 0], [3, 0], [2.5, 2], [0, 1]], float))
    assert empty_circumcircle_violations(d) == []
    f = flip(d, (1, 3))
    assert f.triangles == ((1, 2, 0), (3, 0, 2))
    assert empty_circumcircle_violations(f) == [(0, 3), (1, 1)]


def test_geometric_triangulation_rejects_an_exactly_collinear_triangle():
    pts = np.array([[0, 0], [1, 1], [3, 3], [0, 1]], float)
    with pytest.raises(NotGeneralPosition) as exc:
        Triangulation2(pts, [(0, 3, 1), (0, 1, 2)])
    assert exc.value.args == ("degenerate triangle (0, 1, 2)", (0, 1, 2))


def test_make_topological_rejects_a_relabeling_that_is_not_a_permutation():
    d = delaunay(np.array([[0, 0], [1, 0], [0, 1], [1, 1.1]], float))
    for perm in ([0, 1, 2, 2], [0, 1, 2], [0, 1, 2, 3, 0]):
        with pytest.raises(ValueError, match=r"^relabeling must be a permutation of the vertex labels$"):
            make_topological(d, perm)


def test_delaunay_names_duplicate_points_by_their_labels():
    with pytest.raises(NotGeneralPosition) as exc:
        delaunay(np.array([[0, 0], [1, 0], [0, 1], [1, 0], [2, 2]], float))
    assert exc.value.args[0] == "duplicate points 1, 3"
    assert exc.value.labels == (1, 3)


@pytest.mark.parametrize("first", ["ccw", "cw"])
def test_delaunay_hull_walk_matches_scipy_on_thin_sets(first):
    # Thin sets give long visible hull chains on both sides of the last point.
    Delaunay = pytest.importorskip("scipy.spatial").Delaunay
    rng = np.random.default_rng(12 if first == "ccw" else 13)
    for _ in range(20):
        pts = rng.standard_normal((300, 2)) * [1.0, 1e-3]
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        (ax, ay), (bx, by), (cx, cy) = pts[order[:3]]
        if ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0) != (first == "ccw"):
            pts[:, 1] *= -1.0
        got = delaunay(pts)
        want = {tuple(sorted(s)) for s in Delaunay(pts).simplices.tolist()}
        assert set(got.canonical()) == want


def test_delaunay_decides_a_near_collinear_hull_point_exactly():
    # Point 1844 lies 1.8e-10 off the line of hull edge (2084, 2287) when the
    # sweep adds it; a relative tolerance of 1e-9 rejected the set as collinear.
    pts = np.random.default_rng(np.random.SeedSequence(213, spawn_key=(3, 2))).random((3000, 2))
    assert set(delaunay(pts).canonical()) == _scipy_triangles(pts)


def _midpoint(pts):
    """The sweep's centre: the midpoint of the bounding box, as lo / 2 + hi / 2."""
    return (pts.min(axis=0) / 2 + pts.max(axis=0) / 2).tolist()


def _exact_radial_order(pts):
    """Labels by exact squared distance from the bounding box's midpoint, ties by label."""
    cx, cy = map(fractions.Fraction, _midpoint(pts))
    key = [(fractions.Fraction(x) - cx) ** 2 + (fractions.Fraction(y) - cy) ** 2 for x, y in pts.tolist()]
    return sorted(range(len(pts)), key=lambda i: (key[i], i))


def _assert_delaunay(pts):
    d = delaunay(pts)
    assert set(d.canonical()) == _scipy_triangles(pts)
    assert empty_circumcircle_violations(d) == []
    return d


def test_radial_order_is_exact_where_float_keys_tie_or_differ_by_an_ulp():
    # Opposite corners of the bounding box, and a pair mirrored through its
    # midpoint, have squared distances that tie or differ by a few ulps in
    # floats: no float bound separates them, and they are ordered exactly.
    rng = np.random.default_rng(28)
    ties = 0
    for _ in range(100):
        n = int(rng.integers(6, 11))
        pts = rng.random((n, 2))
        pts[0] = pts.min(axis=0) - 0.1 * rng.random(2)
        pts[1] = pts.max(axis=0) + 0.1 * rng.random(2)
        cx, cy = _midpoint(pts)
        pts[3] = [2 * cx - pts[2, 0], 2 * cy - pts[2, 1]]
        keys = [(x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in pts.tolist()]
        for a, b in ((0, 1), (2, 3)):
            assert abs(keys[a] - keys[b]) <= 4 * math.ulp(keys[a])
            ties += keys[a] == keys[b]
        assert _radial_order(pts.tolist(), cx, cy) == _exact_radial_order(pts)
        _assert_delaunay(pts)
    assert 0 < ties < 200


def test_a_tie_sorts_only_its_run_in_rationals(monkeypatch):
    # Two ties among 10^4 points: opposite corners of the unit box and a pair
    # mirrored through its midpoint.  The exact comparison covers the pairs,
    # not the whole set.
    runs = []

    def exact_sort(xy, cx, cy, labels):
        runs.append(len(labels))
        return exact(xy, cx, cy, labels)

    exact = tri2d._exact_radial_sort
    monkeypatch.setattr(tri2d, "_exact_radial_sort", exact_sort)
    pts = np.random.default_rng(10000).random((10000, 2))
    pts[0], pts[-1] = [0.0, 0.0], [1.0, 1.0]
    pts[1] = [1.0 - pts[2, 0], 1.0 - pts[2, 1]]
    assert _radial_order(pts.tolist(), 0.5, 0.5) == _exact_radial_order(pts)
    assert 0 < len(runs) and max(runs) <= 4, runs


def test_delaunay_decides_underflowing_and_overflowing_keys_exactly():
    # At 2^-540 the squared distances underflow to zero or subnormals, at
    # 2^520 they overflow: every key comparison is made exactly, and every
    # predicate too, so the triangles are those at scale 1.
    pts = np.random.default_rng(540).random((1000, 2))
    d = _assert_delaunay(pts)
    for k in (-540, 520):
        scaled = pts * 2.0**k
        assert _radial_order(scaled.tolist(), *_midpoint(scaled)) == _exact_radial_order(pts)
        assert delaunay(scaled).triangles == d.triangles, k


def test_delaunay_fans_collinear_nearest_points_and_rejects_them_on_the_hull():
    # The three points nearest the midpoint lie on one line and seed the
    # sweep as a fan.  With points on both sides the line ends inside the
    # hull; with every other point on one side it stays on the hull, a
    # collinear hull triple.
    rng = np.random.default_rng(3)
    line = [[-0.125, -0.125], [0.0, -0.125], [0.1875, -0.125]]
    for _ in range(10):
        ang = rng.uniform(0.0, 2.0 * np.pi, 40)
        ring = np.c_[np.cos(ang), np.sin(ang)] * rng.uniform(0.4, 0.9, (40, 1))
        pts = np.array(line + [[1, 1], [-1, -1], [1, -1], [-1, 1]] + ring.tolist())[rng.permutation(47)]
        labels = set(_exact_radial_order(pts)[:3])
        assert {tuple(pts[i]) for i in labels} == {tuple(p) for p in line}
        _assert_delaunay(pts)
        # Above the line only, with the box's midpoint 1/8 above it.
        top = np.c_[rng.uniform(-1.0, 1.0, 40), rng.uniform(-0.1, 0.125, 40)]
        top = top[np.abs(top[:, 0]) > 0.4]
        pts = np.array(line + [[-1, 0.125], [1, 0.125]] + top.tolist())[rng.permutation(len(top) + 5)]
        labels = _exact_radial_order(pts)[:3]
        assert {tuple(pts[i]) for i in labels} == {tuple(p) for p in line}
        with pytest.raises(NotGeneralPosition) as exc:
            delaunay(pts)
        a, b, c = exc.value.labels
        assert exc.value.args[0] == f"collinear hull points {a}, {b}, {c}" and {a, b, c} == set(labels)
        assert pts[a, 0] < pts[b, 0] < pts[c, 0] or pts[a, 0] > pts[b, 0] > pts[c, 0]


def test_delaunay_on_integer_points_on_a_circle_about_the_midpoint():
    # Points on x^2 + y^2 = 25 in antipodal pairs, with the four on the axes,
    # keep the bounding box's midpoint at the origin, so their squared
    # distances tie exactly.  No three points are collinear: a set is
    # rejected as cocircular with four labels, or triangulated correctly.
    circle = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
    pairs = [p for p in circle if p > (0, 0) and 0 not in p]
    inner = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if x * x + y * y < 25]
    rng = np.random.default_rng(28)
    outcomes = {"accepted": 0, "rejected": 0}
    while sum(outcomes.values()) < 100:
        chosen = [pairs[i] for i in rng.choice(len(pairs), size=rng.integers(0, 5), replace=False)] + [(5, 0), (0, 5)]
        extra = [inner[i] for i in rng.choice(len(inner), size=rng.integers(0, 4), replace=False)]
        pts = chosen + [(-x, -y) for x, y in chosen] + extra
        triples = itertools.combinations(pts, 3)
        if any((b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]) for a, b, c in triples):
            continue
        pts = [pts[i] for i in rng.permutation(len(pts))]
        try:
            d = delaunay(np.array(pts, float))
        except NotGeneralPosition as exc:
            assert len(exc.labels) == 4 and _in_circle_int(*(pts[i] for i in exc.labels)) == 0
            outcomes["rejected"] += 1
            continue
        outcomes["accepted"] += 1
        assert set(d.canonical()) == _scipy_triangles(np.array(pts, float))
        for (i, j), tids in d.edge_map().items():
            if len(tids) == 2:
                t1, t2 = (d.triangles[k] for k in tids)
                (l,) = set(t2) - {i, j}
                assert _in_circle_int(*(pts[k] for k in t1), pts[l]) < 0
    assert min(outcomes.values()) > 10, outcomes


def test_delaunay_is_invariant_under_power_of_two_scaling():
    # Scaling by 2^k is exact, so exact predicates give the same triangles at
    # every k; a tolerance of length^5 against a length^4 in-circle
    # determinant called quad (145, 194, 176, 66) cocircular at k = 10 and 12.
    rng = np.random.default_rng(187)
    n = rng.integers(4, 400)
    rng.uniform(1e-3, 1e3)
    pts = rng.standard_normal((n, 2))
    d = delaunay(pts)
    assert len(pts) == 231 and set(d.canonical()) == _scipy_triangles(pts)
    for k in range(-40, 41):
        assert delaunay(pts * 2.0**k).triangles == d.triangles, k


def test_flip_keeps_the_other_triangles_and_appends_the_new_pair():
    # Edge (0, 3) runs as (3, 0) in the earlier triangle (0, 2, 3): the new
    # triangles are (3, 4, 2) and (0, 2, 4), in that order, after (0, 1, 2).
    pts = np.array([[0, 0], [2, 0], [3, 1], [1, 2], [-1, 1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    assert flip(t, (0, 3)).triangles == ((0, 1, 2), (3, 4, 2), (0, 2, 4))


@pytest.mark.parametrize("kind", ["uniform", "gaussian"])
def test_flip_of_every_interior_edge_keeps_the_order_and_flips_back(kind):
    rng = np.random.default_rng(3304)
    pts = rng.random((30, 2)) if kind == "uniform" else rng.standard_normal((30, 2)) * [1.0, 0.05]
    t = delaunay(pts)
    xy = t.points.tolist()
    flipped = 0
    for u, v, k, l in tri2d._interior_edges(tri2d._directed_edges(t.triangles)):
        if not tri2d._strictly_convex(xy, u, v, k, l):
            with pytest.raises(NonConvexQuad):
                flip(t, (u, v))
            continue
        f = flip(t, (u, v))
        gone = ({u, v, k}, {u, v, l})
        assert f.triangles == tuple(tri for tri in t.triangles if set(tri) not in gone) + ((u, l, k), (v, k, l))
        f.validate()
        assert set(flip(f, (k, l)).canonical()) == set(t.canonical())
        flipped += 1
    assert flipped > 30


def test_flip_errors_keep_their_messages():
    pts = np.array([[0, 0], [4, 0], [2, 3], [2, 1]], float)
    t = Triangulation2(pts, [(0, 1, 3), (1, 2, 3), (0, 3, 2)])
    with pytest.raises(NotInteriorEdge, match=r"^edge \(0, 1\) is not an interior edge$"):
        flip(t, (1, 0))
    with pytest.raises(NotInteriorEdge, match=r"^edge \(0, 2\) is not an interior edge$"):
        flip(t, (2, 0))
    with pytest.raises(NonConvexQuad, match=r"^quad around edge \(0, 3\) is not strictly convex$"):
        flip(t, (3, 0))


def test_flip_rejects_inconsistently_oriented_triangles():
    # Two ccw triangles on the same side of edge (0, 1) both run along
    # directed edge (0, 1): no consistent orientation.
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1.2]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(ValueError, match="not consistently oriented") as exc:
        flip(t, (0, 1))
    assert type(exc.value) is ValueError


# Six vertices in general position for topological surfaces; every triple's image is a triangle.
_SURFACE_POINTS = np.array([[0.0, 0.0], [3.0, 0.3], [1.1, 2.7], [-1.9, 1.6], [-2.2, -1.3], [1.4, -2.4]])
# The octahedron's boundary, oriented outward: +x, -x, +y, -y, +z, -z are labels 0-5.
_OCTAHEDRON_SURFACE = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]


def test_validate_rejects_a_closed_surface():
    # The 6-vertex projective plane is a closed surface with Euler
    # characteristic 1, but it is not orientable, so some directed edge
    # repeats however its triples are listed.  The octahedron's surface is
    # orientable and closed: Euler characteristic 2.
    tris = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
            (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]
    ang = np.arange(5) * 2 * np.pi / 5
    pts = np.vstack([[0.0, 0.0], np.c_[np.cos(ang), np.sin(ang)]])
    text = json.dumps({"triangles": tris, "kind": "topological"})
    with pytest.raises(ValueError, match="not consistently oriented"):
        Triangulation2.from_json(text, pts)
    text = json.dumps({"triangles": _OCTAHEDRON_SURFACE, "kind": "topological"})
    with pytest.raises(ValueError, match=r"^Euler characteristic 2 != 1$"):
        Triangulation2.from_json(text, _SURFACE_POINTS)


def test_coverage_check_is_scale_free():
    # The label-swapped folded triangulation covers its central quadrangle
    # three times, so its ccw-normalized triples repeat a directed edge at
    # every scale; the Delaunay triangulation of the same points tiles the
    # hull at every scale.
    text = delaunay(FOLDED_POINTS).to_json()
    for k in range(-40, 41):
        with pytest.raises(ValueError, match="not consistently oriented"):
            Triangulation2.from_json(text, FOLDED_POINTS[list(FOLDED_SWAP)] * 2.0**k)
        Triangulation2.from_json(text, FOLDED_POINTS * 2.0**k)


def test_topological_triples_must_be_consistently_oriented():
    # The sign of a topological triangle is read against its triple's order,
    # so reversing one triple would change the VF (0.2033 to -0.0367).
    from vorfunc.functional2d import vf_triangulation

    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1.2]], float)

    def load(tris):
        return Triangulation2.from_json(json.dumps({"triangles": tris, "kind": "topological"}), pts)

    want = vf_triangulation(load([[0, 1, 2], [0, 2, 3]])).total
    assert want == pytest.approx(0.61 / 3, rel=1e-12)
    for tris in ([[1, 2, 0], [0, 2, 3]], [[2, 0, 1], [3, 0, 2]], [[0, 1, 2], [2, 3, 0]]):
        assert vf_triangulation(load(tris)).total == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="not consistently oriented"):
        load([[0, 1, 2], [0, 3, 2]])


def test_topological_constructor_rejects_inconsistently_oriented_triples():
    # Not only from_json: built directly, [(0, 1, 2), (0, 3, 2)] had VF
    # -0.0367 where the consistently oriented triples give 0.2033.
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1.2]], float)
    with pytest.raises(ValueError, match=_ORIENTATION) as exc:
        Triangulation2(pts, [(0, 1, 2), (0, 3, 2)], kind="topological")
    assert type(exc.value) is ValueError
    Triangulation2(pts, [(0, 1, 2), (0, 2, 3)], kind="topological")


_ORIENTATION = r"^triangles are not consistently oriented: a directed edge repeats$"
# One input per message of validate: (points, triangles, kind, message).
_REJECTIONS = {
    "empty": (_SURFACE_POINTS[:3], [], "geometric", r"^empty triangulation$"),
    "unused label": (_SURFACE_POINTS[:4], [(0, 1, 2)], "geometric", r"^triangulation must use every point label exactly$"),
    "edge with three triangles": (_SURFACE_POINTS[:5], [(0, 1, 2), (1, 0, 3), (0, 1, 4)], "topological", _ORIENTATION),
    "bowtie": (
        np.array([[0, 0], [1, 0], [1, 1], [-1, 0], [-1, -1]], float),
        [(0, 1, 2), (0, 3, 4)],
        "geometric",
        r"^link of vertex 0 is pinched$",
    ),
    "two disjoint triangles": (_SURFACE_POINTS, [(0, 1, 2), (3, 4, 5)], "geometric", r"^triangulation is not connected$"),
    "annulus": (
        np.array([[0, 0], [4, 0], [4, 4], [0, 4], [1, 1.1], [3, 0.9], [3.1, 3], [0.9, 2.9]], float),
        [(0, 1, 5), (0, 5, 4), (1, 2, 6), (1, 6, 5), (2, 3, 7), (2, 7, 6), (3, 0, 4), (3, 4, 7)],
        "geometric",
        r"^Euler characteristic 0 != 1$",
    ),
    "octahedron surface": (_SURFACE_POINTS, _OCTAHEDRON_SURFACE, "topological", r"^Euler characteristic 2 != 1$"),
    # The pentagon (0, 4, 1, 2, 3) without its ear (0, 4, 1): a disk that
    # leaves a sliver of the hull square uncovered.
    "disk missing a hull ear": (
        np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 0.2]], float),
        [(4, 1, 2), (4, 2, 3), (4, 3, 0)],
        "geometric",
        r"^boundary edges are not the hull edges$",
    ),
    "folded label swap": (FOLDED_POINTS[list(FOLDED_SWAP)], delaunay(FOLDED_POINTS).triangles, "geometric", _ORIENTATION),
}


@pytest.mark.parametrize("case", list(_REJECTIONS))
def test_validate_names_each_rejection(case):
    pts, tris, kind, message = _REJECTIONS[case]
    text = json.dumps({"triangles": [list(t) for t in tris], "kind": kind})
    with pytest.raises(ValueError, match=message) as exc:
        Triangulation2.from_json(text, pts)
    assert type(exc.value) is ValueError
