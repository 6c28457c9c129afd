import json

import numpy as np
import pytest

from vorfunc.errors import (
    CapExceeded,
    CollinearImage,
    NonConvexQuad,
    NotGeneralPosition,
    NotInteriorEdge,
)
from vorfunc.experiments import FOLDED_POINTS, FOLDED_SWAP
from vorfunc.geom import signed_area
from vorfunc.tri2d import (
    FlipMove,
    PointSet2,
    Triangulation2,
    convex_hull,
    delaunay,
    empty_circumcircle_violations,
    enumerate_triangulations,
    flip,
    make_topological,
)

from conftest import random_delaunay


def test_delaunay_single_triangle():
    d = delaunay(np.array([[0, 0], [1, 0], [0, 1]], float))
    assert d.canonical() == ((0, 1, 2),)


def test_point_set_keeps_a_read_only_copy(rng):
    pts = rng.random((20, 2))
    want = delaunay(pts.copy())
    ps = PointSet2(pts)
    pts[0] += 1.0
    got = delaunay(ps)
    assert got.triangles == want.triangles and np.array_equal(got.points, want.points)
    assert delaunay(pts).points is not pts
    with pytest.raises(ValueError):
        ps.points[0, 0] = 0.0
    assert hash(ps) == hash(ps) and ps == ps and ps != PointSet2(pts)


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
        assert signed_area(*d.points[list(t)]) > 0


def test_triangulation_keeps_a_read_only_point_array(rng):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = Triangulation2(pts, [(0, 1, 2)])
    pts[1, 0] = -1.0
    assert t.points[1, 0] == 1.0 and t.signs == (1,)
    with pytest.raises(ValueError):
        t.points[0, 0] = 2.0
    # A point set's array, read-only and owning its data, is shared.
    ps = PointSet2(random_delaunay(rng, 7).points)
    assert all(u.points is ps.points for u in enumerate_triangulations(ps))


def test_flip_rectangle_diagonal():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 2, 3)])
    flipped = flip(t, FlipMove((0, 2)))
    assert flipped.canonical() == ((0, 1, 3), (1, 2, 3))


def test_flip_twice_is_identity():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 2, 3)])
    back = flip(flip(t, FlipMove((0, 2))), FlipMove((1, 3)))
    assert back.canonical() == t.canonical()


def test_flip_hull_edge_rejected():
    pts = np.array([[0, 0], [2, 0], [2, 1], [0, 1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(NotInteriorEdge):
        flip(t, FlipMove((0, 1)))


def test_flip_nonconvex_rejected():
    # Vertex 3 sits inside triangle (0, 1, 2): edge (0, 2) is not flippable.
    pts = np.array([[0, 0], [4, 0], [2, 3], [2, 1]], float)
    t = Triangulation2(pts, [(0, 1, 3), (1, 2, 3), (0, 3, 2)])
    with pytest.raises(NonConvexQuad):
        flip(t, FlipMove((0, 3)))


def test_enumerate_convex_quad():
    pts = np.array([[0, 0], [2, 0], [2.1, 1], [0.2, 1.1]], float)
    assert len(enumerate_triangulations(PointSet2(pts))) == 2


def test_enumerate_interior_point_forces_fan():
    pts = np.array([[0, 0], [2, 0], [1, 2], [1.05, 0.7]], float)
    assert len(enumerate_triangulations(PointSet2(pts))) == 1


@pytest.mark.parametrize("n, catalan", [(5, 5), (6, 14), (7, 42), (8, 132), (9, 429), (10, 1430)])
def test_enumerate_convex_polygon_catalan(rng, n, catalan):
    # A convex n-gon has Catalan number C_(n-2) triangulations; jittered radii
    # keep the corners off one circle.
    ang = np.linspace(0, 2 * np.pi, n + 1)[:n]
    rad = 1.0 + rng.uniform(-0.05, 0.05, n)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
    tris = enumerate_triangulations(PointSet2(pts))
    assert len(tris) == catalan
    assert len({t.canonical() for t in tris}) == catalan


def test_enumerate_members_are_valid_and_distinct(rng):
    d = random_delaunay(rng, 7)
    tris = enumerate_triangulations(PointSet2(d.points))
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
        enumerate_triangulations(PointSet2(pts), cap=5)


def _reference_enumeration(ps):
    # Depth-first search over the flip graph through the public API only.
    root = delaunay(ps)
    seen = {root.canonical(): root}
    stack = [root]
    while stack:
        cur = stack.pop()
        for edge, tids in cur.edge_map().items():
            if len(tids) != 2:
                continue
            try:
                nxt = flip(cur, FlipMove(edge))
            except NonConvexQuad:
                continue
            if nxt.canonical() not in seen:
                seen[nxt.canonical()] = nxt
                stack.append(nxt)
    return list(seen.values())


@pytest.mark.parametrize("n", [7, 8, 9])
def test_enumeration_order_matches_reference_and_cap_is_exact(rng, n):
    ps = PointSet2(random_delaunay(rng, n).points)
    ref = _reference_enumeration(ps)
    got = enumerate_triangulations(ps)
    assert [t.canonical() for t in got] == [t.canonical() for t in ref]
    assert [t.triangles for t in got] == [t.triangles for t in ref]
    assert len(enumerate_triangulations(ps, cap=len(ref))) == len(ref)
    with pytest.raises(CapExceeded):
        enumerate_triangulations(ps, cap=len(ref) - 1)


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
        for edge in d.interior_edges():
            try:
                flipped = flip(d, FlipMove(edge))
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
        interior = d.interior_edges()
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
        s * abs(signed_area(*k.points[list(tri)])) for s, tri in zip(k.signs, k.triangles)
    )
    hull = convex_hull(d.points)
    hull_area = sum(
        signed_area(d.points[hull[0]], d.points[hull[i]], d.points[hull[i + 1]])
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
    ps = PointSet2(d.points)
    ps2 = PointSet2.from_json(ps.to_json())
    assert np.allclose(ps2.points, ps.points)
    t2 = Triangulation2.from_json(d.to_json(), ps2.points)
    assert t2.canonical() == d.canonical()
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
    assert flip(t, FlipMove((0, 3))).triangles == ((0, 1, 2), (3, 4, 2), (0, 2, 4))


def test_flip_errors_keep_their_messages():
    pts = np.array([[0, 0], [4, 0], [2, 3], [2, 1]], float)
    t = Triangulation2(pts, [(0, 1, 3), (1, 2, 3), (0, 3, 2)])
    with pytest.raises(NotInteriorEdge, match=r"^edge \(0, 1\) is not an interior edge$"):
        flip(t, FlipMove((1, 0)))
    with pytest.raises(NotInteriorEdge, match=r"^edge \(0, 2\) is not an interior edge$"):
        flip(t, FlipMove((2, 0)))
    with pytest.raises(NonConvexQuad, match=r"^quad around edge \(0, 3\) is not strictly convex$"):
        flip(t, FlipMove((3, 0)))


def test_flip_rejects_inconsistently_oriented_triangles():
    # Both triangles run along directed edge (0, 1): no consistent orientation.
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, -1]], float)
    t = Triangulation2(pts, [(0, 1, 2), (0, 1, 3)], kind="topological")
    with pytest.raises(ValueError, match="not consistently oriented") as exc:
        flip(t, FlipMove((0, 1)))
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
