import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from vorfunc.errors import NotInteriorVertex
from vorfunc.experiments import FOLD_TET_POINTS, OCTA_POINTS, octahedron_decomposition
from vorfunc.geom import (
    FLAGS,
    Triangle2,
    circumcenter_offset3,
    circumcircle2,
    circumsphere_offset,
    convex_polygon_masks_xy,
    flag_terms,
    simplex_volume,
)
from vorfunc.functional2d import vf_triangle, vf_triangulation
from vorfunc.subdivision import (
    TetComplex,
    _voronoi_cell,
    barycentric_subdivide,
    cell_decomposition_check,
    interior_cancellation_check,
    nearest_minus_visible_field,
    vf3,
    vf_sd_cell,
    vf_via_sd,
)
from vorfunc.tri2d import Triangulation2, delaunay, make_topological

from conftest import grid_delaunay, hull_opposite_obtuse_edges, random_delaunay, random_triangle


def single(tri: Triangle2) -> Triangulation2:
    return Triangulation2(tri.vertices(), [(0, 1, 2)])


def _labels(sd, vid):
    """Source simplex of subdivision vertex vid as a label tuple (padding dropped)."""
    return tuple(x for x in sd.source_simplices[vid].tolist() if x >= 0)


def _cell_values(sd):
    return [vf_sd_cell(sd, c) for c in range(len(sd.cells))]


def test_counts_single_triangle():
    sd = barycentric_subdivide(single(Triangle2((0, 0), (1, 0), (0, 1))))
    assert len(sd.vertices) == 7
    assert len(sd.cells) == 6


def test_tet_complex_orients_tets_and_names_the_first_coplanar_one():
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], float)
    # (0, 1, 2, 3) is positively oriented; the other two are not and swap their last corners.
    tc = TetComplex(pts, [(0, 1, 2, 3), (0, 2, 1, 3), np.array([1, 0, 2, 3])])
    assert tc.tets == ((0, 1, 2, 3), (0, 2, 3, 1), (1, 0, 3, 2))
    assert all(type(v) is int for t in tc.tets for v in t)
    tets = np.array([[0, 2, 1, 3]])
    assert TetComplex(pts, tets).tets == ((0, 2, 3, 1),)
    assert tets.tolist() == [[0, 2, 1, 3]]  # the caller's array is not reoriented
    with pytest.raises(ValueError, match=r"degenerate tetrahedron \(0, 1, 4, 2\)$"):
        TetComplex(pts, [(0, 1, 2, 3), (0, 1, 4, 2), (1, 2, 4, 0)])


def test_tet_complex_keeps_a_read_only_copy():
    pts = OCTA_POINTS.copy()
    tc = TetComplex(pts, [(1, 4, 0, 3)])
    before = vf3(tc)
    pts[0] += 1.0
    assert vf3(tc) == before
    with pytest.raises(ValueError):
        tc.points[0, 0] = 0.0
    assert hash(tc) == hash(tc) and tc == tc
    assert tc != TetComplex(OCTA_POINTS, [(1, 4, 0, 3)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tet_complex_rejects_a_non_finite_corner(bad):
    # A NaN corner used to pass, and vf3 returned nan.
    pts = OCTA_POINTS.copy()
    pts[3, 1] = bad
    with pytest.raises(ValueError, match=r"^point 3 has a non-finite coordinate$"):
        TetComplex(pts, [(1, 4, 0, 3)])
    with pytest.raises(ValueError, match=r"^expected points of dimension 3, got shape \(6, 2\)$"):
        TetComplex(OCTA_POINTS[:, :2], [(1, 4, 0, 3)])


def test_counts_single_tetrahedron():
    tc = TetComplex(np.eye(4, 3) * 1.0, [(0, 1, 2, 3)])
    sd = barycentric_subdivide(tc)
    assert len(sd.vertices) == 15
    assert len(sd.cells) == 24


def test_gamma_fixes_vertices_and_edge_midpoints(rng):
    d = random_delaunay(rng, 6)
    sd = barycentric_subdivide(d)
    for vid in range(len(sd.vertices)):
        source = _labels(sd, vid)
        if len(source) == 1:
            assert np.allclose(sd.gamma[vid], d.points[source[0]])
        elif len(source) == 2:
            assert np.allclose(sd.gamma[vid], d.points[list(source)].mean(axis=0))


def test_height_is_tangent_plane_value(rng):
    # For every cell corner v with source vertex A: H(v) = 2<Gamma(v), A> - |A|^2.
    d = random_delaunay(rng, 8)
    octahedron = octahedron_decomposition(OCTA_POINTS, (0, 2))
    for sd in (barycentric_subdivide(d), barycentric_subdivide(octahedron)):
        for verts in sd.cells.tolist():
            a = sd.source_points[sd.source_simplices[verts[0], 0]]
            for vid in verts:
                expect = 2.0 * (sd.gamma[vid] @ a) - a @ a
                assert sd.height[vid] == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_gluing_heights_at_edge_barycenters(rng):
    # Edge barycenters lie on both endpoint tangent planes.
    d = random_delaunay(rng, 8)
    sd = barycentric_subdivide(d)
    for vid in range(len(sd.vertices)):
        source = _labels(sd, vid)
        if len(source) == 2:
            a, b = d.points[source[0]], d.points[source[1]]
            fa, fb = (2.0 * (sd.gamma[vid] @ p) - p @ p for p in (a, b))
            assert fa == pytest.approx(fb, rel=1e-10, abs=1e-10)


def test_right_triangle_cell_degenerates_to_zero():
    # Circumcenter on the hypotenuse midpoint squeezes two cells flat.
    tri = Triangle2((0, 0), (1, 0), (0, 1))
    sd = barycentric_subdivide(single(tri))
    vals = _cell_values(sd)
    flat = [v for v in vals if v == 0.0]
    assert len(flat) == 2
    assert sum(vals) == pytest.approx(vf_triangle(tri), rel=1e-10)


def test_acute_cells_all_positive(rng):
    for _ in range(10):
        t = random_triangle(rng, kind="acute")
        sd = barycentric_subdivide(single(t))
        vals = _cell_values(sd)
        assert all(v > 0 for v in vals)
        assert sum(vals) == pytest.approx(vf_triangle(t), rel=1e-10)


def test_obtuse_flips_cells_at_long_edge_midpoint(rng):
    for _ in range(10):
        t = random_triangle(rng, kind="obtuse")
        v = t.vertices()
        longest = max(
            range(3), key=lambda i: np.linalg.norm(v[(i + 1) % 3] - v[(i + 2) % 3])
        )
        long_edge_mid = 0.5 * (v[(longest + 1) % 3] + v[(longest + 2) % 3])
        sd = barycentric_subdivide(single(t))
        negative = [c for c in range(len(sd.cells)) if vf_sd_cell(sd, c) < 0]
        assert len(negative) == 2
        for c in negative:
            mids = [
                sd.vertices[vid]
                for vid in sd.cells[c].tolist()
                if len(_labels(sd, vid)) == 2
            ]
            assert np.allclose(mids[0], long_edge_mid)


def test_vf_via_sd_matches_triangulation(rng):
    for _ in range(20):
        d = random_delaunay(rng, 9)
        a = vf_triangulation(d).total
        b = vf_via_sd(d)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)


def _reference_subdivision(t):
    # One flag at a time, as the definition reads: each simplex gets an id the
    # first time a flag reaches it, top simplices in order and the flags of
    # each (vertex, then edge at that vertex[, then face at that edge]) in
    # label order.  Each cell is (vertex ids, source vertex, sign, top index).
    pts = t.points
    index, verts, gamma, height, sources, cells = {}, [], [], [], [], []

    def vertex_id(key):
        if key not in index:
            v = pts[list(key)]
            if len(key) == 3 and v.shape[1] == 2:
                center, radius = circumcircle2(Triangle2(*v))
            elif len(key) >= 3:
                e = v[1:] - v[0]
                offset = circumsphere_offset(*e) if len(key) == 4 else circumcenter_offset3(*e)
                center, radius = v[0] + offset, np.linalg.norm(offset)
            else:
                center = v.mean(axis=0)
                radius = np.linalg.norm(v[0] - center)
            index[key] = len(verts)
            verts.append(v.mean(axis=0))
            gamma.append(center)
            height.append(center @ center - radius * radius)
            sources.append(key)
        return index[key]

    tops = t.tets if isinstance(t, TetComplex) else t.triangles
    for top_idx, top in enumerate(tops):
        for flag in itertools.permutations(sorted(top)):
            ids = tuple(vertex_id(tuple(sorted(flag[: k + 1]))) for k in range(len(flag)))
            corners = np.array([verts[i] for i in ids])
            sign = 1 if np.linalg.det(corners[1:] - corners[0]) > 0 else -1
            cells.append((ids, flag[0], sign, top_idx))
    return np.array(verts), np.array(gamma), np.array(height), tuple(sources), tuple(cells)


def _swapped(d, i, j):
    perm = list(range(len(d.points)))
    perm[i], perm[j] = j, i
    return make_topological(d, perm)


def test_subdivision_matches_per_flag_reference(rng):
    d = random_delaunay(rng, 40)
    moved = grid_delaunay(rng, 30)
    moved = Triangulation2(moved.points + 1e6, moved.triangles, _normalize=False)
    for t in [d, _swapped(d, 3, 17), moved] + _complexes_3d():
        sd = barycentric_subdivide(t)
        verts, gamma, height, sources, cells = _reference_subdivision(t)
        width = sd.dim + 1
        assert sd.source_simplices.tolist() == [list(s) + [-1] * (width - len(s)) for s in sources]
        ids, owners, signs, tops = (list(col) for col in zip(*cells))
        assert sd.cells.tolist() == [list(c) for c in ids]
        assert sd.cell_sign.tolist() == signs
        assert sd.source_simplices[sd.cells[:, 0], 0].tolist() == owners
        assert (np.arange(len(sd.cells)) // len(FLAGS[sd.dim])).tolist() == tops
        for got, want in ((sd.vertices, verts), (sd.gamma, gamma), (sd.height, height)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    assert any(sign < 0 for _, _, sign, _ in cells)


def test_vf_via_sd_equals_sum_of_cells(rng):
    d = random_delaunay(rng, 30)
    for t in (d, _swapped(d, 2, 11)):
        sd = barycentric_subdivide(t)
        values = _cell_values(sd)
        assert abs(vf_via_sd(t) - sum(values)) <= 1e-12 * sum(abs(v) for v in values)


def test_flag_terms_equal_each_cell(rng):
    d = random_delaunay(rng, 30)
    octahedra = [octahedron_decomposition(OCTA_POINTS, diag) for diag in ((1, 4), (0, 2), (3, 5))]
    for t in [d, _swapped(d, 2, 11), TetComplex(FOLD_TET_POINTS, [(0, 1, 2, 3)])] + octahedra:
        sd = barycentric_subdivide(t)
        simplices = t.triangles if isinstance(t, Triangulation2) else t.tets
        sign, integral, _ = flag_terms(t.points, np.sort(simplices, axis=1))
        want = np.array(_cell_values(sd))
        np.testing.assert_allclose((sign * integral).ravel(), want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_vf_via_sd_translation_invariant(rng):
    d = grid_delaunay(rng, 30)
    moved = Triangulation2(d.points + 1e6, d.triangles, _normalize=False)
    assert vf_via_sd(moved) == pytest.approx(vf_via_sd(d), rel=1e-8)


def test_sd_euler_characteristic(rng):
    d = random_delaunay(rng, 8)
    sd = barycentric_subdivide(d)
    edges = set()
    for vs in sd.cells.tolist():
        for i in range(3):
            edges.add(tuple(sorted((vs[i], vs[(i + 1) % 3]))))
    assert len(sd.vertices) - len(edges) + len(sd.cells) == 1


# -- interior cancellation ---------------------------------------------------


def test_cancellation_square_plus_center(rng):
    pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], float)
    pts += rng.uniform(-1e-3, 1e-3, pts.shape)  # break the cocircular square
    d = delaunay(pts)
    lhs, rhs = interior_cancellation_check(d, 4)
    assert rhs == pytest.approx(lhs, rel=1e-9)


def test_cancellation_every_interior_vertex(rng):
    for _ in range(5):
        d = random_delaunay(rng, 12)
        interior = set(range(12)) - d.boundary_vertices()
        for v in interior:
            lhs, rhs = interior_cancellation_check(d, v)
            assert rhs == pytest.approx(lhs, rel=1e-9, abs=1e-12)


def test_cancellation_hull_vertex_rejected(rng):
    d = random_delaunay(rng, 8)
    hull_vertex = next(iter(d.boundary_vertices()))
    with pytest.raises(NotInteriorVertex):
        interior_cancellation_check(d, hull_vertex)


def test_cancellation_sign_census(rng):
    # Acute stars keep every cell positive; an obtuse opposite angle flips one
    # cell, and the identity still holds.
    saw_negative = False
    for _ in range(20):
        d = random_delaunay(rng, 10)
        sd = barycentric_subdivide(d)
        for v in set(range(10)) - d.boundary_vertices():
            star = [verts for verts in sd.cells.tolist() if sd.source_simplices[verts[0], 0] == v]
            image_signs = [
                1 if simplex_volume(sd.gamma[verts]) > 0 else -1 for verts in star
            ]
            lhs, rhs = interior_cancellation_check(d, v)
            assert rhs == pytest.approx(lhs, rel=1e-9, abs=1e-12)
            if any(s < 0 for s in image_signs):
                saw_negative = True
        if saw_negative:
            break
    assert saw_negative, "expected at least one folded star in random instances"


def test_cancellation_translation_invariant(rng):
    # Grid coordinates move by 1e6 exactly, so both sides must not move either.
    for _ in range(3):
        d = grid_delaunay(rng, 12)
        moved = Triangulation2(d.points + 1e6, d.triangles, _normalize=False)
        for v in set(range(12)) - d.boundary_vertices():
            lhs, rhs = interior_cancellation_check(d, v)
            lhs_moved, rhs_moved = interior_cancellation_check(moved, v)
            assert lhs_moved == pytest.approx(lhs, rel=1e-9)
            assert rhs_moved == pytest.approx(rhs, rel=1e-9)


def test_voronoi_polygon_symmetric_center():
    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]], float)
    poly = pts[4] + _voronoi_cell(pts, 4)
    # Center cell is the diamond spanned by the edge midpoint bisectors.
    assert sorted(np.round(p, 6).tolist() for p in poly) == [
        [0.0, 1.0],
        [1.0, 0.0],
        [1.0, 2.0],
        [2.0, 1.0],
    ]


# -- plane decomposition -----------------------------------------------------


def test_cell_decomposition_random_sets(rng):
    for seed in range(3):
        d = random_delaunay(rng, 9)
        closed, est = cell_decomposition_check(d, samples=200_000, seed=seed)
        assert abs(closed - est.value) <= 3 * est.std_error


def test_decomposition_integrand_outside_behaviour(rng):
    # With every hull-opposite angle acute the integrand vanishes off the
    # hull; an obtuse hull-opposite angle leaves a strictly negative pocket.
    from vorfunc.experiments import FOLDED_POINTS

    d_acute = delaunay(FOLDED_POINTS)
    assert hull_opposite_obtuse_edges(d_acute) == []
    field = nearest_minus_visible_field(d_acute.points)
    from vorfunc.tri2d import convex_hull

    hull_pts = d_acute.points[convex_hull(d_acute.points)]
    probe = rng.random((4000, 2)) * 10 - 5
    outside = ~convex_polygon_masks_xy(hull_pts, *probe.T)[0]
    assert np.all(np.abs(field(probe[outside])) < 1e-12)

    # Search for an instance with an obtuse hull-opposite angle.
    while True:
        d = random_delaunay(rng, 8)
        pockets = hull_opposite_obtuse_edges(d)
        if pockets:
            break
    (u, v), w = pockets[0]
    field = nearest_minus_visible_field(d.points)
    mid = 0.5 * (d.points[u] + d.points[v])
    outward = mid - d.points[w]
    outward /= np.linalg.norm(outward)
    probes = mid[None, :] + np.linspace(1e-3, 0.05, 64)[:, None] * outward[None, :]
    assert field(probes).min() < 0


def test_support_field_equals_plane_integrand(rng):
    # The cell check's integrand skips the kernel outside the box of the
    # points and the Delaunay circumcenters; it must not change a value.
    from vorfunc.experiments import FOLDED_POINTS
    from vorfunc.functional2d import support_box
    from vorfunc.subdivision import _support_field

    sets = [delaunay(FOLDED_POINTS)]
    while len(sets) < 6 or not any(hull_opposite_obtuse_edges(d) for d in sets):
        sets.append(random_delaunay(rng, int(rng.integers(6, 15))))
    grid = grid_delaunay(rng, 12)
    sets.append(Triangulation2(grid.points + 1e6, grid.triangles))
    for d in sets:
        box = support_box(d)
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        pts = lo + rng.random((20000, 2)) * (hi - lo)
        assert np.array_equal(_support_field(d)(pts), nearest_minus_visible_field(d.points)(pts))


def test_circumcenters_equal_the_flag_kernels(rng):
    # g_field and the cell check's box read one circumcenter helper; it gives
    # flag_terms' circumcenter corner bit for bit, so the check's
    # (value, std_error) is what it was when the box read flag_terms.
    from vorfunc.functional2d import _circumcenters, _corners

    sets = [random_delaunay(rng, n) for n in (3, 6, 9, 14, 40)]
    grid = grid_delaunay(rng, 12)
    sets.append(Triangulation2(grid.points + 1e6, grid.triangles))
    for d in sets:
        _, _, center = flag_terms(d.points, d.triangles)
        assert np.array_equal(_circumcenters(_corners(d.points, d.triangles)[1]), center[:, 0, 2])


def test_subdivided_complex_is_read_only_with_identity_equality(rng):
    d = random_delaunay(rng, 7)
    a, b = barycentric_subdivide(d), barycentric_subdivide(d)
    assert a == a and a != b and hash(a) == hash(a)
    assert a.to_json() == b.to_json()
    for name in ("source_points", "vertices", "gamma", "height", "source_simplices", "cells", "cell_sign"):
        arr = getattr(a, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_sd_json_dump(rng):
    d = random_delaunay(rng, 5)
    sd = barycentric_subdivide(d)
    obj = json.loads(sd.to_json())
    assert obj["schema"] == 1
    assert len(obj["cells"]) == len(sd.cells)
    assert len(obj["vertices"]) == len(sd.vertices)


# -- 3D ----------------------------------------------------------------------


def test_vf3_regular_tetrahedron_matches_nearest_mc():
    # All-acute case: the functional equals the integral over the tetrahedron
    # of the squared distance to the nearest vertex.
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    tc = TetComplex(v, [(0, 1, 2, 3)])
    from vorfunc.integrate import mc_integrate

    def nearest_sq(p):
        return ((p[:, None, :] - v[None, :, :]) ** 2).sum(axis=2).min(axis=1)

    est = mc_integrate(v, nearest_sq, 4 * 10**5, seed=5)
    assert abs(vf3(tc) - est.value) <= 3 * est.std_error


def _complexes_3d():
    """Both diagonal decompositions of the octahedron and the fold tetrahedron."""
    return [
        octahedron_decomposition(OCTA_POINTS, (1, 4)),
        octahedron_decomposition(OCTA_POINTS, (0, 2)),
        TetComplex(FOLD_TET_POINTS, [(0, 1, 2, 3)]),
    ]


def test_vf3_translation_invariant():
    # On a 2^-20 grid the moved coordinates and their differences are exact,
    # so the functional must not move either.
    for tc in _complexes_3d():
        grid = TetComplex(np.round(tc.points * 2**20) / 2**20, tc.tets)
        base = vf3(grid)
        for shift in (1e3, 1e6, 1e7):
            moved = TetComplex(grid.points + shift * np.array([3.0, -1.0, 2.0]), grid.tets)
            assert abs(vf3(moved) - base) <= 1e-12 * abs(base)


def test_vf3_scales_as_fifth_power():
    # A volume times a squared length; 2^k scaling is exact in floating point.
    for tc in _complexes_3d():
        base = vf3(tc)
        for k in (-3, 1, 5):
            scaled = TetComplex(tc.points * 2.0**k, tc.tets)
            assert vf3(scaled) == base * 2.0 ** (5 * k)


def test_vf3_relabeling_invariant(rng):
    for tc in _complexes_3d():
        perm = rng.permutation(len(tc.points))
        points = np.empty_like(tc.points)
        points[perm] = tc.points
        relabeled = TetComplex(points, [tuple(perm[list(t)][::-1]) for t in tc.tets])
        assert vf3(relabeled) == pytest.approx(vf3(tc), rel=1e-13)


def test_vf3_equals_sum_of_cells():
    for tc in _complexes_3d():
        sd = barycentric_subdivide(tc)
        values = _cell_values(sd)
        assert abs(vf3(tc) - math.fsum(values)) <= 1e-12 * abs(math.fsum(values))


def test_cancellation_scales_exactly_as_fourth_power():
    # Power-of-two scaling is exact, and the clipping box scales with the set,
    # so both sides of the identity scale by exactly 2^(4k).
    pts = np.random.default_rng(5).random((12, 2))
    d = delaunay(pts)
    interior = sorted(set(range(12)) - d.boundary_vertices())
    base = [interior_cancellation_check(d, v) for v in interior]
    for k in range(-40, 41):
        scaled = Triangulation2(pts * 2.0**k, d.triangles, _normalize=False)
        got = [interior_cancellation_check(scaled, v) for v in interior]
        assert got == [(lhs * 2.0 ** (4 * k), rhs * 2.0 ** (4 * k)) for lhs, rhs in base]


def test_subdivisions_of_seeded_complexes_are_pinned():
    # Byte for byte: the vertex numbering in first-reach order, in the plane
    # and in space, and every array derived from it.
    def sha1(sd):
        return hashlib.sha1(sd.to_json().encode()).hexdigest()

    d = delaunay(np.random.default_rng(300).random((300, 2)))
    assert sha1(barycentric_subdivide(d)) == "5928e604b71a9b908b4b04462bc9ce754eee0f40"
    rng = np.random.default_rng(28)
    pts = rng.random((12, 3))
    tc = TetComplex(pts, [rng.choice(12, 4, replace=False) for _ in range(40)])
    assert sha1(barycentric_subdivide(tc)) == "5858c6b555ba8618ba16d47545e231d524afa2ca"
    # No simplices, no rows to number.
    for empty in (TetComplex(pts, []), Triangulation2(pts[:, :2], [])):
        sd = barycentric_subdivide(empty)
        assert sd.cells.shape == (0, sd.dim + 1) and len(sd.vertices) == 0


def test_subdivision_to_json_refuses_a_non_finite_value():
    # The circumcenter of this right triangle overflows: gamma holds NaN.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sd = barycentric_subdivide(delaunay([[0, 0], [1e160, 0], [0, 1e160]]))
    assert not np.isfinite(sd.gamma).all()
    with pytest.raises(ValueError, match="not JSON compliant"):
        sd.to_json()
