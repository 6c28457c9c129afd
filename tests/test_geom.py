from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vorfunc import geom
from vorfunc.errors import DegenerateSimplex
from vorfunc.geom import (
    TAU_GEOM,
    Triangle2,
    circumcenter_offset3,
    circumcircle2,
    circumsphere_offset,
    convex_polygon_masks_xy,
    in_circle,
    in_sphere,
    orient,
    orient2,
    orient2_xy,
)
from vorfunc.functional2d import g_triangle_points
from vorfunc.integrate import quad_tetra
from vorfunc.subdivision import TetComplex
from vorfunc.tri2d import convex_hull

from conftest import random_triangle

RIGHT = Triangle2((0, 0), (1, 0), (0, 1))
OBTUSE = Triangle2((0, 0), (2, 0.4), (4, 0))


def test_simplices_validate_their_corners():
    t = Triangle2([0, 0], np.array([1, 0]), (0.5, 2))
    assert [v.tolist() for v in (t.a, t.b, t.c)] == [[0.0, 0.0], [1.0, 0.0], [0.5, 2.0]]
    assert t.vertices().dtype == float
    ones = lambda p: np.ones(len(p))
    assert quad_tetra(np.eye(4, 3), ones) == pytest.approx(-1 / 6)
    bad = [
        lambda: Triangle2((0, 0), (1, 0), (0, 1, 2)),
        lambda: Triangle2((0, 0, 0), (1, 0, 0), (0, 1, 0)),
        lambda: Triangle2((0, 0), (1, np.nan), (0, 1)),
        lambda: Triangle2((0, 0), (1, 0), (np.inf, 1)),
        lambda: quad_tetra([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1)], ones),
        lambda: quad_tetra(np.eye(4, 2), ones),
        lambda: quad_tetra([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, -np.inf)], ones),
        lambda: in_sphere(np.eye(4, 2), (0, 0, 0)),
        lambda: in_sphere(np.eye(4, 3), (0, 0)),
        lambda: in_sphere(np.eye(4, 3), (0, 0, np.nan)),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()


# Corners that Triangle2 reads: lists, tuples, numpy rows of three dtypes,
# numpy scalars, a signed zero, ints beyond 2^53 and finite corners whose sum
# overflows.  Each must give the floats _as_points gives, bit for bit.
_READABLE_CORNERS = [
    ([0.1, 0.2], [1.5, -0.0], [0.5, 2.0]),
    ((0, 0), (1, 0), (0.5, 2)),
    tuple(np.random.default_rng(3301).random((3, 2))),
    tuple(np.random.default_rng(3302).random((3, 2)).astype(np.float32)),
    tuple(np.array([[0, 0], [7, -3], [2**40, 5]])),
    ((np.float32(0.1), np.float64(0.2)), (np.int64(3), np.float16(0.5)), (np.float32(-2.5), 7)),
    ((2**53 + 1, 0), (0, 2**1000), (-(2**80) - 1, 3)),
    ((1e308, 1e308), (1e308, -1e308), (-1e308, 1e308)),
]


@pytest.mark.parametrize("corners", _READABLE_CORNERS)
def test_triangle2_reads_the_floats_that_as_points_gives(corners):
    want = [v.hex() for v in geom._as_points(corners, 2).ravel().tolist()]
    t = Triangle2(*corners)
    assert all(type(v) is float for v in t.xy) and [v.hex() for v in t.xy] == want
    assert [v.hex() for v in t.vertices().ravel().tolist()] == want
    assert [v.hex() for row in (t.a, t.b, t.c) for v in row.tolist()] == want
    # orient2 and in_circle's point read through the same reader.
    assert orient2(*corners) == orient2_xy(*t.xy)
    assert geom._xy(corners[:1]) == list(t.xy[:2]) and geom._xy(corners) == list(t.xy)


# Corners that Triangle2 and orient2 reject, with the text of their error
# where it is the package's own (None: numpy's or Python's).
_REJECTED_CORNERS = [
    (((0, 0), (1, 0), (0, 1, 2)), None),
    (((0, 0, 0), (1, 0, 0), (0, 1, 0)), "expected points of dimension 2, got shape (3, 3)"),
    (((0, 0), (1, 0), np.array([[0, 1]])), None),
    ((np.array([[0, 0]]), np.array([[1, 0]]), np.array([[0, 1]])), "expected points of dimension 2, got shape (3, 1, 2)"),
    (((0, 0), (1, np.nan), (0, 1)), "point 1 has a non-finite coordinate"),
    (((0, 0), (1, 0), (np.inf, 1)), "point 2 has a non-finite coordinate"),
    (((0, 0), (1, 0), ("x", 1)), "could not convert string to float: 'x'"),
    (((0, 0), (10**400, 0), (0, 1)), None),
    (((0, 0), (1, 0), 5), None),
]


@pytest.mark.parametrize("corners, text", _REJECTED_CORNERS)
def test_triangle2_and_orient2_reject_what_as_points_rejects_with_its_error(corners, text):
    with pytest.raises(Exception) as want:
        geom._as_points(corners, 2)
    assert text is None or str(want.value) == text
    for read in (Triangle2, orient2):
        with pytest.raises(want.type) as got:
            read(*corners)
        assert str(got.value) == str(want.value)


def test_in_circle_reads_its_point_as_as_points_does():
    with pytest.raises(ValueError, match=r"^point 0 has a non-finite coordinate$"):
        in_circle(RIGHT, (np.nan, 0.5))
    with pytest.raises(ValueError, match=r"^expected points of dimension 2, got shape \(1, 3\)$"):
        in_circle(RIGHT, (0.5, 0.5, 0.5))
    assert in_circle(RIGHT, np.array([0.5, 0.5])) == in_circle(RIGHT, (np.float32(0.5), 0.5)) == 1


def test_triangle2_corners_are_read_only():
    t = Triangle2((0, 0), (1, 0), (0, 1))
    for name in ("a", "b", "c"):
        with pytest.raises(AttributeError):
            setattr(t, name, np.zeros(2))
        row = getattr(t, name)
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 5.0
    assert t.xy == (0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


def test_orient2_signs():
    assert orient2((0, 0), (1, 0), (0, 1)) == 1
    assert orient2((0, 0), (0, 1), (1, 0)) == -1
    assert orient2((0, 0), (1, 1), (2, 2)) == 0


def test_orient2_is_exact_where_products_overflow_or_underflow():
    # The products of the edge vectors are 1e320 (infinite) and 1e-400 (zero).
    for s in (1e160, 1e-200):
        assert orient2((0, 0), (s, 0), (0, s)) == 1
        assert orient2((0, 0), (0, s), (s, 0)) == -1
        assert orient2((0, 0), (s, s), (2 * s, 2 * s)) == 0


def test_circumcircle_right_triangle():
    cd = circumcircle2(RIGHT)
    assert np.allclose(cd.center, [0.5, 0.5])
    assert cd.radius == pytest.approx(np.sqrt(2) / 2)


def test_circumcircle_equilateral():
    cd = circumcircle2(Triangle2((0, 0), (1, 0), (0.5, np.sqrt(3) / 2)))
    assert np.allclose(cd.center, [0.5, np.sqrt(3) / 6])
    assert cd.radius == pytest.approx(1 / np.sqrt(3))


def test_circumcircle_obtuse_radius():
    # R = abc / (4 area) = (sqrt(4.25) * sqrt(4.25) * 4) / (4 * 1) = 4.25
    cd = circumcircle2(Triangle2((0, 0), (4, 0), (2, 0.5)))
    assert cd.radius == pytest.approx(4.25)


def test_circumcircle_collinear_raises():
    with pytest.raises(DegenerateSimplex):
        circumcircle2(Triangle2((0, 0), (1, 1), (2, 2)))


def test_circumcircle_equidistance_random(rng):
    for _ in range(200):
        t = random_triangle(rng)
        cd = circumcircle2(t)
        d = np.linalg.norm(t.vertices() - cd.center, axis=1)
        assert np.all(np.abs(d - cd.radius) <= 1e-9 * max(cd.radius, 1.0))


def test_circumsphere_regular_tetrahedron():
    # Vertices of a regular tetrahedron centered at the origin.
    v = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)
    offset = circumsphere_offset(*(v[1:] - v[0]))
    assert np.allclose(v[0] + offset, [0, 0, 0], atol=1e-12)
    assert np.linalg.norm(offset) == pytest.approx(np.sqrt(3))


def test_circumsphere_corner_tetrahedron():
    # Corner a at the origin, so the offset is the center.
    assert np.allclose(circumsphere_offset(*np.eye(3)), [0.5, 0.5, 0.5])


def test_circumcircle3_center_in_plane():
    a = np.array([9.86, 0.00, 1.65])
    b = np.array([7.99, 5.80, 1.65])
    c = np.array([7.80, -5.80, 1.65])
    center = a + circumcenter_offset3(b - a, c - a)
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n)
    assert abs((center - a) @ n) < 1e-9
    for v in (b, c):
        assert np.linalg.norm(center - v) == pytest.approx(np.linalg.norm(center - a))


def test_in_circle_examples():
    assert in_circle(RIGHT, (0.5, 0.5)) == 1  # center is strictly inside
    assert in_circle(RIGHT, (10, 10)) == -1
    assert in_circle(RIGHT, (1, 1)) == 0  # on the circle through the vertices


def test_in_circle_antisymmetric_under_orientation(rng):
    for _ in range(100):
        t = random_triangle(rng)
        p = rng.random(2) * 2 - 0.5
        s1 = in_circle(t, p)
        s2 = in_circle(Triangle2(t.a, t.c, t.b), p)
        assert s1 == -s2


UNIT_TET = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], float)


def test_in_sphere_basic():
    assert in_sphere(UNIT_TET, (0.5, 0.5, 0.5)) == 1
    assert in_sphere(UNIT_TET, (9, 9, 9)) == -1
    # 1e-12 outside and inside the sphere of center (1/2, 1/2, 1/2) and radius sqrt(3)/2, and on it.
    r = np.sqrt(3) / 2
    assert in_sphere(UNIT_TET, [(0.5 + r + 1e-12, 0.5, 0.5), (0.5 + r - 1e-12, 0.5, 0.5), (1, 1, 0)]).tolist() == [-1, 1, 0]


def test_in_sphere_signs_hold_under_power_of_two_scaling():
    # The circumsphere has center (1/2, 1/2, 1/2) and radius sqrt(3)/2:
    # center, far point, two points on it, and points 1e-4 outside and inside.
    r = np.sqrt(3) / 2
    p = np.array(
        [(0.5, 0.5, 0.5), (9, 9, 9), (1, 1, 0), (1, 1, 1), (0.5 + r + 1e-4, 0.5, 0.5), (0.5 + r - 1e-4, 0.5, 0.5)]
    )
    assert in_sphere(UNIT_TET, p).tolist() == [1, -1, 0, 0, -1, 1]
    for k in [*range(-40, 41), -340, 340]:
        assert in_sphere(UNIT_TET * 2.0**k, p * 2.0**k).tolist() == [1, -1, 0, 0, -1, 1], k


def test_in_sphere_of_the_circumcenter_holds_at_extreme_scales():
    # The float lifted determinant underflows or overflows at these scales.
    for scale in (2.0**-300, 1e-110, 1e62, 1e150):
        assert in_sphere(UNIT_TET * scale, np.full(3, 0.5 * scale)) == 1, scale


def test_orient_and_tet_complex_keep_orientations_at_extreme_scales():
    # Gaussian tetrahedra whose float volume underflows or overflows when
    # scaled: each keeps its scale-1 orientation, and TetComplex its tetrahedra.
    rng = np.random.default_rng(32)
    tets = rng.standard_normal((200, 4, 3))
    labels = np.arange(800).reshape(200, 4)
    want = orient(tets).tolist()
    oriented = TetComplex(tets.reshape(-1, 3), labels).tets
    assert set(want) == {-1, 1}
    for scale in (2.0**-400, 1e103, 1e155, 2.0**600):
        assert orient(tets * scale).tolist() == want, scale
        assert TetComplex(tets.reshape(-1, 3) * scale, labels).tets == oriented, scale


def test_in_sphere_on_arrays_equals_per_tetrahedron_calls(rng):
    tets = rng.standard_normal((50, 4, 3))
    p = rng.standard_normal((50, 3)) * 1.5
    got = in_sphere(tets, p)
    assert got.shape == (50,)
    assert got.tolist() == [int(in_sphere(t, q)) for t, q in zip(tets, p)]
    many = in_sphere(tets[0], p)
    assert many.tolist() == [int(in_sphere(tets[0], q)) for q in p]
    assert in_sphere(tets[:, None], p[:5]).tolist() == [[int(in_sphere(t, q)) for q in p[:5]] for t in tets]
    assert {-1, 1} <= set(got.tolist())


def test_in_sphere_rejects_a_coplanar_tetrahedron():
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    with pytest.raises(DegenerateSimplex):
        in_sphere(flat, (0.5, 0.5, 0.5))
    with pytest.raises(DegenerateSimplex):
        in_sphere(np.stack([UNIT_TET, flat]), (0.5, 0.5, 0.5))


# The nearest and nearest-visible vertex tests read the g kernel: the squared
# distance to the nearest vertex minus, outside the triangle, that to the
# nearest visible vertex.
def test_nearest_vertex_examples():
    # Inside the triangle g is the squared distance to the nearest vertex.
    assert g_triangle_points(RIGHT, [(0.1, 0.1)])[0] == pytest.approx(0.02)
    assert g_triangle_points(OBTUSE, [(2, 0.1)])[0] == pytest.approx(0.09)


def test_nearest_visible_inside_is_none():
    # No visible term inside the closed triangle, boundary included.
    for p in ((0.2, 0.2), (0.5, 0.0), (0.0, 1.0)):
        assert convex_polygon_masks_xy(RIGHT.vertices(), *np.array([p]).T)[0][0]
        nearest = min((p[0] - x) ** 2 + (p[1] - y) ** 2 for x, y in RIGHT.vertices())
        assert g_triangle_points(RIGHT, [p])[0] == pytest.approx(nearest)


def _outside_g(t, p):
    inside = convex_polygon_masks_xy(t.vertices(), *p.T)[0]
    return g_triangle_points(t, p)[~inside]


def test_nearest_visible_equals_nearest_for_acute_outside(rng):
    for _ in range(20):
        g = _outside_g(random_triangle(rng, kind="acute"), rng.random((200, 2)) * 4 - 1.5)
        assert len(g) > 0 and (g == 0.0).all()


def test_nearest_visible_obtuse_fold():
    # Vertex 1 is nearest but hidden behind the long edge; 0 and 2, both at 4.01, are visible.
    visible = convex_polygon_masks_xy(OBTUSE.vertices(), np.array([2.0]), np.array([-0.1]))[1]
    assert visible[:, 0].tolist() == [True, False, True]
    assert g_triangle_points(OBTUSE, [(2, -0.1)])[0] == pytest.approx(0.25 - 4.01)


def test_nearest_visible_never_nearer_than_nearest(rng):
    # The visible minimum runs over a subset of the corners, so g <= 0 outside.
    for _ in range(30):
        g = _outside_g(random_triangle(rng), rng.random((100, 2)) * 6 - 2.5)
        assert (g <= 0.0).all()


def _random_hull(rng):
    """Counterclockwise hull with at least four corners of a random generic set."""
    while True:
        pts = rng.random((12, 2))
        poly = pts[convex_hull(pts)]
        if len(poly) >= 4:
            return poly


def _inward_depth(poly_ccw, x):
    """Signed distance of points x (..., 2) inside every edge line of a ccw polygon."""
    e = np.roll(poly_ccw, -1, axis=0) - poly_ccw
    r = x[..., None, :] - poly_ccw
    cross = e[:, 0] * r[..., 1] - e[:, 1] * r[..., 0]
    return (cross / np.linalg.norm(e, axis=1)).min(axis=-1)


def test_polygon_visibility_matches_segment_oracle(rng):
    # Brute force: vertex j is hidden from an outside point exactly when some
    # point of the open segment towards it lies inside the polygon by a
    # margin.  Probes include points within 1e-9 of the edge lines, extended
    # past the corners, where the segment grazes an edge.
    s = np.linspace(0.0, 1.0, 402)[1:-1]
    checked = 0
    for trial in range(24):
        poly = _random_hull(rng)
        k = len(poly)
        e = np.roll(poly, -1, axis=0) - poly
        normal = np.stack([e[:, 1], -e[:, 0]], axis=1)
        t = rng.random((k, 8)) * 5 - 2
        off = rng.choice([-1e-9, 1e-9], size=(k, 8))
        near = poly[:, None, :] + t[..., None] * e[:, None, :] + off[..., None] * normal[:, None, :]
        probe = np.concatenate([rng.random((150, 2)) * 3 - 1, near.reshape(-1, 2)])
        # Either orientation; columns follow the caller's vertex order.
        verts = poly[::-1] if trial % 2 else poly
        inside, vis = convex_polygon_masks_xy(verts, *probe.T)
        vis = vis.T[:, ::-1] if trial % 2 else vis.T
        for p, row in zip(probe[~inside], vis[~inside]):
            seg = p + s[:, None, None] * (poly - p)
            hidden = (_inward_depth(poly, seg) > 1e-12).any(axis=0)
            assert np.array_equal(row, ~hidden)
            checked += 1
    assert checked > 1500


def test_points_in_edge_band_see_both_ends(rng):
    # Points just outside an edge, within the TAU_GEOM band or just beyond
    # it, must see both ends of that edge: no outside point is left with an
    # empty visible set.
    for _ in range(20):
        poly = _random_hull(rng)
        k = len(poly)
        for i in range(k):
            q, r = poly[i], poly[(i + 1) % k]
            e = r - q
            out = np.array([e[1], -e[0]]) / np.linalg.norm(e)
            base = q + rng.uniform(0.1, 0.9, 16)[:, None] * e
            # Distance from the edge line at which the containment test's
            # tolerance TAU_GEOM * |e|_1 * |p - q|_1 on the cross product ends.
            band = TAU_GEOM * np.abs(e).sum() * np.abs(base - q).sum(axis=1) / np.linalg.norm(e)
            for factor, in_band in ((0.01, True), (0.5, True), (2.0, False)):
                p = base + (factor * band)[:, None] * out
                d = p - q
                assert np.all(e[0] * d[:, 1] - e[1] * d[:, 0] < 0)
                inside, vis = convex_polygon_masks_xy(poly, *p.T)
                assert np.all(inside == in_band)
                assert vis[i].all() and vis[(i + 1) % k].all()


# -- predicate signs against exact rational determinants ---------------------


def _exact_sign(rows):
    """Sign of the determinant of 2x2, 3x3 or 4x4 rows of Fractions."""
    det = _exact_det(rows)
    return (det > 0) - (det < 0)


def _exact_det(rows):
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
        return a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)
    # 4x4: expansion along the first row.
    return sum((-1) ** j * a * _exact_det([r[:j] + r[j + 1 :] for r in rows[1:]]) for j, a in enumerate(rows[0]))


def _exact_orient2(a, b, c):
    (ax, ay), (bx, by), (cx, cy) = ((Fraction(x), Fraction(y)) for x, y in (a, b, c))
    return _exact_sign([(bx - ax, by - ay), (cx - ax, cy - ay)])


def _exact_in_circle(a, b, c, p):
    px, py = Fraction(p[0]), Fraction(p[1])
    rows = []
    for x, y in (a, b, c):
        dx, dy = Fraction(x) - px, Fraction(y) - py
        rows.append((dx, dy, dx * dx + dy * dy))
    return _exact_sign(rows)


def _exact_orient3(a, b, c, d):
    a = [Fraction(x) for x in a]
    return _exact_sign([[Fraction(x) - y for x, y in zip(q, a)] for q in (b, c, d)])


def _exact_in_sphere(a, b, c, d, p):
    # Rows (q - p, |q - p|^2) for the corners q: the determinant is negative
    # where p is inside the sphere of a right-handed tetrahedron.
    rows = []
    for q in (a, b, c, d):
        e = [Fraction(x) - Fraction(y) for x, y in zip(q, p)]
        rows.append(e + [sum(x * x for x in e)])
    return -_exact_sign(rows)


# Points of unit order: a 2^-18 grid in [-4, 4], where exact degeneracies are
# common, and triples or quadruples placed off a line or a circle by a relative
# offset of at most 1e-6 (floats rounded from the construction).
_grid_point = st.tuples(*[st.integers(-(2**20), 2**20).map(lambda k: k / 2.0**18)] * 2)
_offset = st.floats(-1e-6, 1e-6)


@st.composite
def _near_collinear(draw):
    (ax, ay), (bx, by) = draw(_grid_point), draw(_grid_point)
    t, eps = draw(st.floats(-2.0, 2.0)), draw(_offset)
    ux, uy = bx - ax, by - ay
    return (ax, ay), (bx, by), (ax + t * ux - eps * uy, ay + t * uy + eps * ux)


@st.composite
def _near_cocircular(draw):
    (cx, cy), radius = draw(_grid_point), draw(st.floats(0.25, 4.0))
    angles = draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4))
    radii = [radius] * 3 + [radius * (1.0 + draw(_offset))]
    return [(cx + r * float(np.cos(t)), cy + r * float(np.sin(t))) for r, t in zip(radii, angles)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(_grid_point, _grid_point, _grid_point), _near_collinear()))
def test_orient2_nonzero_sign_is_exact(abc):
    s = orient2(*abc)
    assert s == 0 or s == _exact_orient2(*abc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(_grid_point, _grid_point, _grid_point, _grid_point), _near_cocircular()))
def test_in_circle_nonzero_sign_is_exact(abcp):
    a, b, c, p = abcp
    assume(orient2(a, b, c) != 0)
    s = in_circle(Triangle2(a, b, c), p)
    assert s == 0 or s == _exact_in_circle(a, b, c, p)


def test_in_circle_nonzero_sign_is_exact_on_tiny_circles():
    rng = np.random.default_rng(1)
    for _ in range(500):
        angles = rng.uniform(0.0, 2.0 * np.pi, 4)
        radii = 1e-9 * np.array([1.0, 1.0, 1.0, 1.0 + rng.choice([0.0, 1e-14, 1e-12])])
        a, b, c, p = (tuple(r * np.array([np.cos(t), np.sin(t)])) for r, t in zip(radii, angles))
        if orient2(a, b, c) == 0:
            continue
        s = in_circle(Triangle2(a, b, c), p)
        assert s == 0 or s == _exact_in_circle(a, b, c, p)


# Scales at which the products of the predicates overflow, underflow or stay
# normal: 2^-530 and 2^500 are beyond the filter's range even for orient2,
# and at 2^-530 its products are subnormal, good to about 2^-18.
_scale = st.sampled_from([2.0**-530, 2.0**-520, 1e-200, 1e-150, 1e-9, 1.0, 1e9, 1e150, 1e200, 2.0**500])


def _scaled(points, scale):
    return [(x * scale, y * scale) for x, y in points]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(_grid_point, _grid_point, _grid_point), _near_collinear()), _scale)
def test_orient2_sign_is_exact_at_every_scale(abc, scale):
    abc = _scaled(abc, scale)
    assert orient2(*abc) == _exact_orient2(*abc)


def test_orient2_rows_equals_orient2_xy_row_by_row(monkeypatch):
    rng = np.random.default_rng(11)
    random = rng.normal(size=(200, 3, 2))
    # Exactly collinear triples b + t a on a 2^-2 grid (sign 0), and points
    # 2^-53 steps off (0.5, 0.5) against the line through (12, 12) and
    # (24, 24), in both corner orders: the filter decides none of these.
    a, b = rng.integers(-8, 9, (2, 200, 1, 2)) / 4.0
    line = b + rng.integers(-3, 4, (200, 3, 1)) * a
    steps = (0.5 + np.arange(32, 40) * 2.0**-53).tolist()
    near = np.array([[(x, y), (12, 12), (24, 24)] for x in steps for y in steps])
    corners = np.concatenate([random, line, near, near[:, ::-1]])
    undecided = len(line) + 2 * len(near)
    real_exact, exact_calls = geom._exact_sign, []
    for scale in [2.0**k for k in range(-40, 41)] + [2.0**-530, 2.0**500]:
        scaled = corners * scale
        want = [orient2_xy(*row) for row in scaled.reshape(-1, 6).tolist()]
        monkeypatch.setattr(geom, "_exact_sign", lambda *c: exact_calls.append(c) or real_exact(*c))
        got = orient(scaled)
        monkeypatch.setattr(geom, "_exact_sign", real_exact)
        assert got.dtype.kind == "i" and got.tolist() == want, scale
        assert want[len(random) : len(random) + len(line)] == [0] * len(line)
    assert len(exact_calls) >= 83 * undecided


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(*[_grid_point] * 4), _near_cocircular()), _scale)
def test_in_circle_sign_is_exact_at_every_scale(abcp, scale):
    a, b, c, p = _scaled(abcp, scale)
    assume(_exact_orient2(a, b, c) != 0)
    assert in_circle(Triangle2(a, b, c), p) == _exact_in_circle(a, b, c, p)


# Points of unit order in space: the 2^-18 grid, where exactly coplanar and
# cospherical sets are common; tetrahedra whose fourth corner lies within
# about 1e-16 of the plane of the other three; and five points placed off a
# sphere by a relative offset of at most 1e-6.
_grid_point3 = st.tuples(*[st.integers(-(2**20), 2**20).map(lambda k: k / 2.0**18)] * 3)


@st.composite
def _near_coplanar(draw):
    a, b, c = (np.array(draw(_grid_point3)) for _ in range(3))
    t, u = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    off = np.array(draw(st.tuples(*[st.floats(-1e-16, 1e-16)] * 3)))
    return [tuple(q.tolist()) for q in (a, b, c, a + t * (b - a) + u * (c - a) + off)]


@st.composite
def _near_cospherical(draw):
    center, radius = np.array(draw(_grid_point3)), draw(st.floats(0.25, 4.0))
    angles = draw(st.lists(st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2.0 * np.pi)), min_size=5, max_size=5))
    radii = [radius] * 4 + [radius * (1.0 + draw(_offset))]
    return [
        tuple((center + r * np.array([np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t)])).tolist())
        for r, (t, f) in zip(radii, angles)
    ]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(*[_grid_point3] * 4), _near_coplanar()), _scale)
def test_orient3_sign_is_exact_at_every_scale(abcd, scale):
    corners = np.array(abcd) * scale
    assert orient(corners) == _exact_orient3(*corners.tolist())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.tuples(*[_grid_point3] * 5), _near_cospherical()), _scale)
def test_in_sphere_sign_is_exact_at_every_scale(abcdp, scale):
    points = (np.array(abcdp) * scale).tolist()
    assume(_exact_orient3(*points[:4]) != 0)
    assert in_sphere(points[:4], points[4]) == _exact_in_sphere(*points)


def _float_sign(rows):
    """Sign of the 2x2 or 3x3 determinant of float rows, as plain float arithmetic gives it."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
    else:
        (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
        det = a3 * (b1 * c2 - b2 * c1) + b3 * (c1 * a2 - c2 * a1) + c3 * (a1 * b2 - a2 * b1)
    return (det > 0) - (det < 0)


def test_predicate_signs_are_exact_within_ulps_of_a_line_or_a_circle():
    # Float determinants get the sign wrong here (Kettner et al., "Classroom
    # examples of robustness problems in geometric computations", CGTA 40,
    # 2008): a point moved by 2^-53 steps off (0.5, 0.5) against the line
    # through (12, 12) and (24, 24), and a point of the unit circle moved by
    # ulps against three others.  Power-of-two scales keep every input exact.
    rng = np.random.default_rng(7)
    cases = []
    for i in range(32, 64):
        for j in range(32, 64):
            abc = [(0.5 + i * 2.0**-53, 0.5 + j * 2.0**-53), (12.0, 12.0), (24.0, 24.0)]
            cases += [abc[k:] + abc[:k] for k in range(3)]
    for _ in range(40):
        t = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
        a, b, c, (px, py) = np.stack([np.cos(t), np.sin(t)], axis=1).tolist()
        ux, uy = np.spacing(px).item(), np.spacing(py).item()
        cases += [[a, b, c, (px + i * ux, py + j * uy)] for i in range(-4, 5) for j in range(-4, 5)]
    float_wrong = 0
    for pts in cases:
        p = pts[-1]
        rows = [(x - p[0], y - p[1]) for x, y in pts[:-1]]
        if len(pts) == 4:
            rows = [(dx, dy, dx * dx + dy * dy) for dx, dy in rows]
        exact = (_exact_orient2 if len(pts) == 3 else _exact_in_circle)(*pts)
        float_wrong += _float_sign(rows) not in (0, exact)
        for scale in (1.0, 2.0**-520, 2.0**500):
            scaled = _scaled(pts, scale)
            if len(pts) == 3:
                assert orient2(*scaled) == exact, (pts, scale)
            else:
                assert in_circle(Triangle2(*scaled[:3]), scaled[3]) == exact, (pts, scale)
    assert float_wrong > 100


def test_planar_flag_signs_are_exact_orientations_times_flag_parities():
    # The near-line triangles above, in all three corner rotations: each flag
    # (X, Y, W) is its triangle's exact orientation times the parity of the
    # permutation (X, Y, W), where a float determinant of the flag's edges can
    # give the other sign.
    near = [(0.5 + i * 2.0**-53, 0.5 + j * 2.0**-53) for i in range(32, 64) for j in range(32, 64) if i != j]
    m = len(near)
    pts = np.array(near + [(12.0, 12.0), (24.0, 24.0)])
    tris = np.array([(i, m, m + 1)[k:] + (i, m, m + 1)[:k] for i in range(m) for k in range(3)])
    # Some float cross products are 0, so those integrals are not finite.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sign, integral, _ = geom.flag_terms(pts, tris)
    exact = np.array([_exact_orient2(*pts[t].tolist()) for t in tris])
    parity = np.array([round(np.linalg.det(np.eye(3)[f])) for f in geom.FLAGS[2]])
    finite = np.isfinite(integral)
    assert finite.sum() > 1000
    assert (sign == exact[:, None] * parity)[finite].all()


def test_g_of_a_near_line_triangle_does_not_depend_on_its_corner_order():
    # The near-line triangles above: the visibility masks read the exact
    # orientation of the corners, so (a, b, c) and (a, c, b) bound the same
    # polygon and give bit-identical g.  A float shoelace of these corners
    # can have the same sign for both orders.
    near = [(0.5 + i * 2.0**-53, 0.5 + j * 2.0**-53) for i in range(32, 64) for j in range(32, 64) if i != j]
    b, c = (12.0, 12.0), (24.0, 24.0)
    probe = np.random.default_rng(30).uniform(-10.0, 40.0, (2000, 2))
    assert len(near) == 992
    for a in near:
        forward = g_triangle_points(Triangle2(a, b, c), probe)
        backward = g_triangle_points(Triangle2(a, c, b), probe)
        assert np.array_equal(forward, backward, equal_nan=True), a


def test_spatial_flag_signs_are_the_orientation_times_the_flag_parity():
    # Nearly flat tetrahedra: the fourth corner lies within ~1e-16 of the
    # plane of the first three.  Each flag's sign is the tetrahedron's one
    # orientation times the flag's parity, so after TetComplex makes that
    # orientation +1 every flag's sign is its parity.  Float determinants of
    # the 24 flags' own edges can disagree about the orientation.
    rng = np.random.default_rng(30)
    parity = np.array([round(np.linalg.det(np.eye(4)[f])) for f in geom.FLAGS[3]])
    checked = 0
    for _ in range(2000):
        a, b, c = rng.standard_normal((3, 3))
        t, u = rng.uniform(-1.0, 2.0, 2)
        pts = np.array([a, b, c, a + t * (b - a) + u * (c - a) + 1e-16 * rng.standard_normal(3)])
        try:
            tc = TetComplex(pts, [(0, 1, 2, 3)])
        except ValueError:
            continue
        # So flat a tetrahedron has a far circumsphere; as in the planar test,
        # an overflow there must not fail the sign check.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sign, _, _ = geom.flag_terms(tc.points, tc.tets)
        assert (sign * parity == 1).all(), pts.tolist()
        checked += 1
    assert checked > 1500


def test_flag_terms_rejects_a_degenerate_simplex_by_its_labels():
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    with pytest.raises(DegenerateSimplex, match=r"^coplanar tetrahedron \(1, 0, 2, 3\)$"):
        geom.flag_terms(flat, [(0, 1, 2, 4), (1, 0, 2, 3)])
    with pytest.raises(DegenerateSimplex, match=r"^collinear triangle \(0, 3, 1\)$"):
        geom.flag_terms([(0, 0), (2, 2), (0, 1), (1, 1)], [(0, 1, 2), (0, 3, 1)])


def test_collinear_triangles_are_degenerate_for_in_circle_and_g():
    with pytest.raises(DegenerateSimplex, match=r"^collinear triangle"):
        geom.in_circle_xy(0.0, 0.0, 1.0, 1.0, 3.0, 3.0, 0.0, 1.0)
    with pytest.raises(DegenerateSimplex, match=r"^collinear triangle$"):
        g_triangle_points(Triangle2((0, 0), (1, 1), (3, 3)), np.array([[0.0, 1.0]]))
