import numpy as np
import pytest

from vorfunc.errors import DegenerateSimplex, NonConvexQuad
from vorfunc.geom import Triangle2
from vorfunc.integrate import mc_integrate
from vorfunc.functional2d import (
    assert_vanishes_on_boundary,
    flip_delta,
    flip_delta_law,
    g_field,
    g_triangle,
    g_triangle_points,
    mu_term,
    mu_terms,
    radius_functional,
    rajan_triangle,
    support_box,
    vf_triangle,
    vf_triangulation,
)
from vorfunc.tri2d import PointSet2, Triangulation2, convex_hull, delaunay, enumerate_triangulations

from conftest import random_delaunay, random_triangle

EQUILATERAL = Triangle2((0, 0), (1, 0), (0.5, np.sqrt(3) / 2))
RIGHT_ISO = Triangle2((0, 0), (1, 0), (0, 1))
OBTUSE = Triangle2((0, 0), (4, 0), (2, 0.5))
OBTUSE_FLAT = Triangle2((0, 0), (2, 0.4), (4, 0))


# -- closed forms -----------------------------------------------------------


def test_vf_right_isosceles():
    assert vf_triangle(RIGHT_ISO) == pytest.approx(1 / 12)


def test_vf_equilateral():
    assert vf_triangle(EQUILATERAL) == pytest.approx(5 * np.sqrt(3) / 144)


def test_vf_obtuse_negative():
    assert vf_triangle(OBTUSE) == pytest.approx((24.5 - 72.25) / 12)


def test_vf_degenerate_raises():
    with pytest.raises(DegenerateSimplex):
        vf_triangle(Triangle2((0, 0), (1, 1), (2, 2)))


def test_rajan_values():
    assert rajan_triangle(EQUILATERAL) == pytest.approx(np.sqrt(3) / 16)
    assert rajan_triangle(RIGHT_ISO) == pytest.approx(1 / 6)


def test_rajan_is_lifted_volume(rng):
    # Volume between the paraboloid and the lifted triangle, by MC sampling.
    for seed in range(5):
        t = random_triangle(rng)
        v = t.vertices()
        heights = (v**2).sum(axis=1)
        ones = np.ones((3, 1))
        mat = np.hstack([v, ones])  # affine interpolant of the lifted corners

        coef = np.linalg.solve(mat, heights)

        def gap(p, c=coef):
            interp = c[0] * p[:, 0] + c[1] * p[:, 1] + c[2]
            return interp - (p**2).sum(axis=1)

        est = mc_integrate(t, gap, 10**5, seed=seed)
        assert abs(est.value - rajan_triangle(t)) <= 3 * est.std_error


# -- radius functionals ------------------------------------------------------


def test_radius_functional_single_triangle():
    t = Triangulation2(np.array([[0.0, 0], [1, 0], [0, 1]]), [(0, 1, 2)])
    rep = radius_functional(t, 2.0)
    assert rep.total == pytest.approx(0.25)


def test_rf2_identity_random(rng):
    for _ in range(20):
        d = random_delaunay(rng, 8)
        rf2 = radius_functional(d, 2.0).total
        rajan = sum(rajan_triangle(Triangle2(*d.points[list(t)])) for t in d.triangles)
        vf = vf_triangulation(d).total
        assert rf2 == pytest.approx(3 * rajan - 3 * vf, rel=1e-10)


def test_rf1_product_formula(rng):
    for _ in range(20):
        d = random_delaunay(rng, 8)
        rf1 = radius_functional(d, 1.0).total
        prod = 0.0
        for tri in d.triangles:
            v = d.points[list(tri)]
            prod += (
                np.linalg.norm(v[0] - v[1])
                * np.linalg.norm(v[1] - v[2])
                * np.linalg.norm(v[2] - v[0])
            )
        assert rf1 == pytest.approx(prod / 4, rel=1e-10)


def test_rf1_delaunay_flip_monotone(rng):
    # Restoring the Delaunay diagonal of a convex quad cannot increase the sum
    # of edge-length products.
    count = 0
    while count < 50:
        quad = rng.random((4, 2))
        hull = convex_hull(quad)
        if len(hull) != 4:
            continue
        count += 1
        ps = PointSet2(quad)
        tris = enumerate_triangulations(ps)
        if len(tris) == 1:
            continue
        d = delaunay(ps)
        vals = {t.canonical(): radius_functional(t, 1.0).total for t in tris}
        d_val = vals[d.canonical()]
        assert all(d_val <= v + 1e-12 for v in vals.values())


def test_radius_functional_topological_rejected(rng):
    from vorfunc.tri2d import make_topological

    d = random_delaunay(rng, 5)
    t = make_topological(d, list(range(5)))
    with pytest.raises(ValueError):
        radius_functional(t, 2.0)


# -- mu decomposition --------------------------------------------------------


def test_mu_term_unit_right_triangle():
    assert mu_term((0, 0), (1, 0), (0, 1)) == pytest.approx(1 / 6)


def test_mu_term_degenerate_zero():
    assert mu_term((0, 0), (1, 1), (2, 2)) == 0.0


def test_mu_sum_acute(rng):
    for _ in range(30):
        t = random_triangle(rng, kind="acute")
        assert sum(mu_terms(t)) == pytest.approx(vf_triangle(t), rel=1e-10, abs=1e-14)


def test_mu_sum_obtuse_two_negative(rng):
    for _ in range(30):
        t = random_triangle(rng, kind="obtuse")
        terms = mu_terms(t)
        assert sum(terms) == pytest.approx(vf_triangle(t), rel=1e-10, abs=1e-14)
        assert sum(1 for x in terms if x < 0) == 2


# -- pointwise field ---------------------------------------------------------


def test_g_inside():
    assert g_triangle(RIGHT_ISO, (0.1, 0.1)) == pytest.approx(0.02)


def test_g_outside_acute_is_zero(rng):
    for _ in range(50):
        t = random_triangle(rng, kind="acute")
        p = rng.random(2) * 6 - 2.5
        if g_triangle_points(t, p[None, :])[0] == 0.0:
            continue
        # Non-zero means p is inside; outside acute triangles give exactly 0.
        from vorfunc.geom import point_in_triangle

        assert point_in_triangle(t, p)


def test_g_obtuse_fold_value():
    assert g_triangle(OBTUSE_FLAT, (2, -0.1)) == pytest.approx(0.25 - 4.01)


def test_g_field_single_triangle_matches(rng):
    t = Triangulation2(np.array([[0.0, 0], [1, 0], [0, 1]]), [(0, 1, 2)])
    p = rng.random((40, 2)) * 3 - 1
    direct = g_triangle_points(RIGHT_ISO, p)
    assert np.allclose(g_field(t, p), direct)
    assert vf_triangulation(t).total == pytest.approx(vf_triangle(RIGHT_ISO))


def test_vf_triangulation_report_consistency(rng):
    d = random_delaunay(rng, 10)
    rep = vf_triangulation(d)
    assert rep.total == pytest.approx(sum(v for _, v in rep.per_simplex), rel=1e-12)


def test_vf_acute_delaunay_equals_hull_integral():
    # All triangles acute: the functional equals the integral over the hull of
    # the squared distance to the nearest point.
    from vorfunc.experiments import FOLDED_POINTS
    from vorfunc.geom import inside_convex_polygon_mask

    d = delaunay(FOLDED_POINTS)
    hull_pts = d.points[convex_hull(d.points)]
    box = support_box(d)

    def integrand(p):
        d2 = ((p[:, None, :] - d.points[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return d2 * inside_convex_polygon_mask(hull_pts, p)

    est = mc_integrate(box, integrand, 4 * 10**5, seed=12)
    assert abs(vf_triangulation(d).total - est.value) <= 3 * est.std_error


def test_vf_random_triangulation_matches_field_mc(rng):
    d = random_delaunay(rng, 7)
    tris = enumerate_triangulations(PointSet2(d.points))
    k = tris[-1]
    box = support_box(k)
    assert_vanishes_on_boundary(k, box)
    est = mc_integrate(box, lambda p: g_field(k, p), 4 * 10**5, seed=3)
    assert abs(vf_triangulation(k).total - est.value) <= 3 * est.std_error


def test_vf_closed_form_vs_field_mc_obtuse(rng):
    # The closed form is defined by the circumradius formula; the field
    # integral over a covering box must reproduce it, folds included.
    for seed in range(3):
        t = random_triangle(rng, kind="obtuse")
        single = Triangulation2(t.vertices(), [(0, 1, 2)])
        box = support_box(single)
        assert_vanishes_on_boundary(single, box)
        est = mc_integrate(box, lambda p: g_triangle_points(t, p), 2 * 10**5, seed=seed)
        assert abs(vf_triangle(t) - est.value) <= 3 * est.std_error


def test_boundary_checks_reject_box_inside_hull(rng):
    # A box strictly inside the hull cuts through the support of both
    # integrands, so neither may be handed to mc_integrate.
    from vorfunc.errors import InvalidRegion
    from vorfunc.integrate import Box, check_vanishes_on_boundary
    from vorfunc.subdivision import nearest_minus_visible_field

    d = random_delaunay(rng, 8)
    hull_pts = d.points[convex_hull(d.points)]
    c = hull_pts.mean(axis=0)
    e = np.roll(hull_pts, -1, axis=0) - hull_pts
    r = c - hull_pts
    depth = (e[:, 0] * r[:, 1] - e[:, 1] * r[:, 0]) / np.linalg.norm(e, axis=1)
    h = 0.5 * depth.min()
    box = Box(tuple(c - h), tuple(c + h))
    with pytest.raises(InvalidRegion):
        assert_vanishes_on_boundary(d, box)
    with pytest.raises(InvalidRegion):
        check_vanishes_on_boundary(nearest_minus_visible_field(d.points), box)


# -- flip delta --------------------------------------------------------------


def test_flip_delta_symmetric_quad_far_point():
    quad = np.array([[-1, 0], [0, -1], [1, 0], [0, 1]], float)
    assert flip_delta(quad, (0, 40.0)) == pytest.approx(0.0, abs=1e-9)


def test_flip_delta_matches_law(rng):
    checked = 0
    while checked < 500:
        quad = rng.random((4, 2))
        if len(convex_hull(quad)) != 4:
            continue
        checked += 1
        p = rng.random(2) * 4 - 1.5
        delta = flip_delta(quad, p)
        law, diagonal = flip_delta_law(quad, p)
        assert delta == pytest.approx(law, abs=1e-9)
        if not diagonal:
            assert delta == pytest.approx(0.0, abs=1e-9)


def test_flip_delta_inside_adjacent_nearest_zero(rng):
    # Two nearest corners on a side of the quadrangle: both diagonals agree.
    found = 0
    while found < 50:
        quad = rng.random((4, 2))
        if len(convex_hull(quad)) != 4:
            continue
        p = rng.random(2)
        law, diagonal = flip_delta_law(quad, p)
        cyc = quad[convex_hull(quad)]
        from vorfunc.geom import inside_convex_polygon_mask

        if diagonal or not inside_convex_polygon_mask(cyc, p[None, :])[0]:
            continue
        found += 1
        assert flip_delta(quad, p) == pytest.approx(0.0, abs=1e-9)


def test_flip_delta_nonconvex_rejected():
    quad = np.array([[0, 0], [2, 0], [1, 2], [1, 0.5]], float)
    with pytest.raises(NonConvexQuad):
        flip_delta(quad, (0.5, 0.5))


# -- dominance (small versions; the acceptance suite runs the full sizes) ----


def test_pointwise_and_global_dominance(rng):
    for _ in range(5):
        d = random_delaunay(rng, 6)
        tris = enumerate_triangulations(PointSet2(d.points))
        box = support_box(d)
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        pts = lo + rng.random((2000, 2)) * (hi - lo)
        g_d = g_field(d, pts)
        vf_d = vf_triangulation(d).total
        for k in tris:
            assert vf_triangulation(k).total <= vf_d + 1e-9
            assert float((g_field(k, pts) - g_d).max()) <= 1e-9
