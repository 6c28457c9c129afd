import functools
import operator
from fractions import Fraction

import numpy as np
import pytest

from vorfunc.errors import DegenerateSimplex, InvalidRegion, NonConvexQuad
from vorfunc.geom import Triangle2, convex_polygon_masks_xy, second_moment
from vorfunc.integrate import Box, mc_integrate
from vorfunc.functional2d import (
    FunctionalReport,
    _closed_form_terms,
    _g_points,
    assert_vanishes_on_boundary,
    flip_delta,
    flip_delta_law,
    g_field,
    g_triangle_points,
    mu_terms,
    radius_functional,
    rajan_triangle,
    rajan_triangulation,
    support_box,
    vf_triangle,
    vf_triangulation,
)
from vorfunc.tri2d import (
    Triangulation2,
    convex_hull,
    delaunay,
    enumerate_triangulations,
    make_topological,
)

from conftest import grid_delaunay, random_delaunay, random_triangle

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

        est = mc_integrate(v, gap, 10**5, seed=seed)
        assert abs(est.value - rajan_triangle(t)) <= 3 * est.std_error


# -- radius functionals ------------------------------------------------------


def test_radius_functional_single_triangle():
    t = Triangulation2(np.array([[0.0, 0], [1, 0], [0, 1]]), [(0, 1, 2)])
    rep = radius_functional(t, 2.0)
    assert rep.total == pytest.approx(0.25)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_radius_functional_rejects_a_non_finite_alpha(alpha):
    # A NaN key never matches, so each call would add a table column.
    pts = np.array([[0.0, 0], [2, 0], [2.1, 1], [0.2, 1.1]])
    t = enumerate_triangulations(pts)[0]
    radius_functional(t, 2.0)
    columns = dict(t._table.columns)
    for _ in range(3):
        with pytest.raises(ValueError, match="alpha must be finite"):
            radius_functional(t, alpha)
    assert t._table.columns == columns


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
        tris = enumerate_triangulations(quad)
        if len(tris) == 1:
            continue
        d = delaunay(quad)
        vals = {t.canonical(): radius_functional(t, 1.0).total for t in tris}
        d_val = vals[d.canonical()]
        assert all(d_val <= v + 1e-12 for v in vals.values())


_FUNCTIONALS = (
    vf_triangulation,
    rajan_triangulation,
    lambda t: radius_functional(t, 2.0),
    lambda t: radius_functional(t, 1.0),
    # 2.0000001 is labeled "rf2", like 2.0: the shared table keys each column
    # by alpha itself, so neither may read the other's values.
    lambda t: radius_functional(t, 2.0000001),
    lambda t: radius_functional(t, 0.5),
)


def _functional_jsons(t):
    """Each of _FUNCTIONALS of ``t`` as JSON, or the DegenerateSimplex message."""
    out = []
    for f in _FUNCTIONALS:
        try:
            out.append(f(t).to_json())
        except DegenerateSimplex as e:
            out.append(f"DegenerateSimplex: {e}")
    return out


def _assert_enumerated_equal_alone(points, reverse):
    """Evaluate every enumerated triangulation, in discovery or reverse order,
    against a copy built alone; return the order and the shared values."""
    tris = enumerate_triangulations(points)
    order = tris[::-1] if reverse else tris
    shared = [_functional_jsons(t) for t in order]
    alone = [_functional_jsons(Triangulation2(t.points, t.triangles, _normalize=False)) for t in order]
    assert shared == alone
    return order, shared


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_enumerated_functionals_equal_those_built_alone(n, reverse):
    # Enumerated triangulations gather closed forms from one shared table;
    # each value must be the one computed for the triangulation on its own.
    d = random_delaunay(np.random.default_rng(1300 + n), n)
    _assert_enumerated_equal_alone(d.points, reverse)


# Delaunay triangle (0, 1, 2) is a sliver: corners 1 and 2 are 4.0e-10
# apart, 1.0 from corner 0.  It is not collinear, so every triangulation that
# holds it has finite closed forms, read from its corners like any other.
SLIVER_SET = np.array(
    [
        [0.0, 0.0],
        [-0.5155492955567226, 0.8568599207869202],
        [-0.5155492958994666, 0.8568599205807005],
        [0.0040029158397650024, -0.5643534141876607],
        [1.1926405733334378, 0.0953437368576487],
        [0.6136574095329944, -0.817201543473843],
    ]
)


@pytest.mark.parametrize("reverse", [False, True])
def test_enumerated_functionals_of_the_sliver_set_equal_their_closed_forms(reverse):
    order, shared = _assert_enumerated_equal_alone(SLIVER_SET, reverse)
    assert not any(v.startswith("DegenerateSimplex") for vals in shared for v in vals)
    holds = [(0, 1, 2) in t.triangles for t in order]
    assert 0 < sum(holds) < len(holds)
    for t in order:
        area, e2, r2 = _closed_form_terms(t.points, t.triangles)
        vf = (np.asarray(t.signs) * (area / 12.0 * (e2 - 4.0 * r2))).tolist()
        rf2 = (r2 ** 1.0 * area).tolist()
        for report, values in ((vf_triangulation(t), vf), (radius_functional(t, 2.0), rf2)):
            assert all(np.isfinite(values))
            assert [v for _, v in report.per_simplex] == values
            assert report.total == sum(values)


_ALPHAS = (0.5, 1.0, 2.0, 3.0)


def _reports(t, rf_first):
    """vf, rajan and rf(alpha) of ``t`` for each of _ALPHAS; the radius functionals first if asked."""
    rf = [radius_functional(t, alpha) for alpha in _ALPHAS]
    plain = [vf_triangulation(t), rajan_triangulation(t)]
    return rf + plain if rf_first else plain + rf


@pytest.mark.parametrize("last_first, rf_first", [(True, False), (False, True)])
@pytest.mark.parametrize("n", range(4, 11))
def test_enumerated_totals_are_left_to_right_sums_equal_to_those_built_alone(n, last_first, rf_first):
    # An enumeration's totals come from one array pass over its table, and
    # its rows only when read.  In either reading order every total and row
    # must equal those of a fresh copy, and every total the left-to-right
    # float sum of its rows from 0.0.
    d = random_delaunay(np.random.default_rng(3100 + n), n)
    tris = enumerate_triangulations(d.points)
    order = tris[::-1] if last_first else tris
    totals = [[(r.kind, r.total) for r in _reports(t, rf_first)] for t in order]
    for t, shared in zip(order, totals):
        alone = _reports(Triangulation2(t.points, t.triangles), rf_first)
        assert shared == [(r.kind, r.total) for r in alone]
        for report, fresh in zip(_reports(t, rf_first), alone):
            assert report.per_simplex == fresh.per_simplex
            assert report.total == functools.reduce(operator.add, [v for _, v in report.per_simplex], 0.0)


def test_functional_report_keeps_its_constructor_and_value_semantics():
    tris = enumerate_triangulations(random_delaunay(np.random.default_rng(3111), 7).points)
    lazy = vf_triangulation(tris[-1])
    eager = FunctionalReport(lazy.kind, lazy.total, tuple(lazy.per_simplex))
    assert eager == lazy and hash(eager) == hash(lazy) and repr(eager) == repr(lazy)
    assert eager.to_json() == lazy.to_json()
    assert eager != FunctionalReport(lazy.kind, lazy.total + 1.0, eager.per_simplex)
    for name in ("kind", "total", "per_simplex"):
        with pytest.raises(AttributeError):
            setattr(lazy, name, None)


def test_report_to_json_refuses_a_non_finite_value():
    # orient2 is exact, so this right triangle is accepted; its closed forms overflow.
    d = delaunay([[0, 0], [1e160, 0], [0, 1e160]])
    with np.errstate(over="ignore", invalid="ignore"):
        report = vf_triangulation(d)
    assert not np.isfinite(report.total)
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()


def test_vf_triangle_raises_only_on_an_exactly_collinear_triangle():
    with pytest.raises(DegenerateSimplex, match=r"collinear triangle \(0, 1, 2\)"):
        vf_triangle(Triangle2((0.0, 0.0), (0.1, 0.3), (0.2, 0.6)))
    sliver = Triangle2(*SLIVER_SET[:3])
    area, e2, r2 = _closed_form_terms(SLIVER_SET[:3], [(0, 1, 2)])
    assert vf_triangle(sliver) == float(area[0] / 12.0 * (e2[0] - 4.0 * r2[0]))


def test_radius_functional_topological_rejected(rng):
    from vorfunc.tri2d import make_topological

    d = random_delaunay(rng, 5)
    t = make_topological(d, list(range(5)))
    with pytest.raises(ValueError):
        radius_functional(t, 2.0)


# -- closed-form invariance and exact oracle --------------------------------


def _transformed(d, shift=0.0, scale=1.0):
    return Triangulation2(d.points * scale + shift, d.triangles, _normalize=False)


@pytest.mark.parametrize("shift", [1e6, 1e7])
def test_closed_forms_translation_invariant(rng, shift):
    d = grid_delaunay(rng, 30)
    moved = _transformed(d, shift=shift)
    assert vf_triangulation(moved).total == pytest.approx(vf_triangulation(d).total, rel=1e-8)
    assert radius_functional(moved, 2.0).total == pytest.approx(
        radius_functional(d, 2.0).total, rel=1e-8
    )


@pytest.mark.parametrize("k", [-7, -1, 3, 12])
def test_vf_scales_exactly_by_powers_of_two(rng, k):
    d = grid_delaunay(rng, 30)
    scaled = vf_triangulation(_transformed(d, scale=2.0**k)).total
    assert scaled == 2.0 ** (4 * k) * vf_triangulation(d).total


def test_vf_label_permutation_invariant(rng):
    d = grid_delaunay(rng, 30)
    perm = rng.permutation(30)
    p = delaunay(d.points[perm])
    assert {tuple(sorted(int(perm[i]) for i in t)) for t in p.triangles} == set(d.canonical())
    ref = vf_triangulation(d)
    # Triangle order and rotation change, so only the summation order does.
    mass = sum(abs(v) for _, v in ref.per_simplex)
    assert abs(vf_triangulation(p).total - ref.total) <= 1e-13 * mass


def _exact_terms(pts, tri):
    # Orientation of the label triple, then VF, Rajan and rf2 as Fractions
    # from the same edge-vector closed form.
    (ax, ay), (bx, by), (cx, cy) = ([Fraction(int(x)) for x in pts[i]] for i in tri)
    ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
    cross = ux * vy - uy * vx
    uu, vv, ww = ux * ux + uy * uy, vx * vx + vy * vy, (ux - vx) ** 2 + (uy - vy) ** 2
    area = abs(cross) / 2
    r2 = uu * vv * ww / (4 * cross * cross)
    orient = 1 if cross > 0 else -1
    return orient, area / 12 * (uu + vv + ww - 4 * r2), area / 12 * (uu + vv + ww), r2 * area


INTEGER_POINTS = np.array([[0, 0], [8, 0], [4, 1], [3, 7], [11, 5], [-4, 6], [5, -9]], float)


def _close(value, exact):
    return abs(Fraction(value) - exact) <= Fraction(1, 10**14) * abs(exact)


def test_closed_forms_match_exact_oracle():
    d = delaunay(INTEGER_POINTS)
    vf = vf_triangulation(d).per_simplex
    rf2 = radius_functional(d, 2.0).per_simplex
    rajan = rajan_triangulation(d).per_simplex
    assert any(v < 0 for _, v in vf)  # an obtuse triangle is covered
    for idx, tri in enumerate(d.triangles):
        _, e_vf, e_rajan, e_rf2 = _exact_terms(d.points, tri)
        t = Triangle2(*d.points[list(tri)])
        assert vf[idx][0] == rf2[idx][0] == idx
        assert _close(vf[idx][1], e_vf) and _close(vf_triangle(t), e_vf)
        assert _close(rajan_triangle(t), e_rajan) and _close(rajan[idx][1], e_rajan)
        assert _close(rf2[idx][1], e_rf2)


def test_closed_forms_match_exact_oracle_topological():
    from vorfunc.tri2d import make_topological

    d = delaunay(INTEGER_POINTS)
    k = make_topological(d, [0, 1, 3, 2, 4, 5, 6])
    assert -1 in k.signs
    rep = vf_triangulation(k)
    for (idx, val), tri, sign in zip(rep.per_simplex, k.triangles, k.signs):
        orient, e_vf = _exact_terms(k.points, tri)[:2]
        assert orient == sign
        assert _close(val, sign * e_vf)


def test_collinear_triangle_named_by_labels():
    pts = np.array([[0, 0], [2, 0], [1, 2], [4, 0]], float)
    t = Triangulation2(pts, [(0, 1, 2), (1, 3, 0)], _normalize=False)
    for f in (vf_triangulation, lambda t: radius_functional(t, 2.0)):
        with pytest.raises(DegenerateSimplex, match=r"\(1, 3, 0\)"):
            f(t)


# -- mu decomposition --------------------------------------------------------


# A corner term integrates squared distance to the apex over (apex, mid, cc):
# the signed second_moment of that triangle about the apex.
def test_mu_term_unit_right_triangle():
    assert second_moment(np.array([[0.0, 0], [1, 0], [0, 1]])) == pytest.approx(1 / 6)


def test_mu_term_degenerate_zero():
    assert second_moment(np.array([[0.0, 0], [1, 1], [2, 2]])) == 0.0


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
    assert g_triangle_points(RIGHT_ISO, np.array([[0.1, 0.1]]))[0] == pytest.approx(0.02)


def test_g_outside_acute_is_zero(rng):
    for _ in range(50):
        t = random_triangle(rng, kind="acute")
        p = rng.random(2) * 6 - 2.5
        if g_triangle_points(t, p[None, :])[0] == 0.0:
            continue
        # Non-zero means p is inside; outside acute triangles give exactly 0.
        assert convex_polygon_masks_xy(t.vertices(), p[:1], p[1:])[0][0]


def test_g_obtuse_fold_value():
    assert g_triangle_points(OBTUSE_FLAT, np.array([[2, -0.1]]))[0] == pytest.approx(0.25 - 4.01)


def test_g_field_single_triangle_matches(rng):
    t = Triangulation2(np.array([[0.0, 0], [1, 0], [0, 1]]), [(0, 1, 2)])
    p = rng.random((40, 2)) * 3 - 1
    direct = g_triangle_points(RIGHT_ISO, p)
    assert np.allclose(g_field(t, p), direct)
    assert vf_triangulation(t).total == pytest.approx(vf_triangle(RIGHT_ISO))


def _g_field_unfiltered(t, pts):
    """Reference g_field: the kernel over every point for every triangle."""
    out = np.zeros(len(pts))
    for sign, tri in zip(t.signs, t.triangles):
        out += sign * _g_points(t.points[list(tri)], 3, pts[:, 0], pts[:, 1])
    return out


def _support_samples(t, rng, m):
    box = support_box(t)
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    return lo + rng.random((m, 2)) * (hi - lo)


def test_g_field_box_filter_is_exact(rng):
    # g_field skips the kernel outside each triangle's padded box of corners
    # and circumcenter; the values must be the unfiltered sum, bit for bit.
    from vorfunc.experiments import FOLDED_POINTS, FOLDED_SWAP

    folded = delaunay(FOLDED_POINTS)
    cases = [folded, make_topological(folded, FOLDED_SWAP)]
    for n in (6, 8, 10, 12):
        d = random_delaunay(rng, n)
        swap = np.arange(n)
        swap[[0, n - 1]] = swap[[n - 1, 0]]
        cases += [d, make_topological(d, swap)]
    # One angle of 174 degrees: the circumcenter lies 10 below the long edge.
    cases.append(Triangulation2(np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.05]]), [(0, 1, 2)]))
    grid = grid_delaunay(rng, 12)
    cases.append(Triangulation2(grid.points + 1e6, grid.triangles))
    assert any(s < 0 for t in cases for s in t.signs)
    for t in cases:
        pts = _support_samples(t, rng, 20000)
        assert np.array_equal(g_field(t, pts), _g_field_unfiltered(t, pts))


def _masks_row_major(verts, pts):
    """Reference for convex_polygon_masks_xy on (m, 2) rows, with visibility
    written column by column into (m, k)."""
    from vorfunc.geom import TAU_GEOM

    verts = np.asarray(verts, float)
    (ax, ay), (bx, by), (cx, cy) = verts[:3].tolist()
    reversed_order = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0.0
    v = verts[::-1] if reversed_order else verts
    k = len(v)
    inside = np.ones(len(pts), dtype=bool)
    visible = np.empty((len(pts), k), dtype=bool)
    for i in range(k):
        q = v[i]
        e = v[(i + 1) % k] - q
        dx = pts[:, 0] - q[0]
        dy = pts[:, 1] - q[1]
        cross = e[0] * dy - e[1] * dx
        scale = (abs(e[0]) + abs(e[1])) * (np.abs(dx) + np.abs(dy) + 1e-300)
        inside &= cross >= -TAU_GEOM * scale
        inner = cross > 0.0
        if i == 0:
            first_inner = inner
        else:
            np.logical_not(prev_inner & inner, out=visible[:, i])
        prev_inner = inner
    np.logical_not(prev_inner & first_inner, out=visible[:, 0])
    return inside, visible[:, ::-1] if reversed_order else visible


def _g_points_row_major(corners, h, pts):
    """Reference for _g_points: the kernel on (m, 2) rows with (m, k)
    squared distances reduced along the short last axis."""
    d2 = (pts[:, 0, None] - corners[None, :, 0]) ** 2
    d2 += (pts[:, 1, None] - corners[None, :, 1]) ** 2
    g = d2.min(axis=1)
    inside, vis = _masks_row_major(corners[:h], pts)
    outside = ~inside
    if outside.any():
        d2_vis = np.where(vis[outside], d2[outside, :h], np.inf)
        g[outside] = g[outside] - d2_vis.min(axis=1)
    return g


def test_column_kernels_equal_the_row_major_kernels(rng):
    cases = []
    for kind in ("acute", "obtuse"):
        v = random_triangle(rng, kind).vertices()
        cases += [(v, 3), (v[::-1].copy(), 3)]
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    cases += [(square, 4), (np.concatenate([square[::-1], [[0.5, 0.25], [0.25, 0.75]]]), 4)]
    for n in (7, 10):
        pts = rng.random((n, 2))
        hull = convex_hull(pts)
        cases.append((pts[list(hull) + sorted(set(range(n)) - set(hull))], len(hull)))
    for corners, h in cases:
        poly = corners[:h]
        # Corners, edge points (exactly on the square's edges), uniform
        # points around the polygon and NaN in either coordinate.
        s = rng.random((h, 5, 1))
        edge = poly[:, None] + s * (np.roll(poly, -1, axis=0) - poly)[:, None]
        pts = np.concatenate([corners, edge.reshape(-1, 2), rng.random((400, 2)) * 3 - 1])
        pts[[-1, -2]] = np.nan
        pts[-3, 0] = pts[-4, 1] = np.nan
        x, y = pts[:, 0].copy(), pts[:, 1].copy()
        want = _g_points_row_major(corners, h, pts)
        assert np.array_equal(_g_points(corners, h, x, y), want, equal_nan=True)
        assert np.isnan(want[-4:]).all()
        inside, vis = convex_polygon_masks_xy(poly, x, y)
        want_inside, want_vis = _masks_row_major(poly, pts)
        assert inside.shape == (len(pts),) and vis.shape == (h, len(pts))
        assert np.array_equal(inside, want_inside) and np.array_equal(vis, want_vis.T)
        assert inside[:h].all()


@pytest.mark.parametrize(
    "t", [Triangle2((0, 0), (1e-82, 0), (0, 1e-82)), Triangle2((0, 0), (1e-200, 0), (0, 1e-200)), Triangle2((0, 0), (1, 0), (2, 1e-170))]
)
def test_closed_forms_where_the_cross_product_underflows_equal_the_array_path(t):
    # (u x v)^2 underflows to 0.0: the terms are the one-row array's inf or NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        area, e2, r2 = _closed_form_terms(t.vertices(), [(0, 1, 2)])
        vf, rajan = vf_triangle(t), rajan_triangle(t)
    assert type(vf) is float and type(rajan) is float
    assert np.array_equal(vf, area[0] / 12.0 * (e2[0] - 4.0 * r2[0]), equal_nan=True)
    assert rajan == area[0] / 12.0 * e2[0]
    assert not np.isfinite(vf)


def test_vf_triangulation_report_consistency(rng):
    d = random_delaunay(rng, 10)
    rep = vf_triangulation(d)
    assert rep.total == pytest.approx(sum(v for _, v in rep.per_simplex), rel=1e-12)


def test_vf_acute_delaunay_equals_hull_integral():
    # All triangles acute: the functional equals the integral over the hull of
    # the squared distance to the nearest point.
    from vorfunc.experiments import FOLDED_POINTS

    d = delaunay(FOLDED_POINTS)
    hull_pts = d.points[convex_hull(d.points)]
    box = support_box(d)

    def integrand(p):
        d2 = ((p[:, None, :] - d.points[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        return d2 * convex_polygon_masks_xy(hull_pts, *p.T)[0]

    est = mc_integrate(box, integrand, 4 * 10**5, seed=12)
    assert abs(vf_triangulation(d).total - est.value) <= 3 * est.std_error


def test_vf_random_triangulation_matches_field_mc(rng):
    d = random_delaunay(rng, 7)
    tris = enumerate_triangulations(d.points)
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


@pytest.mark.parametrize("scale", [1.0, 2.0**-30])
def test_boundary_check_rejects_a_box_inside_the_points_at_any_scale(scale):
    # g scales as length^2, so at 2^-30 the border values of a box cut 0.3
    # scale units inside the points' bounding box are about 1e-20: not zero.
    # On the support box's border the kernel gives exactly 0.0 at both scales.
    d = random_delaunay(np.random.default_rng(31), 8, scale=scale)
    lo, hi = d.points.min(axis=0) + 0.3 * scale, d.points.max(axis=0) - 0.3 * scale
    with pytest.raises(InvalidRegion):
        assert_vanishes_on_boundary(d, Box(tuple(lo), tuple(hi)))
    assert_vanishes_on_boundary(d, support_box(d))


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
        if diagonal or not convex_polygon_masks_xy(cyc, p[:1], p[1:])[0][0]:
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
        tris = enumerate_triangulations(d.points)
        box = support_box(d)
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        pts = lo + rng.random((2000, 2)) * (hi - lo)
        g_d = g_field(d, pts)
        vf_d = vf_triangulation(d).total
        for k in tris:
            assert vf_triangulation(k).total <= vf_d + 1e-9
            assert float((g_field(k, pts) - g_d).max()) <= 1e-9


def test_support_box_ignores_corner_rotation_and_triangle_order(rng):
    for _ in range(20):
        d = random_delaunay(rng, int(rng.integers(6, 15)))
        want = support_box(d)
        for r in range(3):
            rotated = [t[r:] + t[:r] for t in d.triangles]
            assert support_box(Triangulation2(d.points, rotated)) == want
        mixed = [d.triangles[i] for i in rng.permutation(len(d.triangles))]
        mixed = [t[r:] + t[:r] for t, r in zip(mixed, rng.integers(0, 3, len(mixed)))]
        assert support_box(Triangulation2(d.points, mixed)) == want
