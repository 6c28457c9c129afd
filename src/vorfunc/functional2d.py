"""Planar triangulation functionals.

Per-triangle closed forms:

    vf_triangle     (area/12) * (a^2 + b^2 + c^2 - 4 R^2)
    rajan_triangle  (area/12) * (a^2 + b^2 + c^2)

with R the circumradius and a, b, c the edge lengths.  The area, the edge
sum and R come from the edge vectors u = b - a and v = c - a alone,

    area = |u x v| / 2,   a^2 + b^2 + c^2 = |u|^2 + |v|^2 + |u - v|^2,
    4 R^2 = |u|^2 |v|^2 |u - v|^2 / (u x v)^2,

evaluated for all triangles of a triangulation at once.  vf_triangle equals the
integral over the triangle of the squared distance to the nearest vertex when
all angles are acute, and is defined by the same closed form (possibly
negative) in the obtuse case.

The pointwise field g carries the same information locally:

    g(x) = d(x, nearest vertex)^2 - d(x, nearest visible vertex)^2

with the second term zero for x inside the triangle; vf_triangle is the
integral of g over the whole plane.  Triangulation-level values are the
orientation-signed sums over triangles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplex, NonConvexQuad
from .geom import (
    TAU_GEOM,
    Triangle2,
    circumcircle2,
    convex_polygon_masks,
    in_circle,
    orient2,
    signed_area,
)
from .integrate import Box, check_vanishes_on_boundary, quad_triangle
from .tri2d import GEOMETRIC, Triangulation2, convex_hull


@dataclass(frozen=True)
class FunctionalReport:
    """Functional value with its per-simplex breakdown; total is their sum."""

    kind: str
    total: float
    per_simplex: tuple

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "kind": self.kind,
                "total": self.total,
                "per_simplex": [[int(i), float(v)] for i, v in self.per_simplex],
            }
        )


def _closed_form_terms(points, triangles):
    """Area, squared-edge sum and squared circumradius of each triangle.

    ``points`` is (n, 2) and ``triangles`` a (T, 3) label array; returns
    three (T,) arrays from the edge vectors u = b - a and v = c - a only, so
    the values do not depend on where the triangle sits.  Raises
    DegenerateSimplex, naming the labels, for a triangle orient2 calls
    collinear.
    """
    pts = np.asarray(points, float)
    tri = np.asarray(triangles, int).reshape(-1, 3)
    a = pts[tri[:, 0]]
    u = pts[tri[:, 1]] - a
    v = pts[tri[:, 2]] - a
    u0, u1, v0, v1 = u[:, 0], u[:, 1], v[:, 0], v[:, 1]
    cross = u0 * v1 - u1 * v0
    # orient2's degeneracy rule, elementwise with the same arithmetic.
    collinear = np.abs(cross) <= TAU_GEOM * ((np.abs(u0) + np.abs(u1)) * (np.abs(v0) + np.abs(v1)))
    if collinear.any():
        labels = tuple(int(i) for i in tri[np.argmax(collinear)])
        raise DegenerateSimplex(f"collinear triangle {labels}")
    w0, w1 = u0 - v0, u1 - v1
    uu, vv, ww = u0 * u0 + u1 * u1, v0 * v0 + v1 * v1, w0 * w0 + w1 * w1
    return 0.5 * np.abs(cross), uu + vv + ww, uu * vv * ww / (4.0 * cross * cross)


def vf_triangle(t: Triangle2) -> float:
    """Closed-form Voronoi functional of one triangle; negative when obtuse enough."""
    area, e2, r2 = _closed_form_terms(t.vertices(), [(0, 1, 2)])
    return float(area[0] / 12.0 * (e2[0] - 4.0 * r2[0]))


def rajan_triangle(t: Triangle2) -> float:
    """(area/12) * (sum of squared edge lengths); always nonnegative."""
    area, e2, _ = _closed_form_terms(t.vertices(), [(0, 1, 2)])
    return float(area[0] / 12.0 * e2[0])


def _report(kind: str, values: np.ndarray) -> FunctionalReport:
    per = tuple(enumerate(values.tolist()))
    return FunctionalReport(kind, float(sum(v for _, v in per)), per)


def vf_triangulation(t: Triangulation2) -> FunctionalReport:
    """Orientation-signed sum of vf_triangle over all triangles."""
    area, e2, r2 = _closed_form_terms(t.points, t.triangles)
    return _report("vf", np.asarray(t.signs) * (area / 12.0 * (e2 - 4.0 * r2)))


def rajan_triangulation(t: Triangulation2) -> FunctionalReport:
    """Orientation-signed sum of rajan_triangle over all triangles."""
    area, e2, _ = _closed_form_terms(t.points, t.triangles)
    return _report("rajan", np.asarray(t.signs) * (area / 12.0 * e2))


def radius_functional(t: Triangulation2, alpha: float) -> FunctionalReport:
    """Sum over triangles of circumradius**alpha times area (geometric only)."""
    if t.kind != GEOMETRIC:
        raise ValueError("radius functional is defined for geometric triangulations")
    area, _, r2 = _closed_form_terms(t.points, t.triangles)
    return _report(f"rf{alpha:g}", r2 ** (alpha / 2.0) * area)


def mu_term(apex, mid, cc) -> float:
    """Integral of squared distance to ``apex`` over triangle (apex, mid, cc).

    Signed by the orientation of that triangle; degenerate input gives 0.
    """
    apex = np.asarray(apex, float)
    tri = Triangle2(apex, mid, cc)
    return quad_triangle(tri, lambda pts: ((pts - apex) ** 2).sum(axis=1))


def mu_terms(t: Triangle2) -> list:
    """The six signed corner terms whose sum is vf_triangle.

    Each term integrates squared distance to a vertex over the triangle made
    of that vertex, an adjacent edge midpoint, and the circumcenter.  For an
    acute triangle all six are positive; an obtuse angle makes the two terms
    at the opposite edge's midpoint negative.
    """
    v = t.vertices()
    if signed_area(v[0], v[1], v[2]) < 0.0:
        v = v[::-1]
    z = circumcircle2(Triangle2(*v)).center
    a, b, c = v
    m_bc = 0.5 * (b + c)
    m_ca = 0.5 * (c + a)
    m_ab = 0.5 * (a + b)
    return [
        mu_term(a, z, m_ca),
        mu_term(a, m_ab, z),
        mu_term(b, z, m_ab),
        mu_term(b, m_bc, z),
        mu_term(c, z, m_bc),
        mu_term(c, m_ca, z),
    ]


# ---------------------------------------------------------------------------
# Pointwise field
# ---------------------------------------------------------------------------


def g_triangle_points(t: Triangle2, pts: np.ndarray) -> np.ndarray:
    """Vectorized g over an (m, 2) array of sample points.

    Points on the triangle boundary count as inside (measure zero; keeps the
    inside/outside split total).
    """
    verts = t.vertices()
    if orient2(*verts) == 0:
        raise DegenerateSimplex("collinear triangle")
    pts = np.asarray(pts, float)
    d2 = (pts[:, 0, None] - verts[None, :, 0]) ** 2
    d2 += (pts[:, 1, None] - verts[None, :, 1]) ** 2
    nearest = d2.min(axis=1)
    g = nearest.copy()
    inside, vis = convex_polygon_masks(verts, pts)
    outside = ~inside
    if outside.any():
        d2_vis = np.where(vis[outside], d2[outside], np.inf)
        g[outside] = nearest[outside] - d2_vis.min(axis=1)
    return g


def g_triangle(t: Triangle2, p) -> float:
    """g at a single point: nearest squared distance inside, difference outside."""
    return float(g_triangle_points(t, np.asarray(p, float)[None, :])[0])


def g_field(t: Triangulation2, x):
    """Orientation-signed sum of per-triangle g over a triangulation.

    Accepts a single point (2,) or an array (m, 2) and returns a float or an
    (m,) array accordingly.
    """
    pts = np.asarray(x, float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    out = np.zeros(len(pts))
    for idx, tri in enumerate(t.triangles):
        out += t.signs[idx] * g_triangle_points(Triangle2(*t.points[list(tri)]), pts)
    return float(out[0]) if single else out


def support_box(t: Triangulation2, pad_factor: float = 1.0) -> Box:
    """Bounding box of the points inflated by the largest circumdiameter.

    Outside this box every triangle's g vanishes (nearest equals nearest
    visible), so it bounds the support of g_field.
    """
    _, _, r2 = _closed_form_terms(t.points, t.triangles)
    pad = 2.0 * np.sqrt(r2.max(initial=0.0)) * pad_factor + 1e-9
    lo = t.points.min(axis=0) - pad
    hi = t.points.max(axis=0) + pad
    return Box(tuple(lo), tuple(hi))


def assert_vanishes_on_boundary(t: Triangulation2, box: Box, n_samples: int = 256):
    """Spot-check that g_field is zero on the box boundary before trusting MC.

    Raises InvalidRegion otherwise.
    """
    check_vanishes_on_boundary(lambda x: g_field(t, x), box, n_samples)


# ---------------------------------------------------------------------------
# Flip delta
# ---------------------------------------------------------------------------


def _quad_cycle(quad: np.ndarray) -> np.ndarray:
    hull = convex_hull(quad)
    if len(hull) != 4:
        raise NonConvexQuad("four points are not in strictly convex position")
    return np.asarray(hull, int)


def flip_delta(quad, p) -> float:
    """g(Delaunay diagonal) minus g(other diagonal) at p, for a convex quadrangle.

    Evaluates both two-triangle fields directly.  The value is either 0 or
    the difference of squared distances to the third- and second-nearest
    corner, the latter exactly when the two nearest corners span a diagonal.
    """
    quad = np.asarray(quad, float)
    p = np.asarray(p, float)
    cyc = _quad_cycle(quad)
    q = quad[cyc]
    first = [Triangle2(q[0], q[1], q[2]), Triangle2(q[0], q[2], q[3])]
    second = [Triangle2(q[0], q[1], q[3]), Triangle2(q[1], q[2], q[3])]
    # Diagonal (0, 2) is Delaunay unless corner 3 encroaches its circumcircle.
    if in_circle(first[0], q[3]) > 0:
        dtri, ktri = second, first
    else:
        dtri, ktri = first, second
    g_d = sum(g_triangle(tt, p) for tt in dtri)
    g_k = sum(g_triangle(tt, p) for tt in ktri)
    return float(g_d - g_k)


def flip_delta_law(quad, p) -> tuple[float, bool]:
    """Predicted flip delta: (value, nearest-two-span-a-diagonal flag).

    Sorting the corners by distance from p as a, b, c, d, the delta is
    d(p,c)^2 - d(p,b)^2 when {a, b} is a diagonal of the quadrangle and 0
    otherwise.
    """
    quad = np.asarray(quad, float)
    p = np.asarray(p, float)
    cyc = _quad_cycle(quad)
    q = quad[cyc]
    d2 = ((q - p) ** 2).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    diagonal = {int(order[0]), int(order[1])} in ({0, 2}, {1, 3})
    if diagonal:
        return float(d2[order[2]] - d2[order[1]]), True
    return 0.0, False
