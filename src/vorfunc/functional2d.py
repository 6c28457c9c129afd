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

Every total is one rule, ``_left_sum``: a left-to-right float sum from 0.0
in triangle order.  Every report reads a table of ordered triples and a
(T, N) matrix of row ids, one column per triangulation: one enumeration's
triangulations share one, any other gets a one-column table of its own on
first use.  One closed-form pass over the triples serves every functional,
whose totals for all N triangulations come from one _left_sum over its
signed row values gathered by that matrix; per-triangle rows are built only
when read.  The arithmetic is elementwise, so every row and total equals the
value the triangulation would get alone; the last bits depend on the first
corner, so rows are keyed by ordered triple.

The pointwise field g carries the same information locally:

    g(x) = d(x, nearest vertex)^2 - d(x, nearest visible vertex)^2

with the second term zero for x inside the triangle; vf_triangle is the
integral of g over the whole plane.  Triangulation-level values are the
orientation-signed sums over triangles.  One kernel, ``_g_points``, evaluates
g for a triangle, for the flip quadrangle's four triangles and, with the hull
as the polygon, for a whole point set (``nearest_minus_visible_field``).
It works on coordinate columns: the sample points come in as contiguous x
and y arrays, and the squared distances and geom's visibility masks
(``convex_polygon_masks_xy``) are (k, m) arrays with one contiguous row per
corner, reduced across rows, so no arithmetic runs along a short last axis.
A triangle's g vanishes outside the hull of its corners and circumcenter, so
``g_field`` copies the coordinate columns once per call and hands the kernel
the columns of the points in that hull's padded box.

The six corner terms of mu_terms are the flags of the triangle's barycentric
subdivision, evaluated by geom's flag kernel ``flag_terms``, the one that
serves the subdivision in both dimensions.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter

import numpy as np

from .errors import DegenerateSimplex, NonConvexQuad
from .geom import (
    Triangle2,
    circumcenter_offset,
    convex_polygon_masks_xy,
    flag_terms,
    in_circle_xy,
    orient2,
    orient2_xy,
    reject_degenerate,
)
from .integrate import Box, check_vanishes_on_boundary
from .tri2d import GEOMETRIC, Triangulation2, _TriangleTable, convex_hull


class FunctionalReport:
    """Functional value with its per-simplex breakdown: ``per_simplex`` is a
    tuple of (index, value) pairs and ``total`` their _left_sum.

    Read-only; ``==`` and ``hash`` compare (kind, total, per_simplex).  A
    triangulation's report is given a function in place of ``per_simplex``
    that returns the values, called when the rows are first read.
    """

    __slots__ = ("_kind", "_total", "_rows")

    def __init__(self, kind: str, total: float, per_simplex):
        self._kind, self._total, self._rows = kind, total, per_simplex

    kind = property(attrgetter("_kind"))
    total = property(attrgetter("_total"))

    @property
    def per_simplex(self) -> tuple:
        if callable(self._rows):
            self._rows = tuple(enumerate(self._rows()))
        return self._rows

    def _key(self):
        return self.kind, self.total, self.per_simplex

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, FunctionalReport) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FunctionalReport(kind={self.kind!r}, total={self.total!r}, per_simplex={self.per_simplex!r})"

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "kind": self.kind,
                "total": self.total,
                "per_simplex": [[int(i), float(v)] for i, v in self.per_simplex],
            },
            allow_nan=False,
        )


def _corners(points, triangles):
    """Labels (T, 3) and corner coordinates (T, 3, 2) of a triangle array."""
    tri = np.asarray(triangles, int).reshape(-1, 3)
    return tri, np.asarray(points, float)[tri]


def _circumcenters(p):
    """Circumcenters (T, 2) of triangles with corners ``p`` (T, 3, 2), from edge vectors."""
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return p[:, 0] + np.stack(circumcenter_offset(u[:, 0], u[:, 1], v[:, 0], v[:, 1]), axis=1)


def _closed_form(ux, uy, vx, vy):
    """Area, squared-edge sum and squared circumradius from edge-vector components.

    Takes floats for one triangle or (T,) arrays for many, with the same
    arithmetic; the caller has rejected collinear triangles.
    """
    cross = ux * vy - uy * vx
    wx, wy = ux - vx, uy - vy
    uu, vv, ww = ux * ux + uy * uy, vx * vx + vy * vy, wx * wx + wy * wy
    return 0.5 * abs(cross), uu + vv + ww, uu * vv * ww / (4.0 * cross * cross)


def _closed_form_terms(points, triangles):
    """Area, squared-edge sum and squared circumradius of each triangle.

    ``points`` is (n, 2) and ``triangles`` a (T, 3) label array; returns
    three (T,) arrays from the edge vectors u = b - a and v = c - a only, so
    the values do not depend on where the triangle sits.  Raises
    DegenerateSimplex, naming the labels, for an exactly collinear triangle.
    """
    tri, p = _corners(points, triangles)
    reject_degenerate(tri, p)
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    return _closed_form(u[:, 0], u[:, 1], v[:, 0], v[:, 1])


def _left_sum(values: np.ndarray):
    """The one summation rule of every total: a left-to-right float sum from
    0.0 down axis 0 of ``values``, (T,) or (T, N).

    That is what builtin ``sum`` does with floats on Python 3.10 and 3.11;
    3.12 compensates it, so the totals do not call it.
    """
    return np.add.accumulate(np.concatenate([np.zeros((1,) + values.shape[1:]), values]))[-1]


def _report(t: Triangulation2, kind: str, key, formula) -> FunctionalReport:
    """The report of formula(area, e2, r2) over ``t``'s triangles, signed.

    The total is column ``key`` of a table: an enumeration's, or a one-column
    table of ``t``'s own triangles and signs, made on first use.  A column's
    first use makes its row values from the table's closed-form terms (one
    pass, shared by every functional) times the signs, and the totals of all
    the table's triangulations from one _left_sum over the row-id matrix.
    Every enumerated triangle came from an exact strictly convex flip, so
    none is collinear and every sign is +1.
    """
    if t._table is None:
        ids = np.arange(len(t.triangles))[:, None]
        t._table, t._index = _TriangleTable(t.triangles, ids, np.asarray(t.signs)), 0
    table = t._table
    if key not in table.columns:
        if table.terms is None:
            table.terms = _closed_form_terms(t.points, table.triangles)
        column = table.signs * formula(*table.terms)
        table.columns[key] = column, _left_sum(column[table.ids]).tolist()
    column, totals = table.columns[key]
    ids, i = table.ids, t._index
    return FunctionalReport(kind, totals[i], lambda: column[ids[:, i]].tolist())


def _triangle_terms(t: Triangle2):
    """_closed_form_terms of one triangle, on plain floats; as one-row arrays
    (inf or NaN) where (u x v)^2 underflows to 0.0."""
    ax, ay, bx, by, cx, cy = t.xy
    if orient2_xy(ax, ay, bx, by, cx, cy) == 0:
        raise DegenerateSimplex("collinear triangle (0, 1, 2)")
    uv = bx - ax, by - ay, cx - ax, cy - ay
    try:
        return _closed_form(*uv)
    except ZeroDivisionError:
        return tuple(float(term[0]) for term in _closed_form(*np.array(uv)[:, None]))


def vf_triangle(t: Triangle2) -> float:
    """Closed-form Voronoi functional of one triangle; negative when obtuse enough."""
    area, e2, r2 = _triangle_terms(t)
    return area / 12.0 * (e2 - 4.0 * r2)


def rajan_triangle(t: Triangle2) -> float:
    """(area/12) * (sum of squared edge lengths); always nonnegative."""
    area, e2, _ = _triangle_terms(t)
    return area / 12.0 * e2


def vf_triangulation(t: Triangulation2) -> FunctionalReport:
    """Orientation-signed sum of vf_triangle over all triangles."""
    return _report(t, "vf", "vf", lambda area, e2, r2: area / 12.0 * (e2 - 4.0 * r2))


def rajan_triangulation(t: Triangulation2) -> FunctionalReport:
    """Orientation-signed sum of rajan_triangle over all triangles."""
    return _report(t, "rajan", "rajan", lambda area, e2, r2: area / 12.0 * e2)


def radius_functional(t: Triangulation2, alpha: float) -> FunctionalReport:
    """Sum over triangles of circumradius**alpha times area (geometric only).

    ValueError for a non-finite ``alpha``, before any table column is made.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    if t.kind != GEOMETRIC:
        raise ValueError("radius functional is defined for geometric triangulations")
    # Keyed by alpha itself: labels such as "rf2" round it.
    return _report(t, f"rf{alpha:g}", alpha, lambda area, e2, r2: r2 ** (alpha / 2.0) * area)


# ---------------------------------------------------------------------------
# Corner terms
# ---------------------------------------------------------------------------


def mu_terms(t: Triangle2) -> list:
    """The six signed corner terms whose sum is vf_triangle.

    Each term integrates squared distance to a vertex over the triangle made
    of that vertex, an adjacent edge midpoint, and the circumcenter.  For an
    acute triangle all six are positive; an obtuse angle makes the two terms
    at the opposite edge's midpoint negative.  With the vertices (a, b, c) in
    counterclockwise order the terms belong to the flags (a, ca), (a, ab),
    (b, ab), (b, bc), (c, bc), (c, ca).
    """
    ccw = (0, 1, 2) if orient2(*t.vertices()) >= 0 else (2, 1, 0)
    sign, integral, _ = flag_terms(t.vertices(), [ccw])
    return (sign[0] * integral[0])[[1, 0, 2, 3, 5, 4]].tolist()


# ---------------------------------------------------------------------------
# Pointwise field
# ---------------------------------------------------------------------------


def _g_points(corners: np.ndarray, h: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The one g kernel over sample points given as coordinate columns x, y.

    Nearest squared distance over all ``corners``, minus, for points outside
    the convex polygon ``corners[:h]``, the nearest squared distance to a
    visible corner of that polygon.  Points on the polygon boundary count as
    inside (measure zero; keeps the inside/outside split total).  Squared
    distances are a (k, m) array, one contiguous row per corner, reduced
    across rows; the visible minimum is subtracted at outside points only.

    Where the nearest corner is visible the two terms are the same float and
    g is exactly 0.0.  For one triangle that holds outside the convex hull of
    its corners and its circumcenter: outside the triangle a corner A is
    hidden only beyond the opposite edge, inside the wedge at A, and the part
    of that wedge nearest to A is the kite (A, midpoints of the two edges at
    A, circumcenter), which crosses the opposite edge only when A is obtuse.
    """
    d2 = (x - corners[:, :1]) ** 2
    d2 += (y - corners[:, 1:]) ** 2
    g = d2.min(axis=0)
    inside, vis = convex_polygon_masks_xy(corners[:h], x, y)
    np.subtract(g, np.where(vis, d2[:h], np.inf).min(axis=0), out=g, where=~inside)
    return g


def g_triangle_points(t: Triangle2, pts: np.ndarray) -> np.ndarray:
    """Vectorized g of one triangle over an (m, 2) array of sample points."""
    verts = t.vertices()
    if orient2(*verts) == 0:
        raise DegenerateSimplex("collinear triangle")
    return _g_points(verts, 3, *np.asarray(pts, float).T)


# Relative pad of the boxes that g is evaluated in: far wider than the
# TAU_GEOM band of convex_polygon_masks_xy and the rounding of squared distances,
# so every point left out is one where the kernel gives exactly 0.0.
_SUPPORT_PAD = 1e-6


def _padded_box(lo, hi):
    """(lo, hi) widened on every side by _SUPPORT_PAD of the largest extent.

    Works on (2,) corners or on (T, 2) rows of them.
    """
    pad = _SUPPORT_PAD * (hi - lo).max(axis=-1, keepdims=True)
    return lo - pad, hi + pad


def _box_indices(x, y, lo, hi):
    """Indices of the points (x[i], y[i]) not outside the box [lo, hi].

    ``x`` and ``y`` are contiguous coordinate columns, ``lo`` and ``hi``
    pairs of floats.  NaN samples and a box with non-finite corners keep every
    point they touch, so the kernel still sees them.
    """
    (lx, ly), (hx, hy) = lo, hi
    return np.flatnonzero(~((x < lx) | (x > hx) | (y < ly) | (y > hy)))


def g_field(t: Triangulation2, x):
    """Orientation-signed sum of per-triangle g over a triangulation.

    Accepts a single point (2,) or an array (m, 2) and returns a float or an
    (m,) array accordingly.  Each triangle's g vanishes outside the convex
    hull of its corners and circumcenter (``_g_points``), so the kernel runs
    only on the points inside that hull's padded bounding box; the value is
    the same as summing the kernel over every point.
    """
    pts = np.asarray(x, float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    out = np.zeros(len(pts))
    _, p = _corners(t.points, t.triangles)
    # Where the circumcenter overflows, the non-finite box keeps every point.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        center = _circumcenters(p)
        lo, hi = _padded_box(np.minimum(p.min(axis=1), center), np.maximum(p.max(axis=1), center))
    xs, ys = pts[:, 0].copy(), pts[:, 1].copy()
    for sign, corners, tri_lo, tri_hi in zip(t.signs, p, lo.tolist(), hi.tolist()):
        sel = _box_indices(xs, ys, tri_lo, tri_hi)
        out[sel] += sign * _g_points(corners, 3, xs[sel], ys[sel])
    return float(out[0]) if single else out


def support_box(t: Triangulation2) -> Box:
    """Bounding box of the points inflated by the largest circumdiameter.

    Outside this box every triangle's g vanishes (nearest equals nearest
    visible), so it bounds the support of g_field.  Each triple is rotated to
    start at its smallest label first, so the box does not depend on the
    triangles' corner rotation or order.
    """
    tri = np.asarray(t.triangles, int).reshape(-1, 3)
    tri = np.take_along_axis(tri, (tri.argmin(axis=1)[:, None] + np.arange(3)) % 3, axis=1)
    _, _, r2 = _closed_form_terms(t.points, tri)
    pad = 2.0 * np.sqrt(r2.max(initial=0.0)) + 1e-9
    lo = t.points.min(axis=0) - pad
    hi = t.points.max(axis=0) + pad
    return Box(tuple(lo), tuple(hi))


def assert_vanishes_on_boundary(t: Triangulation2, box: Box):
    """Spot-check that g_field is zero on the box boundary before trusting MC.

    Evaluates the kernel of every triangle at every border point, without
    g_field's support filter, so the check tests g itself.  Raises
    InvalidRegion otherwise.
    """
    _, p = _corners(t.points, t.triangles)

    def field(x):
        return sum(sign * _g_points(corners, 3, *x.T) for sign, corners in zip(t.signs, p))

    check_vanishes_on_boundary(field, box)


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
    x, y = np.asarray(p, float)[:, None]
    q = quad[_quad_cycle(quad)]
    first, second = [(0, 1, 2), (0, 2, 3)], [(0, 1, 3), (1, 2, 3)]
    # Diagonal (0, 2) is Delaunay unless corner 3 encroaches its circumcircle.
    if in_circle_xy(*q.ravel().tolist()) > 0:
        dtri, ktri = second, first
    else:
        dtri, ktri = first, second
    g_d = sum(float(_g_points(q[list(tt)], 3, x, y)[0]) for tt in dtri)
    g_k = sum(float(_g_points(q[list(tt)], 3, x, y)[0]) for tt in ktri)
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
