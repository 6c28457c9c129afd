"""Geometric primitives in 2D and 3D.

Orientation and in-circle/in-sphere predicates, circumcenters, and one
containment and vertex-visibility kernel for convex polygons.  ``_as_points``
and ``_as_labels`` are the one point check and the one label check.

Every predicate is exact: "degenerate" means exactly degenerate.  A float
determinant beyond Shewchuk's static error bound (Adaptive Precision
Floating-Point Arithmetic and Fast Robust Geometric Predicates, DCG 18,
1997) has the exact sign; every other decision is one routine,
``_exact_sign``, an integer determinant of the coordinates scaled to ints by
one power of two.  ``orient`` is every simplex's orientation, one array pass
of the filter for d = 2 and 3.  The planar predicates have one kernel each
on plain Python floats, ``orient2_xy`` and ``in_circle_xy``, for loops that
test many triples (the Delaunay sweep and its flips, flip-graph
enumeration); ``orient2``/``in_circle`` delegate to them, and the sweep,
which knows its triangles are ccw, calls ``in_circle_ccw_xy`` without the
orientation check.  ``in_sphere`` is ``_exact_sign`` of each pair, with no
filter.  ``TAU_GEOM`` serves only ``convex_polygon_masks_xy``' closed band.

``det3``, the triple product, is the one 3D determinant: ``simplex_volume``
(the one signed area or volume, of (..., d + 1, d) corner arrays) and
``orient``'s filter use it.
``circumcenter_offset`` (in the plane), ``circumcenter_offset3`` and
``circumsphere_offset`` (in space) give circumcenters from edge vectors,
elementwise on arrays.  With them ``flag_terms``, the one flag kernel, gives
the barycentric subdivision's cells for triangles and tetrahedra alike, from
one flag table ``FLAGS`` and one simplex integral ``second_moment``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSimplex

# Relative tolerance of convex_polygon_masks_xy's closed band.
TAU_GEOM = 1e-9

# Shewchuk's static error bounds for orientation in d = 2 and 3 and for
# in-circle, eps = 2^-53: a float determinant larger in magnitude than the
# bound times the sum of the magnitudes of its products (the permanent) has
# the exact sign.  A bound below _BOUND_MIN (in orient, _BOUND_MIN times
# 1 + |row 0|_1) may hide underflow and decides nothing; an infinite or NaN
# one fails every comparison.  Either way the sign is then computed exactly.
_EPS = 2.0**-53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ORIENT3_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_IN_CIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS
_BOUND_MIN = 1e-250


def _as_points(points, dim):
    """The points as the rows of a read-only (k, dim) float copy, checked in one pass.

    The one shape and finiteness check of the package: ValueError for any
    other shape, or naming the first point with a non-finite coordinate.
    """
    a = np.array(points, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {a.shape}")
    if not np.isfinite(a).all():
        bad = int(np.argmin(np.isfinite(a).all(axis=1)))
        raise ValueError(f"point {bad} has a non-finite coordinate")
    a.setflags(write=False)
    return a


def _as_labels(simplices, n, k, name):
    """The simplices as the rows of a (T, k) int array, checked in one pass.

    The one label check of the package: ValueError for rows of another length,
    or naming the first with a label that is not an integral value in range(n).
    """
    a = np.array(simplices, dtype=float)
    if a.ndim > 2 or a.size and a.shape[-1:] != (k,):
        raise ValueError(f"expected {name} rows of {k} labels, got shape {a.shape}")
    a = a.reshape(-1, k)
    ok = ((a >= 0) & (a < n) & (a == np.floor(a))).all(axis=1)
    if not ok.all():
        bad = ", ".join(str(int(v) if v.is_integer() else v) for v in a[np.argmin(ok)].tolist())
        raise ValueError(f"{name} ({bad}) has a label outside range({n})")
    return a.astype(int)


@dataclass
class Triangle2:
    """Three points in the plane, kept in the given order.

    Degeneracy (zero signed area) is detected by the predicates that care,
    not rejected at construction.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a, self.b, self.c = _as_points((self.a, self.b, self.c), 2)

    def vertices(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


class CircumData(NamedTuple):
    center: np.ndarray
    radius: float


def det3(u, v, w):
    """Triple product u . (v x w), the determinant of the rows u, v, w.

    Elementwise over the leading axes of (..., 3) arrays; the one 3D
    determinant of the package.
    """
    return (u * np.cross(v, w)).sum(axis=-1)


def _dyadic_ints(values) -> list:
    """The finite floats ``values`` times one power of two (the largest denominator), as exact ints."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios]


def _int_det(rows) -> int:
    """Determinant of square int rows, by cofactors along the first column."""
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum(
        (-1) ** i * r[0] * _int_det([s[1:] for j, s in enumerate(rows) if j != i]) for i, r in enumerate(rows) if r[0]
    )


def _exact_sign(points, lift=False) -> int:
    """Sign of det [1, p, |p|^2 if lift] over the d + 1 (+ lift) rows p of ``points`` in any d.

    Without lift, the simplex's orientation.  Subtracting row 0 clears the
    ones column and, with a column operation, leaves rows (e_i[, |e_i|^2]) of
    the edge vectors e_i = p_i - p_0.
    """
    d = len(points[0])
    q = _dyadic_ints([x for p in points for x in p])
    rows = [[x - y for x, y in zip(q[i : i + d], q[:d])] for i in range(d, len(q), d)]
    if lift:
        rows = [r + [sum(x * x for x in r)] for r in rows]
    det = _int_det(rows)
    return (det > 0) - (det < 0)


def orient2_xy(ax, ay, bx, by, cx, cy) -> int:
    """orient2 of (ax, ay), (bx, by), (cx, cy) on plain floats, exact."""
    left = (bx - ax) * (cy - ay)
    right = (by - ay) * (cx - ax)
    det = left - right
    bound = _ORIENT_BOUND * (abs(left) + abs(right))
    if bound > _BOUND_MIN:
        if det > bound:
            return 1
        if -det > bound:
            return -1
    return _exact_sign(((ax, ay), (bx, by), (cx, cy)))


def orient(corners):
    """+1, -1 or 0 (exactly degenerate) for each simplex of (..., d + 1, d) corners, d = 2 or 3.

    The filter decides every simplex at once from the edge vectors off corner
    0; those it leaves undecided (overflowed ones too) get ``_exact_sign``.
    """
    c = np.asarray(corners, float)
    with np.errstate(over="ignore", invalid="ignore"):
        e = c[..., 1:, :] - c[..., :1, :]
        det, size = _det(e), np.abs(e)
        bound = (_ORIENT_BOUND if c.shape[-1] == 2 else _ORIENT3_BOUND) * _permanent(size)
        # In space a product of two coordinates that underflows errs by up to
        # 2^-1075, which det multiplies by a coordinate of row 0.
        floor = _BOUND_MIN * (1.0 + sum(size[..., 0, k] for k in range(c.shape[-1])))
    sign = np.where(det > 0, 1, -1)
    undecided = ~((np.abs(det) > bound) & (bound > floor))
    sign[undecided] = [_exact_sign(s) for s in c[undecided].tolist()]
    return sign


def reject_degenerate(labels, corners):
    """orient of (T, d + 1, d) corners, or DegenerateSimplex naming the first degenerate simplex."""
    if not (sign := orient(corners)).all():
        name = "collinear triangle" if corners.shape[-1] == 2 else "coplanar tetrahedron"
        raise DegenerateSimplex(f"{name} {tuple(labels[np.argmin(sign != 0)].tolist())}")
    return sign


def orient2(a, b, c) -> int:
    """Sign of twice the signed area of (a, b, c): +1 ccw, -1 cw, 0 collinear.

    Exact for any finite coordinates (``orient2_xy``).
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return orient2_xy(float(ax), float(ay), float(bx), float(by), float(cx), float(cy))


def circumcenter_offset(ux, uy, vx, vy):
    """Circumcenter minus a of the triangle (a, a + u, a + v), as (x, y).

    From the edge vectors alone, so it does not depend on where the triangle
    sits: (|u|^2 (v_y, -v_x) - |v|^2 (u_y, -u_x)) / (2 u x v).  Works on floats
    and elementwise on equal-shape arrays.
    """
    uu = ux * ux + uy * uy
    vv = vx * vx + vy * vy
    d = 2.0 * (ux * vy - uy * vx)
    return (uu * vy - vv * uy) / d, (vv * ux - uu * vx) / d


def circumcircle2(t: Triangle2) -> CircumData:
    """Center and radius of the circle through the three vertices of t.

    Raises DegenerateSimplex for collinear input.
    """
    (ax, ay), (bx, by), (cx, cy) = t.a.tolist(), t.b.tolist(), t.c.tolist()
    if orient2_xy(ax, ay, bx, by, cx, cy) == 0:
        raise DegenerateSimplex(f"collinear triangle {t.a}, {t.b}, {t.c}")
    ox, oy = circumcenter_offset(bx - ax, by - ay, cx - ax, cy - ay)
    return CircumData(np.array([ax + ox, ay + oy]), math.hypot(ox, oy))


def _dot(u, v):
    return (u * v).sum(axis=-1, keepdims=True)


def circumcenter_offset3(u, v):
    """Circumcenter minus a of the triangle (a, a + u, a + v) in space, on (..., 3) arrays:
    (|v|^2 (|u|^2 - u.v) u + |u|^2 (|v|^2 - u.v) v) / (2 (|u|^2 |v|^2 - (u.v)^2))."""
    uu, vv, uv = _dot(u, u), _dot(v, v), _dot(u, v)
    denom = 2.0 * (uu * vv - uv * uv)
    return vv * (uu - uv) / denom * u + uu * (vv - uv) / denom * v


def circumsphere_offset(u, v, w):
    """Circumcenter minus a of the tetrahedron (a, a + u, a + v, a + w), on (..., 3) arrays:
    (|u|^2 v x w + |v|^2 w x u + |w|^2 u x v) / (2 u . (v x w))."""
    vw, wu, uv = np.cross(v, w), np.cross(w, u), np.cross(u, v)
    return (_dot(u, u) * vw + _dot(v, v) * wu + _dot(w, w) * uv) / (2.0 * _dot(u, vw))


def in_circle_ccw_xy(ax, ay, bx, by, cx, cy, px, py) -> int:
    """in_circle_xy without its orientation check, exact.

    For callers that already know (a, b, c) is ccw: +1 when p lies strictly
    inside its circumcircle, -1 outside, 0 on it.
    """
    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    # Rows (dx, dy, |d|^2) for a, b, c; cofactor expansion along the lift column.
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    permanent = (abs(bc) + abs(cb)) * alift + (abs(ca) + abs(ac)) * blift + (abs(ab) + abs(ba)) * clift
    bound = _IN_CIRCLE_BOUND * permanent
    if bound > _BOUND_MIN:
        if det > bound:
            return 1
        if -det > bound:
            return -1
    # det [1, p, |p|^2] over (a, b, c, p) is minus the determinant above.
    return -_exact_sign(((ax, ay), (bx, by), (cx, cy), (px, py)), lift=True)


def in_circle_xy(ax, ay, bx, by, cx, cy, px, py) -> int:
    """in_circle of triangle (a, b, c) and point p on plain floats."""
    if orient2_xy(ax, ay, bx, by, cx, cy) == 0:
        raise DegenerateSimplex(f"collinear triangle {(ax, ay)}, {(bx, by)}, {(cx, cy)}")
    return in_circle_ccw_xy(ax, ay, bx, by, cx, cy, px, py)


def in_circle(t: Triangle2, p) -> int:
    """+1 if p lies strictly inside the circumcircle of t, -1 outside, 0 on it.

    Signs are stated for a positively oriented t; reversing the orientation of
    t flips the returned sign.  Exact for any finite coordinates.  Raises
    DegenerateSimplex for a collinear t.
    """
    px, py = _as_points((p,), 2)[0].tolist()
    (ax, ay), (bx, by), (cx, cy) = t.a.tolist(), t.b.tolist(), t.c.tolist()
    return in_circle_xy(ax, ay, bx, by, cx, cy, px, py)


def in_sphere(corners, p):
    """+1 where p lies strictly inside the circumsphere of positively oriented
    corners, -1 outside, 0 on it, exact; (..., 4, 3) corners broadcast against
    (..., 3) points.  Raises DegenerateSimplex where ``orient`` is 0.
    """
    c, p = np.asarray(corners, float), np.asarray(p, float)
    if c.shape[-2:] != (4, 3) or p.shape[-1:] != (3,):
        raise ValueError(f"expected (..., 4, 3) corners and (..., 3) points, got shapes {c.shape} and {p.shape}")
    _as_points(np.concatenate([c.reshape(-1, 3), p.reshape(-1, 3)]), 3)
    if (orient(c) == 0).any():
        raise DegenerateSimplex("coplanar tetrahedron")
    c, q = np.broadcast_arrays(c, p[..., None, :])
    rows = np.concatenate([c, q[..., :1, :]], axis=-2)
    # det [1, q, |q|^2] over the corners and p is negative inside a right-handed tetrahedron's sphere.
    signs = [_exact_sign(r, lift=True) for r in rows.reshape(-1, 5, 3).tolist()]
    return -np.array(signs, int).reshape(rows.shape[:-2])


# ---------------------------------------------------------------------------
# Vectorized containment and visibility.  One pass over the edges of a convex
# polygon, given as a (k, 2) vertex array, classifies sample points given as
# coordinate columns.
# ---------------------------------------------------------------------------


def convex_polygon_masks_xy(verts: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Containment (m,) and visibility (k, m) masks for a convex polygon.

    The points are the coordinate columns ``x`` and ``y``; row j of
    ``visible`` is vertex j's, one contiguous row per vertex.  ``inside`` is
    closed: a point within TAU_GEOM (relative) of an edge line counts as
    inside.  Vertex j is visible from a point unless the point lies strictly
    on the inner side of both edges at j, which for an outside point is
    exactly when the segment to vertex j avoids the polygon's interior.  An
    outside point violates some edge and sees both of its ends, so no outside
    point has an empty visible set.  ``visible`` is meaningful for outside
    points only.  Accepts either orientation; rows follow ``verts``.
    """
    v = np.asarray(verts, float).tolist()
    # The exact orientation of the first three corners: that of a strictly convex polygon.
    reversed_order = orient2_xy(*v[0], *v[1], *v[2]) < 0
    v = v[::-1] if reversed_order else v
    k = len(v)
    inside = np.ones(len(x), dtype=bool)
    inner = np.empty((k, len(x)), dtype=bool)
    for i, (qx, qy) in enumerate(v):
        ex, ey = v[(i + 1) % k][0] - qx, v[(i + 1) % k][1] - qy
        dx, dy = x - qx, y - qy
        cross = ex * dy - ey * dx
        inside &= cross >= -TAU_GEOM * ((abs(ex) + abs(ey)) * (np.abs(dx) + np.abs(dy) + 1e-300))
        np.greater(cross, 0.0, out=inner[i])
    # Vertex i lies between edges i - 1 and i.
    visible = ~(inner & inner[np.arange(-1, k - 1)])
    return inside, visible[::-1] if reversed_order else visible


# ---------------------------------------------------------------------------
# Flags of the barycentric subdivision, in the plane and in space.
# ---------------------------------------------------------------------------

# The flags of a d-simplex, d = 2 or 3, as corner positions (X, Y[, Z], W):
# the chain corner X, edge XY[, face XYZ], whole simplex.  Every ordering of
# the corners, in lexicographic order: for a label-sorted simplex the order in
# which barycentric_subdivide lists its cells.
FLAGS = {d: np.array(list(itertools.permutations(range(d + 1)))) for d in (2, 3)}
# The parity of each flag's corner permutation, the determinant of its permutation matrix.
_PARITY = {d: np.linalg.det(np.eye(d + 1)[f]).round().astype(int) for d, f in FLAGS.items()}


def _det(v):
    """Determinant of the d rows of (..., d, d) arrays, d = 2 or 3."""
    if v.shape[-1] == 2:
        return v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
    return det3(v[..., 0, :], v[..., 1, :], v[..., 2, :])


def _permanent(a):
    """_det of (..., d, d) magnitudes with every product added, in _det's order."""
    if a.shape[-1] == 2:
        return a[..., 0, 0] * a[..., 1, 1] + a[..., 0, 1] * a[..., 1, 0]
    u, v, w = a[..., 0, :], a[..., 1, :], a[..., 2, :]
    return (u * (v[..., [1, 2, 0]] * w[..., [2, 0, 1]] + v[..., [2, 0, 1]] * w[..., [1, 2, 0]])).sum(axis=-1)


def simplex_volume(corners):
    """Signed d-volume of the simplices with corners (..., d + 1, d), d = 2 or 3:
    det(v_1 - v_0, ..., v_d - v_0) / d!, positive for counterclockwise
    triangles and right-handed tetrahedra.  The one signed area or volume of
    the package."""
    v = np.asarray(corners, float)
    return _det(v[..., 1:, :] - v[..., :1, :]) / math.factorial(v.shape[-1])


def second_moment(v):
    """Integral of |x|^2 over the simplex with corners v (..., d + 1, d), row 0 at the origin,
    signed by its orientation: det(v_1..v_d) / (d! (d + 1) (d + 2)) (sum |v_k|^2 + |sum v_k|^2)."""
    d = v.shape[-1]
    # Row by row: bit for bit the sum v[..., 1:, :].sum(axis=-2), without
    # numpy's slow reduction over a short strided axis.
    total = sum((v[..., k, :] for k in range(2, d + 1)), v[..., 1, :])
    norms = (v * v).sum(axis=(-2, -1)) + (total * total).sum(axis=-1)
    return _det(v[..., 1:, :]) / (math.factorial(d) * (d + 1) * (d + 2)) * norms


def flag_terms(points, simplices):
    """Signs, image integrals and image corners of the barycentric subdivision's cells.

    For each simplex of the (T, d + 1) label array over (n, d) points, d = 2
    or 3, and each flag (X, Y[, Z], W) in FLAGS[d] order: ``sign`` (T, F) is
    +1 when (X, Y[, Z], W), and so the cell, is positively oriented;
    ``center`` (T, F, d + 1, d) is the cell's image under the circumcenter
    map, X and the circumcenters of XY[, XYZ] and the simplex; ``integral``
    (T, F) is the second_moment of that image about X.  The cell adds
    sign * integral to the functional.  All but ``center`` come from edge
    vectors relative to each simplex's first corner, and flag 0's image
    corners are exactly that corner plus their offsets.  A sign is the
    simplex's ``orient`` times the flag's parity; raises DegenerateSimplex,
    naming the labels, for a simplex of orientation 0.
    """
    p = np.asarray(points, float)
    d = p.shape[1]
    labels = np.asarray(simplices, int).reshape(-1, d + 1)
    p = p[labels]
    sign = reject_degenerate(labels, p)[:, None] * _PARITY[d]
    rel = p - p[:, :1]
    x = rel[:, FLAGS[d][:, 0]]
    edges = rel[:, FLAGS[d][:, 1:]] - x[:, :, None]  # Y - X[, Z - X], W - X
    image = np.zeros(x.shape[:2] + (d + 1, d))  # about X: X, XY[, XYZ], the simplex
    image[:, :, 1] = 0.5 * edges[:, :, 0]
    if d == 2:
        (ux, uy), (vx, vy) = rel[:, 1].T, rel[:, 2].T
        top = np.stack(circumcenter_offset(ux, uy, vx, vy), axis=1)
    else:
        image[:, :, 2] = circumcenter_offset3(edges[:, :, 0], edges[:, :, 1])
        top = circumsphere_offset(rel[:, 1], rel[:, 2], rel[:, 3])
    image[:, :, d] = top[:, None] - x
    integral = second_moment(image)
    image += (p[:, :1] + x)[:, :, None]  # offsets about X -> the image corners, in place
    return sign, integral, image
