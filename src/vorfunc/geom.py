"""Geometric primitives in 2D and 3D.

Orientation and in-circle/in-sphere predicates, circumcenters, and one
containment and vertex-visibility kernel for convex polygons.  ``_as_points``
and ``_as_labels`` are the one point check and the one label check.

The planar predicates are exact: "degenerate" means exactly degenerate.
Each has one kernel on plain Python floats, ``orient2_xy`` and
``in_circle_xy``.  A kernel first compares its float determinant with
Shewchuk's static error bound (Shewchuk, Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates, DCG 18, 1997); a
determinant beyond the bound has the exact sign.  Otherwise, and when the
bound overflows or underflows, the sign is computed in ``Fraction`` from
the original coordinates, which floats represent exactly.  Loops that test
many triples (the Delaunay sweep and its flips, flip-graph enumeration)
convert their coordinates once and call the kernels directly;
``orient2``/``in_circle`` delegate to them, and the sweep, which knows its
triangles are ccw, calls ``in_circle_ccw_xy`` without the orientation
check.  ``orient2_rows`` runs the same filter on arrays of corners, for
Triangulation2 and ``reject_collinear``, the closed forms' and flags' zero rule.

``TAU_GEOM`` is a relative tolerance that serves only ``in_sphere``, whose
coplanar verdict is the one 3D degeneracy check and whose on-sphere band is
homogeneous of its determinant's degree, and ``convex_polygon_masks_xy``'
closed band.  ``in_sphere`` is one array pass over (..., 4, 3) corners.

``det3``, the triple product, is the one 3D determinant: ``simplex_volume``
(the one signed area or volume, of (..., d + 1, d) corner arrays), the flag
kernel and ``in_sphere`` (by cofactors of its lifted 4x4) use it.
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

# Relative tolerance of in_sphere and convex_polygon_masks_xy.
TAU_GEOM = 1e-9

# Shewchuk's static error bounds for orient2 and in-circle, eps = 2^-53:
# a float determinant larger in magnitude than the bound times the sum of
# the magnitudes of its products (the permanent) has the exact sign.  A bound
# below _BOUND_MIN may hide underflow and decides nothing; an infinite or NaN
# one fails every comparison.  Either way the sign is then computed exactly.
_EPS = 2.0**-53
_ORIENT_BOUND = (3.0 + 16.0 * _EPS) * _EPS
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


def _orient2_exact(ax, ay, bx, by, cx, cy) -> int:
    """orient2_xy's sign in rational arithmetic, exact for any finite floats."""
    from fractions import Fraction

    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
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
    return _orient2_exact(ax, ay, bx, by, cx, cy)


def orient2_rows(corners):
    """orient2_xy of each row of (T, 3, 2) corners, as a (T,) int array.

    orient2_xy's filter decides every row at once from the edge vectors off
    corner 0; rows it leaves undecided (overflowed ones too) get the exact sign.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = corners[:, 1:] - corners[:, :1]
        left, right = e[:, 0, 0] * e[:, 1, 1], e[:, 0, 1] * e[:, 1, 0]
        det = left - right
        bound = _ORIENT_BOUND * (np.abs(left) + np.abs(right))
    sign = np.where(det > 0, 1, -1)
    for i in np.flatnonzero(~((np.abs(det) > bound) & (bound > _BOUND_MIN))).tolist():
        sign[i] = _orient2_exact(*corners[i].ravel().tolist())
    return sign


def reject_collinear(labels, corners):
    """orient2_rows of (T, 3, 2) corners, or DegenerateSimplex naming the first collinear triangle."""
    sign = orient2_rows(corners)
    if not sign.all():
        raise DegenerateSimplex(f"collinear triangle {tuple(labels[np.argmin(sign != 0)].tolist())}")
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


def _in_circle_exact(ax, ay, bx, by, cx, cy, px, py) -> int:
    """in_circle_ccw_xy's sign in rational arithmetic, exact for any finite floats."""
    from fractions import Fraction

    px, py = Fraction(px), Fraction(py)
    adx, ady = Fraction(ax) - px, Fraction(ay) - py
    bdx, bdy = Fraction(bx) - px, Fraction(by) - py
    cdx, cdy = Fraction(cx) - px, Fraction(cy) - py
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return (det > 0) - (det < 0)


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
    return _in_circle_exact(ax, ay, bx, by, cx, cy, px, py)


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
    corners, -1 outside, 0 on it; one pass over (..., 4, 3) corners broadcast
    against (..., 3) points.  The on-sphere band, TAU_GEOM sum_i lift_i
    prod_{j != i} |e_j|_1, has the determinant's degree 5, so scaling by a
    power of two keeps every sign.  Raises DegenerateSimplex for a tetrahedron
    coplanar within TAU_GEOM of the product of its edges' L1 norms.
    """
    c, p = np.asarray(corners, float), np.asarray(p, float)
    if c.shape[-2:] != (4, 3) or p.shape[-1:] != (3,):
        raise ValueError(f"expected (..., 4, 3) corners and (..., 3) points, got shapes {c.shape} and {p.shape}")
    _as_points(np.concatenate([c.reshape(-1, 3), p.reshape(-1, 3)]), 3)
    rows = c[..., 1:, :] - c[..., :1, :]
    if (np.abs(_det(rows)) <= TAU_GEOM * np.prod(np.abs(rows).sum(axis=-1), axis=-1)).any():
        raise DegenerateSimplex("coplanar tetrahedron")
    e = c - p[..., None, :]
    lift = (e * e).sum(axis=-1)
    # Rows (e, |e|^2) for the four corners; cofactor expansion along the lift
    # column.  Corner order flips the inside sign relative to the 2D case.
    minors = det3(e[..., [1, 0, 0, 0], :], e[..., [2, 2, 1, 1], :], e[..., [3, 3, 3, 2], :])
    det = (lift * minors * [1.0, -1.0, 1.0, -1.0]).sum(axis=-1)
    norm = np.abs(e).sum(axis=-1)
    others = norm[..., [1, 0, 0, 0]] * norm[..., [2, 2, 1, 1]] * norm[..., [3, 3, 3, 2]]
    tol = TAU_GEOM * (lift * others).sum(axis=-1)
    return np.where(np.abs(det) <= tol, 0, np.sign(det)).astype(int)


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
    # Orientation from the first three corners: for a triangle this is the
    # shoelace value, for a strictly convex polygon it has the same sign.
    (ax, ay), (bx, by), (cx, cy) = v[:3]
    reversed_order = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0.0
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


def _det(v):
    """Determinant of the d rows of (..., d, d) arrays, d = 2 or 3."""
    if v.shape[-1] == 2:
        return v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] * v[..., 1, 0]
    return det3(v[..., 0, :], v[..., 1, :], v[..., 2, :])


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
    corners are exactly that corner plus their offsets.  Planar signs are
    exact; raises DegenerateSimplex, naming the labels, for a triangle orient2
    calls collinear.
    """
    p = np.asarray(points, float)
    d = p.shape[1]
    labels = np.asarray(simplices, int).reshape(-1, d + 1)
    p = p[labels]
    rel = p - p[:, :1]
    x = rel[:, FLAGS[d][:, 0]]
    edges = rel[:, FLAGS[d][:, 1:]] - x[:, :, None]  # Y - X[, Z - X], W - X
    image = np.zeros(x.shape[:2] + (d + 1, d))  # about X: X, XY[, XYZ], the simplex
    image[:, :, 1] = 0.5 * edges[:, :, 0]
    if d == 2:
        # Flag (X, Y, W) has its triangle's exact orientation times the parity
        # of the permutation (X, Y, W) of its corners.
        sign = reject_collinear(labels, p)[:, None] * np.array([1, -1, -1, 1, 1, -1])
        (ux, uy), (vx, vy) = rel[:, 1].T, rel[:, 2].T
        top = np.stack(circumcenter_offset(ux, uy, vx, vy), axis=1)
    else:
        sign = np.where(_det(edges) > 0.0, 1, -1)
        image[:, :, 2] = circumcenter_offset3(edges[:, :, 0], edges[:, :, 1])
        top = circumsphere_offset(rel[:, 1], rel[:, 2], rel[:, 3])
    image[:, :, d] = top[:, None] - x
    integral = second_moment(image)
    image += (p[:, :1] + x)[:, :, None]  # offsets about X -> the image corners, in place
    return sign, integral, image
