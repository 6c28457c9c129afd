"""Barycentric subdivision with the circumcenter and height maps.

Each simplex of the source complex contributes one subdivision vertex (its
barycenter), mapped to the simplex circumcenter by the circumcenter map and
lifted to |center|^2 - radius^2 by the height map.  Top-dimensional cells are
flags (vertex in edge in triangle [in tetrahedron]); each flag owns exactly
one source vertex A, and the combined maps put the whole star of A onto the
tangent plane of the paraboloid at the lift of A.

The per-cell functional integrates squared distance to A over the image of
the cell, signed by whether the circumcenter map preserves the cell's
orientation.  Summing cells reproduces the planar functional exactly and
defines its generalization for tetrahedral complexes.

Both dimensions take one array pass of geom's flag kernel ``flag_terms``,
which gives every flag's sign, image integral and circumcenters from edge
vectors for a (T, 3) triangle or a (T, 4) tetrahedron array; ``vf_via_sd``
and ``vf3`` sum them exactly rounded, and one routine numbers the vertices
and cells of ``barycentric_subdivide`` from the flag table ``FLAGS``, as
index arrays with no per-cell object; a cell's source vertex and simplex
index are derived from them, not stored (``SubdividedComplex``).

The star-cancellation check reads the same flag terms: the cells owned by an
interior vertex sum to the integral over its Voronoi cell, which is clipped
and integrated in coordinates relative to the vertex.  The plane integrand
``nearest_minus_visible_field`` is functional2d's g kernel with the hull as
the polygon; it vanishes outside the box of the points and the Delaunay
circumcenters, and the plane-decomposition check runs the kernel only on
the Monte Carlo samples inside that box.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInteriorVertex
from .geom import FLAGS, _as_labels, _as_points, flag_terms, orient, second_moment
from .integrate import check_vanishes_on_boundary, mc_integrate, quad_tetra, quad_triangle
from .tri2d import Triangulation2, convex_hull
from . import functional2d


@dataclass(frozen=True, eq=False)
class TetComplex:
    """A list of tetrahedra (label 4-tuples) over labeled 3D points.

    Tetrahedra are normalized to positive orientation at construction by one
    geom.orient pass, the orientation flag_terms reads; one of orientation 0,
    or one with a label outside range(n), raises ValueError naming the first.
    ``points`` is a read-only copy of the input, made by geom's one point
    check, so the complex cannot go stale; ``==`` and ``hash`` are by identity.
    """

    points: np.ndarray
    tets: tuple

    def __init__(self, points, tets):
        pts = _as_points(points, 3)
        tets = _as_labels(tets, len(pts), 4, "tetrahedron")  # a copy: reoriented in place below
        if not (sign := orient(pts[tets])).all():
            raise ValueError(f"degenerate tetrahedron {tuple(tets[np.argmin(sign != 0)].tolist())}")
        tets[sign < 0] = tets[sign < 0][:, [0, 1, 3, 2]]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tets", tuple(map(tuple, tets.tolist())))


@dataclass(frozen=True, eq=False)
class SubdividedComplex:
    """A barycentric subdivision as arrays.  Cell c is a flag, its vertex ids
    in FLAGS order (vertex, edge, face[, cell]); its source vertex is
    ``source_simplices[cells[c, 0], 0]`` and its source simplex ``c // len(FLAGS[dim])``.
    The arrays are read-only views; ``==`` and ``hash`` are by identity."""

    dim: int
    source_points: np.ndarray  # mapped positions of the source vertex labels
    vertices: np.ndarray  # (N, dim) barycenters
    gamma: np.ndarray  # (N, dim) circumcenters
    height: np.ndarray  # (N,) |gamma|^2 - radius^2
    source_simplices: np.ndarray  # (N, dim + 1) labels, padded with -1
    cells: np.ndarray  # (C, dim + 1) subdivision vertex ids
    cell_sign: np.ndarray  # (C,) orientation of the source simplex under the flag order

    def __post_init__(self):
        for name in ("source_points", "vertices", "gamma", "height", "source_simplices", "cells", "cell_sign"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    def to_json(self) -> str:
        sources = [[x for x in row if x >= 0] for row in self.source_simplices.tolist()]
        return json.dumps(
            {
                "schema": 1,
                "dim": self.dim,
                "vertices": self.vertices.tolist(),
                "gamma": self.gamma.tolist(),
                "height": self.height.tolist(),
                "source_simplices": sources,
                "cells": [
                    {
                        "verts": verts,
                        "source_vertex": sources[verts[0]][0],
                        "source_sign": sign,
                        "source_index": c // len(FLAGS[self.dim]),
                    }
                    for c, (verts, sign) in enumerate(zip(self.cells.tolist(), self.cell_sign.tolist()))
                ],
            },
            allow_nan=False,
        )


def _first_reach(rows):
    """The distinct rows of a 2D integer array in the order they first occur,
    the index of each first occurrence and, per row, the rank of its distinct row.

    One stable sort brings equal rows together, each group led by its first
    occurrence."""
    order = np.lexsort(rows.T)
    grouped = rows[order]
    lead = np.ones(len(rows), bool)
    lead[1:] = (grouped[1:] != grouped[:-1]).any(axis=1)
    by_first = np.argsort(order[lead])
    first = order[lead][by_first]
    rank = np.empty(len(rows), int)
    rank[order] = np.argsort(by_first)[np.cumsum(lead) - 1]
    return rows[first], first, rank


def barycentric_subdivide(source) -> SubdividedComplex:
    """Subdivision of a planar Triangulation2 or a TetComplex.

    Every flag becomes one cell; 6 per triangle, 24 per tetrahedron.  The
    simplices are label-sorted and cell c is flag c % len(FLAGS[dim]) of
    simplex c // len(FLAGS[dim]); subdivision vertices are numbered in the
    order the flags, in simplex order, first reach them.  Cells, cell signs
    and the -1-padded source simplices are arrays (see SubdividedComplex).
    """
    if not isinstance(source, (Triangulation2, TetComplex)):
        raise TypeError(f"cannot subdivide {type(source).__name__}")
    pts = source.points
    simplices = source.triangles if isinstance(source, Triangulation2) else source.tets
    simplices = np.sort(np.asarray(simplices, int).reshape(-1, pts.shape[1] + 1), axis=1)
    sign, _, center = flag_terms(pts, simplices)
    (t, n), count = simplices.shape, len(pts)
    flags = FLAGS[n - 1]
    # One simplex's keys: its flags' chain simplices as sorted corner
    # positions padded with n; column n of `padded` is the label `count`,
    # past every point, so the label keys stay sorted too.
    chain = np.sort(np.where(np.tri(n, dtype=bool), flags[:, None, :], n), axis=-1)
    keys, key_first, key_of = _first_reach(chain.reshape(-1, n))
    padded = np.concatenate([simplices, np.full((t, 1), count)], axis=1)
    labels, first, rank = _first_reach(padded[:, keys].reshape(-1, n))
    owner, key = np.divmod(first, len(keys))
    size = (labels < count).sum(axis=1)

    corners = pts[np.minimum(labels, count - 1)]
    vertices = corners[:, 0]
    for j in range(1, n):
        vertices = vertices + np.where(size[:, None] > j, corners[:, j], 0.0)
    vertices = vertices / size[:, None]
    # A vertex is its own circumcenter and an edge's is its midpoint; larger
    # simplices take the circumcenter of the flag that first reached them.
    gamma = vertices.copy()
    big = size >= 3
    gamma[big] = center[(owner[big],) + np.unravel_index(key_first[key[big]], chain.shape[:2])]
    r2 = np.where(size == 1, 0.0, ((corners[:, 0] - gamma) ** 2).sum(axis=1))
    height = (gamma * gamma).sum(axis=1) - r2

    sources = np.where(labels < count, labels, -1)
    cells = rank.reshape(-1, len(keys))[:, key_of].reshape(-1, n)
    return SubdividedComplex(n - 1, pts, vertices, gamma, height, sources, cells, sign.ravel())


def vf_sd_cell(sd: SubdividedComplex, c: int) -> float:
    """Signed contribution of cell c: integral of d(., A)^2 over its image.

    The sign is positive when the circumcenter map preserves the cell's
    orientation and negative when it reverses it; a cell squeezed to a
    degenerate image contributes 0.
    """
    a = sd.source_points[sd.source_simplices[sd.cells[c, 0], 0]]
    quad = quad_triangle if sd.dim == 2 else quad_tetra
    return int(sd.cell_sign[c]) * quad(sd.gamma[sd.cells[c]], lambda pts: ((pts - a) ** 2).sum(axis=1))


def _flag_sum(points, simplices) -> float:
    """The exactly rounded sum of sign * image integral over the flags of one
    ``flag_terms`` pass: the cells of a sliver with a far circumcenter are
    many orders of magnitude larger than their total."""
    sign, integral, _ = flag_terms(points, simplices)
    return math.fsum((sign * integral).ravel().tolist())


def vf_via_sd(t: Triangulation2) -> float:
    """Triangulation functional as the sum of the subdivision's flag terms,
    without building the SubdividedComplex; equals the sum of vf_sd_cell."""
    return _flag_sum(t.points, t.triangles)


def vf3(tc: TetComplex) -> float:
    """Generalized functional of a tetrahedral complex as the sum of its
    subdivision's flag terms; equals the sum of vf_sd_cell."""
    return _flag_sum(tc.points, tc.tets)


# ---------------------------------------------------------------------------
# Voronoi polygons and the two theorem checks
# ---------------------------------------------------------------------------


def _clip_halfplane(poly, n, c):
    out = []
    k = len(poly)
    vals = [float(p @ n) - c for p in poly]
    for i in range(k):
        cur, nxt = poly[i], poly[(i + 1) % k]
        cur_in = vals[i] <= 0.0
        nxt_in = vals[(i + 1) % k] <= 0.0
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            denom = vals[(i + 1) % k] - vals[i]
            s = -vals[i] / denom
            out.append(cur + s * (nxt - cur))
    return out


def _voronoi_cell(points: np.ndarray, i: int) -> np.ndarray:
    """Voronoi cell of point i clipped to a large box, as ccw polygon vertices
    in coordinates relative to point i.

    Clips the half-planes 2 x . d_j <= |d_j|^2 with d_j = p_j - p_i, so the
    cell does not depend on where the point set sits.  The box is grown
    until the cell detaches from it, so bounded cells (interior vertices)
    come out unclipped even when sliver triangles push their circumcenters
    far outside the point cloud; unbounded cells stop growing after a fixed
    number of quadruplings.  The box's size is a multiple of the set's
    extent, so the cell scales with the points.
    """
    rel = np.asarray(points, float)
    rel = rel - rel[i]
    rel_lo, rel_hi = rel.min(axis=0), rel.max(axis=0)
    base = float((rel_hi - rel_lo).max())
    others = np.delete(rel, i, axis=0)

    def clipped(box_pad):
        lo = rel_lo - box_pad
        hi = rel_hi + box_pad
        poly = [
            np.array([lo[0], lo[1]]),
            np.array([hi[0], lo[1]]),
            np.array([hi[0], hi[1]]),
            np.array([lo[0], hi[1]]),
        ]
        for d in others:
            poly = _clip_halfplane(poly, 2.0 * d, float(d @ d))
            if not poly:
                return np.zeros((0, 2)), False
        arr = np.asarray(poly)
        lo_m = rel_lo - box_pad * (1.0 - 1e-9)
        hi_m = rel_hi + box_pad * (1.0 - 1e-9)
        detached = bool(np.all(arr > lo_m) and np.all(arr < hi_m))
        return arr, detached

    box_pad = 4.0 * base
    for _ in range(40):
        poly, detached = clipped(box_pad)
        if detached or len(poly) == 0:
            return poly
        box_pad *= 4.0
    return poly


def interior_cancellation_check(d: Triangulation2, vertex: int) -> tuple[float, float]:
    """Both sides of the star-cancellation identity at an interior vertex.

    Left: exact integral of squared distance over the Voronoi polygon of the
    vertex, a fan of image integrals about the vertex.  Right: signed sum of
    the ``flag_terms`` of the subdivision cells owned by the vertex.  Both
    come from coordinates relative to the vertex or to a triangle corner,
    and agree for Delaunay input.  ValueError for a vertex outside range(n).
    """
    vertex = _as_labels([vertex], len(d.points), 1, "vertex").item()
    if vertex in d.boundary_vertices():
        raise NotInteriorVertex(f"vertex {vertex} lies on the hull")
    poly = _voronoi_cell(d.points, vertex)
    nxt = np.roll(poly, -1, axis=0)
    fan = second_moment(np.stack([np.zeros_like(poly), poly, nxt], axis=1))
    lhs = math.fsum(fan.tolist())
    sign, integral, _ = flag_terms(d.points, d.triangles)
    owned = np.asarray(d.triangles, int)[:, FLAGS[2][:, 0]] == vertex
    rhs = math.fsum((sign * integral)[owned].tolist())
    return lhs, rhs


def _hull_first(points: np.ndarray):
    """The points with the hull vertices first, in hull order, and the hull size."""
    hull = convex_hull(points)
    return points[hull + sorted(set(range(len(points))) - set(hull))], len(hull)


def nearest_minus_visible_field(points: np.ndarray):
    """Point-set level integrand: d(., nearest point)^2 - d(., nearest visible
    hull vertex)^2, the latter taken as 0 inside the hull.

    Returns a vectorized callable over (m, 2) arrays.
    """
    corners, h = _hull_first(np.asarray(points, float))
    return lambda x: functional2d._g_points(corners, h, *np.asarray(x, float).T)


def _support_field(d: Triangulation2):
    """nearest_minus_visible_field of d's points, evaluated only inside the
    padded box of the points and the circumcenters of d's triangles and 0.0
    outside it.  Exact when d is Delaunay (cell_decomposition_check).
    """
    corners, h = _hull_first(d.points)
    _, p = functional2d._corners(d.points, d.triangles)
    ext = np.concatenate([d.points, functional2d._circumcenters(p)])
    lo, hi = (c.tolist() for c in functional2d._padded_box(ext.min(axis=0), ext.max(axis=0)))

    def support_field(x):
        out = np.zeros(len(x))
        xs, ys = x[:, 0].copy(), x[:, 1].copy()
        sel = functional2d._box_indices(xs, ys, lo, hi)
        out[sel] = functional2d._g_points(corners, h, xs[sel], ys[sel])
        return out

    return support_field


def cell_decomposition_check(d: Triangulation2, samples: int = 10**6, seed: int = 0):
    """Closed-form functional vs Monte Carlo of the plane integrand.

    ``d`` is the Delaunay triangulation of its points.  Returns (closed_form,
    McEstimate).  The integrand vanishes outside the inflated bounding box,
    which is spot-checked on the unfiltered integrand before integrating
    (InvalidRegion if it does not).

    The integrand is also exactly 0.0 outside the box of the points and the
    Delaunay circumcenters, so samples there skip the kernel.  Outside the
    hull the nearest point is an interior point or a hull vertex p.  An
    interior point's Voronoi cell is the hull of the circumcenters of its
    Delaunay triangles.  A hull vertex p is hidden only inside the wedge
    between its two hull edges, and the part of its Voronoi cell in that
    wedge is bounded by circumcenters, p and the midpoints of p's hull edges.
    Everywhere else the nearest point is a visible hull vertex.
    """
    closed = functional2d.vf_triangulation(d).total
    box = functional2d.support_box(d)
    check_vanishes_on_boundary(nearest_minus_visible_field(d.points), box)
    est = mc_integrate(box, _support_field(d), samples, seed)
    return float(closed), est
