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
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotInteriorVertex
from .geom import (
    Tetrahedron3,
    Triangle2,
    circumcircle2,
    circumcircle3,
    circumsphere3,
    convex_polygon_masks,
    signed_area,
    signed_volume,
)
from .integrate import check_vanishes_on_boundary, mc_integrate, quad_tetra, quad_triangle
from .tri2d import Triangulation2, convex_hull
from . import functional2d


@dataclass(frozen=True)
class TetComplex:
    """A list of tetrahedra (label 4-tuples) over labeled 3D points.

    Tetrahedra are normalized to positive orientation at construction.
    """

    points: np.ndarray
    tets: tuple

    def __init__(self, points, tets):
        pts = np.asarray(points, float)
        fixed = []
        for t in tets:
            t = tuple(int(v) for v in t)
            vol = signed_volume(*pts[list(t)])
            if vol == 0.0:
                raise ValueError(f"degenerate tetrahedron {t}")
            fixed.append(t if vol > 0 else (t[0], t[1], t[3], t[2]))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tets", tuple(fixed))


class SdCell(NamedTuple):
    verts: tuple  # subdivision vertex ids, in flag order (vertex, edge, face[, cell])
    source_vertex: int  # label of the unique source vertex in the flag
    source_sign: int  # orientation of the source cell under flag order
    source_index: int  # index of the top-dimensional source simplex


@dataclass(frozen=True)
class SubdividedComplex:
    dim: int
    source_points: np.ndarray  # mapped positions of the source vertex labels
    vertices: np.ndarray  # (N, dim) barycenters
    gamma: np.ndarray  # (N, dim) circumcenters
    height: np.ndarray  # (N,) |gamma|^2 - radius^2
    source_simplices: tuple  # label tuple per subdivision vertex
    cells: tuple

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "dim": self.dim,
                "vertices": self.vertices.tolist(),
                "gamma": self.gamma.tolist(),
                "height": self.height.tolist(),
                "source_simplices": [list(s) for s in self.source_simplices],
                "cells": [
                    {
                        "verts": list(c.verts),
                        "source_vertex": c.source_vertex,
                        "source_sign": c.source_sign,
                        "source_index": c.source_index,
                    }
                    for c in self.cells
                ],
            }
        )


def _simplex_circum(pts, labels):
    """Circumcenter and radius of a 0/1/2/3-simplex given by labels."""
    v = pts[list(labels)]
    if len(labels) == 1:
        return v[0], 0.0
    if len(labels) == 2:
        center = 0.5 * (v[0] + v[1])
        return center, float(np.linalg.norm(v[0] - center))
    if len(labels) == 3:
        if pts.shape[1] == 2:
            cd = circumcircle2(Triangle2(v[0], v[1], v[2]))
        else:
            cd = circumcircle3(v[0], v[1], v[2])
        return cd.center, cd.radius
    cd = circumsphere3(Tetrahedron3(v[0], v[1], v[2], v[3]))
    return cd.center, cd.radius


def barycentric_subdivide(source) -> SubdividedComplex:
    """Subdivision of a planar Triangulation2 or a TetComplex.

    Every flag becomes one cell; 6 per triangle, 24 per tetrahedron.
    """
    if isinstance(source, Triangulation2):
        pts = source.points
        tops = [tuple(t) for t in source.triangles]
        dim = 2
    elif isinstance(source, TetComplex):
        pts = source.points
        tops = [tuple(t) for t in source.tets]
        dim = 3
    else:
        raise TypeError(f"cannot subdivide {type(source).__name__}")

    index = {}
    verts, gamma, height, sources = [], [], [], []

    def vertex_id(labels):
        key = tuple(sorted(labels))
        if key not in index:
            center, radius = _simplex_circum(pts, key)
            index[key] = len(verts)
            verts.append(pts[list(key)].mean(axis=0))
            gamma.append(np.asarray(center, float))
            height.append(float(center @ center - radius * radius))
            sources.append(key)
        return index[key]

    cells = []
    for top_idx, top in enumerate(tops):
        for flag in _flags(top):
            ids = tuple(vertex_id(s) for s in flag)
            cell_pts = [verts[i] for i in ids]
            if dim == 2:
                sign = 1 if signed_area(*cell_pts) > 0 else -1
            else:
                sign = 1 if signed_volume(*cell_pts) > 0 else -1
            cells.append(SdCell(ids, flag[0][0], sign, top_idx))

    return SubdividedComplex(
        dim=dim,
        source_points=pts,
        vertices=np.asarray(verts),
        gamma=np.asarray(gamma),
        height=np.asarray(height),
        source_simplices=tuple(sources),
        cells=tuple(cells),
    )


def _flags(top):
    """All flags of one top simplex: nested faces built by adding one vertex at a time."""
    out = set()
    for perm in itertools.permutations(top):
        chain = tuple(tuple(sorted(perm[: k + 1])) for k in range(len(top)))
        out.add(chain)
    return sorted(out)


def vf_sd_cell(cell: SdCell, sd: SubdividedComplex) -> float:
    """Signed contribution of one cell: integral of d(., A)^2 over its image.

    The sign is positive when the circumcenter map preserves the cell's
    orientation and negative when it reverses it; a cell squeezed to a
    degenerate image contributes 0.
    """
    a = sd.source_points[cell.source_vertex]
    image = sd.gamma[list(cell.verts)]
    f = lambda pts: ((pts - a) ** 2).sum(axis=1)
    if sd.dim == 2:
        val = quad_triangle(Triangle2(*image), f)
    else:
        val = quad_tetra(Tetrahedron3(*image), f)
    return cell.source_sign * val


def vf_via_sd(t: Triangulation2) -> float:
    """Triangulation functional as the sum of subdivision-cell contributions."""
    sd = barycentric_subdivide(t)
    return float(sum(vf_sd_cell(c, sd) for c in sd.cells))


def vf3(tc: TetComplex) -> float:
    """Generalized functional of a tetrahedral complex via its subdivision."""
    sd = barycentric_subdivide(tc)
    return float(sum(vf_sd_cell(c, sd) for c in sd.cells))


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


def voronoi_polygon(points: np.ndarray, i: int, pad: float = None) -> np.ndarray:
    """Voronoi cell of point i clipped to a large box, as ccw polygon vertices.

    Computed by intersecting the bisector half-planes of i against all other
    points.  Without an explicit pad the box is grown until the cell detaches
    from it, so bounded cells (interior vertices) come out unclipped even when
    sliver triangles push their circumcenters far outside the point cloud;
    unbounded cells stop growing after a fixed number of doublings.
    """
    pts = np.asarray(points, float)
    a = pts[i]
    span = pts.max(axis=0) - pts.min(axis=0)
    base = float(max(span.max(), 1.0))

    def clipped(box_pad):
        lo = pts.min(axis=0) - box_pad
        hi = pts.max(axis=0) + box_pad
        poly = [
            np.array([lo[0], lo[1]]),
            np.array([hi[0], lo[1]]),
            np.array([hi[0], hi[1]]),
            np.array([lo[0], hi[1]]),
        ]
        for j in range(len(pts)):
            if j == i:
                continue
            n = 2.0 * (pts[j] - a)
            c = float(pts[j] @ pts[j] - a @ a)
            poly = _clip_halfplane(poly, n, c)
            if not poly:
                return np.zeros((0, 2)), False
        arr = np.asarray(poly)
        lo_m = pts.min(axis=0) - box_pad * (1.0 - 1e-9)
        hi_m = pts.max(axis=0) + box_pad * (1.0 - 1e-9)
        detached = bool(np.all(arr > lo_m) and np.all(arr < hi_m))
        return arr, detached

    if pad is not None:
        return clipped(pad)[0]
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
    vertex (fan quadrature).  Right: signed sum of image integrals over the
    subdivision cells owned by the vertex.  The two agree for Delaunay input.
    """
    if vertex in d.boundary_vertices():
        raise NotInteriorVertex(f"vertex {vertex} lies on the hull")
    a = d.points[vertex]
    poly = voronoi_polygon(d.points, vertex)
    f = lambda pts: ((pts - a) ** 2).sum(axis=1)
    lhs = 0.0
    for k in range(len(poly)):
        lhs += quad_triangle(Triangle2(a, poly[k], poly[(k + 1) % len(poly)]), f)
    sd = barycentric_subdivide(d)
    rhs = sum(vf_sd_cell(c, sd) for c in sd.cells if c.source_vertex == vertex)
    return float(lhs), float(rhs)


def nearest_minus_visible_field(points: np.ndarray):
    """Point-set level integrand: d(., nearest point)^2 - d(., nearest visible
    hull vertex)^2, the latter taken as 0 inside the hull.

    Returns a vectorized callable over (m, 2) arrays.
    """
    pts = np.asarray(points, float)
    hull = convex_hull(pts)
    hull_pts = pts[hull]

    def field(x):
        x = np.asarray(x, float)
        d2 = (x[:, 0, None] - pts[None, :, 0]) ** 2
        d2 += (x[:, 1, None] - pts[None, :, 1]) ** 2
        g = d2.min(axis=1)
        inside, vis = convex_polygon_masks(hull_pts, x)
        outside = ~inside
        if outside.any():
            d2h = np.where(vis[outside], d2[np.ix_(outside, hull)], np.inf)
            g[outside] = g[outside] - d2h.min(axis=1)
        return g

    return field


def cell_decomposition_check(d: Triangulation2, samples: int = 10**6, seed: int = 0):
    """Closed-form functional vs Monte Carlo of the plane integrand.

    Returns (closed_form, McEstimate).  The integrand vanishes outside the
    inflated bounding box, which is spot-checked before integrating
    (InvalidRegion if it does not).
    """
    closed = functional2d.vf_triangulation(d).total
    box = functional2d.support_box(d)
    field = nearest_minus_visible_field(d.points)
    check_vanishes_on_boundary(field, box)
    est = mc_integrate(box, field, samples, seed)
    return float(closed), est
