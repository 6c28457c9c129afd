"""Shared generators for randomized geometry tests.

Everything is seeded; tests must be deterministic run to run.
"""

import numpy as np
import pytest

from vorfunc.errors import NotGeneralPosition
from vorfunc.geom import Triangle2
from vorfunc.tri2d import delaunay


def _classify(verts):
    dots = []
    for i in range(3):
        u = verts[(i + 1) % 3] - verts[i]
        v = verts[(i + 2) % 3] - verts[i]
        dots.append(float(u @ v))
    if min(dots) > 1e-9:
        return "acute"
    if min(dots) < -1e-9:
        return "obtuse"
    return "right"


def random_triangle(rng, kind=None, scale=1.0) -> Triangle2:
    """Uniform random triangle in a square, optionally of a given angle class."""
    while True:
        verts = rng.random((3, 2)) * scale
        area2 = abs(
            (verts[1, 0] - verts[0, 0]) * (verts[2, 1] - verts[0, 1])
            - (verts[1, 1] - verts[0, 1]) * (verts[2, 0] - verts[0, 0])
        )
        if area2 < 1e-3 * scale * scale:
            continue
        if kind is None or _classify(verts) == kind:
            return Triangle2(*verts)


def random_delaunay(rng, n, scale=1.0):
    """Delaunay triangulation of n generic uniform points."""
    while True:
        pts = rng.random((n, 2)) * scale
        try:
            return delaunay(pts)
        except NotGeneralPosition:
            continue


def grid_delaunay(rng, n):
    """Delaunay triangulation of n generic points on a 2^-20 grid in [0, 1).

    Adding 1e6 or 1e7 (ulp 2^-29 at most) to such coordinates is exact, so a
    translated copy has exactly the same shape and any drift comes from the
    code under test.
    """
    while True:
        pts = np.round(rng.random((n, 2)) * 2.0**20) / 2.0**20
        try:
            return delaunay(pts)
        except NotGeneralPosition:
            continue


def hull_opposite_obtuse_edges(d):
    """Hull edges (u, v) of d whose opposite corner w has an obtuse angle, as ((u, v), w)."""
    out = []
    emap = d.edge_map()
    for (u, v), tids in emap.items():
        if len(tids) != 1:
            continue
        tri = d.triangles[tids[0]]
        w = next(x for x in tri if x not in (u, v))
        a, b, c = d.points[u], d.points[v], d.points[w]
        if (a - c) @ (b - c) < 0:
            out.append(((u, v), w))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
