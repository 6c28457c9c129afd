"""Deterministic SVG rendering of triangulations and their subdivisions.

Static report output: fixed 640x640 viewport, y axis flipped to mathematical
orientation, coordinates rounded to 2 decimals, styling hard-coded.  The
circumcenter-map view shades orientation-reversed cells.
"""

from __future__ import annotations

import numpy as np

from .geom import simplex_volume
from .subdivision import SubdividedComplex, barycentric_subdivide
from .tri2d import Triangulation2

VIEW = 640.0
MARGIN = 40.0

_STYLE = (
    "polygon { fill: none; stroke: #1a1a1a; stroke-width: 1.2; }\n"
    "polygon.cell { stroke: #888888; stroke-width: 0.6; fill: #e8f0fe; }\n"
    "polygon.neg { fill: #d7301f; fill-opacity: 0.65; }\n"
    "circle { fill: #1a1a1a; }\n"
)


def _svg_coords(frame: np.ndarray, points: np.ndarray, view: str = "drawing") -> list:
    """"x,y" viewport strings of (m, 2) points, scaled so that ``frame`` fits.

    ValueError naming ``view`` and the first point whose viewport coordinate
    is not finite: a non-finite point, or a frame too wide for floats.
    """
    lo = frame.min(axis=0)
    hi = frame.max(axis=0)
    span = float(max((hi - lo).max(), 1e-12))
    scale = (VIEW - 2.0 * MARGIN) / span
    xy = np.empty((len(points), 2))
    xy[:, 0] = MARGIN + (points[:, 0] - lo[0]) * scale
    xy[:, 1] = VIEW - (MARGIN + (points[:, 1] - lo[1]) * scale)  # flip y
    finite = np.isfinite(xy).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"cannot draw the {view}: its point {bad} has a non-finite viewport coordinate")
    # One % pass over the interleaved coordinates, split into "x,y" strings.
    return ("%.2f,%.2f\n" * len(xy) % tuple(xy.ravel().tolist())).split("\n")[:-1]


def _document(body: list) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW:.0f}" '
        f'height="{VIEW:.0f}" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">\n'
        f"<style>\n{_STYLE}</style>\n"
    )
    return head + "\n".join(body) + "\n</svg>\n"


def svg_triangulation(t: Triangulation2) -> str:
    """Triangle outlines plus vertex dots."""
    coords = _svg_coords(t.points, t.points, "triangulation")
    body = []
    for tri in t.triangles:
        pts = " ".join(coords[v] for v in tri)
        body.append(f'<polygon points="{pts}" />')
    for xy in coords:
        x, y = xy.split(",")
        body.append(f'<circle cx="{x}" cy="{y}" r="3.00" />')
    return _document(body)


def _reversed_cells(sd: SubdividedComplex) -> list:
    """Whether the circumcenter map reverses each cell, from one array pass.

    A cell is reversed when the simplex_volume of its image and its cell sign
    have opposite signs.
    """
    return (simplex_volume(sd.gamma[sd.cells]) * sd.cell_sign < 0).tolist()


def _cell_polygons(sd: SubdividedComplex, use_image: bool) -> list:
    verts = sd.gamma if use_image else sd.vertices
    frame = np.vstack([sd.vertices, sd.gamma]) if use_image else sd.vertices
    coords = _svg_coords(frame, verts, "gamma image" if use_image else "subdivision")
    neg = _reversed_cells(sd) if use_image else [False] * len(sd.cells)
    body = []
    for (i, j, k), n in zip(sd.cells.tolist(), neg):
        body.append(f'<polygon class="{"cell neg" if n else "cell"}" points="{coords[i]} {coords[j]} {coords[k]}" />')
    return body


def svg_subdivision(t: Triangulation2) -> str:
    """Barycentric subdivision cells over the source triangulation."""
    sd = barycentric_subdivide(t)
    return _document(_cell_polygons(sd, use_image=False))


def svg_gamma_image(t: Triangulation2) -> str:
    """Image of the subdivision under the circumcenter map.

    Cells whose orientation is reversed by the map are shaded; degenerate
    images collapse to segments and draw as slivers.
    """
    sd = barycentric_subdivide(t)
    return _document(_cell_polygons(sd, use_image=True))
