import re

import numpy as np

from vorfunc.experiments import FOLDED_POINTS, FOLDED_SWAP
from vorfunc.geom import simplex_volume
from vorfunc.render import _svg_coords, svg_gamma_image
from vorfunc.subdivision import barycentric_subdivide
from vorfunc.tri2d import Triangulation2, delaunay, make_topological

from conftest import hull_opposite_obtuse_edges, random_delaunay


def _gamma_cases(rng):
    sets = [random_delaunay(rng, 9), random_delaunay(rng, 30)]
    while not hull_opposite_obtuse_edges(sets[-1]):
        sets.append(random_delaunay(rng, 8))
    folded = make_topological(delaunay(FOLDED_POINTS), FOLDED_SWAP)
    obtuse = Triangulation2(np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.5]]), [(0, 1, 2)])
    return sets + [folded, obtuse]


def test_gamma_shading_matches_a_per_cell_walk(rng):
    # Cell by cell: the c-th polygon is shaded exactly when simplex_volume of
    # cell c's image is opposite to its cell sign, and its points are the
    # image corners of cell c's vertex ids.
    shaded = []
    for t in _gamma_cases(rng):
        sd = barycentric_subdivide(t)
        coords = _svg_coords(np.vstack([sd.vertices, sd.gamma]), sd.gamma)
        polygons = re.findall(r'<polygon class="([^"]+)" points="([^"]+)" />', svg_gamma_image(t))
        assert len(polygons) == len(sd.cells)
        for c, (cls, points) in enumerate(polygons):
            verts = sd.cells[c].tolist()
            reversed_ = simplex_volume(sd.gamma[verts]) * sd.cell_sign[c] < 0
            assert cls == ("cell neg" if reversed_ else "cell")
            assert points == " ".join(coords[v] for v in verts)
        shaded.append(sum(cls == "cell neg" for cls, _ in polygons))
    assert shaded[-3] > 0 and shaded[-2] > 0 and shaded[-1] == 2
