import hashlib
import re

import numpy as np

from vorfunc.experiments import FOLDED_POINTS, FOLDED_SWAP
from vorfunc.geom import simplex_volume
from vorfunc.render import _svg_coords, svg_gamma_image, svg_subdivision
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


def test_svgs_of_a_seeded_uniform_set_are_pinned():
    # Byte for byte: subdivision numbering, coordinate strings and shading.
    d = delaunay(np.random.default_rng(300).random((300, 2)))
    assert len(d.triangles) == 580
    assert hashlib.sha1(svg_gamma_image(d).encode()).hexdigest() == "f1d41e48ad9f9573bb02a7734e31fe41cc2d1b70"
    assert hashlib.sha1(svg_subdivision(d).encode()).hexdigest() == "d5a5e495d4d8d51ed97d51019ab45713e11b81ba"
