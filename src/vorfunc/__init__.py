"""Voronoi functionals of planar and spatial triangulations."""

from .errors import (
    CapExceeded,
    CollinearImage,
    ConstructionFailed,
    DegenerateSimplex,
    InvalidRegion,
    NonConvexQuad,
    NotGeneralPosition,
    NotInteriorEdge,
    NotInteriorVertex,
    VorfuncError,
)
from .geom import CircumData, Tetrahedron3, Triangle2
from .integrate import Box, McEstimate, mc_integrate, quad_tetra, quad_triangle
from .tri2d import (
    FlipMove,
    PointSet2,
    Triangulation2,
    delaunay,
    enumerate_triangulations,
    flip,
    make_topological,
)
from .functional2d import (
    FunctionalReport,
    flip_delta,
    g_field,
    radius_functional,
    rajan_triangle,
    rajan_triangulation,
    vf_triangle,
    vf_triangulation,
)
from .subdivision import (
    SubdividedComplex,
    TetComplex,
    barycentric_subdivide,
    cell_decomposition_check,
    interior_cancellation_check,
    vf3,
    vf_via_sd,
)

__version__ = "0.1.0"
