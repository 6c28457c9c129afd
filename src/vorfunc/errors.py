"""Exception types shared across the package."""


class VorfuncError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSimplex(VorfuncError):
    """A simplex has no circumcenter: a planar triangle is exactly collinear, or a
    tetrahedron is coplanar within TAU_GEOM (orient3, in_sphere)."""


class NotGeneralPosition(VorfuncError):
    """A collinear triple or cocircular quadruple was detected.

    The offending labels (when known) are carried in ``args[1]`` as a tuple.
    """

    def __init__(self, message, labels=()):
        super().__init__(message, tuple(labels))
        self.labels = tuple(labels)


class NonConvexQuad(VorfuncError):
    """The union of the two triangles of a flip is not strictly convex."""


class NotInteriorEdge(VorfuncError):
    """A flip was requested across a hull edge or a non-edge."""


class NotInteriorVertex(VorfuncError):
    """An interior-vertex operation was applied to a hull vertex."""


class CapExceeded(VorfuncError):
    """Flip-graph enumeration exceeded the caller's cap."""


class CollinearImage(VorfuncError):
    """A relabeled triangle maps to a degenerate geometric triangle."""


class InvalidRegion(VorfuncError):
    """Monte Carlo region is empty or degenerate, or misses the integrand's support."""


class ConstructionFailed(VorfuncError):
    """A scripted experiment configuration violates its constraints."""
