"""Quadrature over simplices and a seeded Monte Carlo oracle.

``quad_triangle`` / ``quad_tetra`` are exact for polynomial integrands of
total degree <= 2, which covers every squared-distance integrand the
functionals need.  ``mc_integrate`` is the independent cross-check: an
unbiased estimator over boxes and simplices, deterministic for a fixed seed.

Integrands are vectorized callables mapping an (m, dim) array to (m,) values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRegion
from .geom import _as_points, simplex_volume

# Fixed chunk size: sample stream i is seeded independently, so estimates do
# not depend on how chunks are scheduled.
_CHUNK = 1 << 17

# Degree-2 exact tetrahedron rule: four symmetric points, equal weights.
_TET_ALPHA = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
_TET_BETA = (5.0 - np.sqrt(5.0)) / 20.0


@dataclass(frozen=True)
class Box:
    """Axis-aligned box region for mc_integrate, any dimension >= 1."""

    lo: tuple
    hi: tuple

    def measure(self) -> float:
        lo = np.asarray(self.lo, float)
        hi = np.asarray(self.hi, float)
        return float(np.prod(hi - lo))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo integral estimate; std_error is sample-stddev / sqrt(samples)."""

    value: float
    std_error: float
    samples: int
    seed: int


def _simplex(corners, d):
    """The (d + 1, d) corners of a d-simplex, checked by _as_points."""
    v = _as_points(corners, d)
    if len(v) != d + 1:
        raise ValueError(f"a {d}-simplex has {d + 1} corners, got {len(v)}")
    return v


def quad_triangle(corners, f) -> float:
    """Integral of f over the triangle with corners (3, 2) by the edge-midpoint
    rule (exact to degree 2).

    The result carries the sign of the triangle's orientation; a degenerate
    triangle integrates to 0.
    """
    v = _simplex(corners, 2)
    area = simplex_volume(v)
    if area == 0.0:
        return 0.0
    mids = 0.5 * (v + np.roll(v, -1, axis=0))
    return float(area / 3.0 * np.sum(f(mids)))


def quad_tetra(corners, f) -> float:
    """Integral of f over the tetrahedron with corners (4, 3), signed by
    orientation, exact to degree 2."""
    v = _simplex(corners, 3)
    vol = simplex_volume(v)
    if vol == 0.0:
        return 0.0
    bary = np.full((4, 4), _TET_BETA)
    np.fill_diagonal(bary, _TET_ALPHA)
    nodes = bary @ v
    return float(vol / 4.0 * np.sum(f(nodes)))


def sample_box(lo, hi, rng, m):
    """m uniform points (m, d) in the box [lo, hi], scaled column by column
    in place: the same floats as lo + rng.random((m, d)) * (hi - lo)."""
    u = rng.random((m, len(lo)))
    for col, low, width in zip(u.T, lo.tolist(), (hi - lo).tolist()):
        col *= width
        col += low
    return u


def _sample_simplex(verts, rng, m):
    # Sorted-uniform barycentric coordinates: differences of sorted uniforms
    # are exchangeable and uniform over the simplex.
    k = len(verts) - 1
    u = np.sort(rng.random((m, k)), axis=1)
    w = np.diff(np.concatenate([np.zeros((m, 1)), u, np.ones((m, 1))], axis=1), axis=1)
    return w @ verts


def _region_geometry(region):
    if isinstance(region, Box):
        lo = np.asarray(region.lo, float)
        hi = np.asarray(region.hi, float)
        if lo.shape != hi.shape or lo.ndim != 1 or len(lo) == 0:
            raise InvalidRegion(f"malformed box {region!r}")
        if np.any(hi <= lo):
            raise InvalidRegion(f"empty box {region!r}")
        return region.measure(), lambda rng, m: sample_box(lo, hi, rng, m)
    shape = np.shape(region)
    if len(shape) != 2 or shape[1] not in (2, 3) or shape[0] != shape[1] + 1:
        raise InvalidRegion(f"expected a Box or (d + 1, d) simplex corners, d = 2 or 3, got shape {shape}")
    v = _as_points(region, shape[1])
    measure = abs(float(simplex_volume(v)))
    if measure == 0.0:
        raise InvalidRegion("degenerate simplex region")
    return measure, lambda rng, m: _sample_simplex(v, rng, m)


def check_vanishes_on_boundary(f, box: Box):
    """Spot-check that a planar integrand is zero on the border of its MC box.

    Evaluates f at 64 evenly spaced points on each of the four sides and
    raises InvalidRegion when any value exceeds 1e-12 in magnitude, that is,
    when the box does not cover the integrand's support.
    """
    lo = np.asarray(box.lo, float)
    hi = np.asarray(box.hi, float)
    side = np.linspace(0.0, 1.0, 64)
    xs = lo[0] + side * (hi[0] - lo[0])
    ys = lo[1] + side * (hi[1] - lo[1])
    border = np.concatenate(
        [
            np.stack([xs, np.full_like(side, lo[1])], axis=1),
            np.stack([xs, np.full_like(side, hi[1])], axis=1),
            np.stack([np.full_like(side, lo[0]), ys], axis=1),
            np.stack([np.full_like(side, hi[0]), ys], axis=1),
        ]
    )
    worst = float(np.abs(f(border)).max())
    if worst > 1e-12:
        raise InvalidRegion(f"integrand does not vanish on the MC box boundary ({worst:g})")


def mc_integrate(region, f, samples: int, seed: int) -> McEstimate:
    """Unbiased Monte Carlo estimate of the integral of f over a region.

    The sample budget is split into fixed-size streams; stream i is seeded by
    SeedSequence(seed, spawn_key=(i,)), so the estimate is bit-identical for
    identical (region, f, samples, seed) no matter how streams are evaluated.
    """
    if samples < 1000:
        raise ValueError("mc_integrate needs at least 1000 samples")
    measure, sampler = _region_geometry(region)
    total = 0.0
    total_sq = 0.0
    done = 0
    stream = 0
    while done < samples:
        m = min(_CHUNK, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
        vals = np.asarray(f(sampler(rng, m)), float)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += m
        stream += 1
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0) * samples / (samples - 1)
    return McEstimate(
        value=measure * mean,
        std_error=measure * float(np.sqrt(var / samples)),
        samples=samples,
        seed=seed,
    )
