"""Scripted, reproducible experiments.

Three headline results drive this module:

* exhaustive 2D scans confirming the Delaunay triangulation maximizes the
  triangulation functional (and minimizes the squared-radius variant),
* an 8-point configuration where swapping two interior vertex positions
  (keeping all incidences) produces a topological triangulation whose
  functional exceeds the Delaunay value,
* a 6-point octahedron in 3D whose non-Delaunay diagonal decomposition beats
  the Delaunay one (a diagonal's ring of tetrahedra is the cyclic order that
  makes every volume positive), plus the fold-over probe explaining why.

Every experiment is deterministic for a fixed seed and serializes to a stable
JSON report.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstructionFailed, NotGeneralPosition
from .geom import (
    FLAGS, _as_labels, _as_points, circumcenter_offset3, det3, flag_terms, in_sphere, orient, simplex_volume
)
from .integrate import mc_integrate, sample_box
from .functional2d import (
    assert_vanishes_on_boundary,
    g_field,
    radius_functional,
    support_box,
    vf_triangulation,
)
from .subdivision import TetComplex, vf3
from .tri2d import (
    Triangulation2,
    delaunay,
    enumerate_triangulations,
    make_topological,
)

DEFAULT_SEED = 50331
# Points at which topological_counterexample compares the two g fields.
POINTWISE_SAMPLES = 10**4


@dataclass(frozen=True)
class ExperimentResult:
    """Recorded experiment outcome; the verdict derives only from the values."""

    name: str
    seed: int
    inputs: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    sigma: dict = field(default_factory=dict)
    verdict: str = "fail"
    margin: float = 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "name": self.name,
                "seed": self.seed,
                "inputs": self.inputs,
                "values": self.values,
                "sigma": self.sigma,
                "verdict": self.verdict,
                "margin": self.margin,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# 2D optimality scan
# ---------------------------------------------------------------------------


def optimality_scan(n: int, trials: int, seed: int = DEFAULT_SEED, functional: str = "vf"):
    """Enumerate all triangulations of random point sets and rank the Delaunay one.

    For functional="vf" the verdict passes when the Delaunay triangulation
    attains the maximum in every trial (ties within 1e-9); for "rf2" it must
    attain the minimum of the squared-radius functional.

    Returns (ExperimentResult, rows) where rows are per-triangulation tuples
    (trial, index, value, is_delaunay, is_max) for CSV reporting.
    """
    if not 4 <= n <= 12:
        raise ValueError("scan expects 4 <= n <= 12")
    if trials < 1:
        raise ValueError("scan expects at least one trial")
    if functional not in ("vf", "rf2"):
        raise ValueError(f"unknown functional {functional!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(17,)))
    rows = []
    worst_gap = np.inf  # signed distance of Delaunay value from the required extreme
    tol = 1e-9
    for trial in range(trials):
        # enumerate_triangulations lists the Delaunay triangulation first.
        tris = enumerate_triangulations(rng.random((n, 2)))
        if functional == "vf":
            vals = [vf_triangulation(t).total for t in tris]
        else:
            vals = [radius_functional(t, 2.0).total for t in tris]
        best = max(vals) if functional == "vf" else min(vals)
        gap = vals[0] - best if functional == "vf" else best - vals[0]
        worst_gap = min(worst_gap, gap)
        rows.extend((trial, idx, v, idx == 0, abs(v - best) <= tol) for idx, v in enumerate(vals))
    result = ExperimentResult(
        name=f"optimality_scan_{functional}",
        seed=seed,
        inputs={"n": n, "trials": trials, "functional": functional},
        values={"n": n, "trials": trials, "worst_gap": float(worst_gap)},
        sigma={},
        verdict="pass" if worst_gap >= -tol else "fail",
        margin=float(worst_gap),
    )
    return result, rows


# ---------------------------------------------------------------------------
# Topological counterexample (8 points, swapped interior pair)
# ---------------------------------------------------------------------------

# Labels: 0..7 = A, B, C, D, E, F, G, H.  A/D sit on a near-vertical axis,
# B/C inside, E/F and G/H outside; the Delaunay triangulation is all-acute
# with B and C joined by an interior edge.
FOLDED_TRIANGLES = (
    (0, 1, 2),
    (1, 2, 3),
    (0, 1, 4),
    (1, 4, 5),
    (1, 3, 5),
    (0, 2, 6),
    (2, 6, 7),
    (2, 3, 7),
)

# Frozen golden coordinates: first jitter of the symmetric template (under
# build_folded_configuration's default seed) satisfying every constraint.
FOLDED_POINTS = np.array(
    [
        [-0.047339377951503496, 1.9778689761007031],
        [-0.7564027408746057, 0.0031340654785167663],
        [0.7861744060744625, -0.03631694053190851],
        [-0.01831096251413368, -1.9716634367476704],
        [-2.1553338921127216, 1.053821915563175],
        [-2.18102781274927, -1.0877659719735426],
        [2.212400697785682, 1.1068673852633177],
        [2.2323449965939095, -1.078706012684506],
    ]
)

# Swap the two interior vertices (labels 1 and 2), keeping all incidences.
FOLDED_SWAP = (0, 2, 1, 3, 4, 5, 6, 7)

_FOLDED_CANON = tuple(sorted(tuple(sorted(t)) for t in FOLDED_TRIANGLES))


def _all_acute(t: Triangulation2) -> bool:
    for tri in t.triangles:
        v = t.points[list(tri)]
        for i in range(3):
            u1 = v[(i + 1) % 3] - v[i]
            u2 = v[(i + 2) % 3] - v[i]
            if (u1 @ u2) / (np.linalg.norm(u1) * np.linalg.norm(u2)) < 1e-3:
                return False
    return True


def build_folded_configuration(seed: int = DEFAULT_SEED) -> Triangulation2:
    """Search 500 jitters of the template for a valid folded configuration.

    The accepted configuration must be in general position, have the expected
    all-acute Delaunay combinatorics, and flip exactly the two central
    triangles negative under the interior swap.  The first hit under the
    default seed is frozen as FOLDED_POINTS.
    """
    h, w, ox, oy = 2.0, 0.8, 2.2, 1.1
    base = np.array(
        [[0, h], [-w, 0], [w, 0], [0, -h], [-ox, oy], [-ox, -oy], [ox, oy], [ox, -oy]],
        float,
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(41,)))
    for _ in range(500):
        pts = base + rng.uniform(-0.05, 0.05, size=(8, 2))
        cfg = _check_folded(pts)
        if cfg is not None:
            return cfg
    raise ConstructionFailed("no jitter of the folded template satisfied the constraints")


def _check_folded(pts) -> Triangulation2 | None:
    try:
        d = delaunay(pts)
    except NotGeneralPosition:
        return None
    if d.canonical() != _FOLDED_CANON or not _all_acute(d):
        return None
    k = make_topological(d, FOLDED_SWAP)
    negative = {tuple(sorted(d.triangles[i])) for i in range(len(k.signs)) if k.signs[i] < 0}
    if negative != {(0, 1, 2), (1, 2, 3)}:
        return None
    return d


def topological_counterexample(samples: int = 10**7, seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Compare the folded topological triangulation against its Delaunay source.

    The Delaunay value is exact (closed form); the folded value is a Monte
    Carlo integral of the signed pointwise field.  The verdict requires the
    gap to exceed 10 combined standard errors and the pointwise field of the
    folded triangulation to dominate everywhere sampled.
    """
    d = _check_folded(FOLDED_POINTS)
    if d is None:
        raise ConstructionFailed("frozen folded configuration no longer validates")
    k = make_topological(d, FOLDED_SWAP)
    vf_d = vf_triangulation(d).total
    vf_k_closed = vf_triangulation(k).total
    box = support_box(k)
    assert_vanishes_on_boundary(k, box)
    est = mc_integrate(box, lambda pts: g_field(k, pts), samples, seed)

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    pts = sample_box(np.asarray(box.lo), np.asarray(box.hi), rng, POINTWISE_SAMPLES)
    pointwise_min = float((g_field(k, pts) - g_field(d, pts)).min())

    gap = est.value - vf_d
    ok = gap > 10.0 * est.std_error and pointwise_min >= -1e-9
    return ExperimentResult(
        name="topological_counterexample",
        seed=seed,
        inputs={"points": 8, "samples": samples, "pointwise_samples": POINTWISE_SAMPLES},
        values={
            "vf_delaunay": vf_d,
            "vf_topological_mc": est.value,
            "vf_topological_closed": vf_k_closed,
            "gap": gap,
            "pointwise_min_gap": pointwise_min,
        },
        sigma={"vf_topological_mc": est.std_error},
        verdict="pass" if ok else "fail",
        margin=float(gap / est.std_error) if est.std_error > 0 else float("inf"),
    )


# ---------------------------------------------------------------------------
# Octahedron counterexample (3D)
# ---------------------------------------------------------------------------

# Labels: 0..5 = A, B, C, D, E, X.  Convex hull is an octahedron with
# diagonals BE, AC, DX; reference values for the two diagonal decompositions
# were reported as 3413.75 and 3432.96 (+/- 0.01) by an independent run.
OCTA_POINTS = np.array(
    [
        [7.99, 5.80, 1.65],
        [9.86, 0.00, 1.65],
        [7.80, -5.80, 1.65],
        [7.89, 0.00, 6.14],
        [-2.00, -0.01, 4.02],
        [6.89, 0.00, -4.14],
    ]
)
OCTA_LABELS = "ABCDEX"
OCTA_EXPECTED = {"BE": 3413.75, "AC": 3432.96}
OCTA_TOL = 0.05


def octahedron_decomposition(points, diagonal) -> TetComplex:
    """Four positive tetrahedra (i, j, a, b) around the diagonal (i, j) of a 6-point octahedron.

    The ring of a, b starts at the smallest other label; ValueError if no ring order is all positive.
    """
    pts = _as_points(points, 3)
    if len(pts) != 6:
        raise ValueError(f"an octahedron has 6 points, got {len(pts)}")
    i, j = _as_labels(diagonal, len(pts), 2, "diagonal").reshape(2).tolist()
    first, *rest = (k for k in range(6) if k not in (i, j))
    for ring in itertools.permutations(rest, 3):
        tets = [(i, j, a, b) for a, b in zip((first, *ring), (*ring, first))]
        if (orient(pts[tets]) > 0).all():
            return TetComplex(pts, tets)
    raise ValueError(f"({i}, {j}) is not a diagonal of the octahedron")


def octahedron_counterexample() -> ExperimentResult:
    """Both diagonal decompositions of the bundled octahedron, exactly integrated.

    Verifies via in-sphere tests that the BE decomposition is the Delaunay
    one, then requires both functional values to match the reference values
    within OCTA_TOL with the non-Delaunay value on top.
    """
    tc_be = octahedron_decomposition(OCTA_POINTS, (1, 4))
    tc_ac = octahedron_decomposition(OCTA_POINTS, (0, 2))
    vf_be = vf3(tc_be)
    vf_ac = vf3(tc_ac)
    others = [[p for p in range(len(OCTA_POINTS)) if p not in t] for t in tc_be.tets]
    worst_insphere = int(in_sphere(OCTA_POINTS[list(tc_be.tets)][:, None], OCTA_POINTS[others]).max())
    err_be = abs(vf_be - OCTA_EXPECTED["BE"])
    err_ac = abs(vf_ac - OCTA_EXPECTED["AC"])
    ok = err_be <= OCTA_TOL and err_ac <= OCTA_TOL and vf_ac > vf_be and worst_insphere <= 0
    return ExperimentResult(
        name="octahedron_counterexample",
        seed=0,
        inputs={"points": 6},
        values={
            "vf_delaunay_BE": vf_be,
            "vf_alternative_AC": vf_ac,
            "gap": vf_ac - vf_be,
            "max_reference_error": max(err_be, err_ac),
            "worst_insphere_sign": worst_insphere,
        },
        sigma={"reference_tolerance": OCTA_TOL},
        verdict="pass" if ok else "fail",
        margin=float(OCTA_TOL - max(err_be, err_ac)),
    )


# ---------------------------------------------------------------------------
# Fold-region probe (single tetrahedron, double fold-over)
# ---------------------------------------------------------------------------

# Faces ABD and CBD are acute isosceles; BAC and DAC are isosceles with
# obtuse angles at B and at D.  The circumcenter map then reverses 8 of the
# 24 subdivision tetrahedra.
FOLD_TET_POINTS = np.array(
    [
        [-2.0, 0.0, 0.0],  # A
        [0.0, 1.2, 1.0],  # B
        [2.0, 0.0, 0.0],  # C
        [0.0, -1.2, 1.0],  # D
    ]
)


def _inside_tets(tets, x):
    """(C, m) closed containment of the points x (m, 3) in the tetrahedra
    tets (C, 4, 3), in one array pass.

    A point is inside when no corner replaced by it turns the volume against
    the tetrahedron's, beyond a product of -1e-15.
    """
    whole = simplex_volume(tets)[:, None]
    q = np.repeat(tets[:, None], len(x), axis=1)  # (C, m, 4, 3)
    inside = np.ones(q.shape[:2], dtype=bool)
    for k in range(4):
        q[:, :, k] = x
        inside &= simplex_volume(q) * whole >= -1e-15
        q[:, :, k] = tets[:, None, k]
    return inside


def sd_local_density(tc: TetComplex, x) -> np.ndarray:
    """Signed pointwise density of the subdivision functional at the points x (m, 3).

    Sums, over the cells whose circumcenter-map image contains a point, the
    signed squared distance to the cell's source vertex.  The cells, in
    ``barycentric_subdivide``'s order, and their signs come from one
    ``flag_terms`` pass; cells whose image has volume below 1e-14
    contribute nothing.
    """
    x = np.asarray(x, float).reshape(-1, 3)
    tets = np.sort(np.asarray(tc.tets, int).reshape(-1, 4), axis=1)
    sign, _, center = flag_terms(tc.points, tets)
    image = center.reshape(-1, 4, 3)
    vol = simplex_volume(image)
    source = tc.points[tets[:, FLAGS[3][:, 0]]].reshape(-1, 3)
    holds = _inside_tets(image, x) & (np.abs(vol) >= 1e-14)[:, None]
    signed = (sign.ravel() * np.where(vol > 0, 1, -1))[:, None] * ((x - source[:, None]) ** 2).sum(axis=2)
    # Adds the cells to 0.0 in order, as a walk over them would.
    return np.cumsum(np.concatenate([np.zeros((1, len(x))), np.where(holds, signed, 0.0)]), axis=0)[-1]


def fold_region_probe(seed: int = DEFAULT_SEED) -> ExperimentResult:
    """Orientation census of the fold tetrahedron and an exterior positive point.

    Counts how many subdivision cells the circumcenter map preserves/reverses
    (expected 16/8), checks that exactly the four boundary flags at the
    midpoint of the long edge AC flip within their faces, and exhibits a point
    outside the tetrahedron whose local density d(x,C)^2 - d(x,B)^2 is
    positive with d(x,B) < d(x,C) < d(x,A): the first of 20000 seeded draws
    near the circumcenter of BAC that qualifies.
    """
    pts = FOLD_TET_POINTS
    tc = TetComplex(pts, [(0, 1, 2, 3)])
    sign, integral, _ = flag_terms(tc.points, tc.tets)
    preserved, reversed_ = int((sign * integral > 0).sum()), int((sign * integral < 0).sum())
    flipped_flags = _flipped_face_flags(tc)
    flips_at_ac = all(e == (0, 2) for _, e, _ in flipped_flags)

    e_center = pts[1] + circumcenter_offset3(pts[0] - pts[1], pts[2] - pts[1])
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    x = e_center + rng.uniform(-0.4, 0.4, (20000, 3))
    d_a, d_b, d_c = (np.linalg.norm(x - pts[i], axis=1) for i in range(3))
    keep = (d_b < d_c) & (d_c < d_a) & ~_inside_tets(pts[None], x)[0]
    x, expected = x[keep], (d_c**2 - d_b**2)[keep]
    density = sd_local_density(tc, x)
    hits = np.flatnonzero((density > 0) & (np.abs(density - expected) <= 1e-9))
    ok = (preserved, reversed_) == (16, 8) and len(flipped_flags) == 4 and flips_at_ac and len(hits) > 0
    if not ok:
        raise ConstructionFailed(
            f"fold probe failed: census {(preserved, reversed_)}, "
            f"flipped {len(flipped_flags)}, point {len(hits) > 0}"
        )
    x, density = x[hits[0]], float(density[hits[0]])
    return ExperimentResult(
        name="fold_region_probe",
        seed=seed,
        inputs={"tetrahedron": "isosceles, obtuse at B and D"},
        values={
            "preserved": preserved,
            "reversed": reversed_,
            "flipped_boundary_flags": len(flipped_flags),
            "witness_point": [float(v) for v in x],
            "witness_density": density,
        },
        sigma={},
        verdict="pass",
        margin=density,
    )


def _flipped_face_flags(tc: TetComplex) -> list:
    """Face flags (vertex, edge, face), as label tuples, whose in-plane
    orientation the circumcenter map reverses, per tetrahedron of ``tc``.

    The barycentric face cell of a flag (X, XY, XYZ) is always positively
    oriented against the normal (Y - X) x (Z - X), so the flag flips exactly
    when the image of X, XY and XYZ (``flag_terms``' centers) is
    negatively oriented against it.  Listed in ``barycentric_subdivide``'s
    cell order.
    """
    tets = np.sort(np.asarray(tc.tets, int).reshape(-1, 4), axis=1)
    _, _, center = flag_terms(tc.points, tets)
    p = tc.points[tets]
    x, y, z = (p[:, c] for c in FLAGS[3].T[:3])
    image = center[:, :, 1:3] - center[:, :, :1]
    flipped = det3(image[:, :, 0], image[:, :, 1], np.cross(y - x, z - x)) < 0.0
    return [
        ((a,), tuple(sorted((a, b))), tuple(sorted((a, b, c))))
        for a, b, c in tets[:, FLAGS[3][:, :3]][flipped].tolist()
    ]
