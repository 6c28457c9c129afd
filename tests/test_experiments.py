import hashlib
import itertools
import json

import numpy as np
import pytest

from vorfunc import experiments
from vorfunc.geom import circumcenter_offset3, convex_polygon_masks_xy, simplex_volume
from vorfunc.functional2d import g_field
from vorfunc.tri2d import delaunay, make_topological
from vorfunc.subdivision import TetComplex, barycentric_subdivide
from vorfunc.experiments import (
    FOLD_TET_POINTS,
    FOLDED_POINTS,
    FOLDED_SWAP,
    FOLDED_TRIANGLES,
    OCTA_EXPECTED,
    OCTA_LABELS,
    OCTA_POINTS,
    OCTA_TOL,
    build_folded_configuration,
    fold_region_probe,
    octahedron_counterexample,
    octahedron_decomposition,
    optimality_scan,
    sd_local_density,
    topological_counterexample,
    _flipped_face_flags,
)


def test_builder_reproduces_frozen_configuration():
    cfg = build_folded_configuration()
    assert np.array_equal(cfg.points, FOLDED_POINTS)
    assert cfg.canonical() == tuple(sorted(tuple(sorted(t)) for t in FOLDED_TRIANGLES))


def test_folded_delaunay_is_all_acute():
    d = delaunay(FOLDED_POINTS)
    for tri in d.triangles:
        v = d.points[list(tri)]
        for i in range(3):
            u1 = v[(i + 1) % 3] - v[i]
            u2 = v[(i + 2) % 3] - v[i]
            assert (u1 @ u2) > 0


def test_folded_covering_counts(rng):
    # Central quadrangle is covered three times, the side pentagons once.
    d = delaunay(FOLDED_POINTS)
    k = make_topological(d, FOLDED_SWAP)

    def covering(x):
        count = np.zeros(len(x), dtype=int)
        for tri in k.triangles:
            count += convex_polygon_masks_xy(k.points[list(tri)], *x.T)[0].astype(int)
        return count

    p = k.points
    a, b, c, dd, e, f = p[0], p[1], p[2], p[3], p[4], p[5]
    w = rng.dirichlet([3, 3, 3], 300)
    quad = np.vstack([w @ np.array([a, c, b]), w @ np.array([c, dd, b])])
    assert np.all(covering(quad) == 3)
    # Left pentagon in swapped coordinates: A, C(now left), D, F, E.
    pent = np.array([a, c, dd, f, e])
    centroid = pent.mean(axis=0)
    w2 = rng.dirichlet([4, 2, 2], 300)
    pent_pts = np.vstack(
        [w2 @ np.array([centroid, pent[i], pent[(i + 1) % 5]]) for i in range(5)]
    )
    assert np.all(covering(pent_pts) == 1)


def test_folded_alpha_beta_gamma_identity(rng):
    # Inside the central triangle the field is alpha + beta - gamma.
    d = delaunay(FOLDED_POINTS)
    k = make_topological(d, FOLDED_SWAP)
    p = k.points
    w = rng.dirichlet([2, 2, 2], 500)
    x = w @ np.array([p[0], p[1], p[2]])

    def nearest_sq(labels, pts):
        return ((pts[:, None, :] - p[labels][None, :, :]) ** 2).sum(axis=2).min(axis=1)

    alpha = np.minimum(nearest_sq([0, 1, 4], x), nearest_sq([1, 4, 5], x))
    beta = np.minimum(nearest_sq([0, 2, 6], x), nearest_sq([2, 6, 7], x))
    gamma = nearest_sq([0, 1, 2], x)
    assert np.allclose(g_field(k, x), alpha + beta - gamma, atol=1e-12)


def test_folded_field_zero_far_outside():
    d = delaunay(FOLDED_POINTS)
    k = make_topological(d, FOLDED_SWAP)
    far = np.array([[9, 9], [-8, 4], [0, -9], [7, -6]], float)
    assert np.all(g_field(k, far) == 0.0)
    assert np.all(g_field(d, far) == 0.0)


def test_topological_counterexample_passes():
    r = topological_counterexample(samples=10**6)
    assert r.verdict == "pass"
    assert r.values["gap"] > 0
    assert r.margin > 10
    assert r.values["pointwise_min_gap"] >= -1e-9
    # Closed form of the signed sum agrees with the MC estimate.
    mc = r.values["vf_topological_mc"]
    closed = r.values["vf_topological_closed"]
    assert abs(mc - closed) <= 4 * r.sigma["vf_topological_mc"]


def test_topological_counterexample_estimate_is_pinned():
    # The Monte Carlo estimate at 10^6 samples, to the last bit.
    r = topological_counterexample(samples=10**6)
    assert repr(r.values["vf_topological_mc"]) == "13.993875133362888"
    assert repr(r.sigma["vf_topological_mc"]) == "0.04692311508661682"
    assert repr(r.margin) == "137.82957513675743"
    assert r.values["pointwise_min_gap"] == 0.0


def test_topological_counterexample_deterministic():
    a = topological_counterexample(samples=10**5 * 2)
    b = topological_counterexample(samples=10**5 * 2)
    assert a.to_json() == b.to_json()


def test_octahedron_counterexample_golden_values():
    r = octahedron_counterexample()
    assert r.verdict == "pass"
    assert r.values["vf_delaunay_BE"] == pytest.approx(OCTA_EXPECTED["BE"], abs=OCTA_TOL)
    assert r.values["vf_alternative_AC"] == pytest.approx(OCTA_EXPECTED["AC"], abs=OCTA_TOL)
    assert r.values["vf_alternative_AC"] > r.values["vf_delaunay_BE"]
    assert r.values["worst_insphere_sign"] <= 0


def test_octahedron_decompositions_share_no_tets():
    be = octahedron_decomposition(OCTA_POINTS, (1, 4))
    ac = octahedron_decomposition(OCTA_POINTS, (0, 2))
    assert len(be.tets) == len(ac.tets) == 4
    assert {frozenset(t) for t in be.tets}.isdisjoint({frozenset(t) for t in ac.tets})


def test_octahedron_ring_starts_at_the_smallest_label_with_positive_tetrahedra():
    for name in ("BE", "AC", "DX"):
        i, j = (OCTA_LABELS.index(c) for c in name)
        tets = octahedron_decomposition(OCTA_POINTS, (i, j)).tets
        ring = [t[2] for t in tets]
        assert ring[0] == min(set(range(6)) - {i, j}) and sorted(ring) == sorted(set(range(6)) - {i, j})
        assert tets == tuple((i, j, a, b) for a, b in zip(ring, ring[1:] + ring[:1]))
        assert (simplex_volume(OCTA_POINTS[list(tets)]) > 0).all(), name


def test_only_the_three_diagonals_decompose_the_octahedron():
    # Around each of the 12 edges one ring tetrahedron has the other
    # orientation, and the four do not tile the octahedron.
    hull = pytest.importorskip("scipy.spatial").ConvexHull(OCTA_POINTS).volume
    diagonals = []
    for i, j in itertools.combinations(range(6), 2):
        try:
            tc = octahedron_decomposition(OCTA_POINTS, (i, j))
        except ValueError as exc:
            assert str(exc) == f"({i}, {j}) is not a diagonal of the octahedron"
            continue
        assert simplex_volume(tc.points[list(tc.tets)]).sum() == pytest.approx(hull, rel=1e-12)
        diagonals.append((i, j))
    assert diagonals == [(0, 2), (1, 4), (3, 5)]


def test_fold_region_probe_census_and_witness():
    r = fold_region_probe()
    assert r.verdict == "pass"
    assert (r.values["preserved"], r.values["reversed"]) == (16, 8)
    assert r.values["flipped_boundary_flags"] == 4
    assert r.values["witness_density"] > 0
    from vorfunc.experiments import FOLD_TET_POINTS

    x = np.asarray(r.values["witness_point"])
    d_a, d_b, d_c = (np.linalg.norm(x - FOLD_TET_POINTS[i]) for i in (0, 1, 2))
    assert d_b < d_c < d_a
    assert r.values["witness_density"] == pytest.approx(d_c**2 - d_b**2, abs=1e-9)


def _sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


def test_counterexample_reports_are_pinned():
    # The full JSON of both 3D reports, to the last bit of every value.
    assert _sha1(octahedron_counterexample().to_json()) == "3691c6fef25faf9cffc32b5530d971595c88b834"
    assert _sha1(fold_region_probe().to_json()) == "b9e93a29930d4be4252f1debd3f1d8a8d573416c"


def test_scan_rows_are_pinned():
    # The rows of the CI scan, rendered as the CLI's CSV lines.
    _, rows = optimality_scan(10, 2, seed=7)
    text = "".join(f"{t},{i},{v!r},{int(d)},{int(m)}\n" for t, i, v, d, m in rows)
    assert len(rows) == 2114 and _sha1(text) == "32159ad73a9db8d0af29e3978ac074112dc4aa26"


def test_scan_n12_rows_are_pinned():
    # The rows of the scan at its documented size, rendered alike.
    _, rows = optimality_scan(12, 1, seed=7)
    text = "".join(f"{t},{i},{v!r},{int(d)},{int(m)}\n" for t, i, v, d, m in rows)
    assert len(rows) == 8174 and _sha1(text) == "145836d31af52579bfcac77a8bcb51fcc710899e"


def test_rf2_scan_rows_are_pinned():
    # The same scan ranked by the squared-radius functional, rendered alike.
    _, rows = optimality_scan(10, 2, seed=7, functional="rf2")
    text = "".join(f"{t},{i},{v!r},{int(d)},{int(m)}\n" for t, i, v, d, m in rows)
    assert len(rows) == 2114 and _sha1(text) == "7320b6ce6886e8c7509a0b87c1e1b5ce34942b14"


def test_scan_four_points_convex():
    result, rows = optimality_scan(4, 5, seed=3)
    assert result.verdict == "pass"
    # Each trial enumerates either 1 (interior point) or 2 (convex) triangulations.
    per_trial = {}
    for trial, idx, vf, is_d, is_max in rows:
        per_trial.setdefault(trial, []).append((vf, is_d, is_max))
    for vals in per_trial.values():
        assert len(vals) in (1, 2)
        d_val = next(v for v, is_d, _ in vals if is_d)
        assert all(d_val >= v - 1e-9 for v, _, _ in vals)


def test_scan_n6_passes():
    result, rows = optimality_scan(6, 20, seed=5)
    assert result.verdict == "pass"
    assert result.values["worst_gap"] >= -1e-9


def test_scan_rf2_delaunay_minimizes():
    result, _ = optimality_scan(6, 20, seed=5, functional="rf2")
    assert result.verdict == "pass"


def test_scan_rejects_an_unknown_functional_before_enumerating(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("enumerated before checking the functional")

    monkeypatch.setattr(experiments, "enumerate_triangulations", fail)
    with pytest.raises(ValueError, match="unknown functional 'bogus'"):
        optimality_scan(12, 1, functional="bogus")


def test_scan_reverse_direction_never_passes():
    # No geometric triangulation beats the Delaunay value.
    _, rows = optimality_scan(6, 20, seed=9)
    per_trial = {}
    for trial, idx, vf, is_d, _ in rows:
        per_trial.setdefault(trial, {"d": None, "others": []})
        if is_d:
            per_trial[trial]["d"] = vf
        else:
            per_trial[trial]["others"].append(vf)
    for data in per_trial.values():
        assert all(v <= data["d"] + 1e-9 for v in data["others"])


def test_experiment_json_stable():
    a = octahedron_counterexample().to_json()
    b = octahedron_counterexample().to_json()
    assert a == b
    obj = json.loads(a)
    assert obj["schema"] == 1
    assert set(obj) == {"schema", "name", "seed", "inputs", "values", "sigma", "verdict", "margin"}


def test_scan_enumerates_sets_past_5000_triangulations():
    # Seed 21 draws an 11-point set with 5390 triangulations.
    result, rows = optimality_scan(11, 1, seed=21)
    assert result.verdict == "pass"
    assert len(rows) == 5390
    assert [idx for _, idx, _, is_d, _ in rows if is_d] == [0]


def _reference_point_in_tet(tet_pts, x):
    s0 = simplex_volume(tet_pts)
    for rep in range(4):
        q = list(tet_pts)
        q[rep] = x
        if simplex_volume(q) * s0 < -1e-15:
            return False
    return True


def _reference_density(sd, x):
    """Per-cell walk over a SubdividedComplex: the signed squared distance to
    each cell's source vertex, summed over the cells whose image holds x."""
    total = 0.0
    for verts, sign in zip(sd.cells.tolist(), sd.cell_sign.tolist()):
        img = sd.gamma[verts]
        vol = simplex_volume(img)
        if abs(vol) < 1e-14:
            continue
        if _reference_point_in_tet(img, x):
            a = sd.source_points[sd.source_simplices[verts[0], 0]]
            total += sign * (1 if vol > 0 else -1) * float(((x - a) ** 2).sum())
    return total


def _reference_flipped_flags(sd):
    """Face flags (vertex, edge, face) whose in-plane orientation the
    circumcenter map reverses, read cell by cell from a SubdividedComplex."""
    sources = [tuple(x for x in row if x >= 0) for row in sd.source_simplices.tolist()]
    out = []
    for verts in sd.cells.tolist():
        ids = verts[:3]
        fp = sd.source_points[list(sources[ids[2]])]
        n = np.cross(fp[1] - fp[0], fp[2] - fp[0])
        bary, image = sd.vertices[ids], sd.gamma[ids]
        src = np.cross(bary[1] - bary[0], bary[2] - bary[0]) @ n
        img = np.cross(image[1] - image[0], image[2] - image[0]) @ n
        if src * img < 0:
            out.append(tuple(sources[i] for i in ids))
    return out


def test_fold_density_matches_per_cell_reference():
    tc = TetComplex(FOLD_TET_POINTS, [(0, 1, 2, 3)])
    sd = barycentric_subdivide(tc)
    a, b, c = FOLD_TET_POINTS[[1, 0, 2]]
    e_center = a + circumcenter_offset3(b - a, c - a)
    x = e_center + np.random.default_rng(11).uniform(-0.6, 0.6, (300, 3))
    got = sd_local_density(tc, x)
    assert got.tolist() == [_reference_density(sd, p) for p in x]
    # Some draws lie in the images of cells, the others in none.
    assert (got > 0).sum() >= 20 and (got == 0).any()


def test_flipped_face_flags_match_per_cell_reference():
    complexes = [TetComplex(FOLD_TET_POINTS, [(0, 1, 2, 3)])]
    complexes += [octahedron_decomposition(OCTA_POINTS, d) for d in ((1, 4), (0, 2), (3, 5))]
    for tc in complexes:
        assert _flipped_face_flags(tc) == _reference_flipped_flags(barycentric_subdivide(tc))
    assert _flipped_face_flags(complexes[0]) == [
        ((0,), (0, 2), (0, 1, 2)),
        ((0,), (0, 2), (0, 2, 3)),
        ((2,), (0, 2), (0, 1, 2)),
        ((2,), (0, 2), (0, 2, 3)),
    ]
