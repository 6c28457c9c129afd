"""Acceptance suite: one test per criterion, full stated sizes and tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them inline):

    [criterion 01] octahedron golden values ............ PASS

Criteria 3 and 4 share one batch of 100 enumerated instances via a module
fixture.  Everything is seeded and deterministic.
"""

import time

import numpy as np
import pytest

from vorfunc.geom import Triangle2
from vorfunc.integrate import mc_integrate, quad_triangle
from vorfunc.functional2d import (
    flip_delta,
    flip_delta_law,
    g_field,
    g_triangle_points,
    radius_functional,
    rajan_triangle,
    support_box,
    vf_triangle,
    vf_triangulation,
)
from vorfunc.subdivision import (
    cell_decomposition_check,
    interior_cancellation_check,
    vf_via_sd,
)
from vorfunc.tri2d import convex_hull, enumerate_triangulations
from vorfunc.experiments import (
    OCTA_EXPECTED,
    OCTA_TOL,
    fold_region_probe,
    octahedron_counterexample,
    topological_counterexample,
)

from conftest import random_delaunay, random_triangle


def report(num, label, ok):
    dots = "." * max(1, 44 - len(label))
    print(f"\n[criterion {num:02d}] {label} {dots} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def scan_instances():
    """100 seeded point sets, n in 4..8, with all their triangulations."""
    rng = np.random.default_rng(1234509876)
    out = []
    for n in range(4, 9):
        for _ in range(20):
            d = random_delaunay(rng, n)
            tris = enumerate_triangulations(d.points, cap=5000)
            out.append((d, tris))
    return out


def test_criterion_01_octahedron_golden_values():
    start = time.time()
    r = octahedron_counterexample()
    elapsed = time.time() - start
    ok = (
        abs(r.values["vf_delaunay_BE"] - OCTA_EXPECTED["BE"]) <= OCTA_TOL
        and abs(r.values["vf_alternative_AC"] - OCTA_EXPECTED["AC"]) <= OCTA_TOL
        and r.values["vf_alternative_AC"] > r.values["vf_delaunay_BE"]
        and elapsed < 60.0
    )
    report(1, f"octahedron golden values ({elapsed:.2f}s)", ok)


def test_criterion_02_closed_form_vs_oracle():
    rng = np.random.default_rng(777)
    n_obtuse = 0
    worst = 0.0
    for i in range(200):
        t = random_triangle(rng)
        verts = t.vertices()
        dots = [
            float((verts[(k + 1) % 3] - verts[k]) @ (verts[(k + 2) % 3] - verts[k]))
            for k in range(3)
        ]
        obtuse = min(dots) < 0
        n_obtuse += obtuse
        vf = vf_triangle(t)
        from vorfunc.tri2d import Triangulation2

        box = support_box(Triangulation2(verts, [(0, 1, 2)]))
        est = mc_integrate(box, lambda p: g_triangle_points(t, p), 10**5, seed=i)
        worst = max(worst, abs(vf - est.value) / est.std_error)
        if not obtuse:
            def nearest_sq(p, v=verts):
                return ((p[:, None, :] - v[None, :, :]) ** 2).sum(axis=2).min(axis=1)

            est1 = mc_integrate(verts, nearest_sq, 10**5, seed=10_000 + i)
            worst = max(worst, abs(vf - est1.value) / est1.std_error)
    ok = worst <= 3.0 and n_obtuse >= 50
    report(2, f"closed form vs oracle (worst {worst:.2f} sigma, {n_obtuse} obtuse)", ok)


def test_criterion_03_optimality(scan_instances):
    rng = np.random.default_rng(24680)
    worst_gap = np.inf
    worst_pointwise = np.inf
    for d, tris in scan_instances:
        vf_d = vf_triangulation(d).total
        box = support_box(d)
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        pts = lo + rng.random((10**4, 2)) * (hi - lo)
        g_d = g_field(d, pts)
        for k in tris:
            worst_gap = min(worst_gap, vf_d - vf_triangulation(k).total)
            worst_pointwise = min(worst_pointwise, float((g_d - g_field(k, pts)).min()))
    ok = worst_gap >= -1e-9 and worst_pointwise >= -1e-9
    report(
        3,
        f"optimality (gap {worst_gap:.2e}, pointwise {worst_pointwise:.2e})",
        ok,
    )


def test_criterion_04_identities(scan_instances):
    rng = np.random.default_rng(13579)
    worst_rel = 0.0
    for _ in range(100):
        d = random_delaunay(rng, int(rng.integers(5, 13)))
        rf2 = radius_functional(d, 2.0).total
        rf1 = radius_functional(d, 1.0).total
        rajan = sum(rajan_triangle(Triangle2(*d.points[list(t)])) for t in d.triangles)
        vf = vf_triangulation(d).total
        worst_rel = max(worst_rel, abs(rf2 - (3 * rajan - 3 * vf)) / abs(rf2))
        prod = sum(
            np.linalg.norm(d.points[a] - d.points[b])
            * np.linalg.norm(d.points[b] - d.points[c])
            * np.linalg.norm(d.points[c] - d.points[a])
            for a, b, c in d.triangles
        )
        worst_rel = max(worst_rel, abs(rf1 - prod / 4) / abs(rf1))
    # Delaunay minimizes the squared-radius functional on the same instances.
    worst_gap = np.inf
    for d, tris in scan_instances:
        rf_d = radius_functional(d, 2.0).total
        best = min(radius_functional(k, 2.0).total for k in tris)
        worst_gap = min(worst_gap, best - rf_d)
    ok = worst_rel <= 1e-10 and worst_gap >= -1e-9
    report(4, f"radius identities (rel {worst_rel:.1e}, rf2 gap {worst_gap:.1e})", ok)


def test_criterion_05_subdivision_equivalence():
    rng = np.random.default_rng(97531)
    worst_rel = 0.0
    for _ in range(100):
        d = random_delaunay(rng, int(rng.integers(5, 11)))
        a = vf_triangulation(d).total
        b = vf_via_sd(d)
        worst_rel = max(worst_rel, abs(a - b) / max(abs(a), 1e-12))
    worst_cancel = 0.0
    checked = 0
    for _ in range(30):
        d = random_delaunay(rng, 12)
        for v in set(range(12)) - d.boundary_vertices():
            lhs, rhs = interior_cancellation_check(d, v)
            worst_cancel = max(worst_cancel, abs(lhs - rhs) / max(abs(lhs), 1e-12))
            checked += 1
    ok = worst_rel <= 1e-9 and worst_cancel <= 1e-9 and checked > 0
    report(
        5,
        f"subdivision equivalence (rel {worst_rel:.1e}, cancel {worst_cancel:.1e}, {checked} vertices)",
        ok,
    )


def _has_obtuse_hull_opposite(d):
    for (u, v), tids in d.edge_map().items():
        if len(tids) != 1:
            continue
        tri = d.triangles[tids[0]]
        w = next(x for x in tri if x not in (u, v))
        if (d.points[u] - d.points[w]) @ (d.points[v] - d.points[w]) < 0:
            return True
    return False


def test_criterion_06_cell_decomposition():
    rng = np.random.default_rng(86420)
    sets = []
    n_obtuse = 0
    while len(sets) < 30:
        d = random_delaunay(rng, int(rng.integers(6, 11)))
        obtuse = _has_obtuse_hull_opposite(d)
        remaining = 30 - len(sets)
        if (10 - n_obtuse) >= remaining and not obtuse:
            continue
        sets.append(d)
        n_obtuse += obtuse
    worst = 0.0
    for i, d in enumerate(sets):
        closed, est = cell_decomposition_check(d, samples=10**6, seed=1000 + i)
        worst = max(worst, abs(closed - est.value) / est.std_error)
    ok = worst <= 3.0 and n_obtuse >= 10
    report(6, f"cell decomposition (worst {worst:.2f} sigma, {n_obtuse} obtuse)", ok)


def test_criterion_07_angle_lemma():
    # kappa(phi): tangent-plane height integrated over the subdivision
    # triangle (circumcenter, vertex, chord midpoint at inscribed angle phi).
    radius = 1.3
    a = np.array([radius, 0.0])

    def kappa(phi):
        mid = radius * np.cos(phi) * np.array([np.cos(phi), np.sin(phi)])
        return quad_triangle([(0.0, 0.0), a, mid], lambda p: 2.0 * (p @ a) - radius**2)

    phis = np.concatenate(
        [
            np.linspace(0.02, np.pi / 4 - 0.02, 25),
            np.linspace(np.pi / 4 + 0.02, np.pi / 2 - 0.02, 25),
        ]
    )
    worst_rel = 0.0
    signs_ok = True
    for phi in phis:
        target = radius**4 * np.sin(4 * phi) / 24.0
        val = kappa(phi)
        worst_rel = max(worst_rel, abs(val - target) / abs(target))
        signs_ok &= np.sign(val) == np.sign(np.pi / 4 - phi)
    ok = worst_rel <= 1e-6 and signs_ok
    report(7, f"angle lemma (50 nodes, rel {worst_rel:.1e}, sign change)", ok)


def test_criterion_08_flip_delta_law():
    rng = np.random.default_rng(11223344)
    checked = 0
    worst = 0.0
    diagonal_cases = 0
    while checked < 10**4:
        quad = rng.random((4, 2))
        if len(convex_hull(quad)) != 4:
            continue
        checked += 1
        p = rng.random(2) * 4 - 1.5
        delta = flip_delta(quad, p)
        law, diagonal = flip_delta_law(quad, p)
        worst = max(worst, abs(delta - law))
        diagonal_cases += diagonal
        if not diagonal:
            worst = max(worst, abs(delta))
    ok = worst <= 1e-9 and 0 < diagonal_cases < checked
    report(8, f"flip-delta law (1e4 pairs, worst {worst:.1e})", ok)


def test_criterion_09_topological_counterexample():
    r = topological_counterexample(samples=10**7)
    ok = (
        r.verdict == "pass"
        and r.margin > 10.0
        and r.values["pointwise_min_gap"] >= -1e-9
    )
    report(9, f"topological counterexample ({r.margin:.0f} sigma)", ok)


def test_criterion_10_fold_region_probe():
    r = fold_region_probe()
    ok = (
        r.verdict == "pass"
        and (r.values["preserved"], r.values["reversed"]) == (16, 8)
        and r.values["witness_density"] > 0
    )
    report(10, "fold-region probe (16/8 census, exterior point)", ok)
