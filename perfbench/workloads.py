"""The three workloads: seeded inputs, the timed library calls, the checks.

Each workload has
* ``generate(seed, size)``: the seeded inputs, as plain arrays (set-up);
* ``run(lib, tr, inp, size)``: one item, the library calls that are timed;
* ``check(lib, inp, out, refs, size)``: a list of failure messages from the
  oracles in ``oracles.py``, empty when the item is correct;
* optionally ``extra`` / ``check_extra``: timed work counted in ``wall_s``
  but not in the item latencies.

``refs`` is a per-run cache of oracle results, so repeated passes over the
same inputs pay for each oracle once.  ``probe`` (traced runs only) runs the
predicate probe on one item's Delaunay result.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from oracles import (
    ExactFunctionals,
    count_floor,
    count_triangulations,
    covered_area,
    mc_z_limit,
    scipy_triangles,
    support_box,
)

# Gate on closed forms against the exact reference, as a share of the sum of
# |per-triangle value|.  It catches wrong values, not rounding: the measured
# error, reported as functional2d.closed_form.rel_err, is ~1e-15 on uniform
# sets but reaches 2e-12 on the anisotropic Gaussian, where one sliver's
# circumradius from the library's absolute-coordinate solve dominates.
CLOSED_FORM_RTOL = 1e-9
# Family-wise false-alarm probability for all Monte Carlo checks of one pass.
MC_FAMILY_ALPHA = 1e-4
# Gross-error gate on vf_via_sd; its measured error is reported as a metric.
VF_VIA_SD_RTOL = 1e-4
# Tolerance for "Delaunay attains the extreme", as a share of the extreme.
OPTIMUM_RTOL = 1e-9
# A Monte Carlo check is conclusive only when the inputs alone make the
# integrand nonzero on at least this many samples in expectation: below it
# the sample variance misses the mass the samples missed (4 nonzero samples
# gave z = -5.1 where 10^6 samples give 0.6).
MC_MIN_USEFUL = 50
# Tolerance on support_box against the recomputed box, as a share of its size.
BOX_RTOL = 1e-9
# Shapes of the enum_scan point sets; see enum_scan_generate.
ENUM_SHAPES_SEED = 20141123

SIZES = {
    "enum_scan": {"full": {"sets": 102}, "toy": {"sets": 3}},
    "field_mc": {
        "full": {"sets": 100, "cell_samples": 5 * 10**4, "g_samples": 2 * 10**4, "cx_samples": 2 * 10**5},
        "toy": {"sets": 2, "cell_samples": 2000, "g_samples": 2000, "cx_samples": 10**4},
    },
    "large_n": {
        "full": {"sets": ((1000, "uniform"), (1000, "gaussian"), (3000, "uniform"), (3000, "gaussian"))},
        "toy": {"sets": ((80, "uniform"), (80, "gaussian"))},
    },
}


@dataclass
class Item:
    index: int
    points: np.ndarray
    seed: int = 0
    swap: tuple = ()


def _rng(seed, tag, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, index)))


def _cross(u, v):
    return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]


def _orientations(pts, triangles):
    t = np.asarray(triangles)
    return np.sign(_cross(pts[t[:, 1]] - pts[t[:, 0]], pts[t[:, 2]] - pts[t[:, 0]]))


def _generic(pts, rel=1e-6) -> bool:
    """No near-collinear triple and no near-cocircular quadruple (small n)."""
    n = len(pts)
    tri = np.array(list(combinations(range(n), 3)))
    a, b, c = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    u, v = b - a, c - a
    det = _cross(u, v)
    if np.any(np.abs(det) <= rel * np.abs(u).sum(1) * np.abs(v).sum(1)):
        return False
    quad = np.array(list(combinations(range(n), 4)))
    d = pts[quad[:, :3]] - pts[quad[:, 3:4]]
    rows = np.concatenate([d, (d**2).sum(2, keepdims=True)], axis=2)
    det = np.linalg.det(rows)
    scale = np.abs(d).sum(2).prod(1) * np.abs(rows[:, :, 2]).max(1)
    return not np.any(np.abs(det) <= rel * scale)


def _generic_set(rng, n):
    while True:
        pts = rng.random((n, 2))
        if _generic(pts):
            return pts


def _tri_set(triangles):
    return frozenset(tuple(sorted(t)) for t in triangles)


def _closed_form_errors(refs, name, value, exact, scale):
    """Record the relative error of a closed form; a message if it is gross."""
    rel = abs(value - exact) / scale
    refs["closed_form.rel_err"] = max(refs.get("closed_form.rel_err", 0.0), rel)
    if rel > CLOSED_FORM_RTOL:
        return [f"{name} {value!r} vs exact {exact!r} (relative error {rel:.1e})"]
    return []


def _cached(refs, key, make):
    if key not in refs:
        refs[key] = make()
    return refs[key]


def _delaunay_errors(pts, d, refs, key):
    if _tri_set(d.triangles) != _cached(refs, key, lambda: scipy_triangles(pts)):
        return ["Delaunay triangles differ from scipy.spatial.Delaunay"]
    return []


def _exact(refs, key, pts):
    return _cached(refs, key, lambda: ExactFunctionals(pts))


# ---------------------------------------------------------------------------
# enum_scan: exhaustive optimality scans on small point sets
# ---------------------------------------------------------------------------


def enum_scan_generate(seed, size):
    """Fixed shapes, seeded placement and labels.

    The 102 shapes (n cycling through 7, 8, 9) are drawn once from
    ENUM_SHAPES_SEED; ``seed`` draws a rotation, translation, power-of-two
    scale and relabeling for each.  The triangulation count of a set, which
    spans 30 to 1000+ at these n, is invariant under all four, so every seed
    does the same amount of work and the spread between runs measures the
    program rather than the draw.
    """
    items = []
    for i in range(size["sets"]):
        shape = _generic_set(_rng(ENUM_SHAPES_SEED, 1, i), 7 + i % 3)
        rng = _rng(seed, 1, i)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        pts = (shape - 0.5) @ rot.T * 2.0 ** rng.integers(-2, 3) + rng.uniform(-1.0, 1.0, 2)
        items.append(Item(i, pts[rng.permutation(len(pts))]))
    return items


def enum_scan_run(lib, tr, inp, size):
    with tr.span("tri2d.delaunay"):
        d = lib.tri2d.delaunay(inp.points)
    with tr.span("tri2d.enumerate_triangulations"):
        tris = lib.tri2d.enumerate_triangulations(inp.points)
    tr.count("tri2d.enumerate_triangulations.triangulations", len(tris))
    tr.count("tri2d.delaunay.points", len(inp.points))
    vf, rf2 = [], []
    for t in tris:
        with tr.span("functional2d.vf_triangulation"):
            vf.append(lib.functional2d.vf_triangulation(t).total)
    for t in tris:
        with tr.span("functional2d.radius_functional"):
            rf2.append(lib.functional2d.radius_functional(t, 2.0).total)
    tr.count("functional2d.closed_form.triangles", 2 * sum(len(t.triangles) for t in tris))
    return d, tris, vf, rf2


def enum_scan_check(lib, inp, out, refs, size):
    d, tris, vf, rf2 = out
    pts = inp.points
    errs = _delaunay_errors(pts, d, refs, ("dt", inp.index))
    count = _cached(refs, ("count", inp.index), lambda: count_triangulations(pts))
    keys = [_tri_set(t.triangles) for t in tris]
    if len(tris) != count or len(set(keys)) != len(keys):
        errs.append(f"{len(tris)} triangulations enumerated ({len(set(keys))} distinct), exact count {count}")
    ex = _exact(refs, ("exact", inp.index), pts)
    for t, v, r in zip(tris, vf, rf2):
        e = ex.totals(t.triangles)
        errs += _closed_form_errors(refs, "vf", v, e["vf"], e["vf_abs"])
        errs += _closed_form_errors(refs, "rf2", r, e["rf2"], e["rf2"])
    dkey = _tri_set(d.triangles)
    if dkey not in keys:
        errs.append("Delaunay triangulation missing from the enumeration")
    else:
        i = keys.index(dkey)
        if vf[i] < max(vf) - OPTIMUM_RTOL * abs(max(vf)):
            errs.append(f"Delaunay VF {vf[i]!r} below the maximum {max(vf)!r}")
        if rf2[i] > min(rf2) + OPTIMUM_RTOL * abs(min(rf2)):
            errs.append(f"Delaunay rf2 {rf2[i]!r} above the minimum {min(rf2)!r}")
    return errs


# ---------------------------------------------------------------------------
# field_mc: Monte Carlo checks of the pointwise field
# ---------------------------------------------------------------------------


def _fold_swap(pts, rng):
    """A label swap whose image has a fold-over and no near-degenerate triangle."""
    from scipy.spatial import Delaunay

    tris = Delaunay(pts).simplices
    src = _orientations(pts, tris)
    pairs = list(combinations(range(len(pts)), 2))
    for p in rng.permutation(len(pairs)):
        i, j = pairs[p]
        img = pts.copy()
        img[[i, j]] = img[[j, i]]
        u, v = img[tris[:, 1]] - img[tris[:, 0]], img[tris[:, 2]] - img[tris[:, 0]]
        det = _cross(u, v)
        sizes = np.abs(u).sum(1) * np.abs(v).sum(1)
        if np.any(np.sign(det) != src) and np.all(np.abs(det) > 1e-3 * sizes):
            perm = list(range(len(pts)))
            perm[i], perm[j] = j, i
            return tuple(perm)
    return None


def field_mc_generate(seed, size):
    items = []
    for i in range(size["sets"]):
        rng = _rng(seed, 2, i)
        while True:
            pts = _generic_set(rng, 6 + i % 5)
            swap = _fold_swap(pts, rng)
            if swap is not None:
                break
        items.append(Item(i, pts, int(rng.integers(2**31)), swap))
    return items


def field_mc_run(lib, tr, inp, size):
    f2 = lib.functional2d
    with tr.span("tri2d.delaunay"):
        d = lib.tri2d.delaunay(inp.points)
    tr.count("tri2d.delaunay.points", len(inp.points))
    with tr.span("subdivision.cell_decomposition_check"):
        closed, est = lib.subdivision.cell_decomposition_check(d, samples=size["cell_samples"], seed=inp.seed)
    tr.count("subdivision.cell_decomposition_check.samples", size["cell_samples"])
    with tr.span("tri2d.make_topological"):
        k = lib.tri2d.make_topological(d, inp.swap)
    with tr.span("functional2d.support_box"):
        box = f2.support_box(k)

    useful = 0

    def field(x):
        nonlocal useful
        tr.count("functional2d.g_field.calls")
        tr.count("functional2d.g_field.point_triangles", len(x) * len(k.triangles))
        with tr.span("functional2d.g_field"):
            g = f2.g_field(k, x)
        useful += int(np.count_nonzero(g))
        return g

    with tr.span("integrate.mc_integrate"):
        mc = lib.integrate.mc_integrate(box, field, size["g_samples"], inp.seed + 1)
    tr.count("integrate.mc_integrate.samples", size["g_samples"])
    tr.count("integrate.mc_integrate.useful", useful)
    with tr.span("functional2d.vf_triangulation"):
        vfk = f2.vf_triangulation(k).total
    tr.count("functional2d.closed_form.triangles", len(k.triangles))
    return d, closed, est, k, box, mc, vfk, useful


def _expected_nonzero(points, triangles, signs, samples):
    """Samples, out of ``samples`` uniform in the documented support box,
    expected where the signed triangles' winding number is nonzero.

    The integrand there is the signed sum of the nearest squared distances
    of the covering triangles plus terms linear in x, so its |x|^2
    coefficient is the winding number and it vanishes only on a null set.
    Inside the convex hull of a Delaunay set the winding number is 1.
    """
    lo, hi = support_box(points, triangles)
    return samples * covered_area(points, triangles, signs) / float(np.prod(hi - lo))


def _mc_gate(name, est, closed, expected, z_limit):
    if est.std_error == 0:
        return [f"{name} MC has zero spread where {expected:.0f} nonzero samples are expected"]
    z = (est.value - closed) / est.std_error
    if abs(z) > z_limit:
        return [f"{name} MC off by {z:.2f} sigma (limit {z_limit:.2f})"]
    return []


def field_mc_check(lib, inp, out, refs, size):
    """Exact closed forms and support box, plus gates on both Monte Carlo
    estimates.

    An estimate is gated only when it is conclusive: the inputs alone, not
    the output under test, make its integrand nonzero on at least
    MC_MIN_USEFUL samples in expectation (``_expected_nonzero``).  The
    ``g_field`` estimate must also reach that many nonzero samples, less a
    Chernoff margin.  Inconclusive estimates are collected in
    ``refs["inconclusive"]`` and reported as the metric
    ``integrate.mc_integrate.inconclusive``: they measure how little of the
    library's support box the integrand fills.
    """
    d, closed, est, k, box, mc, vfk, useful = out
    # Three MC checks per item share one family-wise bound.
    tests = 3 * size["sets"]
    z_limit = mc_z_limit(tests, MC_FAMILY_ALPHA)
    inconclusive = refs.setdefault("inconclusive", set())
    pts, img = inp.points, inp.points[list(inp.swap)]
    errs = _delaunay_errors(pts, d, refs, ("dt", inp.index))
    tris = sorted(refs[("dt", inp.index)])
    e = _exact(refs, ("exact", inp.index), pts).totals(d.triangles)
    errs += _closed_form_errors(refs, "cell check closed form", closed, e["vf"], e["vf_abs"])
    expected = _cached(
        refs, ("cell_nonzero", inp.index), lambda: _expected_nonzero(pts, tris, [1] * len(tris), size["cell_samples"])
    )
    if expected >= MC_MIN_USEFUL:
        errs += _mc_gate("cell decomposition", est, closed, expected, z_limit)
    else:
        inconclusive.add(("cell", inp.index))
    if not any(s < 0 for s in k.signs):
        errs.append("topological image has no fold-over")
    ref_lo, ref_hi = support_box(img, tris)
    if np.abs(np.r_[box.lo, box.hi] - np.r_[ref_lo, ref_hi]).max() > BOX_RTOL * (ref_hi - ref_lo).max():
        errs.append(f"support_box {box} differs from the box padded by the largest circumdiameter")
    ek = _exact(refs, ("exact_k", inp.index), img).totals(k.triangles)
    errs += _closed_form_errors(refs, "topological vf", vfk, ek["vf"], ek["vf_abs"])
    signs = _orientations(img, tris) * _orientations(pts, tris)
    expected = _cached(refs, ("g_nonzero", inp.index), lambda: _expected_nonzero(img, tris, signs, size["g_samples"]))
    if expected >= MC_MIN_USEFUL:
        floor = count_floor(expected, MC_FAMILY_ALPHA / tests)
        if useful < floor:
            errs.append(f"g_field nonzero on {useful} samples, fewer than {floor:.0f} ({expected:.0f} expected)")
        errs += _mc_gate("g_field", mc, vfk, expected, z_limit)
    else:
        inconclusive.add(("g_field", inp.index))
    return errs


def field_mc_extra(lib, tr, seed, size):
    with tr.span("experiments.topological_counterexample"):
        return lib.experiments.topological_counterexample(samples=size["cx_samples"], seed=seed)


def field_mc_check_extra(lib, out, refs):
    errs = []
    if out.verdict != "pass":
        errs.append(f"topological counterexample verdict {out.verdict}")
    if not out.margin > 10.0:
        errs.append(f"topological counterexample margin {out.margin:.1f} sigma <= 10")
    if not out.values["pointwise_min_gap"] >= -1e-9:
        errs.append(f"pointwise_min_gap {out.values['pointwise_min_gap']!r} < -1e-9")
    pts = np.asarray(lib.experiments.FOLDED_POINTS, float)
    e = _cached(refs, "cx", lambda: ExactFunctionals(pts).totals(scipy_triangles(pts), oriented=False))
    return errs + _closed_form_errors(refs, "counterexample Delaunay vf", out.values["vf_delaunay"], e["vf"], e["vf_abs"])


# ---------------------------------------------------------------------------
# large_n: functional, JSON report, subdivision and render at CLI size
# ---------------------------------------------------------------------------


def large_n_generate(seed, size):
    items = []
    for i, (n, kind) in enumerate(size["sets"]):
        rng = _rng(seed, 3, i)
        if kind == "uniform":
            pts = rng.random((n, 2))
        else:
            # Anisotropic Gaussian, 20:1 axes, rotated: long thin triangles
            # and a different Lawson flip count than the uniform square.
            ang = rng.uniform(0.0, np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            pts = (rng.standard_normal((n, 2)) * [1.0, 0.05]) @ rot.T
        items.append(Item(i, pts))
    return items


def large_n_run(lib, tr, inp, size):
    f2 = lib.functional2d
    with tr.span("tri2d.delaunay"):
        d = lib.tri2d.delaunay(inp.points)
    tr.count("tri2d.delaunay.points", len(inp.points))
    with tr.span("functional2d.vf_triangulation"):
        vf = f2.vf_triangulation(d)
    with tr.span("functional2d.rajan_triangle"):
        per = tuple(
            (i, f2.rajan_triangle(lib.geom.Triangle2(*d.points[list(t)]))) for i, t in enumerate(d.triangles)
        )
        rajan = f2.FunctionalReport("rajan", float(sum(v for _, v in per)), per)
    with tr.span("functional2d.radius_functional"):
        rf2 = f2.radius_functional(d, 2.0)
    tr.count("functional2d.closed_form.triangles", 3 * len(d.triangles))
    with tr.span("functional2d.FunctionalReport.to_json"):
        text = vf.to_json()
    with tr.span("subdivision.vf_via_sd"):
        sd = lib.subdivision.vf_via_sd(d)
    tr.count("subdivision.vf_via_sd.cells", 6 * len(d.triangles))
    with tr.span("render.svg_gamma_image"):
        svg = lib.render.svg_gamma_image(d)
    return d, vf, rajan, rf2, text, sd, svg


_POLYGON = re.compile(r"<polygon ")


def large_n_check(lib, inp, out, refs, size):
    d, vf, rajan, rf2, text, sd, svg = out
    errs = _delaunay_errors(inp.points, d, refs, ("dt", inp.index))
    e = _exact(refs, ("exact", inp.index), inp.points).totals(d.triangles)
    for name, got, exact, scale in (
        ("vf", vf.total, e["vf"], e["vf_abs"]),
        ("rajan", rajan.total, e["rajan"], e["rajan"]),
        ("rf2", rf2.total, e["rf2"], e["rf2"]),
    ):
        errs += _closed_form_errors(refs, name, got, exact, scale)
    report = json.loads(text)
    if report["total"] != vf.total or len(report["per_simplex"]) != len(d.triangles):
        errs.append("JSON report does not round-trip the VF report")
    rel = abs(sd - e["vf"]) / abs(e["vf"])
    refs.setdefault("vf_via_sd.rel_err", []).append(rel)
    if rel > VF_VIA_SD_RTOL:
        errs.append(f"vf_via_sd relative error {rel:.2e} > {VF_VIA_SD_RTOL:g}")
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        errs.append("SVG document is not closed")
    if len(_POLYGON.findall(svg)) != 6 * len(d.triangles):
        errs.append(f"SVG has {len(_POLYGON.findall(svg))} cells, expected {6 * len(d.triangles)}")
    return errs


# ---------------------------------------------------------------------------
# Predicate probe (traced runs): every triangle and interior-edge quad
# ---------------------------------------------------------------------------


def probe(lib, tr, d):
    """orient2 on every triangle (must be +1) and in_circle on every
    interior-edge quad (must be <= 0: a second Delaunay check)."""
    geom = lib.geom
    pts = d.points
    quads = []
    for (u, v), ts in d.edge_map().items():
        if len(ts) == 2:
            far = next(x for x in d.triangles[ts[1]] if x not in (u, v))
            quads.append((d.triangles[ts[0]], far))
    errs = []
    with tr.span("geom.orient2"):
        bad = sum(geom.orient2(pts[i], pts[j], pts[k]) != 1 for i, j, k in d.triangles)
    tr.count("geom.orient2.calls", len(d.triangles))
    if bad:
        errs.append(f"{bad} Delaunay triangles not counterclockwise")
    # Triangles are counterclockwise, so in_circle > 0 means the far corner
    # of the quad lies inside the circumcircle.
    with tr.span("geom.in_circle"):
        bad = sum(geom.in_circle(geom.Triangle2(*pts[list(t)]), pts[far]) > 0 for t, far in quads)
    tr.count("geom.in_circle.calls", len(quads))
    if bad:
        errs.append(f"{bad} interior edges fail the in-circle test")
    return errs


@dataclass(frozen=True)
class Workload:
    generate: object
    run: object
    check: object
    extra: object = None
    check_extra: object = None


WORKLOADS = {
    "enum_scan": Workload(enum_scan_generate, enum_scan_run, enum_scan_check),
    "field_mc": Workload(field_mc_generate, field_mc_run, field_mc_check, field_mc_extra, field_mc_check_extra),
    "large_n": Workload(large_n_generate, large_n_run, large_n_check),
}
