"""Correctness oracles that share no code with the library.

* ``ExactFunctionals``: VF, Rajan and squared-radius functionals in exact
  integer arithmetic.  Float coordinates are dyadic rationals, so scaling by a
  common power of two makes them integers; each triangle is then evaluated from
  its edge vectors u, v with 4 R^2 = |u|^2 |v|^2 |u - v|^2 / (u x v)^2, and the
  one division per triangle is carried to ``FIX_BITS`` binary places.
* ``count_triangulations``: the number of maximal sets of pairwise
  non-crossing segments (the triangulations of a point set in general
  position), by a decision tree over the segments.  It never flips an edge.
* ``scipy_triangles``: the Delaunay triangle set from Qhull.
* ``support_box``: the Monte Carlo box the library documents, recomputed.
* ``covered_area``: the area where a signed set of triangles has nonzero
  winding number, by a vertical-slab sweep.
* ``mc_z_limit`` and ``count_floor``: gates for a family of Monte Carlo
  checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import log, sqrt
from statistics import NormalDist

import numpy as np

FIX_BITS = 96


def _dyadic_ints(points: np.ndarray):
    """Integer coordinates and the power of two they were scaled by."""
    ratios = [float(x).as_integer_ratio() for x in np.asarray(points, float).ravel()]
    den = max(q for _, q in ratios)  # every q is a power of two
    vals = [p * (den // q) for p, q in ratios]
    return [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)], den


class ExactFunctionals:
    """Exact per-triangle functionals over one labeled point set.

    With ``oriented`` a triangle's VF is signed by the orientation of its
    label triple as given, which is how the library signs topological
    triangulations; otherwise every triangle counts as counterclockwise.
    Totals are returned as correctly rounded floats.
    """

    def __init__(self, points):
        self.xy, den = _dyadic_ints(points)
        self.scale = (24 << FIX_BITS) * den**4
        self._cache = {}

    def triangle(self, tri):
        """(signed vf, rajan, rf2, |vf|, orientation) in units of 1/self.scale."""
        r = tri.index(min(tri))
        key = tuple(tri[r:]) + tuple(tri[:r])
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        (ax, ay), (bx, by), (cx, cy) = (self.xy[i] for i in key)
        ux, uy, vx, vy = bx - ax, by - ay, cx - ax, cy - ay
        cross = ux * vy - uy * vx
        lu, lv, lw = ux * ux + uy * uy, vx * vx + vy * vy, (bx - cx) ** 2 + (by - cy) ** 2
        e2, prod = lu + lv + lw, lu * lv * lw
        # area/12 * (e2 - 4R^2) = cross*e2/24 - prod/(24*cross), signed by cross.
        vf = (cross * e2 << FIX_BITS) - (prod << FIX_BITS) // cross
        rajan = abs(cross) * e2 << FIX_BITS
        rf2 = 3 * (prod << FIX_BITS) // abs(cross)  # R^2 * area = prod / (8 |cross|)
        out = (vf, rajan, rf2, abs(vf), 1 if cross > 0 else -1)
        self._cache[key] = out
        return out

    def totals(self, triangles, oriented=True) -> dict:
        sums = [0, 0, 0, 0]
        for tri in triangles:
            vf, rajan, rf2, vf_abs, sign = self.triangle(tuple(int(x) for x in tri))
            sums[0] += vf if oriented else sign * vf
            sums[1] += rajan
            sums[2] += rf2
            sums[3] += vf_abs
        names = ("vf", "rajan", "rf2", "vf_abs")
        return {k: float(Fraction(s, self.scale)) for k, s in zip(names, sums)}


def _orient(p, q, r) -> int:
    d = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (d > 0) - (d < 0)


def count_triangulations(points) -> int:
    """Number of triangulations of a point set in general position.

    Decides segments in a fixed order.  A segment is either included, which
    rules out every segment crossing it, or excluded, which is only allowed
    while some undecided segment could still cross it: a maximal non-crossing
    set is exactly a set in which every excluded segment is crossed.
    """
    xy, _ = _dyadic_ints(points)
    segs = list(combinations(range(len(xy)), 2))
    cross = [0] * len(segs)
    for a, (i, j) in enumerate(segs):
        for b in range(a + 1, len(segs)):
            k, l = segs[b]
            if len({i, j, k, l}) < 4:
                continue
            if (
                _orient(xy[i], xy[j], xy[k]) * _orient(xy[i], xy[j], xy[l]) < 0
                and _orient(xy[k], xy[l], xy[i]) * _orient(xy[k], xy[l], xy[j]) < 0
            ):
                cross[a] |= 1 << b
                cross[b] |= 1 << a

    def walk(undecided, pending):
        # pending: excluded segments not yet crossed by an included one.
        if not undecided:
            return 0 if pending else 1
        low = undecided & -undecided
        e = low.bit_length() - 1
        rest = undecided ^ low
        total = 0
        inc_rest = rest & ~cross[e]
        inc_pending = pending & ~cross[e]
        if _all_crossable(inc_pending, inc_rest, cross):
            total += walk(inc_rest, inc_pending)
        if cross[e] & rest and _all_crossable(pending, rest, cross):
            total += walk(rest, pending | low)
        return total

    return walk((1 << len(segs)) - 1, 0)


def _all_crossable(pending, undecided, cross) -> bool:
    while pending:
        low = pending & -pending
        if not cross[low.bit_length() - 1] & undecided:
            return False
        pending ^= low
    return True


def scipy_triangles(points) -> frozenset:
    from scipy.spatial import Delaunay

    return frozenset(tuple(sorted(int(v) for v in s)) for s in Delaunay(points).simplices)


def mc_z_limit(tests: int, family_alpha: float) -> float:
    """Two-sided |z| limit keeping the chance of any false alarm among
    ``tests`` independent checks below ``family_alpha`` (Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - family_alpha / (2.0 * tests))


def support_box(points, triangles):
    """(lo, hi) of the bounding box inflated by the largest circumdiameter
    (plus 1e-9), from R = |u| |v| |u - v| / (2 |u x v|)."""
    pts = np.asarray(points, float)
    t = np.asarray(sorted(triangles))
    u, v = pts[t[:, 1]] - pts[t[:, 0]], pts[t[:, 2]] - pts[t[:, 0]]
    cross = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    lengths = np.hypot(*u.T) * np.hypot(*v.T) * np.hypot(*(u - v).T)
    pad = float((lengths / cross).max()) + 1e-9
    return pts.min(axis=0) - pad, pts.max(axis=0) + pad


def covered_area(points, triangles, signs) -> float:
    """Area of {x : sum of signs of the triangles containing x != 0}.

    Between consecutive x-coordinates of vertices and edge crossings no two
    edges cross, so each slab splits into trapezoids of constant winding
    number; a trapezoid's area is the slab width times its height mid-slab.
    """
    pts = np.asarray(points, float)
    edges = sorted({tuple(sorted((t[i], t[j]))) for t in triangles for i, j in ((0, 1), (1, 2), (0, 2))})
    xs = set(pts[:, 0].tolist())
    for (a, b), (c, d) in combinations(edges, 2):
        if len({a, b, c, d}) == 4:
            p, r, q, s = pts[a], pts[b] - pts[a], pts[c], pts[d] - pts[c]
            den = r[0] * s[1] - r[1] * s[0]
            if den != 0:
                t = ((q[0] - p[0]) * s[1] - (q[1] - p[1]) * s[0]) / den
                w = ((q[0] - p[0]) * r[1] - (q[1] - p[1]) * r[0]) / den
                if 0 < t < 1 and 0 < w < 1:
                    xs.add(float(p[0] + t * r[0]))
    xs = sorted(xs)
    tri = pts[np.asarray(triangles)]
    area = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        xm = 0.5 * (x0 + x1)
        ys = sorted(
            pts[a, 1] + (xm - pts[a, 0]) * (pts[b, 1] - pts[a, 1]) / (pts[b, 0] - pts[a, 0])
            for a, b in edges
            if min(pts[a, 0], pts[b, 0]) < xm < max(pts[a, 0], pts[b, 0])
        )
        for y0, y1 in zip(ys, ys[1:]):
            if _winding(tri, signs, (xm, 0.5 * (y0 + y1))) != 0:
                area += (x1 - x0) * (y1 - y0)
    return area


def _winding(tri, signs, p) -> int:
    """Sum of the signs of the triangles strictly containing p."""
    rel = tri - np.asarray(p)
    o = np.sign(rel[:, [0, 1, 2], 0] * rel[:, [1, 2, 0], 1] - rel[:, [0, 1, 2], 1] * rel[:, [1, 2, 0], 0])
    inside = (o == o[:, :1]).all(axis=1) & (o[:, 0] != 0)
    return int(np.asarray(signs)[inside].sum())


def count_floor(expected: float, alpha: float) -> float:
    """Fewest successes a binomial count with mean >= ``expected`` reaches
    with probability >= 1 - ``alpha`` (Chernoff: P(X <= mu - t) <=
    exp(-t^2 / (2 mu)))."""
    return expected - sqrt(2.0 * expected * log(1.0 / alpha))
