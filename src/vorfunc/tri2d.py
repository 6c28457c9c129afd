"""Planar triangulations: data model, Delaunay construction, flips, enumeration.

Points are plain (n, 2) arrays: label i is row i.  A Triangulation2 keeps a
read-only copy, made by geom's one point check (shape and finiteness), and
stores triangles as label triples over it, checked by geom's one label
check.  One ``orient2_rows`` pass normalizes geometric triangulations to
counterclockwise triples with all orientation signs +1; topological
triangulations (label complexes mapped through permuted positions) keep
their combinatorics and carry the sign of each mapped triangle, read against
the one orientation of their triples, which must be consistent.

One adjacency serves every algorithm here: a directed-edge map from edge
(u, v) of a consistently oriented triangle to its third corner, with one flip
step on it.  Delaunay construction is one radial sweep (Sinclair's S-hull):
points are added by squared distance from the midpoint of their bounding
box, compared exactly (a float comparison beyond its error bound, else
``Fraction`` over the run of neighbours it cannot separate), so each new
point lies strictly outside the hull so far.  The sweep is seeded by the two
nearest points and the first later point off their line, fanned to the
collinear points between.  Each new point finds the hull edges it sees from
a pseudo-angle bucket table over a linked hull cycle, and its fan is
legalized with that flip as it is added; triangles come in a canonical order
(ccw, smallest label first, sorted).  flip() uses the same map and flip, and
the enumeration of the flip graph starts from the map.  validate() reads it
too: the triples must form an oriented disk, and a geometric triangulation's
unmatched directed edges must be the ccw hull cycle.  Exact degeneracies are
rejected (NotGeneralPosition), never perturbed: the predicates are exact;
a hull vertex between collinear edges is rejected only if no point covers it.

Enumeration decides each move before doing its work.  Every triangle gets a
bit the first time a move meets it, and a triangulation's key is the OR of
its triangles' bits, so a move's key is its parent's with four bits
toggled.  Only the root is read from a map.  A state carries its triangle
tuple and one record per interior edge: its quad as flip() reads it, and its
places in the map's order (three per triangle, new triangles last).  A
move updates at most five records, and a popped state sorts only its records
to unseen keys; each quad's convexity is decided once, by flip()'s test.  An enumeration's
triangulations share their points, sign tuple, triangle tuples and one table:
their distinct ordered triples and a (T, N) matrix of the triples' row ids,
one column per triangulation, from which functional2d sums every
triangulation's functional at once.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice

import numpy as np

from .errors import (
    CapExceeded,
    CollinearImage,
    NonConvexQuad,
    NotGeneralPosition,
    NotInteriorEdge,
)
from .geom import _as_labels, _as_points, in_circle_ccw_xy, in_circle_xy, orient2_rows, orient2_xy

GEOMETRIC = "geometric"
TOPOLOGICAL = "topological"


def _is_label(v, n) -> bool:
    """Whether v is an integral number (not a bool) in range(n)."""
    return isinstance(v, (int, float, np.integer)) and not isinstance(v, bool) and 0 <= v < n and v == int(v)


def convex_hull(points: np.ndarray) -> list:
    """Counterclockwise hull labels by monotone chain; strictly convex corners only."""
    pts = _as_points(points, 2)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    xy = pts.tolist()

    def build(idx_iter):
        chain = []
        for i in idx_iter:
            while len(chain) >= 2 and orient2_xy(*xy[chain[-2]], *xy[chain[-1]], *xy[i]) <= 0:
                chain.pop()
            chain.append(int(i))
        return chain

    lower = build(order)
    upper = build(order[::-1])
    return lower[:-1] + upper[:-1]


class _TriangleTable:
    """The distinct ordered triangles of one enumeration's triangulations.

    ``triangles`` lists each (a, b, c) triple once, in order of first
    appearance: its place is its row id.  ``ids`` is a C-contiguous (T, N)
    int array of row ids, column i the triangles of the i-th triangulation in
    discovery order, in its triangle order.  ``terms`` and ``columns[key]``,
    one functional's row values and totals, are left for functional2d to
    fill on first use.
    """

    def __init__(self, triangles, ids):
        self.triangles, self.ids = triangles, ids
        self.terms = None
        self.columns = {}


class Triangulation2:
    """Indexed simplicial complex over labeled planar points with per-triangle signs.

    ``points`` is a read-only copy of the input, checked by geom's one point
    check; the triangulations of one enumeration share their root's.  A
    label outside range(n) raises ValueError naming its triangle, and a
    topological triangulation's triples must be consistently oriented."""

    # The shared _TriangleTable of an enumerated triangulation and its column
    # there (its discovery index); None otherwise.
    _table = _index = None

    def __init__(self, points, triangles, kind=GEOMETRIC, _normalize=True):
        if kind not in (GEOMETRIC, TOPOLOGICAL):
            raise ValueError(f"unknown triangulation kind {kind!r}")
        self.points = _as_points(points, 2)
        tris = _as_labels(triangles, len(self.points), 3, "triangle")
        sign = orient2_rows(self.points[tris]) if kind == TOPOLOGICAL or _normalize else np.ones(len(tris), int)
        if not sign.all():
            t = tuple(tris[np.argmin(sign != 0)].tolist())
            if kind == GEOMETRIC:
                raise NotGeneralPosition(f"degenerate triangle {t}", t)
            raise CollinearImage(f"triangle {t} maps to a degenerate triangle")
        if kind == GEOMETRIC:
            # Normalized to ccw: a clockwise triple swaps its last two labels.
            tris[sign < 0] = tris[sign < 0][:, [0, 2, 1]]
        self.triangles = tuple(map(tuple, tris.tolist()))
        self.kind, self.signs = kind, tuple(sign.tolist()) if kind == TOPOLOGICAL else (1,) * len(tris)
        if kind == TOPOLOGICAL:
            # Each sign is read against its triple's order, so the orders must agree.
            _directed_edges(self.triangles)

    @classmethod
    def _checked(cls, points, triangles, signs, table=None, index=None):
        """A geometric triangulation of checked parts: read-only ``points``, a
        tuple of ccw int ``triangles``, ``signs``, and a _TriangleTable with the
        triangulation's column in it, or None.  Nothing is converted or checked
        again."""
        t = cls.__new__(cls)
        t.points, t.triangles, t.kind, t.signs = points, triangles, GEOMETRIC, signs
        t._table, t._index = table, index
        return t

    # -- combinatorics ------------------------------------------------------

    def edge_map(self) -> dict:
        """Undirected edge -> list of triangle indices."""
        edges = {}
        for idx, (i, j, k) in enumerate(self.triangles):
            for e in ((i, j), (j, k), (k, i)):
                edges.setdefault(tuple(sorted(e)), []).append(idx)
        return edges

    def boundary_vertices(self) -> set:
        """Labels on an unmatched directed edge; ValueError unless consistently oriented."""
        opp = _directed_edges(self.triangles)
        return {u for u, v in opp if (v, u) not in opp}

    def canonical(self) -> tuple:
        """Order-free key: sorted tuple of sorted label triples."""
        return tuple(sorted(tuple(sorted(t)) for t in self.triangles))

    def __repr__(self):
        return f"Triangulation2({len(self.points)} points, {len(self.triangles)} triangles, {self.kind})"

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Check that the triangles form an oriented disk; a geometric one must tile its hull.

        Every label is used; no directed edge repeats, so the triples are
        consistently oriented and no edge has three triangles; at each vertex
        x the successor map a -> b, one entry per triangle (x, a, b), is one
        path or cycle; the vertices are connected; and V - E + F = 1, with
        E = (3F + B) / 2 for B unmatched directed edges.  A connected
        orientable surface of Euler characteristic 1 is a disk: a closed one
        has even characteristic.  A geometric triangulation's unmatched
        directed edges must be the ccw hull cycle.  Its triangles are ccw, so
        the winding number of that cycle, 1 inside the hull, counts the
        triangles over each point: they tile the hull exactly.
        """
        n, f = len(self.points), len(self.triangles)
        if not f:
            raise ValueError("empty triangulation")
        if {v for t in self.triangles for v in t} != set(range(n)):
            raise ValueError("triangulation must use every point label exactly")
        opp = _directed_edges(self.triangles)
        links = {}
        for (x, a), b in opp.items():
            links.setdefault(x, {})[a] = b
        for x, link in links.items():
            # (x, a) and (b, x) each occur once, so a -> b is one-to-one: walk
            # from a path's start, or round a cycle.
            start = next(iter(link.keys() - link.values()), next(iter(link)))
            a, walked = link[start], 1
            while a != start and a in link:
                a, walked = link[a], walked + 1
            if walked != len(link):
                raise ValueError(f"link of vertex {x} is pinched")
        seen, stack = {0}, [0]
        while stack:
            new = links[stack.pop()].keys() - seen
            seen |= new
            stack += new
        if len(seen) != n:
            raise ValueError("triangulation is not connected")
        boundary = {(u, v) for u, v in opp if (v, u) not in opp}
        chi = n - (3 * f + len(boundary)) // 2 + f
        if chi != 1:
            raise ValueError(f"Euler characteristic {chi} != 1")
        if self.kind == GEOMETRIC:
            # Exact winding numbers make an area sum, and any tolerance on it, redundant.
            hull = convex_hull(self.points)
            if boundary != set(zip(hull, hull[1:] + hull[:1])):
                raise ValueError("boundary edges are not the hull edges")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"triangles": [list(t) for t in self.triangles], "kind": self.kind})

    @classmethod
    def from_json(cls, text: str, points) -> "Triangulation2":
        obj = json.loads(text)
        for tri in obj["triangles"]:
            if not (isinstance(tri, list) and len(tri) == 3 and all(_is_label(v, len(points)) for v in tri)):
                raise ValueError(f"triangle {tri!r} is not three labels in range({len(points)})")
        t = cls(points, obj["triangles"], kind=obj.get("kind", GEOMETRIC))
        t.validate()
        return t


# ---------------------------------------------------------------------------
# Delaunay construction
# ---------------------------------------------------------------------------


def _directed_edges(triangles) -> dict:
    """Directed-edge map of ``triangles``: edge (u, v) of each triple (u, v, w) -> w.

    Keys come three per triangle, in list order, so _triangles reads the list
    back.  ValueError when a directed edge repeats: the triangles are not
    consistently oriented.
    """
    opp = {}
    for a, b, c in triangles:
        opp[a, b], opp[b, c], opp[c, a] = c, a, b
    if len(opp) != 3 * len(triangles):
        raise ValueError("triangles are not consistently oriented: a directed edge repeats")
    return opp


def _triangles(opp) -> list:
    """The triangles of a directed-edge map, in the order they were added."""
    return [(a, b, c) for (a, b), c in islice(opp.items(), 0, None, 3)]


def _interior_edges(opp) -> list:
    """Each interior edge (u, v) of a directed-edge map once, in one pass, as the
    quad (u, v, k, l) of its triangles (u, v, k), (v, u, l), directed as in the
    earlier one.  The order is that of Triangulation2.edge_map over the
    map's triangle list."""
    done, quads = set(), []
    for e, k in opp.items():
        u, v = e
        if (v, u) not in done:
            l = opp.get((v, u))
            if l is not None:
                done.add(e)
                quads.append((u, v, k, l))
    return quads


def _strictly_convex(xy, u, v, k, l) -> bool:
    """Whether quad (u, l, v, k) of triangles (u, v, k), (v, u, l) is strictly convex.

    Only then can diagonal (k, l) replace (u, v).  ``xy`` holds the
    coordinates as a list of [x, y] float pairs.
    """
    return orient2_xy(*xy[l], *xy[v], *xy[k]) > 0 and orient2_xy(*xy[k], *xy[u], *xy[l]) > 0


def _flip(opp, u, v, k, l):
    """Flip diagonal (u, v) of triangles (u, v, k), (v, u, l) to (k, l), in place.

    Both triangles leave the map; (u, l, k) and (v, k, l) are added after the
    rest, three keys each, so the map stays readable by _triangles.
    """
    for e in ((u, v), (v, k), (k, u), (v, u), (u, l), (l, v)):
        del opp[e]
    opp[u, l], opp[l, k], opp[k, u] = k, u, l
    opp[v, k], opp[k, l], opp[l, v] = l, v, k


# A float squared distance (x - cx)^2 + (y - cy)^2 is within 4 eps of the
# exact one (relative, eps = 2^-53), plus 2^-1073 where a square underflows.
# Two sorted keys further apart than _KEY_BOUND = 16 eps times their sum plus
# _KEY_TINY are in exact order, with room for the rounding of that test, and
# so is every key up to the first against every key from the second on; an
# infinite key, or a sum that overflows, is never apart.
_KEY_BOUND = 2.0**-49
_KEY_TINY = 2.0**-1060


def _radial_order(xy, cx, cy) -> list:
    """Labels by exact squared distance from (cx, cy), ties by label.

    One float sort; each run of neighbours whose keys the bound cannot
    separate is sorted again by _exact_radial_sort.
    """
    n = len(xy)
    keys = [(x - cx) * (x - cx) + (y - cy) * (y - cy) for x, y in xy]
    order = sorted(range(n), key=keys.__getitem__)
    start = 0
    for i in range(1, n + 1):
        if i < n:
            a, b = keys[order[i - 1]], keys[order[i]]
            if not b - a > _KEY_BOUND * (a + b) + _KEY_TINY:
                continue
        if i - start > 1:
            order[start:i] = _exact_radial_sort(xy, cx, cy, order[start:i])
        start = i
    return order


def _exact_radial_sort(xy, cx, cy, labels) -> list:
    """``labels`` by squared distance from (cx, cy) in ``Fraction`` on the
    original coordinates, which floats represent exactly; ties by label."""
    from fractions import Fraction

    fx, fy = Fraction(cx), Fraction(cy)
    key = {p: (Fraction(xy[p][0]) - fx) ** 2 + (Fraction(xy[p][1]) - fy) ** 2 for p in labels}
    return sorted(labels, key=lambda p: (key[p], p))


def _sweep_delaunay(pts):
    """Delaunay triangles of ``pts`` in canonical order, by the one sweep of ``delaunay``."""
    n = len(pts)
    xy = pts.tolist()
    lex = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    for a, b in zip(lex, lex[1:]):
        if xy[a] == xy[b]:
            raise NotGeneralPosition(f"duplicate points {a}, {b}", (a, b))
    # The bounding box's midpoint; lex's ends hold the smallest and largest x.
    ys = [y for _, y in xy]
    cx, cy = xy[lex[0]][0] / 2 + xy[lex[-1]][0] / 2, min(ys) / 2 + max(ys) / 2
    order = _radial_order(xy, cx, cy)
    # Seed: the two nearest points and the first later point off their line;
    # the points between lie on that line, are sorted along it and fanned.
    i0, i1 = order[0], order[1]
    k = 2
    while k < n and orient2_xy(*xy[i0], *xy[i1], *xy[order[k]]) == 0:
        k += 1
    if k == n:
        raise NotGeneralPosition(f"collinear points {i0}, {i1}, {order[2]}", (i0, i1, order[2]))
    p = order[k]
    line = sorted(order[:k], key=xy.__getitem__)
    if orient2_xy(*xy[line[0]], *xy[line[-1]], *xy[p]) < 0:
        line.reverse()
    opp = _directed_edges([(u, v, p) for u, v in zip(line, line[1:])])
    # Hull vertices left between two collinear hull edges, each with its
    # error: the first still on the hull after the last point is raised.
    flat = [(line[1], f"collinear hull points {line[0]}, {line[1]}, {line[2]}", tuple(line[:3]))] if k > 2 else []
    # The ccw hull as a linked cycle; a point off the hull is its own nxt.
    nxt, prv = list(range(n)), list(range(n))
    cycle = line + [p]
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        nxt[u], prv[v] = v, u
    # Hull vertices by the bucket of their pseudo-angle about the centre.
    # Every bucket starts with a hull vertex, and each insertion leaves p and
    # e in theirs, so some bucket always holds a live one.
    size = math.isqrt(n) + 1

    def bucket(x, y):
        dx, dy = x - cx, y - cy
        s = abs(dx) + abs(dy)
        a = dx / s if s else 0.0
        return int((3.0 - a if dy > 0.0 else 1.0 + a) * 0.25 * size) % size

    home = [bucket(x, y) for x, y in xy]
    buckets = [p] * size
    for v in cycle:
        buckets[home[v]] = v
    for p in order[k + 1 :]:
        x, y = xy[p]
        # p is at least as far from the centre as every point before it, so
        # it lies strictly outside their hull and sees one run of its edges.
        # From the first live bucket at or after p's, walk forward to an
        # edge (e, nxt[e]) it sees, then extend the run both ways.
        h = home[p]
        while nxt[buckets[h]] == buckets[h]:
            h = (h + 1) % size
        e = prv[buckets[h]]
        while orient2_xy(*xy[e], *xy[nxt[e]], x, y) >= 0:
            e = nxt[e]
        f = nxt[e]
        while (s := orient2_xy(*xy[f], *xy[nxt[f]], x, y)) < 0:
            f = nxt[f]
        if s == 0:
            flat.append((f, f"point {p} collinear with hull edge ({f}, {nxt[f]})", (f, nxt[f], p)))
        while (s := orient2_xy(*xy[prv[e]], *xy[e], x, y)) < 0:
            e = prv[e]
        if s == 0:
            flat.append((e, f"point {p} collinear with hull edge ({prv[e]}, {e})", (prv[e], e, p)))
        chain = [e]
        while chain[-1] != f:
            chain.append(nxt[chain[-1]])
        # Edge (u, v) of ccw triangle (u, v, p) is legal or is flipped to (p, q),
        # where (v, u, q) is the triangle across it.  Errors label the quad
        # (v, u, q, p): the triangle across the edge first, then the new point.
        work = []
        for u, v in zip(chain, chain[1:]):
            opp[u, p], opp[p, v], opp[v, u] = v, u, p
            work.append((v, u))
        while work:
            u, v = work.pop()
            q = opp.get((v, u))
            if q is None:
                continue
            # The signs are exact, so a q strictly inside the circumcircle of
            # (u, v, p) makes quad (u, q, v, p) strictly convex: the flip is valid.
            s = in_circle_ccw_xy(*xy[u], *xy[v], *xy[p], *xy[q])
            if s == 0:
                raise NotGeneralPosition(f"cocircular points {v}, {u}, {q}, {p}", (v, u, q, p))
            if s < 0:
                continue
            _flip(opp, u, v, p, q)
            work += [(u, q), (q, v)]
        for v in chain[1:-1]:
            nxt[v] = v
        nxt[e], prv[p], nxt[p], prv[f] = p, e, f, p
        buckets[home[p]], buckets[home[e]] = p, e
    # A point that sees one of two collinear hull edges sees both: a vertex
    # between them is covered, or stays on the hull to the end.
    for v, message, labels in flat:
        if nxt[v] != v:
            raise NotGeneralPosition(message, labels)
    # Each triangle once, from its smallest corner: ccw, smallest label first.
    return sorted((a, b, c) for (a, b), c in opp.items() if a < b and a < c)


def delaunay(points) -> Triangulation2:
    """Delaunay triangulation of a general-position point set, in one sweep.

    Points are added by exact squared distance from the midpoint of their
    bounding box (ties by label), so each lies strictly outside the hull of
    those before it (Sinclair's radial sweep-hull, 2016).  The sweep starts
    from the two nearest points and the first later point off their line,
    fanned to the collinear points between.  Each new point finds the hull
    edges it sees from a pseudo-angle bucket table over the hull cycle, and
    its fan over them is legalized at once, by flipping the edges opposite
    the point until each passes the in-circle test.  A flip replaces an edge
    opposite the point with one at it, and no flip removes an edge at the
    point, so a point makes at most n - 1 flips.  Triangles come in a
    canonical order: each ccw, smallest label first, the list sorted.

    Every orientation, in-circle and distance comparison is exact: a float
    comparison of squared distances decides only beyond its error bound,
    and the rest are made in rational arithmetic.  Raises
    NotGeneralPosition (with the offending labels) for duplicates, all
    points collinear, an exactly cocircular quadruple among the quads the
    sweep tests (each edge opposite a new point against the triangle across
    it), or a hull vertex between two collinear hull edges that no later
    point covers: a collinear seed point, or the end of the next hull edge
    past those a new point sees, when the point lies on that edge's line.
    """
    pts = _as_points(points, 2)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    tris = tuple(_sweep_delaunay(pts))
    return Triangulation2._checked(pts, tris, (1,) * len(tris))


def empty_circumcircle_violations(t: Triangulation2) -> list:
    """Brute-force Delaunay check: (triangle index, point label) pairs that violate it."""
    xy = t.points.tolist()
    bad = []
    for idx, (i, j, k) in enumerate(t.triangles):
        for p in range(len(xy)):
            if p not in (i, j, k) and in_circle_xy(*xy[i], *xy[j], *xy[k], *xy[p]) > 0:
                bad.append((idx, p))
    return bad


# ---------------------------------------------------------------------------
# Flips and flip-graph enumeration
# ---------------------------------------------------------------------------


def flip(t: Triangulation2, edge) -> Triangulation2:
    """Replace the diagonal of the convex quadrangle across ``edge``, an interior label pair.

    The two triangles leave the list and the two new ones are appended.
    ValueError for a label outside range(n) or inconsistently oriented triangles.
    """
    edge = tuple(sorted(_as_labels(edge, len(t.points), 2, "edge").reshape(2).tolist()))
    opp = _directed_edges(t.triangles)
    quad = next((q for q in _interior_edges(opp) if tuple(sorted(q[:2])) == edge), None)
    if quad is None:
        raise NotInteriorEdge(f"edge {edge} is not an interior edge")
    if not _strictly_convex(t.points.tolist(), *quad):
        raise NonConvexQuad(f"quad around edge {edge} is not strictly convex")
    _flip(opp, *quad)
    return Triangulation2(t.points, _triangles(opp), kind=t.kind, _normalize=False)


def enumerate_triangulations(points, cap: int = 100000) -> list:
    """All geometric triangulations of a planar point set, by flip-graph DFS.

    The flip graph of a planar point set is connected, so depth-first search
    from the Delaunay triangulation reaches every triangulation.  The result
    lists them in discovery order, Delaunay first.  Raises CapExceeded when
    more than ``cap`` triangulations are found; ValueError unless ``cap`` is
    an int >= 1.

    A triangle's bit is assigned the first time a move meets it, under each
    of its three rotations, and a state's key is the OR of its triangles'
    bits, so a move toggles four bits.  That mask is worked out once per quad,
    for both directions, 0 when _strictly_convex rejects the quad.

    A state is its triangle tuple and one record per interior edge,
    (pos, mask, u, v, k, l, pos_twin, t_uv, t_vu): the quad as
    _interior_edges gives it, the places of (u, v) and (v, u) in the state's
    edge_map order (3 x the triangle's age + its rotation index) and the two
    stored triangles.  A move's two new triangles take the next two ages, so
    they come last, as flip() leaves them.  The child drops the flipped edge's
    record, re-emits each interior edge of the quad's boundary from its older
    side, and adds the new diagonal.  A popped state's moves are its records
    to unseen keys, in place order; no two of them share a key.

    The triangulations share one _TriangleTable: their distinct ordered
    triples, and a (T, N) matrix of those triples' row ids, column i for the
    i-th triangulation, in its triangle order.
    """
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
        raise ValueError(f"cap must be an int >= 1, got {cap!r}")
    root = delaunay(points)
    xy = root.points.tolist()
    bits, masks = {}, {}

    def bit(t):
        if t not in bits:
            a, b, c = t
            bits[a, b, c] = bits[b, c, a] = bits[c, a, b] = 1 << (len(bits) // 3)
        return bits[t]

    def record(pos, u, v, k, l, pos_twin, t_uv, t_vu):
        mask = masks.get((u, v, k, l))
        if mask is None:
            convex = _strictly_convex(xy, u, v, k, l)
            mask = bit((u, v, k)) ^ bit((v, u, l)) ^ bit((u, l, k)) ^ bit((v, k, l)) if convex else 0
            masks[u, v, k, l] = masks[v, u, l, k] = mask
        return pos, mask, u, v, k, l, pos_twin, t_uv, t_vu

    # Triangles are stored once: each state's tuple holds the shared tuples.
    tris = root.triangles
    shared = {t: t for t in tris}
    opp = _directed_edges(tris)
    where = {e: i for i, e in enumerate(opp)}
    quads = {}
    for u, v, k, l in _interior_edges(opp):
        pos, pos_twin = where[u, v], where[v, u]
        quads[min(u, v), max(u, v)] = record(pos, u, v, k, l, pos_twin, tris[pos // 3], tris[pos_twin // 3])
    # Distinct triangles hold distinct bits, so their sum is their OR.
    key = sum(bit(t) for t in tris)
    seen = {key: tris}
    stack = [(tris, quads, len(tris), key)]
    while stack:
        tris, quads, age, key = stack.pop()
        # A rejected quad's mask is 0: its key is the current one, seen.
        moves = sorted([r for r in quads.values() if key ^ r[1] not in seen])
        for _, mask, u, v, k, l, _, t_uv, t_vu in moves:
            if len(seen) >= cap:
                raise CapExceeded(f"more than {cap} triangulations")
            t1, t2 = shared.setdefault((u, l, k), (u, l, k)), shared.setdefault((v, k, l), (v, k, l))
            new = tuple([t for t in tris if t is not t_uv and t is not t_vu] + [t1, t2])
            nq = dict(quads)
            del nq[(u, v) if u < v else (v, u)]
            a = 3 * age
            # Boundary edge (p, q) keeps its direction and is now at place s of
            # new triangle t, opposite c; its neighbour's side (q, p) comes first.
            for p, q, c, s, t in ((u, l, k, a, t1), (k, u, l, a + 2, t1), (v, k, l, a + 3, t2), (l, v, k, a + 5, t2)):
                e = (p, q) if p < q else (q, p)
                r = nq.get(e)
                if r is not None:
                    place, x, tn = (r[6], r[5], r[8]) if r[2] == p else (r[0], r[4], r[7])
                    nq[e] = record(place, q, p, x, c, s, tn, t)
            # Flipping the new diagonal back toggles the same four bits.
            nq[(k, l) if k < l else (l, k)] = (a + 1, mask, l, k, u, v, a + 4, t1, t2)
            nkey = key ^ mask
            seen[nkey] = new
            stack.append((new, nq, age + 2, nkey))
    # Row ids number the distinct triples in order of first appearance.
    rows = {t: i for i, t in enumerate(shared)}
    states = list(seen.values())
    ids = np.fromiter(map(rows.__getitem__, chain.from_iterable(states)), np.intp, len(states) * len(root.triangles))
    table = _TriangleTable(list(rows), np.ascontiguousarray(ids.reshape(len(states), -1).T))
    return [Triangulation2._checked(root.points, tris, root.signs, table, i) for i, tris in enumerate(states)]


def make_topological(t: Triangulation2, relabeling) -> Triangulation2:
    """Remap vertex positions through a permutation, keeping all incidences.

    Label i of the result sits at the position of label relabeling[i].  The
    result has kind "topological" with signs recomputed from the mapped
    triangles; CollinearImage is raised if any image triangle is degenerate.
    """
    perm = list(relabeling)
    bad = [v for v in perm if not _is_label(v, len(t.points))]
    if bad:
        raise ValueError(f"relabeling entry {bad[0]!r} is not a label in range({len(t.points)})")
    perm = [int(i) for i in perm]
    if sorted(perm) != list(range(len(t.points))):
        raise ValueError("relabeling must be a permutation of the vertex labels")
    return Triangulation2(t.points[perm], t.triangles, kind=TOPOLOGICAL)
