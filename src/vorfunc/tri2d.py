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
step on it.  Delaunay construction is one lexicographic sweep: each new point
finds the hull edges it sees by walking the hull from the point added before
it, and its fan is legalized with that flip as it is added; triangles come in
a canonical order (ccw, smallest label first, sorted).  flip() and the
depth-first enumeration of the flip graph use the same map and flip.
validate() reads it too: the triples must form an oriented disk, and a
geometric triangulation's unmatched directed edges must be the ccw hull cycle.
Exact degeneracies are rejected (NotGeneralPosition), never perturbed: the
predicates are exact.

Enumeration decides each move before doing its work.  Every triangle gets a
bit the first time a move meets it, and a triangulation's key is the OR of
its triangles' bits, so a move's key is its parent's with four bits
toggled.  One pass over each popped map gives each interior edge once, with
its quad, as for flip(); each quad's convexity is decided once, by flip()'s
test, and only moves to unseen keys copy the map and flip it.  An
enumeration's triangulations share their points, sign tuple, triangle tuples
and one table of their distinct ordered triples, one list column per functional.
"""

from __future__ import annotations

import json
from itertools import islice

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

    ``rows`` numbers each (a, b, c) triple in order of first appearance;
    ``columns[key]``, one functional's list of row values, is left for
    functional2d to fill on first use.
    """

    def __init__(self):
        self.rows = {}
        self.columns = {}


class Triangulation2:
    """Indexed simplicial complex over labeled planar points with per-triangle signs.

    ``points`` is a read-only copy of the input, checked by geom's one point
    check; the triangulations of one enumeration share their root's.  A
    label outside range(n) raises ValueError naming its triangle, and a
    topological triangulation's triples must be consistently oriented."""

    # The shared _TriangleTable of an enumerated triangulation; None otherwise.
    _table = None

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
    def _enumerated(cls, points, triangles, signs, table):
        """A geometric triangulation sharing ``points``, ``signs`` and ``table``.

        ``triangles`` are ccw triples of Python ints; nothing is converted.
        """
        t = cls.__new__(cls)
        t.points, t.triangles, t.kind, t.signs, t._table = points, triangles, GEOMETRIC, signs, table
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

    def __eq__(self, other):
        return (
            isinstance(other, Triangulation2)
            and self.canonical() == other.canonical()
            and self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
        )

    def __hash__(self):
        return hash(self.canonical())

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


def _sees(xy, a, b, p) -> bool:
    """Whether p lies strictly right of hull edge (a, b), so the edge is visible from p."""
    s = orient2_xy(*xy[a], *xy[b], *xy[p])
    if s == 0:
        raise NotGeneralPosition(f"point {p} collinear with hull edge ({a}, {b})", (a, b, p))
    return s < 0


def _sweep_delaunay(pts):
    """Delaunay triangles of ``pts`` in canonical order, by the one sweep of ``delaunay``."""
    order = [int(i) for i in np.lexsort((pts[:, 1], pts[:, 0]))]
    xy = pts.tolist()
    for a, b in zip(order, order[1:]):
        if xy[a] == xy[b]:
            raise NotGeneralPosition(f"duplicate points {a}, {b}", (a, b))
    i0, i1, i2 = order[0], order[1], order[2]
    s = orient2_xy(*xy[i0], *xy[i1], *xy[i2])
    if s == 0:
        raise NotGeneralPosition(f"collinear points {i0}, {i1}, {i2}", (i0, i1, i2))
    # The ccw hull always ends with the last point added, the rightmost so far.
    hull = [i0, i1, i2] if s > 0 else [i1, i0, i2]
    opp = _directed_edges([hull])
    for p in order[3:]:
        # Hull edge j is (hull[j - 1], hull[j]); edges 0 and m - 1 meet at the
        # last point, which p always sees.  Walk forward over the visible edges
        # j < f, then back over j >= b, testing each run's first hidden edge.
        m = len(hull)
        f = 0
        while f < m and _sees(xy, hull[f - 1], hull[f], p):
            f += 1
        b = m
        while b - 1 > f and _sees(xy, hull[b - 2], hull[b - 1], p):
            b -= 1
        if f == m or (f == 0 and b == m):
            raise NotGeneralPosition(f"point {p} has no consistent hull view", (p,))
        chain = hull[b - 1 :] + hull[:f]
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
        # Keep the hidden arc, from the chain's end round to its start, then p.
        hull = (hull[f - 1 : b] if f else hull[-1:] + hull[:b]) + [p]
    # Each triangle once, from its smallest corner: ccw, smallest label first.
    return sorted((a, b, c) for (a, b), c in opp.items() if a < b and a < c)


def delaunay(points) -> Triangulation2:
    """Delaunay triangulation of a general-position point set, in one sweep.

    Points are added in lexicographic order; each new point's fan over the
    hull edges it sees is legalized at once, by flipping the edges opposite
    the point until each passes the in-circle test.  A flip replaces an edge
    opposite the point with one at it, and no flip removes an edge at the
    point, so a point makes at most n - 1 flips.  Triangles come in a canonical order: each ccw,
    smallest label first, the list sorted.

    Every orientation and in-circle sign is exact.  Raises
    NotGeneralPosition (with the offending labels) for duplicates, a
    collinear first triple, a new point exactly on the line of a hull edge
    the walk tests (those it sees and the two next to them), or an exactly
    cocircular quadruple among the quads the sweep tests: each edge opposite
    a new point against the triangle across it.
    """
    pts = _as_points(points, 2)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    return Triangulation2(pts, _sweep_delaunay(pts), kind=GEOMETRIC, _normalize=False)


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
    more than ``cap`` triangulations are found.

    Each state is a directed-edge map; its moves are its interior edges in
    edge_map order.  A triangle's bit is assigned the first time a move
    meets it, under each of its three rotations, and a state's key is the
    OR of its triangles' bits.  A move toggles four bits, the two triangles
    it removes and the two it adds.  That mask is worked out once per quad
    (u, v, k, l), 0 when _strictly_convex rejects the quad, so every
    convexity decision is that test's own, with its exact signs.  Only a
    move to an unseen key copies the map, flips it and reads its triangles
    back.
    """
    root = delaunay(points)
    xy = root.points.tolist()
    bits = {}

    def bit(t):
        if t not in bits:
            a, b, c = t
            bits[a, b, c] = bits[b, c, a] = bits[c, a, b] = 1 << (len(bits) // 3)
        return bits[t]

    masks = {}
    # Triangles are stored once: each state's list holds the shared tuples.
    shared = {t: t for t in root.triangles}
    table = _TriangleTable()
    # Distinct triangles hold distinct bits, so their sum is their OR.
    key = sum(bit(t) for t in root.triangles)
    seen = {key: Triangulation2._enumerated(root.points, root.triangles, root.signs, table)}
    stack = [(_directed_edges(root.triangles), key)]
    while stack:
        cur, key = stack.pop()
        for quad in _interior_edges(cur):
            mask = masks.get(quad)
            if mask is None:
                u, v, k, l = quad
                convex = _strictly_convex(xy, u, v, k, l)
                mask = masks[quad] = bit((u, v, k)) ^ bit((v, u, l)) ^ bit((u, l, k)) ^ bit((v, k, l)) if convex else 0
            # A rejected quad's mask is 0: its key is the current one, seen.
            nkey = key ^ mask
            if nkey in seen:
                continue
            if len(seen) >= cap:
                raise CapExceeded(f"more than {cap} triangulations")
            nxt = dict(cur)
            _flip(nxt, *quad)
            tris = tuple([shared.setdefault(t, t) for t in _triangles(nxt)])
            seen[nkey] = Triangulation2._enumerated(root.points, tris, root.signs, table)
            stack.append((nxt, nkey))
    table.rows = {t: i for i, t in enumerate(shared)}
    return list(seen.values())


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
