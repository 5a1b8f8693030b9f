"""Evidence for answers, built apart from the program.

* A one-face embedding built by Xuong's pair insertion from a spanning
  tree whose co-tree components are all even; its boundary walk is an
  antiparallel strong trace, so it confirms a positive antiparallel verdict.
* Brute-force symmetry of traces: rotation, reversal and every vertex
  relabeling that preserves adjacency (and the restricted edge set).
"""

from __future__ import annotations

import itertools
from typing import Optional

from hosts import DisjointSets, Host


# ---------------------------------------------------------------------------
# One-face embeddings (Xuong 1979)
# ---------------------------------------------------------------------------


def _adjacent_pairs(host: Host, edge_ids: list[int]) -> list[tuple[int, int, int]]:
    """Split a connected even-sized edge set into paths of length two
    (Kotzig), as (first edge, second edge, shared vertex).

    Vertices are handled deepest first in a search tree of the set; each
    pairs off its unpaired non-parent edges, borrowing the parent edge when
    their number is odd.
    """
    adj: dict[int, list[int]] = {}
    for e in edge_ids:
        for v in host.edges[e]:
            adj.setdefault(v, []).append(e)
    root = host.edges[edge_ids[0]][0]
    parent_edge = {root: -1}
    order = [root]
    for v in order:
        for e in adj[v]:
            a, b = host.edges[e]
            w = b if a == v else a
            if w not in parent_edge:
                parent_edge[w] = e
                order.append(w)
    paired: set[int] = set()
    pairs = []
    for v in reversed(order):
        free = [e for e in adj[v] if e not in paired and e != parent_edge[v]]
        if len(free) % 2:
            free.append(parent_edge[v])
        for k in range(0, len(free), 2):
            pairs.append((free[k], free[k + 1], v))
            paired.update(free[k : k + 2])
    return pairs


def one_face_trace(host: Host, tree: set[int]) -> list[dict]:
    """Boundary walk of a one-face embedding, as CLI-style steps.

    Dart ``2e`` leaves the first endpoint of edge ``e``, ``2e + 1`` the
    second; ``rot[d]`` is the next dart around the tail of ``d``, and the
    face walk goes from ``d`` to ``rot[d ^ 1]``.  Any rotation of the tree
    has one face.  Each co-tree pair (e1, e2) at v is then inserted: e1 in
    the single face splits it in two, and e2 joins a corner of v in one
    face to a corner of its far end in the other, merging them again.
    """

    def tail(d: int) -> int:
        return host.edges[d >> 1][d & 1]

    rot: dict[int, int] = {}
    some_dart: dict[int, int] = {}

    def insert(d: int, after: Optional[int] = None) -> None:
        v = tail(d)
        if v not in some_dart:
            rot[d] = d
            some_dart[v] = d
            return
        x = some_dart[v] if after is None else after
        rot[d], rot[x] = rot[x], d

    def face_of() -> dict[int, int]:
        face: dict[int, int] = {}
        for start in rot:
            d = start
            while d not in face:
                face[d] = start
                d = rot[d ^ 1]
        return face

    for e in sorted(tree):
        insert(2 * e)
        insert(2 * e + 1)
    ds = DisjointSets(host.n)
    co_tree = [e for e in range(len(host.edges)) if e not in tree]
    for e in co_tree:
        ds.union(*host.edges[e])
    parts: dict[int, list[int]] = {}
    for e in co_tree:
        parts.setdefault(ds.find(host.edges[e][0]), []).append(e)
    for part in parts.values():
        for e1, e2, v in _adjacent_pairs(host, part):
            d1 = 2 * e1 + (host.edges[e1][0] != v)
            insert(d1)
            insert(d1 ^ 1)
            face = face_of()
            d2 = 2 * e2 + (host.edges[e2][0] != v)
            far = some_dart[tail(d2 ^ 1)]
            far_face = face[far ^ 1]
            x = d1
            while face[x ^ 1] == far_face:
                x = rot[x]
            insert(d2, x)
            insert(d2 ^ 1, far)
    steps = []
    d = 0
    for _ in range(2 * len(host.edges)):
        e, flag = d >> 1, d & 1
        steps.append({"edge": e, "flag": flag, "from": tail(d), "to": tail(d ^ 1)})
        d = rot[d ^ 1]
    return steps


# ---------------------------------------------------------------------------
# Symmetry of traces
# ---------------------------------------------------------------------------


def automorphisms(host: Host) -> list[tuple[int, ...]]:
    """Every adjacency-preserving vertex permutation, by brute force."""
    pairs = {frozenset(e) for e in host.edges}
    return [
        perm
        for perm in itertools.permutations(range(host.n))
        if all(frozenset((perm[a], perm[b])) in pairs for a, b in host.edges)
    ]


def preserving(host: Host, perms, edge_set: frozenset[int]) -> list[tuple[int, ...]]:
    """The permutations that map the given edge set onto itself."""
    chosen = {frozenset(host.edges[e]) for e in edge_set}
    return [
        p for p in perms
        if {frozenset((p[a], p[b])) for a, b in map(host.edges.__getitem__, edge_set)} == chosen
    ]


def orbit(moves: tuple[tuple[int, int], ...], perms) -> set[tuple[tuple[int, int], ...]]:
    """All rotations, reversals and relabelings of a walk given as
    (from, to) moves."""
    out = set()
    reverse = tuple((b, a) for a, b in reversed(moves))
    for seq in (moves, reverse):
        for p in perms:
            mapped = tuple((p[a], p[b]) for a, b in seq)
            for k in range(len(mapped)):
                out.add(mapped[k:] + mapped[:k])
    return out
