"""Synthesis of traces behind positive feasibility verdicts.

The builders here turn certificates into actual walks: Euler tours and
doubled tours for the all-parallel cases, one-face embeddings built by
Xuong's pair insertion for antiparallel strong traces, a split-and-project
construction for antiparallel traces with confined repetitions, and the
full contract/cut/lift/merge/repair pipeline for restricted strong traces.
d-stable traces certified by a high-degree vertex run the same pipeline
after splitting that vertex into two halves of at least d + 1 edges each.
Strong traces with free directions run it on a T-join with a tree written
down, not searched, and take a multigraph's loops in afterwards.  None of
them searches for a trace: they are polynomial apart from the
admissible-tree search that the verdict itself runs.  ``construct`` picks
the builder for a query, and no route of it searches.
Every operation is a deterministic function of its inputs, so repeated runs
reproduce the same step sequences byte for byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .errors import (
    InputError,
    InternalConsistencyError,
    PreconditionError,
    SurgeryInapplicableError,
)
from .feasibility import (
    FeasibilityAnswer,
    SpanningTreeCertificate,
    _balanced_orientation,
    _quotient_witnesses,
    _restricted_analysis,
    find_admissible_tree,
)
from .graphs import (
    ComponentReport,
    ContractionMap,
    EdgeFragment,
    Graph,
    Host,
    Multigraph,
    TraceQuery,
    components_with_parity,
    induced_edge_subgraph,
    is_connected,
)
from .traces import (
    ClosedWalk,
    DoubleTrace,
    RestrictionSet,
    Step,
    WalkIndex,
    step_head,
    step_tail,
)

Walkable = Union[Host, EdgeFragment]


def _as_fragment(fragment: Walkable) -> EdgeFragment:
    if isinstance(fragment, EdgeFragment):
        return fragment
    return induced_edge_subgraph(fragment, range(fragment.edge_count))


# ---------------------------------------------------------------------------
# Euler tours and doubled tours
# ---------------------------------------------------------------------------


def euler_tour(fragment: Walkable) -> ClosedWalk:
    """Closed walk over the fragment using every edge exactly once.

    Arcs are traversed tail to head; when the fragment mixes arcs and
    undirected edges, the undirected ones are first oriented so that every
    vertex has matching in- and out-degree.  The walk starts at the lowest
    fragment vertex and always leaves along the lowest available edge.
    """
    frag = _as_fragment(fragment)
    host = frag.host
    if not frag.edges:
        if not isinstance(fragment, EdgeFragment) and not is_connected(host):
            raise PreconditionError("graph is disconnected")
        return ClosedWalk._of(host, ())

    arcs = [i for i in frag.edges if host.is_arc(i)]
    verts = sorted(frag.vertices)
    # out[v] holds the steps allowed to leave v, lowest edge first
    out: dict[int, list[Step]] = {v: [] for v in verts}

    if arcs:
        und = [i for i in frag.edges if not host.is_arc(i)]
        tails = _balanced_orientation(host, frag.edges)
        if tails is None:
            raise PreconditionError(
                "fragment admits no direction-respecting Euler tour"
            )
        for i in arcs:
            out[host.endpoints(i)[0]].append((i, 0))
        for k, i in enumerate(und):
            a, b = host.endpoints(i)
            out[a if tails[k] == 0 else b].append((i, tails[k]))
    else:
        odd = [v for v in verts if frag.degree(v) % 2 == 1]
        if odd:
            raise PreconditionError(f"vertices {odd} have odd degree")
        for i in frag.edges:
            a, b = host.endpoints(i)
            out[a].append((i, 0))
            if b != a:
                out[b].append((i, 1))
    for v in verts:
        out[v].sort()

    directed = bool(arcs)
    used: set[int] = set()  # directed slots are unique already
    tail = host.dart_tails
    ptr = {v: 0 for v in verts}
    start = verts[0]
    path: list[tuple[int, Optional[Step]]] = [(start, None)]
    circuit: list[tuple[int, Optional[Step]]] = []
    while path:
        v, _ = path[-1]
        moved = False
        while ptr[v] < len(out[v]):
            step = out[v][ptr[v]]
            ptr[v] += 1
            if directed or step[0] not in used:
                used.add(step[0])
                path.append((tail[2 * step[0] + 1 - step[1]], step))
                moved = True
                break
        if not moved:
            circuit.append(path.pop())
    steps = tuple(s for _, s in reversed(circuit) if s is not None)
    if len(steps) != len(frag.edges):
        # every degree is balanced here, so the tour closes on all the
        # edges of its own component and misses only other components
        raise PreconditionError("fragment is disconnected")
    return ClosedWalk._of(host, steps)


def parallel_strong_trace(fragment: Walkable) -> DoubleTrace:
    """All-parallel double trace of the fragment without nontrivial
    repetitions.

    The tour doubled back to back already uses every edge twice in one
    direction; at vertices of degree four or more its visits pair up into
    separate transition classes, so those are joined by repetition surgery
    until a single class remains everywhere.
    """
    frag = _as_fragment(fragment)
    tour = euler_tour(frag)
    walk = DoubleTrace._of(frag.host, tour.steps + tour.steps)
    return _repair_to_strong(walk, sorted(frag.vertices), "doubled tour")


# ---------------------------------------------------------------------------
# Walk surgery
# ---------------------------------------------------------------------------


def _heads(host: Host, steps: Sequence[Step]) -> list[int]:
    tail = host.dart_tails
    return [tail[2 * e + 1 - f] for e, f in steps]


def _splice(w1: tuple, w2: tuple, v: int) -> tuple:
    """``merge_closed_walks`` on (steps, heads) pairs; a step departs from the
    head of the one before it, so both ends are found by ``list.index``.
    Raises ValueError when v is missing from either walk."""
    (s1, h1), (s2, h2) = w1, w2
    i = h1.index(v) + 1
    j = 0 if h2[-1] == v else h2.index(v) + 1
    return (
        s1[:i] + s2[j:] + s2[:j] + s1[i:],
        h1[:i] + h2[j:] + h2[:j] + h1[i:],
    )


def merge_closed_walks(w1: ClosedWalk, w2: ClosedWalk, v: int) -> ClosedWalk:
    """Splice two closed walks sharing ``v`` into one.

    The result follows w1 until it first arrives at v, runs all of w2 from
    its first departure out of v, then resumes w1.  An empty operand is
    returned unchanged alongside the other.
    """
    if w1.host is not w2.host and w1.host != w2.host:
        raise InputError("walks live on different graphs")
    if not w2.steps:
        return w1
    if not w1.steps:
        return w2
    pair = [(w.steps, _heads(w1.host, w.steps)) for w in (w1, w2)]
    try:
        steps, _ = _splice(*pair, v)
    except ValueError:
        raise PreconditionError(f"vertex {v} does not occur in both walks") from None
    return ClosedWalk._of(w1.host, steps)


class _Surgery:
    """Repetition surgery on a closed walk kept as a list of step positions.

    Surgery reorders steps but never changes them, so one ``WalkIndex`` and
    one table of each edge's traversals serve every cut; a cut relinks
    three steps, all at the vertex cut.  A visit's in-edge and out-edge
    share a class, so the class of a departure is read from its own edge.
    """

    def __init__(self, walk: ClosedWalk, index: WalkIndex):
        self.walk, self.index = walk, index
        self.order = list(range(len(walk.steps)))  # step positions in walk order
        self.traversals: dict[int, list[int]] = {}
        for t, (e, _) in enumerate(walk.steps):
            self.traversals.setdefault(e, []).append(t)

    def same_direction(self, e: int) -> bool:
        a, b = self.walk.host.endpoints(e)
        steps, ts = self.walk.steps, self.traversals[e]
        return a != b and len(ts) == 2 and steps[ts[0]][1] == steps[ts[1]][1]

    def result(self) -> ClosedWalk:
        w = self.walk
        return type(w)._of(w.host, tuple([w.steps[t] for t in self.order]))

    def join(self, v: int, classes: list[list[int]]) -> list[list[int]]:
        """Cut at ``v`` as ``reduce_repetition`` does; returns the classes
        at v after the cut, in which the two it cut are one."""
        host, steps = self.walk.host, self.walk.steps
        order, L = self.order, len(steps)
        leaving = self.index.departures[v]
        if len(leaving) < 3:
            raise SurgeryInapplicableError(f"vertex {v} occurs only {len(leaving)} times")
        first = next((c for c in classes if any(map(self.same_direction, c))), None)
        if first is None:
            raise SurgeryInapplicableError(
                f"no edge at vertex {v} is traversed twice in one direction"
            )
        chosen = next(filter(self.same_direction, first))
        second = next(c for c in classes if c is not first)
        t1, t2 = sorted(map(order.index, self.traversals[chosen]))
        toward = step_head(host, steps[order[t1]]) == v
        dA = (t1 + 1) % L if toward else t1
        dB = (t2 + 1) % L if toward else t2
        in_second = set(second)
        second_deps = [order.index(d) for d in leaving if steps[d][0] in in_second]

        def pick(d1: int, d2: int) -> Optional[tuple[int, int, int]]:
            span = (d1 - d2) % L
            after = [t for t in second_deps if 0 < (t - d2) % L < span]
            if not after:
                return None
            return d1, d2, min(after, key=lambda t: (t - d2) % L)

        cut = pick(dA, dB) or pick(dB, dA)
        if cut is None:
            raise InternalConsistencyError(
                f"no visit of the second class follows either traversal at {v}"
            )
        d1, d2, d3 = cut

        def seg(a: int, b: int) -> list[int]:
            return order[a:b] if a < b else order[a:] + order[:b]

        self.order = seg(d2, d3) + seg(d1, d2) + seg(d3, d1)
        rest = [c for c in classes if c is not first and c is not second]
        return sorted(rest + [sorted(first + second)])


def reduce_repetition(w: DoubleTrace, v: int) -> DoubleTrace:
    """Join two transition classes at ``v`` by reordering subwalks.

    Needs an edge at v that the walk uses twice in the same direction and at
    least three occurrences of v.  The walk is cut at the departures tied to
    that edge's two traversals and at the departure of a visit from another
    class; swapping the first two segments relinks the classes while every
    step keeps its own direction and all other vertices keep their exact
    adjacencies.
    """
    surgery = _Surgery(w, WalkIndex(w.host, w.steps))
    classes = surgery.index.classes(v)
    if len(classes) < 2:
        raise SurgeryInapplicableError(
            f"walk has a single transition class at vertex {v}"
        )
    surgery.join(v, classes)
    return surgery.result()


def _repair_to_strong(
    walk: DoubleTrace, vertices: Sequence[int], what: str
) -> DoubleTrace:
    """Apply repetition surgery until every listed vertex has one class.

    Surgery at one vertex never disturbs the others, so a single ascending
    pass settles the whole walk, and the one index of the input names the
    vertices with more than one class.  Each cut joins the two classes it
    cuts and no other: in a double trace every edge end at v lies on an
    even number of links, so a class stays connected when the cut takes one
    of its links, and the two new links each join one class to the other.
    The callers only reach this point with walks whose repetition vertices
    all carry a same-direction edge; running out of moves therefore
    indicates a defect, not bad input.
    """
    index = WalkIndex(walk.host, walk.steps)
    todo = [(v, c) for v in vertices if len(c := index.classes(v)) > 1]
    if not todo:
        return walk
    surgery = _Surgery(walk, index)
    for v, classes in todo:
        while len(classes) > 1:
            try:
                classes = surgery.join(v, classes)
            except SurgeryInapplicableError as exc:
                raise InternalConsistencyError(
                    f"{what}: stuck repetition at vertex {v} in walk "
                    f"{surgery.result().steps!r}"
                ) from exc
    return surgery.result()


# ---------------------------------------------------------------------------
# Antiparallel traces from spanning-tree certificates
# ---------------------------------------------------------------------------


def _adjacent_pairs(
    host: Host, edge_ids: Sequence[int]
) -> list[tuple[int, int, int]]:
    """Split a connected edge set of even size into paths of two edges
    (Kotzig), as (first edge, second edge, shared vertex).

    Vertices are settled deepest first in a breadth-first tree of the set;
    each pairs off its unpaired edges other than the one to its parent,
    adding that one when their number is odd.  A loop is one edge at its
    vertex.
    """
    adj: dict[int, list[int]] = {}
    for e in edge_ids:
        a, b = host.endpoints(e)
        adj.setdefault(a, []).append(e)
        if b != a:
            adj.setdefault(b, []).append(e)
    root = host.endpoints(edge_ids[0])[0]
    parent: dict[int, int] = {root: -1}
    order = [root]
    for v in order:
        for e in adj[v]:
            a, b = host.endpoints(e)
            w = b if a == v else a
            if w not in parent:
                parent[w] = e
                order.append(w)
    paired: set[int] = set()
    pairs = []
    for v in reversed(order):
        free = [e for e in adj[v] if e not in paired and e != parent[v]]
        if len(free) % 2:
            if parent[v] < 0:
                raise InternalConsistencyError(
                    f"co-tree component {sorted(edge_ids)!r} is odd or disconnected"
                )
            free.append(parent[v])
        for k in range(0, len(free), 2):
            pairs.append((free[k], free[k + 1], v))
            paired.update(free[k : k + 2])
    return pairs


def _one_face_walk(host: Host, cert: SpanningTreeCertificate) -> tuple[Step, ...]:
    """Boundary walk of a one-face orientable embedding (Xuong 1979).

    Dart ``2e + f`` is step ``(e, f)`` and leaves endpoint ``f`` of edge
    ``e``; ``rot[d]`` is the dart after ``d`` around its tail, and the face
    walk goes from ``d`` to ``rot[d ^ 1]``.  The tree is embedded with each
    vertex's parent dart first and the rest by edge index, so its single
    face is the walk around the tree from vertex 0, children by index.  Each
    co-tree pair (e1, e2) at v is then inserted: e1 splits the face in two,
    with the corners just before and just after e1 at v on different sides,
    and e2 runs from the one on the far side to a corner at its other end,
    merging the two faces again.
    """
    n, m = host.vertex_count, host.edge_count
    tail = host.dart_tails
    rot = [-1] * (2 * m)
    first = [-1] * n  # a dart at each vertex, once it has one

    def insert(d: int, after: int) -> None:
        if after < 0:
            rot[d] = d
            first[tail[d]] = d
        else:
            rot[d], rot[after] = rot[after], d

    darts: list[list[int]] = [[] for _ in range(n)]
    for e in sorted(cert.tree_edges):
        darts[tail[2 * e]].append(2 * e)
        darts[tail[2 * e + 1]].append(2 * e + 1)
    up = [-1] * n  # each vertex's dart toward vertex 0
    order = [0] if n else []
    for v in order:
        ring = [d for d in darts[v] if d != up[v]]
        for d in ring:
            if len(order) == n:
                raise InternalConsistencyError(
                    f"tree edges {sorted(cert.tree_edges)!r} close a cycle"
                )
            up[tail[d ^ 1]] = d ^ 1
            order.append(tail[d ^ 1])
        if up[v] >= 0:
            ring.insert(0, up[v])
        for k, d in enumerate(ring):
            rot[d] = ring[(k + 1) % len(ring)]
        if ring:
            first[v] = ring[0]

    for comp in cert.co_tree_report:
        for e1, e2, v in _adjacent_pairs(host, sorted(comp.edges)):
            d1 = 2 * e1 + (tail[2 * e1] != v)
            insert(d1 ^ 1, first[tail[d1 ^ 1]])
            before = first[v]
            insert(d1, before)
            d2 = 2 * e2 + (tail[2 * e2] != v)
            far = first[tail[d2 ^ 1]]
            # the corner after ``far`` lies on the face of rot[far]; e2
            # leaves v through the corner on the other face
            side = d1 if _on_face_of(rot, d1, rot[far]) else before
            insert(d2, side)
            insert(d2 ^ 1, far)

    if not m:
        return ()
    start = first[0]
    steps = [(start >> 1, start & 1)]
    d = rot[start ^ 1]
    while d != start:
        steps.append((d >> 1, d & 1))
        d = rot[d ^ 1]
    if len(steps) != 2 * m:
        raise InternalConsistencyError(
            f"embedding has a face of {len(steps)} of {2 * m} darts: "
            f"edges {host.edges!r}, tree {sorted(cert.tree_edges)!r}"
        )
    return tuple(steps)


def _on_face_of(rot: list[int], d1: int, target: int) -> bool:
    # d1 and d1 ^ 1 bound two different faces: walk both at once and stop
    # when one closes or meets the target, so the cost is the smaller face
    a, b = d1, d1 ^ 1
    while True:
        if a == target:
            return True
        if b == target:
            return False
        a, b = rot[a ^ 1], rot[b ^ 1]
        if a == d1:
            return False
        if b == d1 ^ 1:
            return True


def antiparallel_strong_trace(
    g: Graph, cert: SpanningTreeCertificate
) -> DoubleTrace:
    """Antiparallel strong trace of ``g`` from an all-even co-tree
    certificate.

    The trace is the boundary walk of a one-face orientable embedding built
    from the certificate by Xuong's pair insertion: each edge is walked once
    in each direction, and at every vertex the rotation is a single cycle of
    transitions, so the walk is strong.  Each co-tree pair costs at most a
    walk around a face, and the single face is checked before the walk is
    returned.
    """
    _require_connected(g)
    if (
        not isinstance(cert, SpanningTreeCertificate)
        or cert.host != g
        or not cert.revalidate()
    ):
        raise PreconditionError(
            "certificate does not fit this graph or leaves an odd co-tree component"
        )
    return DoubleTrace._of(g, _one_face_walk(g, cert))


def _splittable_edge(h: Host, comp, v: int, attach: Sequence[int]) -> int:
    # an attachment edge whose removal leaves only even pieces; one always
    # exists because an all-bridges vertex in an odd component would force
    # an even edge count
    for e in attach:
        rest = sorted(comp.edges - {e})
        if not rest:
            return e
        parts = components_with_parity(induced_edge_subgraph(h, rest))
        if all(not p.odd for p in parts):
            return e
    raise InternalConsistencyError(
        f"odd component {sorted(comp.edges)!r} has no splittable edge at {v}"
    )


def _split_vertex(
    edges: list[tuple[int, int]], v: int, copy: int, moved
) -> None:
    # a moved loop keeps one end at v and joins the two halves
    for i in moved:
        a, b = edges[i]
        edges[i] = (copy, b) if a == v else (a, copy)


Split = tuple[int, frozenset[int], int]


def antiparallel_double_trace_with_repetitions_in(
    g: Host,
    witness_set,
    cert: SpanningTreeCertificate,
    splits: Sequence[Split] = (),
) -> DoubleTrace:
    """Antiparallel double trace whose nontrivial repetitions all sit in
    ``witness_set`` and at the vertices of ``splits``.

    Each split ``(v, moved, f)`` is applied first, in order: v gets a new
    copy, the ``moved`` edges at v are handed to the copy and co-tree edge
    f joins the tree; the caller guarantees that the tree still spans and
    that f's component falls into even pieces (``_balanced_split``).  Each
    odd co-tree component left then donates one witness vertex, split the
    same way with the component's edges at that vertex moved and one of
    them joining the tree.  The split graph's antiparallel strong trace
    projects back by renaming the copies, so a split vertex keeps exactly
    two transition classes: its moved edges and the rest.
    """
    _require_connected(g)
    witness = frozenset(int(v) for v in witness_set)
    for v in witness:
        if not (0 <= v < g.vertex_count):
            raise InputError(f"witness vertex {v} out of range")
    report = None
    if isinstance(cert, SpanningTreeCertificate) and cert.host == g:
        report = cert.fresh_report(witness | {v for v, _, _ in splits})
    if report is None:
        raise PreconditionError(
            "certificate does not certify this graph and witness set"
        )

    edges = list(g.edges)
    n = g.vertex_count
    tree = set(cert.tree_edges)
    h = g
    if splits:
        for v, moved, f in splits:
            _split_vertex(edges, v, n, moved)
            n += 1
            tree.add(f)
        h = Multigraph(n, tuple(edges))
        report = _co_tree_report(h, tree, witness)
    # splitting one odd component touches no other, so all of them are
    # split on one graph, and the split graph is built once
    odd = [c for c in report if c.odd]
    for comp in odd:
        v = min(u for u in comp.vertices if u in witness)
        attach = sorted(i for i in comp.edges if v in h.endpoints(i))
        e = _splittable_edge(h, comp, v, attach)
        _split_vertex(edges, v, n, attach)
        n += 1
        tree.add(e)
    if odd:
        h = Multigraph(n, tuple(edges))
        report = _co_tree_report(h, tree, witness)
    # every co-tree component is even now, and the one-face walk checks
    # that its single face covers every edge twice
    steps = _one_face_walk(h, SpanningTreeCertificate(h, frozenset(tree), report))
    # indices and flags carry over verbatim; only vertex names differ
    return DoubleTrace._of(g, steps)


def _co_tree_report(h: Host, tree, witness) -> ComponentReport:
    co = [i for i in range(h.edge_count) if i not in tree]
    return components_with_parity(induced_edge_subgraph(h, co), witness)


# ---------------------------------------------------------------------------
# Degree-bar splits
# ---------------------------------------------------------------------------
#
# A d-stable verdict may excuse an odd co-tree component C by a vertex v of
# degree >= 2d + 2 that no contraction produced.  Such a v is split in two:
# a set M of its edges moves to a new copy v*, and one co-tree edge f of C
# joins the tree.  The split graph has an all-even certificate, hence a
# strong antiparallel trace, and renaming v* back to v leaves exactly two
# transition classes at v, M and E(v) - M.  The split works when
#
#   (1) d + 1 <= |M| <= deg(v) - d - 1;
#   (2) T + f spans the split graph: f joins the part of T that stays with v
#       to the part that moves with v*;
#   (3) C - f falls into even pieces in the split graph.
#
# Split lemma.  If some spanning tree has every odd co-tree component
# holding a contracted vertex or a vertex of degree >= 2d + 2, then some
# such tree lets the components without a contracted vertex be split one
# after another, each at one of its high-degree vertices, meeting (1)-(3).
# This is checked, not proved.  The tests build and validate every such
# positive of the acceptance population (every connected graph with up to
# 5 vertices, up to isomorphism, and 200 sampled 6-vertex graphs, every restriction, d = 1 and
# 2) and of a seeded sweep of 5- and 6-vertex mixed hosts, and compare the
# split choice with brute force over every partition of E(v), for every
# admissible tree of every graph with up to 5 vertices.  About 40,000
# seeded random positives with 5 to 8 vertices built without a failure
# when the construction was written.  The builder splits the verdict's own
# tree when it can, and only otherwise searches the admissible trees for one
# that splits; if none does it raises InternalConsistencyError and never
# searches for a trace instead.


def _tree_branches(h: Host, tree, v: int) -> dict[int, int]:
    """For every vertex but v, the tree edge at v that starts the tree path
    from v to it."""
    adj: dict[int, list[int]] = {}
    for e in tree:
        a, b = h.endpoints(e)
        adj.setdefault(a, []).append(e)
        adj.setdefault(b, []).append(e)
    branch: dict[int, int] = {}
    for t in adj.get(v, ()):
        a, b = h.endpoints(t)
        root = b if a == v else a
        branch[root] = t
        stack = [root]
        while stack:
            u = stack.pop()
            for e in adj[u]:
                a, b = h.endpoints(e)
                w = b if a == u else a
                if w != v and w not in branch:
                    branch[w] = t
                    stack.append(w)
    return branch


def _lobes(h: Host, rest, v: int) -> Optional[list[tuple[list[int], int]]]:
    """The pieces of ``rest`` through v, with v cut apart, as (their edges
    at v, parity of their size); None when a piece away from v is odd."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in rest:
        a, b = h.endpoints(e)
        if v not in (a, b):
            parent[find(a)] = find(b)
    pieces: dict[int, list] = {}
    for e in sorted(rest):
        a, b = h.endpoints(e)
        piece = pieces.setdefault(find(b if a == v else a), [[], 0])
        piece[1] ^= 1
        if v in (a, b):
            piece[0].append(e)
    lobes = []
    for at_v, parity in pieces.values():
        if not at_v:
            if parity:
                return None
        else:
            lobes.append((at_v, parity))
    return lobes


def _balance(
    lobes: list[tuple[list[int], int]],
    free: list[int],
    lo: int,
    hi: int,
    target: int,
) -> Optional[tuple[list[int], int]]:
    """How many edges to move from each lobe, and how many free tree edges,
    so that lo <= 1 + total <= hi and the pieces stay even.

    A dynamic program over the lobes keeps, per reachable state (edges moved,
    parity of the lobes left whole at v, whether some lobe is cut), the
    first way to reach it.  Cutting a lobe joins v and v* into one piece of
    even size; otherwise the lobes left at v must have even total size, and
    then so do those moved.  The total closest to ``target`` wins.
    """
    layers = []
    states: dict = {(0, 0, False): None}
    for at_v, parity in lobes:
        nxt: dict = {}
        for state in states:
            c, p, cut = state
            for k in range(len(at_v) + 1):
                key = (c + k, p ^ parity if k == 0 else p, cut or 0 < k < len(at_v))
                nxt.setdefault(key, (state, k))
        layers.append(nxt)
        states = nxt
    best = None
    for state in states:
        c, p, cut = state
        if p and not cut:
            continue
        for j in range(len(free) + 1):
            total = 1 + c + j
            if lo <= total <= hi:
                rank = (abs(2 * total - target), total)
                if best is None or rank < best[0]:
                    best = (rank, state, j)
    if best is None:
        return None
    _, state, j = best
    counts = []
    for layer in reversed(layers):
        state, k = layer[state]
        counts.append(k)
    return counts[::-1], j


def _balanced_split(
    h: Host, tree, comp_edges, v: int, d: int
) -> Optional[tuple[frozenset[int], int]]:
    """A set of edges at v to move to a new copy, and the co-tree edge of
    the odd component ``comp_edges`` to add to the tree, meeting (1)-(3)
    above; None when v has none.

    Condition (2) fixes one pair of edges at v of which exactly one moves:
    f and the tree edge toward its far end when f is at v, else the tree
    edges toward f's two ends.  The other tree edges at v move freely, and
    the pieces of C - f at v decide (3), so ``_balance`` settles the rest.
    Polynomial: O(|C| * (m + deg(v)^2)).
    """
    deg = h.degree(v)
    lo, hi = d + 1, deg - d - 1
    if lo > hi:
        return None
    branch = _tree_branches(h, tree, v)
    at_v_tree = sorted(t for t in tree if v in h.endpoints(t))
    for f in sorted(comp_edges):
        a, b = h.endpoints(f)
        if v in (a, b):
            pair = (f, branch[b if a == v else a])
        elif branch[a] != branch[b]:
            pair = tuple(sorted((branch[a], branch[b])))
        else:
            continue
        lobes = _lobes(h, comp_edges - {f}, v)
        if lobes is None:
            continue
        free = [t for t in at_v_tree if t not in pair]
        plan = _balance(lobes, free, lo, hi, deg)
        if plan is None:
            continue
        counts, j = plan
        moved = {pair[0], *free[:j]}
        for (at_v, _), k in zip(lobes, counts):
            moved.update(at_v[:k])
        return frozenset(moved), f
    return None


def _degree_bar_splits(
    h: Host,
    cert: SpanningTreeCertificate,
    witness: set[int],
    contracted: set[int],
    d: int,
) -> Optional[list[Split]]:
    """Splits for every odd co-tree component without a contracted vertex,
    or None when one of them has none.

    Components are split one after another, each on the graph and tree the
    earlier splits left: moving tree edges reroutes tree paths, so splits
    chosen independently need not span together.
    """
    edges = list(h.edges)
    n = h.vertex_count
    tree = set(cert.tree_edges)
    splits: list[Split] = []
    for comp in cert.co_tree_report:
        if not comp.odd or not contracted.isdisjoint(comp.vertices):
            continue
        cur = Multigraph(n, tuple(edges))
        for v in sorted(comp.vertices & witness):
            found = _balanced_split(cur, tree, comp.edges, v, d)
            if found is not None:
                break
        else:
            return None
        moved, f = found
        splits.append((v, moved, f))
        _split_vertex(edges, v, n, moved)
        n += 1
        tree.add(f)
    return splits


def _degree_bar_certificate(
    h: Host,
    cert: SpanningTreeCertificate,
    witness: set[int],
    contracted: set[int],
    d: int,
    host: Host,
) -> tuple[SpanningTreeCertificate, list[Split]]:
    """The verdict's certificate ``cert`` with its splits when all of its
    degree-bar components split, else the first admissible tree of ``h``
    whose components all do.

    The search is the verdict's own, which passed the decider's gate, with
    one more leaf test; its first leaf is ``cert`` again.
    """
    found: list[tuple[SpanningTreeCertificate, list[Split]]] = []

    def accept(leaf: SpanningTreeCertificate) -> bool:
        splits = _degree_bar_splits(h, leaf, witness, contracted, d)
        if splits is not None:
            found.append((leaf, splits))
        return splits is not None

    if not accept(cert):
        find_admissible_tree(h, witness, accept=accept)
    if not found:
        raise InternalConsistencyError(
            f"no admissible tree splits every degree-bar component into two "
            f"halves of at least {d + 1} edges: {host!r}"
        )
    return found[0]


# ---------------------------------------------------------------------------
# Walk families: the cut-up quotient trace
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenWalk:
    """A run of chained steps with both endpoints inside contracted
    components, remembered by component ordinal."""

    host: Host
    steps: tuple[Step, ...]
    start_component: int
    end_component: int

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def start_vertex(self) -> int:
        return step_tail(self.host, self.steps[0])

    @property
    def end_vertex(self) -> int:
        return step_head(self.host, self.steps[-1])


@dataclass(frozen=True)
class WalkFamily:
    """The pieces of a quotient trace after cutting at contracted
    vertices: closed members and open members with endpoint bookkeeping."""

    closed: tuple[ClosedWalk, ...]
    open: tuple[OpenWalk, ...]

    def direction_counts(self) -> dict[Step, int]:
        return Counter(s for w in (*self.closed, *self.open) for s in w.steps)

    def problems(self) -> tuple[str, ...]:
        out = []
        for k, w in enumerate(self.open):
            for t in range(len(w.steps) - 1):
                if step_head(w.host, w.steps[t]) != step_tail(w.host, w.steps[t + 1]):
                    out.append(f"open walk {k} breaks after step {t}")
                    break
        for k, w in enumerate(self.closed):
            if w.steps and w.head(len(w.steps) - 1) != w.tail(0):
                out.append(f"closed walk {k} does not close")
        return tuple(out)


def _cut_quotient_walk(
    host: Host,
    cmap: ContractionMap,
    q_steps: tuple[Step, ...],
    comp_of: dict[int, int],
) -> WalkFamily:
    """Lift the quotient trace to host steps, cutting at every arrival in a
    contracted vertex; the cut starts at the lowest contracted vertex's
    lowest outgoing step."""
    q_tail, tail = cmap.quotient.dart_tails, host.dart_tails
    marked = cmap.eprime_vertices
    anchors = [
        (q_tail[2 * e + f], e, f, t)
        for t, (e, f) in enumerate(q_steps)
        if q_tail[2 * e + f] in marked
    ]
    if not anchors:
        raise InternalConsistencyError("quotient walk never meets a contracted vertex")
    t0 = min(anchors)[3]
    rot = q_steps[t0:] + q_steps[:t0]

    closed: list[ClosedWalk] = []
    opened: list[OpenWalk] = []
    cur: list[Step] = []
    for qe, f in rot:
        cur.append((cmap.edge_origin[qe], f))
        if q_tail[2 * qe + 1 - f] in marked:
            (e0, f0), (e1, f1) = cur[0], cur[-1]
            z0, z1 = tail[2 * e0 + f0], tail[2 * e1 + 1 - f1]
            if z0 == z1:
                closed.append(ClosedWalk._of(host, tuple(cur)))
            else:
                opened.append(
                    OpenWalk(host, tuple(cur), comp_of[z0], comp_of[z1])
                )
            cur = []
    if cur:
        raise InternalConsistencyError("quotient walk did not close at a cut point")
    return WalkFamily(tuple(closed), tuple(opened))


def _close_open_walks(family: WalkFamily) -> list[tuple[Step, ...]]:
    """Chain open walks end to start until each chain closes, each time
    with the first unused walk that starts where the chain ends.

    Within the family every vertex is entered as often as it is left, so a
    continuation always exists while a chain is open.
    """
    walks = family.open
    used = [False] * len(walks)
    starting: dict[int, list[int]] = {}  # unused walks by start, first last
    for k in reversed(range(len(walks))):
        starting.setdefault(walks[k].start_vertex, []).append(k)
    chains: list[tuple[Step, ...]] = []
    for seed in range(len(walks)):
        if used[seed]:
            continue
        used[seed] = True
        first = walks[seed]
        steps = list(first.steps)
        origin = first.start_vertex
        cur = first.end_vertex
        while cur != origin:
            queue = starting.get(cur, [])
            while queue and used[queue[-1]]:
                queue.pop()
            if not queue:
                raise InternalConsistencyError(
                    f"open walks are unbalanced at vertex {cur}"
                )
            nxt = queue.pop()
            used[nxt] = True
            steps.extend(walks[nxt].steps)
            cur = walks[nxt].end_vertex
        chains.append(tuple(steps))
    return chains


def _merge_family(
    host: Host, walks: Sequence[Sequence[Step]], allowed: frozenset[int]
) -> Sequence[Step]:
    """Merge the family of closed walks, given by their steps, into one,
    splicing only at ``allowed`` vertices.

    Splicing rewires two transition links at the splice vertex and can
    split a class there, so only vertices where surgery stays applicable
    (the contracted-fragment ones, which carry same-direction edges) are
    safe.  Each member has such a vertex and consecutive quotient pieces
    share theirs, so the family always connects through allowed vertices.
    Each walk's heads are listed once; every splice then finds its ends
    by ``list.index`` and joins slices, as ``merge_closed_walks`` would.
    """
    pool = [(w, _heads(host, w)) for w in walks if w]
    if not pool:
        raise InternalConsistencyError("nothing to merge")
    verts = [allowed.intersection(heads) for _, heads in pool]
    while len(pool) > 1:
        found = None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                shared = verts[i] & verts[j]
                if shared:
                    found = (i, j, min(shared))
                    break
            if found:
                break
        if found is None:
            raise InternalConsistencyError("walk family is not connected")
        i, j, v = found
        pool[i] = _splice(pool[i], pool[j], v)
        verts[i] = verts[i] | verts[j]
        del pool[j]
        del verts[j]
    return pool[0][0]


# ---------------------------------------------------------------------------
# Restricted-trace pipelines
# ---------------------------------------------------------------------------


def _require_connected(host: Host) -> None:
    if not is_connected(host):
        raise PreconditionError("graph is disconnected")


def _family_counts_ok(family: WalkFamily, cmap: ContractionMap) -> None:
    expect: dict[Step, int] = {}
    for e in cmap.edge_origin:
        expect[(e, 0)] = 1
        expect[(e, 1)] = 1
    if family.direction_counts() != expect or family.problems():
        raise InternalConsistencyError("cut walk family violates its contract")


def _assemble_restricted(
    host: Host,
    cmap: ContractionMap,
    cert: SpanningTreeCertificate,
    splits: Sequence[Split] = (),
) -> DoubleTrace:
    """Shared pipeline: quotient trace, fragment traces, cut, lift, chain,
    merge, repair.

    Surgery runs only at fragment vertices; every other vertex keeps the
    transitions of the quotient trace: one class, or two at a degree-bar
    split.  With no fragment the lifted quotient trace is the answer.
    """
    q_steps = antiparallel_double_trace_with_repetitions_in(
        cmap.quotient, _quotient_witnesses(cmap, None), cert, splits
    ).steps
    if len(cmap.edge_origin) == host.edge_count:
        return DoubleTrace._of(host, tuple([(cmap.edge_origin[qe], f) for qe, f in q_steps]))
    # the contraction found the fragment's components: each is the set of
    # contracted edges on one quotient vertex, taken in order of least edge
    survivors = frozenset(cmap.edge_origin)
    parts: dict[int, list[int]] = {}
    for i in range(host.edge_count):
        if i not in survivors:
            parts.setdefault(cmap.vertex_image[host.endpoints(i)[0]], []).append(i)
    rank = {image: k for k, image in enumerate(parts)}
    comp_of = {v: rank[q] for v, q in enumerate(cmap.vertex_image) if q in rank}

    family = _cut_quotient_walk(host, cmap, q_steps, comp_of)
    _family_counts_ok(family, cmap)
    walks = [parallel_strong_trace(induced_edge_subgraph(host, p)).steps for p in parts.values()]
    walks += [w.steps for w in family.closed] + _close_open_walks(family)
    merged = _merge_family(host, walks, frozenset(comp_of))
    if len(merged) != 2 * host.edge_count:
        raise InternalConsistencyError(
            f"assembled walk has {len(merged)} steps, expected {2 * host.edge_count}"
        )
    walk = DoubleTrace._of(host, tuple(merged))
    return _repair_to_strong(walk, sorted(comp_of), "assembled trace")


def _restricted_trace(
    host: Host,
    r: RestrictionSet,
    d: Optional[int],
    answer: FeasibilityAnswer,
) -> DoubleTrace:
    """The restricted strong (``d`` None) or d-stable trace behind
    ``answer``, the positive verdict on the same query; its contraction and
    its tree on the quotient are used as they are, so nothing is decided or
    contracted again.

    An empty restriction yields the all-parallel construction.  Otherwise
    the verdict's tree drives the contraction pipeline, which finishes with
    repetition surgery; that always applies, because every leftover
    repetition sits at a vertex carrying a same-direction edge.  A d-stable
    tree whose odd co-tree components all hold a contracted or looped
    vertex needs nothing more, and the output is d-stable thanks to the
    minimum-degree gate.  Otherwise each component excused only by a vertex
    of quotient degree >= 2d + 2 is split at that vertex into two halves of
    at least d + 1 edges each (the split lemma above): the vertex keeps its
    two classes, every other vertex ends with one.
    """
    if not r.antiparallel_edges:
        return parallel_strong_trace(host)
    cmap = answer.analysis
    cert, splits = answer.certificate, []
    contracted = _quotient_witnesses(cmap, None)
    if d is not None and any(
        c.odd and contracted.isdisjoint(c.vertices) for c in cert.co_tree_report
    ):
        cert, splits = _degree_bar_certificate(
            cmap.quotient,
            cert,
            _quotient_witnesses(cmap, 2 * d + 2),
            contracted,
            d,
            host,
        )
    return _assemble_restricted(host, cmap, cert, splits)


def _t_join_certificate(g: Host) -> tuple[RestrictionSet, FeasibilityAnswer]:
    """An antiparallel set A that a strong trace of ``g`` can take, and the
    positive answer for it: an admissible tree of its quotient and the
    quotient analysis, all written down in O(m).

    A is the T-join, T the odd-degree vertices, inside the breadth-first tree
    from vertex 0 (Edmonds-Johnson 1973): peeling the leaves, a tree edge
    joins A when the subtree it cuts off holds an odd number of odd vertices,
    so every degree outside A is even.  The quotient G/(E - A) has exactly A
    as its edges.  Its edges without a contracted end join two uncontracted
    vertices, and an uncontracted vertex keeps all its edges in A, so those
    edges are edges of A between vertices the contraction left alone; A is
    acyclic, so they form a forest.  Kruskal takes that forest first, so
    every co-tree edge has a contracted end and every co-tree component is
    witnessed.  When E - A is empty, G is a tree and there is no co-tree.

    Parallel edges change nothing: A lies inside the tree, so it holds at
    most one edge of any parallel class, and the others are in E - A, which
    contracts both ends.  ``g`` has no loops.
    """
    n = g.vertex_count
    up = [-1] * n  # each vertex's tree edge toward vertex 0
    order = [0] if n else []
    for v in order:
        for i in g.incident(v):
            w = sum(g.edges[i]) - v
            if w and up[w] < 0:
                up[w] = i
                order.append(w)
    odd = [g.degree(v) % 2 for v in range(n)]
    anti = []
    for v in reversed(order[1:]):
        if odd[v]:
            anti.append(up[v])
            odd[sum(g.edges[up[v]]) - v] ^= 1  # v's parent
    r = RestrictionSet.of(anti)
    cmap = _restricted_analysis(g, r)
    h, contracted = cmap.quotient, _quotient_witnesses(cmap, None)
    parent = list(range(h.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for e in sorted(range(h.edge_count), key=lambda e: not contracted.isdisjoint(h.edges[e])):
        a, b = find(h.edges[e][0]), find(h.edges[e][1])
        if a != b:
            parent[a] = b
            tree.add(e)
    cert = SpanningTreeCertificate(h, frozenset(tree), _co_tree_report(h, tree, contracted))
    return r, FeasibilityAnswer(True, cert, analysis=cmap)


def _free_direction_trace(host: Host) -> DoubleTrace:
    """A strong trace of an undirected ``host``, built without a search; it
    is d-stable whenever every vertex has more than d distinct incident
    edges.

    The loop-free edges take the trace of their T-join.  Each loop then
    goes in as ``(l, 0), (l, 0)`` right after the first arrival at its
    vertex, or back to back when there is no other edge.  A splice turns
    the transition x -> y into x -> l -> l -> y, so the class holding x and
    y gains l and stays one class.
    """
    kept = [i for i, (a, b) in enumerate(host.edges) if a != b]
    if len(kept) == host.edge_count:
        r, answer = _t_join_certificate(host)
        return _restricted_trace(host, r, None, answer)
    core = _free_direction_trace(Multigraph(host.vertex_count, [host.edges[i] for i in kept]))
    loops: dict[int, list[Step]] = {}
    for i, (a, b) in enumerate(host.edges):
        if a == b:
            loops.setdefault(a, []).extend(((i, 0), (i, 0)))
    steps: list[Step] = []
    for (e, f), v in zip(core.steps, _heads(core.host, core.steps)):
        steps += [(kept[e], f), *loops.pop(v, ())]
    for spliced in loops.values():  # a lone vertex: no arrival to follow
        steps += spliced
    return DoubleTrace._of(host, tuple(steps))


def _restricted_double_trace(host: Host, r: RestrictionSet) -> DoubleTrace:
    """A double trace with the edges of ``r`` antiparallel and the rest
    parallel, when every degree outside ``r`` is even.

    Each restricted edge is walked out and back, each component of the
    other edges by its Euler tour twice over, and the pieces are spliced at
    shared vertices.  Repetitions are allowed, so no surgery runs.
    """
    pieces = [((e, 0), (e, 1)) for e in sorted(r.antiparallel_edges)]
    frag = induced_edge_subgraph(host, r.complement(host))
    for comp in components_with_parity(frag):
        pieces.append(euler_tour(induced_edge_subgraph(host, comp.edges)).steps * 2)
    if not pieces:
        return DoubleTrace._of(host, ())
    merged = _merge_family(host, pieces, frozenset(range(host.vertex_count)))
    return DoubleTrace._of(host, tuple(merged))


def construct(query: TraceQuery, answer: FeasibilityAnswer) -> DoubleTrace:
    """A trace behind ``answer``, the positive verdict ``decide(query)``
    gave.  Restricted builds use its certificate and decide nothing again.

    The double question (neither strong nor d-stable, with E) walks E out
    and back and the rest on doubled Euler tours.  The restricted questions
    run the contraction pipeline on the verdict's tree.  Free directions
    take the T-join's certificate, which no tree search finds, with any
    loops spliced in.  No route searches for a trace.
    """
    if not answer:
        raise PreconditionError("; ".join(answer.violated) or "no such trace exists")
    host, r, d = query.host, query.restriction, query.d
    if r is not None and not (query.require_strong or d):
        return _restricted_double_trace(host, r)
    if r is not None:
        return _restricted_trace(host, r, d or None, answer)
    return _free_direction_trace(host)
