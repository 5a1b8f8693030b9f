"""Certified decision procedures for double-trace existence.

``decide`` answers every ``TraceQuery`` with a FeasibilityAnswer whose
certificate can be revalidated independently of the search that found it.
The admissible-spanning-tree search is exact and complete; ``decide`` runs
it only below hard size thresholds on the quotient, and above them raises
CapacityError rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Optional, Sequence

from .errors import CapacityError, InputError, PreconditionError
from .graphs import (
    ComponentReport,
    ContractionMap,
    EdgeFragment,
    Host,
    MixedGraph,
    Multigraph,
    RestrictionSet,
    TraceQuery,
    WitnessSpec,
    _as_predicate,
    components_with_parity,
    contract,
    contract_mixed,
    induced_edge_subgraph,
    is_connected,
)

TREE_SEARCH_MAX_VERTICES = 12
TREE_SEARCH_MAX_CORANK = 16


@dataclass(frozen=True)
class SpanningTreeCertificate:
    """A spanning tree together with the parity/witness analysis of its
    co-tree, the evidence behind a positive tree-search verdict."""

    host: Host
    tree_edges: frozenset[int]
    co_tree_report: ComponentReport

    @property
    def deficiency(self) -> int:
        """Number of odd co-tree components."""
        return sum(1 for c in self.co_tree_report if c.odd)

    @property
    def admissible(self) -> bool:
        return all(not c.odd or c.has_witness for c in self.co_tree_report)

    def revalidate(self, witness: WitnessSpec = None) -> bool:
        """Recheck the invariants from scratch: spanning tree shape, co-tree
        coverage, and per-component admissibility under ``witness``."""
        return self.fresh_report(witness) is not None

    def fresh_report(self, witness: WitnessSpec = None) -> Optional[ComponentReport]:
        """The co-tree report recomputed under ``witness`` when ``revalidate``
        holds, else None."""
        host = self.host
        n = host.vertex_count
        if len(self.tree_edges) != max(n - 1, 0):
            return None
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in self.tree_edges:
            a, b = host.endpoints(i)
            ra, rb = find(a), find(b)
            if ra == rb:
                return None  # cycle
            parent[ra] = rb
        if n > 0 and len({find(v) for v in range(n)}) != 1:
            return None
        co_tree = [i for i in range(host.edge_count) if i not in self.tree_edges]
        reported = sorted(i for c in self.co_tree_report for i in c.edges)
        if reported != co_tree:
            return None
        fresh = components_with_parity(
            induced_edge_subgraph(host, co_tree), _as_predicate(witness)
        )
        if len(fresh) != len(self.co_tree_report):
            return None
        for a, b in zip(fresh, self.co_tree_report):
            if a.edges != b.edges or a.odd != b.odd:
                return None
        if any(c.odd and not c.has_witness for c in fresh):
            return None
        return fresh


@dataclass(frozen=True)
class FeasibilityAnswer:
    """Verdict plus the evidence for it.

    True verdicts carry the certificates their characterization requires (a spanning
    tree analysis and/or an even fragment); false verdicts name at least one
    violated condition.  A restricted positive also keeps the contraction
    whose quotient its tree was searched on, so the trace is built on it.
    """

    verdict: bool
    certificate: Optional[SpanningTreeCertificate] = None
    even_fragment: Optional[EdgeFragment] = None
    violated: tuple[str, ...] = ()
    analysis: Optional[ContractionMap] = field(default=None, compare=False, repr=False)

    def __bool__(self) -> bool:
        return self.verdict


def _reject_disconnected(host: Host) -> None:
    if not is_connected(host):
        raise PreconditionError("input graph must be connected")


def find_admissible_tree(
    h: Host,
    witness: WitnessSpec = None,
    *,
    accept: Optional[Callable[[SpanningTreeCertificate], bool]] = None,
) -> Optional[SpanningTreeCertificate]:
    """First spanning tree whose co-tree components are all even or contain
    a witness vertex, and whose certificate ``accept`` (when given) takes;
    None when the complete enumeration finds none.

    Trees are generated in lexicographic edge-index order, so the result is
    deterministic, and with ``accept`` the first certificate offered to it
    is the one returned without it.  The search is exponential in the
    co-tree rank; ``decide`` gates it with ``_gate_quotient``.

    Edges are decided in index order, tree edge first.  A second union-find
    tracks the co-tree decided so far; each of its roots stores the
    component's edge-count parity, whether it holds a witness, and the
    largest edge index incident to any of its vertices.  Once that edge is
    decided the component can no longer grow, so an odd one without a
    witness prunes every tree below: the first admissible tree is the same
    one a leaf-by-leaf check would find.
    """
    _reject_disconnected(h)
    pred = _as_predicate(witness)
    n, m = h.vertex_count, h.edge_count
    target = max(n - 1, 0)
    ends = [h.endpoints(i) for i in range(m)]
    # no path compression in either union-find: every union is undone in
    # reverse order on the way back up
    parent = list(range(n))
    co_parent = list(range(n))
    co_odd = [False] * n
    co_wit = [pred(v) for v in range(n)]
    co_last = [-1] * n
    for i, (a, b) in enumerate(ends):
        co_last[a] = co_last[b] = i

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def co_find(x: int) -> int:
        while co_parent[x] != x:
            x = co_parent[x]
        return x

    def co_join(a: int, b: int) -> tuple:
        """Add a co-tree edge; returns what undoing it needs."""
        ra, rb = co_find(a), co_find(b)
        saved = (ra, rb, co_odd[rb], co_wit[rb], co_last[rb])
        if ra != rb:
            co_parent[ra] = rb
            co_odd[rb] ^= co_odd[ra]
            co_wit[rb] = co_wit[rb] or co_wit[ra]
            co_last[rb] = max(co_last[rb], co_last[ra])
        co_odd[rb] = not co_odd[rb]
        return saved

    def co_split(saved: tuple) -> None:
        ra, rb, co_odd[rb], co_wit[rb], co_last[rb] = saved
        co_parent[ra] = ra

    def settled(i: int, a: int, b: int) -> bool:
        """False when deciding edge i closed an odd unwitnessed component."""
        for v in (a, b):
            r = co_find(v)
            if co_last[r] <= i and co_odd[r] and not co_wit[r]:
                return False
        return True

    chosen: list[int] = []

    def certify() -> SpanningTreeCertificate:
        tree = frozenset(chosen)
        co_tree = [i for i in range(m) if i not in tree]
        report = components_with_parity(induced_edge_subgraph(h, co_tree), pred)
        return SpanningTreeCertificate(h, tree, report)

    def search(i: int) -> bool:
        if i == m:
            return len(chosen) == target and (accept is None or accept(certify()))
        if len(chosen) + (m - i) < target:
            return False
        a, b = ends[i]
        if len(chosen) < target:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                chosen.append(i)
                if settled(i, a, b) and search(i + 1):
                    return True
                chosen.pop()
                parent[ra] = ra
        saved = co_join(a, b)
        if settled(i, a, b) and search(i + 1):
            return True
        co_split(saved)
        return False

    if not search(0):
        return None
    return certify()


def _odd_rank_refutation(
    h: Host, witness: WitnessSpec
) -> Optional[FeasibilityAnswer]:
    """A no without tree search, when one follows from the co-tree rank.

    Every spanning tree leaves the same number of co-tree edges, the rank
    m - n + 1.  When it is odd some co-tree component is odd, and without a
    witness vertex nothing excuses it.
    """
    rank = h.edge_count - h.vertex_count + 1
    if rank % 2 == 0:
        return None
    pred = _as_predicate(witness)
    if any(pred(v) for v in range(h.vertex_count)):
        return None
    return FeasibilityAnswer(
        False,
        violated=(
            f"co-tree rank {rank} is odd and no vertex is a witness, so every "
            "spanning tree leaves an odd co-tree component",
        ),
    )


def _degree_gate(host: Host, d: int) -> Optional[str]:
    """Shared minimum-degree condition of the d-stable variants.

    A vertex with between 1 and d incident edges forces a repetition of
    order at most d (its whole edge set) in every double trace; an isolated
    vertex forces nothing, so the edgeless one-vertex graph passes
    vacuously.  A loop is one edge here, though it adds 2 to the degree.
    """
    low = [
        v
        for v in range(host.vertex_count)
        if 0 < len(host.incident(v)) <= d
    ]
    if low:
        return f"vertices {low} have positive degree at most {d}"
    return None


# ---------------------------------------------------------------------------
# E-restricted questions
# ---------------------------------------------------------------------------


def _unrestricted_edges(host: Host, r: RestrictionSet) -> list[int]:
    """The undirected edges outside the restriction, in index order."""
    und_count = len(host.edges)
    for i in r.antiparallel_edges:
        if not (0 <= i < und_count):
            raise InputError(f"restriction edge {i} out of range")
    return [i for i in range(und_count) if i not in r.antiparallel_edges]


def _odd_outside(frag: EdgeFragment) -> Optional[str]:
    bad = sorted(v for v in frag.vertices if frag.degree(v) % 2 == 1)
    if bad:
        return f"vertices {bad} have odd degree outside the restriction"
    return None


def _quotient_witnesses(cmap: ContractionMap, degree_bar: int | None) -> set[int]:
    """The contracted vertices of the quotient and those with a loop, plus
    those of quotient degree at least ``degree_bar`` when a bar is given.

    A loop excuses its vertex v.  The co-tree edges at v, the loop among
    them, lie in one component, so v is split at most once; the split hands
    one end of the loop to the copy, the loop then joins the two halves,
    and renaming the copy back leaves v with one transition class.
    """
    q = cmap.quotient
    wit = set(cmap.eprime_vertices)
    wit.update(a for a, b in q.edges if a == b)
    if degree_bar is not None:
        wit.update(v for v in range(q.vertex_count) if q.degree(v) >= degree_bar)
    return wit


def _contract_fragment(host: Host, eprime: list[int]) -> ContractionMap:
    """Contract the unrestricted edges ``eprime`` (and, on a mixed host,
    every arc)."""
    if isinstance(host, MixedGraph):
        return contract_mixed(host, eprime)
    return contract(host, eprime)


def _restricted_analysis(host: Host, r: RestrictionSet) -> ContractionMap:
    """Contract the fragment of edges outside the restriction."""
    return _contract_fragment(host, _unrestricted_edges(host, r))


def _gate_quotient(q: Host) -> None:
    """The size gate of every tree search a decider runs."""
    if q.vertex_count > TREE_SEARCH_MAX_VERTICES:
        raise CapacityError(
            f"quotient with {q.vertex_count} vertices exceeds the tree-search "
            f"limit of {TREE_SEARCH_MAX_VERTICES}"
        )
    corank = q.edge_count - q.vertex_count + 1
    if corank > TREE_SEARCH_MAX_CORANK:
        raise CapacityError(
            f"quotient co-tree rank {corank} exceeds the tree-search "
            f"limit of {TREE_SEARCH_MAX_CORANK}"
        )


def _restricted_verdict(
    host: Host, r: RestrictionSet, d: Optional[int]
) -> FeasibilityAnswer:
    """The E-restricted strong (``d`` None) or d-stable decision; E = all
    edges is the antiparallel question and E empty the parallel one.

    A trace exists iff the fragment of unrestricted edges can be walked
    twice in one direction and the quotient by it has a spanning tree whose
    odd co-tree components are all witnessed.  Only the fragment test
    depends on the host: every vertex even on an undirected host, a
    balanced orientation of each component, arcs included, on a mixed one.
    The witnesses are the contracted vertices, the vertices with a quotient
    loop and, for d-stable traces, the vertices of quotient degree at least
    2d + 2.  The refutation, the gate and the tree search all read the
    quotient itself, loops and parallel edges included; with nothing
    contracted it is the host.  An undirected host's positive verdict also
    carries its even fragment.
    """
    bar = None
    if d is not None:
        bad = _degree_gate(host, d)
        if bad is not None:
            return FeasibilityAnswer(False, violated=(bad,))
        bar = 2 * d + 2
    eprime = _unrestricted_edges(host, r)
    frag = None
    if isinstance(host, MixedGraph):
        bad = _unbalanced_fragment(host, eprime)
    else:
        frag = induced_edge_subgraph(host, eprime)
        bad = _odd_outside(frag)
    if bad is not None:
        return FeasibilityAnswer(False, violated=(bad,))
    cmap = _contract_fragment(host, eprime)
    witnesses = _quotient_witnesses(cmap, bar)
    refuted = _odd_rank_refutation(cmap.quotient, witnesses)
    if refuted is not None:
        return refuted
    _gate_quotient(cmap.quotient)
    cert = find_admissible_tree(cmap.quotient, witnesses)
    if cert is not None:
        return FeasibilityAnswer(True, cert, frag, analysis=cmap)
    reason = (
        "every spanning tree of the quotient leaves an odd co-tree component "
        "without a contracted or looped vertex"
    )
    if bar is not None:
        reason += f" or a vertex of quotient degree >= {bar}"
    return FeasibilityAnswer(False, violated=(reason,))


def decide(query: TraceQuery) -> FeasibilityAnswer:
    """Whether ``query.host`` has the trace ``query`` asks for, with the
    evidence.  The shape ``(require_strong, d, restriction)`` names the
    question and its characterization:

    * ``(True, 0, None)``, strong: every connected host has one.
    * ``(False, d >= 1, None)``, d-stable: exactly when every vertex with an
      edge has more than d distinct incident edges.
    * ``(False, 0, E)``, double: E antiparallel and the rest parallel, with
      repetitions allowed; exactly when every degree outside E is even.
    * ``(True, 0, E)`` and ``(False, d >= 1, E)``, E-restricted strong and
      d-stable: the fragment outside E can be walked twice in one direction,
      and the quotient by it has a spanning tree whose odd co-tree
      components all hold a contracted vertex, a vertex with a loop, or,
      for d-stable traces, a vertex of quotient degree at least 2d + 2.
      With E empty this is the parallel question, which holds exactly on
      Eulerian hosts; with E = every edge it is the antiparallel one, which
      for strong traces needs a spanning tree of the host whose odd co-tree
      components all hold a looped vertex, so on a simple host all are
      even.  On a mixed host each component of the fragment, arcs
      included, needs a direction-respecting Euler tour.

    Host kinds, by shape; a refused cell raises InputError:

    * simple graph: every shape;
    * multigraph: strong, d-stable and double; restricted only with E empty
      or E = every edge (the parallel and antiparallel questions, searched
      on the multigraph itself), since a loop outside another E can break
      the build;
    * mixed graph: restricted only, as arcs fix their own directions.

    A query both strong and d-stable, or neither and without E, asks none
    of these and raises InputError.  A disconnected host raises
    PreconditionError; connectivity is checked once, here.
    """
    host, r, d = query.host, query.restriction, query.d
    if query.require_strong and d:
        raise InputError("a query asks a strong or a d-stable trace, not both")
    if not query.require_strong and not d and r is None:
        raise InputError("a query without a restriction asks a strong or a d-stable trace")
    restricted = r is not None and (query.require_strong or d > 0)
    if isinstance(host, MixedGraph) and not restricted:
        raise InputError("a mixed host answers only restricted queries; arcs fix their own directions")
    if (
        isinstance(host, Multigraph)
        and restricted
        and r.antiparallel_edges not in (frozenset(), frozenset(range(host.edge_count)))
    ):
        raise InputError("the restricted variant needs a simple graph or a mixed graph")
    _reject_disconnected(host)
    if restricted:
        return _restricted_verdict(host, r, d or None)
    frag = bad = None
    if d:
        bad = _degree_gate(host, d)
    elif r is not None:
        frag = induced_edge_subgraph(host, _unrestricted_edges(host, r))
        bad = _odd_outside(frag)
    if bad is not None:
        return FeasibilityAnswer(False, violated=(bad,))
    return FeasibilityAnswer(True, even_fragment=frag)


# ---------------------------------------------------------------------------
# Mixed-graph fragments
# ---------------------------------------------------------------------------


def _balanced_orientation(host: Host, edges: Sequence[int]) -> Optional[list[int]]:
    """Orient the undirected ones of ``edges``, given in ascending order, so
    that every vertex has equal in- and out-degree over all of them, or
    report that none exists.  Max-flow matching tails to edges; the k-th
    result entry is 0 when the k-th undirected edge keeps its stored order
    and 1 when it is reversed."""
    split = len(host.edges)  # arcs are indexed after the undirected edges
    und = [host.endpoints(i) for i in edges if i < split]
    arcs = [host.endpoints(i) for i in edges if i >= split]
    degree: dict[int, int] = {}
    for a, b in und + arcs:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    nverts = sorted(degree)
    out_a: dict[int, int] = {v: 0 for v in nverts}
    in_a: dict[int, int] = {v: 0 for v in nverts}
    for t, h in arcs:
        out_a[t] += 1
        in_a[h] += 1
    for v in nverts:
        if degree[v] % 2 != 0:
            return None
        half = degree[v] // 2
        if out_a[v] > half or in_a[v] > half:
            return None
    if not und:
        return [] if all(out_a[v] == in_a[v] for v in nverts) else None

    # nodes: 0 = source, 1 = sink, vertices, then one node per undirected edge
    vid = {v: 2 + k for k, v in enumerate(nverts)}
    eid0 = 2 + len(nverts)
    size = eid0 + len(und)
    cap: list[dict[int, int]] = [dict() for _ in range(size)]

    def add(u: int, w: int, c: int) -> None:
        cap[u][w] = cap[u].get(w, 0) + c
        cap[w].setdefault(u, 0)

    for v in nverts:
        quota = degree[v] // 2 - out_a[v]
        if quota > 0:
            add(0, vid[v], quota)
    for k, (a, b) in enumerate(und):
        add(vid[a], eid0 + k, 1)
        add(vid[b], eid0 + k, 1)
        add(eid0 + k, 1, 1)

    # Ford-Fulkerson with BFS augmenting paths; tiny networks only
    flow = 0
    while True:
        prev = [-1] * size
        prev[0] = 0
        queue = [0]
        while queue and prev[1] == -1:
            u = queue.pop(0)
            for w, c in cap[u].items():
                if c > 0 and prev[w] == -1:
                    prev[w] = u
                    queue.append(w)
        if prev[1] == -1:
            break
        # bottleneck is always 1 on these unit-ish networks
        path = []
        node = 1
        while node != 0:
            path.append((prev[node], node))
            node = prev[node]
        bottleneck = min(cap[u][w] for u, w in path)
        for u, w in path:
            cap[u][w] -= bottleneck
            cap[w][u] = cap[w].get(u, 0) + bottleneck
        flow += bottleneck
    if flow != len(und):
        return None
    # a saturated vertex->edge unit marks that vertex as the edge's tail
    tails = []
    for k, (a, b) in enumerate(und):
        tails.append(0 if cap[vid[a]][eid0 + k] == 0 else 1)
    return tails


def _unbalanced_fragment(b: MixedGraph, eprime: Collection[int]) -> Optional[str]:
    """The first component, by least vertex, of the eprime undirected edges
    plus every arc that no direction-respecting Euler tour covers."""
    frag = induced_edge_subgraph(b, [*eprime, *range(len(b.edges), b.edge_count)])
    for comp in sorted(components_with_parity(frag), key=lambda c: min(c.vertices)):
        if _balanced_orientation(b, sorted(comp.edges)) is None:
            return (
                f"fragment component on vertices {sorted(comp.vertices)} admits no "
                "direction-respecting Euler tour"
            )
    return None
