"""Host structures: graphs, fragments, contraction, simplification."""

import itertools
import pickle
import random

import pytest

from doubletrace import graphs
from doubletrace.errors import InputError
from doubletrace.graphs import (
    Graph,
    MixedGraph,
    Multigraph,
    automorphisms,
    complete_graph,
    components_with_parity,
    contract,
    contract_mixed,
    cycle_graph,
    induced_edge_subgraph,
    is_connected,
    is_even_subgraph,
    path_graph,
    simplify_multigraph,
)


def brute_spanning_trees(g):
    # independent of the package's tree search: try every (n-1)-subset
    n = g.vertex_count
    out = []
    for combo in itertools.combinations(range(g.edge_count), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for i in combo:
            a, b = g.endpoints(i)
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok and len({find(v) for v in range(n)}) == 1:
            out.append(frozenset(combo))
    return out


class TestGraph:
    def test_basic_accessors(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.endpoints(0) == (0, 1)
        assert g.degree(1) == 2
        assert g.incident(0) == (0,)
        assert not g.is_arc(0)

    def test_rejects_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])

    def test_degree_bounds(self):
        assert complete_graph(4).min_degree() == 3


class TestMultigraph:
    def test_loop_counts_twice(self):
        m = Multigraph(1, [(0, 0)])
        assert m.degree(0) == 2

    def test_parallel_edges(self):
        m = Multigraph(2, [(0, 1), (0, 1)])
        assert m.degree(0) == 2
        assert m.incident(0) == (0, 1)

    def test_incident_lists_loop_once(self):
        m = Multigraph(2, [(0, 0), (0, 1)])
        assert m.incident(0) == (0, 1)


class TestMixedGraph:
    def test_degree_sums_all_incidences(self):
        b = MixedGraph(3, edges=[(0, 1)], arcs=[(1, 2), (2, 1)])
        assert b.degree(1) == 3

    def test_edge_indexing_arcs_after_edges(self):
        b = MixedGraph(2, edges=[(0, 1)], arcs=[(0, 1)])
        assert b.edge_count == 2
        assert not b.is_arc(0)
        assert b.is_arc(1)

    def test_rejects_duplicate_arc(self):
        with pytest.raises(InputError):
            MixedGraph(2, edges=[], arcs=[(0, 1), (0, 1)])


class TestConnectivity:
    def test_single_vertex(self):
        assert is_connected(Graph(1, []))

    def test_two_isolated(self):
        assert not is_connected(Graph(2, []))

    def test_path(self):
        assert is_connected(path_graph(5))

    def test_mixed_ignores_arc_direction(self):
        b = MixedGraph(2, edges=[], arcs=[(1, 0)])
        assert is_connected(b)


def seeded_hosts(seed, count=60):
    """Hosts of all three kinds on 0..6 vertices: loops and parallel edges
    on the multigraphs, arcs both ways on the mixed ones."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, 6)
        pairs = list(itertools.combinations(range(n), 2))
        out.append(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
        if n:
            ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
            out.append(Multigraph(n, ends))
        ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
        out.append(MixedGraph(
            n,
            edges=rng.sample(pairs, rng.randint(0, len(pairs))),
            arcs=rng.sample(ordered, rng.randint(0, min(len(ordered), 6))),
        ))
    return out


def brute_connected(n, ends):
    reached = {0} if n else set()
    grew = True
    while grew:
        grew = False
        for a, b in ends:
            if (a in reached) != (b in reached):
                reached |= {a, b}
                grew = True
    return len(reached) == n


class TestHostOperations:
    """Every host operation against a recomputation from edges and arcs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        kinds = set()
        for h in seeded_hosts(seed):
            kinds.add(type(h))
            ends = list(h.edges) + list(h.arcs)
            assert h.edge_count == len(ends)
            for i, (a, b) in enumerate(ends):
                assert h.endpoints(i) == (a, b)
                assert h.is_arc(i) == (i >= len(h.edges))
            for v in range(h.vertex_count):
                assert h.incident(v) == tuple(
                    i for i, (a, b) in enumerate(ends) if v in (a, b)
                )
                assert h.degree(v) == sum((a == v) + (b == v) for a, b in ends)
            assert is_connected(h) == brute_connected(h.vertex_count, ends)
        assert kinds == {Graph, Multigraph, MixedGraph}

    def test_one_connectivity_search_per_host(self, monkeypatch):
        searched = []
        search = graphs._search_connected
        monkeypatch.setattr(
            graphs, "_search_connected", lambda h: searched.append(h) or search(h)
        )
        hosts = seeded_hosts(3, count=10)
        for _ in range(4):
            for h in hosts:
                is_connected(h)
        assert len(searched) == len(hosts)
        assert all(a is b for a, b in zip(searched, hosts))

    def test_pickle_round_trip(self):
        for h in (
            Multigraph(3, [(0, 0), (0, 1), (0, 1), (1, 2)]),
            MixedGraph(3, edges=[(0, 1)], arcs=[(1, 2), (2, 1)]),
            complete_graph(4),
        ):
            before = pickle.dumps(h)
            is_connected(h)  # fills the caches, which must not travel
            assert pickle.dumps(h) == before
            copy = pickle.loads(before)
            assert type(copy) is type(h)
            assert copy == h and hash(copy) == hash(h)
            assert copy.degree(0) == h.degree(0)
            assert is_connected(copy)


class TestFragments:
    def test_induced_degrees(self):
        g = cycle_graph(4)
        frag = induced_edge_subgraph(g, [0, 1])
        assert frag.degree(1) == 2
        assert frag.degree(3) == 0

    def test_even_subgraph(self):
        g = cycle_graph(4)
        assert is_even_subgraph(induced_edge_subgraph(g, range(4)))
        assert not is_even_subgraph(induced_edge_subgraph(g, [0]))
        assert is_even_subgraph(induced_edge_subgraph(g, []))


class TestComponentParity:
    def test_triangle_plus_edge(self):
        # co-tree style fragment: a triangle and a disjoint single edge
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        report = components_with_parity(induced_edge_subgraph(g, range(4)))
        sizes = sorted(c.edge_count for c in report)
        assert sizes == [1, 3]
        assert all(c.odd for c in report)

    def test_parity_is_edge_count_not_degree(self):
        # a path with two edges is even even though its middle vertex is
        g = path_graph(3)
        report = components_with_parity(induced_edge_subgraph(g, [0, 1]))
        (comp,) = tuple(report)
        assert comp.edge_count == 2
        assert not comp.odd

    def test_witness_flags(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        report = components_with_parity(
            induced_edge_subgraph(g, range(4)), witness={0}
        )
        by_size = {c.edge_count: c for c in report}
        assert by_size[3].has_witness
        assert not by_size[1].has_witness

    def test_callable_witness(self):
        g = path_graph(3)
        report = components_with_parity(
            induced_edge_subgraph(g, [0]), witness=lambda v: v == 1
        )
        (comp,) = tuple(report)
        assert comp.has_witness


class TestContraction:
    def test_contract_one_edge(self):
        g = cycle_graph(4)
        cm = contract(g, [0])
        assert cm.quotient.vertex_count == 3
        # surviving edges keep their relative order
        assert len(cm.edge_origin) == 3
        assert cm.eprime_vertices
        merged = cm.component_vertices(next(iter(cm.eprime_vertices)))
        assert set(merged) == {0, 1}

    def test_contract_all(self):
        g = cycle_graph(3)
        cm = contract(g, range(3))
        assert cm.quotient.vertex_count == 1
        assert cm.quotient.edge_count == 0

    def test_quotient_can_have_loops_and_parallels(self):
        g = complete_graph(4)
        cm = contract(g, [0])  # merge vertices 0,1
        q = cm.quotient
        assert isinstance(q, Multigraph)
        # 0-2 and 1-2 become parallel edges at the merged vertex
        assert q.edge_count == 5

    def test_vertex_image_total(self):
        g = complete_graph(4)
        cm = contract(g, [0])
        assert len(cm.vertex_image) == 4
        assert all(0 <= x < cm.quotient.vertex_count for x in cm.vertex_image)

    def test_contract_mixed_merges_arcs_too(self):
        b = MixedGraph(3, edges=[(0, 1), (1, 2)], arcs=[(2, 0)])
        cm = contract_mixed(b, [0])
        # the restricted edge and the arc together collapse all three
        # vertices; the surviving free edge closes into a loop
        assert cm.quotient.vertex_count == 1
        assert cm.quotient.edge_count == 1
        a, b2 = cm.quotient.endpoints(0)
        assert a == b2


class TestSimplify:
    def test_identity_on_simple(self):
        m = Multigraph(3, [(0, 1), (1, 2)])
        s = simplify_multigraph(m)
        assert s.is_identity
        assert s.graph.edge_count == 2

    def test_loop_becomes_triangle(self):
        m = Multigraph(1, [(0, 0)])
        s = simplify_multigraph(m)
        assert s.graph.vertex_count == 3
        assert s.graph.edge_count == 3
        assert len(s.edge_paths[0]) == 3

    def test_parallel_pair_split(self):
        m = Multigraph(2, [(0, 1), (0, 1)])
        s = simplify_multigraph(m)
        # every member of a parallel class gets a midpoint
        assert s.graph.vertex_count == 4
        assert s.graph.edge_count == 4
        assert sorted(len(p) for p in s.edge_paths) == [2, 2]

    def test_midpoints_know_their_origin(self):
        m = Multigraph(2, [(0, 1), (0, 1)])
        s = simplify_multigraph(m)
        added = {v: s.vertex_origin[v]
                 for v in range(s.graph.vertex_count) if s.vertex_origin[v] >= 0}
        assert sorted(added.values()) == [0, 1]


class TestAutomorphisms:
    def count(self, g):
        return len(automorphisms(g))

    def test_counts(self):
        assert self.count(complete_graph(4)) == 24
        assert self.count(path_graph(3)) == 2
        assert self.count(cycle_graph(5)) == 10
        assert self.count(Graph(1, [])) == 1

    def test_each_is_an_automorphism(self):
        g = cycle_graph(5)
        eset = {frozenset(e) for e in g.edges}
        for perm in automorphisms(g):
            mapped = {frozenset((perm[a], perm[b])) for a, b in g.edges}
            assert mapped == eset


def reference_automorphisms(g):
    """The previous search: the same candidate order, but each candidate
    image is checked against every earlier vertex in turn."""
    n = g.vertex_count
    if n == 0:
        return ((),)
    adj = [[False] * n for _ in range(n)]
    for a, b in g.edges:
        adj[a][b] = adj[b][a] = True
    deg = [g.degree(v) for v in range(n)]
    result = []
    image = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            result.append(tuple(image))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if any(adj[v][u] != adj[w][image[u]] for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
        image[v] = -1

    extend(0)
    return tuple(result)


class TestAutomorphismsMatchReference:
    """The bitmask search returns the reference's permutations, in order."""

    def test_every_connected_graph_up_to_6_vertices(self):
        count = 0
        for n in range(7):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                g = Graph(n, [p for k, p in enumerate(pairs) if bits >> k & 1])
                if n and not is_connected(g):
                    continue
                assert automorphisms(g) == reference_automorphisms(g), g
                count += 1
        assert count == 1 + 1 + 1 + 4 + 38 + 728 + 26704

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_graphs_7_to_10_vertices(self, seed):
        rng = random.Random(seed)
        for n in range(7, 11):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(8):
                g = Graph(n, rng.sample(pairs, rng.randint(n - 1, len(pairs))))
                assert automorphisms(g) == reference_automorphisms(g), g

    def test_k33(self):
        g = Graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
        auts = automorphisms(g)
        assert auts == reference_automorphisms(g)
        assert len(auts) == 72


class TestBuilders:
    def test_complete(self):
        assert complete_graph(5).edge_count == 10

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.edge_count == 6
        assert all(g.degree(v) == 2 for v in range(6))

    def test_path(self):
        g = path_graph(4)
        assert g.edge_count == 3


class TestSpanningTreeOracle:
    # sanity for the brute enumerator itself, reused by other test modules
    def test_known_counts(self):
        assert len(brute_spanning_trees(complete_graph(4))) == 16
        assert len(brute_spanning_trees(cycle_graph(4))) == 4
        assert len(brute_spanning_trees(path_graph(4))) == 1
