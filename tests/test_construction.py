"""Builders: tours, surgery, and the restricted-trace pipelines."""

import itertools
import random
import sys
import time

import pytest

from doubletrace import construction, search_backend, traces
from doubletrace.construction import (
    _balanced_split,
    _euler_circuit,
    _free_direction_trace,
    _restricted_double_trace,
    _split_graph,
    _t_join_certificate,
    antiparallel_double_trace_with_repetitions_in,
    antiparallel_strong_trace,
    construct,
    euler_tour,
    merge_closed_walks,
    parallel_strong_trace,
    reduce_repetition,
)
from doubletrace.errors import (
    InputError,
    InternalConsistencyError,
    PreconditionError,
    SurgeryInapplicableError,
)
from doubletrace.feasibility import (
    SpanningTreeCertificate,
    _quotient_witnesses,
    _restricted_analysis,
    decide,
    find_admissible_tree,
)
from doubletrace.graphs import (
    Graph,
    MixedGraph,
    Multigraph,
    TraceQuery,
    complete_graph,
    components_with_parity,
    contract_mixed,
    cycle_graph,
    induced_edge_subgraph,
    is_connected,
    path_graph,
)
from doubletrace.traces import (
    ANTIPARALLEL,
    PARALLEL,
    ClosedWalk,
    DoubleTrace,
    RestrictionSet,
    WalkIndex,
    check_restriction,
    classify_directions,
    is_d_stable,
    is_strong,
    step_head,
    transition_system,
    validate_double_trace,
)

from test_acceptance import small_iso_types
from test_feasibility import ask, build
from test_graphs import brute_spanning_trees

C3 = cycle_graph(3)
C5 = cycle_graph(5)
K4 = complete_graph(4)
K5 = complete_graph(5)
FIG8 = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
EMPTY = RestrictionSet.of([])
K4_STAR = RestrictionSet.of([0, 1, 2])  # the edges at vertex 0
# seeded restricted hosts whose fragment is a triangle and whose 1-stable
# verdict rests on a high-degree vertex; the first two split the verdict's
# own tree, the third only a later one
DEGREE_BAR_CASES = (
    (
        Graph(8, [(0, 1), (0, 3), (0, 5), (0, 6), (0, 7), (1, 2), (1, 5), (2, 4), (2, 5),
                  (3, 4), (4, 5), (6, 7)]),
        RestrictionSet.of([0, 1, 2, 3, 4, 5, 6, 9, 11]),
    ),
    (
        Graph(10, [(0, 3), (0, 4), (0, 6), (0, 7), (1, 3), (1, 7), (2, 4), (2, 9), (3, 5),
                   (3, 8), (3, 9), (4, 5), (4, 6), (7, 8)]),
        RestrictionSet.of([0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13]),
    ),
    (
        Graph(12, [(0, 3), (6, 8), (0, 5), (0, 4), (3, 6), (5, 7), (4, 10), (2, 8), (0, 1),
                   (4, 8), (1, 7), (0, 9), (10, 11), (2, 7), (4, 11), (5, 11), (4, 6), (7, 9)]),
        RestrictionSet.of([0, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17]),
    ),
)
# 6 vertices; the fragment, edge 2-5 and arc 5 -> 2, contracts {2, 5}, and
# the order-1 certificate rests on vertex 4, of degree 4
MIXED_BAR = MixedGraph(
    6,
    [(1, 2), (0, 4), (4, 5), (3, 4), (2, 5), (0, 2), (0, 3), (3, 5), (0, 5), (1, 4)],
    [(5, 2)],
)
MIXED_BAR_R = RestrictionSet.of([0, 1, 2, 3, 5, 6, 7, 8, 9])


def wheel(k):
    """Hub 0 joined to the rim cycle 1..k."""
    rim = [(i, i % k + 1) for i in range(1, k + 1)]
    return Graph(k + 1, rim + [(0, i) for i in range(1, k + 1)])


def assert_d_stable_restricted(w, r, d):
    assert validate_double_trace(w).ok
    assert check_restriction(w, r)
    assert is_d_stable(w, d)


def direction_multiset(w):
    counts = {}
    for s in w.steps:
        counts[s] = counts.get(s, 0) + 1
    return counts


def repetition_count(w):
    total = 0
    for v in set(w.vertices()):
        total += len(transition_system(w, v).components) - 1
    return total


def connected_even_graphs(n):
    """All connected labeled graphs on n vertices with every degree even."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1, 1 << len(pairs)):
        edges = tuple(pairs[k] for k in range(len(pairs)) if bits >> k & 1)
        g = Graph(n, edges)
        if all(g.degree(v) % 2 == 0 for v in range(n)) and is_connected(g):
            out.append(g)
    return out


def connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[k] for k in range(len(pairs)) if bits >> k & 1)
        g = Graph(n, edges)
        if is_connected(g):
            out.append(g)
    return out


def labeled_trees(n):
    """Every labeled tree on n vertices, decoded from its Prufer sequence."""
    if n <= 2:
        yield [(0, 1)] if n == 2 else []
        return
    for code in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in code:
            degree[x] += 1
        edges = []
        for x in code:
            leaf = degree.index(1)
            edges.append((leaf, x))
            degree[leaf] -= 1
            degree[x] -= 1
        edges.append(tuple(v for v in range(n) if degree[v] == 1))
        yield edges


def tree_walk_reference(g):
    """Walk around a tree from vertex 0: each edge down then back up,
    children by edge index (the construction's tree case, written as a
    depth-first search)."""
    down = {v: [] for v in range(g.vertex_count)}
    for i, (a, b) in enumerate(g.edges):
        down[a].append((i, 0))
        down[b].append((i, 1))
    steps = []

    def visit(v, entry):
        for step in down[v]:
            if entry is None or step[0] != entry[0]:
                steps.append(step)
                visit(step_head(g, step), step)
                steps.append((step[0], 1 - step[1]))

    if g.vertex_count:
        visit(0, None)
    return tuple(steps)


def tree_certificate(g, tree):
    tree = frozenset(tree)
    co_tree = [i for i in range(g.edge_count) if i not in tree]
    return SpanningTreeCertificate(
        g, tree, components_with_parity(induced_edge_subgraph(g, co_tree))
    )


def parse_pairs(text, n):
    return Graph(n, [tuple(map(int, p.split("-"))) for p in text.split()])


def assert_antiparallel_strong(w):
    assert validate_double_trace(w).ok
    assert is_strong(w)
    assert check_restriction(w, RestrictionSet.of(range(w.host.edge_count)))


class TestEulerTour:
    def test_triangle(self):
        t = euler_tour(C3)
        assert t.steps == ((0, 0), (1, 0), (2, 0))

    def test_single_vertex(self):
        assert euler_tour(Graph(1, [])).steps == ()

    def test_two_loops(self):
        hub = Multigraph(1, [(0, 0), (0, 0)])
        t = euler_tour(hub)
        assert t.steps == ((0, 0), (1, 0))

    def test_figure_eight_graph(self):
        t = euler_tour(FIG8)
        assert len(t.steps) == 6
        assert sorted(e for e, _ in t.steps) == list(range(6))
        # chained and closed
        for k in range(6):
            assert t.head(k) == t.tail((k + 1) % 6)

    def test_odd_degree_rejected(self):
        with pytest.raises(PreconditionError):
            euler_tour(path_graph(3))

    def test_disconnected_rejected(self):
        two = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(PreconditionError):
            euler_tour(two)

    def test_fragment_of_larger_host(self):
        frag = induced_edge_subgraph(FIG8, [0, 1, 2])
        t = euler_tour(frag)
        assert sorted(e for e, _ in t.steps) == [0, 1, 2]

    def test_arc_directions_respected(self):
        b = MixedGraph(3, (), ((0, 1), (1, 2), (2, 0)))
        t = euler_tour(b)
        assert t.steps == ((0, 0), (1, 0), (2, 0))

    def test_mixed_orients_undirected_edges(self):
        # path 0-1-2 closed by a return arc
        b = MixedGraph(3, [(0, 1), (1, 2)], [(2, 0)])
        t = euler_tour(b)
        assert len(t.steps) == 3
        for k in range(3):
            assert t.head(k) == t.tail((k + 1) % 3)

    def test_mixed_unbalanced_rejected(self):
        b = MixedGraph(3, [(0, 1), (1, 2)], [(0, 2), (2, 0)])
        with pytest.raises(PreconditionError):
            euler_tour(b)

    def test_deterministic(self):
        assert euler_tour(K5).steps == euler_tour(K5).steps


class TestParallelStrongTrace:
    def test_triangle_is_doubled_tour(self):
        w = parallel_strong_trace(C3)
        assert w.steps == ((0, 0), (1, 0), (2, 0), (0, 0), (1, 0), (2, 0))

    @pytest.mark.parametrize("g", [C3, C5, FIG8, K5])
    def test_valid_strong_all_parallel(self, g):
        w = parallel_strong_trace(g)
        assert validate_double_trace(w).ok
        assert is_strong(w)
        assert set(classify_directions(w)) == {PARALLEL}

    def test_every_small_eulerian_graph(self):
        graphs = connected_even_graphs(4) + connected_even_graphs(5)
        assert graphs
        for g in graphs:
            w = parallel_strong_trace(g)
            assert validate_double_trace(w).ok
            assert is_strong(w)
            assert set(classify_directions(w)) == {PARALLEL}

    def test_loops(self):
        hub = Multigraph(1, [(0, 0), (0, 0)])
        w = parallel_strong_trace(hub)
        assert validate_double_trace(w).ok
        assert is_strong(w)

    def test_non_eulerian_rejected(self):
        with pytest.raises(PreconditionError):
            parallel_strong_trace(K4)


class TestMergeClosedWalks:
    def test_two_triangles_at_shared_vertex(self):
        t1 = ClosedWalk(FIG8, ((0, 0), (1, 0), (2, 0)))
        t2 = ClosedWalk(FIG8, ((3, 0), (4, 0), (5, 0)))
        m = merge_closed_walks(t1, t2, 0)
        assert m.steps == ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0))

    def test_splice_point_mid_walk(self):
        t1 = ClosedWalk(FIG8, ((1, 0), (2, 0), (0, 0)))  # arrives at 0 mid-way
        t2 = ClosedWalk(FIG8, ((4, 0), (5, 0), (3, 0)))
        m = merge_closed_walks(t1, t2, 0)
        assert direction_multiset(m) == {s: 1 for s in t1.steps + t2.steps}
        for k in range(len(m.steps)):
            assert m.head(k) == m.tail((k + 1) % len(m.steps))

    def test_empty_operand_returned_unchanged(self):
        t1 = ClosedWalk(FIG8, ((0, 0), (1, 0), (2, 0)))
        empty = ClosedWalk(FIG8, ())
        assert merge_closed_walks(t1, empty, 0) is t1
        assert merge_closed_walks(empty, t1, 0) is t1

    def test_vertex_must_occur_in_both(self):
        t1 = ClosedWalk(FIG8, ((0, 0), (1, 0), (2, 0)))
        t2 = ClosedWalk(FIG8, ((3, 0), (4, 0), (5, 0)))
        with pytest.raises(PreconditionError):
            merge_closed_walks(t1, t2, 2)

    def test_host_mismatch(self):
        t1 = ClosedWalk(C3, ((0, 0), (1, 0), (2, 0)))
        t2 = ClosedWalk(C5, ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0)))
        with pytest.raises(InputError):
            merge_closed_walks(t1, t2, 0)

    def test_multiset_preserved_many_instances(self):
        count = 0
        for g in connected_even_graphs(5):
            tour = euler_tour(g)
            L = len(tour.steps)
            for cut in range(1, L):
                w1 = ClosedWalk(g, tour.steps)
                w2 = ClosedWalk(g, tour.steps[cut:] + tour.steps[:cut])
                v = w2.tail(0)
                m = merge_closed_walks(w1, w2, v)
                want = direction_multiset(w1)
                for s, c in direction_multiset(w2).items():
                    want[s] = want.get(s, 0) + c
                assert direction_multiset(m) == want
                count += 1
                if count >= 60:
                    return
        assert count >= 60

    def test_seeded_multigraph_double_traces(self):
        # loops and parallel edges on both sides of the restriction; the
        # build runs no surgery, which would stall at a loop
        rng = random.Random(1973)
        built = loops = 0
        while built < 200:
            n = rng.randint(1, 6)
            edges = [(rng.randrange(k), k) for k in range(1, n)]
            edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 6))]
            g = Multigraph(n, edges)
            r = RestrictionSet.of(i for i in range(len(edges)) if rng.random() < 0.5)
            if not ask(g, "double", None, r):
                continue
            w = _restricted_double_trace(g, r)
            assert validate_double_trace(w).ok
            assert check_restriction(w, r)
            built += 1
            loops += any(a == b for a, b in edges)
        assert loops > 100


class TestEulerCircuit:
    def test_leaves_each_vertex_by_its_first_unused_piece(self):
        # 0 -> 3 first, then 3 -> 4 -> 0, then 0 -> 1 -> 2 and 2 -> 0
        pieces = [((3, 0),), ((0, 0), (1, 0)), ((4, 0), (5, 0)), ((2, 0),)]
        assert _euler_circuit(FIG8, pieces) == ((3, 0), (4, 0), (5, 0), (0, 0), (1, 0), (2, 0))

    def test_seeded_shuffles_close_on_every_piece_once(self):
        rng = random.Random(26)
        for g in connected_even_graphs(5):
            pieces = [(s,) for s in euler_tour(g).steps * 2]
            rng.shuffle(pieces)
            w = ClosedWalk(g, _euler_circuit(g, pieces))
            assert sorted(w.steps) == sorted(s for (s,) in pieces)
            assert all(w.head(k - 1) == w.tail(k) for k in range(len(w)))

    def test_unbalanced_pieces_raise(self):
        # both pieces are single steps: 0 -> 1 and 1 -> 2
        with pytest.raises(InternalConsistencyError, match="unbalanced at vertices \\[0, 2\\]"):
            _euler_circuit(FIG8, [((0, 0),), ((1, 0),)])

    def test_disconnected_pieces_raise(self):
        two = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(InternalConsistencyError, match="not connected"):
            _euler_circuit(two, [((e, 0),) for e in range(6)])


class TestReduceRepetition:
    def doubled(self, g):
        t = euler_tour(g)
        return DoubleTrace(g, t.steps + t.steps)

    def test_figure_eight_hub(self):
        w = self.doubled(FIG8)
        assert len(transition_system(w, 0).components) == 2
        w2 = reduce_repetition(w, 0)
        assert len(transition_system(w2, 0).components) == 1
        assert direction_multiset(w2) == direction_multiset(w)

    def test_other_vertices_untouched(self):
        w = self.doubled(FIG8)
        w2 = reduce_repetition(w, 0)
        for v in range(1, 5):
            before = sorted(map(sorted, transition_system(w, v).links))
            after = sorted(map(sorted, transition_system(w2, v).links))
            assert before == after

    def test_strictly_decreasing_until_strong(self):
        for g in connected_even_graphs(5):
            w = self.doubled(g)
            total = repetition_count(w)
            for v in range(g.vertex_count):
                while len(transition_system(w, v).components) > 1:
                    w = reduce_repetition(w, v)
                    now = repetition_count(w)
                    assert now < total
                    total = now
            assert is_strong(w)

    def test_already_strong_rejected(self):
        w = parallel_strong_trace(C3)
        with pytest.raises(SurgeryInapplicableError):
            reduce_repetition(w, 0)

    def test_two_occurrences_rejected(self):
        # there-and-back over each parallel edge: two one-edge classes at
        # vertex 1 but only two visits
        m = Multigraph(2, [(0, 1), (0, 1)])
        w = DoubleTrace(m, ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert len(transition_system(w, 1).components) == 2
        with pytest.raises(SurgeryInapplicableError):
            reduce_repetition(w, 1)

    def test_no_same_direction_edge_rejected(self):
        cert = find_admissible_tree(K4, {0})
        w = antiparallel_double_trace_with_repetitions_in(K4, {0}, cert)
        assert len(transition_system(w, 0).components) == 2
        with pytest.raises(SurgeryInapplicableError):
            reduce_repetition(w, 0)


class TestAntiparallelStrongTrace:
    def test_path_boundary_walk(self):
        ans = ask(path_graph(4), "antiparallel")
        w = antiparallel_strong_trace(path_graph(4), ans.certificate)
        assert w.steps == ((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1))

    def test_star_boundary_walk(self):
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        ans = ask(star, "antiparallel")
        w = antiparallel_strong_trace(star, ans.certificate)
        assert w.steps == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))

    def test_single_vertex(self):
        g = Graph(1, [])
        ans = ask(g, "antiparallel")
        assert antiparallel_strong_trace(g, ans.certificate).steps == ()

    def test_diamond(self):
        ans = ask(DIAMOND, "antiparallel")
        w = antiparallel_strong_trace(DIAMOND, ans.certificate)
        assert validate_double_trace(w).ok
        assert is_strong(w)
        assert set(classify_directions(w)) == {ANTIPARALLEL}

    def test_every_positive_small_graph(self):
        for g in connected_graphs(4) + connected_graphs(5):
            ans = ask(g, "antiparallel")
            if not ans:
                continue
            w = antiparallel_strong_trace(g, ans.certificate)
            assert validate_double_trace(w).ok
            assert is_strong(w)
            assert set(classify_directions(w)) <= {ANTIPARALLEL}

    def test_foreign_certificate_rejected(self):
        ans = ask(path_graph(4), "antiparallel")
        with pytest.raises(PreconditionError):
            antiparallel_strong_trace(path_graph(5), ans.certificate)

    def test_odd_component_certificate_rejected(self):
        # K4 has no all-even spanning tree; a witness cert is not enough here
        cert = find_admissible_tree(K4, {0})
        with pytest.raises(PreconditionError):
            antiparallel_strong_trace(K4, cert)

    def test_deterministic(self):
        ans = ask(DIAMOND, "antiparallel")
        w1 = antiparallel_strong_trace(DIAMOND, ans.certificate)
        w2 = antiparallel_strong_trace(DIAMOND, ans.certificate)
        assert w1.steps == w2.steps

    def test_never_reaches_the_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("construction called the search kernel")

        monkeypatch.setattr(search_backend, "run", refuse)
        ans = ask(DIAMOND, "antiparallel")
        assert_antiparallel_strong(antiparallel_strong_trace(DIAMOND, ans.certificate))
        w = build(K4, "restricted", None, K4_STAR)
        assert check_restriction(w, K4_STAR)
        w5 = wheel(5)
        every = RestrictionSet.of(range(w5.edge_count))
        assert_d_stable_restricted(build(w5, "restricted", 1, every), every, 1)
        for g, r in DEGREE_BAR_CASES:
            # no contracted vertex excuses the verdict's tree
            cert = ask(g, "restricted", 1, r).certificate
            assert not cert.revalidate(_quotient_witnesses(_restricted_analysis(g, r), None))
            assert_d_stable_restricted(build(g, "restricted", 1, r), r, 1)
        w = build(MIXED_BAR, "restricted", 1, MIXED_BAR_R)
        assert_d_stable_restricted(w, MIXED_BAR_R, 1)

    def test_tree_walk_matches_reference(self):
        rng = random.Random(11)
        for n in range(1, 7):
            for edges in labeled_trees(n):
                shuffled = [tuple(rng.sample(e, 2)) for e in edges]
                rng.shuffle(shuffled)
                for tree in (edges, shuffled):
                    g = Graph(n, tree)
                    w = antiparallel_strong_trace(g, tree_certificate(g, range(n - 1)))
                    assert w.steps == tree_walk_reference(g), tree

    @pytest.mark.parametrize("n", [9, 10, 13])
    def test_complete_graph_star_tree(self, n):
        # the star at vertex 0 leaves K_(n-1), whose edge count is even
        g = complete_graph(n)
        star = [i for i, e in enumerate(g.edges) if 0 in e]
        w = antiparallel_strong_trace(g, tree_certificate(g, star))
        assert_antiparallel_strong(w)

    def test_seeded_tree_plus_pairs_sweep(self):
        # co-tree edges arrive as edge-disjoint paths of two edges, so every
        # co-tree component is even whatever the pairs share
        rng = random.Random(2016)
        sizes = []
        while len(sizes) < 40:
            n = rng.randint(8, 40)
            target = rng.randint(20, 200)
            order = list(range(n))
            rng.shuffle(order)
            edges = [(order[rng.randrange(k)], order[k]) for k in range(1, n)]
            used = {frozenset(e) for e in edges}
            for _ in range(20 * target):
                if len(edges) + 2 > target:
                    break
                v, a, b = rng.sample(range(n), 3)
                pair = [frozenset((v, a)), frozenset((v, b))]
                if not used.isdisjoint(pair):
                    continue
                used.update(pair)
                edges += [(v, a), (b, v)]
            if len(edges) < 20:
                continue
            g = Graph(n, edges)
            w = antiparallel_strong_trace(g, tree_certificate(g, range(n - 1)))
            assert_antiparallel_strong(w)
            sizes.append(g.edge_count)
        assert min(sizes) >= 20 and max(sizes) > 150

    def test_seeded_multigraph_loops_and_parallels(self):
        rng = random.Random(1979)
        for _ in range(200):
            n = rng.randint(1, 7)
            edges = [(rng.randrange(k), k) for k in range(1, n)]
            for _ in range(rng.randint(1, 5)):
                v, a, b = (rng.randrange(n) for _ in range(3))
                edges += [(v, a), (b, v)]
            g = Multigraph(n, edges)
            w = antiparallel_strong_trace(g, tree_certificate(g, range(n - 1)))
            assert validate_double_trace(w).ok
            assert is_strong(w)
            assert set(classify_directions(w)) == {ANTIPARALLEL}

    def test_slow_kernel_draw_builds_fast(self):
        # 10 vertices, 21 edges: the exhaustive kernel ran past 35 s on it
        g = parse_pairs(
            "7-4 6-0 8-0 4-5 3-1 8-9 4-6 5-7 1-6 4-9 7-8 5-6 9-3 7-2 7-6 "
            "6-8 1-9 8-3 6-3 5-9 9-6",
            10,
        )
        start = time.perf_counter()
        ans = ask(g, "antiparallel")
        w = antiparallel_strong_trace(g, ans.certificate)
        assert time.perf_counter() - start < 1.0
        assert_antiparallel_strong(w)


class TestRepetitionsConfined:
    def check(self, g, witness):
        cert = find_admissible_tree(g, witness)
        assert cert is not None
        w = antiparallel_double_trace_with_repetitions_in(g, witness, cert)
        assert validate_double_trace(w).ok
        assert set(classify_directions(w)) <= {ANTIPARALLEL}
        for v in range(g.vertex_count):
            if v not in witness:
                assert len(transition_system(w, v).components) == 1
        return w

    def test_triangle_witness(self):
        self.check(C3, {0})

    def test_k4_witness(self):
        self.check(K4, {0})

    def test_k5_witness_pair(self):
        self.check(K5, {0, 1})

    def test_full_witness_small_sweep(self):
        for g in connected_graphs(4):
            self.check(g, set(range(4)))

    def test_wrong_witness_rejected(self):
        cert = find_admissible_tree(K4, {0})
        with pytest.raises(PreconditionError):
            antiparallel_double_trace_with_repetitions_in(K4, set(), cert)


class TestRestrictedStrongPipeline:
    def test_k4_star_golden(self):
        w = build(K4, "restricted", None, K4_STAR)
        assert w.steps == (
            (4, 1), (3, 0), (1, 1), (2, 0), (4, 1), (0, 1),
            (1, 0), (5, 0), (2, 1), (0, 0), (3, 0), (5, 0),
        )
        assert validate_double_trace(w).ok
        assert is_strong(w)
        assert check_restriction(w, K4_STAR)

    def test_slow_kernel_draw_builds_fast(self):
        # 13 vertices, 22 edges: the kernel took 31 s on its quotient
        g = parse_pairs(
            "10-1 9-11 7-8 9-10 10-5 11-6 9-3 5-4 11-3 1-11 8-1 7-1 5-11 "
            "3-0 12-11 12-1 4-12 7-3 9-7 10-7 2-9 11-4",
            13,
        )
        r = RestrictionSet.of([3, 5, 7, 9, 13, 14, 17, 18, 19, 20])
        start = time.perf_counter()
        w = build(g, "restricted", None, r)
        assert time.perf_counter() - start < 1.0
        assert validate_double_trace(w).ok
        assert is_strong(w)
        assert check_restriction(w, r)

    def test_empty_restriction_branch(self):
        w = build(C3, "restricted", None, EMPTY)
        assert w.steps == parallel_strong_trace(C3).steps

    def test_full_restriction_branch(self):
        tree = Graph(4, [(0, 1), (0, 2), (0, 3)])
        w = build(tree, "restricted", None, RestrictionSet.of(range(3)))
        assert set(classify_directions(w)) == {ANTIPARALLEL}
        assert is_strong(w)

    def test_infeasible_rejected(self):
        # restricting one triangle edge leaves odd degrees outside it
        with pytest.raises(PreconditionError):
            build(C3, "restricted", None, RestrictionSet.of([0]))

    def test_all_small_graphs_all_restrictions(self):
        for g in connected_graphs(4):
            for bits in range(1 << g.edge_count):
                r = RestrictionSet.of(
                    i for i in range(g.edge_count) if bits >> i & 1
                )
                ans = ask(g, "restricted", None, r)
                if not ans:
                    continue
                w = build(g, "restricted", None, r)
                assert validate_double_trace(w).ok
                assert is_strong(w)
                assert check_restriction(w, r)

    def test_t_join_tree_takes_the_forest_first(self):
        # the T-join leaves the triangle 1-3-5 to contract; in plain index
        # order edge 4-6 would close a cycle through it and leave the tree
        # with no contracted end
        g = Graph(7, [(0, 6), (1, 2), (1, 3), (1, 5), (2, 6), (3, 5), (4, 5), (4, 6)])
        r, answer = _t_join_certificate(g)
        assert r.antiparallel_edges == {0, 1, 4, 6, 7}
        assert answer.certificate.revalidate(_quotient_witnesses(_restricted_analysis(g, r), None))
        w = _free_direction_trace(g)
        assert validate_double_trace(w).ok
        assert is_strong(w)

    def test_deterministic(self):
        w1 = build(K4, "restricted", None, K4_STAR)
        w2 = build(K4, "restricted", None, K4_STAR)
        assert w1.steps == w2.steps


class TestRestrictedDStable:
    def test_k4_star_order_two(self):
        w = build(K4, "restricted", 2, K4_STAR)
        assert validate_double_trace(w).ok
        assert is_d_stable(w, 2)
        assert check_restriction(w, K4_STAR)

    def test_k5_unrestricted_order_three(self):
        w = build(K5, "restricted", 3, EMPTY)
        assert validate_double_trace(w).ok
        assert is_d_stable(w, 3)

    def test_min_degree_gate(self):
        with pytest.raises(PreconditionError):
            build(C3, "restricted", 2, EMPTY)

    def test_high_degree_witness_split(self):
        # wheel: no all-even tree exists, but the hub has degree 5, so the
        # order-1 verdict rests on the hub, which is split into two halves
        g = wheel(5)
        r = RestrictionSet.of(range(g.edge_count))
        assert not ask(g, "antiparallel")
        w = build(g, "restricted", 1, r)
        assert_d_stable_restricted(w, r, 1)
        assert set(classify_directions(w)) == {ANTIPARALLEL}
        hub = transition_system(w, 0).components
        assert len(hub) == 2 and min(len(c) for c in hub) >= 2

    def test_no_split_raises_without_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("construction called the search kernel")

        monkeypatch.setattr(search_backend, "run", refuse)
        monkeypatch.setattr(construction, "_balanced_split", lambda *a: None)
        # every admissible tree of the 5-wheel leaves an odd component that
        # only the hub excuses
        with pytest.raises(InternalConsistencyError, match="degree-bar"):
            build(wheel(5), "restricted", 1, RestrictionSet.of(range(10)))

    def test_wheels_and_order_two(self):
        # the hub of W_k has degree k; order 2 needs k >= 6
        for k, d in ((6, 1), (7, 1), (9, 1), (11, 1), (6, 2), (7, 2), (11, 2)):
            g = wheel(k)
            r = RestrictionSet.of(range(g.edge_count))
            assert_d_stable_restricted(build(g, "restricted", d, r), r, d)


def admissible_trees(h, witness):
    """Every spanning tree of h whose odd co-tree components hold a witness."""
    for tree in brute_spanning_trees(h):
        tree = frozenset(tree)
        co = [i for i in range(h.edge_count) if i not in tree]
        report = components_with_parity(induced_edge_subgraph(h, co), witness)
        if all(not c.odd or c.has_witness for c in report):
            yield tree, report


def split_works(h, tree, comp_edges, v, d, moved, f):
    """The three split conditions, checked on the split graph itself."""
    if not d + 1 <= len(moved) <= h.degree(v) - d - 1:
        return False
    n = h.vertex_count
    edges = [
        tuple(n if u == v and i in moved else u for u in h.endpoints(i))
        for i in range(h.edge_count)
    ]
    split = Multigraph(n + 1, edges)
    if not is_connected(Multigraph(n + 1, [edges[i] for i in tree | {f}])):
        return False
    pieces = components_with_parity(induced_edge_subgraph(split, comp_edges - {f}))
    return all(not p.odd for p in pieces)


class TestBalancedSplit:
    def compare(self, h, witness, contracted, d):
        """Polynomial choice against every partition of E(v) and every f,
        for every admissible tree; returns the number of cases compared."""
        return sum(
            self.compare_tree(h, tree, report, witness, d, contracted)
            for tree, report in admissible_trees(h, witness)
        )

    def compare_tree(self, h, tree, report, witness, d, contracted=lambda v: False):
        cases = 0
        for comp in report:
            if not comp.odd or any(contracted(u) for u in comp.vertices):
                continue
            for v in sorted(u for u in comp.vertices if witness(u)):
                at_v = h.incident(v)
                exists = any(
                    split_works(h, tree, comp.edges, v, d, frozenset(m), f)
                    for k in range(len(at_v) + 1)
                    for m in itertools.combinations(at_v, k)
                    for f in comp.edges
                )
                chosen = _balanced_split(h, tree, comp.edges, v, d)
                assert (chosen is not None) == exists, (h.edges, tree, v, d)
                if chosen is not None:
                    assert split_works(h, tree, comp.edges, v, d, *chosen)
                cases += 1
        return cases

    def test_matches_brute_force_up_to_five_vertices(self):
        cases = 0
        for g in small_iso_types():
            for bits in range(1 << g.edge_count):
                r = RestrictionSet.of(i for i in range(g.edge_count) if bits >> i & 1)
                frag = induced_edge_subgraph(g, r.complement(g))
                if any(frag.degree(v) % 2 for v in frag.vertices):
                    continue
                cmap = _restricted_analysis(g, r)
                contracted = _quotient_witnesses(cmap, None)
                for d in (1, 2):
                    witness = _quotient_witnesses(cmap, 2 * d + 2)
                    if witness <= contracted:
                        continue
                    cases += self.compare(
                        cmap.quotient, witness.__contains__, contracted.__contains__, d
                    )
        assert cases > 100

    def test_matches_brute_force_seeded_trees(self):
        # larger vertices, with pieces of C - f that touch v more than once,
        # under seeded random spanning trees, admissible or not
        rng = random.Random(1979)
        cases = 0
        while cases < 60:
            n = rng.randint(6, 7)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph(n, rng.sample(pairs, rng.randint(2 * n, len(pairs) - 2)))
            if not is_connected(g):
                continue
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            tree = set()
            for e in rng.sample(range(g.edge_count), g.edge_count):
                ra, rb = (find(u) for u in g.endpoints(e))
                if ra != rb:
                    parent[ra] = rb
                    tree.add(e)
            co = [i for i in range(g.edge_count) if i not in tree]
            report = components_with_parity(induced_edge_subgraph(g, co))
            for comp in report:
                if comp.odd and max(g.degree(v) for v in comp.vertices) >= 4:
                    witness = lambda v: v in comp.vertices and g.degree(v) >= 4
                    cert_report = components_with_parity(
                        induced_edge_subgraph(g, co), witness
                    )
                    cases += self.compare_tree(g, frozenset(tree), cert_report, witness, 1)

    def test_matches_brute_force_order_two(self):
        # order 2 needs degree 6, beyond five vertices: a hub joined to six
        # vertices, plus three disjoint rim edges or a rim path
        spokes = [(0, i) for i in range(1, 7)]
        cases = 0
        for rim in ([(1, 2), (3, 4), (5, 6)], [(i, i + 1) for i in range(1, 6)]):
            g = Graph(7, spokes + rim)
            witness = lambda v: v == 0
            cases += self.compare(g, witness, lambda v: False, 2)
        assert cases > 10


class TestSplitGraph:
    def test_every_admissible_tree_up_to_five_vertices(self):
        splits = refusals = 0
        for g in small_iso_types():
            n = g.vertex_count
            # every vertex excused pins the choice of the least one
            sets = [set()] + [{v} for v in range(n)] + [set(range(n))]
            for d, excused in itertools.product((1, 2), sets):
                high = {v for v in range(n) if g.degree(v) >= 2 * d + 2}
                for tree, report in admissible_trees(g, excused | high):
                    split = _split_graph(g, SpanningTreeCertificate(g, tree, report), excused, d)
                    odd = [c for c in report if c.odd]
                    if split is None:
                        assert any(self.unsplittable(g, tree, c, high, d) for c in odd
                                   if excused.isdisjoint(c.vertices)), (g.edges, tree, d)
                        refusals += 1
                        continue
                    assert split.revalidate()
                    h = split.host
                    assert h.vertex_count == n + len(odd)
                    back = {}
                    for ends, host_ends in zip(h.edges, g.edges):
                        for u, w in zip(ends, host_ends):
                            back.setdefault(u, w)
                    assert [(back[a], back[b]) for a, b in h.edges] == list(g.edges)
                    assert all(back[v] == v for v in range(n) if v in back)
                    # the k-th odd component's copy is of one of its vertices
                    for k, comp in enumerate(odd):
                        assert back[n + k] in comp.vertices
                        if not excused.isdisjoint(comp.vertices):
                            assert back[n + k] == min(excused & comp.vertices)
                    splits += 1
        assert splits > 4000 and refusals > 0

    @staticmethod
    def unsplittable(g, tree, comp, high, d):
        """Whether no vertex of degree >= 2d + 2 splits the component, by
        brute force over every edge set at it and every co-tree edge."""
        return not any(
            split_works(g, tree, comp.edges, v, d, frozenset(moved), f)
            for v in comp.vertices & high
            for k in range(g.degree(v) + 1)
            for moved in itertools.combinations(g.incident(v), k)
            for f in comp.edges
        )


class TestMixedBuilder:
    def test_no_arcs_matches_plain_builder(self):
        b = MixedGraph(4, K4.edges, ())
        wm = build(b, "restricted", None, K4_STAR)
        wp = build(K4, "restricted", None, K4_STAR)
        assert wm.steps == wp.steps

    def test_directed_triangle_doubled_tour(self):
        b = MixedGraph(3, (), ((0, 1), (1, 2), (2, 0)))
        w = build(b, "restricted", None, EMPTY)
        assert w.steps == ((0, 0), (1, 0), (2, 0), (0, 0), (1, 0), (2, 0))

    def test_loop_quotient(self):
        # contract the arc pair between 0 and 1: edge (0,1) becomes a loop
        b = MixedGraph(3, [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 0)])
        r = RestrictionSet.of([0, 1, 2])
        w = build(b, "restricted", None, r)
        assert validate_double_trace(w).ok
        assert is_strong(w)
        assert check_restriction(w, r)

    def test_no_fragment_lift(self):
        b = MixedGraph(4, DIAMOND.edges, ())
        r = RestrictionSet.of(range(5))
        w = build(b, "restricted", None, r)
        assert validate_double_trace(w).ok
        assert is_strong(w)
        assert check_restriction(w, r)

    def test_mixed_d_stable(self):
        b = MixedGraph(3, [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 0)])
        r = RestrictionSet.of([0, 1, 2])
        w = build(b, "restricted", 1, r)
        assert validate_double_trace(w).ok
        assert is_d_stable(w, 1)
        assert check_restriction(w, r)

    def test_mixed_d_stable_high_degree_split(self):
        # the order-1 certificate rests on vertex 4, of degree 4, not on a
        # contracted vertex, so vertex 4 is split into two halves of two
        w = build(MIXED_BAR, "restricted", 1, MIXED_BAR_R)
        assert w.steps == (
            (7, 1), (3, 0), (2, 0), (10, 0), (5, 1), (8, 0), (10, 0), (0, 1),
            (9, 0), (1, 1), (5, 0), (4, 0), (8, 1), (6, 0), (7, 0), (2, 1),
            (3, 1), (6, 1), (1, 0), (9, 1), (0, 0), (4, 0),
        )
        assert_d_stable_restricted(w, MIXED_BAR_R, 1)
        assert sorted(len(c) for c in transition_system(w, 4).components) == [2, 2]

    def test_seeded_degree_bar_sweep(self):
        # mixed hosts on up to 4 vertices never need a degree-bar witness:
        # a vertex outside the contraction has at most 3 edges there; so the
        # sweep draws 5- and 6-vertex hosts and keeps the 1-stable positives
        # whose certificate no contracted vertex excuses
        rng = random.Random(1610)
        built = 0
        for _ in range(20000):
            n = rng.randint(5, 6)
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randint(n, len(pairs)))
            arcs = {tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))}
            b = MixedGraph(n, edges, sorted(arcs))
            if not is_connected(b):
                continue
            r = RestrictionSet.of(i for i in range(len(edges)) if rng.random() < 0.7)
            answer = ask(b, "restricted", 1, r)
            if not answer or not r.antiparallel_edges:
                continue
            cmap = contract_mixed(
                b, [i for i in range(len(edges)) if i not in r.antiparallel_edges]
            )
            if answer.certificate.revalidate(cmap.eprime_vertices):
                continue
            assert_d_stable_restricted(build(b, "restricted", 1, r), r, 1)
            built += 1
        assert built >= 40

    def test_infeasible_rejected(self):
        b = MixedGraph(3, [(0, 1), (1, 2)], [(0, 2), (2, 0)])
        with pytest.raises(PreconditionError):
            build(b, "restricted", None, EMPTY)

    def test_small_positive_sweep(self):
        # every weakly connected mixed graph on 3 vertices with at most
        # 5 traversables, every restriction of its undirected edges
        pairs = list(itertools.combinations(range(3), 2))
        arcpairs = [(a, b) for a, b in itertools.permutations(range(3), 2)]
        built = 0
        for ebits in range(1 << len(pairs)):
            edges = tuple(pairs[k] for k in range(len(pairs)) if ebits >> k & 1)
            for abits in range(1 << len(arcpairs)):
                arcs = tuple(
                    arcpairs[k] for k in range(len(arcpairs)) if abits >> k & 1
                )
                if not (0 < len(edges) + len(arcs) <= 5):
                    continue
                b = MixedGraph(3, edges, arcs)
                if not is_connected(b):
                    continue
                for rbits in range(1 << len(edges)):
                    r = RestrictionSet.of(
                        i for i in range(len(edges)) if rbits >> i & 1
                    )
                    if not ask(b, "restricted", None, r):
                        continue
                    w = build(b, "restricted", None, r)
                    assert validate_double_trace(w).ok
                    assert is_strong(w)
                    assert check_restriction(w, r)
                    built += 1
        assert built > 50


def seeded_graph(rng, n, m):
    """A connected simple graph: a random spanning tree plus random edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    edges = sorted(edges)
    rng.shuffle(edges)
    return Graph(n, edges)


def seeded_mixed(rng, n):
    """A connected mixed host: a random spanning tree of edges and arcs,
    plus a few random edges and arcs."""
    und, arcs = set(), set()
    for v in range(1, n):
        u = rng.randrange(v)
        if rng.random() < 0.3:
            arcs.add((u, v) if rng.random() < 0.5 else (v, u))
        else:
            und.add((u, v))
    for _ in range(rng.randint(1, n + 2)):
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.3:
            arcs.add((a, b))
        else:
            und.add((min(a, b), max(a, b)))
    return MixedGraph(n, sorted(und), sorted(arcs))


def reference_repair(walk, vertices):
    """The repair as a loop of the public transition_system and
    reduce_repetition, rescanning the walk for every vertex and cut."""
    for v in vertices:
        while len(transition_system(walk, v).components) > 1:
            walk = reduce_repetition(walk, v)
    return walk


class TestBuildEveryPositive:
    """Every restricted positive builds through ``construct`` from its
    own verdict, with the kernel refused, into a valid trace of its kind.
    E empty and E = every edge are the parallel and antiparallel questions;
    ``test_cli.TestRoutedVariants`` builds those under their own names on
    the same graphs."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a positive build reached the kernel")

        monkeypatch.setattr(search_backend, "run", refuse)

    def build(self, host, variant, d, file_r):
        q = TraceQuery.for_variant(host, variant, d, file_r)
        answer = decide(q)
        if not answer:
            return 0
        walk = construct(q, answer)
        r = q.restriction
        assert validate_double_trace(walk).ok, (host, r, d)
        assert check_restriction(walk, r), (host, r, d)
        assert is_strong(walk) if d is None else is_d_stable(walk, d), (host, r, d)
        return 1

    def test_small_simple_graphs_every_restriction(self):
        built = 0
        for n in range(1, 6):
            for g in connected_graphs(n):
                m = g.edge_count
                at = [sum(1 << i for i in g.incident(v)) for v in range(n)]
                for mask in range(1 << m):
                    # a vertex of odd degree outside E refutes every order d
                    # (the decider's first test), so only even complements
                    # have a trace to build
                    if any(bin(bits & ~mask).count("1") % 2 for bits in at):
                        continue
                    r = RestrictionSet.of(i for i in range(m) if mask >> i & 1)
                    for d in (None, 1, 2):
                        built += self.build(g, "restricted", d, r)
        assert built > 5000

    def test_seeded_mixed_hosts(self):
        rng = random.Random(1717)
        built = 0
        for _ in range(1500):
            b = seeded_mixed(rng, rng.randint(3, 7))
            r = RestrictionSet.of(i for i in range(len(b.edges)) if rng.random() < 0.5)
            for d in (None, 1, 2):
                built += self.build(b, "restricted", d, r)
        assert built > 100


class TestIndexedRepair:
    """The repair plans every cut from one index of the walk and returns the
    steps that the loop of the public ``transition_system`` and
    ``reduce_repetition`` reaches."""

    def doubled_tours(self, rng, count):
        """Rotated doubled Euler tours of seeded connected even multigraphs,
        with their vertices."""
        while count:
            n = rng.randint(2, 10)
            edges = []
            for _ in range(rng.randint(1, 4)):
                cycle = [rng.randrange(n) for _ in range(rng.randint(2, 6))]
                edges += [(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]) if a != b]
            g = Multigraph(n, edges)
            frag = induced_edge_subgraph(g, range(len(edges)))
            if not edges or len(components_with_parity(frag)) > 1:
                continue
            steps = euler_tour(frag).steps * 2
            k = rng.randrange(len(steps))
            yield DoubleTrace(g, steps[k:] + steps[:k]), sorted(frag.vertices)
            count -= 1

    def test_seeded_doubled_tours(self):
        cuts = 0
        for walk, vertices in self.doubled_tours(random.Random(23), 400):
            want = reference_repair(walk, vertices)
            assert construction._repair_to_strong(walk, vertices, "tour").steps == want.steps
            cuts += want.steps != walk.steps
        assert cuts > 200

    def test_each_cut_joins_the_two_classes_it_cuts(self):
        joins = 0
        for walk, vertices in self.doubled_tours(random.Random(29), 200):
            surgery = construction._Surgery(walk, WalkIndex(walk.host, walk.steps))
            for v in vertices:
                classes = surgery.index.classes(v)
                while len(classes) > 1:
                    classes = surgery.join(v, classes)
                    steps = surgery.result().steps
                    assert classes == WalkIndex(walk.host, steps).classes(v)
                    joins += 1
        assert joins > 200

    def test_seeded_assembled_walks(self, monkeypatch):
        seen = []
        original = construction._repair_to_strong

        def spy(walk, vertices, what):
            out = original(walk, vertices, what)
            if what == "assembled trace":
                seen.append((walk, vertices, out))
            return out

        monkeypatch.setattr(construction, "_repair_to_strong", spy)
        rng = random.Random(42)
        while len(seen) < 150:
            n = rng.randint(4, 9)
            g = seeded_graph(rng, n, rng.randint(n, min(2 * n, n * (n - 1) // 2)))
            r = RestrictionSet.of(i for i in range(g.edge_count) if rng.random() < 0.5)
            for d in (None, 1):
                q = TraceQuery.for_variant(g, "restricted", d, r)
                answer = decide(q)
                if answer:
                    construct(q, answer)
        cuts = 0
        for walk, vertices, out in seen:
            want = reference_repair(walk, vertices)
            assert out.steps == want.steps
            cuts += want.steps != walk.steps
        assert cuts > 50


class CountingSteps(tuple):
    """A step tuple that counts the steps read from it."""

    reads = 0

    def __getitem__(self, i):
        item = tuple.__getitem__(self, i)
        self.reads += len(item) if isinstance(i, slice) else 1
        return item

    def __iter__(self):
        for step in tuple.__iter__(self):
            self.reads += 1
            yield step


class TestLinearPasses:
    """Counts, not times: a strong build rescans the walk for no vertex, and
    the strong and d-stable checks read each step a fixed number of times."""

    def strong_trace(self, m):
        g = seeded_graph(random.Random(m), m // 2, m)
        return build(g, "strong")

    def test_strong_build_at_800_edges_rescans_nothing(self, monkeypatch):
        calls = []
        for fn in (traces.transition_system, construction.reduce_repetition):

            def spy(*args, fn=fn):
                calls.append(fn.__name__)
                return fn(*args)

            for name, module in list(sys.modules.items()):
                if name.startswith("doubletrace") and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, spy)
        walk = self.strong_trace(800)
        assert calls == []
        assert validate_double_trace(walk).ok
        assert is_strong(walk)

    @pytest.mark.parametrize("m", [200, 800])
    def test_checks_read_each_step_three_times(self, m):
        walk = self.strong_trace(m)
        steps = CountingSteps(walk.steps)
        counted = ClosedWalk._of(walk.host, steps)
        assert is_strong(counted)
        assert steps.reads == 3 * len(steps)
        for d in (1, 2):
            steps.reads = 0
            assert is_d_stable(counted, d) == is_d_stable(walk, d)
            # it stops at the first vertex with a class of at most d edges
            assert 0 < steps.reads <= 3 * len(steps)
