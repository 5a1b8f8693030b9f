"""Decision procedures and their certificates."""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from doubletrace import feasibility
from doubletrace.errors import CapacityError, InputError, PreconditionError
from doubletrace.construction import construct
from doubletrace.feasibility import (
    SpanningTreeCertificate,
    _as_predicate,
    _balanced_orientation,
    _quotient_witnesses,
    _reject_disconnected,
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
    cycle_graph,
    induced_edge_subgraph,
    is_connected,
    path_graph,
    simplify_multigraph,
)
from doubletrace.traces import RestrictionSet

from test_benchmarks import BENCH_SCALE, load
from test_graphs import brute_spanning_trees
from test_search_backend import connected_multigraphs

K1 = Graph(1, [])
C3 = cycle_graph(3)
K4 = complete_graph(4)
K5 = complete_graph(5)
DIAMOND = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
KERNEL_SLOTS = Path(__file__).parent.parent / "e2ebench" / "kernel_slots.json"


def ask(host, variant, d=None, r=None):
    """The verdict on one named variant: ``decide`` of its query."""
    return decide(TraceQuery.for_variant(host, variant, d, r))


def build(host, variant, d=None, r=None):
    """The trace behind the verdict on one named variant."""
    q = TraceQuery.for_variant(host, variant, d, r)
    return construct(q, decide(q))


def mixed_euler_feasible(b):
    """Whether a closed walk can traverse every undirected edge and arc
    exactly once, respecting arc directions: one balanced orientation."""
    _reject_disconnected(b)
    return _balanced_orientation(b, range(b.edge_count)) is not None


def assert_balances(b, edges, tails):
    """Every vertex is entered as often as it is left over ``edges``, with
    the k-th undirected one reversed when ``tails[k]`` is 1."""
    flips = iter(tails)
    surplus = [0] * b.vertex_count
    for i in edges:
        t, h = b.endpoints(i)
        if not b.is_arc(i) and next(flips):
            t, h = h, t
        surplus[t] += 1
        surplus[h] -= 1
    assert next(flips, None) is None
    assert not any(surplus), surplus


def mixed_cut_condition(b, *, max_vertices=8):
    """All-subsets formulation: for every vertex set X the crossing count
    e(X) minus the arc imbalance across X must be non-negative and even.
    Exponential, so it refuses more than ``max_vertices`` vertices."""
    _reject_disconnected(b)
    n = b.vertex_count
    if n > max_vertices:
        raise CapacityError(f"{n} vertices exceeds the subset-check limit {max_vertices}")
    for mask in range(1 << n):
        inset = {v for v in range(n) if mask >> v & 1}
        e_cross = sum(1 for a, c in b.edges if (a in inset) != (c in inset))
        a_out = sum(1 for t, h in b.arcs if t in inset and h not in inset)
        a_in = sum(1 for t, h in b.arcs if h in inset and t not in inset)
        f = e_cross - abs(a_out - a_in)
        if f < 0 or f % 2 != 0:
            return False
    return True


def icosahedron():
    # apex 0, upper ring 1..5, lower ring 6..10, apex 11
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(6 + j, 6 + (j + 1) % 5) for j in range(5)]
    edges += [(i, 5 + i) for i in range(1, 6)]
    edges += [(i, 6 + i % 5) for i in range(1, 6)]
    edges += [(11, 6 + j) for j in range(5)]
    return Graph(12, edges)


def dodecahedron():
    # the generalized Petersen graph GP(10, 2)
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(i, 10 + i) for i in range(10)]
    edges += [(10 + i, 10 + (i + 2) % 10) for i in range(10)]
    return Graph(20, edges)


def tree_is_admissible_by_hand(g, tree, witness=None):
    # reference check: components of the co-tree by brute union-find
    witness = witness or (lambda v: False)
    co = [e for e in range(g.edge_count) if e not in tree]
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    verts = set()
    for e in co:
        verts.update(g.endpoints(e))
    for v in verts:
        parent[v] = v
    for e in co:
        a, b = g.endpoints(e)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    comps = {}
    for e in co:
        r = find(g.endpoints(e)[0])
        comps.setdefault(r, []).append(e)
    for r, es in comps.items():
        cverts = set()
        for e in es:
            cverts.update(g.endpoints(e))
        if len(es) % 2 == 1 and not any(witness(v) for v in cverts):
            return False
    return True


class TestUnrestricted:
    def test_strong_always(self):
        for g in (K1, C3, K4, path_graph(4)):
            assert ask(g, "strong")

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            ask(Graph(3, [(0, 1)]), "strong")

    def test_d_stable_is_min_degree(self):
        assert ask(K4, "dstable", 2)
        assert not ask(K4, "dstable", 3)
        assert ask(C3, "dstable", 1)
        assert not ask(C3, "dstable", 2)
        assert not ask(path_graph(3), "dstable", 1)

    def test_isolated_vertex_forces_nothing(self):
        # a lone vertex carries the empty trace, which repeats nothing
        assert ask(K1, "dstable", 1)
        assert ask(K1, "dstable", 7)

    def test_d_must_be_positive(self):
        # d = 0 bounds nothing in a query, so the variant refuses it
        for variant in ("dstable", "antiparallel", "parallel", "restricted"):
            with pytest.raises(InputError, match="at least 1"):
                TraceQuery.for_variant(C3, variant, 0)


class TestQueryShapes:
    """``decide`` reads the shape (require_strong, d, restriction); the
    shapes no variant produces, and the host kinds a shape does not fit,
    raise InputError."""

    def test_strong_and_d_stable_at_once(self):
        with pytest.raises(InputError, match="not both"):
            decide(TraceQuery(K4, require_strong=True, d=1))
        with pytest.raises(InputError, match="not both"):
            decide(TraceQuery(K4, require_strong=True, d=1, restriction=RestrictionSet.of(())))

    def test_empty_shape(self):
        with pytest.raises(InputError, match="without a restriction"):
            decide(TraceQuery(K4))

    def test_mixed_host_needs_a_restricted_shape(self):
        b = MixedGraph(2, edges=[], arcs=[(0, 1), (1, 0)])
        for q in (
            TraceQuery(b, require_strong=True),
            TraceQuery(b, d=1),
            TraceQuery(b, restriction=RestrictionSet.of(())),
        ):
            with pytest.raises(InputError, match="mixed host"):
                decide(q)
        assert decide(TraceQuery(b, require_strong=True, restriction=RestrictionSet.of(())))
        for variant in ("strong", "dstable", "parallel", "antiparallel", "double"):
            with pytest.raises(InputError, match="only the restricted variant"):
                TraceQuery.for_variant(b, variant)

    def test_multigraph_restricted_only_at_the_extremes(self):
        h = Multigraph(2, [(0, 0), (0, 1), (0, 1)])
        for d in (None, 1):
            with pytest.raises(InputError, match="needs a simple graph or a mixed graph"):
                ask(h, "restricted", d, RestrictionSet.of((0,)))
            for edges, variant in (((), "parallel"), ((0, 1, 2), "antiparallel")):
                got = ask(h, "restricted", d, RestrictionSet.of(edges))
                want = ask(h, variant, d)
                assert (got.verdict, got.violated) == (want.verdict, want.violated)
        # the double question takes any E on a multigraph
        assert ask(h, "double", None, RestrictionSet.of((1, 2)))


class TestAntiparallel:
    def test_trees_always_admit(self):
        for g in (path_graph(2), path_graph(5), Graph(4, [(0, 1), (0, 2), (0, 3)])):
            ans = ask(g, "antiparallel")
            assert ans
            assert ans.certificate is not None

    def test_cycles_never(self):
        # the single co-tree edge is its own odd component
        for n in (3, 4, 5):
            assert not ask(cycle_graph(n), "antiparallel")

    def test_k4_fails(self):
        # every spanning tree leaves three co-tree edges, never all even
        ans = ask(K4, "antiparallel")
        assert not ans
        assert ans.violated

    def test_diamond_succeeds(self):
        # tree {02,01,03} leaves the two edges at vertex 1 as one even piece
        ans = ask(DIAMOND, "antiparallel")
        assert ans
        cert = ans.certificate
        assert cert.admissible
        assert cert.deficiency == 0

    def test_certificate_matches_some_spanning_tree(self):
        ans = ask(DIAMOND, "antiparallel")
        assert ans.certificate.tree_edges in brute_spanning_trees(DIAMOND)

    def test_exhaustive_against_brute_trees(self):
        # decision == "some spanning tree has all co-tree components even"
        for g in (C3, K4, DIAMOND, cycle_graph(4), path_graph(4)):
            expected = any(
                tree_is_admissible_by_hand(g, t) for t in brute_spanning_trees(g)
            )
            assert bool(ask(g, "antiparallel")) == expected

    def test_d_stable_needs_high_degree_witness(self):
        # K4 degrees stop at 3 < 2d+2, so d-stable antiparallel fails
        assert not ask(K4, "antiparallel", 1)
        # K5: star tree leaves the other K4 as a single 6-edge component
        ans = ask(K5, "antiparallel", 1)
        assert ans

    def test_k1_vacuous(self):
        assert ask(K1, "antiparallel")
        assert ask(K1, "antiparallel", 3)


class TestParallel:
    def test_needs_eulerian(self):
        assert ask(C3, "parallel")
        assert ask(K5, "parallel")
        assert not ask(K4, "parallel")
        assert not ask(path_graph(3), "parallel")

    def test_d_stable_adds_degree_gate(self):
        assert ask(C3, "parallel", 1)
        assert not ask(C3, "parallel", 2)
        assert ask(K5, "parallel", 3)
        assert not ask(K5, "parallel", 4)


class TestRestrictedDouble:
    def test_complement_must_be_even(self):
        star = RestrictionSet.of((0, 1, 2))  # edges at vertex 0 in K4
        ans = ask(K4, "double", None, star)
        assert ans
        assert ans.even_fragment is not None
        one = RestrictionSet.of((0,))
        assert not ask(K4, "double", None, one)

    def test_extremes_match_simple_variants(self):
        # no antiparallel edges: complement is everything, needs even graph
        assert bool(ask(K4, "double", None, RestrictionSet.of(()))) \
            == bool(ask(K4, "parallel").verdict or
                    all(K4.degree(v) % 2 == 0 for v in range(4)))
        # all antiparallel: complement empty, always even
        assert ask(K4, "double", None, RestrictionSet.of(range(6)))


class TestRestrictedStrong:
    def test_k4_star(self):
        star = RestrictionSet.of((0, 1, 2))
        ans = ask(K4, "restricted", None, star)
        assert ans
        assert ans.certificate is not None

    def test_k4_single_edge_fails_on_fragment(self):
        ans = ask(K4, "restricted", None, RestrictionSet.of((0,)))
        assert not ans

    def test_full_restriction_reduces_to_antiparallel(self):
        for g in (C3, K4, DIAMOND):
            r = RestrictionSet.of(range(g.edge_count))
            assert bool(ask(g, "restricted", None, r)) == bool(
                ask(g, "antiparallel")
            )

    def test_empty_restriction_reduces_to_parallel(self):
        for g in (C3, K4, K5):
            r = RestrictionSet.of(())
            assert bool(ask(g, "restricted", None, r)) == bool(
                ask(g, "parallel")
            )

    def test_d_stable_variant(self):
        star = RestrictionSet.of((0, 1, 2))
        assert ask(K4, "restricted", 1, star)
        assert not ask(K4, "restricted", 3, star)


class TestTreeSearch:
    def test_deterministic_lex_first(self):
        c1 = find_admissible_tree(DIAMOND)
        c2 = find_admissible_tree(DIAMOND)
        assert c1.tree_edges == c2.tree_edges

    def test_witness_widens(self):
        # C3 has no admissible tree, but any witness vertex saves it
        assert find_admissible_tree(C3) is None
        assert find_admissible_tree(C3, witness={0}) is not None

    def test_vertex_gate(self):
        # the decider gates the search; the search itself answers
        with pytest.raises(CapacityError):
            ask(path_graph(14), "antiparallel")
        assert find_admissible_tree(path_graph(14)) is not None

    def test_corank_gate(self):
        fat = Multigraph(2, [(0, 1)] * 19)  # corank 18
        with pytest.raises(CapacityError):
            ask(fat, "antiparallel")
        # the 18 co-tree edges form a single even component
        assert find_admissible_tree(fat) is not None
        # odd rank without witnesses is refuted before the gate
        odd = Multigraph(2, [(0, 1)] * 18)
        ans = ask(odd, "antiparallel")
        assert not ans
        assert "co-tree rank 17 is odd" in ans.violated[0]
        assert find_admissible_tree(odd) is None

    def test_disconnected_rejected(self):
        with pytest.raises(PreconditionError):
            find_admissible_tree(Graph(2, []))

    def test_accept_sees_every_admissible_tree_in_order(self):
        # with every vertex a witness all 16 spanning trees of K4 qualify
        k4 = complete_graph(4)
        offered = []

        def refuse(cert):
            assert cert.revalidate(range(4))
            offered.append(cert.tree_edges)
            return False

        assert find_admissible_tree(k4, range(4), accept=refuse) is None
        assert len(set(offered)) == len(offered) == 16
        assert offered[0] == find_admissible_tree(k4, range(4)).tree_edges
        third = find_admissible_tree(
            k4, range(4), accept=lambda cert: cert.tree_edges == offered[2]
        )
        assert third.tree_edges == offered[2]


def leaf_rebuild_search(h, witness=None):
    """The tree search as it was before the incremental co-tree union-find:
    the same lexicographic enumeration, but every complete tree's co-tree
    is rebuilt and analysed from scratch.  Returns (tree, report) or None."""
    pred = _as_predicate(witness)
    n, m = h.vertex_count, h.edge_count
    target = max(n - 1, 0)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    found = []

    def attempt():
        tree = frozenset(chosen)
        co_tree = [i for i in range(m) if i not in tree]
        report = components_with_parity(induced_edge_subgraph(h, co_tree), pred)
        if all(not c.odd or c.has_witness for c in report):
            found.append((tree, report))
            return True
        return False

    def search(i):
        if len(chosen) == target:
            return attempt()
        if i == m or len(chosen) + (m - i) < target:
            return False
        a, b = h.endpoints(i)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append(i)
            if search(i + 1):
                return True
            chosen.pop()
            parent[ra] = ra
        return search(i + 1)

    return found[0] if search(0) else None


def assert_same_search(h, witness):
    ref = leaf_rebuild_search(h, witness)
    cert = find_admissible_tree(h, witness)
    if ref is None:
        assert cert is None
        return False
    assert cert is not None
    assert (cert.tree_edges, cert.co_tree_report) == ref
    return True


class TestIncrementalSearchMatchesLeafRebuild:
    """The pruned search returns the first tree of the full enumeration,
    with the same report; construction orders its edges by that tree."""

    def test_all_small_connected_graphs(self):
        rng = random.Random(11)
        count = found = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
                if not is_connected(g):
                    continue
                for witness in (None, {v for v in range(n) if rng.random() < 0.3}):
                    count += 1
                    found += assert_same_search(g, witness)
        assert count == 1544
        assert 0 < found < count

    def test_seeded_multigraphs(self):
        rng = random.Random(12)
        count = found = 0
        while count < 400:
            n = rng.randint(1, 7)
            edges = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(max(n - 1, 0), n + 7))]
            h = Multigraph(n, edges)
            if not is_connected(h):
                continue
            witness = None if count % 2 else {v for v in range(n) if rng.random() < 0.2}
            count += 1
            found += assert_same_search(h, witness)
        assert 0 < found < count

    def test_kernel_slot_quotients(self):
        slots = json.loads(KERNEL_SLOTS.read_text())
        assert len(slots) == 16
        for item in slots:
            g = Graph(item["n"], item["edges"])
            anti = item["restriction"]
            r = RestrictionSet.of(range(g.edge_count) if anti is None else anti)
            cmap = _restricted_analysis(g, r)
            for bar in (None, 4):
                assert_same_search(cmap.quotient, _quotient_witnesses(cmap, bar))


class TestSearchOnTheQuotient:
    """The tree search runs on the quotient multigraph itself.  Subdividing
    its loops and parallel edges into a simple graph changes no verdict: on
    every small multigraph and every witness set, both have an admissible
    tree or neither has."""

    def test_subdivision_changes_no_verdict(self):
        pairs = found = 0
        # the edgeless vertex too, which the generator leaves out
        for n, edges in itertools.chain([(1, ())], connected_multigraphs(4, 5)):
            q = Multigraph(n, edges)
            simple = simplify_multigraph(q).graph
            for bits in range(1 << n):
                witness = {v for v in range(n) if bits >> v & 1}
                on_q = find_admissible_tree(q, witness) is not None
                on_simple = find_admissible_tree(simple, witness) is not None
                assert on_q == on_simple, (n, edges, witness)
                pairs += 1
                found += on_q
        assert pairs == 13192
        assert 0 < found < pairs


class TestOddRankRefutation:
    def test_polyhedra_refuted_by_rank(self):
        # both lie past the tree-search gates: 12 and 20 vertices
        for g, rank in ((icosahedron(), 19), (dodecahedron(), 11)):
            assert g.edge_count == 30
            assert is_connected(g)
            ans = ask(g, "antiparallel")
            assert not ans
            assert ans.certificate is None
            assert f"co-tree rank {rank} is odd" in ans.violated[0]
            full = RestrictionSet.of(range(g.edge_count))
            ans = ask(g, "restricted", None, full)
            assert not ans
            assert f"co-tree rank {rank} is odd" in ans.violated[0]

    def test_witness_sends_odd_rank_to_search(self, monkeypatch):
        calls = []

        def spy(h, witness=None, **kw):
            calls.append(h.edge_count - h.vertex_count + 1)
            return find_admissible_tree(h, witness, **kw)

        monkeypatch.setattr(feasibility, "find_admissible_tree", spy)
        # K5 plus the path 4-5-6-0: rank 7, K5's vertices reach degree 4
        g = Graph(7, list(K5.edges) + [(4, 5), (5, 6), (6, 0)])
        ans = ask(g, "antiparallel", 1)
        assert ans
        assert ans.certificate.revalidate(lambda v: g.degree(v) >= 4)
        # K5 bridged to a triangle: rank 7, and the triangle's co-tree edge
        # never reaches a vertex of degree 4
        g = Graph(8, list(K5.edges) + [(4, 5), (5, 6), (6, 7), (7, 5)])
        ans = ask(g, "antiparallel", 1)
        assert not ans
        assert "co-tree rank" not in ans.violated[0]
        # two triangles at vertex 0, the second restricted: the quotient is
        # a triangle (rank 1) through the contracted first one
        g = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        ans = ask(g, "restricted", None, RestrictionSet.of((3, 4, 5)))
        assert ans
        assert ans.certificate is not None
        assert calls == [7, 7, 1]


class TestCertificateRevalidation:
    def test_good_certificate_survives(self):
        cert = ask(DIAMOND, "antiparallel").certificate
        assert cert.revalidate()

    def test_tampered_tree_detected(self):
        cert = ask(DIAMOND, "antiparallel").certificate
        swapped_in = next(e for e in range(DIAMOND.edge_count)
                          if e not in cert.tree_edges)
        kept = sorted(cert.tree_edges)[:2]
        bad = SpanningTreeCertificate(
            host=cert.host,
            tree_edges=frozenset(kept) | {swapped_in},
            co_tree_report=cert.co_tree_report,
        )
        assert not bad.revalidate()

    def test_stale_report_detected(self):
        good = ask(DIAMOND, "antiparallel").certificate
        other = find_admissible_tree(C3, witness={0})
        forged = SpanningTreeCertificate(
            host=good.host,
            tree_edges=good.tree_edges,
            co_tree_report=other.co_tree_report,
        )
        assert not forged.revalidate()


class TestMixed:
    def euler_by_hand(self, b):
        # all-subsets formulation on the vertex set
        if not is_connected(b):
            return False
        return mixed_cut_condition(b)

    def test_two_opposite_arcs(self):
        b = MixedGraph(2, edges=[], arcs=[(0, 1), (1, 0)])
        assert mixed_euler_feasible(b)

    def test_one_arc_fails(self):
        b = MixedGraph(2, edges=[], arcs=[(0, 1)])
        assert not mixed_euler_feasible(b)

    def test_arc_plus_edge(self):
        b = MixedGraph(2, edges=[(0, 1)], arcs=[(0, 1)])
        # orient the edge backwards and both vertices balance
        assert mixed_euler_feasible(b)

    def test_orientation_matches_cut_condition(self):
        # every mixed graph on 3 vertices with up to 4 members
        pairs = list(itertools.combinations(range(3), 2))
        arcs_pool = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
        count = 0
        for ne in range(3):
            for es in itertools.combinations(pairs, ne):
                for na in range(3):
                    for ars in itertools.combinations(arcs_pool, na):
                        b = MixedGraph(3, edges=list(es), arcs=list(ars))
                        if not is_connected(b):
                            continue
                        count += 1
                        assert mixed_euler_feasible(b) == mixed_cut_condition(b)
                        every = range(b.edge_count)
                        tails = _balanced_orientation(b, every)
                        if tails is not None:
                            assert_balances(b, every, tails)
        assert count > 50

    def test_large_balanced_host_orients_fast(self):
        # a directed Hamiltonian cycle plus edge-disjoint directed cycles,
        # 70% of edges undirected in a random stored direction
        b = load(BENCH_SCALE).mixed(8000)
        every = range(b.edge_count)
        start = time.perf_counter()
        tails = _balanced_orientation(b, every)
        elapsed = time.perf_counter() - start
        assert tails is not None
        assert_balances(b, every, tails)
        assert elapsed < 1.0, elapsed

    def test_restricted_variants(self):
        # square with one side restricted and one diagonal pair of arcs
        b = MixedGraph(4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)],
                       arcs=[(0, 2), (2, 0)])
        r = RestrictionSet.of((0,))
        ans = ask(b, "restricted", None, r)
        assert isinstance(ans.verdict, bool)
        d_ans = ask(b, "restricted", 1, r)
        assert isinstance(d_ans.verdict, bool)

    def test_mixed_without_arcs_matches_plain(self):
        b = MixedGraph(4, edges=list(K4.edges), arcs=[])
        star = RestrictionSet.of((0, 1, 2))
        assert bool(ask(b, "restricted", None, star)) == bool(
            ask(K4, "restricted", None, star)
        )
