"""Exhaustive oracle: existence, raw counts, equivalence classes."""

import itertools
import random

import pytest

from doubletrace import enumeration, search_backend
from doubletrace.enumeration import (
    ORACLE_ENUM_MAX_EDGES,
    ORACLE_EXISTS_MAX_EDGES,
    TraceQuery,
    canonical_form,
    count_raw_traces,
    enumerate_classes,
    enumerate_fixed_start,
    enumerate_sweep,
    fixed_start_sequences,
    fold_classes,
    oracle_exists,
    oracle_find,
    orbit_size,
)
from doubletrace.errors import CapacityError, InputError
from doubletrace.graphs import (
    Graph,
    MixedGraph,
    Multigraph,
    automorphisms,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
)
from doubletrace.traces import (
    ClosedWalk,
    DoubleTrace,
    RestrictionSet,
    check_restriction,
    classify_directions,
    closed_walk_problems,
    is_d_stable,
    is_strong,
    validate_double_trace,
)

P2 = path_graph(2)
C3 = cycle_graph(3)
K4 = complete_graph(4)
LOOP = Multigraph(1, [(0, 0)])


class TestQueryValidation:
    def test_negative_d(self):
        with pytest.raises(InputError):
            TraceQuery(C3, d=-1)

    def test_restriction_out_of_range(self):
        with pytest.raises(InputError):
            TraceQuery(C3, restriction=RestrictionSet.of((5,)))

    def test_restriction_cannot_name_an_arc(self):
        b = MixedGraph(2, edges=[(0, 1)], arcs=[(1, 0)])
        with pytest.raises(InputError):
            TraceQuery(b, restriction=RestrictionSet.of((1,)))


class TestExistence:
    def test_single_edge(self):
        assert oracle_exists(TraceQuery(P2))
        assert oracle_exists(TraceQuery(P2, require_strong=True))
        assert not oracle_exists(TraceQuery(P2, d=1))

    def test_triangle(self):
        assert oracle_exists(TraceQuery(C3, require_strong=True))
        assert oracle_exists(TraceQuery(C3, d=1))
        assert not oracle_exists(TraceQuery(C3, d=2))

    def test_triangle_restrictions(self):
        all_anti = RestrictionSet.of(range(3))
        none_anti = RestrictionSet.of(())
        assert oracle_exists(TraceQuery(C3, restriction=all_anti))
        assert not oracle_exists(
            TraceQuery(C3, restriction=all_anti, require_strong=True)
        )
        assert oracle_exists(
            TraceQuery(C3, restriction=none_anti, require_strong=True)
        )

    def test_k4(self):
        assert oracle_exists(TraceQuery(K4, require_strong=True))
        assert oracle_exists(TraceQuery(K4, d=2))
        assert not oracle_exists(TraceQuery(K4, d=3))
        assert not oracle_exists(
            TraceQuery(K4, restriction=RestrictionSet.of(range(6)),
                       require_strong=True)
        )

    def test_disconnected_has_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert not oracle_exists(TraceQuery(g))

    def test_single_vertex_empty_trace(self):
        w = oracle_find(TraceQuery(Graph(1, []), d=3))
        assert w is not None and len(w) == 0

    def test_found_traces_are_certified(self):
        for q in (TraceQuery(K4, require_strong=True),
                  TraceQuery(C3, restriction=RestrictionSet.of(range(3))),
                  TraceQuery(LOOP, require_strong=True)):
            w = oracle_find(q)
            assert w is not None
            assert validate_double_trace(w).ok
            if q.require_strong:
                assert is_strong(w)
            if q.d:
                assert is_d_stable(w, q.d)
            if q.restriction is not None:
                assert check_restriction(w, q.restriction)


class TestRawCounts:
    def test_single_edge_two_traces(self):
        # e then e again, starting from either endpoint
        assert count_raw_traces(TraceQuery(P2)) == 2

    def test_loop_four_traces(self):
        assert count_raw_traces(TraceQuery(LOOP)) == 4

    def test_single_vertex_one(self):
        assert count_raw_traces(TraceQuery(Graph(1, []))) == 1

    def test_counts_respect_filters(self):
        raw_all = count_raw_traces(TraceQuery(C3))
        raw_strong = count_raw_traces(TraceQuery(C3, require_strong=True))
        assert 0 < raw_strong < raw_all

    def test_fixed_start_consistency(self):
        # every enumerated trace is distinct and valid
        traces = enumerate_fixed_start(TraceQuery(C3))
        assert len({w.steps for w in traces}) == len(traces)
        for w in traces:
            assert validate_double_trace(w).ok


class TestCanonicalForm:
    def rand_trace(self, rng, q):
        return rng.choice(enumerate_fixed_start(q))

    def test_rotation_reversal_invariance(self):
        rng = random.Random(7)
        for _ in range(25):
            w = self.rand_trace(rng, TraceQuery(C3))
            base = canonical_form(w)
            k = rng.randrange(len(w))
            assert canonical_form(w.rotate(k)) == base
            assert canonical_form(w.reverse().rotate(k)) == base

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        perms = automorphisms(C3)
        for _ in range(10):
            w = self.rand_trace(rng, TraceQuery(C3))
            base = canonical_form(w)
            perm = rng.choice(perms)
            # relabel the walk through the automorphism by hand
            lookup = {}
            for i, (a, b) in enumerate(C3.edges):
                lookup[frozenset((a, b))] = i
            mapped = []
            for e, f in w.steps:
                a, b = C3.edges[e]
                ta, tb = (a, b) if f == 0 else (b, a)
                na, nb = perm[ta], perm[tb]
                ne = lookup[frozenset((na, nb))]
                ea, eb = C3.edges[ne]
                mapped.append((ne, 0 if (na, nb) == (ea, eb) else 1))
            assert canonical_form(DoubleTrace(C3, tuple(mapped))) == base


class TestEquivalenceClasses:
    def test_triangle_partition(self):
        classes = enumerate_classes(TraceQuery(C3))
        raw = count_raw_traces(TraceQuery(C3))
        assert sum(c.size for c in classes) == raw
        # each canonical form is a trace of its own class
        for c in classes:
            assert canonical_form(DoubleTrace(C3, c.canonical)) == c.canonical

    def test_classes_sorted_and_distinct(self):
        classes = enumerate_classes(TraceQuery(C3))
        keys = [c.canonical for c in classes]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_restricted_folding_respects_restriction(self):
        r = RestrictionSet.of((0,))
        classes = enumerate_classes(TraceQuery(C3, restriction=r))
        raw = count_raw_traces(TraceQuery(C3, restriction=r))
        assert sum(c.size for c in classes) == raw
        for c in classes:
            assert check_restriction(DoubleTrace(C3, c.canonical), r)

    def test_multigraph_and_mixed_hosts_fold_every_sequence(self):
        # the identity is their only relabeling; the loop's lex-leaders and
        # the mixed host's folded listing both equal the fold of every
        # fixed-start sequence
        mixed = MixedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], [(1, 3)])
        queries = [
            TraceQuery(LOOP),
            TraceQuery(LOOP, require_strong=True),
            TraceQuery(mixed, require_strong=True, restriction=RestrictionSet.of((0, 2))),
            TraceQuery(mixed, d=1, restriction=RestrictionSet.of((0, 2))),
        ]
        for q in queries:
            want = fold_classes(q.host, fixed_start_sequences(q))
            assert want
            assert [(c.canonical, c.size) for c in enumerate_classes(q)] == want


def reference_orbit(host, steps, auts, use_reversal):
    """Reference for fold_classes: the whole orbit as a set, that is every
    rotation of every relabeled (and reversed) copy of the steps."""
    lookup = {frozenset(host.endpoints(i)): i for i in range(host.edge_count)}

    def relabel(seq, perm):
        if all(perm[v] == v for v in range(len(perm))):
            return seq
        out = []
        for e, f in seq:
            a, b = host.endpoints(e)
            if a == b:
                out.append((lookup[frozenset((perm[a],))], f))
                continue
            e2 = lookup[frozenset((perm[a], perm[b]))]
            tail = perm[a] if f == 0 else perm[b]
            out.append((e2, 0 if tail == host.endpoints(e2)[0] else 1))
        return tuple(out)

    base = [tuple(steps)]
    if use_reversal:
        base.append(tuple((e, 1 - f) for e, f in reversed(steps)))
    orbit = set()
    for seq in base:
        for perm in auts:
            mapped = relabel(seq, perm)
            orbit.update(mapped[k:] + mapped[:k] for k in range(len(mapped)))
    return orbit


def reference_classes(host, traces, auts):
    """(canonical form, size) per class, least first, from whole orbits."""
    use_reversal = not any(host.is_arc(i) for i in range(host.edge_count))
    sizes = {}
    for tr in traces:
        orbit = reference_orbit(host, tr.steps, auts, use_reversal) or {()}
        sizes.setdefault(min(orbit), len(orbit))
    return [(c, sizes[c]) for c in sorted(sizes)]


def reference_preserving(host, auts, anti):
    """The relabelings that map ``anti`` onto itself; the identity always
    does, also on parallel edges and loops, where the lookup is ambiguous."""
    lookup = {frozenset(host.endpoints(i)): i for i in range(host.edge_count)}
    return tuple(
        p for p in auts
        if p == tuple(range(len(p)))
        or {lookup[frozenset(p[v] for v in host.endpoints(i))] for i in anti} == set(anti)
    )


def random_connected_graph(rng):
    n = rng.randint(3, 6)
    m = rng.randint(n, min(9, n * (n - 1) // 2))
    order = list(range(n))
    rng.shuffle(order)
    edges = {frozenset((order[i], order[rng.randrange(i)])) for i in range(1, n)}
    pairs = [frozenset((u, v)) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges.update(pairs[: m - len(edges)])
    listed = [tuple(sorted(e)) for e in edges]
    rng.shuffle(listed)
    return Graph(n, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in listed])


class TestFoldMatchesOrbitSets:
    """fold_classes against whole orbit sets: same forms, sizes and order."""

    def queries(self):
        rng = random.Random(2024)
        for _ in range(40):
            g = random_connected_graph(rng)
            yield TraceQuery(g, require_strong=True)
            yield TraceQuery(g, d=1)
            anti = rng.sample(range(g.edge_count), rng.randint(1, g.edge_count))
            yield TraceQuery(g, require_strong=True, restriction=RestrictionSet.of(anti))

    def test_classes_on_seeded_graphs(self):
        checked = 0
        for q in self.queries():
            traces = enumerate_fixed_start(q)
            auts = automorphisms(q.host)
            if q.restriction is not None:
                auts = reference_preserving(q.host, auts, q.restriction.antiparallel_edges)
            got = [(c.canonical, c.size) for c in enumerate_classes(q)]
            assert got == reference_classes(q.host, traces, auts)
            checked += len(traces)
        assert checked > 1000

    def test_wrappers_per_trace(self):
        rng = random.Random(5)
        for q in list(self.queries())[::7]:
            auts = automorphisms(q.host)
            traces = enumerate_fixed_start(q)
            for tr in rng.sample(traces, min(20, len(traces))):
                orbit = reference_orbit(q.host, tr.steps, auts, True)
                assert canonical_form(tr) == min(orbit)
                assert orbit_size(tr) == len(orbit)

    @pytest.mark.parametrize(
        "host, auts",
        [
            (LOOP, None),
            (Multigraph(2, [(0, 1), (0, 1), (1, 1)]), None),
            (Multigraph(3, [(0, 1), (1, 2), (0, 0), (2, 2)]), automorphisms(path_graph(3))),
            (MixedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], [(1, 3)]), None),
            (MixedGraph(3, [(0, 1), (1, 2)], [(2, 0)]), None),
        ],
    )
    def test_multigraph_and_mixed_hosts(self, host, auts):
        ident = (tuple(range(host.vertex_count)),)
        assert oracle_exists(TraceQuery(host))
        for q in (TraceQuery(host), TraceQuery(host, require_strong=True)):
            traces = enumerate_fixed_start(q)
            expected = reference_classes(host, traces, auts or ident)
            assert fold_classes(host, (t.steps for t in traces), auts) == expected

    def test_tuple_codes_past_128_edges(self, monkeypatch):
        # codes 2e + f pass 255 here, so fold relabels tuples, not bytes
        n, k = 131, 40
        ring = cycle_graph(n)
        out_and_back = (
            [(e, 0) for e in range(k)] + [(e, 1) for e in reversed(range(k))]
            + [(e, 1) for e in reversed(range(k, n))] + [(e, 0) for e in range(k, n)]
        )
        twice_round = [(e, 0) for e in range(n)] * 2
        # automorphisms() stops at 10 vertices: the identity and a reflection
        auts = (tuple(range(n)), tuple(-v % n for v in range(n)))
        translated = []
        translate = enumeration._translate
        monkeypatch.setattr(
            enumeration, "_translate", lambda *a: translated.append(1) or translate(*a)
        )
        for steps in (out_and_back, twice_round):
            w = DoubleTrace(ring, tuple(steps))
            assert validate_double_trace(w).ok
            orbit = reference_orbit(ring, w.steps, auts, True)
            assert canonical_form(w, auts) == min(orbit)
            assert orbit_size(w, auts) == len(orbit)
        assert translated

    @pytest.mark.parametrize(
        "steps",
        [
            # edge 0 forward five times, with no rotation symmetry
            ((0, 0), (0, 1), (0, 0), (1, 0), (2, 0), (0, 0),
             (0, 1), (0, 0), (1, 0), (1, 1), (1, 0), (2, 0)),
            # no edge 0 at all; edge 1 forward three times
            ((1, 0), (2, 0), (2, 1), (1, 1), (1, 0),
             (1, 1), (1, 0), (2, 0), (2, 1), (1, 1)),
        ],
    )
    def test_closed_walks_that_repeat_the_least_code(self, steps):
        # canonical_form takes any closed walk, not only double traces
        w = ClosedWalk(C3, steps)
        assert closed_walk_problems(w) == []
        for auts in (automorphisms(C3), ((0, 1, 2),)):
            orbit = reference_orbit(C3, w.steps, auts, True)
            assert canonical_form(w, auts) == min(orbit)
            assert orbit_size(w, auts) == len(orbit)

    def test_empty_trace(self):
        w = DoubleTrace(Graph(1, []), ())
        assert canonical_form(w) == ()
        assert orbit_size(w) == 1
        assert fold_classes(w.host, [()]) == [((), 1)]


class TestFoldRejectsAmbiguousRelabelings:
    PARALLEL = Multigraph(2, [(0, 1), (0, 1)])
    SWAP = ((0, 1), (1, 0))

    def test_parallel_edges(self):
        # the two parallel edges have no defined images under the swap;
        # an edge lookup would send both to one edge and fold in
        # sequences that use it four times
        w = DoubleTrace(self.PARALLEL, ((0, 0), (1, 1), (0, 0), (1, 1)))
        assert validate_double_trace(w).ok
        with pytest.raises(InputError, match="only the identity relabels parallel edges"):
            orbit_size(w, self.SWAP)
        with pytest.raises(InputError):
            canonical_form(w, self.SWAP)

    def test_repeated_loops(self):
        host = Multigraph(2, [(0, 1), (0, 0), (0, 0), (1, 1), (1, 1)])
        w = oracle_find(TraceQuery(host))
        with pytest.raises(InputError, match="or repeated loops"):
            canonical_form(w, self.SWAP)

    def test_identity_still_folds_rotations_and_reversal(self):
        w = DoubleTrace(self.PARALLEL, ((0, 0), (1, 1), (0, 0), (1, 1)))
        ident = (self.SWAP[0],)
        assert orbit_size(w, ident) == len(reference_orbit(self.PARALLEL, w.steps, ident, True))

    def test_non_automorphism(self):
        with pytest.raises(InputError, match=r"relabeling \(1, 0, 2\) is not an automorphism"):
            canonical_form(oracle_find(TraceQuery(path_graph(3))), ((1, 0, 2),))


class TestOrbitWorkOncePerClass:
    """The kernel emits one member per class, so orbit work runs at most
    once per class."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = []
        images = enumeration._orbit_images

        def spy(*args):
            count.append(1)
            return images(*args)

        monkeypatch.setattr(enumeration, "_orbit_images", spy)
        return count

    @pytest.fixture
    def emitted(self, monkeypatch):
        count = []
        run = search_backend.run

        def spy(*args, **kwargs):
            out = run(*args, **kwargs)
            count.append(len(out))
            return out

        monkeypatch.setattr(search_backend, "run", spy)
        return count

    def test_enumerate_classes(self, calls, emitted):
        q = TraceQuery(K4, require_strong=True)
        classes = enumerate_classes(q)
        assert emitted == [len(classes)]
        assert not calls
        assert len(enumerate_fixed_start(q)) > 10 * len(classes)

    def test_restriction_size_sweep(self, calls, emitted):
        prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (0, 3), (1, 4), (2, 5)])
        classes = enumerate_sweep(prism, 3, None)
        assert sum(emitted) == len(classes)
        assert not calls
        emitted.clear()
        every = sum(len(fixed_start_sequences(TraceQuery(
            prism, require_strong=True, restriction=RestrictionSet.of(c))))
            for c in itertools.combinations(range(9), 3))
        assert every > 10 * len(classes)


def test_restriction_size_sweep_equals_fold_of_every_set():
    prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                      (0, 3), (1, 4), (2, 5)])
    for d, p in itertools.product((None, 1), (2, 3, 4)):
        classes = [(c.canonical, c.size) for c in enumerate_sweep(prism, p, d)]
        every = [
            fixed_start_sequences(TraceQuery(
                prism, require_strong=d is None, d=d or 0, restriction=RestrictionSet.of(anti)))
            for anti in itertools.combinations(range(9), p)
        ]
        assert classes == fold_classes(prism, itertools.chain.from_iterable(every)), (d, p)


def closed_double_walks(host):
    """Every closed walk from step (0, 0) that uses each edge exactly twice,
    both flags tried on a loop, listed with no pruning at all."""
    m = host.edge_count
    use = [0] * m
    walk = [(0, 0)]
    use[0] = 1
    start, first = host.endpoints(0)
    out = []

    def extend(v):
        if len(walk) == 2 * m:
            if v == start:
                out.append(DoubleTrace(host, tuple(walk)))
            return
        for e in range(m):
            a, b = host.endpoints(e)
            if use[e] < 2 and v in (a, b):
                use[e] += 1
                for f in (0, 1) if a == b else (0 if v == a else 1,):
                    walk.append((e, f))
                    extend(b if v == a else a)
                    walk.pop()
                use[e] -= 1

    extend(first)
    return out


def antiparallel_set(walk):
    return frozenset(e for e, label in enumerate(classify_directions(walk))
                     if label == "antiparallel")


class TestBruteForceReferee:
    """Class listings and restriction-size sweeps against every closed walk,
    filtered by the validators and folded as whole orbit sets."""

    def hosts(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(2, 5)
            order = list(range(n))
            rng.shuffle(order)
            edges = {frozenset((order[i], order[rng.randrange(i)])) for i in range(1, n)}
            pairs = [frozenset((u, v)) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            # mostly graphs with a cycle, some trees
            m = n - 1 if rng.random() < 0.2 else rng.randint(min(n, len(pairs)), min(6, len(pairs)))
            for pair in pairs:
                if len(edges) < m:
                    edges.add(pair)
            listed = [tuple(sorted(e)) for e in edges]
            rng.shuffle(listed)
            yield rng, Graph(n, [(b, a) if rng.random() < 0.5 else (a, b) for a, b in listed])

    def check_listings(self, rng, g, walks, auts):
        """Strong, 1- and 2-stable listings and two restricted ones, against
        whole orbit sets under the relabelings that fix each restriction."""
        strong = [w for w in walks if is_strong(w)]
        listings = [
            (TraceQuery(g, require_strong=True), strong),
            (TraceQuery(g, d=1), [w for w in walks if is_d_stable(w, 1)]),
            (TraceQuery(g, d=2), [w for w in walks if is_d_stable(w, 2)]),
        ]
        # restrictions drawn from walks that satisfy them, so most are met
        for pool, require_strong in ((strong, True), (walks, False)):
            anti = antiparallel_set(rng.choice(pool or walks))
            r = RestrictionSet.of(anti)
            met = [w for w in pool if check_restriction(w, r)]
            listings.append((TraceQuery(g, require_strong=require_strong, restriction=r), met))
        for q, met in listings:
            group = auts
            if q.restriction is not None:
                group = reference_preserving(g, auts, q.restriction.antiparallel_edges)
            got = [(c.canonical, c.size) for c in enumerate_classes(q)]
            assert got == reference_classes(g, met, group), (g.edges, q)
        return len(listings)

    def test_classes_and_sweeps(self):
        queries = 0
        for rng, g in self.hosts():
            walks = closed_double_walks(g)
            auts = automorphisms(g)
            strong = [w for w in walks if is_strong(w)]
            queries += self.check_listings(rng, g, walks, auts)
            # the sweeps search every restriction under the whole group,
            # whose tables need not fix the restriction's labels
            stable = [w for w in walks if is_d_stable(w, 1)]
            for d, pool in ((None, strong), (1, stable)):
                for p in (1, 2):
                    if p <= g.edge_count:
                        met = [w for w in pool if len(antiparallel_set(w)) == p]
                        got = [(c.canonical, c.size) for c in enumerate_sweep(g, p, d)]
                        assert got == reference_classes(g, met, auts), (g.edges, p, d)
                        queries += 1
        assert queries >= 250

    def multigraphs(self):
        rng = random.Random(23)
        count = 0
        while count < 60:
            n = rng.randint(1, 4)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 4))]
            host = Multigraph(n, edges)
            if is_connected(host) and sum(a == b for a, b in edges) <= 2:
                count += 1
                yield rng, host

    def test_multigraph_classes(self):
        # the identity is a multigraph's only relabeling
        queries = loops = parallels = 0
        for rng, h in self.multigraphs():
            identity = (tuple(range(h.vertex_count)),)
            queries += self.check_listings(rng, h, closed_double_walks(h), identity)
            loops += any(a == b for a, b in h.edges)
            parallels += len({tuple(sorted(e)) for e in h.edges}) < len(h.edges)
        assert queries == 300
        assert min(loops, parallels) >= 20


class TestCapacity:
    def test_exists_gate(self):
        big = cycle_graph(ORACLE_EXISTS_MAX_EDGES + 1)
        with pytest.raises(CapacityError):
            oracle_exists(TraceQuery(big))

    def test_enum_gate(self):
        big = cycle_graph(ORACLE_ENUM_MAX_EDGES + 1)
        with pytest.raises(CapacityError):
            count_raw_traces(TraceQuery(big))

    def test_override_lifts_gate(self):
        big = cycle_graph(ORACLE_EXISTS_MAX_EDGES + 1)
        assert oracle_exists(TraceQuery(big), max_edges=big.edge_count)


class TestBackendParity:
    def test_python_backend_selected_explicitly(self):
        from doubletrace.enumeration import lower_query

        for q in (TraceQuery(C3), TraceQuery(K4, require_strong=True),
                  TraceQuery(C3, restriction=RestrictionSet.of((1,)))):
            n, ea, eb, labels = lower_query(q)
            direct = search_backend.run(n, ea, eb, labels,
                                        require_strong=q.require_strong, d_max=q.d,
                                        mode=search_backend.MODE_COUNT_RAW)
            assert direct == count_raw_traces(q)
