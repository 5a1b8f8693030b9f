"""The search kernel against brute force and its previous implementation.

``brute_force_walks`` lists every closed double walk of a small host with
no pruning, and the kernel must find exactly the walks each query accepts.
``reference_run`` is the kernel before transition components were tracked
incrementally.  Both must return the same sequences in the same order in
every mode, on every small multigraph and label assignment and on seeded
larger ones.  Given step tables, the kernel's lex-leaders must be the
classes ``fold_classes`` finds among the reference's enumeration.
"""

import itertools
import random

from doubletrace import search_backend
from doubletrace.enumeration import _fixing, _step_tables, fold_classes
from doubletrace.graphs import Graph, Multigraph, automorphisms, is_connected
from doubletrace.search_backend import (
    ANTI,
    ARC,
    FREE,
    MODE_COUNT_RAW,
    MODE_ENUM_FIXED,
    MODE_EXISTS,
    PAR,
)
from doubletrace.traces import DoubleTrace, is_d_stable, is_strong

MODES = (MODE_EXISTS, MODE_COUNT_RAW, MODE_ENUM_FIXED)
# (require_strong, d_max): plain, strong, 1-stable, 2-stable
CONSTRAINTS = ((False, 0), (True, 0), (False, 1), (False, 2))


def _negative(mode: int):
    if mode == MODE_COUNT_RAW:
        return 0
    if mode == MODE_ENUM_FIXED:
        return []
    return None


def reference_run(
    n: int,
    ea: list[int],
    eb: list[int],
    labels: list[int],
    require_strong: bool = False,
    d_max: int = 0,
    mode: int = MODE_EXISTS,
):
    """The kernel as it was before the undoable union-find: after every
    step, vertex_ok rebuilds the transition components at the vertex from
    its list of links and calls a component frozen once all its edges are
    used twice."""
    m = len(ea)
    if m == 0:
        if mode == MODE_COUNT_RAW:
            return 0
        if mode == MODE_ENUM_FIXED:
            return []
        return []  # the empty trace

    L = 2 * m
    incident: list[list[int]] = [[] for _ in range(n)]
    deg = [0] * n
    for i in range(m):
        incident[ea[i]].append(i)
        deg[ea[i]] += 1
        deg[eb[i]] += 1
        if eb[i] != ea[i]:
            incident[eb[i]].append(i)
    inc_count = [len(incident[v]) for v in range(n)]

    # Arrival-count bounds per vertex.  Final arrivals at v equal deg[v];
    # each non-loop edge end contributes bounds by label, loops always 2.
    lo_in = [0] * n
    hi_in = [0] * n
    anti_ends = [0] * n
    free_ends = [0] * n
    for i in range(m):
        a, b, lbl = ea[i], eb[i], labels[i]
        if a == b:
            lo_in[a] += 2
            hi_in[a] += 2
            continue
        if lbl == ARC:
            lo_in[b] += 2
            hi_in[b] += 2
        elif lbl == ANTI:
            lo_in[a] += 1
            hi_in[a] += 1
            lo_in[b] += 1
            hi_in[b] += 1
            anti_ends[a] += 1
            anti_ends[b] += 1
        else:  # FREE or PAR
            hi_in[a] += 2
            hi_in[b] += 2
            if lbl == FREE:
                free_ends[a] += 1
                free_ends[b] += 1

    for v in range(n):
        if not (lo_in[v] <= deg[v] <= hi_in[v]):
            return _negative(mode)
        if free_ends[v] == 0 and (anti_ends[v] - deg[v]) % 2 != 0:
            # without free edges the arrival parity at v is fixed
            return _negative(mode)

    use = [0] * m
    fflag = [0] * m
    rem = [2 * deg[v] for v in range(n)]
    links: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    steps: list[tuple[int, int]] = []
    check_local = require_strong or d_max > 0

    found_steps: list[list[tuple[int, int]]] = []
    count = [0]

    def vertex_ok(v: int) -> bool:
        """Frozen-component test on the current links at v."""
        lk = links[v]
        parent: dict[int, int] = {}
        for x, y in lk:
            parent.setdefault(x, x)
            parent.setdefault(y, y)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in lk:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
        sizes: dict[int, int] = {}
        frozen: dict[int, bool] = {}
        for x in parent:
            r = find(x)
            sizes[r] = sizes.get(r, 0) + 1
            if use[x] != 2:
                frozen[r] = False
            elif r not in frozen:
                frozen[r] = True
        for r, size in sizes.items():
            if frozen.get(r, False):
                if require_strong and size < inc_count[v]:
                    return False
                if 0 < d_max and size <= d_max:
                    return False
        return True

    def accept(start: int, first_edge: int, prev_edge: int) -> bool:
        """Close the cyclic link at the start vertex and test it."""
        links[start].append((prev_edge, first_edge))
        ok = vertex_ok(start)
        links[start].pop()
        return ok

    def edge_delta(u_count: int, lbl: int) -> int:
        """Arrival-bound shift committed by this use, 0 if none."""
        if u_count == 0 and lbl == PAR:
            return 2
        if lbl == FREE:
            return 1
        return 0

    def extend(pos: int, depth: int, prev_edge: int, start: int, first_edge: int) -> bool:
        """Depth-first extension; returns True to stop the whole search."""
        if depth == L:
            if pos != start:
                return False
            if check_local and not accept(start, first_edge, prev_edge):
                return False
            if mode == MODE_COUNT_RAW:
                count[0] += 1
                return False
            found_steps.append(list(steps))
            return mode == MODE_EXISTS
        for e in incident[pos]:
            u = use[e]
            if u == 2:
                continue
            lbl = labels[e]
            a, b = ea[e], eb[e]
            if a == b:
                flag_choices = (0, 1)
            else:
                flag_choices = ((0 if pos == a else 1),)
            for f in flag_choices:
                if lbl == ARC and f != 0:
                    continue
                if u == 1:
                    if lbl == PAR and f != fflag[e]:
                        continue
                    if lbl == ANTI and f == fflag[e]:
                        continue
                    if check_local and prev_edge == e and a != b:
                        # U-turn: this visit freezes {e} as a component;
                        # a loop walked twice in a row freezes nothing
                        if d_max > 0 or inc_count[pos] > 1:
                            continue
                w = a if a == b else (b if f == 0 else a)

                d_shift = 0 if a == b else edge_delta(u, lbl)
                if d_shift:
                    lo_in[w] += d_shift
                    hi_in[pos] -= d_shift
                    if lo_in[w] > deg[w] or hi_in[pos] < deg[pos]:
                        lo_in[w] -= d_shift
                        hi_in[pos] += d_shift
                        continue

                use[e] = u + 1
                if u == 0:
                    fflag[e] = f
                links[pos].append((prev_edge, e))
                rem[pos] -= 1
                rem[w] -= 1
                steps.append((e, f))

                ok = True
                if check_local and pos != start:
                    ok = vertex_ok(pos)
                if ok and pos == start and rem[start] == 0 and depth + 1 < L:
                    ok = False  # can never return to close the walk
                if ok and rem[w] == 0 and depth + 1 < L:
                    ok = False  # stuck on arrival
                if ok and extend(w, depth + 1, e, start, first_edge):
                    return True

                steps.pop()
                rem[pos] += 1
                rem[w] += 1
                links[pos].pop()
                use[e] = u
                if d_shift:
                    lo_in[w] -= d_shift
                    hi_in[pos] += d_shift
        return False

    has_arcs = any(lbl == ARC for lbl in labels)
    if mode == MODE_COUNT_RAW:
        roots = [(e, f) for e in range(m) for f in (0, 1) if labels[e] != ARC or f == 0]
    elif has_arcs:
        roots = [(0, f) for f in (0, 1) if labels[0] != ARC or f == 0]
    else:
        # rotation plus reversal lets every trace start with (edge 0, flag 0)
        roots = [(0, 0)]

    for e0, f0 in roots:
        a, b = ea[e0], eb[e0]
        start = a if (a == b or f0 == 0) else b
        w0 = a if a == b else (b if f0 == 0 else a)
        d_shift = 0 if a == b else edge_delta(0, labels[e0])
        if d_shift:
            lo_in[w0] += d_shift
            hi_in[start] -= d_shift
            if lo_in[w0] > deg[w0] or hi_in[start] < deg[start]:
                lo_in[w0] -= d_shift
                hi_in[start] += d_shift
                continue
        use[e0] = 1
        fflag[e0] = f0
        rem[start] -= 1
        rem[w0] -= 1
        steps.append((e0, f0))
        stop = extend(w0, 1, e0, start, e0)
        steps.pop()
        rem[start] += 1
        rem[w0] += 1
        use[e0] = 0
        if d_shift:
            lo_in[w0] -= d_shift
            hi_in[start] += d_shift
        if stop:
            break

    if mode == MODE_COUNT_RAW:
        return count[0]
    if mode == MODE_ENUM_FIXED:
        return [tuple(s) for s in found_steps]
    return list(found_steps[0]) if found_steps else None


def connected_multigraphs(max_vertices, max_edges):
    """Every connected multigraph on {0..n-1}, n <= max_vertices, with 1 to
    max_edges edges, loops and parallel edges included, in sorted order."""
    for n in range(1, max_vertices + 1):
        pairs = [(a, b) for a in range(n) for b in range(a, n)]
        for m in range(1, max_edges + 1):
            for edges in itertools.combinations_with_replacement(pairs, m):
                if is_connected(Multigraph(n, edges)):
                    yield n, edges


def assert_same_runs(n, edges, labels):
    ea = [a for a, _ in edges]
    eb = [b for _, b in edges]
    found = 0
    for strong, d in CONSTRAINTS:
        for mode in MODES:
            new = search_backend.run(n, ea, eb, list(labels), strong, d, mode)
            old = reference_run(n, ea, eb, list(labels), strong, d, mode)
            assert new == old, (n, edges, labels, strong, d, mode)
            found += bool(new)
    return found


class TestMatchesReference:
    def test_every_small_multigraph_and_labeling(self):
        count = found = 0
        for n, edges in connected_multigraphs(3, 3):
            for labels in itertools.product((FREE, PAR, ANTI, ARC), repeat=len(edges)):
                count += 1
                found += assert_same_runs(n, edges, labels)
        assert count == 1592
        assert 0 < found < count * len(CONSTRAINTS) * len(MODES)

    def test_seeded_multigraphs_with_arcs(self):
        rng = random.Random(8)
        count = found = loops = parallels = arcs = 0
        while count < 120:
            n = rng.randint(4, 6)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n - 1, 6))]
            if not is_connected(Multigraph(n, edges)):
                continue
            labels = [rng.choice((FREE, FREE, PAR, ANTI, ARC)) for _ in edges]
            count += 1
            found += assert_same_runs(n, edges, labels)
            loops += any(a == b for a, b in edges)
            parallels += len({tuple(sorted(e)) for e in edges}) < len(edges)
            arcs += ARC in labels
        assert found > 0
        assert min(loops, parallels, arcs) > 10


def brute_force_walks(n, edges):
    """Every closed walk from step (0, 0) that uses each edge exactly twice,
    both flags tried on a loop, with no pruning.  Each comes with its per-edge
    "same flag twice" labels, whether it is strong, and the largest d for
    which it is d-stable, up to 2."""
    host = Multigraph(n, edges)
    m = len(edges)
    use = [0] * m
    use[0] = 1
    walk = [(0, 0)]
    out = []

    def extend(v):
        if len(walk) == 2 * m:
            if v == edges[0][0]:
                out.append(tuple(walk))
            return
        for e, (a, b) in enumerate(edges):
            if use[e] < 2 and v in (a, b):
                use[e] += 1
                for f in (0, 1) if a == b else (0 if v == a else 1,):
                    walk.append((e, f))
                    extend(b if v == a else a)
                    walk.pop()
                use[e] -= 1

    extend(edges[0][1])
    judged = []
    for steps in out:
        flags = [[] for _ in range(m)]
        for e, f in steps:
            flags[e].append(f)
        trace = DoubleTrace(host, steps)
        stable = next((d for d in (0, 1) if not is_d_stable(trace, d + 1)), 2)
        judged.append((steps, tuple(f[0] == f[1] for f in flags), is_strong(trace), stable))
    return judged


def accepted(judged, labels, strong, d):
    """The walks of ``brute_force_walks`` that a query accepts."""
    want = {PAR: True, ANTI: False}
    return {
        steps
        for steps, same, is_str, stable in judged
        if stable >= d
        and (is_str or not strong)
        and all(lbl == FREE or want[lbl] == s for lbl, s in zip(labels, same))
    }


class TestMatchesBruteForce:
    def test_every_small_multigraph(self):
        """Every connected multigraph with n <= 3 and m <= 3, all edges free
        or each parallel or antiparallel, plain, strong, 1- and 2-stable: the
        enumeration is the accepted set, exists finds a member exactly when
        one is accepted, and the raw count is the accepted set times 2m (each
        raw sequence has two rotations starting on edge 0, and reversal pairs
        the flag-1 starts with the flag-0 ones)."""
        queries = with_loops = 0
        for n, edges in connected_multigraphs(3, 3):
            m = len(edges)
            judged = brute_force_walks(n, edges)
            ea = [a for a, _ in edges]
            eb = [b for _, b in edges]
            labelings = [(FREE,) * m, *itertools.product((PAR, ANTI), repeat=m)]
            for labels, (strong, d) in itertools.product(labelings, CONSTRAINTS):
                want = accepted(judged, labels, strong, d)
                key = (n, edges, labels, strong, d)
                listed = search_backend.run(n, ea, eb, list(labels), strong, d, MODE_ENUM_FIXED)
                assert len(set(listed)) == len(listed) and set(listed) == want, key
                found = search_backend.run(n, ea, eb, list(labels), strong, d, MODE_EXISTS)
                assert (found is None) == (not want), key
                assert found is None or tuple(found) in want, key
                count = search_backend.run(n, ea, eb, list(labels), strong, d, MODE_COUNT_RAW)
                assert count == 2 * m * len(want), key
                queries += 1
                with_loops += any(a == b for a, b in edges) and bool(want)
        assert queries == 992
        assert with_loops > 100


def seeded_simple_graphs(seed, count):
    """``count`` distinct connected simple graphs with 4 to 6 vertices and
    at most 8 edges, drawn from the seed."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        n = rng.randint(4, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = tuple(sorted(rng.sample(pairs, rng.randint(n - 1, min(8, len(pairs))))))
        g = Graph(n, edges)
        if (n, edges) not in seen and is_connected(g):
            seen.add((n, edges))
            yield g


def assert_same_leaders(host, auts):
    """Under the step tables of the automorphisms in ``auts`` that fix each
    labeling's antiparallel set, the lex-leader enumeration lists exactly
    the classes fold_classes finds among the reference enumeration, with
    the same sizes, at strong, d = 1 and d = 2."""
    n, edges = host.vertex_count, host.edges
    ea = [a for a, _ in edges]
    eb = [b for _, b in edges]
    tables = _step_tables(host, auts)
    labelings = [(FREE,) * len(edges), *itertools.product((PAR, ANTI), repeat=len(edges))]
    found = 0
    for labels in labelings:
        fixing = _fixing(tables, frozenset(i for i, lbl in enumerate(labels) if lbl == ANTI))
        group = tuple(p for p, t in zip(auts, tables) if any(t is f for f in fixing))
        for strong, d in CONSTRAINTS[1:]:
            key = (n, edges, labels, strong, d)
            leaders = search_backend.run(
                n, ea, eb, list(labels), strong, d, MODE_ENUM_FIXED, tables=fixing
            )
            sequences = reference_run(n, ea, eb, list(labels), strong, d, MODE_ENUM_FIXED)
            assert sorted(leaders) == fold_classes(host, sequences, group), key
            found += bool(leaders)
    return found


class TestLexLeaders:
    """The kernel's lex-leader mode against the fold of the reference
    kernel's enumeration: one (least member, class size) per class."""

    def test_every_small_multigraph_under_the_identity(self):
        found = 0
        for n, edges in connected_multigraphs(3, 3):
            found += assert_same_leaders(Multigraph(n, edges), (tuple(range(n)),))
        assert found > 100

    def test_seeded_simple_graphs_under_their_automorphisms(self):
        found = 0
        orders = []
        for g in seeded_simple_graphs(25, 24):
            auts = automorphisms(g)
            orders.append(len(auts))
            found += assert_same_leaders(g, auts)
        assert found > 0
        assert sum(k > 2 for k in orders) >= 8 and max(orders) >= 8
