"""End-to-end acceptance battery.

Eight criteria, one test each.  Every test records its verdict in RESULTS,
and the terminal-summary hook in conftest prints one line per criterion
after the run.  The populations are exhaustive up to the documented
capacity thresholds, with a seeded random layer on top; no criterion is
sampled down below what the thresholds allow.
"""

import contextlib
import functools
import io
import itertools
import json
import os
import random
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest

from doubletrace import cli
from doubletrace.construction import (
    _t_join_certificate,
    antiparallel_strong_trace,
    construct,
    euler_tour,
    merge_closed_walks,
    parallel_strong_trace,
    reduce_repetition,
)
from doubletrace.enumeration import (
    TraceQuery,
    canonical_form,
    count_raw_traces,
    enumerate_classes,
    enumerate_fixed_start,
    oracle_exists,
    oracle_find,
)
from doubletrace.errors import CapacityError
from doubletrace.feasibility import _quotient_witnesses, _restricted_analysis, find_admissible_tree
from doubletrace.graphs import Graph, MixedGraph, Multigraph, automorphisms, is_connected
from doubletrace.traces import (
    ClosedWalk,
    DoubleTrace,
    RestrictionSet,
    check_restriction,
    classify_directions,
    is_d_stable,
    is_strong,
    transition_system,
    validate_double_trace,
)

from test_feasibility import ask, build, mixed_cut_condition, mixed_euler_feasible

RESULTS: dict[int, bool] = {}

GOLDEN = Path(__file__).parent / "golden"

K4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
K4_TEXT = "n 4\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"


def criterion(n: int):
    """Record the wrapped test's verdict under criterion ``n``."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                RESULTS[n] = ok
                print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'}")

        return run

    return wrap


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- populations


@functools.lru_cache(maxsize=None)
def connected_labeled_graphs(n: int):
    """All connected simple graphs on vertex set {0..n-1}."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        g = Graph(n, tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1))
        if is_connected(g):
            out.append(g)
    return tuple(out)


def _iso_key(g: Graph):
    best = None
    for perm in itertools.permutations(range(g.vertex_count)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges))
        if best is None or key < best:
            best = key
    return best


@functools.lru_cache(maxsize=None)
def small_iso_types():
    """One representative of every connected isomorphism type, 1..5 vertices."""
    reps = []
    for n in range(1, 6):
        seen = set()
        for g in connected_labeled_graphs(n):
            key = _iso_key(g)
            if key not in seen:
                seen.add(key)
                reps.append(g)
    assert len(reps) == 31  # 1 + 1 + 2 + 6 + 21
    return tuple(reps)


@functools.lru_cache(maxsize=None)
def random_six_vertex():
    """200 random connected labeled graphs on 6 vertices, 5 to 9 edges."""
    rng = random.Random(20260822)
    pairs = list(itertools.combinations(range(6), 2))
    out = []
    while len(out) < 200:
        m = rng.randint(5, 9)
        g = Graph(6, tuple(sorted(rng.sample(pairs, m))))
        if is_connected(g):
            out.append(g)
    return tuple(out)


def population():
    return small_iso_types() + random_six_vertex()


def all_restrictions(m: int):
    for bits in range(1 << m):
        yield RestrictionSet.of(k for k in range(m) if bits >> k & 1)


@functools.lru_cache(maxsize=None)
def connected_even_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1, 1 << len(pairs)):
        g = Graph(n, tuple(pairs[k] for k in range(len(pairs)) if bits >> k & 1))
        if all(g.degree(v) % 2 == 0 for v in range(n)) and is_connected(g):
            out.append(g)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def mixed_population():
    """All weakly connected mixed graphs, up to 4 vertices and 6 edge slots."""
    out = []
    for n in range(1, 5):
        und_pairs = list(itertools.combinations(range(n), 2))
        arc_pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for em in range(1 << len(und_pairs)):
            edges = tuple(und_pairs[k] for k in range(len(und_pairs)) if em >> k & 1)
            if len(edges) > 6:
                continue
            for am in range(1 << len(arc_pairs)):
                arcs = tuple(arc_pairs[k] for k in range(len(arc_pairs)) if am >> k & 1)
                if len(edges) + len(arcs) > 6:
                    continue
                if n > 1 and not edges and not arcs:
                    continue
                b = MixedGraph(n, edges, arcs)
                if is_connected(b):
                    out.append(b)
    return tuple(out)


def direction_multiset(w) -> Counter:
    return Counter(w.steps)


def repetition_total(w) -> int:
    return sum(
        transition_system(w, v).component_count - 1 for v in set(w.vertices())
    )


# ------------------------------------------------------------------ criteria


@criterion(1)
def test_criterion_1_restricted_strong_master_sweep():
    """Structural verdict == exhaustive search for every restriction of
    every population graph."""
    t0 = time.monotonic()
    disagreements = []
    checked = 0
    for g in population():
        for r in all_restrictions(g.edge_count):
            decided = ask(g, "restricted", None, r).verdict
            searched = oracle_exists(TraceQuery(g, require_strong=True, restriction=r))
            checked += 1
            if decided != searched:
                disagreements.append(
                    (g.vertex_count, g.edges, tuple(sorted(r.antiparallel_edges)), decided, searched)
                )
    assert checked > 30_000
    assert disagreements == [], disagreements[:5]
    assert time.monotonic() - t0 < 600


@criterion(2)
def test_criterion_2_variant_sweeps():
    """Every feasibility procedure agrees with the oracle across the whole
    population: strong, d-stable, antiparallel, parallel, plain double,
    restricted d-stable, each over its full parameter range."""
    bad = []
    for g in population():
        m = g.edge_count
        anti_all = RestrictionSet.of(range(m))
        par_all = RestrictionSet.of(())

        if not ask(g, "strong").verdict:
            bad.append(("strong-structural", g.edges))
        if not oracle_exists(TraceQuery(g, require_strong=True)):
            bad.append(("strong-oracle", g.edges))

        for d in (1, 2, 3):
            decided = ask(g, "dstable", d).verdict
            if decided != oracle_exists(TraceQuery(g, d=d)):
                bad.append(("d-stable", d, g.edges))

        decided = ask(g, "antiparallel").verdict
        if decided != oracle_exists(TraceQuery(g, require_strong=True, restriction=anti_all)):
            bad.append(("antiparallel", g.edges))
        for d in (1, 2):
            decided = ask(g, "antiparallel", d).verdict
            if decided != oracle_exists(TraceQuery(g, d=d, restriction=anti_all)):
                bad.append(("antiparallel-d", d, g.edges))

        decided = ask(g, "parallel").verdict
        if decided != oracle_exists(TraceQuery(g, require_strong=True, restriction=par_all)):
            bad.append(("parallel", g.edges))
        for d in (1, 2):
            decided = ask(g, "parallel", d).verdict
            if decided != oracle_exists(TraceQuery(g, d=d, restriction=par_all)):
                bad.append(("parallel-d", d, g.edges))

        for r in all_restrictions(m):
            decided = ask(g, "double", None, r).verdict
            if decided != oracle_exists(TraceQuery(g, restriction=r)):
                bad.append(("double", g.edges, tuple(sorted(r.antiparallel_edges))))
            for d in (1, 2):
                decided = ask(g, "restricted", d, r).verdict
                if decided != oracle_exists(TraceQuery(g, d=d, restriction=r)):
                    bad.append(
                        ("restricted-d", d, g.edges, tuple(sorted(r.antiparallel_edges)))
                    )
    assert bad == [], bad[:5]


@criterion(3)
def test_criterion_3_construction_soundness():
    """Every positive verdict from the criterion 1/2 surface is realized by a
    constructed trace that validates, matches its restriction, and meets its
    strength requirement."""
    failures = []
    built = 0

    def check(tag, g, w, r=None, d=None, strong=False):
        nonlocal built
        built += 1
        report = validate_double_trace(w)
        ok = report.ok
        if ok and r is not None:
            ok = check_restriction(w, r)
        if ok and strong:
            ok = is_strong(w)
        if ok and d is not None:
            ok = is_d_stable(w, d)
        if not ok:
            failures.append((tag, g.edges, d))

    for g in population():
        m = g.edge_count
        anti_all = RestrictionSet.of(range(m))
        par_all = RestrictionSet.of(())

        free = ask(g, "strong")
        if free.verdict:
            check("strong", g, construct(TraceQuery.for_variant(g, "strong"), free), strong=True)
            # the free-direction build writes its certificate, unsearched
            t_join, answer = _t_join_certificate(g)
            if not answer.certificate.revalidate(_quotient_witnesses(_restricted_analysis(g, t_join), None)):
                failures.append(("t-join-certificate", g.edges, None))
        for d in (1, 2, 3):
            free = ask(g, "dstable", d)
            if free.verdict:
                check("dstable", g, construct(TraceQuery.for_variant(g, "dstable", d), free), d=d)

        ans = ask(g, "antiparallel")
        if ans.verdict:
            check(
                "antiparallel",
                g,
                antiparallel_strong_trace(g, ans.certificate),
                r=anti_all,
                strong=True,
            )
        for d in (1, 2):
            if ask(g, "antiparallel", d).verdict:
                check(
                    "antiparallel-d",
                    g,
                    build(g, "restricted", d, anti_all),
                    r=anti_all,
                    d=d,
                )

        if ask(g, "parallel").verdict:
            check("parallel", g, parallel_strong_trace(g), r=par_all, strong=True)
        for d in (1, 2):
            if ask(g, "parallel", d).verdict:
                check("parallel-d", g, parallel_strong_trace(g), r=par_all, d=d)

        for r in all_restrictions(m):
            if ask(g, "restricted", None, r).verdict:
                check(
                    "restricted",
                    g,
                    build(g, "restricted", None, r),
                    r=r,
                    strong=True,
                )
            ans = ask(g, "double", None, r)
            if ans.verdict:
                check("double", g, construct(TraceQuery.for_variant(g, "double", None, r), ans), r=r)
            for d in (1, 2):
                if ask(g, "restricted", d, r).verdict:
                    check(
                        "restricted-d",
                        g,
                        build(g, "restricted", d, r),
                        r=r,
                        d=d,
                    )

    assert built > 3_000
    assert failures == [], failures[:5]


@criterion(4)
def test_criterion_4_tetrahedron_showcase():
    """The complete-graph-on-four showcase: byte-stable CLI output, a twelve
    step strong trace, and a twelve step star-restricted trace with three
    antiparallel and three parallel edges."""
    with tempfile.TemporaryDirectory() as tmp:
        plain = os.path.join(tmp, "k4.txt")
        star = os.path.join(tmp, "k4star.txt")
        with open(plain, "w") as fh:
            fh.write(K4_TEXT)
        with open(star, "w") as fh:
            fh.write(K4_TEXT + "E 0 1 2\n")

        code, out1, _ = run_cli(["construct", plain])
        assert code == 0
        code, out2, _ = run_cli(["construct", plain])
        assert out1 == out2  # deterministic
        assert out1 == (GOLDEN / "cli_k4_strong_construct.json").read_text()

        doc = json.loads(out1)
        # the T-join of K4's breadth-first tree, the star at 0, is the star
        # restriction below
        star_doc = json.loads((GOLDEN / "cli_k4_star_construct.json").read_text())
        assert doc == dict(star_doc, variant="strong")
        steps = tuple((s["edge"], s["flag"]) for s in doc["steps"])
        assert len(steps) == 12
        w = DoubleTrace(K4, steps)
        assert validate_double_trace(w).ok
        assert is_strong(w)

        code, out_star, _ = run_cli(["construct", star])
        assert code == 0
        assert out_star == (GOLDEN / "cli_k4_star_construct.json").read_text()
        doc = json.loads(out_star)
        steps = tuple((s["edge"], s["flag"]) for s in doc["steps"])
        assert len(steps) == 12
        w = DoubleTrace(K4, steps)
        assert validate_double_trace(w).ok
        assert is_strong(w)
        assert check_restriction(w, RestrictionSet.of([0, 1, 2]))
        labels = classify_directions(w)
        assert labels.count("antiparallel") == 3
        assert labels.count("parallel") == 3
        assert doc["directions"] == list(labels)

        code, out_check, _ = run_cli(["check", star])
        assert code == 0
        assert out_check == (GOLDEN / "cli_k4_star_check.json").read_text()


@criterion(5)
def test_criterion_5_surgery_properties():
    """reduce_repetition strictly lowers the repetition total while keeping
    the per-direction step multiset; merge_closed_walks keeps the combined
    step multiset.  At least fifty instances of each."""
    reductions = 0
    hosts = itertools.chain(
        connected_even_graphs(4), connected_even_graphs(5), connected_even_graphs(6)
    )
    for g in hosts:
        tour = euler_tour(g)
        w = DoubleTrace(g, tuple(tour.steps) * 2)
        for v in range(g.vertex_count):
            while transition_system(w, v).component_count > 1:
                before_total = repetition_total(w)
                before_dirs = direction_multiset(w)
                w2 = reduce_repetition(w, v)
                assert repetition_total(w2) < before_total
                assert direction_multiset(w2) == before_dirs
                reductions += 1
                w = w2
        assert is_strong(w)
        if reductions >= 200:
            break
    assert reductions >= 50

    merges = 0
    for g in connected_even_graphs(5) + connected_even_graphs(4):
        tour = euler_tour(g)
        steps = tuple(tour.steps)
        w1 = ClosedWalk(g, steps)
        for j in range(len(steps)):
            rotated = ClosedWalk(g, steps[j:] + steps[:j])
            v = rotated.tail(0)
            merged = merge_closed_walks(w1, rotated, v)
            assert direction_multiset(merged) == (
                direction_multiset(w1) + direction_multiset(rotated)
            )
            assert len(merged.steps) == 2 * len(steps)
            merges += 1
            if merges >= 200:
                break
        if merges >= 200:
            break
    assert merges >= 50


@criterion(6)
def test_criterion_6_mixed_graphs():
    """Mixed hosts: the balanced-orientation test agrees with the all-subsets
    cut condition on every weakly connected mixed graph up to the population
    bound, and the restricted procedures agree with the oracle for every
    restriction."""
    t0 = time.monotonic()
    pop = mixed_population()
    assert len(pop) == 29_666

    euler_bad = [
        b for b in pop if mixed_euler_feasible(b) != mixed_cut_condition(b)
    ]
    assert euler_bad == [], euler_bad[:5]

    bad = []
    for b in pop:
        for r in all_restrictions(len(b.edges)):
            decided = ask(b, "restricted", None, r).verdict
            if decided != oracle_exists(TraceQuery(b, require_strong=True, restriction=r)):
                bad.append(("strong", b.edges, b.arcs, tuple(sorted(r.antiparallel_edges))))
            decided = ask(b, "restricted", 1, r).verdict
            if decided != oracle_exists(TraceQuery(b, d=1, restriction=r)):
                bad.append(("d1", b.edges, b.arcs, tuple(sorted(r.antiparallel_edges))))
    assert bad == [], bad[:5]
    assert time.monotonic() - t0 < 300


def _relabel_walk(w: ClosedWalk, perm) -> DoubleTrace:
    g = w.host
    index = {}
    for i, (u, v) in enumerate(g.edges):
        index[(u, v) if u <= v else (v, u)] = i
    steps = []
    for e, f in w.steps:
        a, b = g.edges[e]
        if a == b:
            steps.append((index[(perm[a], perm[a])], f))
            continue
        na, nb = perm[a], perm[b]
        key = (na, nb) if na <= nb else (nb, na)
        ne = index[key]
        tail = perm[a] if f == 0 else perm[b]
        nf = 0 if g.edges[ne][0] == tail else 1
        steps.append((ne, nf))
    return DoubleTrace(g, tuple(steps))


@criterion(7)
def test_criterion_7_equivalence_machinery():
    """canonical_form is invariant under rotation, reversal, and relabeling
    by automorphisms; class sizes partition the raw counts; the partition is
    itself relabeling invariant."""
    rng = random.Random(99173)

    C3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
    DIAMOND = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    BOWTIE = Graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    queries = [
        TraceQuery(K4, require_strong=True),
        TraceQuery(K4, d=1),
        TraceQuery(K4),
        TraceQuery(DIAMOND, require_strong=True),
        TraceQuery(DIAMOND),
        TraceQuery(C4),
        TraceQuery(C4, require_strong=True, restriction=RestrictionSet.of(range(4))),
        TraceQuery(C3),
        TraceQuery(BOWTIE, require_strong=True),
        TraceQuery(BOWTIE, d=1),
        TraceQuery(BOWTIE),
    ]
    pool = []
    for q in queries:
        taken = 0
        for w in enumerate_fixed_start(q):
            pool.append(w)
            taken += 1
            if taken >= 600:
                break
    assert len(pool) >= 500
    rng.shuffle(pool)

    invariant_checks = 0
    for w in pool[:500]:
        g = w.host
        canon = canonical_form(w)
        k = rng.randrange(len(w.steps))
        rotated = DoubleTrace(g, w.steps[k:] + w.steps[:k])
        assert canonical_form(rotated) == canon
        reversed_w = DoubleTrace(
            g, tuple((e, 1 - f) for e, f in reversed(w.steps))
        )
        assert canonical_form(reversed_w) == canon
        perm = rng.choice(automorphisms(g))
        assert canonical_form(_relabel_walk(w, perm)) == canon
        invariant_checks += 1
    assert invariant_checks >= 500

    for q in (TraceQuery(C3, require_strong=True), TraceQuery(K4, require_strong=True)):
        classes = enumerate_classes(q)
        assert sum(c.size for c in classes) == count_raw_traces(q)

    base_sizes = {}
    for combo in itertools.combinations(range(6), 3):
        q = TraceQuery(K4, require_strong=True, restriction=RestrictionSet.of(combo))
        classes = enumerate_classes(q)
        raw = count_raw_traces(q)
        assert sum(c.size for c in classes) == raw
        base_sizes[combo] = (sorted(c.size for c in classes), raw)

    # relabeling the host (keeping edge order) maps each restriction
    # instance to an isomorphic one; counts and size profiles must agree
    for _ in range(6):
        perm = list(range(4))
        rng.shuffle(perm)
        g2 = Graph(4, tuple((perm[u], perm[v]) for u, v in K4.edges))
        for combo in itertools.combinations(range(6), 3):
            q2 = TraceQuery(
                g2, require_strong=True, restriction=RestrictionSet.of(combo)
            )
            classes = enumerate_classes(q2)
            sizes, raw = base_sizes[combo]
            assert count_raw_traces(q2) == raw
            assert sorted(c.size for c in classes) == sizes


@criterion(8)
def test_criterion_8_capacity_honesty():
    """Inputs past the documented thresholds raise CapacityError, never a
    silent verdict, on every gated surface."""
    path_11_edges = Graph(12, tuple((i, i + 1) for i in range(11)))
    with pytest.raises(CapacityError):
        oracle_exists(TraceQuery(path_11_edges))
    with pytest.raises(CapacityError):
        oracle_find(TraceQuery(path_11_edges))

    path_10_edges = Graph(11, tuple((i, i + 1) for i in range(10)))
    with pytest.raises(CapacityError):
        count_raw_traces(TraceQuery(path_10_edges))
    with pytest.raises(CapacityError):
        list(enumerate_fixed_start(TraceQuery(path_10_edges)))
    with pytest.raises(CapacityError):
        enumerate_classes(TraceQuery(path_10_edges))

    # the deciders gate the tree search on their quotients; the search
    # itself answers
    thirteen_vertices = Graph(13, tuple((i, i + 1) for i in range(12)))
    fat_corank = Multigraph(2, tuple((0, 1) for _ in range(19)))  # corank 18
    for past_gate in (thirteen_vertices, fat_corank):
        with pytest.raises(CapacityError):
            ask(past_gate, "antiparallel")
        assert find_admissible_tree(past_gate) is not None
    with pytest.raises(CapacityError):
        ask(thirteen_vertices, "restricted", None, RestrictionSet.of(range(12)))
    wide_mixed = MixedGraph(9, tuple((i, (i + 1) % 9) for i in range(9)), ())
    with pytest.raises(CapacityError):
        mixed_cut_condition(wide_mixed)

    # the CLI reports capacity as its own outcome and exit code; 18 edges
    # are past the enumeration oracle's gate
    chords = tuple((i, i + 4) for i in range(7))
    big = Graph(12, tuple((i, i + 1) for i in range(11)) + chords)
    assert big.edge_count == 18
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "big.txt")
        with open(p, "w") as fh:
            fh.write(cli.render_graph(big))
        code, out, _ = run_cli(["enumerate", p])
        assert code == 3
        assert json.loads(out)["outcome"] == "unknown (capacity)"
