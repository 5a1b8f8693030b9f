"""Walk mechanics, double-trace validation, repetition structure."""

import itertools

import pytest

from doubletrace.errors import InputError
from doubletrace.graphs import Graph, MixedGraph, Multigraph, cycle_graph
from doubletrace.traces import (
    ANTIPARALLEL,
    PARALLEL,
    ClosedWalk,
    DoubleTrace,
    RestrictionSet,
    check_restriction,
    classify_directions,
    closed_walk_problems,
    is_d_stable,
    is_strong,
    transition_system,
    validate_double_trace,
)

C3 = cycle_graph(3)

# triangle walked around twice in the same sense
C3_DOUBLED = DoubleTrace(C3, ((0, 0), (1, 0), (2, 0)) * 2)

# out and back: same triangle once forward, once reversed
C3_THERE_AND_BACK = DoubleTrace(
    C3, ((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1))
)

# hub with six spokes, two triangles hanging off them, one bridge between
# the triangle sides; the classic shape separating d-stable from strong
HUB = Graph(
    7,
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6),
     (1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (1, 4)],
)
HUB_WALK = DoubleTrace(
    HUB,
    ((0, 0), (12, 0), (3, 1),
     (5, 0), (11, 0), (9, 0), (10, 0), (11, 0), (3, 1),
     (4, 0), (10, 0), (5, 1),
     (4, 0), (9, 1), (12, 1), (8, 1), (7, 1), (1, 1),
     (2, 0), (8, 0), (6, 0), (1, 1),
     (0, 0), (6, 0), (7, 0), (2, 1)),
)


def brute_repetitions(w, v):
    """Every nonempty proper N at v that the walk repeats, by definition:
    arrivals through N leave through N and arrivals outside stay outside."""
    L = len(w.steps)
    incident = [e for e in range(w.host.edge_count)
                if v in w.host.endpoints(e)]
    pairs = []
    for t in range(L):
        if w.tail(t) == v:
            pairs.append((w.steps[(t - 1) % L][0], w.steps[t][0]))
    found = []
    for r in range(1, len(incident)):
        for sub in itertools.combinations(incident, r):
            s = set(sub)
            if all((a in s) == (b in s) for a, b in pairs):
                found.append(frozenset(sub))
    return found


class TestWalkBasics:
    def test_tail_head(self):
        w = ClosedWalk(C3, ((0, 0), (1, 0), (2, 0)))
        assert w.vertices() == (0, 1, 2)
        assert w.head(2) == 0

    def test_flag_one_reverses(self):
        w = ClosedWalk(C3, ((0, 1),))
        assert w.tail(0) == 1
        assert w.head(0) == 0

    def test_rotate_preserves_validity(self):
        for k in range(6):
            assert validate_double_trace(C3_DOUBLED.rotate(k)).ok

    def test_reverse_preserves_validity(self):
        assert validate_double_trace(C3_DOUBLED.reverse()).ok

    def test_reverse_is_involution(self):
        assert C3_DOUBLED.reverse().reverse().steps == C3_DOUBLED.steps

    def test_visits(self):
        assert C3_DOUBLED.visits(0) == (0, 3)


class TestStructuralChecks:
    def test_detects_discontinuity(self):
        w = ClosedWalk(C3, ((0, 0), (1, 1)))
        assert closed_walk_problems(w)

    def test_detects_bad_edge_index(self):
        w = ClosedWalk(C3, ((7, 0),))
        assert closed_walk_problems(w)

    def test_detects_bad_flag(self):
        w = ClosedWalk(C3, ((0, 2),))
        assert closed_walk_problems(w)

    def test_empty_walk_is_closed(self):
        assert closed_walk_problems(ClosedWalk(C3, ())) == []


class TestDoubleTraceValidation:
    def test_good(self):
        assert validate_double_trace(C3_DOUBLED).ok

    def test_wrong_multiplicity(self):
        w = DoubleTrace(C3, ((0, 0), (0, 1)) * 3)
        rep = validate_double_trace(w)
        assert not rep.ok

    def test_wrong_length(self):
        w = DoubleTrace(C3, ((0, 0), (1, 0), (2, 0)))
        assert not validate_double_trace(w).ok

    def test_disconnected_host(self):
        g = Graph(3, [(0, 1)])
        w = DoubleTrace(g, ((0, 0), (0, 1)))
        rep = validate_double_trace(w)
        assert not rep.ok
        assert any("connected" in p for p in rep.problems)

    def test_empty_trace_on_single_vertex(self):
        w = DoubleTrace(Graph(1, []), ())
        assert validate_double_trace(w).ok

    def test_arc_direction_enforced(self):
        b = MixedGraph(2, edges=[], arcs=[(0, 1), (1, 0)])
        good = DoubleTrace(b, ((0, 0), (1, 0), (0, 0), (1, 0)))
        assert validate_double_trace(good).ok
        bad = DoubleTrace(b, ((0, 0), (0, 1), (0, 0), (0, 1)))
        assert not validate_double_trace(bad).ok


class TestDirectionClassification:
    def test_doubled_is_parallel(self):
        assert classify_directions(C3_DOUBLED) == (PARALLEL,) * 3

    def test_there_and_back_is_antiparallel(self):
        assert classify_directions(C3_THERE_AND_BACK) == (ANTIPARALLEL,) * 3

    def test_loop_flags_distinguish_senses(self):
        host = Multigraph(1, [(0, 0)])
        par = ClosedWalk(host, ((0, 0), (0, 0)))
        anti = ClosedWalk(host, ((0, 0), (0, 1)))
        assert classify_directions(par) == (PARALLEL,)
        assert classify_directions(anti) == (ANTIPARALLEL,)

    def test_invariant_under_rotation_and_reversal(self):
        base = classify_directions(HUB_WALK)
        assert classify_directions(HUB_WALK.rotate(7)) == base
        assert classify_directions(HUB_WALK.reverse()) == base

    def test_needs_double_usage(self):
        with pytest.raises(InputError):
            classify_directions(ClosedWalk(C3, ((0, 0), (0, 1))))

    def test_check_restriction(self):
        all_anti = RestrictionSet.of(range(3))
        none_anti = RestrictionSet.of(())
        assert check_restriction(C3_THERE_AND_BACK, all_anti)
        assert not check_restriction(C3_THERE_AND_BACK, none_anti)
        assert check_restriction(C3_DOUBLED, none_anti)
        mixed = RestrictionSet.of((0,))
        assert not check_restriction(C3_DOUBLED, mixed)


class TestTransitionSystems:
    def test_doubled_triangle_single_component(self):
        ts = transition_system(C3_DOUBLED, 0)
        assert ts.component_count == 1
        assert ts.elements == (0, 2)

    def test_there_and_back_splits_at_turnaround(self):
        ts = transition_system(C3_THERE_AND_BACK, 0)
        assert ts.component_count == 2
        assert ts.min_component_size() == 1
        # the other two vertices pair their edges into one component
        assert transition_system(C3_THERE_AND_BACK, 1).component_count == 1
        assert transition_system(C3_THERE_AND_BACK, 2).component_count == 1

    def test_links_match_visits(self):
        ts = transition_system(C3_DOUBLED, 1)
        assert sorted(ts.links) == [(0, 1), (0, 1)]

    def test_neighbor_components(self):
        ts = transition_system(C3_DOUBLED, 0)
        assert ts.neighbor_components(C3_DOUBLED.host) == (frozenset({1, 2}),)


class TestRepetitionPredicates:
    def test_doubled_triangle(self):
        assert is_strong(C3_DOUBLED)
        assert is_d_stable(C3_DOUBLED, 1)
        assert not is_d_stable(C3_DOUBLED, 2)

    def test_there_and_back(self):
        assert not is_strong(C3_THERE_AND_BACK)
        assert not is_d_stable(C3_THERE_AND_BACK, 1)
        assert is_d_stable(C3_THERE_AND_BACK, 0)

    def test_d_zero_always_holds(self):
        assert is_d_stable(C3_THERE_AND_BACK, 0)

    def test_negative_d_rejected(self):
        with pytest.raises(InputError):
            is_d_stable(C3_DOUBLED, -1)

    def test_empty_walk_vacuously_stable(self):
        w = DoubleTrace(Graph(1, []), ())
        assert is_strong(w)
        assert is_d_stable(w, 5)

    def test_matches_brute_repetition_search(self):
        # the component-based predicate against the raw definition
        for w in (C3_DOUBLED, C3_THERE_AND_BACK, HUB_WALK.rotate(3)):
            for v in range(w.host.vertex_count):
                if not w.visits(v):
                    continue
                reps = brute_repetitions(w, v)
                small = [r for r in reps if len(r) <= 2]
                if small:
                    assert not is_d_stable(w, 2)


class TestHubInstance:
    """Frozen walk separating the stability levels on the hub host."""

    def test_valid(self):
        assert validate_double_trace(HUB_WALK).ok

    def test_not_strong_but_2_stable(self):
        assert not is_strong(HUB_WALK)
        assert is_d_stable(HUB_WALK, 1)
        assert is_d_stable(HUB_WALK, 2)
        assert not is_d_stable(HUB_WALK, 3)

    def test_hub_splits_into_spoke_triples(self):
        ts = transition_system(HUB_WALK, 0)
        assert sorted(sorted(c) for c in ts.components) == [[0, 1, 2], [3, 4, 5]]

    def test_other_vertices_single_component(self):
        for v in range(1, 7):
            assert transition_system(HUB_WALK, v).component_count == 1

    def test_repetition_definition_spot_check(self):
        reps = brute_repetitions(HUB_WALK, 0)
        assert frozenset({0, 1, 2}) in reps
        assert frozenset({3, 4, 5}) in reps
        assert all(len(r) == 3 for r in reps)
