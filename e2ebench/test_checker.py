"""The benchmark's checker must accept valid traces and reject every kind of
broken one.  Traces here are written out by hand."""

import random

import pytest

from checker import trace_problems
from confirm import one_face_trace
from hosts import Host, complete, find_admissible_tree_randomly

TRIANGLE = Host(3, ((0, 1), (1, 2), (2, 0)))
PATH = Host(3, ((0, 1), (1, 2)))
BOWTIE = Host(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)))
ALL = frozenset(range(3))
NONE = frozenset()


def walk(host, moves):
    """CLI-style steps from (edge, from, to) triples."""
    out = []
    for e, a, b in moves:
        out.append({"edge": e, "flag": 0 if (a, b) == host.endpoints(e) else 1, "from": a, "to": b})
    return out


# along the path and back: antiparallel and strong
PATH_AND_BACK = [(0, 0, 1), (1, 1, 2), (1, 2, 1), (0, 1, 0)]
# around the triangle and back: antiparallel, but it turns back at vertex 0
THERE_AND_BACK = [(0, 0, 1), (1, 1, 2), (2, 2, 0), (2, 0, 2), (1, 2, 1), (0, 1, 0)]
# around the triangle twice: parallel and strong
TWICE = [(0, 0, 1), (1, 1, 2), (2, 2, 0)] * 2
# the bowtie's Euler tour twice: parallel, but vertex 0 keeps two classes
BOWTIE_TWICE = [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 0, 3), (4, 3, 4), (5, 4, 0)] * 2


def test_valid_traces_pass():
    assert trace_problems(PATH, walk(PATH, PATH_AND_BACK), frozenset({0, 1})) == []
    assert trace_problems(TRIANGLE, walk(TRIANGLE, TWICE), NONE) == []
    assert trace_problems(TRIANGLE, walk(TRIANGLE, TWICE), None) == []
    assert trace_problems(BOWTIE, walk(BOWTIE, BOWTIE_TWICE), frozenset(), d=1) == []


def test_one_face_construction_passes():
    rng = random.Random(0)
    k6 = complete(6)
    tree = find_admissible_tree_randomly(k6.n, k6.edges, frozenset(), rng)
    assert trace_problems(k6, one_face_trace(k6, tree), frozenset(range(15))) == []


@pytest.mark.parametrize(
    "steps, why",
    [
        # two steps swapped: the walk breaks and does not close
        ([THERE_AND_BACK[1], THERE_AND_BACK[0]] + THERE_AND_BACK[2:], "ends at"),
        # one traversal replaced by another edge: one edge thrice, one once
        (THERE_AND_BACK[:5] + [(1, 1, 2)], "used"),
        # a step that is not its edge
        (THERE_AND_BACK[:5] + [(0, 2, 0)], "is not edge"),
        # a step too few
        (THERE_AND_BACK[:5], "steps for"),
    ],
)
def test_broken_walks_fail(steps, why):
    problems = trace_problems(TRIANGLE, walk(TRIANGLE, steps), ALL)
    assert any(why in p for p in problems), problems


def test_flag_must_match_direction():
    steps = walk(TRIANGLE, THERE_AND_BACK)
    steps[0]["flag"] = 1
    assert any("flag" in p for p in trace_problems(TRIANGLE, steps, ALL))


def test_directions_must_match_restriction():
    assert any("not antiparallel" in p for p in trace_problems(TRIANGLE, walk(TRIANGLE, TWICE), ALL))
    assert any("not parallel" in p for p in trace_problems(TRIANGLE, walk(TRIANGLE, THERE_AND_BACK), NONE))
    # one restricted edge; the walk has all three antiparallel
    assert any("edge 1 is not parallel" in p for p in trace_problems(TRIANGLE, walk(TRIANGLE, THERE_AND_BACK), frozenset({0, 2})))


def test_arcs_go_tail_to_head():
    mixed = Host(3, ((0, 1), (1, 2)), ((2, 0),))
    good = [(0, 0, 1), (1, 1, 2), (2, 2, 0)] * 2
    assert trace_problems(mixed, walk(mixed, good), NONE) == []
    backwards = [(2, 0, 2), (1, 2, 1), (0, 1, 0)] * 2
    assert any("arc 2" in p for p in trace_problems(mixed, walk(mixed, backwards), NONE))


def test_repetitions_are_found():
    steps = walk(BOWTIE, BOWTIE_TWICE)
    assert any("2 transition classes" in p for p in trace_problems(BOWTIE, steps, NONE))
    assert any("order 2 <= 2" in p for p in trace_problems(BOWTIE, steps, NONE, d=2))
    turns = trace_problems(TRIANGLE, walk(TRIANGLE, THERE_AND_BACK), ALL)
    assert turns == ["vertex 0 has 2 transition classes"]
