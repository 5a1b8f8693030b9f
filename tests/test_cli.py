"""Command-line behavior: file parsing, dispatch, JSON schemas, exit codes."""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from doubletrace import cli, construction, feasibility, search_backend
from doubletrace.construction import construct
from doubletrace.enumeration import oracle_exists
from doubletrace.errors import ParseError
from doubletrace.feasibility import decide
from doubletrace.graphs import (
    Graph,
    MixedGraph,
    Multigraph,
    TraceQuery,
    complete_graph,
    is_connected,
)
from doubletrace.traces import (
    DoubleTrace,
    RestrictionSet,
    check_restriction,
    is_d_stable,
    is_strong,
    validate_double_trace,
)

GOLDEN = Path(__file__).parent / "golden"
KERNEL_SLOTS = Path(__file__).parent.parent / "e2ebench" / "kernel_slots.json"

C3_TEXT = "n 3\ne 0 1\ne 1 2\ne 2 0\n"
K4_TEXT = "n 4 simple\ne 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"
K4_STAR_TEXT = K4_TEXT + "E 0 1 2\n"
PRISM_TEXT = "n 6\ne 0 1\ne 1 2\ne 2 0\ne 3 4\ne 4 5\ne 5 3\ne 0 3\ne 1 4\ne 2 5\n"
PENTAGONAL_PRISM_TEXT = "n 10\n" + "".join(
    f"e {i} {(i + 1) % 5}\ne {i + 5} {(i + 1) % 5 + 5}\n" for i in range(5)
) + "".join(f"e {i} {i + 5}\n" for i in range(5))
K9_TEXT = cli.render_graph(complete_graph(9))
W4_TEXT = "n 5\ne 0 1\ne 1 2\ne 2 3\ne 3 0\ne 0 4\ne 1 4\ne 2 4\ne 3 4\n"
LOOP_TEXT = "n 3 multi\ne 0 1\ne 1 2\ne 2 0\ne 0 0\n"
MIXED_TEXT = "n 4 mixed\ne 0 1\ne 1 2\ne 2 3\ne 3 0\ne 0 2\na 1 3\nE 0 2\n"
# seeded G(12, 20) and G(9, 18) from e2ebench/kernel_slots.json
G12_20_TEXT = (
    "n 12\ne 0 4\ne 0 8\ne 0 9\ne 0 10\ne 0 11\ne 1 2\ne 1 5\ne 1 8\ne 2 9\ne 2 11\n"
    "e 3 6\ne 3 7\ne 3 10\ne 4 9\ne 4 11\ne 5 8\ne 6 11\ne 7 9\ne 8 11\ne 9 10\n"
    "E 0 1 2 3 4 7 8 10 11 12 13 14 16 17 19\n"
)
G9_18_TEXT = (
    "n 9\ne 0 1\ne 0 3\ne 0 4\ne 0 5\ne 0 6\ne 0 7\ne 1 7\ne 1 8\ne 2 5\ne 2 6\n"
    "e 2 7\ne 2 8\ne 3 4\ne 5 6\ne 5 7\ne 6 7\ne 6 8\ne 7 8\n"
    "E 0 1 2 3 4 5 6 7 9 11 12 13 15 16 17\n"
)
# a seeded G(12, 18) whose fragment is the triangle 4-6-8: the 1-stable
# verdict's tree has a component that only a high-degree vertex excuses,
# and that vertex does not split on it
G12_18_TEXT = (
    "n 12\ne 0 3\ne 6 8\ne 0 5\ne 0 4\ne 3 6\ne 5 7\ne 4 10\ne 2 8\ne 0 1\n"
    "e 4 8\ne 1 7\ne 0 9\ne 10 11\ne 2 7\ne 4 11\ne 5 11\ne 4 6\ne 7 9\n"
    "E 0 2 3 4 5 6 7 8 10 11 12 13 14 15 17\n"
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------


class TestParseGraph:
    def test_c3(self):
        host, r = cli.parse_graph(C3_TEXT)
        assert host == Graph(3, ((0, 1), (1, 2), (2, 0)))
        assert r is None

    def test_header_kind_defaults_to_simple(self):
        host, _ = cli.parse_graph("n 2\ne 0 1\n")
        assert isinstance(host, Graph)

    def test_restriction(self):
        host, r = cli.parse_graph(K4_STAR_TEXT)
        assert host.edge_count == 6
        assert r == RestrictionSet.of([0, 1, 2])

    def test_empty_restriction_record(self):
        _, r = cli.parse_graph(C3_TEXT + "E\n")
        assert r == RestrictionSet.of([])

    def test_comments_and_blanks(self):
        text = "# triangle\n\nn 3  # header\ne 0 1\n  \ne 1 2\ne 2 0\n"
        host, _ = cli.parse_graph(text)
        assert host == Graph(3, ((0, 1), (1, 2), (2, 0)))

    def test_multi_allows_loops_and_parallels(self):
        host, _ = cli.parse_graph("n 2 multi\ne 0 0\ne 0 1\ne 0 1\n")
        assert isinstance(host, Multigraph)
        assert host.edges == ((0, 0), (0, 1), (0, 1))

    def test_mixed(self):
        host, _ = cli.parse_graph("n 3 mixed\ne 0 1\ne 1 2\na 2 0\n")
        assert host == MixedGraph(3, ((0, 1), (1, 2)), ((2, 0),))

    def test_restriction_counts_records_in_file_order(self):
        # the arc sits between the two undirected records, so file index 2
        # names the second undirected edge
        text = "n 3 mixed\ne 0 1\na 0 2\ne 1 2\nE 2\n"
        host, r = cli.parse_graph(text)
        assert host.edges == ((0, 1), (1, 2))
        assert r == RestrictionSet.of([1])

    @pytest.mark.parametrize(
        "text, line",
        [
            ("e 0 1\n", 1),  # record before header
            ("n 3\ne 0 1 2\n", 2),
            ("n 3\ne 0 x\n", 2),
            ("n 3\ne 0 3\n", 2),
            ("n 3\ne 0 0\n", 2),  # loop needs multi
            ("n 3\ne 0 1\ne 1 0\n", 3),  # duplicate pair
            ("n 3\na 0 1\n", 2),  # arc needs mixed
            ("n 3 mixed\na 0 0\n", 2),
            ("n 3 mixed\na 0 1\na 0 1\n", 3),
            ("n 3\nq 0 1\n", 2),
            ("n 3\nn 3\n", 2),
            ("n 3 directed\n", 1),
            ("n -1\n", 1),
            ("n 3\ne 0 1\nE 5\n", 3),
            ("n 3 mixed\ne 0 1\na 1 2\nE 1\n", 4),  # E names an arc
            ("n 3\ne 0 1\nE 0\nE 0\n", 4),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line):
        with pytest.raises(ParseError) as info:
            cli.parse_graph(text)
        assert info.value.line == line

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing 'n"):
            cli.parse_graph("# nothing\n")


class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "host",
        [
            Graph(1, ()),
            Graph(3, ((0, 1), (1, 2), (2, 0))),
            Multigraph(2, ((0, 0), (0, 1), (0, 1))),
            MixedGraph(3, ((0, 1), (1, 2)), ((2, 0), (0, 2))),
        ],
    )
    def test_parse_render_identity(self, host):
        assert cli.parse_graph(cli.render_graph(host)) == (host, None)

    def test_restriction_round_trip(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
        r = RestrictionSet.of([0, 2, 5])
        assert cli.parse_graph(cli.render_graph(g, r)) == (g, r)

    def test_empty_restriction_round_trip(self):
        g = Graph(2, ((0, 1),))
        r = RestrictionSet.of([])
        assert cli.parse_graph(cli.render_graph(g, r)) == (g, r)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


class TestCheck:
    def test_k4_star_restricted_true(self, tmp_path, capsys):
        path = write(tmp_path, "k4star.g", K4_STAR_TEXT)
        code, doc, _ = run_json(capsys, "check", path)
        assert code == 0
        assert doc["outcome"] == "true"
        assert doc["variant"] == "restricted"
        assert doc["restriction"] == [0, 1, 2]
        assert doc["certificate"]["tree_edges"]
        assert doc["even_fragment"] == [3, 4, 5]

    def test_k4_antiparallel_false(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g", K4_TEXT)
        code, doc, _ = run_json(capsys, "check", path, "--variant", "antiparallel")
        assert code == 1
        assert doc["outcome"] == "false"
        assert doc["violated"]

    def test_odd_rank_past_the_gates_is_a_verdict(self, tmp_path, capsys):
        # the dodecahedron GP(10, 2): 20 vertices, co-tree rank 11
        edges = [(i, (i + 1) % 10) for i in range(10)]
        edges += [(i, 10 + i) for i in range(10)]
        edges += [(10 + i, 10 + (i + 2) % 10) for i in range(10)]
        path = write(tmp_path, "dodeca.g", cli.render_graph(Graph(20, edges)))
        code, doc, _ = run_json(capsys, "check", path, "--variant", "antiparallel")
        assert code == 1
        assert doc["outcome"] == "false"
        assert "co-tree rank 11 is odd" in doc["violated"][0]

    def test_even_rank_past_the_gates_is_capacity(self, tmp_path, capsys):
        # K9 has co-tree rank 28: the tree search still refuses it
        path = write(tmp_path, "k9.g", cli.render_graph(complete_graph(9)))
        code, doc, _ = run_json(capsys, "check", path, "--variant", "antiparallel")
        assert code == 3
        assert doc["outcome"] == "unknown (capacity)"

    def test_default_variant_without_restriction_is_strong(self, tmp_path, capsys):
        path = write(tmp_path, "c3.g", C3_TEXT)
        code, doc, _ = run_json(capsys, "check", path)
        assert (code, doc["variant"], doc["outcome"]) == (0, "strong", "true")

    def test_disconnected_is_a_verdict_not_an_error(self, tmp_path, capsys):
        path = write(tmp_path, "two.g", "n 4\ne 0 1\ne 2 3\n")
        code, doc, _ = run_json(capsys, "check", path)
        assert code == 1
        assert "connected" in doc["violated"][0]

    def test_dstable_defaults_to_d1(self, tmp_path, capsys):
        # degree 2 everywhere, so order 1 passes and order 2 fails
        path = write(tmp_path, "c3.g", C3_TEXT)
        code, doc, _ = run_json(capsys, "check", path, "--variant", "dstable")
        assert (code, doc["outcome"]) == (0, "true")
        code, doc, _ = run_json(
            capsys, "check", path, "--variant", "dstable", "--d", "2"
        )
        assert (code, doc["outcome"]) == (1, "false")

    def test_d_rejected_on_strong(self, tmp_path, capsys):
        path = write(tmp_path, "c3.g", C3_TEXT)
        code, _, err = run_cli(capsys, "check", path, "--variant", "strong", "--d", "2")
        assert code == 2
        assert "--d" in err

    @pytest.mark.parametrize("variant", ["dstable", "antiparallel", "restricted"])
    def test_d_below_1_rejected(self, tmp_path, capsys, variant):
        # a disconnected host too: the order is checked before the host
        for name, text in (("c3.g", C3_TEXT), ("two.g", "n 4\ne 0 1\ne 2 3\n")):
            path = write(tmp_path, name, text)
            code, out, err = run_cli(capsys, "check", path, "--variant", variant, "--d", "0")
            assert (code, out) == (2, "")
            assert "at least 1" in err

    def test_multigraph_restricted_needs_e_empty_or_every_edge(self, tmp_path, capsys):
        text = "n 2 multi\ne 0 0\ne 0 1\ne 0 1\n"
        path = write(tmp_path, "m.g", text + "E 1\n")
        code, out, err = run_cli(capsys, "check", path, "--variant", "restricted")
        assert (code, out) == (2, "")
        assert "needs a simple graph or a mixed graph" in err
        # the two extremes answer as parallel and antiparallel do
        for variant, restriction in (("parallel", "E\n"), ("antiparallel", "E 0 1 2\n")):
            path = write(tmp_path, "m.g", text + restriction)
            code, doc, _ = run_json(capsys, "check", path, "--variant", "restricted")
            want_code, want, _ = run_json(capsys, "check", path, "--variant", variant)
            assert code == want_code
            assert {**doc, "variant": variant} == want

    def test_mixed_defaults_to_restricted(self, tmp_path, capsys):
        path = write(tmp_path, "mix.g", "n 3 mixed\ne 0 1\ne 1 2\na 2 0\n")
        code, doc, _ = run_json(capsys, "check", path)
        assert (code, doc["variant"], doc["outcome"]) == (0, "restricted", "true")

    def test_mixed_rejects_other_variants(self, tmp_path, capsys):
        path = write(tmp_path, "mix.g", "n 3 mixed\ne 0 1\ne 1 2\na 2 0\n")
        code, _, err = run_cli(capsys, "check", path, "--variant", "parallel")
        assert code == 2
        assert "mixed" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.g", "n 3\ne 0 9\n")
        code, out, err = run_cli(capsys, "check", path)
        assert (code, out) == (2, "")
        assert "line 2" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/x.g")
        assert code == 2
        assert "cannot read" in err


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def steps_of(doc):
    return tuple((s["edge"], s["flag"]) for s in doc["steps"])


def seeded_cubic(n, seed):
    """A Hamiltonian cycle through a shuffled vertex order plus a random
    perfect matching that avoids its edges: connected and 3-regular."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    cycle = {frozenset((order[i - 1], order[i])) for i in range(n)}
    while True:
        rng.shuffle(order)
        matching = {frozenset(order[i : i + 2]) for i in range(0, n, 2)}
        if cycle.isdisjoint(matching):
            return Graph(n, sorted(tuple(sorted(e)) for e in cycle | matching))


# a path plus chords i-(i+4): 12 vertices, 18 edges, odd degrees, and vertex
# 11 of degree 1, so no d-stable trace
CRITERION_8 = Graph(12, [(i, i + 1) for i in range(11)] + [(i, i + 4) for i in range(7)])
FREE_VARIANTS = [((), None), (("--variant", "dstable"), 1), (("--variant", "dstable", "--d", "2"), 2)]
FREE_IDS = ["strong", "dstable", "dstable-d2"]


def assert_free_build(tmp_path, capsys, monkeypatch, g, argv, d):
    """``construct`` answers within a second, without a tree search or the
    kernel, with a strong trace, or a d-stable one where the degrees allow."""

    def refuse(*args, **kwargs):
        raise AssertionError("free-direction construction searched")

    monkeypatch.setattr(search_backend, "run", refuse)
    for module in (feasibility, construction):
        monkeypatch.setattr(module, "find_admissible_tree", refuse)
    path = write(tmp_path, "free.g", cli.render_graph(g))
    start = time.perf_counter()
    code, doc, err = run_json(capsys, "construct", path, *argv)
    assert time.perf_counter() - start < 1.0
    if d is not None and g.min_degree() <= d:
        assert (code, doc["outcome"]) == (1, "infeasible")
        return
    assert code == 0, err
    walk = DoubleTrace(g, steps_of(doc))
    assert validate_double_trace(walk).ok
    assert is_strong(walk) if d is None else is_d_stable(walk, d)


class TestConstruct:
    def test_c3_parallel_six_steps(self, tmp_path, capsys):
        path = write(tmp_path, "c3.g", C3_TEXT)
        code, doc, _ = run_json(capsys, "construct", path, "--variant", "parallel")
        assert code == 0
        assert doc["length"] == 6
        assert doc["directions"] == ["parallel"] * 3
        assert steps_of(doc) == ((0, 0), (1, 0), (2, 0), (0, 0), (1, 0), (2, 0))

    def test_k4_star_matches_library_golden(self, tmp_path, capsys):
        path = write(tmp_path, "k4star.g", K4_STAR_TEXT)
        code, doc, _ = run_json(capsys, "construct", path)
        assert code == 0
        assert steps_of(doc) == (
            (4, 1), (3, 0), (1, 1), (2, 0), (4, 1), (0, 1),
            (1, 0), (5, 0), (2, 1), (0, 0), (3, 0), (5, 0),
        )
        assert sorted(doc["directions"]) == ["antiparallel"] * 3 + ["parallel"] * 3

    def test_k4_free_directions(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g", K4_TEXT)
        code, doc, _ = run_json(capsys, "construct", path)
        assert code == 0
        g, _ = cli.parse_graph(K4_TEXT)
        walk = DoubleTrace(g, steps_of(doc))
        assert validate_double_trace(walk).ok
        assert is_strong(walk)

    def test_dstable_free_directions(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g", K4_TEXT)
        code, doc, _ = run_json(
            capsys, "construct", path, "--variant", "dstable", "--d", "2"
        )
        assert code == 0
        g, _ = cli.parse_graph(K4_TEXT)
        walk = DoubleTrace(g, steps_of(doc))
        assert validate_double_trace(walk).ok
        assert is_d_stable(walk, 2)

    def test_antiparallel_d1_wheel_11(self, tmp_path, capsys):
        # the hub's degree alone certifies order 1; the exhaustive search
        # took seconds on this wheel, the hub split takes milliseconds
        text = "n 12\n" + "".join(
            f"e {i} {i % 11 + 1}\ne 0 {i}\n" for i in range(1, 12)
        )
        path = write(tmp_path, "w11.g", text)
        start = time.perf_counter()
        code, doc, _ = run_json(
            capsys, "construct", path, "--variant", "antiparallel", "--d", "1"
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        g, _ = cli.parse_graph(text)
        walk = DoubleTrace(g, steps_of(doc))
        assert validate_double_trace(walk).ok
        assert check_restriction(walk, RestrictionSet.of(range(g.edge_count)))
        assert is_d_stable(walk, 1)

    def test_infeasible_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "c3r.g", C3_TEXT + "E 0\n")
        code, doc, _ = run_json(capsys, "construct", path)
        assert code == 1
        assert doc["outcome"] == "infeasible"
        assert doc["violated"]

    def test_mixed(self, tmp_path, capsys):
        text = "n 3 mixed\ne 0 1\ne 1 2\na 2 0\n"
        path = write(tmp_path, "mix.g", text)
        code, doc, _ = run_json(capsys, "construct", path)
        assert code == 0
        host, _ = cli.parse_graph(text)
        walk = DoubleTrace(host, steps_of(doc))
        assert validate_double_trace(walk).ok
        assert doc["directions"][2] == "arc"

    def test_multigraph_loops_antiparallel(self, tmp_path, capsys):
        path = write(tmp_path, "loops.g", "n 1 multi\ne 0 0\ne 0 0\n")
        code, doc, _ = run_json(capsys, "construct", path, "--variant", "antiparallel")
        assert code == 0
        host, _ = cli.parse_graph("n 1 multi\ne 0 0\ne 0 0\n")
        walk = DoubleTrace(host, steps_of(doc))
        assert validate_double_trace(walk).ok
        assert is_strong(walk)
        assert doc["directions"] == ["antiparallel", "antiparallel"]

    @pytest.mark.parametrize(
        "text, argv",
        [
            ("n 1 multi\ne 0 0\n", ("--variant", "dstable")),
            ("n 1 multi\ne 0 0\ne 0 0\n", ("--variant", "antiparallel", "--d", "2")),
        ],
        ids=["one-loop-dstable", "two-loops-antiparallel-d2"],
    )
    def test_loop_is_one_edge_at_the_degree_gate(self, tmp_path, capsys, text, argv):
        # a vertex whose only edges are d loops repeats them in every trace
        path = write(tmp_path, "loops.g", text)
        code, doc, _ = run_json(capsys, "check", path, *argv)
        assert (code, doc["outcome"]) == (1, "false")
        assert "positive degree at most" in doc["violated"][0]
        code, doc, _ = run_json(capsys, "construct", path, *argv)
        assert (code, doc["outcome"]) == (1, "infeasible")

    def test_dot_output(self, tmp_path, capsys):
        path = write(tmp_path, "c3.g", C3_TEXT)
        code, out, _ = run_cli(capsys, "construct", path, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph doubletrace {")
        assert out.count("->") == 6
        assert 'label="e0 s0"' in out

    def test_double_pentagonal_prism(self, tmp_path, capsys):
        # the spokes are antiparallel, the two rims parallel
        text = PENTAGONAL_PRISM_TEXT + "E 10 11 12 13 14\n"
        path = write(tmp_path, "prism.g", text)
        code, doc, err = run_json(capsys, "construct", path, "--variant", "double")
        assert code == 0, err
        g, r = cli.parse_graph(text)
        walk = DoubleTrace(g, steps_of(doc))
        assert validate_double_trace(walk).ok
        assert check_restriction(walk, r)

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(7),
            Graph(10, [(i, (i + s) % 10) for s in (1, 2) for i in range(10)]),
        ],
        ids=["K7", "C10(1,2)"],
    )
    @pytest.mark.parametrize("argv, d", FREE_VARIANTS, ids=FREE_IDS)
    def test_even_degrees_past_the_sweep_gate(self, tmp_path, capsys, monkeypatch, g, argv, d):
        # more than 16 edges; the empty antiparallel set fits
        assert_free_build(tmp_path, capsys, monkeypatch, g, argv, d)

    @pytest.mark.parametrize(
        "g",
        [CRITERION_8, complete_graph(12), seeded_cubic(40, 1), seeded_cubic(200, 2)],
        ids=["criterion8", "K12", "cubic40", "cubic200"],
    )
    @pytest.mark.parametrize("argv, d", FREE_VARIANTS, ids=FREE_IDS)
    def test_odd_degrees_past_the_sweep_gate(self, tmp_path, capsys, monkeypatch, g, argv, d):
        # K12 and the cubic graphs are past the tree-search gates too: the
        # antiparallel set is a T-join and its certificate is written down
        assert_free_build(tmp_path, capsys, monkeypatch, g, argv, d)


def small_simple_graphs():
    """Every connected simple graph on vertex set {0..n-1}, n <= 5."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
            if is_connected(g):
                yield g


def small_multigraphs():
    """Every connected multigraph on vertex set {0..n-1}, n <= 3, with at
    most 5 edges, loops and parallel edges included, edges in sorted order."""
    for n in range(1, 4):
        kinds = list(itertools.combinations_with_replacement(range(n), 2))
        for m in range(6):
            for edges in itertools.combinations_with_replacement(kinds, m):
                h = Multigraph(n, edges)
                if is_connected(h):
                    yield h


def reference_verdict(host, variant, d):
    """What the parallel and antiparallel questions ask of a simple host:
    every degree even, or an admissible tree of the host whose witnesses
    are the vertices of degree at least 2d + 2; each behind the degree
    gate on distinct incident edges.  Returns (verdict, tree certificate)."""
    n = host.vertex_count
    if d is not None and any(0 < len(host.incident(v)) <= d for v in range(n)):
        return False, None
    if variant == "parallel":
        return all(host.degree(v) % 2 == 0 for v in range(n)), None
    witness = None if d is None else (lambda v: host.degree(v) >= 2 * d + 2)
    cert = feasibility.find_admissible_tree(host, witness)
    return cert is not None, cert


class TestRoutedVariants:
    """``parallel`` and ``antiparallel`` are the restricted decision with E
    empty and E = all edges: the routed verdicts match the direct questions
    on simple hosts and the exhaustive kernel on multigraphs, and every
    positive builds without the kernel.  On multigraphs ``restricted`` with
    those two restrictions asks the same questions and gets the same
    answers."""

    def cross_check(self, monkeypatch, hosts):
        kernel = search_backend.run

        def refuse(*args, **kwargs):
            raise AssertionError("parallel or antiparallel construct reached the kernel")

        def referee(q):
            # the kernel judges a multigraph: the tree search on the host
            # is the characterization under test, loops included
            with monkeypatch.context() as m:
                m.setattr(search_backend, "run", kernel)
                return oracle_exists(q), None

        monkeypatch.setattr(search_backend, "run", refuse)
        count = positives = 0
        for host in hosts:
            # (the question asked, the variant that asks it, its restriction)
            cells = [("parallel", "parallel", None), ("antiparallel", "antiparallel", None)]
            if isinstance(host, Multigraph):
                # the restricted variant with E empty or E = every edge, the
                # two restricted cells a multigraph answers
                cells += [
                    ("parallel", "restricted", RestrictionSet.of(())),
                    ("antiparallel", "restricted", RestrictionSet.of(range(host.edge_count))),
                ]
            for (question, variant, file_r), d in itertools.product(cells, (None, 1, 2)):
                count += 1
                q = TraceQuery.for_variant(host, variant, d, file_r)
                answer = decide(q)
                if isinstance(host, Multigraph):
                    verdict, cert = referee(q)
                else:
                    verdict, cert = reference_verdict(host, question, d)
                assert answer.verdict == verdict, (host, variant, d)
                if isinstance(host, Graph) and question == "antiparallel":
                    assert answer.certificate == cert, (host, d)
                if not verdict:
                    continue
                positives += 1
                walk = construct(q, answer)
                assert validate_double_trace(walk).ok, (host, variant, d)
                assert check_restriction(walk, q.restriction), (host, variant, d)
                assert is_strong(walk) if d is None else is_d_stable(walk, d)
        return count, positives

    def test_simple_graphs(self, monkeypatch):
        count, positives = self.cross_check(monkeypatch, small_simple_graphs())
        assert count == 6 * 772
        assert 0 < positives < count

    def test_multigraphs(self, monkeypatch):
        count, positives = self.cross_check(monkeypatch, small_multigraphs())
        assert count == 12 * 237
        assert 0 < positives < count

    @pytest.mark.parametrize(
        "text",
        ["n 1 multi\ne 0 0\n", "n 2 multi\ne 0 0\ne 0 1\ne 1 1\n"],
        ids=["lone-loop", "two-loops-and-an-edge"],
    )
    def test_a_loop_excuses_its_vertex(self, tmp_path, capsys, text):
        # each host has odd co-tree rank, so only its looped vertices
        # excuse the odd co-tree component
        gpath = write(tmp_path, "g.g", text)
        code, doc, _ = run_json(capsys, "check", gpath, "--variant", "antiparallel")
        assert (code, doc["outcome"]) == (0, "true")
        code, out, err = run_cli(capsys, "construct", gpath, "--variant", "antiparallel")
        assert code == 0, err
        tpath = write(tmp_path, "t.json", out)
        code, doc, _ = run_json(capsys, "classify", tpath, gpath)
        assert code == 0
        assert (doc["valid"], doc["strong"]) == (True, True)
        assert set(doc["directions"]) == {"antiparallel"}


class TestFreeDirections:
    """``strong`` and ``dstable`` on every small host: the verdict is true
    for ``strong`` and the degree gate on distinct incident edges for
    ``dstable``, and every positive builds without the kernel, loops and
    parallel edges included."""

    def cross_check(self, monkeypatch, hosts):
        def refuse(*args, **kwargs):
            raise AssertionError("strong or dstable construct reached the kernel")

        monkeypatch.setattr(search_backend, "run", refuse)
        count = positives = 0
        for host, d in itertools.product(hosts, (None, 1, 2)):
            count += 1
            q = TraceQuery.for_variant(host, "strong" if d is None else "dstable", d, None)
            answer = decide(q)
            verdict = d is None or all(
                not 0 < len(host.incident(v)) <= d for v in range(host.vertex_count)
            )
            assert answer.verdict == verdict, (host, d)
            if not verdict:
                continue
            positives += 1
            walk = construct(q, answer)
            assert validate_double_trace(walk).ok, (host, d)
            assert is_strong(walk) if d is None else is_d_stable(walk, d), (host, d)
        return count, positives

    def test_simple_graphs(self, monkeypatch):
        count, positives = self.cross_check(monkeypatch, small_simple_graphs())
        assert count == 3 * 772
        assert 0 < positives < count

    def test_multigraphs(self, monkeypatch):
        count, positives = self.cross_check(monkeypatch, small_multigraphs())
        assert count == 3 * 237
        assert 0 < positives < count

    @pytest.mark.parametrize(
        "text",
        [
            "n 3 multi\ne 0 1\ne 0 2\ne 2 2\n",
            "n 2 multi\ne 0 0\ne 1 1\ne 0 1\n",
            # 12 edges, past the exhaustive search's limit of 10
            "n 4 multi\ne 0 1\ne 1 2\ne 2 3\ne 3 0\ne 0 2\ne 0 2\ne 1 3\n"
            "e 0 0\ne 1 1\ne 2 2\ne 2 2\ne 3 3\n",
        ],
        ids=["pendant-loop", "two-loops", "twelve-edges"],
    )
    def test_loops_build_strong(self, tmp_path, capsys, text):
        gpath = write(tmp_path, "g.g", text)
        code, out, err = run_cli(capsys, "construct", gpath, "--variant", "strong")
        assert code == 0, err
        tpath = write(tmp_path, "t.json", out)
        code, doc, _ = run_json(capsys, "classify", tpath, gpath)
        assert code == 0
        assert (doc["valid"], doc["strong"]) == (True, True)


class TestOneTreeSearch:
    """``construct`` runs the admissible-tree search once per decided query
    and builds from that verdict's tree.  The one exception is a d-stable
    verdict whose tree has a degree-bar component that does not split: the
    build then searches again, with ``accept=``, for a tree that does.  A
    free-direction query searches no tree at all."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """One entry per tree search: whether it was an ``accept=`` search."""
        calls = []
        original = feasibility.find_admissible_tree

        def spy(*args, **kwargs):
            calls.append("accept" in kwargs)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "find_admissible_tree", None)
            if name.startswith("doubletrace") and bound is original:
                monkeypatch.setattr(module, "find_admissible_tree", spy)
        return calls

    def construct(self, tmp_path, capsys, searches, text, *argv):
        path = write(tmp_path, "query.g", text)
        searches.clear()
        code, _, err = run_cli(capsys, "construct", path, "--jobs", "1", *argv)
        assert code == 0, err
        return list(searches)

    def test_kernel_slots(self, tmp_path, capsys, searches):
        counts = {}
        for item in json.loads(KERNEL_SLOTS.read_text()):
            r = item["restriction"]
            text = cli.render_graph(
                Graph(item["n"], item["edges"]),
                None if r is None else RestrictionSet.of(r),
            )
            argv = ["--variant", item["variant"]]
            if item["d"] is not None:
                argv += ["--d", str(item["d"])]
            counts[item["slot"]] = self.construct(tmp_path, capsys, searches, text, *argv)
        assert len(counts) == 16
        assert counts == {slot: [False] for slot in counts}

    @pytest.mark.parametrize(
        "text, argv, expected",
        [
            (K4_STAR_TEXT, ("--variant", "restricted"), [False]),
            (MIXED_TEXT, (), [False]),
            (W4_TEXT, ("--variant", "antiparallel"), [False]),
            # every degree is odd: the T-join's certificate is written down
            (K4_TEXT, ("--variant", "strong"), []),
            (G12_18_TEXT, ("--variant", "restricted", "--d", "1"), [False, True]),
        ],
        ids=["restricted", "mixed", "antiparallel", "free-strong", "degree-bar-research"],
    )
    def test_one_search_per_query(self, tmp_path, capsys, searches, text, argv, expected):
        assert self.construct(tmp_path, capsys, searches, text, *argv) == expected


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


class TestClassify:
    def build(self, tmp_path, capsys, graph_text, *flags):
        gpath = write(tmp_path, "g.g", graph_text)
        code, out, _ = run_cli(capsys, "construct", gpath, *flags)
        assert code == 0
        tpath = write(tmp_path, "t.json", out)
        return gpath, tpath

    def test_construct_output_passes(self, tmp_path, capsys):
        gpath, tpath = self.build(tmp_path, capsys, K4_STAR_TEXT)
        code, doc, _ = run_json(capsys, "classify", tpath, gpath)
        assert code == 0
        assert doc["valid"] is True
        assert doc["strong"] is True
        assert doc["restriction_match"] is True
        assert doc["repetitions"]["total"] == 0
        assert doc["stable_order"] == 2

    def test_loop_trace_round_trip(self, tmp_path, capsys):
        text = "n 1 multi\ne 0 0\ne 0 0\n"
        gpath, tpath = self.build(tmp_path, capsys, text, "--variant", "antiparallel")
        code, doc, _ = run_json(capsys, "classify", tpath, gpath)
        assert code == 0
        assert doc["valid"] is True

    def test_tampered_trace_invalid(self, tmp_path, capsys):
        gpath, tpath = self.build(tmp_path, capsys, K4_STAR_TEXT)
        doc = json.loads(Path(tpath).read_text())
        doc["steps"] = doc["steps"][:-1]
        Path(tpath).write_text(json.dumps(doc))
        code, out, _ = run_json(capsys, "classify", tpath, gpath)
        assert code == 1
        assert out["valid"] is False
        assert out["problems"]

    def test_flag_inferred_from_endpoint(self, tmp_path, capsys):
        gpath = write(tmp_path, "c3.g", C3_TEXT)
        steps = [
            {"edge": 0, "from": 0}, {"edge": 1, "from": 1}, {"edge": 2, "from": 2},
            {"edge": 0, "from": 0}, {"edge": 1, "from": 1}, {"edge": 2, "from": 2},
        ]
        tpath = write(tmp_path, "t.json", json.dumps({"steps": steps}))
        code, doc, _ = run_json(capsys, "classify", tpath, gpath)
        assert code == 0
        assert doc["valid"] is True

    def test_loop_without_flag_rejected(self, tmp_path, capsys):
        gpath = write(tmp_path, "loop.g", "n 1 multi\ne 0 0\n")
        tpath = write(
            tmp_path, "t.json", json.dumps({"steps": [{"edge": 0, "from": 0}]})
        )
        code, _, err = run_cli(capsys, "classify", tpath, gpath)
        assert code == 2
        assert "flag" in err

    def test_contradictory_endpoints_rejected(self, tmp_path, capsys):
        gpath = write(tmp_path, "c3.g", C3_TEXT)
        tpath = write(
            tmp_path,
            "t.json",
            json.dumps({"steps": [{"edge": 0, "flag": 0, "from": 1}]}),
        )
        code, _, err = run_cli(capsys, "classify", tpath, gpath)
        assert code == 2
        assert "contradicts" in err

    def test_bad_json_exit_2(self, tmp_path, capsys):
        gpath = write(tmp_path, "c3.g", C3_TEXT)
        tpath = write(tmp_path, "t.json", "{nope")
        code, _, err = run_cli(capsys, "classify", tpath, gpath)
        assert code == 2


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


class TestEnumerate:
    def test_c3_parallel_classes(self, tmp_path, capsys):
        path = write(tmp_path, "c3.g", C3_TEXT)
        code, doc, _ = run_json(
            capsys, "enumerate", path, "--variant", "parallel", "--classes"
        )
        assert code == 0
        assert doc["count"] == 1
        assert doc["classes"][0]["size"] == 6
        assert doc["raw_total"] == 6

    def test_empty_result_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "c3.g", C3_TEXT)
        code, doc, _ = run_json(capsys, "enumerate", path, "--variant", "antiparallel")
        assert code == 1
        assert doc["count"] == 0
        assert doc["traces"] == []

    def test_k4_restriction_size_sweep(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g", K4_TEXT)
        code, doc, _ = run_json(capsys, "enumerate", path, "--p", "3", "--classes")
        assert code == 0
        assert doc["count"] == 2
        assert doc["p"] == 3
        assert doc["raw_total"] == 384

    def test_jobs_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        # --jobs is accepted and ignored: no worker pool is started
        import multiprocessing

        def pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", pool)
        path = write(tmp_path, "k4.g", K4_TEXT)
        _, out1, _ = run_cli(capsys, "enumerate", path, "--p", "3", "--classes")
        for jobs in ("2", "4"):
            code, out2, _ = run_cli(
                capsys, "enumerate", path, "--p", "3", "--classes", "--jobs", jobs
            )
            assert code == 0
            assert out1 == out2

    def test_p_dstable_defaults_to_1_stable(self, tmp_path, capsys):
        # as everywhere else, dstable without --d means d = 1, not strong
        path = write(tmp_path, "w4.g", W4_TEXT)
        argv = ("enumerate", path, "--p", "2", "--classes", "--variant")
        _, default, _ = run_cli(capsys, *argv, "dstable")
        _, d1, _ = run_cli(capsys, *argv, "dstable", "--d", "1")
        _, strong, _ = run_cli(capsys, *argv, "strong")
        assert default == d1
        assert (json.loads(default)["count"], json.loads(default)["raw_total"]) == (18, 2688)
        assert (json.loads(strong)["count"], json.loads(strong)["raw_total"]) == (11, 1792)

    def test_p_strong_rejects_d(self, tmp_path, capsys):
        path = write(tmp_path, "w4.g", W4_TEXT)
        code, out, err = run_cli(
            capsys, "enumerate", path, "--p", "2", "--variant", "strong", "--d", "1"
        )
        assert code == 2
        assert out == ""
        assert "--d does not apply to the strong variant" in err

    def test_p_conflicts_with_direction_variants(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g", K4_TEXT)
        code, _, err = run_cli(
            capsys, "enumerate", path, "--p", "2", "--variant", "parallel"
        )
        assert code == 2

    def test_p_out_of_range_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "k4.g", K4_TEXT)
        for p in ("-1", "7"):
            code, out, err = run_cli(capsys, "enumerate", path, "--p", p)
            assert code == 2
            assert out == ""
            assert "--p must be between 0 and 6" in err

    def test_p_needs_simple_host(self, tmp_path, capsys):
        path = write(tmp_path, "m.g", "n 2 multi\ne 0 1\ne 0 1\n")
        code, _, err = run_cli(capsys, "enumerate", path, "--p", "1")
        assert code == 2

    def test_classes_need_simple_host(self, tmp_path, capsys):
        path = write(tmp_path, "m.g", "n 2 multi\ne 0 1\ne 0 1\n")
        code, _, err = run_cli(capsys, "enumerate", path, "--classes")
        assert code == 2

    def test_multigraph_flat_enumeration(self, tmp_path, capsys):
        path = write(tmp_path, "m.g", "n 2 multi\ne 0 1\ne 0 1\n")
        code, doc, _ = run_json(capsys, "enumerate", path, "--variant", "parallel")
        assert code == 0
        assert doc["count"] >= 1

    def test_oracle_capacity_exit_3(self, tmp_path, capsys):
        k5 = "n 5\n" + "".join(
            f"e {u} {v}\n" for u in range(5) for v in range(u + 1, 5)
        )
        path = write(tmp_path, "k5.g", k5)
        for argv in ((), ("--p", "2")):
            code, doc, _ = run_json(capsys, "enumerate", path, *argv)
            assert code == 3
            assert doc["outcome"] == "unknown (capacity)"
        # past the gate, a disconnected host lists nothing
        path = write(tmp_path, "two.g", "n 2\n")
        code, doc, _ = run_json(capsys, "enumerate", path, "--p", "0")
        assert code == 1
        assert doc["count"] == 0


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------


class TestGolden:
    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("cli_k4_star_check.json", K4_STAR_TEXT, ("check",)),
            ("cli_k4_star_construct.json", K4_STAR_TEXT, ("construct",)),
            ("cli_k4_strong_construct.json", K4_TEXT, ("construct",)),
            ("cli_c3_parallel_construct.json", C3_TEXT, ("construct", "--variant", "parallel")),
            ("cli_c3_parallel_check.json", C3_TEXT, ("check", "--variant", "parallel")),
            ("cli_k4_parallel_check.json", K4_TEXT, ("check", "--variant", "parallel")),
            ("cli_k4_antiparallel_check.json", K4_TEXT, ("check", "--variant", "antiparallel")),
            ("cli_prism_antiparallel_check.json", PRISM_TEXT, ("check", "--variant", "antiparallel")),
            ("cli_k9_antiparallel_check.json", K9_TEXT, ("check", "--variant", "antiparallel")),
            ("cli_k4_enumerate_classes.json", K4_TEXT, ("enumerate", "--classes")),
            (
                "cli_k4_star_enumerate_restricted_classes.json",
                K4_STAR_TEXT,
                ("enumerate", "--classes", "--variant", "restricted"),
            ),
            ("cli_prism_enumerate_p2.json", PRISM_TEXT, ("enumerate", "--p", "2")),
            ("cli_prism_enumerate_p3_classes.json", PRISM_TEXT, ("enumerate", "--p", "3", "--classes")),
            ("cli_prism_enumerate_p4.json", PRISM_TEXT, ("enumerate", "--p", "4")),
            ("cli_loop_multigraph_enumerate.json", LOOP_TEXT, ("enumerate",)),
            ("cli_mixed_enumerate.json", MIXED_TEXT, ("enumerate",)),
            (
                "cli_g12_20_restricted_d1_construct.json",
                G12_20_TEXT,
                ("construct", "--variant", "restricted", "--d", "1", "--jobs", "1"),
            ),
            (
                "cli_g9_18_restricted_d1_construct.json",
                G9_18_TEXT,
                ("construct", "--variant", "restricted", "--d", "1", "--jobs", "1"),
            ),
        ],
    )
    def test_byte_stable(self, tmp_path, capsys, name, text, argv):
        path = write(tmp_path, "g.g", text)
        _, out, _ = run_cli(capsys, argv[0], path, *argv[1:])
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize(
        "name, text",
        [
            ("cli_g12_20_restricted_d1_construct.json", G12_20_TEXT),
            ("cli_g9_18_restricted_d1_construct.json", G9_18_TEXT),
        ],
    )
    def test_d1_goldens_are_valid(self, name, text):
        g, r = cli.parse_graph(text)
        walk = DoubleTrace(g, steps_of(json.loads((GOLDEN / name).read_text())))
        assert validate_double_trace(walk).ok
        assert check_restriction(walk, r)
        assert is_d_stable(walk, 1)


# one record and one nested object, each held many times and at two depths,
# as enumerate's trace steps share their records
SHARED_RECORD = {"edge": 2, "flag": 1, "from": 4, "to": 3}
SHARED_NESTED = {"steps": [SHARED_RECORD, SHARED_RECORD], "size": 2}


class TestJsonWriter:
    """The writer behind every JSON answer gives the bytes of
    json.dumps(obj, indent=2, sort_keys=True)."""

    DOCUMENTS = [
        {},
        [],
        {"empty": [], "nested": {}, "list": [[], {}]},
        {"none": None, "yes": True, "no": False, "flags": [True, False, None]},
        {"edge": -3, "flag": 0, "from": -1, "to": 2},
        {"flag": True, "edge": 1},
        {"100%": 1, "%d": -2, "%%s": 3},
        [{"edge": 1, "to": 2}, {"edge": 3, "to": 4}, {"to": 5, "edge": 6, "z": 7}],
        [1, -2, [3, [-4, []]], {"x": [5]}],
        {"quote\"": "back\\slash", "ctl": "tab\tnl\ncr\r\x00\x1f\x7f",
         "text": "Gradišar — β ☃ \U0001f600", "": ""},
        {"outer": {"inner": [{"a": 1, "b": [None, "s"]}, {"c": {"d": {}}}]}},
        ("tuple", 7, ("nested", None)),
        [SHARED_RECORD] * 5 + [[SHARED_RECORD, [SHARED_RECORD]], {"r": SHARED_RECORD}],
        {"classes": [SHARED_NESTED] * 3, "deeper": [[SHARED_NESTED, SHARED_RECORD]],
         "record": SHARED_RECORD, "steps": [SHARED_RECORD] * 4},
        "bare string",
        12,
        None,
    ]

    @pytest.mark.parametrize("doc", DOCUMENTS, ids=range(len(DOCUMENTS)))
    def test_hand_made(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
    def test_goldens(self, name):
        doc = json.loads((GOLDEN / name).read_text())
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def run_entry_point(tmp_path, *cmd):
    """``check`` on a triangle through a command, with this tree's sources
    on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    path = tmp_path / "c3.g"
    path.write_text(C3_TEXT)
    return subprocess.run(
        [*cmd, "check", str(path)], capture_output=True, text=True, env=env
    )


def test_console_script_smoke(tmp_path):
    # the installed script, else the same entry point run from the source tree
    exe = shutil.which("doubletrace")
    cmd = [exe] if exe is not None else [sys.executable, "-m", "doubletrace.cli"]
    proc = run_entry_point(tmp_path, *cmd)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["outcome"] == "true"


def test_module_entry_point_warns_nothing(tmp_path):
    # the package must not import ``cli`` itself, or ``-m doubletrace.cli``
    # finds the module already loaded and warns
    proc = run_entry_point(
        tmp_path, sys.executable, "-W", "error::RuntimeWarning", "-m", "doubletrace.cli"
    )
    assert proc.returncode == 0, proc.stderr
