"""Time trace builds as the graph grows, to show how build time scales with
the walk.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_scale.py [--sizes 200,400,...]
        [--repeat N] [--json FILE]

Families, each drawn from a seed fixed by its size:

* ``G(n,2n)``: n = m/2 vertices, a random spanning tree plus random edges
  up to m edges;
* ``cubic``: a random Hamiltonian cycle plus a random perfect matching
  that repeats none of its edges, about m edges;
* ``multi``: a G(n,2n) draw as above with m - 2k edges, k = m/10, plus k
  copies of its edges and k loops at random vertices, m edges in all;
* ``mixed``: a directed Hamiltonian cycle on n = m/4 + 8 vertices plus
  edge-disjoint random directed cycles of length 3-8, at least m edges,
  70% of them undirected and stored in a random direction, the rest arcs.

Variants: ``strong`` and ``double`` on the first two families, ``strong``
on ``multi``, ``double`` with E the
T-join restriction that the free-direction build writes; ``dstable``
(d = 1) on cubic graphs only, since a G(n,2n) draw has leaves and so no
1-stable trace; ``restricted`` with E empty on ``mixed``, whose quotient is
one vertex, so the decision is the balanced orientation of the host.  Each
point times the decision and the build separately, ``--repeat`` times, and
keeps the medians; every trace is validated after the timing.  The log-log
slope of build time over edges is fitted by least squares per family and
variant.
"""

import argparse
import json
import math
import platform
import random
import statistics
import sys
import time

from doubletrace.construction import _t_join_certificate, construct
from doubletrace.feasibility import decide
from doubletrace.graphs import Graph, Host, MixedGraph, Multigraph, TraceQuery
from doubletrace.traces import check_restriction, is_d_stable, is_strong, validate_double_trace


def _tree_plus(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree on n vertices plus random pairs, m distinct
    edges in sorted order."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return sorted(edges)


def gnm(m: int) -> Graph:
    rng = random.Random(f"G(n,2n):{m}")
    edges = _tree_plus(rng, m // 2, m)
    rng.shuffle(edges)
    return Graph(m // 2, edges)


def multi(m: int) -> Multigraph:
    rng = random.Random(f"multi:{m}")
    n, k = m // 2, m // 10
    edges = _tree_plus(rng, n, m - 2 * k)
    edges += rng.choices(edges, k=k) + [(v, v) for v in rng.choices(range(n), k=k)]
    rng.shuffle(edges)
    return Multigraph(n, edges)


def cubic(m: int) -> Graph:
    rng = random.Random(f"cubic:{m}")
    n = 2 * (m // 3)  # 3n/2 edges, n even
    while True:
        order = list(range(n))
        rng.shuffle(order)
        cycle = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
        rng.shuffle(order)
        matching = {tuple(sorted(order[i : i + 2])) for i in range(0, n, 2)}
        if not cycle & matching:
            edges = sorted(cycle | matching)
            rng.shuffle(edges)
            return Graph(n, edges)


def mixed(m: int) -> MixedGraph:
    rng = random.Random(f"mixed:{m}")
    n = m // 4 + 8  # enough vertex pairs for the cycles at every m
    order = list(range(n))
    rng.shuffle(order)
    pairs = list(zip(order, order[1:] + order[:1]))
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < m:
        cycle = rng.sample(range(n), rng.randint(3, 8))
        steps = list(zip(cycle, cycle[1:] + cycle[:1]))
        keys = {frozenset(p) for p in steps}
        if not keys & seen:
            seen |= keys
            pairs += steps
    edges, arcs = [], []
    for a, b in pairs:
        if rng.random() < 0.7:
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
        else:
            arcs.append((a, b))
    return MixedGraph(n, edges=edges, arcs=arcs)


FAMILIES = {"G(n,2n)": gnm, "cubic": cubic, "multi": multi, "mixed": mixed}
POINTS = [
    ("G(n,2n)", "strong"),
    ("G(n,2n)", "double"),
    ("cubic", "strong"),
    ("cubic", "dstable"),
    ("cubic", "double"),
    ("multi", "strong"),
    ("mixed", "restricted"),
]


def run_point(g: Host, variant: str, repeat: int) -> dict:
    d = 1 if variant == "dstable" else None
    r = _t_join_certificate(g)[0] if variant == "double" else None
    decide_s, build_s = [], []
    for _ in range(repeat):
        start = time.perf_counter()
        query = TraceQuery.for_variant(g, variant, d, r)
        answer = decide(query)
        decide_s.append(time.perf_counter() - start)
        if not answer:
            raise SystemExit(f"{variant} refused on a {g.edge_count}-edge draw: {answer.violated}")
        start = time.perf_counter()
        walk = construct(query, answer)
        build_s.append(time.perf_counter() - start)
    ok = validate_double_trace(walk).ok
    if variant == "double":
        ok = ok and check_restriction(walk, r)
    elif variant == "restricted":
        ok = ok and check_restriction(walk, query.restriction) and is_strong(walk)
    else:
        ok = ok and (is_strong(walk) if d is None else is_d_stable(walk, d))
    if not ok:
        raise SystemExit(f"{variant} built an invalid trace on a {g.edge_count}-edge draw")
    return {
        "edges": g.edge_count,
        "vertices": g.vertex_count,
        "steps": len(walk.steps),
        "decide_s": statistics.median(decide_s),
        "build_s": statistics.median(build_s),
    }


def slope(rows: list[dict]) -> float:
    """Least-squares slope of log(build_s) over log(edges)."""
    xs = [math.log(row["edges"]) for row in rows]
    ys = [math.log(row["build_s"]) for row in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="200,400,800,1600,3200",
                        help="comma-separated edge counts")
    parser.add_argument("--repeat", type=int, default=3, help="runs per point")
    parser.add_argument("--json", help="also write the rows and slopes to this file")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    result = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
        f"{platform.python_version()}",
        "repeat": args.repeat,
        "points": {},
    }
    print(f"{'family':8} {'variant':8} {'edges':>6} {'steps':>6} {'decide_s':>9} {'build_s':>9}")
    for family, variant in POINTS:
        rows = []
        for m in sizes:
            row = run_point(FAMILIES[family](m), variant, args.repeat)
            rows.append(row)
            print(f"{family:8} {variant:8} {row['edges']:>6} {row['steps']:>6} "
                  f"{row['decide_s']:>9.4f} {row['build_s']:>9.4f}", flush=True)
        fit = slope(rows) if len(rows) > 1 else None
        if fit is not None:
            print(f"{family:8} {variant:8} log-log slope of build time {fit:.2f}")
        result["points"][f"{family} {variant}"] = {"rows": rows, "build_slope": fit}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
