"""Time the exhaustive search kernel on fixed workloads.

Run from the repository root:

    python3 benchmarks/bench_search.py [--repeat N]
"""

import argparse
import statistics
import time

from doubletrace import search_backend
from doubletrace.graphs import Graph, complete_graph, cycle_graph
from doubletrace.search_backend import ANTI, FREE, MODE_COUNT_RAW, MODE_EXISTS, PAR


def lower(g):
    return g.vertex_count, [a for a, _ in g.edges], [b for _, b in g.edges]


WHEEL = Graph(6, [(i, i % 5 + 1) for i in range(1, 6)] + [(0, i) for i in range(1, 6)])

CASES = [
    ("K4 raw census", complete_graph(4), [FREE] * 6, {"mode": MODE_COUNT_RAW}),
    (
        "K5 strong trace",
        complete_graph(5),
        [FREE] * 10,
        {"mode": MODE_EXISTS, "require_strong": True},
    ),
    (
        "C6 antiparallel census",
        cycle_graph(6),
        [ANTI] * 6,
        {"mode": MODE_COUNT_RAW},
    ),
    (
        "K4 mixed labels census",
        complete_graph(4),
        [ANTI, ANTI, ANTI, PAR, PAR, PAR],
        {"mode": MODE_COUNT_RAW},
    ),
    (
        "wheel 1-stable antiparallel",
        WHEEL,
        [ANTI] * 10,
        {"mode": MODE_EXISTS, "d_max": 1},
    ),
]


def bench(g, labels, kw, repeat):
    n, ea, eb = lower(g)
    times = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = search_backend.run(n, ea, eb, list(labels), **kw)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def summarize(result):
    if isinstance(result, int):
        return f"count={result}"
    if result is None:
        return "none"
    return f"steps={len(result)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print(f"{'case':<28} {'median':>10}  result")
    for name, g, labels, kw in CASES:
        t, result = bench(g, labels, kw, args.repeat)
        print(f"{name:<28} {t * 1e3:>8.1f}ms  {summarize(result)}")


if __name__ == "__main__":
    main()
