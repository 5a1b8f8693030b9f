"""Time the exhaustive search kernel on fixed workloads, the folding of
its enumeration output into symmetry classes, the enumeration that
emits one lex-leader per class instead, and the CLI's ``--p`` sweeps.

Run from the repository root:

    python3 benchmarks/bench_search.py [--repeat N]
"""

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
import time

from doubletrace import cli, search_backend
from doubletrace.enumeration import _step_tables, fold_classes
from doubletrace.graphs import Graph, automorphisms, complete_graph, cycle_graph
from doubletrace.search_backend import (
    ANTI,
    FREE,
    MODE_COUNT_RAW,
    MODE_ENUM_FIXED,
    MODE_EXISTS,
    PAR,
)


def lower(g):
    return g.vertex_count, [a for a, _ in g.edges], [b for _, b in g.edges]


WHEEL = Graph(6, [(i, i % 5 + 1) for i in range(1, 6)] + [(0, i) for i in range(1, 6)])
# the heaviest hosts of the enumerate workload: the pyramid over a square and
# K4 with a path of length two between two of its vertices
WHEEL4 = Graph(5, [(i, (i + 1) % 4) for i in range(4)] + [(i, 4) for i in range(4)])
K4_EAR = Graph(5, list(complete_graph(4).edges) + [(0, 4), (4, 1)])


def tables(g):
    return _step_tables(g, automorphisms(g))


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
    (
        "W4 strong enumeration",
        WHEEL4,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "require_strong": True},
    ),
    (
        "W4 1-stable enumeration",
        WHEEL4,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "d_max": 1},
    ),
    (
        "K4+ear strong enumeration",
        K4_EAR,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "require_strong": True},
    ),
    (
        "K4+ear 1-stable enumeration",
        K4_EAR,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "d_max": 1},
    ),
    # the same four enumerations with the automorphisms' step tables: the
    # kernel emits one lex-leader per class, and no fold is needed
    (
        "W4 strong leaders",
        WHEEL4,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "require_strong": True, "tables": tables(WHEEL4)},
    ),
    (
        "W4 1-stable leaders",
        WHEEL4,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "d_max": 1, "tables": tables(WHEEL4)},
    ),
    (
        "K4+ear strong leaders",
        K4_EAR,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "require_strong": True, "tables": tables(K4_EAR)},
    ),
    (
        "K4+ear 1-stable leaders",
        K4_EAR,
        [FREE] * 8,
        {"mode": MODE_ENUM_FIXED, "d_max": 1, "tables": tables(K4_EAR)},
    ),
]


# fold_classes over the fixed-start sequences of the enumeration cases above,
# under the full automorphism group, so the fold layer is timed next to the
# kernel that feeds it
FOLD_CASES = [
    ("W4 strong fold", WHEEL4, {"require_strong": True}),
    ("W4 1-stable fold", WHEEL4, {"d_max": 1}),
    ("K4+ear strong fold", K4_EAR, {"require_strong": True}),
    ("K4+ear 1-stable fold", K4_EAR, {"d_max": 1}),
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


def bench_fold(g, kw, repeat):
    n, ea, eb = lower(g)
    sequences = search_backend.run(n, ea, eb, [FREE] * len(ea), mode=MODE_ENUM_FIXED, **kw)
    auts = automorphisms(g)
    times = []
    classes = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        classes = fold_classes(g, sequences, auts)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(sequences), len(classes)


def bench_sweeps(repeat):
    """cli.main on the --p queries of the e2ebench enumerate workload, the
    command lines as the workload writes them, all in one timing."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "e2ebench"))
    import hosts
    import workloads

    sweeps = [q for q in workloads.build("enumerate", 0) if q.p is not None]
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for k, q in enumerate(sweeps):
            path = os.path.join(tmp, f"{k}.g")
            with open(path, "w") as fh:
                fh.write(hosts.render(q.host, q.restriction))
            argvs.append(q.argv(path))
        for _ in range(repeat):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in argvs]
            times.append(time.perf_counter() - t0)
    return statistics.median(times), len(sweeps), codes


def summarize(result, kw):
    mode = kw["mode"]
    if mode == MODE_COUNT_RAW:
        return f"count={result}"
    if mode == MODE_ENUM_FIXED:
        return f"{'leaves' if 'tables' in kw else 'sequences'}={len(result)}"
    if result is None:
        return "none"
    return f"steps={len(result)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)

    print(f"{'case':<28} {'median':>10}  result")
    for name, g, labels, kw in CASES:
        t, result = bench(g, labels, kw, args.repeat)
        print(f"{name:<28} {t * 1e3:>8.1f}ms  {summarize(result, kw)}")
    for name, g, kw in FOLD_CASES:
        t, sequences, classes = bench_fold(g, kw, args.repeat)
        print(f"{name:<28} {t * 1e3:>8.1f}ms  sequences={sequences} classes={classes}")
    t, queries, codes = bench_sweeps(args.repeat)
    print(f"{'--p sweeps':<28} {t * 1e3:>8.1f}ms  queries={queries} exits={codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
