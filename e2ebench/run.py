"""End-to-end benchmark of the ``doubletrace`` CLI: check, construct and
enumerate, timed as a user runs them and checked apart from the program.

    python3 e2ebench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
client runs the workload's queries as a closed loop in this process, each
query one ``cli.main([...])`` call on a graph file written during set-up,
with ``--jobs 1`` and ``DOUBLETRACE_JOBS`` unset.  Whole rounds of the same
queries run until ``--seconds`` have passed.  Every output is checked after
the loop.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and prints per-layer metrics.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_STARTS = 7

import checker  # noqa: E402
import confirm  # noqa: E402
import hosts as H  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Running queries
# ---------------------------------------------------------------------------


def run_query(cli, argv, tracer=None) -> tuple[int, float, str]:
    """(exit code, seconds, stdout) of one in-process CLI call; -1 marks an
    exception that escaped the CLI."""
    out, err = io.StringIO(), io.StringIO()
    # every query starts from a collected heap: otherwise the garbage left by
    # the queries before it decides when the collector runs inside it, which
    # moved one kernel-bound query between 0.5 and 1.5 s (measured)
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(tracing.MAIN, cli.main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a wrong answer, with its traceback
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue() if rc != -1 else err.getvalue()


def measure_setup(work: str) -> float:
    """Median wall time of fresh interpreters that import the CLI and parse
    the workload's files; one unmeasured start first compiles bytecode."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, work]
    times = []
    for k in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail_level(per_round: int) -> int:
    """Highest whole percentile with at least ten of one round's queries
    beyond it; fixed by the workload, not by how many rounds ran."""
    return math.floor(100 * (1 - 10 / per_round))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------
# Checking answers
# ---------------------------------------------------------------------------


class Verdicts:
    """Per slot: confirmed, failed (nothing confirms it, or it exited 3) or
    wrong (contradicted)."""

    def __init__(self):
        self.failed: dict[int, str] = {}
        self.wrong: dict[int, str] = {}


def host_file(path: str, host, restriction) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(H.render(host, restriction))
    return path


def is_complete(host) -> bool:
    return not host.arcs and len(host.edges) == host.n * (host.n - 1) // 2


def no_witness(q) -> bool:
    """Queries whose quotient is the host itself with no witness vertex."""
    if q.host.arcs:
        return False
    return q.variant == "antiparallel" or q.required() == frozenset(range(len(q.host.edges)))


def confirm_decide(cli, q, rc, out, k, work, v: Verdicts) -> None:
    doc = json.loads(out)
    if doc.get("outcome") != ("true" if rc == 0 else "false"):
        v.wrong[k] = f"outcome {doc.get('outcome')!r} with exit {rc}"
        return
    host = q.host
    beta = host.m - host.n + 1
    if rc == 0:
        if no_witness(q):
            if is_complete(host) and beta % 2 == 0:
                return  # K_n is upper-embeddable (Nordhaus-Stewart-White 1971)
            tree = admissible_tree(q, doc)
            if tree is None:
                v.failed[k] = "no admissible tree found to build a trace from"
                return
            problems = checker.trace_problems(host, confirm.one_face_trace(host, tree), q.required())
        else:
            rc2, _, out2 = run_query(cli, ["construct"] + q.argv(os.path.join(work, f"q{k:02d}.txt"))[1:])
            if rc2 != 0:
                v.failed[k] = f"construct exited {rc2}"
                return
            problems = checker.trace_problems(host, json.loads(out2)["steps"], q.required(), q.d)
        if problems:
            v.wrong[k] = f"positive, but the trace is bad: {problems[:3]}"
        return
    # negative
    required = q.required()
    parallel = [host.edges[i] for i in range(len(host.edges)) if i not in required]
    if any(x % 2 for x in H.degrees(host.n, parallel + list(host.arcs))):
        return  # each vertex needs an even number of parallel edges
    if no_witness(q) and beta % 2 == 1:
        return  # a one-face embedding has even co-tree rank
    if host.m <= 10:
        from doubletrace.enumeration import TraceQuery, oracle_find
        from doubletrace.traces import RestrictionSet

        g, _ = cli.parse_graph(H.render(host))
        found = oracle_find(TraceQuery(g, require_strong=True, restriction=RestrictionSet.of(required)))
        if found is not None:
            v.wrong[k] = "negative, but the oracle found a trace"
        return
    v.failed[k] = "negative with no confirming argument"


def admissible_tree(q, doc):
    """The program's certificate when it checks out here, else a sampled
    tree; either only seeds a construction that the checker then judges."""
    host = q.host
    cert = doc.get("certificate") or {}
    tree = set(cert.get("tree_edges") or ())
    if len(tree) == host.n - 1 and H.co_tree_admissible(host.n, host.edges, tree, frozenset()):
        ds = H.DisjointSets(host.n)
        if all(ds.union(*host.edges[i]) for i in tree):
            return tree
    rng = random.Random(q.slot)
    return H.find_admissible_tree_randomly(host.n, host.edges, frozenset(), rng, tries=5000)


def confirm_construct(q, rc, out, k, v: Verdicts) -> None:
    if rc != 0:
        v.wrong[k] = f"known-positive query exited {rc}"
        return
    doc = json.loads(out)
    problems = checker.trace_problems(q.host, doc["steps"], q.required(), q.stability())
    if problems:
        v.wrong[k] = f"bad trace: {problems[:3]}"


def confirm_enumerate(cli, q, rc, out, k, work, v: Verdicts) -> None:
    doc = json.loads(out)
    host = q.host
    if q.classes:
        reps = [c["steps"] for c in doc["classes"]]
        sizes = [c["size"] for c in doc["classes"]]
    else:
        reps, sizes = doc["traces"], None
    if doc["count"] != len(reps) or (rc == 0) != bool(reps):
        v.wrong[k] = f"count {doc['count']} for {len(reps)} traces, exit {rc}"
        return
    perms = confirm.automorphisms(host)
    if q.p is None and q.variant in ("restricted", "double"):
        perms = confirm.preserving(host, perms, q.restriction)
    canon = set()
    for t, steps in enumerate(reps):
        required = None if q.p is not None else q.required()
        problems = checker.trace_problems(host, steps, required, q.stability())
        moves = tuple((s["from"], s["to"]) for s in steps)
        if q.p is not None and sum(1 for s in set(moves) if (s[1], s[0]) in moves) // 2 != q.p:
            problems.append(f"not exactly {q.p} antiparallel edges")
        if problems:
            v.wrong[k] = f"class {t}: {problems[:3]}"
            return
        orb = confirm.orbit(moves, perms)
        canon.add(min(orb))
        if sizes is not None and sizes[t] != len(orb):
            v.wrong[k] = f"class {t} has size {sizes[t]}, its orbit has {len(orb)}"
            return
    if len(canon) != len(reps):
        v.wrong[k] = f"{len(reps) - len(canon)} representatives are equivalent"
        return
    if sizes is not None and doc["raw_total"] != sum(sizes):
        v.wrong[k] = "raw total is not the sum of the class sizes"
        return
    relabeled, r = H.relabel(host, q.restriction, random.Random(q.slot))
    path = host_file(os.path.join(work, f"relabeled{k:02d}.txt"), relabeled, r)
    rc2, _, out2 = run_query(cli, q.argv(path))
    if rc2 != rc or json.loads(out2)["count"] != doc["count"]:
        v.wrong[k] = "class count changes when the host file is relabeled"


def check_outputs(cli, queries, rounds, work) -> Verdicts:
    v = Verdicts()
    for k, q in enumerate(queries):
        rc, _, out = rounds[0][k]
        if any(r[k][0] != rc or r[k][2] != hash(out) for r in rounds[1:]):
            v.wrong[k] = "output differs between rounds"
        elif rc == 3:
            v.failed[k] = "capacity exceeded (exit 3)"
        elif rc not in (0, 1):
            v.wrong[k] = f"exit {rc}: {out.strip()[-300:]}"
        elif q.command == "check":
            confirm_decide(cli, q, rc, out, k, work, v)
        elif q.command == "construct":
            confirm_construct(q, rc, out, k, v)
        else:
            confirm_enumerate(cli, q, rc, out, k, work, v)
    return v


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "doubletrace", "cli.py")):
        print(f"error: no doubletrace sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("DOUBLETRACE_JOBS", None)
    sys.path.insert(0, SRC)

    queries = workloads.build(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        paths = [
            host_file(os.path.join(work, f"q{k:02d}.txt"), q.host, q.restriction)
            for k, q in enumerate(queries)
        ]
        setup_s = measure_setup(work)
        from doubletrace import cli
        from doubletrace.search_backend import BACKEND

        argvs = [q.argv(path) for q, path in zip(queries, paths)]
        # objects alive now (modules, inputs) are never collected again
        gc.collect()
        gc.freeze()
        tracer = tracing.Tracer() if args.trace else None
        rounds, traced_wall, plain_wall = [], [], []
        # each round runs the slots in its own seeded order, so a burst of
        # machine noise lands on different slots in different rounds
        order_rng = random.Random(f"order:{args.seed}")
        order = list(range(len(argvs)))
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            round_start = time.perf_counter()
            results = [None] * len(argvs)
            order_rng.shuffle(order)
            for k in order:
                if traced:
                    tracer.query_id = k
                rc, elapsed, out = run_query(cli, argvs[k], tracer if traced else None)
                # later rounds keep a digest: their outputs must repeat the first's
                results[k] = (rc, elapsed, out if not rounds else hash(out))
            (traced_wall if traced else plain_wall).append(time.perf_counter() - round_start)
            if traced:
                tracer.uninstall()
            rounds.append(results)
            if time.perf_counter() - start >= args.seconds and (tracer is None or traced_wall):
                break
        loop_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        verdicts = check_outputs(cli, queries, rounds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_round = len(queries)
    attempted = per_round * len(rounds)
    failed = len(rounds) * (len(verdicts.failed) + len(verdicts.wrong))
    answered = attempted - failed
    # each slot's median over the rounds damps a burst of machine noise in
    # one round; the median and the tail are then taken across slots
    times = sorted(statistics.median(r[k][1] for r in rounds) for k in range(per_round))

    for k, why in sorted({**verdicts.failed, **verdicts.wrong}.items()):
        kind = "WRONG" if k in verdicts.wrong else "failed"
        print(f"{kind}: {queries[k].slot}: {why}")
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {per_round} queries "
        f"in {loop_s:.2f} s; backend {BACKEND}; Python {sys.version.split()[0]}; "
        f"nproc {os.cpu_count()}; tail = p{tail_level(per_round)}"
    )
    if tracer is None:
        metrics = {
            "answers_per_s": (answered / loop_s, "1/s"),
            "query_p50_ms": (1000 * statistics.median(times), "ms"),
            "query_tail_ms": (1000 * percentile(times, tail_level(per_round)), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, queries, rounds, traced_wall, plain_wall, tag)
    result = {
        "correct": not verdicts.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, queries, rounds, traced_wall, plain_wall, tag) -> dict:
    n = len(traced_wall)
    table = tracer.layer_table(n)
    # means, like the per-round self times, so the table adds up exactly
    traced_s = statistics.mean(traced_wall)
    plain_s = statistics.mean(plain_wall)
    self_total = sum(s for _, _, s in table)
    trees = tracer.trees_tried() / n
    classes = sum(
        json.loads(rounds[0][k][2]).get("count", 0)
        for k, q in enumerate(queries)
        if q.command == "enumerate" and rounds[0][k][0] in (0, 1)
    )
    enum_seqs = tracer.sequences["enum_fixed"] / n
    metrics = {}
    for name, calls, self_s in table:
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for mode, count in tracer.sequences.items():
        metrics[f"search_backend.run.{mode}.sequences"] = (count / n, "count")
    metrics["feasibility.trees_tried"] = (trees, "count")
    metrics["feasibility.admissible_per_tree"] = (
        (tracer.certificates / n) / trees if trees else 0.0, "ratio")
    metrics["enumeration.classes_per_trace"] = (classes / enum_seqs if enum_seqs else 0.0, "ratio")
    metrics["trace.e2e_s"] = (traced_s, "s")
    metrics["trace.untraced_e2e_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.unaccounted_s"] = (traced_s - self_total, "s")

    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"spans-{tag}.tsv"))
    lines = [f"# per traced round; {n} traced, {len(plain_wall)} untraced rounds",
             "layer\tcalls\tself_s\tshare"]
    for name, calls, self_s in sorted(table, key=lambda row: -row[2]):
        lines.append(f"{name}\t{calls:g}\t{self_s:.6f}\t{self_s / traced_s:.1%}")
    lines.append(f"(outside spans)\t\t{traced_s - self_total:.6f}\t{(traced_s - self_total) / traced_s:.1%}")
    lines.append(f"traced round\t\t{traced_s:.6f}")
    lines.append(f"untraced round\t\t{plain_s:.6f}")
    lines.append(f"tracing overhead\t\t{traced_s - plain_s:.6f}\t{(traced_s - plain_s) / plain_s:.1%}")
    with open(os.path.join(RESULTS, f"layers-{tag}.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
