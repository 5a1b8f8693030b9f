"""Command-line front end: graph files in, JSON or DOT out.

The graph-file format is read by ``parse_graph`` and written by
``render_graph``, both in ``graphs.py`` and re-exported here.  Results
are printed as JSON on stdout (``--format dot`` switches built traces to
DOT); diagnostics go to stderr.  Exit codes: 0 yes/valid,
1 no/invalid, 2 bad input or usage, 3 capacity (the size limit of an
exhaustive step was hit, which is an "unknown", not a "no").
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .construction import construct
from .enumeration import enumerate_classes, enumerate_sweep
from .errors import (
    CapacityError,
    DoubleTraceError,
    InputError,
    ParseError,
    PreconditionError,
)
from .feasibility import FeasibilityAnswer, SpanningTreeCertificate, decide
from .graphs import (
    VARIANTS,
    Graph,
    Host,
    MixedGraph,
    RestrictionSet,
    TraceQuery,
    parse_graph,
    render_graph,
)
from .traces import (
    ClosedWalk,
    DoubleTrace,
    WalkIndex,
    check_restriction,
    classify_directions,
    validate_double_trace,
)


# ---------------------------------------------------------------------------
# JSON and DOT rendering
# ---------------------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii


def _json_text(doc) -> str:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` for
    documents with string keys.  With an indent the standard library uses
    its pure-Python encoder; this writer does the same work in joins, and
    renders the step records, flat dicts of ints, from one template per
    key set and depth.  A record object the document holds many times, as
    the steps of traces share theirs, is rendered once per depth."""
    forms: dict[tuple[tuple[str, ...], str], str] = {}
    # rendered records per depth, keyed by id: the document keeps every
    # object alive until we return
    records: dict[str, dict[int, str]] = {}

    def text(obj, pad: str) -> str:
        if type(obj) is str:
            return _quote(obj)
        if type(obj) is int:
            return int.__repr__(obj)
        if obj is None or obj is True or obj is False:
            return "null" if obj is None else "true" if obj else "false"
        inner = pad + "  "
        sep = "," + inner
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            # type(v) is int keeps True and False out of %d
            if all(type(v) is int for v in obj.values()):
                keys = tuple(sorted(obj))
                form = forms.get((keys, pad))
                if form is None:
                    body = sep.join([_quote(k).replace("%", "%%") + ": %d" for k in keys])
                    form = forms[keys, pad] = "{" + inner + body + pad + "}"
                record = form % tuple([obj[k] for k in keys])
                records.setdefault(pad, {})[id(obj)] = record
                return record
            body = sep.join([_quote(k) + ": " + text(v, inner) for k, v in sorted(obj.items())])
            return "{" + inner + body + pad + "}"
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            if type(obj[0]) is dict:
                # a list of records, as trace steps are, may hold one many times
                done = records.setdefault(inner, {})
                items = [done.get(id(v)) or text(v, inner) for v in obj]
            else:
                items = [text(v, inner) for v in obj]
            return "[" + inner + sep.join(items) + pad + "]"
        return json.dumps(obj)  # floats and other scalars

    return text(doc, "\n")


def _emit(obj) -> None:
    sys.stdout.write(_json_text(obj) + "\n")


def _certificate_json(cert: Optional[SpanningTreeCertificate]):
    if cert is None:
        return None
    return {
        "co_tree_components": [
            {
                "edges": sorted(c.edges),
                "odd": c.odd,
                "vertices": sorted(c.vertices),
                "witnessed": c.has_witness,
            }
            for c in cert.co_tree_report
        ],
        "edge_count": cert.host.edge_count,
        "tree_edges": sorted(cert.tree_edges),
        "vertex_count": cert.host.vertex_count,
    }


def _answer_json(
    answer: FeasibilityAnswer,
    variant: str,
    d: Optional[int],
    r: Optional[RestrictionSet],
):
    return {
        "certificate": _certificate_json(answer.certificate),
        "d": d,
        "even_fragment": (
            sorted(answer.even_fragment.edges)
            if answer.even_fragment is not None
            else None
        ),
        "outcome": "true" if answer.verdict else "false",
        "restriction": sorted(r.antiparallel_edges) if r is not None else None,
        "variant": variant,
        "violated": list(answer.violated),
    }


def _step_records(host: Host) -> list[dict[str, int]]:
    """The JSON record of every step code ``2e + f`` of the host, one object
    per step that every trace taking it shares."""
    records = []
    for e in range(host.edge_count):
        a, b = host.endpoints(e)
        records += ({"edge": e, "flag": 0, "from": a, "to": b},
                    {"edge": e, "flag": 1, "from": b, "to": a})
    return records


def _steps_json(
    records: list[dict[str, int]], steps: Sequence[tuple[int, int]]
) -> list[dict[str, int]]:
    return [records[2 * e + f] for e, f in steps]


def _direction_labels(walk: ClosedWalk) -> list[str]:
    labels = list(classify_directions(walk))
    for i in range(walk.host.edge_count):
        if walk.host.is_arc(i):
            labels[i] = "arc"
    return labels


def _trace_json(walk: DoubleTrace, variant: str):
    return {
        "directions": _direction_labels(walk),
        "length": len(walk.steps),
        "outcome": "trace",
        "steps": _steps_json(_step_records(walk.host), walk.steps),
        "variant": variant,
    }


def _trace_dot(walk: DoubleTrace) -> str:
    """Trace as a DOT digraph: one arrow per traversal, labeled with the
    edge index and the step position."""
    lines = ["digraph doubletrace {"]
    for v in range(walk.host.vertex_count):
        lines.append(f"  {v};")
    for t, (e, f) in enumerate(walk.steps):
        a, b = walk.host.endpoints(e)
        tail, head = (a, b) if f == 0 else (b, a)
        lines.append(f'  {tail} -> {head} [label="e{e} s{t}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_document(path: str) -> tuple[Host, Optional[RestrictionSet]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_graph(text)


def _resolve_variant(args, host: Host, file_restriction) -> str:
    if args.variant is not None:
        return args.variant
    if isinstance(host, MixedGraph) or file_restriction is not None:
        return "restricted"
    return "strong"


def _query(args) -> tuple[TraceQuery, str]:
    host, file_r = _load_document(args.file)
    variant = _resolve_variant(args, host, file_r)
    return TraceQuery.for_variant(host, variant, args.d, file_r), variant


def _decided(query: TraceQuery) -> FeasibilityAnswer:
    """The verdict, with a disconnected host read as a negative one."""
    try:
        return decide(query)
    except PreconditionError as exc:
        return FeasibilityAnswer(False, violated=(str(exc),))


def _cmd_check(args) -> int:
    query, variant = _query(args)
    answer = _decided(query)
    _emit(_answer_json(answer, variant, args.d, query.restriction))
    return 0 if answer.verdict else 1


def _cmd_construct(args) -> int:
    query, variant = _query(args)
    answer = _decided(query)
    if not answer.verdict:
        _emit({"outcome": "infeasible", "variant": variant, "violated": list(answer.violated)})
        return 1
    walk = construct(query, answer)
    if args.format == "dot":
        sys.stdout.write(_trace_dot(walk))
    else:
        _emit(_trace_json(walk, variant))
    return 0


def _cmd_enumerate(args) -> int:
    host, file_r = _load_document(args.file)
    variant = _resolve_variant(args, host, file_r)
    if args.p is not None:
        if not isinstance(host, Graph):
            raise InputError("--p needs a simple graph")
        if variant not in ("strong", "dstable", "restricted"):
            raise InputError(f"--p fixes the direction sets; drop --variant {variant}")
        # the query checks --d and gives dstable its default order
        d = TraceQuery.for_variant(host, variant, args.d).d or None
        classes = enumerate_sweep(host, args.p, d)
    else:
        if args.classes and not isinstance(host, Graph):
            raise InputError("--classes needs a simple graph")
        classes = enumerate_classes(TraceQuery.for_variant(host, variant, args.d, file_r))
    doc = {
        "count": len(classes),
        "p": args.p,
        "variant": variant,
    }
    records = _step_records(host)
    if args.classes:
        doc["outcome"] = "classes"
        doc["classes"] = [
            {"size": c.size, "steps": _steps_json(records, c.canonical)} for c in classes
        ]
        doc["raw_total"] = sum(c.size for c in classes)
    else:
        doc["outcome"] = "traces"
        doc["traces"] = [_steps_json(records, c.canonical) for c in classes]
    _emit(doc)
    return 0 if classes else 1


def _read_trace_steps(doc, host: Host) -> tuple[tuple[int, int], ...]:
    if not isinstance(doc, dict) or not isinstance(doc.get("steps"), list):
        raise InputError("trace file must be a JSON object with a 'steps' array")
    steps = []
    for t, item in enumerate(doc["steps"]):
        # JSON true and false are Python ints, so every field is typed exactly
        if not isinstance(item, dict) or type(item.get("edge")) is not int:
            raise InputError(f"step {t}: expected an object with an integer 'edge'")
        e = item["edge"]
        if not (0 <= e < host.edge_count):
            raise InputError(f"step {t}: edge {e} out of range")
        a, b = host.endpoints(e)
        flag = item.get("flag")
        if flag is None:
            # fall back to the stated tail; loops cannot be recovered that way
            if a == b:
                raise InputError(f"step {t}: loop steps need an explicit 'flag'")
            tail = item.get("from")
            if type(tail) is not int or tail not in (a, b):
                raise InputError(f"step {t}: 'from' must name an endpoint of edge {e}")
            flag = 0 if tail == a else 1
        if type(flag) is not int or flag not in (0, 1):
            raise InputError(f"step {t}: 'flag' must be 0 or 1")
        tail, head = (a, b) if flag == 0 else (b, a)
        for key, end in (("from", tail), ("to", head)):
            if key in item and (type(item[key]) is not int or item[key] != end):
                raise InputError(f"step {t}: '{key}' contradicts edge {e} flag {flag}")
        steps.append((e, flag))
    return tuple(steps)


def _cmd_classify(args) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {args.trace}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.trace}: {exc}") from None
    host, file_r = _load_document(args.graph)
    walk = DoubleTrace(host, _read_trace_steps(doc, host))
    report = validate_double_trace(walk)

    directions = None
    restriction_match = None
    strong = None
    stable_order = None
    repetitions = None
    if report.ok:
        directions = _direction_labels(walk)
        if file_r is not None:
            restriction_match = check_restriction(walk, file_r)
        index = WalkIndex(host, walk.steps)
        classes = [index.classes(v) for v in range(host.vertex_count)]
        per_vertex = [len(c) for c in classes]
        min_sizes = [min(map(len, c)) for c in classes if c]
        strong = all(c <= 1 for c in per_vertex)
        # the largest d the walk is d-stable for; null means unbounded
        stable_order = min(min_sizes) - 1 if min_sizes else None
        repetitions = {
            "per_vertex": per_vertex,
            "total": sum(c - 1 for c in per_vertex if c > 0),
        }
    _emit(
        {
            "directions": directions,
            "outcome": "report",
            "problems": list(report.problems),
            "repetitions": repetitions,
            "restriction_match": restriction_match,
            "stable_order": stable_order,
            "strong": strong,
            "valid": report.ok,
        }
    )
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubletrace",
        description="Decide, construct and enumerate double traces of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="graph file")
        p.add_argument(
            "--variant",
            choices=VARIANTS,
            default=None,
            help="trace kind; defaults to restricted when the file carries a "
            "restriction or is mixed, strong otherwise",
        )
        p.add_argument("--d", type=int, default=None, metavar="K",
                       help="require d-stability of order K")
        p.add_argument("--jobs", type=int, metavar="N",
                       help="accepted and ignored: every command runs in one process")

    p_check = sub.add_parser("check", help="decide whether a trace exists")
    common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_con = sub.add_parser("construct", help="build a trace behind a positive verdict")
    common(p_con)
    p_con.add_argument("--format", choices=("json", "dot"), default="json")
    p_con.set_defaults(func=_cmd_construct)

    p_enum = sub.add_parser("enumerate", help="list non-equivalent traces")
    common(p_enum)
    p_enum.add_argument("--p", type=int, default=None, metavar="P",
                        help="sweep every restriction with exactly P "
                        "antiparallel edges")
    p_enum.add_argument("--classes", action="store_true",
                        help="report symmetry class sizes")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_cls = sub.add_parser("classify", help="validate and describe a trace file")
    p_cls.add_argument("trace", help="trace file (construct JSON output)")
    p_cls.add_argument("graph", help="graph file")
    p_cls.set_defaults(func=_cmd_classify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        _emit({"message": str(exc), "outcome": "unknown (capacity)"})
        return 3
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DoubleTraceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
