"""Independent double-trace checker for the CLI's JSON steps.

It shares no code with ``doubletrace.traces``: the host comes from the
benchmark's own edge lists and the steps are read as ``from``/``to`` pairs,
so a fault in the program's validator cannot hide a bad trace here.
"""

from __future__ import annotations

from typing import Optional

from hosts import DisjointSets, Host


def trace_problems(
    host: Host,
    steps: list[dict],
    restriction: Optional[frozenset[int]],
    d: Optional[int] = None,
) -> list[str]:
    """Why ``steps`` is not a valid trace for the query; empty when it is.

    ``restriction`` names the undirected edges that must be traversed once
    each way; every other undirected edge must be traversed twice the same
    way.  ``None`` leaves undirected edges free.  Arcs always go tail to
    head, twice.  With ``d`` None the trace must be strong (one transition
    class per vertex); otherwise every class must have more than ``d``
    edges.
    """
    problems: list[str] = []
    length = len(steps)
    if length != 2 * host.m:
        return [f"{length} steps for {host.m} edges"]
    moves: list[tuple[int, int, int]] = []
    for t, s in enumerate(steps):
        e, tail, head, flag = s.get("edge"), s.get("from"), s.get("to"), s.get("flag")
        if not isinstance(e, int) or not 0 <= e < host.m:
            return [f"step {t}: bad edge {e!r}"]
        a, b = host.endpoints(e)
        if (tail, head) not in ((a, b), (b, a)):
            return [f"step {t}: {tail}->{head} is not edge {e} = {a}-{b}"]
        if flag != (0 if (tail, head) == (a, b) else 1):
            problems.append(f"step {t}: flag {flag!r} contradicts {tail}->{head}")
        moves.append((e, tail, head))

    for t in range(length):
        if moves[t][2] != moves[(t + 1) % length][1]:
            problems.append(f"step {t} ends at {moves[t][2]}, step {(t + 1) % length} starts at {moves[(t + 1) % length][1]}")

    uses: dict[int, list[tuple[int, int]]] = {}
    for e, tail, head in moves:
        uses.setdefault(e, []).append((tail, head))
    undirected = len(host.edges)
    for e in range(host.m):
        pair = uses.get(e, [])
        if len(pair) != 2:
            problems.append(f"edge {e} used {len(pair)} times")
            continue
        same = pair[0] == pair[1]
        if e >= undirected:
            if pair != [host.endpoints(e)] * 2:
                problems.append(f"arc {e} not traversed twice tail to head")
        elif restriction is not None and same == (e in restriction):
            want = "antiparallel" if e in restriction else "parallel"
            problems.append(f"edge {e} is not {want}")
    if problems:
        return problems

    # transition classes: at the vertex between steps t and t+1 the two
    # edges are linked; a class is a connected set of edge ends at a vertex
    ends: dict[tuple[int, int], int] = {}
    classes = DisjointSets(2 * host.m)
    at: dict[int, set[int]] = {}
    for t in range(length):
        e_in, _, v = moves[t]
        e_out = moves[(t + 1) % length][0]
        classes.union(ends.setdefault((v, e_in), len(ends)), ends.setdefault((v, e_out), len(ends)))
        at.setdefault(v, set()).update((e_in, e_out))
    for v, incident in sorted(at.items()):
        sizes: dict[int, int] = {}
        for e in incident:
            root = classes.find(ends[(v, e)])
            sizes[root] = sizes.get(root, 0) + 1
        if d is None and len(sizes) > 1:
            problems.append(f"vertex {v} has {len(sizes)} transition classes")
        elif d is not None and min(sizes.values()) <= d:
            problems.append(f"vertex {v} has a repetition of order {min(sizes.values())} <= {d}")
    return problems
