"""Exhaustive direction-constrained double-trace search, pure Python.

The search kernel behind the oracle and enumeration; ``enumeration.lower_query``
turns a query into its arrays.  The search enumerates closed walks that
traverse every edge exactly twice subject to per-edge direction labels, an
optional no-nontrivial-repetition requirement and an optional minimum
repetition order.

Pruning rules (all sound: none can cut a satisfying walk):
* per-vertex arrival-count bounds from already-fixed edge directions,
* a static arrival parity check for vertices with no free non-loop edges,
* frozen transition components: a component of the link structure at a
  vertex that can take no further link never merges with anything later,
  so an undersized or non-spanning one kills the branch.

Transition components live in one undoable union-find over slots, one slot
per (vertex, incident edge), with union by size and no path compression.
Each step of the walk through v links the arrival slot to the departure
slot at v.  A root keeps its component's edge count and its open link
ends: a slot starts with 2 ends, a loop's slot with 4, and each link uses
up 2.  Invariant: a component is frozen exactly when it has no open end,
since only a link at v can change it and a link needs an open end on each
side.  So after each link only the root it touched is tested.  Every other
component at v either still has an open end or was frozen, and tested, by
an earlier link.  The start vertex is no exception: its first departure
stays an open end until the closing link.  A component's open ends are
even in number, so a loop whose second arrival is still pending leaves a
second open end in its component, on an edge not yet used twice: "no open
end" and "every edge used twice" pick the same components.  A U-turn, the
step back along the non-loop edge just arrived by, links that edge's slot
to itself and uses both its ends, so {e} freezes at once and the move is
skipped without a union when a component must hold more than one edge.  A
loop walked twice in a row is no U-turn: the link (e, e) takes two of its
slot's four ends, and the second arrival's end stays open for the next
link, so nothing freezes.

Symmetry breaking (enumeration mode given ``tables``, the step-code maps
``2e + f`` of a relabeling group; each also acts read backwards with codes
flipped, ``c ^ 1``, which is reversal): a sequence is kept only if it is <=
every rotation of every image, and emitted with its class size.  The root
is code 0.  Each depth keeps the (table, start) pairs whose rotated image
ties the prefix, and a new step costs each forward pair one comparison:
smaller cuts the branch, larger drops the pair.  A forward pair starts
where its table maps the new code to 0; a reversed pair starting there
reads back to step 0, all known, and is compared at once.  At a leaf the
ties are compared across the wrap-around: a smaller rotation rejects it,
a full tie is one stabilizer element.  Sound, since each image of a
satisfying walk is a member of the family enumerated, and an image that
beats a prefix within the window the prefix fixes beats all its
extensions; on arc-free hosts each class's least member starts with code
0 (reversal turns a code 1 into 0), so it is emitted.  By
orbit-stabilizer the class has 2 * len(tables) * L / |stabilizer|
members, L being the walk length.

The tables need not fix the labels, only the family.  A relabeling maps
a walk whose antiparallel set is A onto one whose set is the image of A,
as strong or as stable as before, and reversal keeps every set.  So the
searches of every restriction in a union of the group's orbits, each
under the whole group's tables, enumerate one family: each class is
emitted once, by the restriction its least member carries, with its size
under the whole group (``enumeration.enumerate_sweep``).

Edge labels: 0 free, 1 parallel (same direction twice), 2 antiparallel,
3 arc (both traversals in the stored direction).
"""

from __future__ import annotations

FREE, PAR, ANTI, ARC = 0, 1, 2, 3

MODE_EXISTS = 0
MODE_COUNT_RAW = 1
MODE_ENUM_FIXED = 2

BACKEND = "python"


def _negative(mode: int):
    if mode == MODE_COUNT_RAW:
        return 0
    if mode == MODE_ENUM_FIXED:
        return []
    return None


def run(
    n: int,
    ea: list[int],
    eb: list[int],
    labels: list[int],
    require_strong: bool = False,
    d_max: int = 0,
    mode: int = MODE_EXISTS,
    *,
    tables: list[list[int]] | None = None,
):
    """Search for double traces of the labeled host.

    Returns a step list or None (exists mode), a raw sequence count, or the
    list of all satisfying sequences whose first step is normalized to the
    lowest edge (enumerate mode), or given ``tables`` one (lex-leader, class
    size) pair per symmetry class of an arc-free host (module docstring).
    """
    m = len(ea)
    if m == 0:
        if mode == MODE_COUNT_RAW:
            return 0
        if mode == MODE_ENUM_FIXED:
            return []
        return []  # the empty trace

    L = 2 * m
    deg = [0] * n
    inc_count = [0] * n  # distinct incident edges
    # Arrival-count bounds per vertex.  Final arrivals at v equal deg[v];
    # each non-loop edge end contributes bounds by label, loops always 2.
    lo_in = [0] * n
    hi_in = [0] * n
    anti_ends = [0] * n
    free_ends = [0] * n
    for i in range(m):
        a, b, lbl = ea[i], eb[i], labels[i]
        deg[a] += 1
        deg[b] += 1
        inc_count[a] += 1
        if a == b:
            lo_in[a] += 2
            hi_in[a] += 2
            continue
        inc_count[b] += 1
        if lbl == ARC:
            lo_in[b] += 2
            hi_in[b] += 2
        elif lbl == ANTI:
            lo_in[a] += 1
            hi_in[a] += 1
            lo_in[b] += 1
            hi_in[b] += 1
            anti_ends[a] += 1
            anti_ends[b] += 1
        else:  # FREE or PAR
            hi_in[a] += 2
            hi_in[b] += 2
            if lbl == FREE:
                free_ends[a] += 1
                free_ends[b] += 1

    for v in range(n):
        if not (lo_in[v] <= deg[v] <= hi_in[v]):
            return _negative(mode)
        if free_ends[v] == 0 and (anti_ends[v] - deg[v]) % 2 != 0:
            # without free edges the arrival parity at v is fixed
            return _negative(mode)

    # Slots of the transition union-find (see the module docstring): 2e at
    # ea[e] and 2e + 1 at eb[e]; a loop has only 2e.
    open_ends = [2] * L
    # Moves from v in incident-edge then flag order: (edge, flag, head,
    # label, tail slot, head slot, arrival-bound shift on the first use,
    # shift on the second use).  A parallel edge commits both arrivals on
    # its first use, a free edge one per use; loops commit nothing.
    moves: list[list[tuple[int, int, int, int, int, int, int, int]]] = [[] for _ in range(n)]
    for e in range(m):
        a, b, lbl = ea[e], eb[e], labels[e]
        s = 2 * e
        if a == b:
            open_ends[s] = 4
            moves[a].append((e, 0, a, lbl, s, s, 0, 0))
            if lbl != ARC:
                moves[a].append((e, 1, a, lbl, s, s, 0, 0))
            continue
        second = 1 if lbl == FREE else 0
        first = 2 if lbl == PAR else second
        moves[a].append((e, 0, b, lbl, s, s + 1, first, second))
        if lbl != ARC:
            moves[b].append((e, 1, a, lbl, s + 1, s, first, second))

    parent = list(range(L))
    size = [1] * L
    # a frozen transition component at v must hold at least need[v] edges
    need = [max(inc_count[v] if require_strong else 0, d_max + 1) for v in range(n)]
    check_local = require_strong or d_max > 0

    use = [0] * m
    fflag = [0] * m
    rem = [2 * deg[v] for v in range(n)]
    steps: list[tuple[int, int]] = []
    found_steps: list[tuple[tuple[int, int], ...]] = []
    count = 0
    start = first_slot = 0  # set per root below
    lex = mode == MODE_ENUM_FIXED and tables is not None
    if lex:
        if any(lbl == ARC for lbl in labels):
            raise ValueError("symmetry tables need an arc-free host")
        codes = [0] * L  # the walk so far as step codes
        group = 2 * len(tables) * L
        back = [[c ^ 1 for c in t] for t in tables]
        # per code, the tables that map it to code 0: where tied pairs start
        fwd_at = [[t for t in tables if t[c] == 0] for c in range(L)]
        rev_at = [[t for t in back if t[c] == 0] for c in range(L)]

    def extend(pos: int, depth: int, prev_edge: int, prev_slot: int, ties, rties) -> bool:
        """Depth-first extension from pos, entered by prev_edge at
        prev_slot; returns True to stop the whole search.  ties and rties:
        the forward and reversed (table, start) pairs still tied."""
        nonlocal count
        # every link made here joins the arrival slot's component, whose
        # root stays put while the moves below are tried and undone
        root = prev_slot
        while parent[root] != root:
            root = parent[root]
        if depth == L:
            if pos != start:
                return False
            if check_local:
                # the closing link (prev, first) completes the last component
                y = first_slot
                while parent[y] != y:
                    y = parent[y]
                if (size[root] if root == y else size[root] + size[y]) < need[start]:
                    return False
            if mode == MODE_COUNT_RAW:
                count += 1
                return False
            if lex:
                # the tied images, now across the wrap-around: a smaller one
                # rejects the leaf, an equal one is a stabilizer element
                stab = 1  # the identity
                for t, j in ties:
                    k = 0
                    while k < j and t[codes[k]] == codes[L - j + k]:
                        k += 1
                    if k == j:
                        stab += 1
                    elif t[codes[k]] < codes[L - j + k]:
                        return False
                for t, q in rties:
                    i = q + 1
                    while i < L and t[codes[q - i + L]] == codes[i]:
                        i += 1
                    if i == L:
                        stab += 1
                    elif t[codes[q - i + L]] < codes[i]:
                        return False
                found_steps.append((tuple(steps), group // stab))
                return False
            found_steps.append(tuple(steps))
            return mode == MODE_EXISTS
        last = depth + 1 == L
        for e, f, w, lbl, tail, head, first, second in moves[pos]:
            u = use[e]
            if u == 0:
                shift = first
            elif u == 1:
                if lbl == PAR:
                    if f != fflag[e]:
                        continue
                elif lbl == ANTI:
                    if f == fflag[e]:
                        continue
                if prev_edge == e and w != pos and need[pos] > 1:
                    continue  # U-turn on a non-loop: the link (e, e) freezes {e}
                shift = second
            else:
                continue
            if shift:
                lo_in[w] += shift
                hi_in[pos] -= shift
                if lo_in[w] > deg[w] or hi_in[pos] < deg[pos]:
                    lo_in[w] -= shift
                    hi_in[pos] += shift
                    continue

            ok = True
            if check_local:
                # link (prev_edge, e) at pos; only the root it touches can
                # have just frozen
                x = root
                y = tail
                while parent[y] != y:
                    y = parent[y]
                if x == y:
                    y = -1
                    left = open_ends[x] - 2
                else:
                    if size[x] < size[y]:
                        x, y = y, x
                    parent[y] = x
                    size[x] += size[y]
                    left = open_ends[x] + open_ends[y] - 2
                open_ends[x], before = left, open_ends[x]
                ok = left > 0 or size[x] >= need[pos]

            use[e] = u + 1
            if u == 0:
                fflag[e] = f
            rem[pos] -= 1
            rem[w] -= 1
            if ok and not last and (rem[w] == 0 or (pos == start and rem[start] == 0)):
                ok = False  # stuck on arrival, or can never return to close the walk
            nties, nrties = ties, rties
            if ok and lex:
                c = 2 * e + f
                codes[depth] = c
                nties = []
                for t, j in ties:
                    # not x and y: those hold the union-find roots to undo
                    image, own = t[c], codes[depth - j]
                    if image == own:
                        nties.append((t, j))
                    elif image < own:
                        ok = False  # a smaller image: not a lex-leader
                        break
                if ok:
                    nties += [(t, depth) for t in fwd_at[c]]
                    for t in rev_at[c]:
                        # read back from here to step 0
                        i = 1
                        while i <= depth and t[codes[depth - i]] == codes[i]:
                            i += 1
                        if i > depth:
                            nrties = nrties + [(t, depth)]
                        elif t[codes[depth - i]] < codes[i]:
                            ok = False
                            break
            if ok:
                steps.append((e, f))
                if extend(w, depth + 1, e, head, nties, nrties):
                    return True
                steps.pop()

            rem[pos] += 1
            rem[w] += 1
            use[e] = u
            if check_local:
                open_ends[x] = before
                if y >= 0:
                    parent[y] = y
                    size[x] -= size[y]
            if shift:
                lo_in[w] -= shift
                hi_in[pos] += shift
        return False

    has_arcs = any(lbl == ARC for lbl in labels)
    if mode == MODE_COUNT_RAW:
        roots = [(e, f) for e in range(m) for f in (0, 1) if labels[e] != ARC or f == 0]
    elif has_arcs:
        roots = [(0, f) for f in (0, 1) if labels[0] != ARC or f == 0]
    else:
        # rotation plus reversal lets every trace start with (edge 0, flag 0)
        roots = [(0, 0)]

    ties = rties = None
    if lex:
        ident = list(range(L))
        ties = [(t, 0) for t in fwd_at[0] if t != ident]
        rties = [(t, 0) for t in rev_at[0]]

    for e0, f0 in roots:
        a, b = ea[e0], eb[e0]
        start = a if (a == b or f0 == 0) else b
        _, _, w0, _, first_slot, head, shift, _ = next(
            mv for mv in moves[start] if mv[0] == e0 and mv[1] == f0
        )
        if shift:
            lo_in[w0] += shift
            hi_in[start] -= shift
            if lo_in[w0] > deg[w0] or hi_in[start] < deg[start]:
                lo_in[w0] -= shift
                hi_in[start] += shift
                continue
        use[e0] = 1
        fflag[e0] = f0
        rem[start] -= 1
        rem[w0] -= 1
        steps.append((e0, f0))
        stop = extend(w0, 1, e0, head, ties, rties)
        steps.pop()
        rem[start] += 1
        rem[w0] += 1
        use[e0] = 0
        if shift:
            lo_in[w0] -= shift
            hi_in[start] += shift
        if stop:
            break

    if mode == MODE_COUNT_RAW:
        return count
    if mode == MODE_ENUM_FIXED:
        return found_steps
    return list(found_steps[0]) if found_steps else None
