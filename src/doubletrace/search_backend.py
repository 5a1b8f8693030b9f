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
  so an undersized or non-spanning one kills the branch,
* the start vertex's arrivals: a step that brings the walk to the start
  for the deg(start)-th time before the last step strands it there.  No
  other vertex can strand it, since arriving at a vertex other than the
  start always leaves an odd number of its edge ends unused.

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
        return 0 if mode == MODE_COUNT_RAW else []  # exists: the empty trace

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
    # how far v's arrival bounds may still close in on deg[v], from each side
    room_in = [deg[v] - lo_in[v] for v in range(n)]
    room_out = [hi_in[v] - deg[v] for v in range(n)]

    # Slots of the transition union-find (see the module docstring): 2e at
    # ea[e] and 2e + 1 at eb[e]; a loop has only 2e.
    open_ends = [2] * L
    parent = list(range(L))
    size = [1] * L
    # a frozen transition component at v must hold at least need[v] edges
    need = [max(inc_count[v] if require_strong else 0, d_max + 1) for v in range(n)]
    check_local = require_strong or d_max > 0
    # An edge's state: 0 unused, 1 + f used once with flag f, 3 used twice.
    # Moves from v in incident-edge then flag order: (edge, step code, head,
    # head slot, tail slot, the edge's next state by its state, the
    # arrival-bound shift by state, and the edge if stepping straight back
    # along it is a U-turn whose link (e, e) freezes {e} too small, else -1).
    # Next states by label and flag: 0 where the label forbids the move, as
    # a parallel edge repeats its first flag and an antiparallel one flips
    # it.  Shifts by label: a parallel edge commits both arrivals on its
    # first use, a free edge one per use; loops commit nothing.
    next_by_label = (((1, 3, 3, 0), (2, 3, 3, 0)), ((1, 3, 0, 0), (2, 0, 3, 0)),
                     ((1, 0, 3, 0), (2, 3, 0, 0)), ((1, 3, 3, 0), (2, 3, 3, 0)))
    shift_by_label = ((1, 1, 1, 0), (2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    moves: list[list[tuple]] = [[] for _ in range(n)]
    for e in range(m):
        a, b, lbl = ea[e], eb[e], labels[e]
        s, (nxt0, nxt1), shifts = 2 * e, next_by_label[lbl], shift_by_label[lbl]
        if a == b:
            open_ends[s] = 4
            moves[a].append((e, s, a, s, s, nxt0, (0, 0, 0, 0), -1))
            if lbl != ARC:
                moves[a].append((e, s + 1, a, s, s, nxt1, (0, 0, 0, 0), -1))
            continue
        moves[a].append((e, s, b, s + 1, s, nxt0, shifts, e if need[a] > 1 else -1))
        if lbl != ARC:
            moves[b].append((e, s + 1, a, s, s + 1, nxt1, shifts, e if need[b] > 1 else -1))

    state = [0] * m
    codes = [0] * L  # the walk so far as step codes
    step_of = [(c >> 1, c & 1) for c in range(L)]
    found: list = []
    count = 0
    start = first_slot = 0  # set per root below
    lex = mode == MODE_ENUM_FIXED and tables is not None
    if lex:
        if any(lbl == ARC for lbl in labels):
            raise ValueError("symmetry tables need an arc-free host")
        group = 2 * len(tables) * L
        # per code, the tables, forward and read backwards, that map it to
        # code 0: where tied pairs start
        fwd_at: list[list[list[int]]] = [[] for _ in range(L)]
        rev_at: list[list[list[int]]] = [[] for _ in range(L)]
        for t in tables:
            fwd_at[t.index(0)].append(t)
            rev_at[t.index(1)].append([c ^ 1 for c in t])

    def extend(
        pos: int, depth: int, prev_edge: int, prev_slot: int, home: int, ties, rties
    ) -> bool:
        """Depth-first extension from pos, entered by prev_edge at
        prev_slot, with home arrivals at the start vertex still to come;
        returns True to stop the whole search.  ties and rties: the forward
        and reversed (table, start) pairs still tied."""
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
                found.append((tuple(map(step_of.__getitem__, codes)), group // stab))
                return False
            found.append(tuple(map(step_of.__getitem__, codes)))
            return mode == MODE_EXISTS
        for e, c, w, head, tail, nxt, shifts, turn in moves[pos]:
            u = state[e]
            if not nxt[u] or prev_edge == turn:
                continue
            shift = shifts[u]
            if shift:
                free_in, free_out = room_in[w], room_out[pos]
                if shift > free_in or shift > free_out:
                    continue
                room_in[w] = free_in - shift
                room_out[pos] = free_out - shift

            ok = True
            if check_local:
                # link (prev_edge, e) at pos; only the root it touches can
                # have just frozen, and only if the link closes it: merged
                # components keep an open end, as each had two
                x = root
                y = tail
                while parent[y] != y:
                    y = parent[y]
                before = open_ends[x]
                if x == y:
                    y = -1
                    open_ends[x] = before - 2
                    ok = before > 2 or size[x] >= need[pos]
                else:
                    if size[x] < size[y]:
                        x, y = y, x
                        before = open_ends[x]
                    parent[y] = x
                    size[x] += size[y]
                    open_ends[x] = before + open_ends[y] - 2

            state[e] = nxt[u]
            next_home = home
            if w == start:
                next_home -= 1
                if not next_home and depth + 1 < L:
                    ok = False  # the walk could never leave the start again
            codes[depth] = c
            nties, nrties = ties, rties
            if ok and lex:
                if ties or fwd_at[c]:
                    nties = []
                    for pair in ties:
                        # not x and y: those hold the union-find roots to undo
                        t, j = pair
                        image, own = t[c], codes[depth - j]
                        if image == own:
                            nties.append(pair)
                        elif image < own:
                            ok = False  # a smaller image: not a lex-leader
                            break
                    for t in fwd_at[c]:
                        nties.append((t, depth))
                if ok:
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
            if ok and extend(w, depth + 1, e, head, next_home, nties, nrties):
                return True

            state[e] = u
            if check_local:
                open_ends[x] = before
                if y >= 0:
                    parent[y] = y
                    size[x] -= size[y]
            if shift:
                room_in[w] = free_in
                room_out[pos] = free_out
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
        start = eb[e0] if f0 else ea[e0]
        root_move = next(mv for mv in moves[start] if mv[1] == 2 * e0 + f0)
        _, c0, w0, head, first_slot, nxt, shifts, _ = root_move
        shift = shifts[0]
        if shift > room_in[w0] or shift > room_out[start]:
            continue
        room_in[w0] -= shift
        room_out[start] -= shift
        state[e0] = nxt[0]
        codes[0] = c0
        stop = extend(w0, 1, e0, head, deg[start] - (w0 == start), ties, rties)
        state[e0] = 0
        room_in[w0] += shift
        room_out[start] += shift
        if stop:
            break

    if mode == MODE_COUNT_RAW:
        return count
    if mode == MODE_ENUM_FIXED:
        return found
    return list(found[0]) if found else None
