"""Oracle search and equivalence-class enumeration for double traces.

The oracle answers queries by exhaustive search over step sequences and is
deliberately independent of the structural decision procedures, so the two
routes can be compared on the same inputs.  Capacity limits keep the
exponential search honest: beyond them a CapacityError is raised instead of
an answer.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import search_backend
from .errors import CapacityError, InputError
from .graphs import Graph, Host, TraceQuery, automorphisms, is_connected
from .traces import ClosedWalk, DoubleTrace, Step

ORACLE_EXISTS_MAX_EDGES = 10
ORACLE_ENUM_MAX_EDGES = 9

Codes = bytes | tuple[int, ...]  # steps coded 2e + f; bytes while codes fit


def lower_query(query: TraceQuery) -> tuple[int, list[int], list[int], list[int]]:
    """Flatten a query into the kernel's array form; arcs are the indices
    after the undirected edges."""
    host = query.host
    tails = host.dart_tails
    k = len(host.edges)
    r = query.restriction
    if r is None:
        labels = [search_backend.FREE] * k
    else:
        anti = r.antiparallel_edges
        labels = [search_backend.ANTI if i in anti else search_backend.PAR for i in range(k)]
    labels += [search_backend.ARC] * len(host.arcs)
    return host.vertex_count, list(tails[::2]), list(tails[1::2]), labels


def _gate(query: TraceQuery, limit: int, override: int | None) -> None:
    cap = limit if override is None else override
    if query.host.edge_count > cap:
        raise CapacityError(
            f"oracle search over {query.host.edge_count} edges exceeds the "
            f"limit of {cap}; the structural procedures have no such bound"
        )


def oracle_find(query: TraceQuery, *, max_edges: int | None = None) -> DoubleTrace | None:
    """First satisfying double trace in search order, or None."""
    _gate(query, ORACLE_EXISTS_MAX_EDGES, max_edges)
    host = query.host
    if host.edge_count == 0:
        return DoubleTrace(host, ()) if is_connected(host) else None
    if not is_connected(host):
        return None
    n, ea, eb, labels = lower_query(query)
    steps = search_backend.run(
        n, ea, eb, labels, query.require_strong, query.d, search_backend.MODE_EXISTS
    )
    if steps is None:
        return None
    return DoubleTrace(host, tuple(steps))


def oracle_exists(query: TraceQuery, *, max_edges: int | None = None) -> bool:
    return oracle_find(query, max_edges=max_edges) is not None


def count_raw_traces(query: TraceQuery, *, max_edges: int | None = None) -> int:
    """Number of satisfying step sequences, with no symmetry folded out."""
    _gate(query, ORACLE_ENUM_MAX_EDGES, max_edges)
    host = query.host
    if host.edge_count == 0:
        return 1 if is_connected(host) else 0
    if not is_connected(host):
        return 0
    n, ea, eb, labels = lower_query(query)
    return search_backend.run(
        n, ea, eb, labels, query.require_strong, query.d, search_backend.MODE_COUNT_RAW
    )


def _enum_fixed(query: TraceQuery, max_edges: int | None, tables: list[list[int]] | None):
    """The kernel's enumeration mode on the query: every fixed-start
    sequence, or, given the step tables of a relabeling group that fixes the
    restriction, one (least member, size) per class of an arc-free host."""
    _gate(query, ORACLE_ENUM_MAX_EDGES, max_edges)
    host = query.host
    if not is_connected(host):
        return []
    if host.edge_count == 0:
        return [()] if tables is None else [((), 1)]
    n, ea, eb, labels = lower_query(query)
    return search_backend.run(
        n, ea, eb, labels, query.require_strong, query.d, search_backend.MODE_ENUM_FIXED,
        tables=tables,
    )


def fixed_start_sequences(
    query: TraceQuery, *, max_edges: int | None = None
) -> list[tuple[Step, ...]]:
    """Step sequences of all satisfying traces whose first step is on edge 0:
    every class appears, and the other raw sequences follow by symmetry."""
    return _enum_fixed(query, max_edges, None)


def enumerate_fixed_start(
    query: TraceQuery, *, max_edges: int | None = None
) -> list[DoubleTrace]:
    """The traces of fixed_start_sequences."""
    return [DoubleTrace(query.host, s) for s in fixed_start_sequences(query, max_edges=max_edges)]


def _step_tables(host: Host, auts: tuple[tuple[int, ...], ...] | None = None) -> list[list[int]]:
    """Per relabeling, by default each automorphism of a simple host or the
    identity of any other, the image of every step code ``2e + f``.  The
    identity needs no edge lookup, so it alone applies to parallel edges and
    loops."""
    if auts is None:
        simple = isinstance(host, Graph)
        auts = automorphisms(host) if simple else (tuple(range(host.vertex_count)),)
    ends = host.edges + host.arcs
    # step codes by oriented endpoints: the first edge listed between two
    # vertices keeps its codes, so a parallel edge or a repeated loop adds none
    darts: dict[tuple[int, int], int] = {}
    for i, (a, b) in enumerate(ends):
        darts.setdefault((a, b), 2 * i)
        darts.setdefault((b, a), 2 * i + 1)
    repeated = len(darts) < sum(2 - (a == b) for a, b in ends)
    identity = tuple(range(host.vertex_count))
    tables = []
    for perm in auts:
        if tuple(perm) == identity:
            tables.append(list(range(2 * len(ends))))
            continue
        if repeated:
            raise InputError("only the identity relabels parallel edges or repeated loops")
        images = [darts.get((perm[a], perm[b])) for a, b in ends]
        if None in images:
            raise InputError(f"relabeling {perm} is not an automorphism of the host")
        # a loop's codes too: its two darts share a key
        tables.append([c for d in images for c in (d, d ^ 1)])
    return tables


def _fixing(tables: list[list[int]], anti: frozenset[int]) -> list[list[int]]:
    """The step tables that map the restricted edge set onto itself."""
    return [t for t in tables if {t[2 * i] >> 1 for i in anti} == anti]


def _rotations_at(seq: Codes, starts: tuple[int, ...]) -> list[Codes]:
    """Every rotation of ``seq`` that starts with a code in ``starts``,
    however often each occurs."""
    rotations = []
    for c in starts:
        i = -1
        for _ in range(seq.count(c)):
            i = seq.index(c, i + 1)
            rotations.append(seq[i:] + seq[:i])
    return rotations


def _period(seq: Codes) -> int:
    n = len(seq)
    return next((p for p in range(1, n) if n % p == 0 and seq[p:] + seq[:p] == seq), n or 1)


def _translate(codes: tuple[int, ...], table: list[int]) -> tuple[int, ...]:
    """bytes.translate for tuples of codes."""
    return tuple(map(table.__getitem__, codes))


def _orbit_images(
    maps: list[tuple[bool, bytes | list[int]]], codes: Codes, apply
) -> list[Codes]:
    """The sequence under every relabeling, and reversed when allowed: each
    image is one ``apply`` of a step table to the codes or their reversal."""
    back = codes[::-1]
    return [apply(back if reverse else codes, table) for reverse, table in maps]


def fold_classes(
    host: Host,
    sequences: Iterable[Sequence[Step]],
    auts: tuple[tuple[int, ...], ...] | None = None,
) -> list[tuple[tuple[Step, ...], int]]:
    """Symmetry classes among step sequences: (canonical form, size), sorted.

    Folds as canonical_form does, on codes ``2e + f`` (ordered like
    ``(e, f)``).  Sizes come from orbit-stabilizer: distinct least rotations
    among the images times the rotation period.  Orbit work is done once per
    class; its members that start with edge 0 are then one lookup away.
    """
    tables = _step_tables(host, auts)
    maps = [(False, t) for t in tables]
    if not host.arcs:
        # reversal flips every step as well: code c becomes c ^ 1
        maps += [(True, [c ^ 1 for c in t]) for t in tables]
    if host.edge_count <= 128:
        # bytes order like tuples of codes below 256, take a third the
        # memory and relabel in one call; translate tables have 256 entries
        pack, apply = bytes, bytes.translate
        maps = [(reverse, bytes(t).ljust(256)) for reverse, t in maps]
    else:
        pack, apply = tuple, _translate
    sizes: dict[Codes, int] = {}
    covered: set[Codes] = set()
    for steps in sequences:
        codes = pack([2 * e + f for e, f in steps])
        if codes in covered:
            continue
        least = set()
        for image in _orbit_images(maps, codes, apply):
            # the members of the class that start with edge 0; whenever edge
            # 0 occurs, one of them is the image's least rotation
            head = _rotations_at(image, (0, 1))
            covered.update(head)
            rotations = head or _rotations_at(image, (min(image, default=0),))
            least.add(min(rotations, default=image))
        canon = min(least)
        sizes.setdefault(canon, len(least) * _period(canon))
    return [(tuple((c >> 1, c & 1) for c in canon), sizes[canon]) for canon in sorted(sizes)]


def canonical_form(
    walk: ClosedWalk, auts: tuple[tuple[int, ...], ...] | None = None
) -> tuple[Step, ...]:
    """Lexicographically least sequence over rotations, reversal and relabelings.

    Reversal is only a symmetry when the host has no arcs.  Relabelings
    require the automorphism group, which is computed for simple hosts when
    not supplied; pass ``auts=((identity),)`` to fold rotations alone.
    """
    return fold_classes(walk.host, [walk.steps], auts)[0][0]


def orbit_size(
    walk: ClosedWalk, auts: tuple[tuple[int, ...], ...] | None = None
) -> int:
    """Number of raw step sequences in the walk's symmetry class.

    Defaults match canonical_form: rotations always, reversal on arc-free
    hosts, relabelings over the supplied (or computed) automorphisms.
    """
    return fold_classes(walk.host, [walk.steps], auts)[0][1]


@dataclass(frozen=True)
class EquivalenceClass:
    """One symmetry class of satisfying traces."""

    canonical: tuple[Step, ...]
    size: int


def enumerate_classes(
    query: TraceQuery, *, max_edges: int | None = None
) -> list[EquivalenceClass]:
    """Group all satisfying traces by rotation, reversal and relabeling.

    On a simple host the relabeling group is its automorphism group; on a
    multigraph or a mixed host it is the identity.  The kernel emits each
    class's least member on hosts without arcs; a host with arcs has its
    fixed-start sequences folded.  Class sizes count raw sequences, so they
    sum to the raw count.
    """
    host = query.host
    if host.arcs:
        # reversal is no symmetry here, and the lex-leader mode assumes it
        # is: fold every fixed-start sequence instead
        sequences = fixed_start_sequences(query, max_edges=max_edges)
        return [EquivalenceClass(canon, size) for canon, size in fold_classes(host, sequences)]
    tables = _step_tables(host)
    if query.restriction is not None:
        tables = _fixing(tables, query.restriction.antiparallel_edges)
    # the kernel emits only each class's least member, with its size
    leaders = _enum_fixed(query, max_edges, tables)
    return [EquivalenceClass(canon, size) for canon, size in sorted(leaders)]


def enumerate_sweep(host: Graph, p: int, d: int | None) -> list[EquivalenceClass]:
    """Classes of the strong traces, or given ``d`` the d-stable ones, whose
    antiparallel edges are any ``p`` edges, under the whole symmetry group.

    Every restriction of size p is searched under the step tables of every
    automorphism, not only of those that fix it.  A relabeling maps a trace
    whose antiparallel set is A onto one whose set is the image of A, so
    every image is still a trace of the sweep, and each class is emitted
    once: by the restriction its least member carries, with its size under
    the whole group.
    """
    m = host.edge_count
    if not 0 <= p <= m:
        raise InputError(f"--p must be between 0 and {m}")
    query = TraceQuery(host, require_strong=d is None, d=d or 0)
    _gate(query, ORACLE_ENUM_MAX_EDGES, None)
    if not is_connected(host):
        return []
    if m == 0:
        return [EquivalenceClass((), 1)]
    tables = _step_tables(host, automorphisms(host))
    n, ea, eb, _ = lower_query(query)
    # The kernel's static parity check, made before any labels are built: a
    # vertex with an odd number of unrestricted (parallel) edges has no
    # trace.  Bit v of ends[i] marks an end of edge i at v, so the host's
    # odd-degree vertices XOR the set's ends mark exactly those vertices.
    ends = [1 << a ^ 1 << b for a, b in host.edges]
    odd = functools.reduce(operator.xor, ends)
    leaders = []
    for anti in itertools.combinations(range(m), p):
        if functools.reduce(operator.xor, map(ends.__getitem__, anti), odd):
            continue
        labels = [search_backend.PAR] * m
        for i in anti:
            labels[i] = search_backend.ANTI
        leaders += search_backend.run(
            n, ea, eb, labels, query.require_strong, query.d, search_backend.MODE_ENUM_FIXED,
            tables=tables,
        )
    return [EquivalenceClass(canon, size) for canon, size in sorted(leaders)]
