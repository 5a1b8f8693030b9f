"""Graph values and structural operations.

One immutable host class, :class:`Host`, implements every host operation:
vertices are ``0..n-1`` and edges are identified by their position in the
edge list.  Every subset or certificate elsewhere in the package is a set of
these positional indices.  Its three kinds differ only in what they accept:

* :class:`Graph` - simple undirected graph (no loops, no parallel edges).
* :class:`Multigraph` - undirected, loops and parallel edges allowed.
* :class:`MixedGraph` - undirected edges plus arcs with a fixed direction.

The traversable objects are indexed together: undirected edges first (in
file/list order), then arcs.

The module also holds :class:`RestrictionSet`, :class:`TraceQuery` and the
graph-file format (``parse_graph`` and ``render_graph``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar, Collection, Iterable, Optional, Union

from .errors import CapacityError, InputError, ParseError

# ---------------------------------------------------------------------------
# Host types
# ---------------------------------------------------------------------------


def _as_pairs(edges: Iterable) -> tuple[tuple[int, int], ...]:
    return tuple((int(u), int(v)) for u, v in edges)


def _check_range(pairs: tuple[tuple[int, int], ...], n: int, what: str) -> None:
    for i, (u, v) in enumerate(pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"{what} {i} = ({u}, {v}) out of range for {n} vertices")


@dataclass(frozen=True)
class Host:
    """Vertices ``0..vertex_count-1``, undirected ``edges`` and, on a
    :class:`MixedGraph`, direction-fixed ``arcs`` indexed after the edges.

    Incidence, degree, dart tails and connectivity are computed on first
    use and kept outside the fields, so equality, hashing and pickling see
    only the fields.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    arcs: ClassVar[tuple[tuple[int, int], ...]] = ()  # a field of MixedGraph only
    kind: ClassVar[str]  # the graph-file kind: simple, multi or mixed

    def __post_init__(self):
        object.__setattr__(self, "edges", _as_pairs(self.edges))
        if self.vertex_count < 0:
            raise InputError("vertex_count must be non-negative")
        _check_range(self.edges, self.vertex_count, "edge")

    def __getstate__(self):
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    @cached_property
    def edge_count(self) -> int:
        return len(self.edges) + len(self.arcs)

    @cached_property
    def _ends(self) -> tuple[tuple[int, int], ...]:
        return self.edges + self.arcs

    @cached_property
    def dart_tails(self) -> tuple[int, ...]:
        """The tail of step ``(e, f)`` at index ``2e + f``: endpoint ``f``
        of edge ``e``.  Its head is at index ``2e + 1 - f``."""
        return tuple(v for ends in self._ends for v in ends)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (a, b) in enumerate(self._ends):
            out[a].append(i)
            if b != a:
                out[b].append(i)
        return tuple(map(tuple, out))

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for a, b in self._ends:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)

    @cached_property
    def _connected(self) -> bool:
        return _search_connected(self)

    def endpoints(self, i: int) -> tuple[int, int]:
        return self._ends[i]

    def is_arc(self, i: int) -> bool:
        return i >= len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        """Indices at ``v`` in ascending order; a loop is listed once."""
        return self._incidence[v]

    def degree(self, v: int) -> int:
        """Edges plus arcs at ``v``; a loop counts twice."""
        return self._degrees[v]

    def min_degree(self) -> int:
        return min(self._degrees, default=0)


def _reject_simple_violations(edges: tuple[tuple[int, int], ...], hint: str) -> None:
    seen = set()
    for i, (u, v) in enumerate(edges):
        if u == v:
            raise InputError(f"edge {i} is a loop{hint}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise InputError(f"edge {i} duplicates pair {key}{hint}")
        seen.add(key)


@dataclass(frozen=True)
class Graph(Host):
    """Simple undirected graph: no loops, no parallel edges."""

    kind: ClassVar[str] = "simple"

    def __post_init__(self):
        super().__post_init__()
        _reject_simple_violations(self.edges, "; use Multigraph")


@dataclass(frozen=True)
class Multigraph(Host):
    """Undirected multigraph: loops and parallel edges allowed."""

    kind: ClassVar[str] = "multi"


@dataclass(frozen=True)
class MixedGraph(Host):
    """Undirected edges plus direction-fixed arcs.

    Loops are not allowed.  Duplicate undirected pairs and duplicate
    identical arcs are rejected; an opposite arc pair (u,v)/(v,u) and an arc
    alongside an undirected edge on the same pair are both fine.
    """

    arcs: tuple[tuple[int, int], ...]
    kind: ClassVar[str] = "mixed"

    def __post_init__(self):
        object.__setattr__(self, "arcs", _as_pairs(self.arcs))
        super().__post_init__()
        _check_range(self.arcs, self.vertex_count, "arc")
        _reject_simple_violations(self.edges, "")
        seen_arcs = set()
        for i, (u, v) in enumerate(self.arcs):
            if u == v:
                raise InputError(f"arc {i} is a loop")
            if (u, v) in seen_arcs:
                raise InputError(f"arc {i} duplicates arc ({u}, {v})")
            seen_arcs.add((u, v))


@dataclass(frozen=True)
class RestrictionSet:
    """The set of edge indices required to be traversed in opposite
    directions; all other undirected edges must be traversed twice in the
    same direction."""

    antiparallel_edges: frozenset[int]

    def __post_init__(self):
        object.__setattr__(
            self, "antiparallel_edges", frozenset(int(i) for i in self.antiparallel_edges)
        )

    @classmethod
    def of(cls, edges: Iterable[int]) -> "RestrictionSet":
        return cls(frozenset(edges))

    def complement(self, host: Host) -> frozenset[int]:
        """Indices of the undirected edges required to be parallel."""
        return frozenset(range(len(host.edges))) - self.antiparallel_edges


VARIANTS = ("strong", "dstable", "parallel", "antiparallel", "restricted", "double")


@dataclass(frozen=True, eq=False)
class TraceQuery:
    """What to search for: variant flags plus an optional direction restriction.

    ``restriction`` lists the edges that must be traversed once in each
    direction; all other undirected edges must then be traversed twice in
    the same direction.  With no restriction every edge is free.  Arcs are
    always traversed twice in their stored direction.  ``d = 0`` bounds no
    repetition order.
    """

    host: Host
    require_strong: bool = False
    d: int = 0
    restriction: RestrictionSet | None = None

    def __post_init__(self):
        if self.d < 0:
            raise InputError("repetition order bound must be non-negative")
        if self.restriction is not None:
            for i in self.restriction.antiparallel_edges:
                if not (0 <= i < self.host.edge_count):
                    raise InputError(f"restriction edge {i} out of range")
                if self.host.is_arc(i):
                    raise InputError(f"restriction edge {i} is an arc")

    @classmethod
    def for_variant(
        cls,
        host: Host,
        variant: str,
        d: Optional[int] = None,
        restriction: Optional[RestrictionSet] = None,
    ) -> "TraceQuery":
        """The query one of ``VARIANTS`` asks of ``host``.

        ``parallel`` and ``antiparallel`` are the restricted question with E
        empty and E = every edge; ``restricted`` and ``double`` take E from
        ``restriction``, empty when it is None.  ``dstable`` without ``d``
        asks order 1, and a restricted variant without ``d`` asks a strong
        trace.  ``strong`` and ``double`` take no ``d``, and a given ``d``
        is at least 1.  A mixed host answers only ``restricted``.
        """
        if variant not in VARIANTS:
            raise InputError(f"unknown variant {variant!r}")
        if d is not None and variant in ("strong", "double"):
            raise InputError(f"--d does not apply to the {variant} variant")
        if d is not None and d < 1:
            raise InputError("repetition order bound must be at least 1")
        if isinstance(host, MixedGraph) and variant != "restricted":
            raise InputError(
                "mixed graphs support only the restricted variant; arcs fix "
                "their own directions"
            )
        if variant == "strong":
            return cls(host, require_strong=True)
        if variant == "dstable":
            return cls(host, d=d or 1)
        if variant == "parallel" or restriction is None:
            restriction = RestrictionSet.of(())
        if variant == "antiparallel":
            restriction = RestrictionSet.of(range(host.edge_count))
        if variant == "double":
            return cls(host, restriction=restriction)
        return cls(host, require_strong=d is None, d=d or 0, restriction=restriction)


def is_connected(host: Host) -> bool:
    """True iff the host is connected (weakly, for mixed graphs).

    Isolated vertices count: a 2-vertex graph with no edges is disconnected,
    a 1-vertex graph is connected.  Each host object is searched once.
    """
    return host._connected


def _search_connected(host: Host) -> bool:
    n = host.vertex_count
    if n == 0:
        return True
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for i in host.incident(v):
            a, b = host.endpoints(i)
            w = b if a == v else a
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return all(seen)


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------
#
# One record per line, ``#`` comments and blank lines ignored:
#
#     n <vertices> [simple|multi|mixed]   header, kind defaults to simple
#     e <u> <v>                           undirected edge
#     a <u> <v>                           arc, tail to head (mixed only)
#     E <i1> <i2> ...                     edges required antiparallel,
#                                         0-based in file order


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer", lineno) from None


def parse_graph(text: str) -> tuple[Host, Optional[RestrictionSet]]:
    """Read one graph document; returns the host and its restriction, if any.

    Restriction indices count edge records (``e`` and ``a`` lines together)
    in file order and must name undirected edges.
    """
    kind: Optional[str] = None
    nverts: Optional[int] = None
    und: list[tuple[int, int]] = []
    arcs: list[tuple[int, int]] = []
    record_kinds: list[str] = []  # "e"/"a" per edge record, in file order
    und_seen: set[tuple[int, int]] = set()
    arc_seen: set[tuple[int, int]] = set()
    restriction_ids: Optional[list[int]] = None
    restriction_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "n":
            if nverts is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) not in (2, 3):
                raise ParseError("header must be 'n <vertices> [simple|multi|mixed]'", lineno)
            nverts = _parse_int(fields[1], lineno, "vertex count")
            if nverts < 0:
                raise ParseError("vertex count must be non-negative", lineno)
            kind = fields[2] if len(fields) == 3 else "simple"
            if kind not in ("simple", "multi", "mixed"):
                raise ParseError(f"unknown graph kind {kind!r}", lineno)
        elif tag in ("e", "a"):
            if nverts is None:
                raise ParseError("edge record before the 'n' header", lineno)
            if len(fields) != 3:
                raise ParseError(f"edge record must be '{tag} <u> <v>'", lineno)
            u = _parse_int(fields[1], lineno, "vertex")
            v = _parse_int(fields[2], lineno, "vertex")
            for x in (u, v):
                if not (0 <= x < nverts):
                    raise ParseError(f"vertex {x} out of range 0..{nverts - 1}", lineno)
            if tag == "a":
                if kind != "mixed":
                    raise ParseError("arcs require a 'mixed' header", lineno)
                if u == v:
                    raise ParseError("arcs may not be loops", lineno)
                if (u, v) in arc_seen:
                    raise ParseError(f"duplicate arc ({u}, {v})", lineno)
                arc_seen.add((u, v))
                record_kinds.append("a")
                arcs.append((u, v))
            else:
                if kind != "multi":
                    if u == v:
                        raise ParseError("loops need a 'multi' header", lineno)
                    key = (min(u, v), max(u, v))
                    if key in und_seen:
                        raise ParseError(f"duplicate edge {key}", lineno)
                    und_seen.add(key)
                record_kinds.append("e")
                und.append((u, v))
        elif tag == "E":
            if restriction_ids is not None:
                raise ParseError("duplicate restriction record", lineno)
            restriction_ids = [
                _parse_int(t, lineno, "edge index") for t in fields[1:]
            ]
            restriction_line = lineno
        else:
            raise ParseError(f"unknown record {tag!r}", lineno)

    if nverts is None:
        raise ParseError("missing 'n <vertices>' header")

    host: Host
    if kind == "simple":
        host = Graph(nverts, tuple(und))
    elif kind == "multi":
        host = Multigraph(nverts, tuple(und))
    else:
        host = MixedGraph(nverts, tuple(und), tuple(arcs))

    restriction: Optional[RestrictionSet] = None
    if restriction_ids is not None:
        mapped = []
        # position among undirected records; arcs shift later edge numbers
        und_position = [0] * len(record_kinds)
        seen_e = 0
        for i, rk in enumerate(record_kinds):
            und_position[i] = seen_e
            if rk == "e":
                seen_e += 1
        for i in restriction_ids:
            if not (0 <= i < len(record_kinds)):
                raise ParseError(f"restriction index {i} out of range", restriction_line)
            if record_kinds[i] == "a":
                raise ParseError(
                    f"restriction index {i} names an arc; arcs have fixed directions",
                    restriction_line,
                )
            mapped.append(und_position[i])
        restriction = RestrictionSet.of(mapped)
    return host, restriction


def render_graph(host: Host, restriction: Optional[RestrictionSet] = None) -> str:
    """Inverse of parse_graph: parse(render(g)) is structurally equal to g."""
    lines = [f"n {host.vertex_count} {host.kind}"]
    for u, v in host.edges:
        lines.append(f"e {u} {v}")
    for u, v in host.arcs:
        lines.append(f"a {u} {v}")
    if restriction is not None:
        ids = " ".join(str(i) for i in sorted(restriction.antiparallel_edges))
        lines.append(f"E {ids}".rstrip())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Edge fragments and parity components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeFragment:
    """Subgraph induced by a set of edge indices: those edges plus every
    vertex they touch (no isolated vertices).

    Degrees are counted in one pass on first use and kept outside the
    fields, as ``Host`` keeps its own.
    """

    host: Host
    edges: tuple[int, ...]
    vertices: frozenset[int]

    @cached_property
    def _degrees(self) -> dict[int, int]:
        deg = dict.fromkeys(self.vertices, 0)
        for i in self.edges:
            a, b = self.host.endpoints(i)
            deg[a] += 1
            deg[b] += 1
        return deg

    def degree(self, v: int) -> int:
        """Fragment edges at ``v``; a loop counts twice."""
        return self._degrees.get(v, 0)


def induced_edge_subgraph(host: Host, edge_set: Collection[int]) -> EdgeFragment:
    """Fragment of ``host`` induced by ``edge_set`` (positional indices)."""
    edges = tuple(sorted(set(map(int, edge_set))))
    if edges and not (0 <= edges[0] and edges[-1] < host.edge_count):
        bad = next(i for i in edges if not 0 <= i < host.edge_count)
        raise InputError(f"edge index {bad} out of range")
    verts = itertools.chain.from_iterable(map(host._ends.__getitem__, edges))
    return EdgeFragment(host, edges, frozenset(verts))


def is_even_subgraph(fragment: EdgeFragment) -> bool:
    """True iff every vertex of the fragment has even degree within it.

    Vertices outside the fragment have degree 0 there, so this is equivalent
    to "removing the complementary edges from the host leaves an even graph".
    """
    return all(fragment.degree(v) % 2 == 0 for v in fragment.vertices)


@dataclass(frozen=True)
class Component:
    """One connected component of an edge fragment."""

    vertices: frozenset[int]
    edges: frozenset[int]
    edge_count: int
    odd: bool
    has_witness: bool


@dataclass(frozen=True)
class ComponentReport:
    components: tuple[Component, ...]

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


WitnessSpec = Optional[Union[Collection[int], Callable[[int], bool]]]


def _as_predicate(witness: WitnessSpec) -> Callable[[int], bool]:
    if witness is None:
        return lambda v: False
    if callable(witness):
        return witness
    wset = frozenset(witness)
    return lambda v: v in wset


def components_with_parity(
    fragment: EdgeFragment, witness: WitnessSpec = None
) -> ComponentReport:
    """Connected components of a fragment with edge-count parity and witness
    flags.

    ``witness`` marks distinguished vertices, given as a vertex collection or
    a predicate; a component's flag is true iff it contains one.
    """
    pred = _as_predicate(witness)
    ends = fragment.host._ends
    # each part is [edges, vertices]; a smaller part is merged into a larger
    part_of: dict[int, list] = {}
    for i in fragment.edges:
        a, b = ends[i]
        pa = part_of.get(a) or part_of.setdefault(a, [[], [a]])
        pb = part_of.get(b)
        if pb is None:
            pa[1].append(b)
            part_of[b] = pa
        elif pb is not pa:
            if len(pa[1]) < len(pb[1]):
                pa, pb = pb, pa
            pa[0] += pb[0]
            pa[1] += pb[1]
            for v in pb[1]:
                part_of[v] = pa
        pa[0].append(i)
    parts = sorted({id(p): p for p in part_of.values()}.values(), key=lambda p: min(p[0]))
    return ComponentReport(tuple(
        # vertices, edges, edge count, parity, witness
        Component(frozenset(vs), frozenset(es), len(es), len(es) % 2 == 1, any(map(pred, vs)))
        for es, vs in parts
    ))


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionMap:
    """Result of contracting the components of an edge subset.

    ``quotient`` keeps one edge per surviving host edge, endpoints listed in
    the same order as the host edge's, so a traversal direction lifts by edge
    index alone; with nothing contracted it is the host itself.
    ``eprime_vertices`` are the quotient vertices that stand for contracted
    components.
    """

    host: Host
    quotient: Host
    vertex_image: tuple[int, ...]
    eprime_vertices: frozenset[int]
    edge_origin: tuple[int, ...]

    def component_vertices(self, q: int) -> tuple[int, ...]:
        """Host vertices mapped onto quotient vertex ``q``."""
        return tuple(v for v, img in enumerate(self.vertex_image) if img == q)


def _contract_over(host: Host, merged_edges: Collection[int],
                   surviving_edges: Collection[int]) -> ContractionMap:
    n = host.vertex_count
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = set()
    for i in merged_edges:
        a, b = host.endpoints(i)
        touched.add(a)
        touched.add(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    image = [-1] * n
    root_image: dict[int, int] = {}
    next_id = 0
    for v in range(n):
        r = find(v)
        if v in touched:
            if r not in root_image:
                root_image[r] = next_id
                next_id += 1
            image[v] = root_image[r]
        else:
            image[v] = next_id
            next_id += 1

    eprime = frozenset(root_image.values())
    qedges = []
    origin = []
    for i in sorted(surviving_edges):
        a, b = host.endpoints(i)
        qedges.append((image[a], image[b]))
        origin.append(i)
    quotient = host if not touched else Multigraph(next_id, tuple(qedges))
    return ContractionMap(host, quotient, tuple(image), eprime, tuple(origin))


def contract(g: Graph, eprime: Collection[int]) -> ContractionMap:
    """Contract each connected component of the ``eprime`` fragment of ``g``
    to a single vertex; the remaining edges survive and may become loops or
    parallel edges."""
    eprime = set(int(i) for i in eprime)
    for i in eprime:
        if not (0 <= i < g.edge_count):
            raise InputError(f"edge index {i} out of range")
    survivors = [i for i in range(g.edge_count) if i not in eprime]
    return _contract_over(g, eprime, survivors)


def contract_mixed(b: MixedGraph, eprime: Collection[int]) -> ContractionMap:
    """Contract the fragment induced by the ``eprime`` undirected edges plus
    every arc.  Survivors are the remaining undirected edges; ``edge_origin``
    refers to undirected edge indices of ``b``."""
    eprime = set(int(i) for i in eprime)
    for i in eprime:
        if not (0 <= i < len(b.edges)):
            raise InputError(f"undirected edge index {i} out of range")
    merged = sorted(eprime) + [len(b.edges) + k for k in range(len(b.arcs))]
    survivors = [i for i in range(len(b.edges)) if i not in eprime]
    return _contract_over(b, merged, survivors)


# ---------------------------------------------------------------------------
# Simplification of multigraphs
# ---------------------------------------------------------------------------
#
# The decider and the builders search and build on the quotient multigraph
# itself.  The subdivision below stays only as the reference that the tree
# search's equivalence test compares against, and because the benchmark's
# tracer names it; both go when the benchmark's table is next edited.


@dataclass(frozen=True)
class SimplifiedGraph:
    """A multigraph rewritten as a simple graph by subdividing edges.

    Every loop becomes a path of length 3 (two new vertices) and every member
    of a parallel class becomes a path of length 2 (one new vertex); plain
    edges are kept.  Original vertices keep their indices; new vertices are
    appended in edge order.

    ``edge_paths[i]`` lists the simple-graph edge indices replacing
    multigraph edge ``i``, ordered from the edge's first stored endpoint to
    its second; traversing the whole path "forwards" (each simple edge in
    stored orientation) corresponds to traversing edge ``i`` from its first
    endpoint to its second.  ``vertex_origin[w]`` is -1 for an original
    vertex and the subdivided multigraph edge index for a new one.
    """

    source: Multigraph
    graph: Graph
    edge_paths: tuple[tuple[int, ...], ...]
    vertex_origin: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return all(len(p) == 1 for p in self.edge_paths)


def simplify_multigraph(m: Multigraph) -> SimplifiedGraph:
    """Subdivide loops and parallel edges so the result is simple."""
    class_size: dict[tuple[int, int], int] = {}
    for a, b in m.edges:
        key = (min(a, b), max(a, b))
        class_size[key] = class_size.get(key, 0) + 1

    next_vertex = m.vertex_count
    origin = [-1] * m.vertex_count
    new_edges: list[tuple[int, int]] = []
    paths: list[tuple[int, ...]] = []

    for i, (a, b) in enumerate(m.edges):
        key = (min(a, b), max(a, b))
        if a == b:
            # loop: a - p - q - a
            p, q = next_vertex, next_vertex + 1
            next_vertex += 2
            origin += [i, i]
            base = len(new_edges)
            new_edges += [(a, p), (p, q), (q, a)]
            paths.append((base, base + 1, base + 2))
        elif class_size[key] > 1:
            # parallel class member: a - mid - b
            mid = next_vertex
            next_vertex += 1
            origin.append(i)
            base = len(new_edges)
            new_edges += [(a, mid), (mid, b)]
            paths.append((base, base + 1))
        else:
            paths.append((len(new_edges),))
            new_edges.append((a, b))

    graph = Graph(next_vertex, tuple(new_edges))
    return SimplifiedGraph(m, graph, tuple(paths), tuple(origin))


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------


def automorphisms(g: Graph, max_vertices: int = 10) -> tuple[tuple[int, ...], ...]:
    """All vertex permutations preserving adjacency, identity included.

    Intended for small graphs; inputs above ``max_vertices`` raise
    :class:`CapacityError`.
    """
    n = g.vertex_count
    if n > max_vertices:
        raise CapacityError(f"{n} vertices exceeds automorphism limit {max_vertices}")
    if n == 0:
        return ((),)

    adj = [[False] * n for _ in range(n)]
    for a, b in g.edges:
        adj[a][b] = adj[b][a] = True
    deg = [g.degree(v) for v in range(n)]

    result: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        if v == n:
            result.append(tuple(image))
            return
        for w in range(n):
            if used[w] or deg[w] != deg[v]:
                continue
            if any(adj[v][u] != adj[w][image[u]] for u in range(v)):
                continue
            image[v] = w
            used[w] = True
            extend(v + 1)
            used[w] = False
        image[v] = -1

    extend(0)
    return tuple(result)


# ---------------------------------------------------------------------------
# Small generators used by tests and the CLI
# ---------------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
