"""Closed walks, double traces and their local repetition structure.

A step is a pair ``(edge_index, flag)``: flag 0 traverses the edge from its
first stored endpoint to its second, flag 1 the other way.  For a loop the
two flags name its two traversal senses, which keeps "same direction versus
opposite directions" meaningful for every edge.  Arcs of a mixed graph are
only ever traversed with flag 0.

A double trace is a closed walk using every edge of its host exactly twice.
For ``N`` a subset of the edges at ``v``, the walk repeats ``N`` when every
arrival at ``v`` through ``N`` departs through ``N`` and vice versa.  The
repetitions at ``v`` are exactly the unions of connected components of the
transition system at ``v`` - the multigraph on the incident edges that links
the in-edge and out-edge of each visit - so component structure is all the
predicates below need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .graphs import Host, RestrictionSet, is_connected

Step = tuple[int, int]


def step_tail(host: Host, step: Step) -> int:
    a, b = host.endpoints(step[0])
    return a if step[1] == 0 else b


def step_head(host: Host, step: Step) -> int:
    a, b = host.endpoints(step[0])
    return b if step[1] == 0 else a


@dataclass(frozen=True)
class ClosedWalk:
    """A cyclic edge walk; not necessarily edge-covering."""

    host: Host
    steps: tuple[Step, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple((int(e), int(f)) for e, f in self.steps))

    @classmethod
    def _of(cls, host: Host, steps: tuple[Step, ...]):
        """A walk over steps that are already a tuple of int pairs, as every
        walk the package builds itself is; nothing is normalised again."""
        w = object.__new__(cls)
        object.__setattr__(w, "host", host)
        object.__setattr__(w, "steps", steps)
        return w

    def __len__(self) -> int:
        return len(self.steps)

    def tail(self, t: int) -> int:
        return step_tail(self.host, self.steps[t])

    def head(self, t: int) -> int:
        return step_head(self.host, self.steps[t])

    def vertices(self) -> tuple[int, ...]:
        """Vertex sequence w_0..w_{l-1} (the tail of each step)."""
        return tuple(self.tail(t) for t in range(len(self.steps)))

    def visits(self, v: int) -> tuple[int, ...]:
        """Positions t whose step departs from v."""
        return tuple(t for t in range(len(self.steps)) if self.tail(t) == v)

    def rotate(self, k: int) -> "ClosedWalk":
        n = len(self.steps)
        if n == 0:
            return self
        k %= n
        return type(self)(self.host, self.steps[k:] + self.steps[:k])

    def reverse(self) -> "ClosedWalk":
        """Walk in the opposite sense: step order reversed, directions flipped."""
        return type(self)(self.host, tuple((e, 1 - f) for e, f in reversed(self.steps)))


class DoubleTrace(ClosedWalk):
    """A closed walk meant to traverse every host edge exactly twice."""


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


def closed_walk_problems(w: ClosedWalk) -> list[str]:
    """Structural checks only: indices, flags, cyclic adjacency."""
    problems = []
    n_edges = w.host.edge_count
    for t, (e, f) in enumerate(w.steps):
        if not (0 <= e < n_edges):
            problems.append(f"step {t}: edge index {e} out of range")
            return problems
        if f not in (0, 1):
            problems.append(f"step {t}: direction flag {f} not 0 or 1")
            return problems
    L = len(w.steps)
    for t in range(L):
        if w.head(t) != w.tail((t + 1) % L):
            problems.append(
                f"step {t} ends at {w.head(t)} but step {(t + 1) % L} starts at {w.tail((t + 1) % L)}"
            )
    return problems


def validate_double_trace(w: DoubleTrace | ClosedWalk) -> ValidationReport:
    """Full double-trace validity: closed, every edge exactly twice, arcs in
    their prescribed direction, host connected."""
    problems = closed_walk_problems(w)
    host = w.host
    if not problems:
        if len(w.steps) != 2 * host.edge_count:
            problems.append(
                f"length {len(w.steps)} != twice the edge count {2 * host.edge_count}"
            )
        use = [0] * host.edge_count
        for e, f in w.steps:
            use[e] += 1
            if host.is_arc(e) and f != 0:
                problems.append(f"arc {e} traversed against its direction")
        for e, c in enumerate(use):
            if c != 2:
                problems.append(f"edge {e} traversed {c} times, expected 2")
    if not is_connected(host):
        problems.append("host is not connected")
    return ValidationReport(ok=not problems, problems=tuple(problems))


# ---------------------------------------------------------------------------
# Direction classification
# ---------------------------------------------------------------------------

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"


def classify_directions(w: ClosedWalk) -> tuple[str, ...]:
    """Per-edge label: parallel (same direction twice) or antiparallel.

    Requires each edge to be used exactly twice; labels are invariant under
    rotation and reversal of the walk.
    """
    flags: list[list[int]] = [[] for _ in range(w.host.edge_count)]
    for e, f in w.steps:
        flags[e].append(f)
    labels = []
    for e, fl in enumerate(flags):
        if len(fl) != 2:
            raise InputError(f"edge {e} used {len(fl)} times; classify needs a double trace")
        labels.append(PARALLEL if fl[0] == fl[1] else ANTIPARALLEL)
    return tuple(labels)


def check_restriction(w: ClosedWalk, r: RestrictionSet) -> bool:
    """True iff the undirected edges in ``r`` are antiparallel and all other
    undirected edges are parallel.  Arcs are outside the restriction."""
    labels = classify_directions(w)
    undirected_count = len(w.host.edges)
    for i in r.antiparallel_edges:
        if not (0 <= i < undirected_count):
            raise InputError(f"restriction index {i} is not an undirected edge")
    for e in range(undirected_count):
        want = ANTIPARALLEL if e in r.antiparallel_edges else PARALLEL
        if labels[e] != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Transition systems and repetitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionSystem:
    """Link structure of a walk at one vertex.

    ``elements`` are the incident edges the walk uses at ``vertex`` (for a
    double trace, all of them); each visit contributes one ``link`` joining
    its in-edge to its out-edge.  ``components`` partition the elements; the
    repetitions at the vertex are exactly the unions of components.
    """

    vertex: int
    elements: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    components: tuple[frozenset[int], ...]

    @property
    def component_count(self) -> int:
        return len(self.components)

    def min_component_size(self) -> int:
        return min((len(c) for c in self.components), default=0)

    def neighbor_components(self, host: Host) -> tuple[frozenset[int], ...]:
        """Components as neighbor-vertex sets; simple hosts only."""
        out = []
        for comp in self.components:
            nbrs = set()
            for e in comp:
                a, b = host.endpoints(e)
                nbrs.add(b if a == self.vertex else a)
            out.append(frozenset(nbrs))
        return tuple(out)


def link_classes(links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Components of the multigraph on edge indices that ``links`` join,
    each sorted, ordered by their least member.  A vertex has a handful of
    links, so groups are merged smaller into larger, without a union-find."""
    group: dict[int, list[int]] = {}
    count = 0
    for a, b in links:
        ga = group.get(a)
        if ga is None:
            ga = group[a] = [a]
            count += 1
        gb = group.get(b)
        if gb is None:
            ga.append(b)
            group[b] = ga
        elif gb is not ga:
            if len(ga) < len(gb):
                ga, gb = gb, ga
            ga += gb
            for x in gb:
                group[x] = ga
            count -= 1
    if count == 1:
        return [sorted(ga)]
    return sorted(sorted(g) for g in {id(g): g for g in group.values()}.values())


def transition_system(w: ClosedWalk, v: int) -> TransitionSystem:
    """Links (in-edge, out-edge) of every visit of ``v``, with components."""
    L = len(w.steps)
    links = []
    for t in range(L):
        if w.tail(t) == v:
            links.append((w.steps[(t - 1) % L][0], w.steps[t][0]))
    classes = link_classes(links)
    return TransitionSystem(
        vertex=v,
        elements=tuple(sorted(e for c in classes for e in c)),
        links=tuple(links),
        components=tuple(frozenset(c) for c in classes),
    )


class WalkIndex:
    """One pass over a closed walk: the positions that depart each vertex,
    in walk order, from which each vertex's transition classes follow in
    time linear in its visits.

    ``transition_system`` rescans the whole walk for one vertex; the index
    answers for every vertex after a single scan.
    """

    def __init__(self, host: Host, steps: Sequence[Step]):
        self.steps = steps
        self.departures: list[list[int]] = [[] for _ in range(host.vertex_count)]
        tail = host.dart_tails
        for t, (e, f) in enumerate(steps):
            self.departures[tail[2 * e + f]].append(t)

    def classes(self, v: int) -> list[list[int]]:
        """The transition classes at ``v``, as ``transition_system`` orders
        its components."""
        steps = self.steps
        return link_classes((steps[t - 1][0], steps[t][0]) for t in self.departures[v])


def is_strong(w: ClosedWalk) -> bool:
    """No nontrivial repetition at any vertex: every visited vertex has a
    single transition component."""
    index = WalkIndex(w.host, w.steps)
    return all(len(index.classes(v)) <= 1 for v in range(w.host.vertex_count))


def is_d_stable(w: ClosedWalk, d: int) -> bool:
    """No repetition of order between 1 and ``d``.

    The smallest nonempty repetition at ``v`` is its smallest transition
    component, and with a single component the whole incident edge set is
    itself a repetition; so the test is that every visited vertex's minimum
    component size exceeds ``d``.  ``d = 0`` is always true, and a strong
    trace is d-stable exactly when every degree exceeds ``d``.
    """
    if d < 0:
        raise InputError("d must be non-negative")
    index = WalkIndex(w.host, w.steps)
    sizes = (map(len, index.classes(v)) for v in range(w.host.vertex_count))
    return all(min(s, default=d + 1) > d for s in sizes)
