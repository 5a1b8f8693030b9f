"""Graph families, seeded random hosts and the graph facts the benchmark
needs to pick its inputs: spanning-tree counts, co-tree parity and
admissible trees.  Nothing here imports the program under test."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Host:
    """A simple graph, or a mixed one when ``arcs`` is non-empty."""

    n: int
    edges: tuple[tuple[int, int], ...]
    arcs: tuple[tuple[int, int], ...] = field(default=())

    @property
    def kind(self) -> str:
        return "mixed" if self.arcs else "simple"

    @property
    def m(self) -> int:
        return len(self.edges) + len(self.arcs)

    def endpoints(self, i: int) -> tuple[int, int]:
        """Edge ``i`` in file order: undirected edges first, then arcs."""
        k = len(self.edges)
        return self.edges[i] if i < k else self.arcs[i - k]


def render(host: Host, restriction: Optional[frozenset[int]] = None) -> str:
    """The program's graph-file format; ``e`` records precede ``a`` records,
    so restriction indices are undirected edge indices."""
    lines = [f"n {host.n} {host.kind}"]
    lines += [f"e {a} {b}" for a, b in host.edges]
    lines += [f"a {t} {h}" for t, h in host.arcs]
    if restriction is not None:
        lines.append(" ".join(["E"] + [str(i) for i in sorted(restriction)]))
    return "\n".join(lines) + "\n"


def relabel(
    host: Host, restriction: Optional[frozenset[int]], rng: random.Random
) -> tuple[Host, Optional[frozenset[int]]]:
    """Random vertex names, edge order and endpoint order; the restriction
    follows its edges."""
    perm = list(range(host.n))
    rng.shuffle(perm)
    order = list(range(len(host.edges)))
    rng.shuffle(order)
    edges = []
    for i in order:
        a, b = host.edges[i]
        pair = (perm[a], perm[b])
        edges.append(pair if rng.random() < 0.5 else pair[::-1])
    arcs = [(perm[t], perm[h]) for t, h in host.arcs]
    rng.shuffle(arcs)
    new_r = None
    if restriction is not None:
        new_r = frozenset(k for k, i in enumerate(order) if i in restriction)
    return Host(host.n, tuple(edges), tuple(arcs)), new_r


def rename(host: Host, rng: random.Random) -> Host:
    """Random vertex names; edge order and endpoint order are kept."""
    perm = list(range(host.n))
    rng.shuffle(perm)
    return Host(
        host.n,
        tuple((perm[a], perm[b]) for a, b in host.edges),
        tuple((perm[t], perm[h]) for t, h in host.arcs),
    )


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def complete(n: int) -> Host:
    return Host(n, tuple(itertools.combinations(range(n), 2)))


def circulant(n: int, jumps: tuple[int, ...]) -> Host:
    edges = {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps}
    return Host(n, tuple(sorted(edges)))


def prism(k: int) -> Host:
    ring = [(i, (i + 1) % k) for i in range(k)]
    return Host(
        2 * k,
        tuple(ring + [(a + k, b + k) for a, b in ring] + [(i, i + k) for i in range(k)]),
    )


def wheel(k: int) -> Host:
    """Pyramid over a k-gon: hub k joined to a k-cycle."""
    return Host(k + 1, tuple([(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]))


def generalized_petersen(k: int, s: int) -> Host:
    edges = set()
    for i in range(k):
        edges.add((i, (i + 1) % k))
        edges.add((i, i + k))
        edges.add(tuple(sorted((i + k, (i + s) % k + k))))
    return Host(2 * k, tuple(sorted(tuple(sorted(e)) for e in edges)))


def cube() -> Host:
    return Host(8, tuple((a, a ^ (1 << b)) for a in range(8) for b in range(3) if a < a ^ (1 << b)))


def octahedron() -> Host:
    return Host(6, tuple((a, b) for a, b in itertools.combinations(range(6), 2) if b - a != 3))


def icosahedron() -> Host:
    top, bottom = 0, 11
    up = [1 + i for i in range(5)]
    lo = [6 + i for i in range(5)]
    edges = []
    for i in range(5):
        edges += [
            (top, up[i]),
            (up[i], up[(i + 1) % 5]),
            (lo[i], lo[(i + 1) % 5]),
            (lo[i], bottom),
            (up[i], lo[i]),
            (up[i], lo[(i + 1) % 5]),
        ]
    return Host(12, tuple(edges))


def dodecahedron() -> Host:
    return generalized_petersen(10, 2)


def k33() -> Host:
    return Host(6, tuple((a, b) for a in range(3) for b in range(3, 6)))


def house() -> Host:
    return Host(5, ((0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 3)))


def bowtie() -> Host:
    return Host(5, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)))


def dumbbell(a: int, b: int) -> Host:
    """An a-cycle and a b-cycle joined by one bridge."""
    left = [(i, (i + 1) % a) for i in range(a)]
    right = [(a + i, a + (i + 1) % b) for i in range(b)]
    return Host(a + b, tuple(left + right + [(0, a)]))


def k4_ear() -> Host:
    """K4 with a path of length two added between two of its vertices."""
    return Host(5, complete(4).edges + ((0, 4), (4, 1)))


# ---------------------------------------------------------------------------
# Graph facts
# ---------------------------------------------------------------------------


class DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def is_connected(n: int, pairs) -> bool:
    ds = DisjointSets(n)
    for a, b in pairs:
        ds.union(a, b)
    return len({ds.find(v) for v in range(n)}) <= 1


def spanning_tree_count(n: int, pairs) -> int:
    """Kirchhoff's matrix-tree theorem, exact (fraction-free Bareiss)."""
    if n <= 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for a, b in pairs:
        if a == b:
            continue
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    mat = [row[1:] for row in lap[1:]]
    k = n - 1
    sign, prev = 1, 1
    for i in range(k):
        if mat[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if mat[r][i] != 0), None)
            if swap is None:
                return 0
            mat[i], mat[swap] = mat[swap], mat[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                mat[r][c] = (mat[r][c] * mat[i][i] - mat[r][i] * mat[i][c]) // prev
        prev = mat[i][i]
    return sign * mat[k - 1][k - 1]


def co_tree_admissible(n: int, pairs, tree: set[int], witness: frozenset[int]) -> bool:
    """Every co-tree component has an even edge count or a witness vertex."""
    ds = DisjointSets(n)
    co = [i for i in range(len(pairs)) if i not in tree]
    for i in co:
        ds.union(*pairs[i])
    count: dict[int, int] = {}
    witnessed: set[int] = set()
    for i in co:
        r = ds.find(pairs[i][0])
        count[r] = count.get(r, 0) + 1
        if pairs[i][0] in witness or pairs[i][1] in witness:
            witnessed.add(r)
    return all(c % 2 == 0 or r in witnessed for r, c in count.items())


def find_admissible_tree_randomly(
    n: int, pairs, witness: frozenset[int], rng: random.Random, tries: int = 400
) -> Optional[set[int]]:
    """A spanning tree of the (multi)graph whose co-tree components are even
    or witnessed, found by sampling random spanning trees; None if the
    samples miss.  A hit proves the query positive; a miss proves nothing."""
    order = list(range(len(pairs)))
    for _ in range(tries):
        rng.shuffle(order)
        ds = DisjointSets(n)
        tree = {i for i in order if pairs[i][0] != pairs[i][1] and ds.union(*pairs[i])}
        if co_tree_admissible(n, pairs, tree, witness):
            return tree
    return None


def quotient(host: Host, eprime: list[int]) -> tuple[int, list[tuple[int, int]], frozenset[int]]:
    """Contract the components of the unrestricted edges ``eprime`` plus all
    arcs; returns the quotient's vertex count, its edges (the restricted
    edges, possibly loops and parallels) and the contracted vertices."""
    ds = DisjointSets(host.n)
    touched = set()
    merged = [host.edges[i] for i in eprime] + list(host.arcs)
    for a, b in merged:
        ds.union(a, b)
        touched.update((a, b))
    names: dict[int, int] = {}
    for v in range(host.n):
        names.setdefault(ds.find(v), len(names))
    eset = set(eprime)
    q_edges = [
        (names[ds.find(a)], names[ds.find(b)])
        for i, (a, b) in enumerate(host.edges)
        if i not in eset
    ]
    witness = frozenset(names[ds.find(v)] for v in touched)
    return len(names), q_edges, witness


# ---------------------------------------------------------------------------
# Random hosts
# ---------------------------------------------------------------------------


def gnm(rng: random.Random, n: int, m: int) -> Host:
    """Uniform connected simple graph with n vertices and m edges."""
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        edges = rng.sample(pairs, m)
        if is_connected(n, edges):
            return Host(n, tuple(sorted(edges)))


def gnm_by_trees(rng: random.Random, n: int, m: int, lo: int, hi: int) -> Host:
    """G(n, m) drawn until its spanning-tree count lies in [lo, hi].

    A tree search that finds no admissible tree visits every spanning tree,
    so the band pins the cost of a negative query whatever the seed."""
    while True:
        g = gnm(rng, n, m)
        if lo <= spanning_tree_count(n, g.edges) <= hi:
            return g


def random_even_subgraph(rng: random.Random, host: Host, cycles: int) -> frozenset[int]:
    """Symmetric difference of ``cycles`` fundamental cycles of a random
    spanning tree: a non-empty edge set with even degree at every vertex."""
    order = list(range(len(host.edges)))
    while True:
        rng.shuffle(order)
        ds = DisjointSets(host.n)
        tree = [i for i in order if ds.union(*host.edges[i])]
        chords = [i for i in order if i not in set(tree)]
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(host.n)}
        for i in tree:
            a, b = host.edges[i]
            adj[a].append((b, i))
            adj[b].append((a, i))
        even: set[int] = set()
        for c in rng.sample(chords, min(cycles, len(chords))):
            a, b = host.edges[c]
            # tree path from a to b, by parent links of a search from a
            parent = {a: (a, -1)}
            stack = [a]
            while stack:
                u = stack.pop()
                for w, i in adj[u]:
                    if w not in parent:
                        parent[w] = (u, i)
                        stack.append(w)
            cycle = {c}
            v = b
            while v != a:
                v, i = parent[v]
                cycle.add(i)
            even ^= cycle
        if even:
            return frozenset(even)


def random_cycle(rng: random.Random, vertices: list[int], length: int) -> list[tuple[int, int]]:
    ring = rng.sample(vertices, length)
    return [(ring[i], ring[(i + 1) % length]) for i in range(length)]


def degrees(n: int, pairs) -> list[int]:
    deg = [0] * n
    for a, b in pairs:
        deg[a] += 1
        deg[b] += 1
    return deg


def restricted_draw(
    rng: random.Random, n: int, m: int, d: Optional[int] = None, max_quotient: int = 9
) -> tuple[Host, frozenset[int]]:
    """G(n, m) whose unrestricted edges form a random even subgraph (the
    sum of a random half or more of the fundamental cycles), drawn until
    the subdivided quotient has at most ``max_quotient`` edges and a
    sampled spanning tree of the quotient proves the restricted strong
    (or d-stable) query positive."""
    while True:
        host = gnm(rng, n, m)
        beta = m - n + 1
        eprime = random_even_subgraph(rng, host, rng.randint((beta + 1) // 2, beta))
        restriction = frozenset(range(m)) - eprime
        if d is not None and min(degrees(n, host.edges)) <= d:
            continue
        if subdivided_quotient_size(host, restriction) > max_quotient:
            continue
        qn, q_edges, witness = quotient(host, sorted(eprime))
        if d is not None:
            qdeg = degrees(qn, q_edges)
            witness = witness | {v for v in range(qn) if qdeg[v] >= 2 * d + 2}
        if find_admissible_tree_randomly(qn, q_edges, witness, rng) is not None:
            return host, restriction


def antiparallel_draw(rng: random.Random, n: int, m: int) -> Host:
    """G(n, m) with even co-tree rank, drawn until a sampled spanning tree
    with all co-tree components even proves it upper-embeddable."""
    while True:
        host = gnm(rng, n, m)
        if find_admissible_tree_randomly(n, host.edges, frozenset(), rng) is not None:
            return host


def eulerian_draw(rng: random.Random, n: int, cycle_lengths: list[int]) -> Host:
    """Connected union of edge-disjoint random cycles."""
    verts = list(range(n))
    while True:
        seen: set[tuple[int, int]] = set()
        for length in cycle_lengths:
            cyc = {tuple(sorted(e)) for e in random_cycle(rng, verts, length)}
            if cyc & seen:
                break
            seen |= cyc
        else:
            if is_connected(n, seen) and len({v for e in seen for v in e}) == n:
                return Host(n, tuple(sorted(seen)))


def mixed_draw(
    rng: random.Random, n: int, arc_cycle: int, m: int, max_quotient: int = 9
) -> tuple[Host, frozenset[int]]:
    """Mixed host: one directed cycle of arcs plus a G(n, m) on the other
    pairs, whose unrestricted edges form a random even subgraph; drawn
    until the subdivided quotient has at most ``max_quotient`` edges and a
    sampled quotient tree proves the restricted query positive."""
    verts = list(range(n))
    while True:
        arcs = random_cycle(rng, verts, arc_cycle)
        taken = {tuple(sorted(a)) for a in arcs}
        pairs = [p for p in itertools.combinations(verts, 2) if p not in taken]
        edges = rng.sample(pairs, m)
        if not is_connected(n, edges + arcs):
            continue
        und = Host(n, tuple(edges))
        eprime: frozenset[int] = frozenset()
        if is_connected(n, edges):
            beta = m - n + 1
            if beta > 0:
                eprime = random_even_subgraph(rng, und, rng.randint((beta + 1) // 2, beta))
        host = Host(n, tuple(edges), tuple(arcs))
        restriction = frozenset(range(m)) - eprime
        if subdivided_quotient_size(host, restriction) > max_quotient:
            continue
        qn, q_edges, witness = quotient(host, sorted(eprime))
        if find_admissible_tree_randomly(qn, q_edges, witness, rng) is not None:
            return host, restriction


def subdivided_quotient_size(host: Host, restriction: frozenset[int]) -> int:
    """Edges of the quotient by the unrestricted edges and arcs once loops
    (three edges each) and parallel edges (two each) are subdivided: the
    size of the graph the construction hands to its search kernel."""
    eprime = [i for i in range(len(host.edges)) if i not in restriction]
    _, q_edges, _ = quotient(host, eprime)
    multiplicity: dict[tuple[int, int], int] = {}
    for a, b in q_edges:
        key = (min(a, b), max(a, b))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    return sum(
        3 * c if a == b else (2 * c if c > 1 else 1)
        for (a, b), c in multiplicity.items()
    )


def some_admissible_tree(n: int, pairs, witness: frozenset[int]) -> bool:
    """Whether any spanning tree of a small multigraph is admissible,
    checked over every (n-1)-edge subset."""
    for subset in itertools.combinations(range(len(pairs)), n - 1):
        ds = DisjointSets(n)
        if all(ds.union(*pairs[i]) for i in subset) and co_tree_admissible(
            n, pairs, set(subset), witness
        ):
            return True
    return False
