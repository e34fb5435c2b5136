"""Structural analysis of a profile's graph.

Extracts the objects the audit layer reasons about: the biconnected
decomposition and its largest piece H, a root r of minimum connection cost
inside H, a shortest path tree T rooted at r with edge orientations and
subtree sizes, the ladder of edge classes built from out-edges (X-levels),
and the smallest cycle through every edge of every block with a cycle.
``build_context`` bundles all of them into one ``StrategyContext``.  Its
graph facts (distances, blocks with H, connection costs, root, cycle report
and girth) depend only on the graph, and a context built on another context
of the same graph shares them; the shortest path tree and edge classes
depend on who bought which edge.  The cycle report is the one source of
cycles and girth.  Each context computes
its min-cycles, its sellable edges and how many vertices hang off each
vertex of H when they are first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import inf
from typing import NamedTuple
from .errors import BudgetExceededError
from .game import (
    Distances,
    StrategyProfile,
    all_pairs_distances,
    bfs_distances,
    is_connected,
    mask_members,
    profile_hash,
)

Edge = tuple[int, int]  # always stored as (low, high)


def _as_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


# ---------------------------------------------------------------------------
# biconnected decomposition


@dataclass(frozen=True)
class BiconnectedDecomposition:
    """Edge-partition of the graph into maximal biconnected pieces.

    ``components`` holds the vertex set of each piece (a bridge is a
    two-vertex piece), most vertices first, ties broken by lexicographically
    smallest sorted vertex list; the first piece is H.
    """

    components: tuple[frozenset[int], ...]
    edge_components: tuple[frozenset[Edge], ...]

    def largest_vertices(self) -> frozenset[int]:
        return self.components[0] if self.components else frozenset()

    def largest_edges(self) -> frozenset[Edge]:
        return self.edge_components[0] if self.edge_components else frozenset()


def _decompose(profile: StrategyProfile) -> BiconnectedDecomposition:
    """``largest_biconnected_component`` of a profile known to be connected:
    an iterative lowpoint DFS over bitmask rows, neighbours in increasing
    order, collects the edge set of every biconnected piece."""
    n, adj = profile.n, profile.adj
    disc = [0] * n  # 0 = unvisited, else discovery time from 1
    low = [0] * n
    timer = 1
    groups: list[list[Edge]] = []
    edge_stack: list[Edge] = []
    for start in range(n):
        if disc[start]:
            continue
        disc[start] = low[start] = timer
        timer += 1
        stack: list[tuple[int, int, int]] = [(start, -1, adj[start])]  # (vertex, parent, unread)
        while stack:
            v, parent, rest = stack[-1]
            if rest:
                low_bit = rest & -rest
                stack[-1] = (v, parent, rest ^ low_bit)
                w = low_bit.bit_length() - 1
                if w == parent:
                    continue
                if not disc[w]:
                    edge_stack.append(_as_edge(v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, adj[w]))
                elif disc[w] < disc[v]:  # back edge
                    edge_stack.append(_as_edge(v, w))
                    low[v] = min(low[v], disc[w])
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                group = []
                closing = _as_edge(u, v)
                while True:
                    e = edge_stack.pop()
                    group.append(e)
                    if e == closing:
                        break
                groups.append(group)
    packed = []
    for group in groups:
        vertices = frozenset(v for e in group for v in e)
        packed.append((vertices, frozenset(group)))
    packed.sort(key=lambda item: (-len(item[0]), sorted(item[0])))
    components = tuple(v for v, _ in packed)
    edge_components = tuple(e for _, e in packed)
    return BiconnectedDecomposition(components, edge_components)


def largest_biconnected_component(profile: StrategyProfile) -> BiconnectedDecomposition:
    """Decompose the underlying graph; requires a connected profile."""
    if not is_connected(profile):
        raise ValueError("biconnected decomposition requires a connected profile")
    return _decompose(profile)


def choose_root(profile: StrategyProfile, dist: Distances, h_vertices) -> int:
    """Vertex of minimum connection cost inside H; ties go to the smallest id."""
    if not h_vertices:
        raise ValueError("cannot choose a root in an empty component")
    return min(h_vertices, key=lambda v: (sum(dist[v]), v))


# ---------------------------------------------------------------------------
# shortest path tree


@dataclass(frozen=True)
class SptAnalysis:
    """Shortest path tree from ``root``: parents, depths, subtree masks and
    down-edges.

    ``subtree[v]`` is the bitmask of v's subtree.  A tree edge is *down* iff
    its parent endpoint bought it, and bit v of ``down`` is set iff v's
    parent bought the edge to v; a directed root-to-vertex shortest path is
    one whose every edge is down.  Parent choice prefers a down-buying
    neighbour that is itself reached from the root by an all-down path;
    ties (possible only away from equilibrium) go to the smallest id.
    """

    root: int
    parent: tuple[int | None, ...]
    depth: tuple[int, ...]
    subtree: tuple[int, ...]
    down: int

    @cached_property
    def subtree_size(self) -> tuple[int, ...]:
        """|T(v)| for every v: the popcount of its subtree mask."""
        return tuple(mask.bit_count() for mask in self.subtree)

    @cached_property
    def path_sizes(self) -> tuple[tuple[int, ...], ...]:
        """|T(w)| for w along each vertex's ``path_to_root``, from the vertex
        up: one pass down the tree, cached on first read."""
        size = self.subtree_size
        out: list[tuple[int, ...]] = [()] * len(self.parent)
        for v in sorted(range(len(self.parent)), key=self.depth.__getitem__):
            p = self.parent[v]
            out[v] = (size[v],) if p is None else (size[v], *out[p])
        return tuple(out)

    def is_tree_edge(self, a: int, b: int) -> bool:
        """Is {a, b} an edge of the tree?"""
        return self.parent[b] == a or self.parent[a] == b

    def down_child(self, a: int, b: int) -> int | None:
        """The child endpoint of {a, b} when it is a down-edge, else None."""
        if self.parent[b] == a and self.down >> b & 1:
            return b
        if self.parent[a] == b and self.down >> a & 1:
            return a
        return None

    def path_to_root(self, v: int) -> list[int]:
        """Tree path [v, parent(v), ..., root]."""
        path = [v]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path


def build_spt(profile: StrategyProfile, dist: Distances, root: int) -> SptAnalysis:
    """BFS shortest path tree from ``root`` under the directed-path parent rule."""
    n = profile.n
    depth = dist[root]
    if inf in depth:
        raise ValueError("shortest path tree requires a connected profile")
    shells = [0] * n  # shells[d]: the vertices at depth d
    for v, d in enumerate(depth):
        shells[d] |= 1 << v
    buyers = profile.bought_by
    parent: list[int | None] = [None] * n
    reachable = 1 << root  # vertices the root reaches by an all-down path
    down = 0

    order = sorted(range(n), key=depth.__getitem__)  # by depth, then id
    for v in order[1:]:  # order[0] is the root
        level_up = profile.adj[v] & shells[depth[v] - 1]
        directed = level_up & buyers[v] & reachable
        candidates = directed or level_up
        p = (candidates & -candidates).bit_length() - 1  # the smallest id
        parent[v] = p
        if buyers[v] >> p & 1:
            down |= 1 << v
            reachable |= (reachable >> p & 1) << v

    subtree = [1 << v for v in range(n)]
    for v in reversed(order[1:]):  # deepest first: a subtree is whole before it joins
        subtree[parent[v]] |= subtree[v]
    assert subtree[root] == (1 << n) - 1

    return SptAnalysis(
        root=root, parent=tuple(parent), depth=tuple(depth), subtree=tuple(subtree), down=down
    )


def edge_subtree(spt: SptAnalysis, a: int, b: int) -> int:
    """Mask of the subtree a pair carries: T(child) for a down-edge, else 0."""
    child = spt.down_child(a, b)
    return 0 if child is None else spt.subtree[child]


# ---------------------------------------------------------------------------
# X-set edge classes


@dataclass(frozen=True)
class EdgeClass:
    """Level assignment of an H-edge in the out-edge ladder.

    Level 0 edges lie in H outside T.  A down-edge gets level i when its
    child buys an edge of level i-1; the stored level is minimal.  Up-edges
    and down-edges whose child buys no levelled edge have no level.
    """

    edge: Edge
    level: int | None


def classify_x_sets(
    profile: StrategyProfile, spt: SptAnalysis, decomposition: BiconnectedDecomposition
) -> list[EdgeClass]:
    """Minimal X-levels for every edge of H; empty when H has no cycle.

    One pass over H's down-edges, deepest child first: a child buys only
    out-edges, its up-edge and down-edges to deeper vertices.
    """
    h_vertices = decomposition.largest_vertices()
    h_edges = decomposition.largest_edges()
    if len(h_vertices) < 3:
        return []

    level = {e: 0 for e in h_edges if not spt.is_tree_edge(*e)}  # out-edges
    for c in sorted(h_vertices, key=spt.depth.__getitem__, reverse=True):
        p = spt.parent[c]
        if spt.down >> c & 1 and _as_edge(p, c) in h_edges:
            bought = mask_members(profile.bought[c])
            least = min((level.get(_as_edge(c, t), inf) for t in bought), default=inf)
            if least < inf:
                level[_as_edge(p, c)] = 1 + least

    return [EdgeClass(edge=e, level=level.get(e)) for e in sorted(h_edges)]


# ---------------------------------------------------------------------------
# cycles


@dataclass(frozen=True)
class CycleReport:
    """Smallest cycles of the graph: one per edge of every block with a
    cycle, by edge, and one per vertex of H among those through its H edges.

    Every per-edge cycle is checked to realise all pairwise graph distances
    between its vertices (the min-cycle property), once per distinct cycle;
    ``canonical`` holds their canonical forms, the cycles checked.
    """

    per_vertex_cycle: dict[int, tuple[int, ...]]
    per_edge_cycle: dict[Edge, tuple[int, ...]]
    canonical: frozenset[tuple[int, ...]] = field(default=frozenset(), compare=False, repr=False)

    @cached_property
    def girth(self) -> int | float:
        """Length of the shortest cycle in the graph; inf when acyclic."""
        return min(map(len, self.per_edge_cycle.values()), default=inf)


def smallest_cycle_through_edge(profile: StrategyProfile, a: int, b: int) -> tuple[int, ...] | None:
    """Lexicographically smallest among the shortest cycles using edge {a, b}.

    Returned as a vertex sequence starting at ``a`` and ending at ``b`` (the
    closing edge is b-a); None when the edge lies on no cycle.
    """
    cut = list(profile.adj)
    cut[a] &= ~(1 << b)
    cut[b] &= ~(1 << a)
    dist = bfs_distances(cut, b)
    if dist[a] == inf:
        return None
    # Greedy min-id descent gives the lexicographically smallest shortest path.
    path = [a]
    while path[-1] != b:
        v = path[-1]
        rest = cut[v]
        w = (rest & -rest).bit_length() - 1
        while dist[w] != dist[v] - 1:
            rest ^= 1 << w
            w = (rest & -rest).bit_length() - 1
        path.append(w)
    return tuple(path)


def _ring_cycles(edges) -> dict[Edge, tuple[int, ...]]:
    """``smallest_cycle_through_edge`` of every edge of a block that is one
    chordless cycle, taken off one walk of the ring.

    A block with as many edges as vertices is such a ring, and the ring is
    the only cycle through any of its edges: for edge (a, b) it runs from a,
    away from b, and ends at b.
    """
    ends: dict[int, list[int]] = {}
    for a, b in edges:
        ends.setdefault(a, []).append(b)
        ends.setdefault(b, []).append(a)
    ring = [min(ends)]
    v = ends[ring[0]][0]
    while v != ring[0]:
        x, y = ends[v]
        ring.append(v)
        v = y if x == ring[-2] else x
    cycles = {}
    for i, (v, w) in enumerate(zip(ring, ring[1:] + ring[:1])):
        if v < w:  # from v back around to w
            cycles[v, w] = tuple(ring[i::-1] + ring[:i:-1])
        else:  # from w on around to v
            cycles[w, v] = tuple(ring[i + 1:] + ring[:i + 1])
    return cycles


def canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Rotation/reflection-invariant form: start at min vertex, smaller direction."""
    i = cycle.index(min(cycle))
    fwd = cycle[i:] + cycle[:i]
    return min(fwd, fwd[:1] + fwd[:0:-1])


def is_min_cycle(cycle: tuple[int, ...], dist: Distances) -> bool:
    """True iff the cycle realises the graph distance between all its pairs."""
    k = len(cycle)
    along = [min(d, k - d) for d in range(k)]  # around-the-cycle distance of offset d
    for i, v in enumerate(cycle):
        row = dist[v]
        if [row[w] for w in cycle[i + 1:]] != along[1:k - i]:
            return False
    return True


def cycle_directed(profile: StrategyProfile, cycle: tuple[int, ...]) -> bool:
    """True iff every cycle vertex buys exactly one of its two cycle edges."""
    k = len(cycle)
    for i, v in enumerate(cycle):
        before = cycle[(i - 1) % k]
        after = cycle[(i + 1) % k]
        bought = int(profile.buys(v, before)) + int(profile.buys(v, after))
        if bought != 1:
            return False
    return True


def cycle_report(
    profile: StrategyProfile, decomposition: BiconnectedDecomposition, dist: Distances
) -> CycleReport:
    """Smallest-cycle survey of every block with a cycle, edges in sorted order.

    A cycle lies inside one block and a bridge lies on none, so only blocks
    of at least three vertices are searched: a ring block is read off one
    walk (``_ring_cycles``) and canonicalised and min-checked once, any other
    is searched edge by edge.  Only H's edges feed ``per_vertex_cycle``.
    """
    blocks = zip(decomposition.components, decomposition.edge_components)
    cyclic = [(vertices, edges) for vertices, edges in blocks if len(vertices) >= 3]
    if not cyclic:
        return CycleReport({}, {})
    h_edges = decomposition.largest_edges()
    rings: dict[Edge, tuple[tuple[int, ...], tuple[int, ...]]] = {}  # edge -> (cycle, canonical)
    checked: set[tuple[int, ...]] = set()
    for vertices, edges in cyclic:
        if len(edges) == len(vertices):  # every edge of a ring returns the ring
            cycles = _ring_cycles(edges)
            first = min(cycles)
            canon = canonical_cycle(cycles[first])
            if not is_min_cycle(cycles[first], dist):
                raise AssertionError(
                    f"smallest cycle through {first} is not a min-cycle: {cycles[first]}"
                )
            checked.add(canon)
            for e, cyc in cycles.items():
                rings[e] = cyc, canon

    per_edge: dict[Edge, tuple[int, ...]] = {}
    best: dict[int, tuple[int, tuple[int, ...]]] = {}  # H vertex -> (length, canonical cycle)
    for e in sorted(e for _, edges in cyclic for e in edges):
        if e in rings:
            cyc, canon = rings[e]
        else:
            cyc = smallest_cycle_through_edge(profile, e[0], e[1])
            canon = canonical_cycle(cyc)
            if canon not in checked:
                if not is_min_cycle(cyc, dist):
                    raise AssertionError(f"smallest cycle through {e} is not a min-cycle: {cyc}")
                checked.add(canon)
        per_edge[e] = cyc
        if e in h_edges:
            key = (len(cyc), canon)
            for v in e:
                if v not in best or key < best[v]:
                    best[v] = key

    return CycleReport({v: best[v][1] for v in sorted(best)}, per_edge, frozenset(checked))


def global_girth(profile: StrategyProfile) -> int | float:
    """Length of the shortest cycle anywhere in the graph; inf when acyclic.

    One search per edge, bridges included.  ``build_context`` takes the girth
    from the cycle report instead, which searches no bridge; this is its
    reference.
    """
    best: int | float = inf
    for a, b in profile.undirected_edges():
        cyc = smallest_cycle_through_edge(profile, a, b)
        if cyc is not None:
            best = min(best, len(cyc))
    return best


def all_simple_cycles(profile: StrategyProfile, limit: int = 100_000) -> list[tuple[int, ...]]:
    """Every simple cycle (length >= 3), canonicalised; budget-guarded.

    Walks only the 2-core: vertices peeled off by repeatedly deleting those
    of degree below 2 lie on no cycle, so no path enters a tree hanging off
    a cycle.  Enumerates cycles by their minimum vertex: paths out of ``s``
    through larger core vertices only, emitted when they close back to ``s``
    with the second vertex smaller than the last, which is the canonical
    orientation.  A step is one neighbour read; the budget is checked once
    per row read, which exceeds it exactly when some single step would.
    Paths extend in increasing neighbour order.
    """
    adj = profile.adj
    every = (1 << profile.n) - 1
    core = every
    while thin := sum(1 << v for v in mask_members(core) if (adj[v] & core).bit_count() < 2):
        core ^= thin
    peeled = every ^ core
    cycles: list[tuple[int, ...]] = []
    steps = 0
    for s in mask_members(core):
        # (path, mask of the path, every vertex below s and the peeled ones):
        # the vertices it may not enter
        stack: list[tuple[tuple[int, ...], int]] = [((s,), (2 << s) - 1 | peeled)]
        while stack:
            path, used = stack.pop()
            row = adj[path[-1]]
            steps += row.bit_count()
            if steps > limit:
                raise BudgetExceededError(
                    f"cycle enumeration exceeded {limit} steps", required=limit + 1
                )
            if row >> s & 1 and len(path) >= 3 and path[1] < path[-1]:
                cycles.append(path)
            ahead = row & ~used
            while ahead:
                low = ahead & -ahead
                stack.append((path + (low.bit_length() - 1,), used | low))
                ahead ^= low
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def min_cycles(
    profile: StrategyProfile, dist: Distances, cycles: CycleReport
) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """(coverage, every min-cycle of the graph): "exhaustive" over
    ``all_simple_cycles``, or, past its budget, "smallest-per-edge-only": the
    cycle report's distinct per-edge cycles.  Either way each cycle is in
    canonical form, by length, then vertices.  Cycles the report already
    checked are not checked again.

    A graph whose only cyclic block is a ring has that ring as its one cycle,
    and the report holds it, checked, so it is not enumerated.  The graph is
    unicyclic, m = n: the enumeration would walk only the ring, reading each
    row at most twice per start vertex, at most 4n^2 row bits in all, 16,384
    at ``MAX_N`` = 64, so its coverage would be "exhaustive" too.
    """
    if len(cycles.canonical) == 1:
        return "exhaustive", tuple(cycles.canonical)
    try:
        found = all_simple_cycles(profile)
    except BudgetExceededError:
        return "smallest-per-edge-only", tuple(sorted(cycles.canonical, key=lambda c: (len(c), c)))
    return "exhaustive", tuple(c for c in found if c in cycles.canonical or is_min_cycle(c, dist))


# ---------------------------------------------------------------------------
# the full structural bundle


class LadderEdge(NamedTuple):
    """One edge a vertex may sell: its other endpoint, the edge, its minimal
    level (None for the seller's up-edge, or for a sold edge without one) and
    the mask of the subtree it carries (``edge_subtree``)."""

    target: int
    edge: Edge
    level: int | None
    subtree: int


# The paper's strategies: kind -> (sells the seller's up-edge, buys the edge
# to the root).  Strategy 3 sells from X_2^+, X_2 plus the up-edge.
STRATEGY_SWITCHES = {
    "strategy1": (False, False),
    "strategy2": (False, True),
    "strategy3": (True, True),
}


@dataclass(frozen=True)
class StrategyContext:
    """Everything the audits read: distances, H, the rooted tree, classes, cycles.

    ``connections`` holds every vertex's connection cost; when it is not
    given it is summed from ``dist``.
    """

    profile: StrategyProfile
    dist: Distances
    decomposition: BiconnectedDecomposition
    h_vertices: frozenset[int]
    h_edges: frozenset[Edge]
    root: int
    spt: SptAnalysis
    x_classes: dict[Edge, EdgeClass]
    cycles: CycleReport
    girth: int | float
    connections: tuple[int | float, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.connections is None:
            object.__setattr__(self, "connections", tuple(map(sum, self.dist)))

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def alpha(self) -> Fraction:
        return self.profile.alpha

    @property
    def has_cyclic_h(self) -> bool:
        return len(self.h_vertices) >= 3

    @cached_property
    def in_regime(self) -> bool:
        """The paper's regime: a cyclic core, alpha > 2n and girth at least 7."""
        return self.has_cyclic_h and self.alpha > 2 * self.n and self.girth >= 7

    @cached_property
    def profile_hash(self) -> str:
        """``profile_hash(profile)``, hashed once per context."""
        return profile_hash(self.profile)

    @cached_property
    def h_neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours along edges of H in increasing order: an
        edge between two vertices of a block lies in it, so a vertex of H has
        its adjacency row masked to H, and any other vertex none."""
        h = sum(1 << v for v in self.h_vertices)
        return tuple(
            tuple(mask_members(row & h)) if h >> v & 1 else ()
            for v, row in enumerate(self.profile.adj)
        )

    @cached_property
    def min_cycles(self) -> tuple[str, tuple[tuple[int, ...], ...]]:
        """``min_cycles`` of the graph, computed on the first read."""
        return min_cycles(self.profile, self.dist, self.cycles)

    def x_level(self, edge: Edge) -> int | None:
        cls = self.x_classes.get(_as_edge(*edge))
        return cls.level if cls else None

    def deg_h(self, v: int) -> int:
        return len(self.h_neighbours[v])

    def is_low_level(self, v: int, t: int, include_up: bool) -> bool:
        """Is {v, t} a low-level edge for v: minimal level <= 2, or, with
        ``include_up``, v's up-edge (the tree edge to v's parent that the
        parent did not buy)?"""
        level = self.x_level((v, t))
        if level is not None and level <= 2:
            return True
        return include_up and t == self.spt.parent[v] and self.spt.down_child(v, t) is None

    @cached_property
    def low_ladder(self) -> tuple[tuple[LadderEdge, ...], ...]:
        """Each vertex's sellable ladder edges, by target: every H-edge it
        bought that ``is_low_level`` for it with ``include_up``, so its edges
        of minimal level <= 2 and its up-edge, with level None and an empty
        subtree.  What the paper's strategies sell and the observations
        about them read; empty when H has no cycle."""
        out: list[list[LadderEdge]] = [[] for _ in range(self.n)]
        for edge, cls in self.x_classes.items():
            for u, t in (edge, edge[::-1]):
                if self.profile.buys(u, t) and self.is_low_level(u, t, include_up=True):
                    out[u].append(LadderEdge(t, edge, cls.level, edge_subtree(self.spt, u, t)))
        return tuple(tuple(sorted(row)) for row in out)

    @cached_property
    def ladder_purchases(self) -> tuple[tuple[Edge, int, int], ...]:
        """(edge, buyer, level) of every ``low_ladder`` edge with a level, by
        edge, then buyer."""
        return tuple(sorted(
            (e.edge, u, e.level) for u, row in enumerate(self.low_ladder) for e in row
            if e.level is not None
        ))

    @cached_property
    def h_attachment(self) -> tuple[int, ...]:
        """For each vertex of H, how many vertices outside H enter H at it;
        0 elsewhere: those a BFS from it reaches with the rest of H deleted.

        H is a block, so all paths from a vertex outside H enter H at the
        same vertex.  Every shortest route from them to H - {v} passes v, and
        from any other vertex outside H none does: 1 + ``h_attachment[v]`` is
        the size of v's shortest-path funnel relative to H - {v}.
        """
        h = sum(1 << v for v in self.h_vertices)
        counts = [0] * self.n
        for v in self.h_vertices:
            counts[v] = self.n - bfs_distances(self.profile.adj, v, h ^ 1 << v).count(inf) - 1
        return tuple(counts)

    def sell_sets(self, u: int, kind: str, most: int | None = None):
        """Sold-target tuples of u under the paper's "strategy1".."strategy3",
        by size up to ``most``: u's bought edges of minimal level <= 2, and
        for strategy3 u's up-edge.  Only a non-root vertex of a cyclic H sells.
        """
        if not self.has_cyclic_h or u == self.root or u not in self.h_vertices:
            return
        sells_up, _ = STRATEGY_SWITCHES[kind]
        targets = [e.target for e in self.low_ladder[u] if sells_up or e.level is not None]
        largest = len(targets) if most is None else min(most, len(targets))
        for size in range(1, largest + 1):
            yield from combinations(targets, size)

    def rewrite(self, u: int, kind: str, sold) -> int:
        """u's target mask after selling ``sold``; strategies 2 and 3 also buy
        the edge to the root, unless u is the root."""
        new = self.profile.bought[u]
        for t in sold:
            new &= ~(1 << t)
        if STRATEGY_SWITCHES[kind][1] and u != self.root:
            new |= 1 << self.root
        return new


def build_context(
    profile: StrategyProfile, graph: StrategyContext | None = None, root: int | None = None
) -> StrategyContext:
    """Compute the full structural bundle for a connected profile.

    ``graph`` is a context of a profile with the same ``adj``: its distances,
    blocks, connection costs and cycle report are reused, and its root is the
    default.  Without one they are computed from ``profile`` and the root
    defaults to ``choose_root``.
    """
    if graph is None:
        if not is_connected(profile):
            raise ValueError("audit context requires a connected profile")
        dist = all_pairs_distances(profile)
        decomposition = _decompose(profile)
        connections = tuple(map(sum, dist))  # every vertex's connection cost
        cycles = cycle_report(profile, decomposition, dist)
    elif graph.profile.adj != profile.adj:
        raise ValueError("context of a different graph")
    else:
        dist, decomposition = graph.dist, graph.decomposition
        connections, cycles = graph.connections, graph.cycles
        root = graph.root if root is None else root
    h_vertices = decomposition.largest_vertices()
    if root is None:
        root = choose_root(profile, dist, h_vertices) if h_vertices else 0
    spt = build_spt(profile, dist, root)
    x_classes = {
        c.edge: c for c in classify_x_sets(profile, spt, decomposition)
    }
    return StrategyContext(
        profile=profile,
        dist=dist,
        decomposition=decomposition,
        h_vertices=h_vertices,
        h_edges=decomposition.largest_edges(),
        root=root,
        spt=spt,
        x_classes=x_classes,
        cycles=cycles,
        girth=cycles.girth,
        connections=connections,
    )
