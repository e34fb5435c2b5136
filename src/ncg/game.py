"""Core game model: strategy profiles, exact distances, and per-vertex costs.

Agents 0..n-1 each buy a set of incident edges at a fixed price ``alpha``.
The union of all purchases induces an undirected graph.  An agent's total
cost is ``alpha`` times the number of edges it buys plus the sum of its
graph distances to every other agent.

All arithmetic is exact: ``alpha`` and building costs are ``Fraction``s,
distances are plain ints, and ``math.inf`` marks unreachable pairs (it only
ever enters comparisons and sums that stay ``inf``).
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf

# n is capped so distance sums stay small and exhaustive operations stay sane.
MAX_N = 64


@dataclass(frozen=True, order=True)
class BoughtEdge:
    """One purchase: ``buyer`` pays alpha for the undirected edge {buyer, other}."""

    buyer: int
    other: int

    def endpoints(self) -> tuple[int, int]:
        """The underlying undirected edge as an ordered pair (low, high)."""
        a, b = self.buyer, self.other
        return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class StrategyProfile:
    """Immutable snapshot of every agent's bought edge set.

    The same undirected edge may be bought by both endpoints (it is paid
    twice but traversed once); the same (buyer, other) pair may not repeat.
    Self-loops are rejected outright: they never change any distance.
    """

    n: int
    alpha: Fraction
    edges: tuple[BoughtEdge, ...]
    # Bitmask rows built once from ``edges``: bit u of adj[v] is set iff
    # {v, u} is an edge, bit u of bought[v] iff v bought the edge to u, and
    # bit u of bought_by[v] iff u bought the edge to v.
    adj: tuple[int, ...] = field(init=False, repr=False, compare=False)
    bought: tuple[int, ...] = field(init=False, repr=False, compare=False)
    bought_by: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.alpha, Fraction):
            object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        if self.n < 1:
            raise ValueError("profile needs at least one vertex")
        if self.n > MAX_N:
            raise ValueError(f"n={self.n} exceeds the cap {MAX_N}")
        adj = [0] * self.n
        bought = [0] * self.n
        bought_by = [0] * self.n
        for e in self.edges:
            a, b = e.buyer, e.other
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge {e} references a vertex outside [0, {self.n})")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if bought[a] >> b & 1:
                raise ValueError(f"duplicate bought edge {e}")
            bought[a] |= 1 << b
            bought_by[b] |= 1 << a
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "bought", tuple(bought))
        object.__setattr__(self, "bought_by", tuple(bought_by))

    # -- structure helpers ------------------------------------------------

    def undirected_edges(self) -> tuple[tuple[int, int], ...]:
        """Deduplicated underlying edges, each as (low, high), sorted."""
        return tuple(sorted({e.endpoints() for e in self.edges}))

    def buys(self, a: int, b: int) -> bool:
        """True iff ``a`` bought the edge to ``b``."""
        return self.bought[a] >> b & 1 == 1

    def with_strategy(self, v: int, targets: frozenset[int] | set[int]) -> "StrategyProfile":
        """A new profile where ``v``'s bought edge set is replaced by ``targets``."""
        if v in targets:
            raise ValueError(f"vertex {v} cannot buy an edge to itself")
        kept = [e for e in self.edges if e.buyer != v]
        kept.extend(BoughtEdge(v, u) for u in sorted(targets))
        return StrategyProfile(self.n, self.alpha, tuple(kept))


def profile_hash(profile: StrategyProfile) -> str:
    """Stable digest of (n, alpha, sorted bought edges); ``profile.edges`` is
    sorted on construction."""
    payload = f"{profile.n};{profile.alpha};" + ";".join(
        f"{e.buyer},{e.other}" for e in profile.edges
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# All-pairs unweighted shortest distances, one row per source; ``inf`` for
# separated pairs.
Distances = tuple[tuple[int | float, ...], ...]


@dataclass(frozen=True)
class CostBreakdown:
    """One vertex's cost, split into edge spending and total distance."""

    vertex: int
    building: Fraction
    connection: int | float
    total: Fraction | float


# ---------------------------------------------------------------------------
# bitmask graph kernel: adjacency row v has bit u set iff {v, u} is an edge


def mask_members(mask: int) -> list[int]:
    """The vertices whose bits are set in ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bfs_distances(adj: Sequence[int], source: int, blocked: int = 0) -> list[int | float]:
    """Distances from ``source``; vertices in the ``blocked`` mask are deleted."""
    dist: list[int | float] = [inf] * len(adj)
    if blocked >> source & 1:
        return dist
    dist[source] = 0
    frontier = 1 << source
    seen = frontier | blocked
    d = 0
    while frontier:
        d += 1
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
        f = frontier
        while f:
            low = f & -f
            dist[low.bit_length() - 1] = d
            f ^= low
    return dist


def bfs_sum(adj: Sequence[int], v: int, row: int) -> int | None:
    """v's distance sum when v's neighbours are ``row``; None when v misses a vertex.

    A BFS from v never re-enters v, so the other rows may still list v.
    """
    frontier = row
    seen = row | 1 << v
    total = frontier.bit_count()
    d = 1
    while frontier:
        d += 1
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
        total += d * frontier.bit_count()
    return total if seen == (1 << len(adj)) - 1 else None


def source_levels(adj: Sequence[int], v: int, neighbours: Sequence[Sequence[int]]) -> list[int]:
    """Bit-packed balls in G - v around every vertex t (``neighbours[t]``
    lists t's neighbours in G), entry v equal to 0.

    Bit block ``d`` (bits ``[d*n, (d+1)*n)``) of entry t is the set of
    vertices within distance ``d`` of t, for ``d = 0..n-2``.  Block d + 1 is
    t plus the union of block d over t's neighbours, so each entry starts as
    t in every block and is updated in place until a sweep changes nothing:
    every update keeps each block inside the true ball, and at the fixpoint
    block d equals it, by induction on d.
    """
    n = len(adj)
    full = (1 << (n - 1) * n) - 1
    every = full // ((1 << n) - 1)  # one bit per block
    levels = [0 if t == v else every << t for t in range(n)]
    others = [(t, neighbours[t]) for t in range(n) if t != v]
    while True:
        before = levels[:]
        for t, row in others:
            up = 0
            for u in row:
                up |= levels[u]
            levels[t] |= up << n & full
        if levels == before:
            return levels


def _union(levels: list[int], mask: int) -> int:
    """The ``source_levels`` of the set ``mask``: the union of its members'."""
    x = 0
    for t in mask_members(mask):
        x |= levels[t]
    return x


def _ball_sums(unions: list[int], n: int, v: int) -> list[int | None]:
    """v's distance sums from the ball-level unions of its target sets.

    With P[t] the ``source_levels`` of t in G - v, target set T puts u within
    distance d + 1 of v iff u lies in block d of x = P[base] | OR of P[t]
    over t in T, where base is the rest of row v.  So v's distance sum is
    (n-1)n - popcount(x), or None when the top block misses a vertex.
    """
    total = (n - 1) * n
    # The top block never holds v, so x >= reached iff it holds every other vertex.
    reached = (((1 << n) - 1) ^ (1 << v)) << (max(n - 2, 0) * n)
    return [total - x.bit_count() if x >= reached else None for x in unions]


def row_sums(adj: Sequence[int], v: int, base: int, neighbours=None) -> list[int | None]:
    """v's distance sums when row v is ``base`` plus each target set.

    Position i holds the set whose members are the j-th vertices other than
    v for each bit j of i (its subset index); the unions are built by
    doubling.  ``neighbours`` is as in ``sized_sums``.
    """
    levels = source_levels(adj, v, neighbours or list(map(mask_members, adj)))
    table = [_union(levels, base)]
    for lv in levels[:v] + levels[v + 1:]:
        table += [x | lv for x in table]
    return _ball_sums(table, len(adj), v)


def sized_sums(adj: Sequence[int], v: int, base: int, cap: int, neighbours=None):
    """Yield ``row_sums`` split by target-set size, for sizes 0..cap.

    List k holds the k-sets in subset-index order, which within one size is
    colex order: the k-sets whose largest member is the t-th other vertex
    extend the first comb(t, k - 1) unions of list k - 1, so ``colex_index``
    maps a position back to its subset index.  Only two lists are alive at
    a time.  ``neighbours`` is passed to ``source_levels``, built from
    ``adj`` when None; a cap-0 scan prices its one set by ``bfs_sum``.
    """
    if cap < 0:
        return
    if cap == 0:
        yield [bfs_sum(adj, v, base)]
        return
    n = len(adj)
    levels = source_levels(adj, v, neighbours or list(map(mask_members, adj)))
    layer = [_union(levels, base)]
    yield _ball_sums(layer, n, v)
    del levels[v]
    for k in range(1, cap + 1):
        layer = [x | lv for t, lv in enumerate(levels) for x in layer[: comb(t, k - 1)]]
        yield _ball_sums(layer, n, v)


def colex_index(position: int, k: int) -> int:
    """Subset index of the k-set at ``position`` of its ``sized_sums`` list."""
    index = 0
    for i in range(k, 0, -1):
        c = i - 1
        while comb(c + 1, i) <= position:
            c += 1
        index |= 1 << c
        position -= comb(c, i)
    return index


def all_pairs_distances(profile: StrategyProfile) -> Distances:
    """Exact distances on the underlying undirected graph, one BFS per source.

    Edge ownership is irrelevant for traversal; a bought edge can be walked
    in either direction.
    """
    return tuple(tuple(bfs_distances(profile.adj, s)) for s in range(profile.n))


def vertex_cost(profile: StrategyProfile, dist: Distances, v: int) -> CostBreakdown:
    """Building plus connection cost for ``v``; total is ``inf`` when separated."""
    building = profile.alpha * profile.bought[v].bit_count()
    connection = sum(dist[v])  # dist[v][v] is 0, and one inf term makes the sum inf
    total: Fraction | float = inf if connection == inf else building + connection
    return CostBreakdown(v, building, connection, total)


def is_connected(profile: StrategyProfile) -> bool:
    """True iff every pair of vertices is at finite distance."""
    return bfs_sum(profile.adj, 0, profile.adj[0]) is not None
