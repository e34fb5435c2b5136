"""Shared graph builders and independent brute-force oracles.

The oracle functions deliberately avoid the package's BFS/bitmask paths:
they recompute distances from raw edge pairs so derived expectations stay
independent of the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from ncg import BoughtEdge, StrategyProfile


def profile(n, alpha, pairs) -> StrategyProfile:
    return StrategyProfile(n, Fraction(alpha), tuple(BoughtEdge(a, b) for a, b in pairs))


def path3(alpha=5) -> StrategyProfile:
    return profile(3, alpha, [(0, 1), (1, 2)])


def directed_ring(k, alpha) -> StrategyProfile:
    return profile(k, alpha, [(i, (i + 1) % k) for i in range(k)])


def star(n=4, alpha=9, center_owns=True) -> StrategyProfile:
    pairs = [(0, i) if center_owns else (i, 0) for i in range(1, n)]
    return profile(n, alpha, pairs)


def two_triangles(alpha=1) -> StrategyProfile:
    return profile(5, alpha, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


def ring_with_pendant(alpha=1) -> StrategyProfile:
    """Seven-ring with a two-vertex pendant path hanging off vertex 3."""
    pairs = [(i, (i + 1) % 7) for i in range(7)] + [(3, 7), (7, 8)]
    return profile(9, alpha, pairs)


def figure_gadget(alpha=23) -> StrategyProfile:
    """Eleven-vertex ring exercising the whole edge-class ladder.

    Root 0; a down chain 0->1->2->3->4->5 whose tip buys the level-0 edge
    (5, 6); an up chain 6..10 back to the root.  Expected minimal levels:
    (5,6)=0, (4,5)=1, (3,4)=2, (2,3)=3, (1,2)=4, (0,1)=5; the up-chain edges
    carry no level but live in every + class.
    """
    pairs = [(i, i + 1) for i in range(6)]  # 0->1 ... 5->6, parent buys
    pairs += [(i, i + 1) for i in range(6, 10)]  # 6->7 ... 9->10, child buys
    pairs += [(10, 0)]
    return profile(11, alpha, pairs)


def up_and_out_seller(alpha=21):
    """n=10 triangle {0,1,5}: vertex 1 buys its up-edge and the doubly-bought
    out-edge (1, 5); vertex 5 owns the antiparallel copy."""
    pairs = [(1, 0), (0, 5), (1, 5), (5, 1), (2, 1), (3, 1), (4, 1),
             (0, 6), (0, 7), (0, 8), (0, 9)]
    return profile(10, alpha, pairs)


# ---------------------------------------------------------------------------
# oracles


def oracle_source_distances(n, pairs, s) -> list[int | float]:
    """Distances from ``s`` by a breadth-first search over the edge list."""
    adj = {v: set() for v in range(n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    dist = {s: 0}
    frontier = [s]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return [dist.get(v, inf) for v in range(n)]


def oracle_distances(n, pairs) -> list[list[int | float]]:
    return [oracle_source_distances(n, pairs, s) for s in range(n)]


def oracle_connection(prof: StrategyProfile, v: int) -> int | float:
    pairs = {e.endpoints() for e in prof.edges}
    dist = oracle_source_distances(prof.n, pairs, v)
    if any(dist[u] == inf for u in range(prof.n) if u != v):
        return inf
    return sum(dist[u] for u in range(prof.n) if u != v)


def oracle_cost(prof: StrategyProfile, v: int) -> Fraction | float:
    bought = sum(1 for e in prof.edges if e.buyer == v)
    conn = oracle_connection(prof, v)
    if conn == inf:
        return inf
    return prof.alpha * bought + conn


def oracle_delta(prof: StrategyProfile, v: int, new_targets) -> Fraction | float:
    """Before/after cost difference computed from raw edge lists."""
    before = oracle_cost(prof, v)
    edges = [e for e in prof.edges if e.buyer != v]
    edges += [BoughtEdge(v, t) for t in sorted(new_targets)]
    after = oracle_cost(StrategyProfile(prof.n, prof.alpha, tuple(edges)), v)
    if after == inf:
        return inf
    if before == inf:
        return -inf
    return after - before


def oracle_is_two_connected(vertices, pairs) -> bool:
    """Brute force: connected and still connected after deleting any vertex."""
    vertices = sorted(vertices)
    if len(vertices) < 3:
        return False

    def connected(vs, es):
        vs = list(vs)
        if not vs:
            return True
        adj = {v: set() for v in vs}
        for a, b in es:
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        seen = {vs[0]}
        stack = [vs[0]]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vs)

    if not connected(vertices, pairs):
        return False
    for drop in vertices:
        rest = [v for v in vertices if v != drop]
        kept = [(a, b) for a, b in pairs if a != drop and b != drop]
        if not connected(rest, kept):
            return False
    return True
