"""Hypothesis strategies for random strategy profiles."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from ncg import BoughtEdge, StrategyProfile, is_connected


@st.composite
def profiles(draw, min_n=2, max_n=9, alpha=None):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for u, v in pairs:
        trit = draw(st.integers(0, 2))
        if trit == 1:
            edges.append(BoughtEdge(u, v))
        elif trit == 2:
            edges.append(BoughtEdge(v, u))
    if alpha is None:
        alpha = Fraction(draw(st.integers(1, 120)), draw(st.integers(1, 4)))
    return StrategyProfile(n, Fraction(alpha), tuple(edges))


def connected_profiles(min_n=2, max_n=9, alpha=None):
    return profiles(min_n=min_n, max_n=max_n, alpha=alpha).filter(is_connected)


@st.composite
def sparse_connected_profiles(draw, min_n=2, max_n=8):
    """A random spanning tree plus a few chords, each edge with a random buyer."""
    n = draw(st.integers(min_n, max_n))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] < t[1])
    pairs |= set(draw(st.lists(chords, max_size=n)))
    edges = [BoughtEdge(u, v) if draw(st.booleans()) else BoughtEdge(v, u) for u, v in sorted(pairs)]
    alpha = Fraction(draw(st.integers(1, 120)), draw(st.integers(1, 4)))
    return StrategyProfile(n, alpha, tuple(edges))


@st.composite
def glued_profiles(draw, parts=3, max_n=5):
    """Connected profiles glued in a chain, each at a shared cut vertex or by
    a bridge: several blocks, often several with a cycle."""
    p = draw(connected_profiles(min_n=3, max_n=max_n))
    n, edges = p.n, list(p.edges)
    for _ in range(draw(st.integers(1, parts - 1))):
        q = draw(connected_profiles(min_n=3, max_n=max_n))
        anchor = draw(st.integers(0, n - 1))
        if draw(st.booleans()):  # q's vertex 0 is the anchor
            label = [anchor] + list(range(n, n + q.n - 1))
            n += q.n - 1
        else:  # a bridge from the anchor to q's vertex 0
            label = list(range(n, n + q.n))
            edges.append(BoughtEdge(anchor, n) if draw(st.booleans()) else BoughtEdge(n, anchor))
            n += q.n
        edges += [BoughtEdge(label[e.buyer], label[e.other]) for e in q.edges]
    return StrategyProfile(n, p.alpha, tuple(edges))


@st.composite
def disconnected_profiles(draw, max_n=9):
    """Two ``profiles`` side by side under a random relabelling: never connected."""
    a = draw(profiles(min_n=1, max_n=max_n - 1))
    b = draw(profiles(min_n=1, max_n=max_n - a.n))
    label = draw(st.permutations(range(a.n + b.n)))
    edges = [(e.buyer, e.other) for e in a.edges]
    edges += [(e.buyer + a.n, e.other + a.n) for e in b.edges]
    relabelled = tuple(BoughtEdge(label[x], label[y]) for x, y in edges)
    return StrategyProfile(a.n + b.n, a.alpha, relabelled)


@st.composite
def doubled_profiles(draw, min_n=1, max_n=9):
    """``profiles`` in which some edges are also bought by their other endpoint."""
    p = draw(profiles(min_n=min_n, max_n=max_n))
    back = [BoughtEdge(e.other, e.buyer) for e in p.edges if draw(st.booleans())]
    return StrategyProfile(p.n, p.alpha, p.edges + tuple(back))


@st.composite
def regime_profiles(draw, max_ring=12, max_extra=8):
    """The paper's regime: a ring of at least 7 vertices with random trees
    hanging off it and, on a ring of 12 or more, maybe one chord that keeps
    the girth at 7 or more; each edge bought by one end or by both, and alpha
    above 2n."""
    ring = draw(st.integers(7, max_ring))
    n = ring + draw(st.integers(0, max_extra))
    pairs = [(i, (i + 1) % ring) for i in range(ring)]
    pairs += [(draw(st.integers(0, v - 1)), v) for v in range(ring, n)]
    if ring >= 12 and draw(st.booleans()):
        a = draw(st.integers(0, ring - 1))
        pairs.append((a, (a + draw(st.integers(6, ring - 6))) % ring))
    edges = []
    for u, v in pairs:
        owners = draw(st.sampled_from([(u,), (v,), (u, v)]))
        edges += [BoughtEdge(w, u + v - w) for w in owners]
    alpha = Fraction(draw(st.integers(4 * n + 1, 8 * n)), 2)
    return StrategyProfile(n, alpha, tuple(edges))
