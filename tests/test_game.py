"""Core model: distances, connection and vertex costs, validation."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadgets import oracle_connection, oracle_distances, path3, profile, star
from oracle import oracle_buys, oracle_rows, oracle_targets
from strategies import connected_profiles, doubled_profiles, profiles, sparse_connected_profiles

from ncg import (
    BoughtEdge,
    StrategyProfile,
    all_pairs_distances,
    is_connected,
    vertex_cost,
)
from ncg.game import bfs_distances, bfs_sum, mask_members, source_levels


def assert_metric(d):
    """The defining invariants of a distance matrix, O(n^3)."""
    n = len(d)
    for v in range(n):
        assert d[v][v] == 0
        for u in range(n):
            assert d[v][u] == d[u][v]
            for w in range(n):
                assert d[v][w] <= d[v][u] + d[u][w]


def test_distances_on_path():
    d = all_pairs_distances(path3())
    assert d[0][2] == 2
    assert d[0][1] == 1
    assert d[2][0] == 2


def test_distances_single_vertex():
    d = all_pairs_distances(profile(1, 1, []))
    assert d == ((0,),)


def test_distances_disconnected_pair():
    d = all_pairs_distances(profile(3, 1, [(0, 1)]))
    assert d[0][2] == inf
    assert d[1][2] == inf


def test_connection_cost_examples():
    p = path3()
    d = all_pairs_distances(p)
    assert vertex_cost(p, d, 1).connection == 2
    assert vertex_cost(p, d, 0).connection == 3
    assert vertex_cost(star(4), all_pairs_distances(star(4)), 0).connection == 3


def test_vertex_cost_path_buyer():
    p = path3(alpha=5)
    d = all_pairs_distances(p)
    c0 = vertex_cost(p, d, 0)
    assert (c0.building, c0.connection, c0.total) == (Fraction(5), 3, Fraction(8))
    c2 = vertex_cost(p, d, 2)
    assert (c2.building, c2.connection, c2.total) == (Fraction(0), 3, Fraction(3))


def test_vertex_cost_isolated_is_infinite():
    p = profile(2, 5, [])
    c = vertex_cost(p, all_pairs_distances(p), 0)
    assert c.total == inf
    assert c.connection == inf


def test_is_connected_examples():
    assert is_connected(path3())
    assert not is_connected(profile(3, 1, [(0, 1)]))
    assert is_connected(profile(1, 1, []))


def test_vertex_cost_exact_fractions():
    p = profile(3, Fraction(21, 2), [(0, 1), (1, 2)])
    c = vertex_cost(p, all_pairs_distances(p), 1)
    assert c.total == Fraction(21, 2) + 2
    assert isinstance(c.total, Fraction)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        profile(3, 1, [(1, 1)])


def test_rejects_duplicate_bought_edge():
    with pytest.raises(ValueError, match="duplicate"):
        StrategyProfile(3, Fraction(1), (BoughtEdge(0, 1), BoughtEdge(0, 1)))


def test_double_bought_edge_is_legal_and_traversed_once():
    p = StrategyProfile(2, Fraction(3), (BoughtEdge(0, 1), BoughtEdge(1, 0)))
    assert p.undirected_edges() == ((0, 1),)
    d = all_pairs_distances(p)
    assert d[0][1] == 1
    assert vertex_cost(p, d, 0).building == Fraction(3)
    assert vertex_cost(p, d, 1).building == Fraction(3)


def test_vertex_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        StrategyProfile(65, Fraction(1), ())


@given(profiles(max_n=8))
@settings(max_examples=60, deadline=None)
def test_distances_match_oracle_and_invariants(p):
    d = all_pairs_distances(p)
    expected = oracle_distances(p.n, {e.endpoints() for e in p.edges})
    assert [list(row) for row in d] == expected
    assert_metric(d)
    assert is_connected(p) == (inf not in expected[0])


@given(profiles(max_n=8))
@settings(max_examples=60, deadline=None)
def test_bfs_distances_with_blocked_vertex_match_oracle(p):
    pairs = {e.endpoints() for e in p.edges}
    adj = p.adj
    for x in range(p.n):
        expected = oracle_distances(p.n, {e for e in pairs if x not in e})
        assert bfs_distances(adj, x, blocked=1 << x) == [inf] * p.n
        for s in range(p.n):
            if s != x:
                assert bfs_distances(adj, s, blocked=1 << x) == expected[s]


@example(profile(1, 1, []), 0)
@example(profile(2, 1, []), 0)
@example(profile(2, 1, [(1, 0)]), 0)
@example(star(6), 0b111110)  # deleting the centre leaves five isolated leaves
@example(profile(7, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]), 0b1000001)  # 6 isolated
@given(st.one_of(profiles(min_n=1, max_n=8), sparse_connected_profiles()), st.integers(0, 255))
@settings(max_examples=80, deadline=None)
def test_source_levels_match_bfs_distances(p, sources):
    # every vertex's balls in G - v, for every v, against a BFS with v
    # deleted; a set's levels are the union of its members'
    n = p.n
    neighbours = [mask_members(row) for row in p.adj]
    for v in range(n):
        levels = source_levels(p.adj, v, neighbours)
        assert len(levels) == n and levels[v] == 0
        members = [t for t in mask_members(sources & ((1 << n) - 1)) if t != v]
        union = 0
        for t in members:
            union |= levels[t]
        rows = [bfs_distances(p.adj, t, 1 << v) for t in members]
        near = [min((row[u] for row in rows), default=inf) for u in range(n)]
        for t, x in [(t, levels[t]) for t in range(n) if t != v] + [(None, union)]:
            dist = near if t is None else bfs_distances(p.adj, t, 1 << v)
            assert x >> (n * max(n - 1, 0)) == 0
            for d in range(n - 1):
                ball = sum(1 << u for u in range(n) if dist[u] <= d)
                assert x >> (d * n) & ((1 << n) - 1) == ball, (v, t, d)


@given(st.one_of(profiles(min_n=1, max_n=8), sparse_connected_profiles()), st.data())
@settings(max_examples=80, deadline=None)
def test_bfs_sum_prices_a_rewritten_row(p, data):
    # The rows of p may still list edges at v that ``row`` drops.
    v = data.draw(st.integers(0, p.n - 1), label="v")
    row = data.draw(st.integers(0, (1 << p.n) - 1), label="row") & ~(1 << v)
    pairs = {e.endpoints() for e in p.edges if v not in e.endpoints()}
    pairs |= {(min(u, v), max(u, v)) for u in mask_members(row)}
    dist = oracle_distances(p.n, pairs)[v]
    assert bfs_sum(p.adj, v, row) == (None if inf in dist else sum(dist))


@given(profiles(max_n=8).filter(lambda p: len(p.edges) > 0))
@settings(max_examples=60, deadline=None)
def test_bfs_distances_with_cleared_edge_match_oracle(p):
    pairs = {e.endpoints() for e in p.edges}
    for a, b in pairs:
        cut = list(p.adj)
        cut[a] &= ~(1 << b)
        cut[b] &= ~(1 << a)
        expected = oracle_distances(p.n, pairs - {(a, b)})
        assert [bfs_distances(cut, s) for s in range(p.n)] == expected


@given(connected_profiles(max_n=8))
@settings(max_examples=50, deadline=None)
def test_connection_cost_double_counting_identity(p):
    d = all_pairs_distances(p)
    total = sum(vertex_cost(p, d, v).connection for v in range(p.n))
    pair_sum = sum(d[u][v] for u in range(p.n) for v in range(u + 1, p.n))
    assert total == 2 * pair_sum


@given(profiles(max_n=8).filter(lambda p: len(p.edges) > 0))
@settings(max_examples=50, deadline=None)
def test_removing_an_edge_never_shortens_distances(p):
    before = all_pairs_distances(p)
    dropped = p.edges[len(p.edges) // 2]
    smaller = StrategyProfile(p.n, p.alpha, tuple(e for e in p.edges if e != dropped))
    after = all_pairs_distances(smaller)
    for u in range(p.n):
        for v in range(p.n):
            assert after[u][v] >= before[u][v]


@given(profiles(max_n=8).filter(lambda p: len(p.edges) > 0))
@settings(max_examples=50, deadline=None)
def test_relabel_buyer_affects_only_endpoint_building(p):
    flipped = p.edges[0]
    others = tuple(e for e in p.edges if e != flipped)
    if (flipped.other, flipped.buyer) in {(e.buyer, e.other) for e in others}:
        return  # flip would collide with the antiparallel purchase
    q = StrategyProfile(p.n, p.alpha, others + (BoughtEdge(flipped.other, flipped.buyer),))
    dp, dq = all_pairs_distances(p), all_pairs_distances(q)
    assert dp == dq
    for v in range(p.n):
        cp, cq = vertex_cost(p, dp, v), vertex_cost(q, dq, v)
        assert cp.connection == cq.connection
        if v not in (flipped.buyer, flipped.other):
            assert cp.building == cq.building


@given(connected_profiles(max_n=7))
@settings(max_examples=40, deadline=None)
def test_connection_cost_matches_oracle(p):
    d = all_pairs_distances(p)
    for v in range(p.n):
        assert vertex_cost(p, d, v).connection == oracle_connection(p, v)


@given(st.one_of(doubled_profiles(), connected_profiles(), sparse_connected_profiles()))
@settings(max_examples=80, deadline=None)
def test_profile_rows_match_edge_scan(p):
    adj, bought = oracle_rows(p)
    assert (p.adj, p.bought) == (adj, bought)
    # bought_by is the transpose of bought; doubled edges set both directions.
    assert p.bought_by == tuple(
        sum((bought[u] >> v & 1) << u for u in range(p.n)) for v in range(p.n)
    )
    d = all_pairs_distances(p)
    for a in range(p.n):
        assert vertex_cost(p, d, a).building == p.alpha * len(oracle_targets(p, a))
        for b in range(p.n):
            assert p.buys(a, b) == oracle_buys(p, a, b)
