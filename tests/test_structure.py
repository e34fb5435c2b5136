"""Structural layer: biconnected pieces, SPT, edge classes, cycles, H attachment."""

import dataclasses
import pickle
import random
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadgets import (
    directed_ring,
    figure_gadget,
    oracle_distances,
    oracle_connection,
    oracle_is_two_connected,
    path3,
    profile,
    ring_with_pendant,
    star,
    two_triangles,
    up_and_out_seller,
)
from oracle import (
    oracle_down_child,
    oracle_h_neighbours,
    oracle_is_low_level,
    oracle_per_vertex_cycle,
    oracle_rows,
    oracle_s_set_all_paths,
    oracle_context,
    oracle_sellable_edges,
    oracle_simple_cycles,
    oracle_spans,
    oracle_spt,
    oracle_subtree,
    oracle_tree_edges,
    oracle_x_levels,
)
from strategies import (
    connected_profiles,
    doubled_profiles,
    glued_profiles,
    profiles,
    sparse_connected_profiles,
)

from ncg import (
    all_pairs_distances,
    audit_structural,
    build_context,
    build_spt,
    choose_root,
    classify_x_sets,
    cycle_report,
    global_girth,
    is_connected,
    largest_biconnected_component,
)
from ncg.audit import scaffold_profile
from ncg.equilibrium import pair_list
from ncg.errors import BudgetExceededError
from ncg.game import MAX_N, mask_members
from ncg.structure import (
    _ring_cycles,
    all_simple_cycles,
    canonical_cycle,
    cycle_directed,
    edge_subtree,
    is_min_cycle,
    min_cycles,
    smallest_cycle_through_edge,
)


def _decomp_and_dist(p):
    return largest_biconnected_component(p), all_pairs_distances(p)


# ---------------------------------------------------------------------------
# biconnected decomposition


def test_triangle_with_pendant():
    p = profile(4, 1, [(0, 1), (1, 2), (2, 0), (0, 3)])
    decomp = largest_biconnected_component(p)
    assert decomp.largest_vertices() == frozenset({0, 1, 2})


def test_tree_components_are_single_edges():
    p = path3()
    decomp = largest_biconnected_component(p)
    assert all(len(c) == 2 for c in decomp.components)
    assert len(decomp.largest_vertices()) == 2


def test_two_triangles_share_a_vertex():
    p = two_triangles()
    decomp = largest_biconnected_component(p)
    sizes = sorted(len(c) for c in decomp.components)
    assert sizes == [3, 3]
    # tie-break: lexicographically smaller vertex list wins
    assert decomp.largest_vertices() == frozenset({0, 1, 2})
    # brute-force 2-connectivity check of every reported component
    pairs = {e.endpoints() for e in p.edges}
    for comp, comp_edges in zip(decomp.components, decomp.edge_components):
        if len(comp) >= 3:
            assert oracle_is_two_connected(comp, comp_edges)


def test_components_cover_all_edges():
    p = ring_with_pendant()
    decomp = largest_biconnected_component(p)
    covered = set().union(*decomp.edge_components)
    assert covered == {e.endpoints() for e in p.edges}


def test_decomposition_rejects_disconnected():
    p = profile(3, 1, [(0, 1)])
    with pytest.raises(ValueError, match="^biconnected decomposition requires a connected profile$"):
        largest_biconnected_component(p)
    with pytest.raises(ValueError, match="^audit context requires a connected profile$"):
        build_context(p)


def test_a_context_tests_connectivity_once(monkeypatch):
    import ncg.structure as structure

    tested = []
    real = structure.is_connected
    monkeypatch.setattr(structure, "is_connected", lambda p: tested.append(p) or real(p))
    build_context(scaffold_profile(0))
    assert len(tested) == 1


# ---------------------------------------------------------------------------
# root choice


def test_root_symmetric_ring_tie_breaks_to_zero():
    p = directed_ring(7, 1)
    decomp, dist = _decomp_and_dist(p)
    assert choose_root(p, dist, decomp.largest_vertices()) == 0


def test_root_moves_toward_pendant_mass():
    p = ring_with_pendant()
    decomp, dist = _decomp_and_dist(p)
    h = decomp.largest_vertices()
    assert h == frozenset(range(7))
    # independent argmin over the oracle distance sums
    oracle = oracle_distances(p.n, {e.endpoints() for e in p.edges})
    best = min(h, key=lambda v: (sum(oracle[v][u] for u in range(p.n) if u != v), v))
    assert best == 3
    assert choose_root(p, dist, h) == 3


def test_root_single_edge_min_id():
    p = profile(2, 1, [(1, 0)])
    decomp, dist = _decomp_and_dist(p)
    assert choose_root(p, dist, decomp.largest_vertices()) == 0


# ---------------------------------------------------------------------------
# shortest path tree


def test_spt_on_path():
    p = path3()
    spt = build_spt(p, all_pairs_distances(p), 0)
    assert spt.depth == (0, 1, 2)
    assert spt.subtree == (0b111, 0b110, 0b100)
    assert spt.subtree_size == (3, 2, 1)
    assert spt.down == 0b110
    assert spt.down_child(0, 1) == 1  # bought by the parent
    assert spt.down_child(1, 2) == 2


def test_spt_directed_ring_prefers_directed_path():
    p = directed_ring(7, 1)
    dist = all_pairs_distances(p)
    spt = build_spt(p, dist, 0)
    assert spt.depth == tuple(min(v, 7 - v) for v in range(7))
    # all-down path 0->1->2->3 retained, far side reached through up-edges
    assert spt.parent[3] == 2 and spt.parent[2] == 1 and spt.parent[1] == 0
    assert spt.parent[4] == 5
    assert spt.down_child(0, 1) == 1
    assert spt.down_child(5, 4) is None and spt.is_tree_edge(4, 5)  # an up-edge
    assert not spt.is_tree_edge(3, 4)  # the ring's one out-edge


def test_spt_star_all_down():
    p = star(4, center_owns=True)
    spt = build_spt(p, all_pairs_distances(p), 0)
    assert all(spt.down_child(0, leaf) == leaf for leaf in (1, 2, 3))
    assert all(spt.subtree_size[leaf] == 1 for leaf in (1, 2, 3))


def test_spt_ambiguous_directed_parent_goes_to_smallest_id():
    # 0 buys both branches of a diamond; 1 and 2 both buy into 3
    p = profile(4, 1, [(0, 1), (0, 2), (1, 3), (2, 3)])
    spt = build_spt(p, all_pairs_distances(p), 0)
    assert spt.parent[3] == 1 and spt.down_child(1, 3) == 3
    assert not spt.is_tree_edge(2, 3)


def test_edge_subtree_size_cases():
    p = directed_ring(7, 1)
    spt = build_spt(p, all_pairs_distances(p), 0)
    assert edge_subtree(spt, 2, 3) == spt.subtree[3]  # down-edge to a leaf of T
    assert edge_subtree(spt, 2, 3).bit_count() == 1
    assert edge_subtree(spt, 1, 2).bit_count() == 2
    assert edge_subtree(spt, 4, 5) == 0  # up-edge carries no subtree
    assert edge_subtree(spt, 3, 4) == 0  # out-edge
    # A non-edge carries none either; audit_deviation_bound rejects selling one.
    assert edge_subtree(spt, 0, 3) == 0


# ---------------------------------------------------------------------------
# X-set classes


def test_x_levels_on_figure_gadget():
    p = figure_gadget()
    dist = all_pairs_distances(p)
    decomp = largest_biconnected_component(p)
    root = choose_root(p, dist, decomp.largest_vertices())
    assert root == 0
    spt = build_spt(p, dist, root)
    classes = {c.edge: c for c in classify_x_sets(p, spt, decomp)}
    levels = {e: c.level for e, c in classes.items()}
    assert levels[(5, 6)] == 0
    assert levels[(4, 5)] == 1
    assert levels[(3, 4)] == 2
    assert levels[(2, 3)] == 3
    assert levels[(1, 2)] == 4
    assert levels[(0, 1)] == 5
    # up-chain edges carry no level but belong to every + class
    ctx = build_context(p)
    for e in [(6, 7), (7, 8), (8, 9), (9, 10), (0, 10)]:
        assert levels[e] is None
        child = max(e, key=spt.depth.__getitem__)
        parent = spt.parent[child]
        assert ctx.is_low_level(child, parent, include_up=True)
        assert not ctx.is_low_level(child, parent, include_up=False)


def test_x_levels_empty_on_tree():
    p = path3()
    dist = all_pairs_distances(p)
    decomp = largest_biconnected_component(p)
    spt = build_spt(p, dist, choose_root(p, dist, decomp.largest_vertices()))
    assert classify_x_sets(p, spt, decomp) == []


def test_up_edge_in_plus_without_level():
    ctx = build_context(directed_ring(7, 1))
    assert ctx.root == 0 and ctx.spt.parent[4] == 5
    assert ctx.x_classes[(4, 5)].level is None
    assert ctx.is_low_level(4, 5, include_up=True)
    assert not ctx.is_low_level(4, 5, include_up=False)


# ---------------------------------------------------------------------------
# cycles


def test_cycle_report_tree_is_acyclic():
    p = path3()
    report = cycle_report(p, largest_biconnected_component(p), all_pairs_distances(p))
    assert report.girth == inf
    assert report.per_edge_cycle == {}


def test_cycle_report_directed_five_ring():
    p = directed_ring(5, 1)
    report = cycle_report(p, largest_biconnected_component(p), all_pairs_distances(p))
    assert report.girth == 5
    assert all(len(c) == 5 for c in report.per_vertex_cycle.values())
    assert all(cycle_directed(p, c) for c in report.per_vertex_cycle.values())
    assert all(cycle_directed(p, c) for c in report.per_edge_cycle.values())


def test_cycle_report_flags_double_buyer():
    # vertex 0 buys both its ring edges
    p = profile(5, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    report = cycle_report(p, largest_biconnected_component(p), all_pairs_distances(p))
    assert report.girth == 5
    assert not any(cycle_directed(p, c) for c in report.per_vertex_cycle.values())


def test_global_girth_sees_smaller_far_component():
    # largest biconnected piece is a 5-ring, but a remote triangle sets the girth
    pairs = [(i, (i + 1) % 5) for i in range(5)] + [(4, 5)] + [(5, 6), (6, 7), (7, 5)]
    p = profile(8, 1, pairs)
    decomp = largest_biconnected_component(p)
    assert len(decomp.largest_vertices()) == 5
    report = cycle_report(p, decomp, all_pairs_distances(p))
    assert report.girth == global_girth(p) == 3
    assert set(report.per_vertex_cycle) == set(range(5))  # only H's edges feed it


def test_cycle_report_checks_each_distinct_cycle_once(monkeypatch):
    import ncg.structure as structure

    p = directed_ring(7, 29)  # each of the seven ring edges returns the ring
    decomp, dist = _decomp_and_dist(p)
    ring = canonical_cycle(tuple(range(7)))
    checked = []
    real = structure.is_min_cycle
    monkeypatch.setattr(
        structure, "is_min_cycle", lambda c, dist: checked.append(c) or real(c, dist)
    )
    report = cycle_report(p, decomp, dist)
    assert len(report.per_edge_cycle) == 7 and len(checked) == 1
    assert report.canonical == {ring}
    # rejecting the one shared cycle still fails the report
    monkeypatch.setattr(structure, "is_min_cycle", lambda c, dist: canonical_cycle(c) != ring)
    with pytest.raises(AssertionError, match="not a min-cycle"):
        cycle_report(p, decomp, dist)


def _edge_search(p, edges):
    """``smallest_cycle_through_edge`` of each of ``edges`` that lies on a cycle."""
    found = {e: smallest_cycle_through_edge(p, *e) for e in edges}
    return {e: cycle for e, cycle in found.items() if cycle is not None}


def test_ring_blocks_read_like_the_edge_search():
    # a block with as many edges as vertices is one chordless cycle, read off
    # one walk: the same cycles as the per-edge search, through the whole
    # report on scaffolds 0-199, and block by block on every connected
    # labelled graph on at most six vertices
    for seed in range(200):
        p = scaffold_profile(seed)
        report = cycle_report(p, *_decomp_and_dist(p))
        assert report.per_edge_cycle == _edge_search(p, p.undirected_edges()), seed
    rings = 0
    for n in range(3, 7):
        pairs = pair_list(n)
        for graph in range(1 << len(pairs)):
            p = profile(n, 1, [pairs[k] for k in range(len(pairs)) if graph >> k & 1])
            if not is_connected(p):
                continue
            decomp = largest_biconnected_component(p)
            for vertices, edges in zip(decomp.components, decomp.edge_components):
                if len(vertices) >= 3 and len(edges) == len(vertices):
                    rings += 1
                    assert _ring_cycles(edges) == _edge_search(p, edges), (n, graph)
    assert rings == 5788


@example(profile(4, 1, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)]), 20)
@given(
    st.one_of(profiles(max_n=7), st.integers(0, 99).map(scaffold_profile)),
    st.integers(0, 400),
)
@settings(max_examples=80, deadline=None)
def test_all_simple_cycles_match_oracle_and_budget(p, limit):
    # Counting the budget once per vertex read raises exactly when counting
    # one adjacency entry at a time does, and with the same ``required``.
    try:
        want = oracle_simple_cycles(p, limit)
    except BudgetExceededError as err:
        with pytest.raises(BudgetExceededError) as got:
            all_simple_cycles(p, limit)
        assert got.value.required == err.required == limit + 1
    else:
        assert all_simple_cycles(p, limit) == want


def test_all_simple_cycles_counts():
    p = profile(4, 1, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3)])
    cycles = all_simple_cycles(p)
    assert sorted(len(c) for c in cycles) == [3, 3, 4]


def test_all_simple_cycles_walk_only_the_two_core():
    # A triangle on 40-42 with the leaves 0-39 on 40: a walk into the leaves
    # would take 2,876 steps, the 2-core takes 56.
    p = profile(43, 1, [(40, 41), (41, 42), (42, 40)] + [(leaf, 40) for leaf in range(40)])
    assert all_simple_cycles(p, limit=100) == [(40, 41, 42)]
    assert oracle_simple_cycles(p, limit=100) == [(40, 41, 42)]
    with pytest.raises(BudgetExceededError):
        all_simple_cycles(p, limit=55)


def _oracle_blocks(p) -> set[frozenset]:
    """Edge sets of the blocks: two edges share a block iff some simple cycle
    holds both, and an edge on no cycle is a bridge, a block of its own."""
    edges = p.undirected_edges()
    block = {e: e for e in edges}

    def find(e):
        while block[e] != e:
            e = block[e]
        return e

    for cycle in oracle_simple_cycles(p, 10**9):
        ring = [tuple(sorted(pair)) for pair in zip(cycle, cycle[1:] + cycle[:1])]
        for e in ring[1:]:
            block[find(e)] = find(ring[0])
    groups: dict = {}
    for e in edges:
        groups.setdefault(find(e), set()).add(e)
    return {frozenset(g) for g in groups.values()}


@example(two_triangles())
@example(ring_with_pendant())
@given(st.one_of(connected_profiles(max_n=8), sparse_connected_profiles(max_n=8)))
@settings(max_examples=80, deadline=None)
def test_blocks_match_the_cycle_union_oracle(p):
    decomp = largest_biconnected_component(p)
    assert set(decomp.edge_components) == _oracle_blocks(p)
    assert len(decomp.edge_components) == len(set(decomp.edge_components))
    for vertices, edges in zip(decomp.components, decomp.edge_components):
        assert vertices == {v for e in edges for v in e}
    sizes = [(-len(c), sorted(c)) for c in decomp.components]
    assert sizes == sorted(sizes)
    assert len(decomp.largest_vertices()) == max(map(len, decomp.components), default=0)


# ---------------------------------------------------------------------------
# shortest-path funnels and H attachment


def test_s_set_on_path():
    # the all-paths funnel oracle that H attachment counts are checked against
    p = path3()
    assert oracle_s_set_all_paths(p, all_pairs_distances(p), {0}, 1) == frozenset({1, 2})


def test_s_set_square_all_paths_vs_some_path():
    p = profile(4, 1, [(0, 1), (1, 2), (2, 3), (3, 0)])
    dist = all_pairs_distances(p)
    # 2 has a shortest path to 0 through 1, but another one through 3
    assert dist[2][1] + dist[1][0] == dist[2][0]
    assert oracle_s_set_all_paths(p, dist, {0}, 1) == frozenset({1})


def _assert_attachment_is_the_funnel(p):
    """1 + ``h_attachment[v]`` is v's all-paths funnel relative to H - {v},
    for every vertex v of H; no vertex outside H has one."""
    ctx = build_context(p)
    for v in range(p.n):
        if v in ctx.h_vertices:
            funnel = oracle_s_set_all_paths(p, ctx.dist, ctx.h_vertices - {v}, v)
            assert 1 + ctx.h_attachment[v] == len(funnel), v
        else:
            assert ctx.h_attachment[v] == 0, v


def test_h_attachment_is_the_funnel_on_scaffolds():
    for seed in range(1000):
        _assert_attachment_is_the_funnel(scaffold_profile(seed))


@given(
    st.one_of(glued_profiles(), connected_profiles(max_n=8), sparse_connected_profiles(max_n=10))
)
@example(two_triangles())
# two triangles joined by the path 2-3-4
@example(profile(7, 1, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]))
# H is a five-ring; a smaller triangle hangs off it by a bridge
@example(profile(8, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6), (6, 7), (7, 5)]))
@settings(max_examples=120, deadline=None)
def test_h_attachment_is_the_funnel_on_several_cyclic_blocks(p):
    _assert_attachment_is_the_funnel(p)


def _assert_block_facts(p):
    """What contexts read off H being a block, at every root: its tree edges
    span it when it has a cycle (degree-sum's ``spanning`` detail), an edge
    between two of its vertices lies in it (``h_neighbours``), every path
    from outside it enters it at one vertex (``h_attachment``, the funnel),
    and every vertex of a cyclic H lies on a cycle of H."""
    ctx = build_context(p)
    h = ctx.h_vertices
    neighbours = [oracle_h_neighbours(ctx, v) for v in range(p.n)]
    attachment = [
        len(oracle_s_set_all_paths(p, ctx.dist, h - {v}, v)) - 1 if v in h else 0
        for v in range(p.n)
    ]
    for r in range(p.n):
        rooted = build_context(p, ctx, r)
        tree = ctx.h_edges & oracle_tree_edges(rooted.spt.parent)
        spanning = rooted.has_cyclic_h and oracle_spans(h, tree)
        assert audit_structural(rooted, "degree-sum").detail["spanning"] == spanning, r
        assert list(rooted.h_neighbours) == neighbours, r
        assert list(rooted.h_attachment) == attachment, r
        if rooted.has_cyclic_h:
            assert h <= rooted.cycles.per_vertex_cycle.keys(), r


def test_block_facts_on_scaffolds():
    for seed in range(200):
        _assert_block_facts(scaffold_profile(seed))


@given(
    st.one_of(glued_profiles(), connected_profiles(max_n=8), sparse_connected_profiles(max_n=10))
)
@example(two_triangles())
@example(profile(1, 1, []))
@settings(max_examples=120, deadline=None)
def test_block_facts_at_every_root(p):
    _assert_block_facts(p)


# ---------------------------------------------------------------------------
# properties on random profiles


@given(connected_profiles(max_n=9))
@settings(max_examples=60, deadline=None)
def test_spt_invariants(p):
    dist = all_pairs_distances(p)
    decomp = largest_biconnected_component(p)
    root = choose_root(p, dist, decomp.largest_vertices())
    spt = build_spt(p, dist, root)
    assert spt.depth == dist[root]
    assert spt.subtree_size[root] == p.n
    for v in range(p.n):
        children = [c for c in range(p.n) if spt.parent[c] == v]
        assert spt.subtree[v] == 1 << v | sum(spt.subtree[c] for c in children)
        assert spt.subtree_size[v] == 1 + sum(spt.subtree_size[c] for c in children)
    # a vertex has an all-down tree path iff a directed shortest path exists
    directed = [False] * p.n
    directed[root] = True
    for v in sorted(range(p.n), key=lambda x: dist[root][x]):
        if v == root:
            continue
        directed[v] = any(
            dist[root][u] == dist[root][v] - 1 and p.buys(u, v) and directed[u]
            for u in mask_members(p.adj[v])
        )
    all_down = [
        all(p.buys(spt.parent[x], x) for x in spt.path_to_root(v)[:-1]) for v in range(p.n)
    ]
    assert all_down == directed


@given(connected_profiles(max_n=9))
@settings(max_examples=40, deadline=None)
def test_x_level_soundness(p):
    dist = all_pairs_distances(p)
    decomp = largest_biconnected_component(p)
    spt = build_spt(p, dist, choose_root(p, dist, decomp.largest_vertices()))
    classes = {c.edge: c for c in classify_x_sets(p, spt, decomp)}
    h_edges = decomp.largest_edges()
    for e, c in classes.items():
        if c.level == 0:
            assert e not in oracle_tree_edges(spt.parent)
        elif c.level is not None:
            pc = (e[0], e[1]) if spt.parent[e[1]] == e[0] else (e[1], e[0])
            assert spt.parent[pc[1]] == pc[0] and p.buys(*pc)  # a down-edge
            child = pc[1]
            child_levels = [
                classes[f].level
                for f in h_edges
                if child in f
                and p.buys(child, f[0] if f[1] == child else f[1])
                and classes[f].level is not None
            ]
            assert c.level - 1 in child_levels


@given(connected_profiles(max_n=9))
@settings(max_examples=40, deadline=None)
def test_smallest_cycles_through_edges_are_min_cycles(p):
    dist = all_pairs_distances(p)
    decomp = largest_biconnected_component(p)
    report = cycle_report(p, decomp, dist)  # raises internally if violated
    for cyc in report.per_edge_cycle.values():
        assert is_min_cycle(cyc, dist)


@given(connected_profiles(max_n=9))
@settings(max_examples=40, deadline=None)
def test_smallest_cycle_through_edge_length_matches_oracle(p):
    pairs = {e.endpoints() for e in p.edges}
    for a, b in pairs:
        detour = oracle_distances(p.n, pairs - {(a, b)})[a][b]
        cyc = smallest_cycle_through_edge(p, a, b)
        if detour == inf:
            assert cyc is None
        else:
            assert len(cyc) == 1 + detour
            assert (cyc[0], cyc[-1]) == (a, b)


@given(st.one_of(connected_profiles(max_n=9), sparse_connected_profiles(max_n=10)))
@settings(max_examples=60, deadline=None)
def test_per_vertex_cycles_match_oracle(p):
    decomp, dist = _decomp_and_dist(p)
    report = cycle_report(p, decomp, dist)
    want = oracle_per_vertex_cycle(
        report.per_edge_cycle, decomp.largest_vertices(), decomp.largest_edges()
    )
    assert list(report.per_vertex_cycle.items()) == list(want.items())


@given(st.one_of(connected_profiles(max_n=9), sparse_connected_profiles(max_n=10)))
@example(two_triangles())
# two triangles joined by the path 2-3-4: H is one triangle, the other lies outside it
@example(profile(7, 1, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]))
# H is a five-ring; a smaller triangle hangs off it by a bridge
@example(profile(8, 1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6), (6, 7), (7, 5)]))
@settings(max_examples=80, deadline=None)
def test_context_girth_matches_global_girth(p):
    decomp, dist = _decomp_and_dist(p)
    report = cycle_report(p, decomp, dist)
    assert report.girth == build_context(p).girth == global_girth(p)
    assert report.canonical == {canonical_cycle(c) for c in report.per_edge_cycle.values()}
    blocks = zip(decomp.components, decomp.edge_components)
    cyclic = {e for vertices, edges in blocks if len(vertices) >= 3 for e in edges}
    assert set(report.per_edge_cycle) == cyclic
    assert list(report.per_edge_cycle) == sorted(cyclic)


@given(connected_profiles(max_n=9))
@settings(max_examples=40, deadline=None)
def test_h_edge_count_identity_when_tree_spans(p):
    dist = all_pairs_distances(p)
    decomp = largest_biconnected_component(p)
    spt = build_spt(p, dist, choose_root(p, dist, decomp.largest_vertices()))
    h_vertices = decomp.largest_vertices()
    h_edges = decomp.largest_edges()
    if len(h_vertices) < 3:
        return
    in_tree = h_edges & oracle_tree_edges(spt.parent)
    if len(in_tree) != len(h_vertices) - 1:
        return  # H cap T does not span H; identity not asserted
    classes = classify_x_sets(p, spt, decomp)
    x0 = sum(1 for c in classes if c.level == 0)
    assert len(h_edges) == (len(h_vertices) - 1) + x0


@given(st.one_of(connected_profiles(max_n=8), sparse_connected_profiles(max_n=10)))
@example(two_triangles())
@settings(max_examples=60, deadline=None)
def test_context_tables_match_oracle(p):
    ctx = build_context(p)
    assert (p.adj, p.bought) == oracle_rows(p)
    for v in range(p.n):
        assert ctx.h_neighbours[v] == oracle_h_neighbours(ctx, v)
        assert ctx.deg_h(v) == len(oracle_h_neighbours(ctx, v))


@given(st.one_of(connected_profiles(max_n=8), sparse_connected_profiles(max_n=10)))
@example(figure_gadget())
@example(up_and_out_seller())
@settings(max_examples=60, deadline=None)
def test_ladder_queries_match_oracle(p):
    ctx = build_context(p)
    for v in range(p.n):
        for t in range(p.n):
            if t != v:
                assert ctx.spt.down_child(v, t) == oracle_down_child(p, ctx.spt.parent, v, t)
        low = []
        for e, t in oracle_sellable_edges(ctx, v, include_up=True, cap=2):
            child = oracle_down_child(p, ctx.spt.parent, *e)
            below = [] if child is None else sorted(oracle_subtree(ctx.spt.parent, child))
            low.append((t, ctx.x_classes[e].level, below))
        assert [(e.target, e.level, mask_members(e.subtree)) for e in ctx.low_ladder[v]] == low
        assert all(e.edge == (min(v, e.target), max(v, e.target)) for e in ctx.low_ladder[v])
        for include_up in (False, True):
            for t in range(p.n):
                if t != v:
                    want = oracle_is_low_level(ctx, v, t, include_up, 2)
                    assert ctx.is_low_level(v, t, include_up) == want
            for cap in range(3):
                want = [t for _, t in oracle_sellable_edges(ctx, v, include_up, cap)]
                got = [
                    e.target for e in ctx.low_ladder[v]
                    if (include_up if e.level is None else e.level <= cap)
                ]
                assert got == want


@given(
    st.one_of(
        connected_profiles(max_n=8),
        sparse_connected_profiles(max_n=10),
        st.builds(scaffold_profile, st.integers(0, 499)),
    )
)
@example(figure_gadget())
# 4's least level comes from its second purchase: (4, 1) is a bridge, (2, 4) an out-edge.
@example(profile(5, 5, [(3, 0), (3, 2), (3, 4), (4, 1), (4, 2)]))
@settings(max_examples=200, deadline=None)
def test_x_levels_match_fixpoint_oracle(p):
    dist = all_pairs_distances(p)
    decomp = largest_biconnected_component(p)
    spt = build_spt(p, dist, choose_root(p, dist, decomp.largest_vertices()))
    levels = {c.edge: c.level for c in classify_x_sets(p, spt, decomp) if c.level is not None}
    assert levels == oracle_x_levels(p, spt, decomp)


@given(st.one_of(connected_profiles(max_n=8), sparse_connected_profiles(max_n=10)))
@settings(max_examples=40, deadline=None)
def test_context_connections_match_oracle(p):
    ctx = build_context(p)
    costs = [oracle_connection(p, v) for v in range(p.n)]
    assert list(ctx.connections) == costs
    if ctx.has_cyclic_h:
        assert ctx.root == min(ctx.h_vertices, key=lambda v: (costs[v], v))


@example(figure_gadget(), 0)
@example(profile(4, 1, [(0, 1), (0, 2), (1, 3), (2, 3)]), 0)  # two directed routes to 3
@given(
    st.one_of(
        connected_profiles(max_n=8),
        doubled_profiles(max_n=8).filter(is_connected),
        st.integers(0, 999).map(scaffold_profile),
    ),
    st.integers(0, 63),
)
@settings(max_examples=60, deadline=None)
def test_spt_matches_oracle_from_any_root(p, root):
    dist = all_pairs_distances(p)
    root %= p.n
    spt = build_spt(p, dist, root)
    assert dataclasses.asdict(spt) == oracle_spt(p, dist, root)


@example(figure_gadget(), 0)
@example(up_and_out_seller(), 3)
@example(profile(4, 1, [(0, 1), (0, 2), (1, 3), (2, 3)]), 0)  # two directed routes to 3
@given(
    st.one_of(
        connected_profiles(max_n=8),
        sparse_connected_profiles(max_n=10),
        st.integers(0, 999).map(scaffold_profile),
    ),
    st.integers(0, 63),
)
@settings(max_examples=60, deadline=None)
def test_tree_edge_queries_match_oracle_on_every_edge(p, root):
    # The oracle answers from its own parent table and the buys tests alone.
    dist = all_pairs_distances(p)
    root %= p.n
    spt = build_spt(p, dist, root)
    parent = oracle_spt(p, dist, root)["parent"]
    tree = oracle_tree_edges(parent)
    for a, b in p.undirected_edges():
        for x, y in ((a, b), (b, a)):
            assert spt.is_tree_edge(x, y) == ((a, b) in tree)
            child = oracle_down_child(p, parent, x, y)
            assert spt.down_child(x, y) == child
            weight = 0 if child is None else len(oracle_subtree(parent, child))
            assert edge_subtree(spt, x, y).bit_count() == weight


def test_a_context_enumerates_cycles_once_on_first_read(monkeypatch):
    import ncg.structure as structure

    calls = []
    real = structure.all_simple_cycles
    monkeypatch.setattr(structure, "all_simple_cycles", lambda p: calls.append(p) or real(p))
    # a ring with a chord, and a scaffold with a chord: more than one cycle
    chorded = profile(7, 29, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)])
    for p in (chorded, scaffold_profile(19)):
        ctx = build_context(p)
        assert calls == []  # nothing until a rule reads the min-cycles
        assert ctx.min_cycles == ctx.min_cycles
        assert calls == [p]
        calls.clear()
        assert oracle_context(p).min_cycles == ctx.min_cycles
        calls.clear()
    # a graph with one cycle reads it off the cycle report, also on first read
    for p in (directed_ring(7, 29), scaffold_profile(5)):
        ctx = build_context(p)
        assert "min_cycles" not in vars(ctx)
        assert ctx.min_cycles == ("exhaustive", tuple(ctx.cycles.canonical))
        assert "min_cycles" in vars(ctx) and calls == []
    assert build_context(directed_ring(7, 29)).min_cycles == ("exhaustive", (tuple(range(7)),))


def test_min_cycles_past_the_budget_are_the_distinct_per_edge_cycles(monkeypatch):
    import ncg.structure as structure

    # 0-1-2-3-4-5-0 and the path 0-6-7-8-3: three min-cycles; every edge of
    # the six-ring returns the six-ring, every edge of the path one 7-cycle
    theta = profile(9, 1, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (6, 7), (7, 8), (8, 3)])
    # H is a five-ring; a triangle hangs off it by a bridge
    pairs = [(i, (i + 1) % 5) for i in range(5)] + [(4, 5), (5, 6), (6, 7), (7, 5)]
    tailed = profile(8, 1, pairs)
    exhaustive = {p: build_context(p).min_cycles for p in (theta, tailed)}
    assert exhaustive[tailed] == ("exhaustive", ((5, 6, 7), (0, 1, 2, 3, 4)))
    assert exhaustive[theta] == (
        "exhaustive", ((0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 8, 7, 6), (0, 5, 4, 3, 8, 7, 6))
    )

    def over_budget(p):
        raise BudgetExceededError("over", required=1)

    monkeypatch.setattr(structure, "all_simple_cycles", over_budget)
    assert build_context(tailed).min_cycles == ("smallest-per-edge-only", exhaustive[tailed][1])
    assert build_context(theta).min_cycles == (
        "smallest-per-edge-only", exhaustive[theta][1][:2]
    )


def _enumerated_min_cycles(p, ctx):
    """``min_cycles`` over ``all_simple_cycles``, as for a graph of several cycles."""
    try:
        found = all_simple_cycles(p)
    except BudgetExceededError:
        per_edge = sorted(ctx.cycles.canonical, key=lambda c: (len(c), c))
        return "smallest-per-edge-only", tuple(per_edge)
    return "exhaustive", tuple(c for c in found if is_min_cycle(c, ctx.dist))


def _unicyclic(rng, n, ring, hub_share):
    """A ring on 0..ring-1 and trees on the other vertices: each hangs off
    vertex 0 with probability ``hub_share``, else off a random earlier vertex."""
    pairs = [(i, (i + 1) % ring) for i in range(ring)]
    for v in range(ring, n):
        pairs.append((0 if rng.random() < hub_share else rng.randrange(v), v))
    return profile(n, 1, [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs])


def test_one_cycle_min_cycles_match_the_enumeration():
    # The ring is read off the cycle report, coverage included: the
    # enumeration it stands for takes at most 4n^2 steps, within its budget
    # up to n = MAX_N = 64, hub-heavy graphs, whose rows are longest, too.
    rng = random.Random(31)
    graphs = [scaffold_profile(seed) for seed in range(1000)]
    for n in range(3, MAX_N + 1):
        for hub_share in (0.0, 0.5, 0.95):
            graphs.append(_unicyclic(rng, n, rng.randint(3, n), hub_share))
    graphs += [_unicyclic(rng, MAX_N, 3, 1.0), _unicyclic(rng, MAX_N, MAX_N, 0.0)]
    one_cycle = 0
    for p in graphs:
        ctx = build_context(p)
        if len(ctx.cycles.canonical) != 1:
            continue
        one_cycle += 1
        assert len(p.undirected_edges()) == p.n
        all_simple_cycles(p, limit=4 * p.n * p.n)  # does not raise
        want = _enumerated_min_cycles(p, ctx)
        assert ctx.min_cycles == want == min_cycles(p, ctx.dist, ctx.cycles)
        assert ctx.min_cycles[0] == "exhaustive"
    assert one_cycle == 922 + 3 * (MAX_N - 2) + 2


def test_contexts_built_on_a_context_pickle():
    ring = build_context(directed_ring(7, 29))
    reversed_ring = profile(7, 29, [((i + 1) % 7, i) for i in range(7)])
    for ctx in (ring, build_context(reversed_ring, ring), build_context(scaffold_profile(5))):
        copy = pickle.loads(pickle.dumps(ctx))  # before the min-cycles are computed
        assert copy == ctx and copy.min_cycles == ctx.min_cycles
        copy = pickle.loads(pickle.dumps(ctx))  # and after, the result kept
        assert "min_cycles" in vars(copy) and copy.min_cycles == ctx.min_cycles
        assert copy == ctx


def test_context_rejects_a_context_of_another_graph():
    graph = build_context(directed_ring(7, 29))
    reversed_ring = profile(7, 29, [((i + 1) % 7, i) for i in range(7)])
    shared = build_context(reversed_ring, graph)
    assert shared == build_context(reversed_ring)
    assert shared.dist is graph.dist and shared.cycles is graph.cycles
    assert build_context(reversed_ring, graph, 3) == oracle_context(reversed_ring, 3)
    with pytest.raises(ValueError, match="different graph"):
        build_context(figure_gadget(), graph)
