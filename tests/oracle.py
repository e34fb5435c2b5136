"""Slow reference paths the fast ones are compared against.

``scan_profile_range`` is the index scan the graph-first enumeration
replaced: it decodes, connectivity-checks and verifies every one of the
3^(n(n-1)/2) profile indices in order, with no filter;
``oracle_profiles_cell`` verifies a cell's connected profiles decoded once
by ``connected_cell_profiles`` for several alphas and classes.
``oracle_graph_scan`` is the exact graph scan that builds cost tables for
every labelled connected graph, the scan the per-isomorphism-class decision
replaced, and ``oracle_ownership_scan`` the loop that verified every
ownership of every labelled connected graph under a restricted class, the
one pricing candidates by table lookup replaced.  ``oracle_verify``
is the per-candidate verification loop the shared strategy-pricing loop
replaced: every candidate is priced from raw edge lists by
``gadgets.oracle_delta``, and ``oracle_class_move`` is the per-candidate
loop restricted dynamics ran before they priced candidates as masks.  Both
enumerate every class as target sets, the paper strategies from
``oracle_sellable_edges`` in one ``oracle_context`` per H vertex of least
connection cost, as does ``oracle_sell_selections`` for the bound audits
in one context.  ``oracle_best_response`` is the full scan the
size-bounded exact scan replaced: every target set is priced from raw
edge lists by ``gadgets.oracle_source_distances`` and the least (cost,
size, sorted tuple) wins.  ``oracle_dynamics`` is the best-response loop
that asks every vertex every pass, the one settling vertices replaced.
``oracle_s_set_all_paths`` is the all-paths funnel by one via-deleted BFS
per anchor vertex.  ``oracle_x_levels`` is the fixpoint loop the one-pass
X-levels replaced, and the ``oracle_*`` ladder queries restate the
edge-class rules straight from ``x_classes``, ``spt.parent`` and
``profile.buys``; ``oracle_tree_edges``, ``oracle_down_child`` and
``oracle_subtree`` read the tree's edges, down-edges and subtrees off
``parent`` and ``buys`` alone.  ``oracle_rows``,
``oracle_neighbours``, ``oracle_targets`` and ``oracle_buys`` read a
profile's graph facts off its bought edges one edge at a time, the scan its
bitmask rows replaced.
``oracle_per_vertex_cycle`` and ``oracle_h_neighbours`` are the per-vertex
scans over H's edges that the context's tables replaced, ``oracle_spans``
the spanning-tree test by BFS that degree-sum's gate replaced,
``oracle_girth_witness`` the search of every edge, bridges included, that
the ``mincyclesize`` witness from the cycle report replaced, and
``oracle_context`` assembles a ``StrategyContext`` from the public structure
calls with the girth from ``global_girth``, as the benchmark's traced
re-drive does.  ``oracle_bound`` prices one bound comparison from scratch
on every call: the bound in ``Fraction`` arithmetic from the seller's tree
path, every precondition note, and the exact delta from raw edge lists by
``gadgets.oracle_delta``, with no table shared between calls.
``oracle_spt`` is the shortest path tree built from adjacency lists and
``buys`` tests, the scan its bitmask rows replaced, and
``oracle_simple_cycles`` the cycle enumeration that counted its budget one
adjacency entry at a time on set-based paths, both walking the 2-core.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product
from math import inf

from gadgets import oracle_delta, oracle_source_distances

from ncg.errors import BudgetExceededError

from ncg.audit import BoundComparison
from ncg.equilibrium import (
    DEFAULT_BUDGET,
    EXACT,
    Deviation,
    DeviationClass,
    DynamicsTrace,
    EnumerationResult,
    GraphClass,
    VerificationReport,
    _best_class_move,
    _class_contexts,
    _exact_checks,
    _graph_rows,
    _ownership_equilibria,
    pair_list,
    profile_from_index,
    profile_hash,
    verify_equilibrium,
)
from ncg.game import (
    BoughtEdge,
    Distances,
    StrategyProfile,
    all_pairs_distances,
    bfs_distances,
    bfs_sum,
    is_connected,
    row_sums,
)
from ncg.structure import (
    BiconnectedDecomposition,
    SptAnalysis,
    StrategyContext,
    build_spt,
    canonical_cycle,
    choose_root,
    classify_x_sets,
    cycle_report,
    global_girth,
    largest_biconnected_component,
    smallest_cycle_through_edge,
)


def scan_profile_range(
    n: int,
    alpha: Fraction,
    dev_class: DeviationClass,
    start: int,
    stop: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, list[tuple[int, VerificationReport]]]:
    """Verify every profile index in [start, stop).

    Returns (connected-profile count, [(index, report)] for equilibria found).
    """
    found = []
    connected = 0
    for index in range(start, stop):
        profile = profile_from_index(n, alpha, index)
        if profile.n > 1 and not is_connected(profile):
            continue
        connected += 1
        report = verify_equilibrium(profile, dev_class, budget)
        if report.is_equilibrium:
            found.append((index, report))
    return connected, found


def connected_cell_profiles(n: int, alphas) -> dict[Fraction, tuple[StrategyProfile, ...]]:
    """Every connected profile on n vertices, by index, at each of
    ``alphas``: the index scan's decode and connectivity test, run once for
    all of them, since alpha changes neither."""
    decoded = (profile_from_index(n, Fraction(1), i) for i in range(3 ** (n * (n - 1) // 2)))
    edges = [p.edges for p in decoded if p.n == 1 or is_connected(p)]
    return {alpha: tuple(StrategyProfile(n, alpha, e) for e in edges) for alpha in alphas}


def oracle_profiles_cell(
    n: int, alpha: Fraction, dev_class: DeviationClass, profiles
) -> EnumerationResult:
    """``oracle_cell`` given the cell's ``connected_cell_profiles``: each
    verified in index order.  It is also the ownership loop's cell, which
    verifies the same profiles graph by graph and sorts its equilibria by
    index."""
    equilibria = []
    for profile in profiles:
        report = verify_equilibrium(profile, dev_class)
        if report.is_equilibrium:
            equilibria.append((profile, report))
    return EnumerationResult(n, alpha, 3 ** (n * (n - 1) // 2), len(profiles), tuple(equilibria))


def oracle_cell(n: int, alpha: Fraction, dev_class: DeviationClass) -> EnumerationResult:
    """The ``EnumerationResult`` the index scan gives for one whole cell."""
    total = 3 ** (n * (n - 1) // 2)
    connected, found = scan_profile_range(n, alpha, dev_class, 0, total)
    equilibria = tuple((profile_from_index(n, alpha, idx), report) for idx, report in found)
    return EnumerationResult(n, alpha, total, connected, equilibria)


def labelled_class(n: int, graph: int) -> GraphClass:
    """Graph index ``graph`` on n vertices as a catalogue entry of weight 1,
    whatever its isomorphs, with the identity as its only automorphism: what
    ``graph_classes`` keeps of a representative, one record per ownership."""
    ks, edges, adj = _graph_rows(n, pair_list(n), graph)
    identity = [(0, 3**k, 2 * 3**k) for k in range(len(pair_list(n)))]
    return GraphClass(ks, edges, adj, 1, [row_sums(adj, v, 0) for v in range(n)], [identity])


def profile_class(profile: StrategyProfile) -> GraphClass:
    """``labelled_class`` of the profile's graph."""
    pairs = pair_list(profile.n)
    return labelled_class(profile.n, sum(1 << pairs.index(e) for e in profile.undirected_edges()))


def oracle_graph_scan(
    n: int,
    alpha: Fraction,
    graphs: range,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, list[tuple[int, StrategyProfile, VerificationReport]]]:
    """The exact scan of ``enumerate_cell`` with one table build per labelled graph.

    Every connected graph index in ``graphs`` is decided from its own cost
    tables (``_ownership_equilibria`` under the exact class), with no
    isomorphism classes: the scan the per-class decision replaced.  Returns
    the connected count and ``(profile index, profile, report)`` per
    equilibrium, each report counting the exact class's checks.
    """
    checks = _exact_checks(n, budget)
    connected = 0
    found = []
    for graph in graphs:
        ks, edges, adj = _graph_rows(n, pair_list(n), graph)
        if bfs_sum(adj, 0, adj[0]) is None:
            continue
        connected += 1 << len(edges)
        for index, _ in _ownership_equilibria(alpha, EXACT, labelled_class(n, graph), budget):
            profile = profile_from_index(n, alpha, index)
            report = VerificationReport(profile_hash(profile), EXACT.spec(), True, None, checks)
            found.append((index, profile, report))
    return connected, found


def oracle_labelled_equilibria(
    records, orbits: bool = True
) -> tuple[tuple[StrategyProfile, VerificationReport], ...]:
    """The labelled equilibria of class records, by profile index, relabelling
    edges instead of ``labelled_equilibria``'s index arithmetic.

    With ``orbits`` each record stands for its ownership's orbit under the
    automorphisms of its graph, so it goes to every distinct relabelling of
    its ownership.  Without, it stands for its ownership alone and goes to
    every image of its graph by the first vertex map, in ``permutations``
    order, that reaches it.  Each image keeps the record's report under the
    image's hash.
    """
    found = {}
    for profile, report, _ in records:
        n = profile.n
        pairs = pair_list(n)
        seen = set()
        for pi in permutations(range(n)):
            edges = [(pi[e.buyer], pi[e.other]) for e in profile.edges]
            key = frozenset(edges) if orbits else frozenset(frozenset(e) for e in edges)
            if key in seen:
                continue
            seen.add(key)
            image = StrategyProfile(n, profile.alpha, tuple(BoughtEdge(*e) for e in edges))
            index = sum(
                (1 if e.buyer < e.other else 2) * 3 ** pairs.index(e.endpoints())
                for e in image.edges
            )
            found[index] = (image, replace(report, profile_hash=profile_hash(image)))
    return tuple(found[index] for index in sorted(found))


def oracle_ownership_scan(
    n: int, alpha: Fraction, dev_class: DeviationClass, budget: int = DEFAULT_BUDGET
) -> EnumerationResult:
    """The cell ``enumerate_cell`` must give, one ``verify_equilibrium`` per
    ownership of every labelled connected graph: the restricted-class loop
    that deciding one graph per isomorphism class from cost tables replaced.
    """
    pairs = pair_list(n)
    connected = 0
    found = []
    for graph in range(1 << len(pairs)):
        ks = [k for k in range(len(pairs)) if graph >> k & 1]
        adj = [0] * n
        for a, b in (pairs[k] for k in ks):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        if bfs_sum(adj, 0, adj[0]) is None:
            continue
        connected += 1 << len(ks)
        for owners in product((1, 2), repeat=len(ks)):
            index = sum(trit * 3**k for trit, k in zip(owners, ks))
            profile = profile_from_index(n, alpha, index)
            report = verify_equilibrium(profile, dev_class, budget)
            if report.is_equilibrium:
                found.append((index, profile, report))
    equilibria = tuple((profile, report) for _, profile, report in sorted(found, key=lambda f: f[0]))
    return EnumerationResult(n, alpha, 3 ** len(pairs), connected, equilibria)


def _oracle_candidates(profile: StrategyProfile, v: int, cls: DeviationClass, contexts):
    """``_class_deviations`` as target sets, every class enumerated from sets.

    Exact candidates come in subset-index order: bit i of the index is the
    i-th vertex other than v.  Paper strategies sell each nonempty subset of
    ``oracle_sellable_edges`` in each of ``contexts``, one ``oracle_context``
    per tied root, and drop repeats.  Composites drop repeats, first part
    first.
    """
    others = [u for u in range(profile.n) if u != v]
    current = oracle_targets(profile, v)
    missing = sorted(set(others) - current)
    if cls.kind == "exact-all-subsets":
        for sub in range(1 << len(others)):
            s = frozenset(u for i, u in enumerate(others) if sub >> i & 1)
            if s != current:
                yield s
    elif cls.kind == "single-add":
        for u in missing:
            yield current | {u}
    elif cls.kind == "single-delete":
        for u in sorted(current):
            yield current - {u}
    elif cls.kind == "single-swap":
        for u in sorted(current):
            for w in missing:
                yield (current - {u}) | {w}
    elif cls.kind == "k-subset":
        for size in range(1, cls.k + 1):
            for flip in combinations(others, size):
                yield current.symmetric_difference(flip)
    elif cls.kind.startswith("paper-strategy-"):
        which = cls.kind[-1]
        seen = {current}
        for ctx in contexts:
            if len(ctx.h_vertices) < 3 or v not in ctx.h_vertices or v == ctx.root:
                continue
            sellable = [t for _, t in oracle_sellable_edges(ctx, v, which == "3", 2)]
            for size in range(1, len(sellable) + 1):
                for sold in combinations(sellable, size):
                    s = current - set(sold)
                    if which != "1":
                        s |= {ctx.root}
                    if s not in seen:
                        seen.add(s)
                        yield s
    elif cls.kind == "composite":
        seen = set()
        for part in cls.parts:
            for s in _oracle_candidates(profile, v, part, contexts):
                if s not in seen:
                    seen.add(s)
                    yield s
    else:
        raise AssertionError(f"unhandled class kind {cls.kind}")


def _oracle_class_contexts(profile: StrategyProfile, cls: DeviationClass) -> list:
    """The ``oracle_context`` paper strategies read at each H vertex of least
    connection cost, in id order; none when the class has no paper strategy
    or the profile is disconnected."""
    if "paper-strategy" not in cls.spec() or not is_connected(profile):
        return []
    dist = all_pairs_distances(profile)
    h_vertices = sorted(largest_biconnected_component(profile).largest_vertices())
    least = min((sum(dist[v]) for v in h_vertices), default=None)
    return [oracle_context(profile, v) for v in h_vertices if sum(dist[v]) == least]


def oracle_verify(profile: StrategyProfile, dev_class: DeviationClass) -> VerificationReport:
    """The report ``verify_equilibrium`` must give: first strict improvement wins."""
    digest = profile_hash(profile)
    spec = dev_class.spec()
    if profile.n > 1 and not is_connected(profile):
        dev = Deviation(0, frozenset(range(1, profile.n)))
        return VerificationReport(digest, spec, False, (dev, -inf), 1)
    contexts = _oracle_class_contexts(profile, dev_class)
    checked = 0
    for v in range(profile.n):
        for targets in _oracle_candidates(profile, v, dev_class, contexts):
            checked += 1
            delta = oracle_delta(profile, v, targets)
            if delta < 0:
                dev = Deviation(v, targets)
                return VerificationReport(digest, spec, False, (dev, delta), checked)
    return VerificationReport(digest, spec, True, None, checked)


def oracle_class_move(
    profile: StrategyProfile, v: int, cls: DeviationClass
) -> tuple[frozenset[int], Fraction | float] | None:
    """What dynamics must pick for v under a restricted class: every
    candidate priced by ``gadgets.oracle_delta``, the least (delta, size,
    sorted tuple) among the strict improvements, or None."""
    contexts = _oracle_class_contexts(profile, cls)
    best = None
    for targets in _oracle_candidates(profile, v, cls, contexts):
        delta = oracle_delta(profile, v, targets)
        if delta >= 0:
            continue
        key = (delta, len(targets), tuple(sorted(targets)))
        if best is None or key < best[0]:
            best = (key, targets, delta)
    return None if best is None else best[1:]


def oracle_sell_selections(ctx: StrategyContext, kind: str, most: int):
    """(vertex, sold targets) for every H vertex but the root of a cyclic H
    and every set of at most ``most`` of its ``oracle_sellable_edges``."""
    if len(ctx.h_vertices) < 3:
        return []
    out = []
    for u in sorted(ctx.h_vertices - {ctx.root}):
        sellable = [t for _, t in oracle_sellable_edges(ctx, u, kind == "strategy3", 2)]
        for size in range(1, min(most, len(sellable)) + 1):
            out += [(u, sold) for sold in combinations(sellable, size)]
    return out


def oracle_best_response(
    profile: StrategyProfile, v: int
) -> tuple[frozenset[int], Fraction | float]:
    """What ``best_response_exact`` must return: every one of v's target sets
    priced by one ``gadgets.oracle_source_distances`` search from v, the
    least (cost, size, sorted tuple) kept, its delta by
    ``gadgets.oracle_delta``."""
    others = [u for u in range(profile.n) if u != v]
    kept = {e.endpoints() for e in profile.edges if e.buyer != v}

    def key(targets):
        dist = oracle_source_distances(profile.n, kept | {(min(v, t), max(v, t)) for t in targets}, v)
        cost = inf if inf in dist else profile.alpha * len(targets) + sum(dist)
        return cost, len(targets), targets

    sets = (tuple(u for i, u in enumerate(others) if sub >> i & 1) for sub in range(1 << len(others)))
    best = frozenset(min(sets, key=key))
    return best, oracle_delta(profile, v, best)


def oracle_dynamics(
    initial: StrategyProfile,
    dev_class: DeviationClass,
    vertex_order: str,
    max_iters: int,
    seed: int | None = None,
) -> DynamicsTrace:
    """What ``best_response_dynamics`` must return: the plain loop that asks
    every vertex every pass, with no vertex settled, as the benchmark's
    traced re-drive does, and rebuilds the class's contexts after each move."""
    rng = random.Random(seed)
    profile = initial
    steps = []
    for _ in range(max_iters):
        order = list(range(profile.n))
        if vertex_order == "random":
            rng.shuffle(order)
        improved = False
        for v in order:
            move = _best_class_move(
                profile, v, dev_class, DEFAULT_BUDGET, _class_contexts(profile, dev_class)
            )
            if move is not None:
                targets, delta = move
                steps.append((v, Deviation(v, targets), delta))
                profile = profile.with_strategy(v, targets)
                improved = True
        if not improved:
            return DynamicsTrace(tuple(steps), True, profile)
    return DynamicsTrace(tuple(steps), False, profile)


def oracle_neighbours(profile: StrategyProfile, v: int) -> list[int]:
    """v's neighbours in increasing order, by scanning every bought edge."""
    return sorted(
        {e.other if e.buyer == v else e.buyer for e in profile.edges if v in (e.buyer, e.other)}
    )


def oracle_targets(profile: StrategyProfile, v: int) -> frozenset[int]:
    """The vertices v bought edges to, by scanning every bought edge."""
    return frozenset(e.other for e in profile.edges if e.buyer == v)


def oracle_buys(profile: StrategyProfile, a: int, b: int) -> bool:
    """True iff the edge list holds the purchase (a, b)."""
    return any(e.buyer == a and e.other == b for e in profile.edges)


def oracle_rows(profile: StrategyProfile) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(adjacency rows, bought rows) as bitmasks, from the scans above."""
    n = profile.n
    adj = tuple(sum(1 << u for u in oracle_neighbours(profile, v)) for v in range(n))
    bought = tuple(sum(1 << u for u in oracle_targets(profile, v)) for v in range(n))
    return adj, bought


def oracle_s_set_all_paths(
    profile: StrategyProfile, dist: Distances, anchor, via: int
) -> frozenset[int]:
    """via, plus every x all of whose shortest routes to its nearest anchor
    vertices pass via: deleting via lengthens each of those distances."""
    adj = oracle_rows(profile)[0]
    cut = {w: bfs_distances(adj, w, blocked=1 << via) for w in anchor}
    members = {via}
    for x in range(profile.n):
        if x == via or x in anchor:
            continue
        nearest = min(dist[x][w] for w in anchor)
        if nearest == inf:
            continue
        if all(cut[w][x] > dist[x][w] for w in anchor if dist[x][w] == nearest):
            members.add(x)
    return frozenset(members)


def oracle_per_vertex_cycle(per_edge_cycle, h_vertices, h_edges) -> dict:
    """Each H vertex's shortest, then smallest canonical, cycle among those
    through its H edges: every H edge scanned once per vertex."""
    per_vertex = {}
    for v in sorted(h_vertices):
        best = None
        for e in sorted(h_edges):
            if v not in e or e not in per_edge_cycle:
                continue
            cyc = per_edge_cycle[e]
            key = (len(cyc), canonical_cycle(cyc))
            if best is None or key < best:
                best = key
        if best is not None:
            per_vertex[v] = best[1]
    return per_vertex


def oracle_girth_witness(profile: StrategyProfile, girth) -> tuple[int, ...] | None:
    """The smallest cycle of length ``girth`` through the first edge, in
    sorted order, that has one; every edge is searched, bridges included."""
    for a, b in profile.undirected_edges():
        cyc = smallest_cycle_through_edge(profile, a, b)
        if cyc is not None and len(cyc) == girth:
            return cyc
    return None


def oracle_h_neighbours(ctx: StrategyContext, v: int) -> tuple[int, ...]:
    """v's neighbours along H in increasing order, by scanning every H edge."""
    return tuple(sorted((e[0] if e[1] == v else e[1]) for e in ctx.h_edges if v in e))


def oracle_spans(vertices: frozenset[int], edges) -> bool:
    """Do the edges form a spanning tree of the vertex set?"""
    if not vertices or len(edges) != len(vertices) - 1:
        return False
    adj = [0] * (max(vertices) + 1)
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    # |V| - 1 edges that reach all of V from one vertex are a tree on V.
    dist = bfs_distances(adj, min(vertices))
    return all(dist[v] != inf for v in vertices)


def oracle_context(profile: StrategyProfile, root: int | None = None) -> StrategyContext:
    """``build_context`` from the public structure calls; girth by
    ``global_girth``, the root by ``choose_root`` unless given."""
    dist = all_pairs_distances(profile)
    decomposition = largest_biconnected_component(profile)
    h_vertices = decomposition.largest_vertices()
    if root is None:
        root = choose_root(profile, dist, h_vertices) if h_vertices else 0
    spt = build_spt(profile, dist, root)
    return StrategyContext(
        profile=profile,
        dist=dist,
        decomposition=decomposition,
        h_vertices=h_vertices,
        h_edges=decomposition.largest_edges(),
        root=root,
        spt=spt,
        x_classes={c.edge: c for c in classify_x_sets(profile, spt, decomposition)},
        cycles=cycle_report(profile, decomposition, dist),
        girth=global_girth(profile),
    )


def oracle_tree_edges(parent) -> frozenset[tuple[int, int]]:
    """Every {vertex, parent} pair of a parent table, as (low, high)."""
    return frozenset((min(p, c), max(p, c)) for c, p in enumerate(parent) if p is not None)


def oracle_subtree(parent, v: int) -> frozenset[int]:
    """The vertices whose parent chain up to the root passes v."""
    out = set()
    for w in range(len(parent)):
        x = w
        while x is not None and x != v:
            x = parent[x]
        if x == v:
            out.add(w)
    return frozenset(out)


def oracle_x_levels(
    profile: StrategyProfile, spt: SptAnalysis, decomposition: BiconnectedDecomposition
) -> dict[tuple[int, int], int]:
    """Minimal X-level of every levelled H-edge: out-edges 0, then every
    down-edge lowered to 1 + the least level its child bought until nothing
    changes.  Empty when H has no cycle."""
    h_edges = decomposition.largest_edges()
    if len(decomposition.largest_vertices()) < 3:
        return {}
    tree = oracle_tree_edges(spt.parent)
    level = {e: 0 for e in h_edges if e not in tree}
    changed = True
    while changed:
        changed = False
        for c, p in enumerate(spt.parent):
            if p is None or not oracle_buys(profile, p, c):
                continue
            e = (min(p, c), max(p, c))
            if e not in h_edges:
                continue
            below = [
                level[f] for f in h_edges if c in f and f in level and profile.buys(c, sum(f) - c)
            ]
            if below and 1 + min(below) < level.get(e, inf):
                level[e] = 1 + min(below)
                changed = True
    return level


def oracle_down_child(profile: StrategyProfile, parent, a: int, b: int) -> int | None:
    """The endpoint whose tree parent is the other one and bought the edge."""
    for p, c in ((a, b), (b, a)):
        if parent[c] == p and oracle_buys(profile, p, c):
            return c
    return None


def oracle_is_low_level(
    ctx: StrategyContext, v: int, t: int, include_up: bool, cap: int
) -> bool:
    """Level at most cap, or (include_up) t is v's parent and did not buy {v, t}."""
    cls = ctx.x_classes.get((min(v, t), max(v, t)))
    if cls is not None and cls.level is not None and cls.level <= cap:
        return True
    return include_up and ctx.spt.parent[v] == t and not oracle_buys(ctx.profile, t, v)


def oracle_sellable_edges(
    ctx: StrategyContext, v: int, include_up: bool, cap: int
) -> list[tuple[tuple[int, int], int]]:
    """(edge, other endpoint) for each ladder edge v bought that is low-level for v."""
    out = []
    for edge in ctx.x_classes:
        if v not in edge:
            continue
        t = edge[0] + edge[1] - v
        if ctx.profile.buys(v, t) and oracle_is_low_level(ctx, v, t, include_up, cap):
            out.append((edge, t))
    return sorted(out, key=lambda item: item[1])


def oracle_bound(
    ctx: StrategyContext,
    u: int,
    kind: str,
    sold_targets,
    certificate: VerificationReport | None = None,
) -> BoundComparison:
    """The comparison ``audit_deviation_bound`` must give for one rewrite."""
    sells_up, buys_root = kind == "strategy3", kind != "strategy1"
    profile, spt, n, alpha = ctx.profile, ctx.spt, ctx.n, ctx.alpha
    notes = []
    recorded = []
    for t in sorted(sold_targets):
        edge = (min(u, t), max(u, t))
        cls = ctx.x_classes.get(edge)
        recorded.append((edge, None if cls is None else cls.level))
        if not oracle_buys(profile, u, t):
            notes.append(f"edge {edge} is not bought by {u}")
        if edge not in ctx.h_edges:
            notes.append(f"edge {edge} lies outside H")
        if not oracle_is_low_level(ctx, u, t, sells_up, 2):
            notes.append(f"edge {edge} has no eligible level for {kind}")
    if not recorded:
        notes.append("no edges sold")
    cyclic = len(ctx.h_vertices) >= 3
    if not cyclic:
        notes.append("no biconnected component with a cycle")
    elif u not in ctx.h_vertices:
        notes.append(f"vertex {u} outside H")
    elif u == ctx.root:
        notes.append("seller is the root")
    if not alpha > 2 * n:
        notes.append("alpha <= 2n")
    if not ctx.girth >= 7:
        notes.append("girth below 7")
    dist = all_pairs_distances(profile)
    if cyclic and sum(dist[ctx.root]) > sum(dist[u]):
        notes.append("root connection cost exceeds seller's")

    path = [u]
    while path[-1] != ctx.root:
        path.append(spt.parent[path[-1]])
    d = len(path) - 1
    size = [len(oracle_subtree(spt.parent, x)) for x in range(n)]
    if kind == "strategy1":
        bound = Fraction(d * n - 2 * sum(size[x] for x in path[:-1])) - len(recorded) * alpha
        factor = 2 * d
    elif kind == "strategy2":
        middle = size[path[d // 2]] if d % 2 == 0 else 0
        halfway = sum(size[path[l]] for l in range(d + 1) if 2 * l < d)
        bound = Fraction(n - middle - 2 * halfway) - (len(recorded) - 1) * alpha
        factor = d + 1
    else:
        bound = Fraction(n - (d + 1) * size[u]) - (len(recorded) - 1) * alpha
        factor = d + 1
    for (a, b), level in recorded:
        child = oracle_down_child(profile, spt.parent, a, b)
        if child is not None:
            bound += (2 * (level or 0) + factor) * size[child]

    if buys_root and u == ctx.root:
        notes.append("root cannot buy an edge to itself; rewrite sells only")
    new = set(oracle_targets(profile, u)) - set(sold_targets)
    if buys_root and u != ctx.root:
        new.add(ctx.root)
    exact = oracle_delta(profile, u, new)
    if certificate is not None and certificate.is_equilibrium:
        if certificate.profile_hash != profile_hash(profile):
            notes.append("certificate hash mismatch; ignored")
        elif exact < 0:
            notes.append("certified equilibrium admits an improving rewrite")
    return BoundComparison(
        lemma_id=kind,
        vertex=u,
        sold_edges=tuple(recorded),
        bought_r=buys_root,
        bound=bound,
        exact_delta=exact,
        preconditions_met=not notes,
        precondition_notes="; ".join(notes),
        dominates=exact <= bound,
    )


def oracle_spt(profile: StrategyProfile, dist: Distances, root: int) -> dict:
    """``build_spt``'s fields, vertex by vertex in (depth, id) order: the
    parent is the least level-up neighbour that bought the edge and is
    down-reachable, else the least level-up one."""
    n = profile.n
    depth = dist[root]
    parent = [None] * n
    reachable = [v == root for v in range(n)]
    for v in sorted(range(n), key=lambda x: (depth[x], x)):
        if v == root:
            continue
        level_up = [p for p in oracle_neighbours(profile, v) if depth[p] == depth[v] - 1]
        directed = [p for p in level_up if oracle_buys(profile, p, v) and reachable[p]]
        parent[v] = min(directed or level_up)
        reachable[v] = reachable[parent[v]] and oracle_buys(profile, parent[v], v)

    return {
        "root": root,
        "parent": tuple(parent),
        "depth": tuple(depth),
        "subtree": tuple(sum(1 << w for w in oracle_subtree(parent, v)) for v in range(n)),
        "down": sum(
            1 << c for c, p in enumerate(parent) if p is not None and oracle_buys(profile, p, c)
        ),
    }


def oracle_simple_cycles(profile: StrategyProfile, limit: int) -> list[tuple[int, ...]]:
    """Every simple cycle, canonicalised, by paths out of their least vertex
    of the 2-core, through core vertices only; raises ``BudgetExceededError``
    at the first adjacency entry past ``limit``."""
    adj = [oracle_neighbours(profile, v) for v in range(profile.n)]
    core = set(range(profile.n))
    while thin := {v for v in core if len(core.intersection(adj[v])) < 2}:
        core -= thin
    peeled = set(range(profile.n)) - core
    cycles = []
    steps = 0
    for s in sorted(core):
        stack = [([s], {s} | peeled)]
        while stack:
            path, used = stack.pop()
            for w in adj[path[-1]]:
                steps += 1
                if steps > limit:
                    raise BudgetExceededError(f"cycle enumeration exceeded {limit} steps", required=steps)
                if w == s and len(path) >= 3:
                    if path[1] < path[-1]:
                        cycles.append(canonical_cycle(tuple(path)))
                elif w > s and w not in used:
                    stack.append((path + [w], used | {w}))
    return sorted(cycles, key=lambda c: (len(c), c))
