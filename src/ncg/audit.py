"""Deviation-cost bounds and structural rule checks against exact oracles.

Each bound operation prices a specific strategy rewrite (selling low-level
edges inside the big biconnected piece H, optionally rebuying the edge to
the root) and is compared against the exact cost delta of actually
performing the rewrite: the seller's new distance sum from one BFS per
comparison, its current one from the context's connection costs, both
sides in integer units of 1/q for alpha = p/q.  The structural
checks evaluate quantified statements about H, the shortest path tree, edge
classes, cycles and funnels, reporting one finding per rule.

Rules that presume an equilibrium are gated on an explicit verification
certificate; without one they still run but are flagged informational.
Bound preconditions follow what their derivations actually use: alpha > 2n,
girth >= 7, the seller inside H and distinct from the root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import inf
from operator import attrgetter

from .equilibrium import VerificationReport
from .game import BoughtEdge, StrategyProfile, bfs_distances, bfs_sum, mask_members
# build_context is re-exported: ncg.audit.build_context stays a public name.
from .structure import (
    STRATEGY_SWITCHES,
    Edge,
    LadderEdge,
    StrategyContext,
    _as_edge,
    build_context,
    cycle_directed,
    edge_subtree,
    global_girth,
)

_HAS_CYCLIC_H = attrgetter("has_cyclic_h")
_IN_REGIME = attrgetter("in_regime")
_TARGET = attrgetter("target")
_RECORD = attrgetter("edge", "level")  # a sold edge as BoundComparison lists it

# Each rule's applicability gate, in report order.  A rule whose gate is false
# is inapplicable (holds=None), so it can never fail.
_GATES = {
    "mincyclesize": lambda ctx: True,
    "seven-cycle": lambda ctx: ctx.alpha > 2 * ctx.n,
    "directed-mincycles": lambda ctx: ctx.alpha > 2 * (ctx.n - 1),
    "maxn2": _HAS_CYCLIC_H,
    "altpath": _IN_REGIME,
    "x2position": _IN_REGIME,
    "deg2": _HAS_CYCLIC_H,
    "obs-x1": _IN_REGIME,
    "obs-x2": _IN_REGIME,
    "obs-x2depth": _IN_REGIME,
    "mainlemma1": _IN_REGIME,
    "mainlemma2": _IN_REGIME,
    "degree-sum": _HAS_CYCLIC_H,
}
LEMMA_IDS = tuple(_GATES)

# degree-sum is a combinatorial identity; everything else presumes equilibrium.
_NE_GATED = frozenset(set(LEMMA_IDS) - {"degree-sum"})

# Bound audits price every sell-set of at most this many eligible edges.
MAX_SELL = 2

# audit_full skips a strategy family that would take it past this many
# bound comparisons.
MAX_BOUND_CHECKS = 10_000


# ---------------------------------------------------------------------------
# deviation-cost bounds


def _seller_notes(ctx: StrategyContext, u: int) -> tuple[str, ...]:
    """The precondition notes of u's comparisons that no sold edge affects."""
    notes = []
    if not ctx.has_cyclic_h:
        notes.append("no biconnected component with a cycle")
    elif u not in ctx.h_vertices:
        notes.append(f"vertex {u} outside H")
    elif u == ctx.root:
        notes.append("seller is the root")
    if not ctx.in_regime:  # inside it alpha > 2n and girth >= 7 both hold
        if not ctx.alpha > 2 * ctx.n:
            notes.append("alpha <= 2n")
        if not ctx.girth >= 7:
            notes.append("girth below 7")
    # Only a root of more than the least connection cost in H lets this note
    # fire for a seller in H: one given to build_context explicitly, never
    # its default root nor any of _class_contexts' tied roots.
    if ctx.has_cyclic_h and ctx.connections[ctx.root] > ctx.connections[u]:
        notes.append("root connection cost exceeds seller's")
    return tuple(notes)


def _strategy1(
    ctx: StrategyContext, sizes: tuple[int, ...], sold: tuple[LadderEdge, ...]
) -> tuple[int, int]:
    """Cost-change upper bound for u selling the given bought edges.

    ``sizes`` is |T(v)| along u's tree path [u, parent(u), ..., root].
    Levels are the minimal class levels (the nested classes make the minimal
    level the tightest valid choice); an edge without one counts as level 0.
    Each bound is returned as its integer terms and the multiple of alpha it
    subtracts.
    """
    d = len(sizes) - 1
    value = d * ctx.n - 2 * sum(sizes[:d])
    for sale in sold:
        value += (2 * (sale.level or 0) + 2 * d) * sale.subtree.bit_count()
    return value, len(sold)


def _strategy2(
    ctx: StrategyContext, sizes: tuple[int, ...], sold: tuple[LadderEdge, ...]
) -> tuple[int, int]:
    """Bound for selling the given edges while also buying the edge to the root.

    The midpoint subtree term only exists when the root distance is even;
    the halfway sum runs over strictly smaller path indices.
    """
    d = len(sizes) - 1
    value = ctx.n - 2 * sum(sizes[: (d + 1) // 2])
    if d % 2 == 0:
        value -= sizes[d // 2]
    for sale in sold:
        value += (2 * (sale.level or 0) + d + 1) * sale.subtree.bit_count()
    return value, len(sold) - 1


def _strategy3(
    ctx: StrategyContext, sizes: tuple[int, ...], sold: tuple[LadderEdge, ...]
) -> tuple[int, int]:
    """Bound for the root-rebuy rewrite when the sold set may include u's up-edge.

    Weaker than the previous bound: only u's own subtree contributes savings.
    Up-edges carry no subtree, so their level never affects the value.
    """
    d = len(sizes) - 1
    value = ctx.n - (d + 1) * sizes[0]
    for sale in sold:
        value += (2 * (sale.level or 0) + d + 1) * sale.subtree.bit_count()
    return value, len(sold) - 1


_BOUND_TERMS = {"strategy1": _strategy1, "strategy2": _strategy2, "strategy3": _strategy3}


@dataclass(frozen=True)
class BoundComparison:
    """One bound evaluation against the exact rewrite delta."""

    lemma_id: str
    vertex: int
    sold_edges: tuple[tuple[Edge, int | None], ...]
    bought_r: bool
    bound: Fraction
    exact_delta: Fraction | float
    preconditions_met: bool
    precondition_notes: str
    dominates: bool


def _price(
    ctx: StrategyContext,
    u: int,
    kind: str,
    sold: tuple[LadderEdge, ...],
    notes: tuple[str, ...],
    ne_certificate: VerificationReport | None,
) -> BoundComparison:
    """Price one rewrite with the kind's bound and execute it exactly, given
    the precondition notes found so far.

    Both sides are priced in integer units of 1/q (alpha = p/q): the current
    distance sum is u's connection cost, the new one comes from one BFS on
    the graph with u's row rewritten.
    """
    profile = ctx.profile
    value, times_alpha = _BOUND_TERMS[kind](ctx, ctx.spt.path_sizes[u], sold)
    p, q = profile.alpha.numerator, profile.alpha.denominator
    bound = q * value - p * times_alpha

    new = ctx.rewrite(u, kind, map(_TARGET, sold))
    new_sum = bfs_sum(profile.adj, u, profile.bought_by[u] | new)
    if new_sum is None:
        exact = inf
    else:
        spent = new.bit_count() - profile.bought[u].bit_count()
        exact = p * spent + q * (new_sum - ctx.connections[u])

    if ne_certificate is not None and ne_certificate.is_equilibrium:
        if ne_certificate.profile_hash != ctx.profile_hash:
            notes += ("certificate hash mismatch; ignored",)
        elif exact < 0:
            notes += ("certified equilibrium admits an improving rewrite",)

    return BoundComparison(
        lemma_id=kind,
        vertex=u,
        sold_edges=tuple(map(_RECORD, sold)),
        bought_r=STRATEGY_SWITCHES[kind][1],
        bound=Fraction(bound, q),
        exact_delta=exact if exact == inf else Fraction(exact, q),
        preconditions_met=not notes,
        precondition_notes="; ".join(notes),
        dominates=exact <= bound,
    )


def audit_deviation_bound(
    ctx: StrategyContext,
    u: int,
    strategy_kind: str,
    sold_targets,
    ne_certificate: VerificationReport | None = None,
) -> BoundComparison:
    """Price one rewrite with the selected bound and execute it exactly.

    ``sold_targets`` lists the other endpoints of edges u sells; a target
    that is not a neighbour of u, or that is listed twice, raises
    ``ValueError``.  The value is always computed; ``preconditions_met``
    records whether the bound's own hypotheses held, and ``dominates``
    whether exact <= bound.
    """
    if strategy_kind not in _BOUND_TERMS:
        raise ValueError(f"unknown strategy kind {strategy_kind!r}")
    sells_up, buys_root = STRATEGY_SWITCHES[strategy_kind]
    notes: list[str] = []

    sold: list[LadderEdge] = []
    sold_targets = sorted(sold_targets)
    for i, t in enumerate(sold_targets):
        edge = _as_edge(u, t)
        if t < 0 or not ctx.profile.adj[u] >> t & 1:  # bit t of the row is 0 from t = n on
            raise ValueError(f"{edge} is not an edge of the profile")
        if i and t == sold_targets[i - 1]:
            raise ValueError(f"edge {edge} is sold twice")
        if not ctx.profile.buys(u, t):
            notes.append(f"edge {edge} is not bought by {u}")
        if edge not in ctx.h_edges:
            notes.append(f"edge {edge} lies outside H")
        if not ctx.is_low_level(u, t, sells_up):
            notes.append(f"edge {edge} has no eligible level for {strategy_kind}")
        sold.append(LadderEdge(t, edge, ctx.x_level(edge), edge_subtree(ctx.spt, *edge)))

    if not sold_targets:
        notes.append("no edges sold")
    notes.extend(_seller_notes(ctx, u))
    if buys_root and u == ctx.root:
        notes.append("root cannot buy an edge to itself; rewrite sells only")
    return _price(ctx, u, strategy_kind, tuple(sold), tuple(notes), ne_certificate)


# ---------------------------------------------------------------------------
# structural findings


@dataclass(frozen=True)
class AuditFinding:
    """Verdict for one structural rule on one context."""

    lemma_id: str
    applicable: bool
    holds: bool | None
    informational: bool
    detail: dict = field(compare=False, default_factory=dict)


def _certified(ne_certificate: VerificationReport | None, ctx: StrategyContext) -> bool:
    return (
        ne_certificate is not None
        and ne_certificate.is_equilibrium
        and ne_certificate.profile_hash == ctx.profile_hash
    )


def _finding(lemma_id, applicable, holds, informational, **detail) -> AuditFinding:
    return AuditFinding(lemma_id, applicable, holds if applicable else None, informational, detail)


def audit_structural(
    ctx: StrategyContext,
    lemma_id: str,
    ne_certificate: VerificationReport | None = None,
) -> AuditFinding:
    """Evaluate one structural rule literally over the context."""
    if lemma_id not in LEMMA_IDS:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    informational = lemma_id in _NE_GATED and not _certified(ne_certificate, ctx)
    applicable = _GATES[lemma_id](ctx)
    n = ctx.n
    alpha = ctx.alpha

    if lemma_id == "mincyclesize":
        bound = 2 * alpha / n + 2
        holds = ctx.girth == inf or ctx.girth >= bound
        witness = None
        if not holds:
            # the girth may be realised outside H: the report covers every block
            witness = next(c for c in ctx.cycles.per_edge_cycle.values() if len(c) == ctx.girth)
        return _finding(
            lemma_id, applicable, holds, informational,
            girth=ctx.girth, bound=str(bound), counter_witness=witness,
        )

    if lemma_id == "seven-cycle":
        holds = ctx.girth == inf or ctx.girth >= 7
        return _finding(lemma_id, applicable, holds, informational, girth=ctx.girth)

    if lemma_id == "directed-mincycles":
        return _audit_directed_mincycles(ctx, applicable, informational)

    if lemma_id == "maxn2":
        violations = [
            {"vertex": v, "subtree": ctx.spt.subtree_size[v], "in_h": v in ctx.h_vertices}
            for v in range(n)
            if v != ctx.root and 2 * ctx.spt.subtree_size[v] > n
        ]
        return _finding(
            lemma_id, applicable, not violations, informational, violations=violations
        )

    if lemma_id == "altpath":
        return _audit_altpath_all(ctx, applicable, informational)

    if lemma_id == "x2position":
        rows = []
        ok = True
        for edge, u, level in ctx.ladder_purchases:
            cyc = ctx.cycles.per_vertex_cycle[u]
            required = len(cyc) // 2 - level
            good = ctx.spt.depth[u] >= required
            ok = ok and good
            rows.append(
                {"vertex": u, "edge": edge, "level": level,
                 "cycle_len": len(cyc), "depth": ctx.spt.depth[u], "holds": good}
            )
        return _finding(lemma_id, applicable, ok, informational, checked=rows)

    if lemma_id == "deg2":
        return _audit_deg2(ctx, applicable, informational)

    if lemma_id == "obs-x1":
        offenders = []
        for u in sorted(ctx.h_vertices):
            bought = [e.edge for e in ctx.low_ladder[u] if e.level is None or e.level <= 1]
            if len(bought) >= 2:
                offenders.append({"vertex": u, "edges": bought})
        return _finding(lemma_id, applicable, not offenders, informational, offenders=offenders)

    if lemma_id == "obs-x2":
        triples = []
        thin_pairs = []
        for u in sorted(ctx.h_vertices):
            row = ctx.low_ladder[u]
            if len(row) >= 3:
                triples.append({"vertex": u, "edges": [e.edge for e in row]})
            for e1, e2 in combinations(row, 2):
                union = (e1.subtree | e2.subtree).bit_count()
                if not 4 * union > n:
                    thin_pairs.append({"vertex": u, "edges": [e1.edge, e2.edge], "union": union})
        holds = not triples and not thin_pairs
        return _finding(
            lemma_id, applicable, holds, informational,
            triple_buyers=triples, thin_pairs=thin_pairs,
        )

    if lemma_id == "obs-x2depth":
        rows = []
        ok = True
        for u in sorted(ctx.h_vertices):
            bought = [e for e in ctx.low_ladder[u] if e.level is not None]
            if len(bought) < 2:
                continue
            depth = ctx.spt.depth[u]
            fat_pair = any(
                4 * (e1.subtree | e2.subtree).bit_count() > n for e1, e2 in combinations(bought, 2)
            )
            good = depth >= 3 and (not fat_pair or depth == 3)
            ok = ok and good
            edges = [e.edge for e in bought]
            rows.append({"vertex": u, "depth": depth, "edges": edges, "holds": good})
        return _finding(lemma_id, applicable, ok, informational, checked=rows)

    if lemma_id == "mainlemma1":
        rows = []
        ok = True
        for edge, u0, level in ctx.ladder_purchases:
            if level:
                continue
            prefix = ctx.spt.path_to_root(u0)[:3]
            deg2 = [v for v in prefix if ctx.deg_h(v) == 2]
            good = len(deg2) <= 1
            ok = ok and good
            rows.append(
                {"vertex": u0, "out_edge": edge, "path_prefix": prefix,
                 "deg2_vertices": deg2, "holds": good}
            )
        return _finding(lemma_id, applicable, ok, informational, checked=rows)

    if lemma_id == "mainlemma2":
        buyers = [
            u for u in sorted(ctx.h_vertices)
            if sum(e.level is not None for e in ctx.low_ladder[u]) >= 2
        ]
        deg_r = ctx.deg_h(ctx.root) if ctx.has_cyclic_h else 0
        holds = len(buyers) < deg_r
        return _finding(
            lemma_id, applicable, holds, informational,
            double_buyers=buyers, root_degree=deg_r,
        )

    if lemma_id == "degree-sum":
        # the tree edges inside a block span it, wherever the root is
        n_h = len(ctx.h_vertices)
        x0 = sum(1 for c in ctx.x_classes.values() if c.level == 0)
        degree_sum = sum(ctx.deg_h(v) for v in ctx.h_vertices)
        holds = degree_sum == 2 * (n_h - 1) + 2 * x0
        return _finding(
            lemma_id, applicable, holds, False,
            spanning=applicable, degree_sum=degree_sum, n_h=n_h, out_edges=x0,
        )

    raise AssertionError(f"unhandled lemma id {lemma_id}")


def _audit_directed_mincycles(ctx, applicable, informational) -> AuditFinding:
    coverage, min_cycles = ctx.min_cycles  # once per context; only ownership is read here
    bad = [c for c in min_cycles if not cycle_directed(ctx.profile, c)]
    return _finding(
        "directed-mincycles", applicable, not bad, informational,
        coverage=coverage, min_cycle_count=len(min_cycles), non_directed=bad,
    )


def _audit_deg2(ctx, applicable, informational) -> AuditFinding:
    """Each directed path u -> v -> w through a vertex v of H-degree 2: v's
    funnel, v and the vertices outside H entering H at v, against
    alpha / (2(|C| - 3)) for v's cycle C and against |T(w)| when both edges
    are down-edges."""
    rows = []
    ok = True
    cycle_bounds: dict[int, Fraction] = {}  # cycle length -> alpha / (2(length - 3))
    for v in sorted(ctx.h_vertices):
        if ctx.deg_h(v) != 2:
            continue
        a, b = ctx.h_neighbours[v]
        for u, w in ((a, b), (b, a)):
            if not (ctx.profile.buys(u, v) and ctx.profile.buys(v, w)):
                continue
            funnel_size = 1 + ctx.h_attachment[v]
            row = {"path": (u, v, w), "funnel_size": funnel_size}
            cyc = ctx.cycles.per_vertex_cycle[v]
            if len(cyc) > 3:
                if len(cyc) not in cycle_bounds:
                    cycle_bounds[len(cyc)] = ctx.alpha / (2 * (len(cyc) - 3))
                required = cycle_bounds[len(cyc)]
                good = funnel_size >= required
                row["cycle_bound"] = str(required)
                row["cycle_bound_holds"] = good
                ok = ok and good
            else:
                row["cycle_bound"] = "gated (cycle length 3 or none)"
            if ctx.spt.down_child(u, v) == v and ctx.spt.down_child(v, w) == w:
                good = funnel_size >= ctx.spt.subtree_size[w]
                row["subtree_bound"] = ctx.spt.subtree_size[w]
                row["subtree_bound_holds"] = good
                ok = ok and good
            rows.append(row)
    return _finding("deg2", applicable, ok, informational, checked=rows)


def audit_altpath(ctx: StrategyContext, u: int, edge, ne_certificate=None) -> AuditFinding:
    """Check the detour guarantee below one sold edge: every subtree vertex
    keeps a root route of length depth + 2*level that avoids the seller."""
    edge = _as_edge(*edge)
    informational = not _certified(ne_certificate, ctx)
    level = ctx.x_level(edge)
    bought = u in edge and ctx.profile.buys(u, edge[0] if edge[1] == u else edge[1])
    if not (ctx.in_regime and bought and level is not None and level <= 2):
        return _finding("altpath", False, None, informational, vertex=u, edge=edge)

    subtree = mask_members(edge_subtree(ctx.spt, *edge))
    margins = {}
    holds = True
    detour = bfs_distances(ctx.profile.adj, ctx.root, blocked=1 << u)
    for w in subtree:
        allowed = ctx.spt.depth[w] + 2 * level
        actual = detour[w]
        margin = inf if actual == inf else allowed - actual
        margins[w] = margin
        if actual == inf or actual > allowed:
            holds = False
    return _finding(
        "altpath", True, holds, informational,
        vertex=u, edge=edge, level=level, margins=margins, subtree_size=len(subtree),
    )


def _audit_altpath_all(ctx, applicable, informational) -> AuditFinding:
    per_edge = []
    ok = True
    for edge, u, level in ctx.ladder_purchases:
        sub = audit_altpath(ctx, u, edge)
        if sub.applicable:
            ok = ok and bool(sub.holds)
            per_edge.append({"vertex": u, "edge": edge, "level": level, "holds": sub.holds})
    return _finding("altpath", applicable, ok, informational, checked=per_edge)


# ---------------------------------------------------------------------------
# full audit


@dataclass(frozen=True)
class AuditReport:
    """Every structural finding plus every bound comparison for one context."""

    findings: tuple[AuditFinding, ...]
    bounds: tuple[BoundComparison, ...]
    skipped: tuple[str, ...]
    summary: dict = field(compare=False, default_factory=dict)


def eligible_sold_selections(ctx: StrategyContext, strategy_kind: str):
    """All (vertex, sold-target-tuple) pairs a strategy audit can price:
    ``sell_sets`` of every H vertex, at most ``MAX_SELL`` edges each."""
    for u in sorted(ctx.h_vertices):
        for sold in ctx.sell_sets(u, strategy_kind, MAX_SELL):
            yield u, sold


def _bound_comparisons(
    ctx: StrategyContext, ne_certificate: VerificationReport | None
) -> tuple[list[BoundComparison], list[str]]:
    """Every bound comparison, family by family, and a note for each family
    skipped because it would take the total past ``MAX_BOUND_CHECKS``.

    One walk over H's non-root vertices splits each seller's ``low_ladder``
    row into its sales without and with the up-edge and finds its
    precondition notes, once; every family prices ``eligible_sold_selections``
    from them, in its order, each bound from the seller's cached
    ``spt.path_sizes``.  Such a sale has no precondition note of its own, so
    each comparison starts from its seller's.
    """
    sellers = []
    if ctx.has_cyclic_h:
        for u in sorted(ctx.h_vertices - {ctx.root}):
            every = ctx.low_ladder[u]
            if every:  # else it sells nothing
                low = [sale for sale in every if sale.level is not None]
                sellers.append((u, _seller_notes(ctx, u), {False: low, True: every}))
    bounds: list[BoundComparison] = []
    skipped: list[str] = []
    for kind, (sells_up, _) in STRATEGY_SWITCHES.items():
        family = [
            (u, notes, sold)
            for u, notes, sales in sellers
            for k in range(1, MAX_SELL + 1)
            for sold in combinations(sales[sells_up], k)
        ]
        if len(bounds) + len(family) > MAX_BOUND_CHECKS:
            skipped.append(f"{kind}: {len(family)} selections over budget {MAX_BOUND_CHECKS}")
            continue
        for u, notes, sold in family:
            bounds.append(_price(ctx, u, kind, sold, notes, ne_certificate))
    return bounds, skipped


def _violated(b: BoundComparison) -> bool:
    return b.preconditions_met and not b.dominates


def audit_full(
    ctx: StrategyContext, ne_certificate: VerificationReport | None = None
) -> AuditReport:
    """Run every structural rule and every bound comparison, up to
    ``MAX_BOUND_CHECKS`` of them."""
    findings = tuple(
        audit_structural(ctx, lemma_id, ne_certificate) for lemma_id in LEMMA_IDS
    )
    bounds, skipped = _bound_comparisons(ctx, ne_certificate)

    applicable = sum(1 for f in findings if f.applicable)
    holding = sum(1 for f in findings if f.applicable and f.holds)
    failing = sum(1 for f in findings if f.applicable and f.holds is False)
    return AuditReport(
        findings=findings,
        bounds=tuple(bounds),
        skipped=tuple(skipped),
        summary={
            "findings_applicable": applicable,
            "findings_holding": holding,
            "findings_failing": failing,
            "bounds_checked": len(bounds),
            "bound_violations": sum(1 for b in bounds if _violated(b)),
        },
    )


def audit_failures(ctx: StrategyContext, ne_certificate: VerificationReport | None = None) -> int:
    """``findings_failing + bound_violations`` of ``audit_full``, without the
    work that cannot count: a rule whose gate is false is not evaluated, and
    outside the regime no bound is priced, since every comparison there notes
    an unmet precondition."""
    failing = sum(
        1
        for lemma_id, gate in _GATES.items()
        if gate(ctx) and audit_structural(ctx, lemma_id, ne_certificate).holds is False
    )
    if ctx.in_regime:
        bounds, _ = _bound_comparisons(ctx, ne_certificate)
        failing += sum(1 for b in bounds if _violated(b))
    return failing


# ---------------------------------------------------------------------------
# scaffold instances for bound audits


def scaffold_profile(seed: int) -> StrategyProfile:
    """Seeded girth->=7 test instance: a ring with hanging trees, random
    ownership, sometimes one long chord, and alpha drawn above 2n."""
    rng = random.Random(seed)
    ring = rng.randint(7, 12)
    extra = rng.randint(0, ring)
    n = ring + extra

    edges: list[BoughtEdge] = []
    directed_ring = rng.random() < 0.5
    for i in range(ring):
        j = (i + 1) % ring
        if directed_ring:
            edges.append(BoughtEdge(i, j))
        else:
            a, b = (i, j) if rng.random() < 0.5 else (j, i)
            edges.append(BoughtEdge(a, b))

    for v in range(ring, n):
        anchor = rng.randrange(v)  # attach to any earlier vertex: random trees
        a, b = (anchor, v) if rng.random() < 0.5 else (v, anchor)
        edges.append(BoughtEdge(a, b))

    if ring >= 12 and rng.random() < 0.5:
        a = rng.randrange(ring)
        offset = rng.randint(6, ring - 6)
        b = (a + offset) % ring
        buyer, other = (a, b) if rng.random() < 0.5 else (b, a)
        if _as_edge(a, b) not in {e.endpoints() for e in edges}:
            edges.append(BoughtEdge(buyer, other))

    if rng.random() < 0.5:
        alpha = Fraction(2 * n + rng.randint(1, n))
    else:
        alpha = Fraction(4 * n + 2 * rng.randint(1, n) - 1, 2)  # half-integer above 2n

    profile = StrategyProfile(n, alpha, tuple(edges))
    assert global_girth(profile) >= 7
    return profile
