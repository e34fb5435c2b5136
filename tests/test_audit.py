"""Bound formulas vs the exact rewrite oracle, plus structural rule findings."""

import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadgets import (
    directed_ring,
    figure_gadget,
    path3,
    profile,
    ring_with_pendant,
    two_triangles,
    up_and_out_seller,
)
from oracle import (
    oracle_altpath,
    oracle_bound,
    oracle_context,
    oracle_girth_witness,
    oracle_s_set_all_paths,
    oracle_sell_selections,
)
from strategies import connected_profiles, regime_profiles, sparse_connected_profiles

from ncg import (
    BoughtEdge,
    BudgetExceededError,
    DeviationClass,
    StrategyProfile,
    audit_deviation_bound,
    audit_full,
    audit_structural,
    build_context,
    delta_cost,
    scaffold_profile,
    verify_equilibrium,
)
from ncg.audit import (
    _BOUND_TERMS,
    MAX_SELL,
    audit_failures,
    eligible_sold_selections,
)
from ncg.equilibrium import _class_contexts, profile_from_index
from ncg.game import is_connected, mask_members
from ncg.harness import enumerate_cell
from ncg.structure import LadderEdge, edge_subtree, global_girth


# ---------------------------------------------------------------------------
# fixtures realising the hand-evaluated parameter sets


def depth1_seller(alpha=21):
    """n=10; seller 3 at depth 1 with |T(3)|=2 buys the out-edge (2, 3)."""
    pairs = [(0, 1), (0, 3), (1, 2), (3, 2), (3, 4),
             (0, 5), (0, 6), (0, 7), (0, 8), (0, 9)]
    return profile(10, alpha, pairs)


def depth2_seller(alpha=21):
    """n=10; seller 2 at depth 2, |T(1)|=3, |T(2)|=2, out-edge (2, 6)."""
    pairs = [(0, 1), (1, 2), (2, 3), (0, 5), (5, 6), (2, 6),
             (0, 4), (0, 7), (0, 8), (0, 9)]
    return profile(10, alpha, pairs)


def depth3_seller(alpha=21):
    """n=10; seller 3 at depth 3, |T(2)|=3, |T(3)|=2, out-edge (3, 7)."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (3, 7),
             (0, 8), (0, 9)]
    return profile(10, alpha, pairs)


def _ctx(p):
    return build_context(p)


def test_depth1_fixture_shape():
    ctx = _ctx(depth1_seller())
    assert ctx.root == 0
    assert ctx.spt.depth[3] == 1
    assert ctx.spt.subtree_size[3] == 2
    assert ctx.x_level((2, 3)) == 0
    assert ctx.profile.buys(3, 2)


def test_context_root_degrees_by_ownership():
    ctx = _ctx(directed_ring(7, 29))
    assert ctx.deg_h(0) == 2


# ---------------------------------------------------------------------------
# bound values (hand evaluations)


def _terms_bound(ctx, u, kind, sold):
    """``_BOUND_TERMS[kind]`` as an exact Fraction: the integer terms minus
    their alpha multiple, for the (edge, level) pairs ``sold``."""
    sales = tuple(LadderEdge(None, e, level, edge_subtree(ctx.spt, *e)) for e, level in sold)
    value, times_alpha = _BOUND_TERMS[kind](ctx, ctx.spt.path_sizes[u], sales)
    return value - times_alpha * ctx.alpha


# Each sold edge below has the level the hand evaluation uses (an up-edge
# counts as level 0), so the audit prices the same bound.


def test_strategy1_bound_depth1():
    ctx = _ctx(depth1_seller(alpha=21))
    assert audit_deviation_bound(ctx, 3, "strategy1", [2]).bound == Fraction(-15)


def test_strategy1_bound_cancels_at_critical_alpha():
    ctx = _ctx(depth1_seller(alpha=6))  # alpha = d*n - sum 2|T(u_l)| exactly
    assert audit_deviation_bound(ctx, 3, "strategy1", [2]).bound == 0


def test_strategy2_bound_even_depth_has_midpoint_term():
    ctx = _ctx(depth2_seller())
    assert ctx.root == 0
    assert ctx.spt.depth[2] == 2
    assert ctx.spt.subtree_size[1] == 3
    assert ctx.spt.subtree_size[2] == 2
    assert ctx.x_level((2, 6)) == 0
    assert audit_deviation_bound(ctx, 2, "strategy2", [6]).bound == Fraction(3)


def test_strategy2_bound_odd_depth_drops_midpoint_term():
    ctx = _ctx(depth3_seller())
    assert ctx.spt.depth[3] == 3
    assert ctx.spt.subtree_size[3] == 2
    assert ctx.spt.subtree_size[2] == 3
    assert ctx.x_level((3, 7)) == 0
    assert audit_deviation_bound(ctx, 3, "strategy2", [7]).bound == Fraction(0)


def test_strategy3_bound_two_weightless_edges():
    ctx = _ctx(up_and_out_seller())
    assert ctx.root == 0
    assert ctx.spt.depth[1] == 1
    assert ctx.spt.subtree_size[1] == 4
    assert ctx.spt.down_child(0, 1) is None and ctx.spt.parent[1] == 0  # 1's up-edge
    assert ctx.is_low_level(1, 0, include_up=True)
    assert ctx.x_level((1, 5)) == 0
    assert audit_deviation_bound(ctx, 1, "strategy3", [0, 5]).bound == Fraction(-19)


def test_strategy3_bound_leaf_seller():
    ctx = _ctx(up_and_out_seller())
    assert ctx.spt.subtree_size[5] == 1
    assert ctx.profile.buys(5, 1)
    assert ctx.x_level((1, 5)) == 0
    assert audit_deviation_bound(ctx, 5, "strategy3", [1]).bound == Fraction(8)


# ---------------------------------------------------------------------------
# bound audits against the oracle


def test_bound_audit_on_tree_is_inapplicable():
    ctx = _ctx(path3(alpha=7))
    cmp = audit_deviation_bound(ctx, 1, "strategy1", [2])
    assert not cmp.preconditions_met
    assert "no biconnected component" in cmp.precondition_notes


def test_bound_audit_rejects_up_edge_for_strategy1():
    ctx = _ctx(directed_ring(7, 29))
    cmp = audit_deviation_bound(ctx, 4, "strategy1", [5])  # (4,5) is 4's up-edge
    assert not cmp.preconditions_met
    assert "no eligible level" in cmp.precondition_notes


def test_bound_audit_rejects_a_sold_non_edge():
    ctx = _ctx(directed_ring(7, 29))
    for kind in ("strategy1", "strategy2", "strategy3"):
        with pytest.raises(ValueError, match=r"\(0, 3\) is not an edge"):
            audit_deviation_bound(ctx, 0, kind, [3])
        with pytest.raises(ValueError, match="not an edge"):
            audit_deviation_bound(ctx, 3, kind, [4, 0])


def test_bound_audit_rejects_a_target_out_of_range_or_sold_twice():
    ctx = build_context(scaffold_profile(0))
    # (8, 9) sold twice once priced -28 against an exact -13, a false
    # violation of Strategy 1's bound; sold once it prices -1
    assert audit_deviation_bound(ctx, 8, "strategy1", (9,)).bound == -1
    with pytest.raises(ValueError, match=r"edge \(8, 9\) is sold twice"):
        audit_deviation_bound(ctx, 8, "strategy1", (9, 9))
    for t in (-1, ctx.n, ctx.n + 5):
        with pytest.raises(ValueError, match="is not an edge"):
            audit_deviation_bound(ctx, 8, "strategy1", (t,))


def test_bound_audit_dominates_on_directed_ring():
    ctx = _ctx(directed_ring(7, 29))
    cmp = audit_deviation_bound(ctx, 3, "strategy1", [4])  # the out-edge buyer
    assert cmp.preconditions_met
    assert cmp.bound == Fraction(-20)
    assert cmp.exact_delta == Fraction(-20)
    assert cmp.dominates


def test_bound_audit_certificate_mismatch_noted():
    p = directed_ring(7, 29)
    other = verify_equilibrium(path3(alpha=5))
    cmp = audit_deviation_bound(_ctx(p), 3, "strategy1", [4], ne_certificate=other)
    assert "hash mismatch" in cmp.precondition_notes


ROOT_COST_NOTE = "root connection cost exceeds seller's"


def _root_cost_notes(ctx) -> list[bool]:
    return [ROOT_COST_NOTE in b.precondition_notes for b in audit_full(ctx).bounds]


def test_root_cost_note_fires_only_at_an_explicit_costlier_root():
    # root 9 of scaffold 0 costs more than every seller in H
    p = scaffold_profile(0)
    ctx = build_context(p)
    assert _root_cost_notes(build_context(p, ctx, 9)) == [True] * 13
    assert _root_cost_notes(ctx) == [False] * 13
    # scaffold 3 ties H vertices 0, 1 and 7 at the least connection cost: the
    # class contexts root at each of them, and no seller costs less
    p = scaffold_profile(3)
    contexts = _class_contexts(p, DeviationClass.parse("paper-strategy-3"))
    assert [c.root for c in contexts] == [0, 1, 7]
    for c in contexts:
        notes = _root_cost_notes(c)
        assert notes and not any(notes), c.root


def test_bound_domination_on_seeded_scaffolds():
    checked = {"strategy1": 0, "strategy2": 0, "strategy3": 0}
    for seed in range(40):
        p = scaffold_profile(seed)
        ctx = build_context(p)
        for kind in checked:
            for u, combo in eligible_sold_selections(ctx, kind):
                cmp = audit_deviation_bound(ctx, u, kind, combo)
                assert isinstance(cmp.bound, Fraction)
                assert cmp.preconditions_met, cmp.precondition_notes
                assert cmp.dominates, (seed, kind, u, combo, cmp)
                checked[kind] += 1
    assert all(count >= 40 for count in checked.values()), checked


@example(directed_ring(7, 29))
@example(up_and_out_seller())
@example(figure_gadget())
@given(
    st.one_of(
        connected_profiles(max_n=7),
        sparse_connected_profiles(max_n=10),
        st.integers(0, 999).map(scaffold_profile),
    )
)
@settings(max_examples=60, deadline=None)
def test_sold_selections_match_oracle(p):
    ctx = build_context(p)
    for kind in ("strategy1", "strategy2", "strategy3"):
        got = list(eligible_sold_selections(ctx, kind))
        assert got == oracle_sell_selections(ctx, kind, MAX_SELL), kind


@given(
    st.one_of(
        connected_profiles(max_n=7),
        sparse_connected_profiles(max_n=10),
        st.integers(0, 999).map(scaffold_profile),
    )
)
@example(two_triangles(Fraction(1, 2)))  # alpha < 1
@example(ring_with_pendant(Fraction(7, 3)))  # fractional alpha; 3 and 7 sell bridges
@example(scaffold_profile(2))  # alpha 41/2, above 2n
@example(directed_ring(7, 29))  # the root 0 sells under strategy2 and buys nothing
@example(path3(alpha=5))  # every sale disconnects
@settings(max_examples=40, deadline=None)
def test_bound_audit_integer_pricing_matches_fractions(p):
    # Every vertex sells every set of at most two neighbours, eligible or
    # not: the integer pricing must give delta_cost's exact delta and the
    # bound terms' value in Fractions whatever the preconditions say.
    ctx = build_context(p)
    for u in range(p.n):
        neighbours = mask_members(p.adj[u])
        sales = [()] + [(t,) for t in neighbours] + [
            (a, b) for i, a in enumerate(neighbours) for b in neighbours[i + 1:]
        ]
        for kind in _BOUND_TERMS:
            for sold in sales:
                cmp = audit_deviation_bound(ctx, u, kind, sold)
                levels = [((min(u, t), max(u, t)), ctx.x_level((u, t)) or 0) for t in sold]
                new_targets = frozenset(mask_members(p.bought[u])) - set(sold)
                if kind != "strategy1" and u != ctx.root:
                    new_targets |= {ctx.root}
                assert cmp.bound == _terms_bound(ctx, u, kind, levels)
                assert isinstance(cmp.bound, Fraction)
                assert cmp.exact_delta == delta_cost(p, u, new_targets), (u, kind, sold)
                assert cmp.dominates == (cmp.exact_delta <= cmp.bound)


def _oracle_bounds(p, certificate):
    """``oracle_bound`` over every selection ``audit_full`` prices, in its order."""
    ctx = oracle_context(p)
    return [
        oracle_bound(ctx, u, kind, sold, certificate)
        for kind in ("strategy1", "strategy2", "strategy3")
        for u, sold in oracle_sell_selections(ctx, kind, MAX_SELL)
    ]


def _summed_failures(report):
    return report.summary["findings_failing"] + report.summary["bound_violations"]


def _check_bound_pricing(p, certificate):
    want = _oracle_bounds(p, certificate)
    report = audit_full(build_context(p), certificate)
    assert list(report.bounds) == want
    # the sweep row's count skips gated rules and out-of-regime bounds
    assert audit_failures(build_context(p), certificate) == _summed_failures(report)
    # the per-call path on a fresh context, whose pricing tables start empty
    ctx = build_context(p)
    got = [
        audit_deviation_bound(ctx, u, kind, sold, certificate)
        for kind in ("strategy1", "strategy2", "strategy3")
        for u, sold in eligible_sold_selections(ctx, kind)
    ]
    assert got == want


@pytest.mark.parametrize("block", range(4))
def test_bound_pricing_matches_oracle_on_scaffolds(block):
    # uncertified, with the paper-strategy-3 report, with that report turned
    # into a (false) equilibrium claim, and with a certificate of another
    # profile: every bound, exact delta and note
    mismatched = verify_equilibrium(path3(alpha=5))
    for seed in range(50 * block, 50 * block + 50):
        p = scaffold_profile(seed)
        strategy3 = verify_equilibrium(p, DeviationClass.parse("paper-strategy-3"))
        claimed = replace(strategy3, is_equilibrium=True, witness=None)
        for certificate in (None, strategy3, claimed, mismatched):
            _check_bound_pricing(p, certificate)


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(9)], ids=str)
def test_bound_pricing_matches_oracle_on_n4_equilibria(alpha):
    for p, certificate in enumerate_cell(4, alpha, DeviationClass.parse("exact")).equilibria:
        _check_bound_pricing(p, certificate)
        _check_bound_pricing(p, None)


def test_bound_audit_prices_a_disconnecting_rewrite_as_inf():
    cmp = audit_deviation_bound(build_context(ring_with_pendant(Fraction(7, 3))), 3, "strategy1", [7])
    assert cmp.exact_delta == inf and not cmp.dominates


def test_root_seller_under_strategy2_only_sells():
    ctx = build_context(directed_ring(7, 29))
    cmp = audit_deviation_bound(ctx, ctx.root, "strategy2", [1])
    assert "root cannot buy an edge to itself" in cmp.precondition_notes
    assert cmp.exact_delta == delta_cost(ctx.profile, ctx.root, set())


def test_scaffolds_have_high_girth_and_alpha():
    for seed in range(25):
        p = scaffold_profile(seed)
        assert global_girth(p) >= 7
        assert p.alpha > 2 * p.n
    assert scaffold_profile(7) == scaffold_profile(7)


# ---------------------------------------------------------------------------
# structural findings


def test_tree_input_gates_h_rules():
    ctx = _ctx(path3(alpha=7))
    for lemma in ("maxn2", "x2position", "deg2", "obs-x1", "obs-x2",
                  "obs-x2depth", "mainlemma1", "mainlemma2", "degree-sum"):
        finding = audit_structural(ctx, lemma)
        assert not finding.applicable, lemma
        assert finding.holds is None
    # cycle statements hold vacuously on trees
    for lemma in ("mincyclesize", "seven-cycle", "directed-mincycles"):
        finding = audit_structural(ctx, lemma)
        assert finding.applicable and finding.holds, lemma


def test_girth_rule_counterexample_under_restricted_certificate():
    # complete triangle is an equilibrium under single-add (nothing to add),
    # yet its girth violates the price bound
    tri = directed_ring(3, 4)
    certificate = verify_equilibrium(tri, DeviationClass.parse("single-add"))
    assert certificate.is_equilibrium
    finding = audit_structural(_ctx(tri), "mincyclesize", certificate)
    assert finding.applicable and not finding.informational
    assert finding.holds is False
    assert finding.detail["counter_witness"] is not None


def test_girth_rule_informational_pass_on_big_ring():
    finding = audit_structural(_ctx(directed_ring(9, 22)), "mincyclesize")
    assert finding.informational
    assert finding.holds is True  # 9 >= 2*22/9 + 2


def test_girth_rule_witness_outside_largest_component():
    # five-ring is H, but the violating triangle hangs off a bridge
    pairs = [(i, (i + 1) % 5) for i in range(5)] + [(4, 5), (5, 6), (6, 7), (7, 5)]
    finding = audit_structural(_ctx(profile(8, 40, pairs)), "mincyclesize")
    assert finding.holds is False
    assert finding.detail["girth"] == 3
    assert len(finding.detail["counter_witness"]) == 3


@given(st.one_of(connected_profiles(max_n=9), sparse_connected_profiles(max_n=10)))
# two triangles joined by the path 2-3-4: H is one triangle, the other lies outside it
@example(profile(7, 40, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)]))
# H is a five-ring; a smaller triangle hangs off it by a bridge
@example(profile(8, 40, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6), (6, 7), (7, 5)]))
@settings(max_examples=80, deadline=None)
def test_girth_rule_witness_matches_every_edge_search(p):
    finding = audit_structural(_ctx(p), "mincyclesize")
    girth = global_girth(p)
    assert finding.holds == (girth == inf or girth >= 2 * p.alpha / p.n + 2)
    want = None if finding.holds else oracle_girth_witness(p, girth)
    assert finding.detail["counter_witness"] == want


def test_directed_mincycles_on_rings():
    good = audit_structural(_ctx(directed_ring(9, 22)), "directed-mincycles")
    assert good.applicable and good.holds
    # one vertex buying both its ring edges breaks directedness
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (0, 8)]
    bad = audit_structural(_ctx(profile(9, 22, pairs)), "directed-mincycles")
    assert bad.applicable and bad.holds is False


def test_maxn2_on_figure_gadget():
    finding = audit_structural(_ctx(figure_gadget()), "maxn2")
    assert finding.applicable
    assert finding.holds  # ring subtrees never exceed n/2


def test_obs_rules_on_figure_gadget():
    ctx = _ctx(figure_gadget())
    for lemma in ("obs-x1", "obs-x2", "obs-x2depth"):
        finding = audit_structural(ctx, lemma)
        assert finding.applicable, lemma
        assert finding.informational  # no certificate supplied
        assert finding.holds, lemma


def test_x2position_on_directed_ring():
    ctx = _ctx(directed_ring(7, 29))
    finding = audit_structural(ctx, "x2position")
    assert finding.applicable
    # only the out-edge buyer at depth 3 carries a low level: 3 >= 7//2 - 0
    assert finding.holds
    assert any(row["vertex"] == 3 for row in finding.detail["checked"])


def test_degree_sum_identity_on_rings():
    finding = audit_structural(_ctx(directed_ring(9, 1)), "degree-sum")
    assert finding.applicable  # ring minus one edge spans H
    assert finding.holds
    assert finding.detail["out_edges"] == 1


def test_deg2_rows_on_directed_ring():
    ctx = _ctx(directed_ring(9, 1))
    finding = audit_structural(ctx, "deg2")
    assert finding.applicable
    rows = finding.detail["checked"]
    assert rows, "expected directed deg-2 paths on the ring"
    for row in rows:
        v = row["path"][1]
        funnel = oracle_s_set_all_paths(ctx.profile, ctx.dist, ctx.h_vertices - {v}, v)
        assert row["funnel_size"] == len(funnel)


def test_unknown_lemma_rejected():
    with pytest.raises(ValueError):
        audit_structural(_ctx(path3()), "no-such-rule")


# ---------------------------------------------------------------------------
# altpath


def _altpath_row(ctx, u, edge):
    rows = audit_structural(ctx, "altpath").detail["checked"]
    return next(row for row in rows if (row["vertex"], row["edge"]) == (u, edge))


def test_altpath_vacuous_on_out_edge():
    # a level-0 edge carries no subtree: nothing below it needs a detour
    row = _altpath_row(_ctx(figure_gadget()), 5, (5, 6))
    assert row == {"vertex": 5, "edge": (5, 6), "level": 0, "holds": True}


def test_altpath_level1_down_edge_has_detour():
    # level 1, subtree {5}: the detour 0-10-9-8-7-6-5 is 6 long, within 5 + 2
    row = _altpath_row(_ctx(figure_gadget()), 4, (4, 5))
    assert row == {"vertex": 4, "edge": (4, 5), "level": 1, "holds": True}


def test_altpath_gated_below_girth_seven():
    finding = audit_structural(_ctx(directed_ring(6, 13)), "altpath")
    assert not finding.applicable
    assert finding.detail["checked"] == []  # rows are listed in the regime only


def _altpath_slacks(ctx):
    """The least slack of each altpath row, after checking the rows against
    ``oracle_altpath``."""
    checked = oracle_altpath(ctx)
    assert audit_structural(ctx, "altpath").detail["checked"] == [row for row, _ in checked]
    return [slack for _, slack in checked]


def test_altpath_rows_match_oracle_on_scaffolds():
    slacks = [s for seed in range(1000) for s in _altpath_slacks(_ctx(scaffold_profile(seed)))]
    assert len(slacks) == 2547
    assert slacks.count(0) == 65  # rows whose detour exactly meets its allowance


@given(regime_profiles(), st.data())
@settings(max_examples=60, deadline=None)
def test_altpath_rows_match_oracle_in_regime(p, data):
    # the default root and another H vertex; an edge bought by both ends
    # puts its child seller below the edge, so rows fail too
    ctx = build_context(p)
    root = data.draw(st.sampled_from(sorted(ctx.h_vertices)))
    for rooted in (ctx, build_context(p, ctx, root)):
        assert rooted.in_regime
        _altpath_slacks(rooted)


# ---------------------------------------------------------------------------
# full audit


def test_audit_full_on_tree_equilibrium():
    p = path3(alpha=7)
    certificate = verify_equilibrium(p)
    report = audit_full(_ctx(p), certificate)
    by_id = {f.lemma_id: f for f in report.findings}
    assert not by_id["maxn2"].applicable
    assert not by_id["degree-sum"].applicable
    assert report.bounds == ()
    assert report.summary["bound_violations"] == 0


def test_audit_full_informational_without_certificate():
    report = audit_full(_ctx(directed_ring(3, 4)))
    assert all(f.informational for f in report.findings if f.lemma_id != "degree-sum")


def test_audit_full_on_scaffold_counts_everything():
    ctx = build_context(scaffold_profile(3))
    report = audit_full(ctx)
    assert report.summary["bounds_checked"] == len(report.bounds)
    assert report.summary["bound_violations"] == 0
    assert not report.skipped
    assert {f.lemma_id for f in report.findings} == {
        "mincyclesize", "seven-cycle", "directed-mincycles", "maxn2", "altpath",
        "x2position", "deg2", "obs-x1", "obs-x2", "obs-x2depth",
        "mainlemma1", "mainlemma2", "degree-sum",
    }


def test_audit_full_reports_skipped_families_on_tiny_budget(monkeypatch):
    monkeypatch.setattr("ncg.audit.MAX_BOUND_CHECKS", 0)
    ctx = build_context(scaffold_profile(3))
    report = audit_full(ctx)
    assert report.skipped
    assert audit_failures(ctx) == _summed_failures(report)


@pytest.mark.parametrize("budget", [8, 10_000])
def test_audit_failures_counts_violated_bounds_like_audit_full(monkeypatch, budget):
    # a deliberately false bound makes every comparison whose preconditions
    # hold a violation: in regime they all count, outside it none may; at
    # budget 8 scaffold 3's strategy3 family is skipped
    monkeypatch.setattr("ncg.audit.MAX_BOUND_CHECKS", budget)
    false_bound = lambda ctx, u, sold: (-(10**9), 0)
    monkeypatch.setattr(
        "ncg.audit._BOUND_TERMS", dict.fromkeys(("strategy1", "strategy2", "strategy3"), false_bound)
    )
    in_regime = build_context(scaffold_profile(3))
    report = audit_full(in_regime)
    assert report.summary["bound_violations"] > 0
    assert audit_failures(in_regime) == _summed_failures(report)
    outside = build_context(directed_ring(4, 9))  # alpha > 2n, girth 4
    report = audit_full(outside)
    assert report.summary["bounds_checked"] > 0 and report.summary["bound_violations"] == 0
    assert audit_failures(outside) == _summed_failures(report)


@pytest.mark.parametrize("alpha, failing_rule", [(4, "mincyclesize"), (11, "seven-cycle")])
def test_audit_failures_on_single_add_certificates(alpha, failing_rule):
    # connected n=5 profiles stable under single-add but mostly not NE: the
    # certificate gates the rules, and most of them fail the named one
    rng = random.Random(alpha)
    single_add = DeviationClass.parse("single-add")
    fails = 0
    for _ in range(40):
        p, report = None, None
        while report is None or not report.is_equilibrium:
            p = profile_from_index(5, Fraction(alpha), rng.randrange(3**10))
            report = verify_equilibrium(p, single_add) if is_connected(p) else None
        full = audit_full(build_context(p), report)
        assert audit_failures(build_context(p), report) == _summed_failures(full)
        fails += any(f.lemma_id == failing_rule and f.holds is False for f in full.findings)
    assert fails > 20


def _drawn_contexts(test):
    """Hypothesis draws of connected and sparse profiles and of scaffolds."""
    # H is a five-ring; a smaller triangle hangs off it by a bridge
    ring_and_triangle = profile(
        8, 40, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 5), (5, 6), (6, 7), (7, 5)]
    )
    for p in (ring_and_triangle, scaffold_profile(0), figure_gadget()):
        test = example(p)(test)
    draws = st.one_of(
        connected_profiles(max_n=8),
        sparse_connected_profiles(max_n=10),
        st.integers(0, 999).map(scaffold_profile),
    )
    return given(draws)(settings(max_examples=60, deadline=None)(test))


@_drawn_contexts
def test_public_call_context_audits_like_build_context(p):
    # the benchmark's traced re-drive assembles contexts this way and
    # requires the same context and the same report, details included
    ctx, ref = oracle_context(p), build_context(p)
    assert ctx == ref
    got, want = audit_full(ctx), audit_full(ref)
    assert got == want and got.summary == want.summary
    assert [f.detail for f in got.findings] == [f.detail for f in want.findings]


@_drawn_contexts
def test_audit_failures_count_like_audit_full(p):
    # audit_failures reads the rule table itself, not audit_structural:
    # uncertified, and with the exact certificate where there is one, it
    # counts the failing findings and bound violations audit_full reports
    certificates = [None]
    try:
        report = verify_equilibrium(p)
    except BudgetExceededError:
        report = None
    if report is not None and report.is_equilibrium:
        certificates.append(report)
    for certificate in certificates:
        want = _summed_failures(audit_full(build_context(p), certificate))
        assert audit_failures(build_context(p), certificate) == want


@cache
def _small_cell_equilibria():
    """(profile, certificate) for every exact NE of three small cells."""
    exact = DeviationClass.parse("exact")
    cells = ((4, 3), (5, 2), (5, 11))
    return tuple(
        item for n, alpha in cells for item in enumerate_cell(n, Fraction(alpha), exact).equilibria
    )


def _failures(ctx, certificate) -> int:
    summary = audit_full(ctx, ne_certificate=certificate).summary
    return summary["findings_failing"] + summary["bound_violations"]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_audits_do_not_depend_on_vertex_labels(data):
    # Root and tree tie-breaks follow the labels, so the number of bound
    # comparisons may change under relabelling; the verdicts may not.
    p, certificate = data.draw(st.sampled_from(_small_cell_equilibria()), label="equilibrium")
    label = data.draw(st.permutations(range(p.n)), label="relabelling")
    edges = tuple(BoughtEdge(label[e.buyer], label[e.other]) for e in p.edges)
    q = StrategyProfile(p.n, p.alpha, edges)
    relabelled = verify_equilibrium(q)
    assert relabelled.is_equilibrium
    ctx, relabelled_ctx = build_context(p), build_context(q)
    assert relabelled_ctx.girth == ctx.girth
    assert _failures(relabelled_ctx, relabelled) == _failures(ctx, certificate)
