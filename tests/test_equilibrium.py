"""Deviations, exact verification, dynamics, enumeration."""

from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import factorial, inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gadgets import (
    directed_ring,
    figure_gadget,
    oracle_cost,
    oracle_delta,
    path3,
    profile,
    ring_with_pendant,
    star,
    two_triangles,
)
from oracle import (
    connected_cell_profiles,
    oracle_best_response,
    oracle_cell,
    oracle_class_move,
    oracle_dynamics,
    oracle_graph_scan,
    oracle_labelled_equilibria,
    oracle_ownership_scan,
    oracle_profiles_cell,
    oracle_verify,
    profile_class,
)
from strategies import (
    connected_profiles,
    disconnected_profiles,
    doubled_profiles,
    profiles,
    sparse_connected_profiles,
)

from ncg import (
    BudgetExceededError,
    DeviationClass,
    EnumerationCapError,
    best_response_dynamics,
    best_response_exact,
    delta_cost,
    is_connected,
    profile_hash,
    random_profile,
    verify_equilibrium,
)
from ncg.audit import audit_failures, scaffold_profile
from ncg.equilibrium import (
    DEFAULT_BUDGET,
    VERTEX_ORDERS,
    Deviation,
    _best_class_move,
    _bounded_scan,
    _class_contexts,
    _class_deviations,
    _first_improvement,
    _greedy_tables,
    _ownership_equilibria,
    _size_cap,
    _subset_masks,
    decide_classes,
    graph_classes,
    labelled_equilibria,
    pair_list,
    profile_from_index,
)
from ncg.game import BoughtEdge, StrategyProfile, bfs_sum, mask_members, row_sums, sized_sums
from ncg.harness import (
    MAX_ENUMERATION_N,
    SweepSpec,
    build_report_row,
    contexts_by_graph,
    enumerate_cell,
    fold_records,
    format_fraction,
    run_sweep,
)

EXACT = DeviationClass.parse("exact")


# ---------------------------------------------------------------------------
# delta_cost


def test_delta_buying_a_shortcut():
    # path 0-1-2, vertex 2 buys the edge to 0: pays alpha, saves one hop
    assert delta_cost(path3(alpha=5), 2, {0}) == Fraction(4)


def test_delta_selling_in_directed_triangle():
    assert delta_cost(directed_ring(3, 5), 0, frozenset()) == Fraction(-4)


def test_delta_noop_is_zero():
    p = path3()
    assert delta_cost(p, 0, {1}) == 0


def test_delta_disconnecting_is_plus_inf():
    assert delta_cost(path3(), 1, frozenset()) == inf


def test_delta_reconnecting_is_minus_inf():
    p = profile(3, 2, [(0, 1)])
    assert delta_cost(p, 2, {0}) == -inf


def test_delta_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        delta_cost(path3(), 1, {1})


@given(connected_profiles(max_n=7))
@settings(max_examples=60, deadline=None)
def test_delta_matches_independent_recomputation(p):
    import random

    rng = random.Random(profile_hash(p))
    v = rng.randrange(p.n)
    targets = frozenset(u for u in range(p.n) if u != v and rng.random() < 0.4)
    assert delta_cost(p, v, targets) == oracle_delta(p, v, targets)


# ---------------------------------------------------------------------------
# best response


def test_best_response_keeps_empty_strategy():
    best, delta = best_response_exact(path3(alpha=5), 2)
    assert best == frozenset()
    assert delta == 0


def test_best_response_star_center_keeps_all():
    best, delta = best_response_exact(star(4, alpha=9), 0)
    assert best == frozenset({1, 2, 3})
    assert delta == 0


def test_best_response_triangle_sells():
    best, delta = best_response_exact(directed_ring(3, 5), 0)
    assert best == frozenset()
    assert delta == Fraction(-4)


def test_best_response_budget_error():
    with pytest.raises(BudgetExceededError) as err:
        best_response_exact(star(12, alpha=9), 0, budget=100)
    assert err.value.required == 2**11


# ---------------------------------------------------------------------------
# verification


def test_verify_path_is_equilibrium():
    report = verify_equilibrium(path3(alpha=5))
    assert report.is_equilibrium
    assert report.witness is None


def test_verify_triangle_single_delete_witness():
    report = verify_equilibrium(directed_ring(3, 5), DeviationClass.parse("single-delete"))
    assert not report.is_equilibrium
    deviation, delta = report.witness
    assert deviation.vertex == 0
    assert deviation.new_edge_set == frozenset()
    assert delta == Fraction(-4)


def test_verify_star_exact():
    assert verify_equilibrium(star(4, alpha=9)).is_equilibrium


def test_verify_disconnected_auto_rejected():
    report = verify_equilibrium(profile(3, 2, [(0, 1)]))
    assert not report.is_equilibrium
    assert report.witness[1] == -inf


def test_verify_k_subset_finds_sell():
    report = verify_equilibrium(directed_ring(3, 5), DeviationClass.parse("k-subset:1"))
    assert not report.is_equilibrium


def test_verify_paper_strategy_class_on_directed_ring():
    # selling the out-edge beats alpha when alpha > 2n on the bare ring
    report = verify_equilibrium(directed_ring(7, 29), DeviationClass.parse("paper-strategy-1"))
    assert not report.is_equilibrium
    deviation, delta = report.witness
    assert delta < 0


VERIFY_SPECS = [
    "exact",
    "single-add",
    "single-delete",
    "single-swap",
    "k-subset:2",
    "paper-strategy-1",
    "paper-strategy-2",
    "paper-strategy-3",
    "single-delete,exact",
    "exact-all-subsets,single-add",
]


@pytest.mark.parametrize("spec", VERIFY_SPECS)
@example(two_triangles(1))
@example(ring_with_pendant(1))
@example(directed_ring(7, 5))
@example(directed_ring(7, 29))
@example(figure_gadget())
@given(st.one_of(profiles(max_n=6), sparse_connected_profiles(max_n=6)))
@settings(max_examples=30, deadline=None)
def test_verification_matches_oracle(spec, p):
    # whole reports: verdict, witness, exact delta and deviations_checked
    cls = DeviationClass.parse(spec)
    assert verify_equilibrium(p, cls) == oracle_verify(p, cls)


COMPOSITE_EXACT_SPECS = ["single-delete,exact", "exact,single-add", "paper-strategy-1,exact"]


@pytest.mark.parametrize("spec", COMPOSITE_EXACT_SPECS)
@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3), Fraction(11)], ids=str)
def test_composites_with_exact_match_oracle_on_small_profiles(spec, alpha):
    # The bounded exact scan decides each vertex's stability and only a vertex
    # with an improvement walks the composite order: whole reports against
    # the oracle's walk over every candidate, on every profile up to n = 4
    # and every 61st profile index at n = 5.
    cls = DeviationClass.parse(spec)
    for n in range(1, 6):
        for index in range(0, 3 ** (n * (n - 1) // 2), 61 if n == 5 else 1):
            p = profile_from_index(n, alpha, index)
            assert verify_equilibrium(p, cls) == oracle_verify(p, cls), (n, index)


def test_composite_with_exact_walks_only_improvable_vertices(monkeypatch):
    import ncg.equilibrium as eq

    walked = []
    costs = eq._class_costs
    monkeypatch.setattr(eq, "_class_costs", lambda p, v, *a: walked.append(v) or costs(p, v, *a))
    ne = profile(4, 9, [(0, 1), (0, 2), (0, 3)])  # a star its centre bought
    report = verify_equilibrium(ne, DeviationClass.parse("single-delete,exact"))
    assert report.is_equilibrium and report.deviations_checked == 4 * 7 and walked == []
    report = verify_equilibrium(directed_ring(4, 9), DeviationClass.parse("single-delete,exact"))
    assert walked == [0] and report.witness[0] == Deviation(0, frozenset())


def test_composite_with_exact_budget_error_is_unchanged():
    # the star's leaves are stable, so the budget runs out inside the
    # shortcut, one past the budget as in the composite walk
    for spec in ("single-delete,exact", "exact,single-add"):
        with pytest.raises(BudgetExceededError) as err:
            verify_equilibrium(star(12, alpha=9), DeviationClass.parse(spec), budget=5000)
        assert err.value.required == 5001


def test_witness_recheck_raises(monkeypatch):
    monkeypatch.setattr("ncg.equilibrium.delta_cost", lambda profile, v, targets: Fraction(0))
    for spec in ("exact", "single-delete"):
        with pytest.raises(AssertionError, match="witness"):
            verify_equilibrium(directed_ring(3, 5), DeviationClass.parse(spec))


def _bfs_sums(p, v):
    return [bfs_sum(p.adj, v, p.bought_by[v] | mask) for mask in _subset_masks(p.n, v)]


@example(profile(4, 1, [(0, 1), (1, 0), (2, 0)]))  # 0-1 bought twice, 3 isolated
@example(profile(1, 1, []))
@example(random_profile(14, 0.25, seed=4, alpha=3, require_connected=True))
@example(random_profile(14, 0.1, seed=4, alpha=3))  # disconnected
@example(random_profile(15, 0.25, seed=4, alpha=3, require_connected=True))
@given(st.one_of(doubled_profiles(max_n=9), sparse_connected_profiles(max_n=9)))
@settings(max_examples=60, deadline=None)
def test_exact_sums_match_bfs_pricing(p):
    # The greedy filter's doubling table, and the exact scan's size lists
    # with no cap, against one BFS per target set.
    for v in range(p.n):
        expected = _bfs_sums(p, v)
        assert row_sums(p.adj, v, p.bought_by[v]) == expected
        by_size = [[s for i, s in enumerate(expected) if i.bit_count() == k] for k in range(p.n)]
        assert list(sized_sums(p.adj, v, p.bought_by[v], p.n - 1)) == by_size
        # cap 0 prices its one set by a BFS, not by the level sweep
        assert list(sized_sums(p.adj, v, p.bought_by[v], 0)) == by_size[:1]


def test_exact_verification_prices_current_strategy_past_the_first_table():
    # Each leaf buys its edge to centre 13, target-set index 2^12 for every leaf.
    leaves_buy = [(v, 13) for v in range(13)]
    report = verify_equilibrium(profile(14, 2, leaves_buy))
    assert report.is_equilibrium
    assert report.deviations_checked == 14 * ((1 << 13) - 1)
    cheap = profile(14, Fraction(1, 2), leaves_buy)
    assert verify_equilibrium(cheap) == oracle_verify(cheap, EXACT)


def test_size_cap_on_star_leaves():
    # A leaf of a star whose centre bought every edge, at alpha > 1: adding
    # k edges saves at most k hops, so no size can improve and only the
    # empty set can tie.
    leaf = star(6, alpha=9)
    neighbours = [mask_members(row) for row in leaf.adj]
    assert list(_bounded_scan(leaf, 1, strict=True, neighbours=neighbours)[1]) == []
    assert len(list(_bounded_scan(leaf, 1, strict=False, neighbours=neighbours)[1])) == 1


@example(profile(8, Fraction(1, 2), [(v, v + 1) for v in range(7)]), 1, 2)  # a path at alpha 1/2
@given(connected_profiles(min_n=2, max_n=8), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_first_improvement_is_the_least_improving_index(p, num, den):
    # small alphas leave vertices improvable at several sizes, and the scan
    # stops taking sizes once its witness is below every larger set's index
    p = StrategyProfile(p.n, Fraction(num, den), p.edges)
    neighbours = [mask_members(row) for row in p.adj]
    for v in range(p.n):
        improving = [
            i for i, mask in enumerate(_subset_masks(p.n, v))
            if oracle_delta(p, v, mask_members(mask)) < 0
        ]
        assert _first_improvement(p, v, neighbours) == min(improving, default=None), v
    assert verify_equilibrium(p) == oracle_verify(p, EXACT)


SMALL_ALPHAS = [Fraction(a) for a in ("1/3", "1/2", "1", "3/2", "2", "3", "9")]


@pytest.mark.parametrize("alpha", SMALL_ALPHAS, ids=str)
def test_exact_scans_match_full_scan_on_every_small_profile(alpha):
    for n in range(1, 5):
        for index in range(3 ** (n * (n - 1) // 2)):
            p = profile_from_index(n, alpha, index)
            assert verify_equilibrium(p, EXACT) == oracle_verify(p, EXACT), (n, index)
            for v in range(n):
                assert best_response_exact(p, v) == oracle_best_response(p, v), (n, index, v)


@example(directed_ring(6, 1), 1, 3)
@example(ring_with_pendant(1), 7, 2)
@example(profile(5, 1, [(0, 1), (2, 3), (3, 4)]), 3, 1)  # disconnected: no cap
@example(star(6), 9, 1)  # the leaves have cap -1
# Vertex 4's cheapest sets include {0, 5} and {1, 3}; {0, 5} has the smaller
# sorted tuple but the larger subset index.
@example(
    profile(6, 1, [(0, 5), (2, 3), (2, 5), (3, 0), (4, 0), (4, 1), (4, 2), (4, 5), (5, 1)]), 1, 1
)
# A 14-star whose leaves buy their edges, but for leaf 9, whose edge the
# centre buys; at alpha 1/2 vertex 0 first improves at index 511, buying 1..9.
@example(profile(14, 1, [(v, 13) for v in range(13) if v != 9] + [(13, 9)]), 1, 2)
@given(
    st.one_of(profiles(max_n=9), sparse_connected_profiles(max_n=9), doubled_profiles(max_n=9)),
    st.integers(1, 40),
    st.integers(1, 7),
)
@settings(max_examples=60, deadline=None)
def test_bounded_exact_scans_match_full_scan(p, num, den):
    # Whole reports (witness and deviations_checked too) and every vertex's
    # best response with its delta.
    p = StrategyProfile(p.n, Fraction(num, den), p.edges)
    assert verify_equilibrium(p, EXACT) == oracle_verify(p, EXACT)
    for v in range(p.n):
        assert best_response_exact(p, v) == oracle_best_response(p, v)


def test_verify_budget_error():
    with pytest.raises(BudgetExceededError):
        verify_equilibrium(star(12, alpha=9), budget=100)


@given(connected_profiles(min_n=2, max_n=5, alpha=Fraction(7, 2)))
@settings(max_examples=40, deadline=None)
def test_exact_ne_implies_restricted_ne(p):
    if not verify_equilibrium(p).is_equilibrium:
        return
    for spec in ("single-add", "single-delete", "single-swap", "k-subset:2"):
        assert verify_equilibrium(p, DeviationClass.parse(spec)).is_equilibrium


@given(connected_profiles(min_n=2, max_n=5))
@settings(max_examples=40, deadline=None)
def test_witnesses_are_sound(p):
    for spec in ("exact", "single-delete", "single-swap"):
        report = verify_equilibrium(p, DeviationClass.parse(spec))
        if report.witness is not None:
            deviation, delta = report.witness
            assert delta < 0
            assert delta_cost(p, deviation.vertex, deviation.new_edge_set) == delta


# ---------------------------------------------------------------------------
# dynamics


def test_dynamics_triangle_converges_to_path():
    trace = best_response_dynamics(
        directed_ring(3, 5), DeviationClass.parse("single-delete"), max_iters=10
    )
    assert trace.converged
    assert 1 <= len(trace.steps) <= 3
    assert len(trace.final_profile.undirected_edges()) == 2
    assert verify_equilibrium(
        trace.final_profile, DeviationClass.parse("single-delete")
    ).is_equilibrium


@pytest.mark.parametrize(
    "kwargs, message",
    [({"max_iters": 0}, "max_iters"), ({"vertex_order": "no-such-order"}, "vertex order")],
)
def test_dynamics_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        best_response_dynamics(star(4, alpha=9), EXACT, **kwargs)


@pytest.mark.parametrize("spec", ["k-subset:2", "exact,single-add", "single-add,exact"])
def test_dynamics_bound_each_restricted_best_response_by_the_budget(spec):
    # 0 and 1 buy each other, 1 buys 2 and 2 buys 0; under these classes a
    # best response prices each of a vertex's three other target sets
    triangle = profile(3, 3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    cls = DeviationClass.parse(spec)
    with pytest.raises(BudgetExceededError) as err:
        best_response_dynamics(triangle, cls, budget=2)
    assert err.value.required == 3
    assert best_response_dynamics(triangle, cls, budget=3) == best_response_dynamics(triangle, cls)


def test_dynamics_fixpoint_on_equilibrium():
    trace = best_response_dynamics(star(4, alpha=9), EXACT, max_iters=5)
    assert trace.converged
    assert trace.steps == ()
    assert trace.final_profile == star(4, alpha=9)


def test_dynamics_from_empty_graph():
    empty = profile(3, Fraction(3, 2), [])
    trace = best_response_dynamics(empty, EXACT, max_iters=20)
    assert trace.converged
    assert is_connected(trace.final_profile)
    assert all(delta < 0 for _, _, delta in trace.steps)
    assert verify_equilibrium(trace.final_profile).is_equilibrium


MOVE_SPECS = [
    "single-add",
    "single-delete",
    "single-swap",
    "k-subset:2",
    "paper-strategy-1",
    "paper-strategy-2",
    "paper-strategy-3",
    "single-delete,paper-strategy-2",
    "single-add,exact",
]


@pytest.mark.parametrize("spec", MOVE_SPECS)
# Vertex 0 is cut off from 2 and 3; {1, 2} and {1, 3} both reconnect it at
# delta -inf, and so do larger sets, so size decides, then members.
@example(profile(4, 9, [(0, 1), (2, 3)]))
@example(directed_ring(7, 29))
@example(ring_with_pendant(1))
@example(figure_gadget())
@given(
    st.one_of(
        profiles(max_n=7),
        sparse_connected_profiles(max_n=7),
        doubled_profiles(max_n=7),
        disconnected_profiles(max_n=7),
    )
)
@settings(max_examples=40, deadline=None)
def test_restricted_moves_match_oracle(spec, p):
    # The move and its delta against every candidate priced by the oracle.
    cls = DeviationClass.parse(spec)
    for v in range(p.n):
        move = _best_class_move(p, v, cls, DEFAULT_BUDGET, _class_contexts(p, cls))
        assert move == oracle_class_move(p, v, cls), v


def test_paper_strategies_add_nothing_while_disconnected():
    p = profile(4, 9, [(0, 1), (2, 3)])
    paper = DeviationClass.parse("paper-strategy-1")
    assert list(_class_deviations(p.n, 0, p.bought[0], paper, _class_contexts(p, paper))) == []
    assert best_response_dynamics(p, paper).steps == ()
    trace = best_response_dynamics(p, DeviationClass.parse("single-add,paper-strategy-1"))
    assert trace.steps[0] == (0, Deviation(0, frozenset({1, 2})), -inf)
    assert trace.converged


def test_paper_strategy_dynamics_build_one_context_per_profile(monkeypatch):
    import ncg.equilibrium as eq

    # one context per profile computes the graph facts; the context of
    # every other tied root is built on it
    built = []
    real = eq.build_context

    def counted(p, graph=None, root=None):
        if graph is None:
            built.append(p)
        return real(p, graph, root)

    monkeypatch.setattr(eq, "build_context", counted)
    trace = best_response_dynamics(scaffold_profile(3), DeviationClass.parse("paper-strategy-1"))
    assert len(trace.steps) == 1 and trace.converged
    assert len(built) == 2  # the start and the profile after the one move


def test_paper_strategies_never_enumerate_cycles(monkeypatch):
    import ncg.structure as structure

    def refuse(*args):
        raise AssertionError("paper strategies read no min-cycles")

    monkeypatch.setattr(structure, "all_simple_cycles", refuse)
    three = DeviationClass.parse(THREE_STRATEGIES)
    assert best_response_dynamics(scaffold_profile(3), three).converged
    for alpha in (Fraction(2), Fraction(9)):
        assert enumerate_cell(4, alpha, three).equilibria


def test_dynamics_random_order_is_seeded():
    a = best_response_dynamics(directed_ring(4, 2), EXACT, "random", 20, seed=11)
    b = best_response_dynamics(directed_ring(4, 2), EXACT, "random", 20, seed=11)
    assert a == b


DYNAMICS_SPECS = ["exact", "single-add", "single-delete", "paper-strategy-2", "single-add,exact"]


@pytest.mark.parametrize("spec", DYNAMICS_SPECS)
@example(profile(4, 9, [(0, 1), (2, 3)]), ("round-robin", None))
@example(scaffold_profile(2), ("round-robin", None))
@example(ring_with_pendant(1), ("random", 5))
@example(directed_ring(6, Fraction(1, 3)), ("random", 0))
@given(
    st.one_of(
        profiles(max_n=6),
        sparse_connected_profiles(max_n=7),
        disconnected_profiles(max_n=6),
    ),
    st.one_of(
        st.just(("round-robin", None)), st.tuples(st.just("random"), st.integers(0, 1 << 16))
    ),
)
@settings(max_examples=30, deadline=None)
def test_dynamics_match_the_loop_asking_every_vertex(spec, p, order):
    # settled vertices are skipped, and under exact the mover too; the
    # trace, the pass count and the random order's draws stay those of the
    # plain loop
    cls = DeviationClass.parse(spec)
    vertex_order, seed = order
    got = best_response_dynamics(p, cls, vertex_order, 8, seed)
    assert got == oracle_dynamics(p, cls, vertex_order, 8, seed)


@pytest.mark.parametrize("spec", ["exact", "single-add"])
def test_dynamics_build_only_the_final_profile(monkeypatch, spec):
    # moves rewrite rows; a profile is built for the result alone, and none
    # when no vertex moves
    cls = DeviationClass.parse(spec)
    starts = [random_profile(8, 0.3, seed=s, alpha=2, require_connected=True) for s in range(3)]
    ne = star(5, alpha=9)
    built = []
    post_init = StrategyProfile.__post_init__
    monkeypatch.setattr(StrategyProfile, "__post_init__", lambda p: built.append(p) or post_init(p))
    for p in starts:
        for order in VERTEX_ORDERS:
            built.clear()
            trace = best_response_dynamics(p, cls, order, seed=1)
            assert trace.steps and len(built) == 1 and built[0] is trace.final_profile
    built.clear()
    trace = best_response_dynamics(ne, cls)
    assert trace.steps == () and trace.final_profile is ne and built == []


@pytest.mark.parametrize("spec", ["exact", "single-delete", "paper-strategy-2"])
def test_dynamics_ask_each_vertex_once_on_an_equilibrium(monkeypatch, spec):
    import ncg.equilibrium as eq

    asked = []
    real = eq._best_class_move

    def counted(p, v, *args):
        asked.append(v)
        return real(p, v, *args)

    monkeypatch.setattr(eq, "_best_class_move", counted)
    p = star(5, alpha=9)
    trace = best_response_dynamics(p, DeviationClass.parse(spec), max_iters=5)
    assert trace.converged and trace.steps == ()
    assert asked == list(range(p.n))


@given(connected_profiles(min_n=2, max_n=5))
@settings(max_examples=25, deadline=None)
def test_dynamics_agent_costs_strictly_decrease_at_own_steps(p):
    from ncg import all_pairs_distances, vertex_cost

    trace = best_response_dynamics(p, EXACT, max_iters=30)
    current = p
    for v, deviation, delta in trace.steps:
        assert delta < 0
        before = vertex_cost(current, all_pairs_distances(current), v).total
        current = current.with_strategy(v, deviation.new_edge_set)
        after = vertex_cost(current, all_pairs_distances(current), v).total
        assert after < before
    assert current == trace.final_profile
    if trace.converged:
        assert verify_equilibrium(trace.final_profile).is_equilibrium


# alpha = 1/3: L(k) is not monotone, falling until v's neighbours can cover
# everyone and rising after, and the incumbent's size cap meets both slopes
@example(profile(5, 1, [(1, 0), (2, 1), (3, 2), (4, 3)]), 1, 3)
@given(profiles(min_n=1, max_n=6), st.integers(1, 6), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_best_response_matches_brute_force(p, num, den):
    # small alphas make equal-cost strategies common, so the tie-break runs
    p = StrategyProfile(p.n, Fraction(num, den), p.edges)
    for v in range(p.n):
        others = [u for u in range(p.n) if u != v]
        subsets = [frozenset(c) for k in range(p.n) for c in combinations(others, k)]
        expected = min(
            subsets,
            key=lambda s: (oracle_cost(p.with_strategy(v, s), v), len(s), tuple(sorted(s))),
        )
        best, delta = best_response_exact(p, v)
        assert best == expected
        assert delta == oracle_delta(p, v, best)


@given(profiles(min_n=1, max_n=8), st.integers(-2, 12), st.integers(1, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_size_cap_is_the_largest_admissible_size(p, num, den, data):
    # the closed form against every size's lower bound L(k); alpha <= 0 too
    p = StrategyProfile(p.n, Fraction(num, den), p.edges)
    v = data.draw(st.integers(0, p.n - 1), label="v")
    limit = data.draw(st.integers(-10, 200), label="limit")
    a, b = p.alpha.numerator, p.alpha.denominator
    m, into = p.n - 1, p.bought_by[v].bit_count()
    admissible = [k for k in range(m + 1) if a * k + b * (2 * m - min(m, k + into)) <= limit]
    assert _size_cap(p, v, limit) == max(admissible, default=-1)


@given(connected_profiles(min_n=2, max_n=6))
@settings(max_examples=30, deadline=None)
def test_best_response_delta_never_positive(p):
    for v in range(p.n):
        best, delta = best_response_exact(p, v)
        assert delta <= 0
        if delta == 0:
            # the current strategy is among the minimizers
            current_cost = delta_cost(p, v, frozenset(mask_members(p.bought[v])))
            assert current_cost == 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_n3():
    result = enumerate_cell(3, Fraction(7), EXACT)
    assert result.profiles_scanned == 27
    assert result.connected_count == 20


def test_enumeration_counts_n4():
    result = enumerate_cell(4, Fraction(9), EXACT)
    assert result.profiles_scanned == 729


def test_enumeration_all_trees_above_2n():
    result = enumerate_cell(3, Fraction(7), EXACT)
    assert len(result.equilibria) >= 1
    for p, report in result.equilibria:
        assert report.is_equilibrium
        assert len(p.undirected_edges()) == p.n - 1


def test_enumeration_n2_small_alpha():
    result = enumerate_cell(2, Fraction(1, 2), EXACT)
    assert len(result.equilibria) == 2
    bought = sorted(tuple((e.buyer, e.other) for e in p.edges) for p, _ in result.equilibria)
    assert bought == [((0, 1),), ((1, 0),)]


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_cell(6, Fraction(1), EXACT)


def test_enumeration_ceiling_ignores_the_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cell was scanned")

    monkeypatch.setattr("ncg.harness.graph_classes", refuse)
    for n, cap in ((MAX_ENUMERATION_N + 1, MAX_ENUMERATION_N + 1), (9, 64)):
        with pytest.raises(EnumerationCapError, match="ceiling"):
            enumerate_cell(n, Fraction(1), EXACT, cap=cap)


ORACLE_ALPHAS = [Fraction(a) for a in ("1/2", "1", "3/2", "2", "5/2", "3", "4", "9", "20")]


@pytest.mark.parametrize("spec", ["exact", "single-add", "single-delete", "k-subset:2"])
def test_graph_first_scan_matches_index_oracle(spec):
    # whole results: totals, connected counts, equilibria order, witnesses and
    # deviations_checked of every report
    cls = DeviationClass.parse(spec)
    for n in range(1, 5):
        for alpha in ORACLE_ALPHAS:
            assert enumerate_cell(n, alpha, cls) == oracle_cell(n, alpha, cls), (n, alpha)


@pytest.fixture(scope="session")
def n5_profiles():
    """The connected n = 5 profiles at the alphas the n = 5 cells are checked
    at, decoded and connectivity-checked once for all their oracles."""
    return connected_cell_profiles(5, (Fraction(2), Fraction(3), Fraction(11)))


def test_graph_first_scan_matches_index_oracle_n5(n5_profiles):
    for alpha, profiles in n5_profiles.items():
        want = oracle_profiles_cell(5, alpha, EXACT, profiles)
        assert enumerate_cell(5, alpha, EXACT) == want, alpha


# Every class of VERIFY_SPECS, and a restricted class beside a paper strategy.
CELL_SPECS = [*VERIFY_SPECS, "single-delete,paper-strategy-2"]
THREE_STRATEGIES = "paper-strategy-1,paper-strategy-2,paper-strategy-3"
RESTRICTED_SPECS = [spec for spec in CELL_SPECS if spec != "exact"] + [THREE_STRATEGIES]


@cache
def _ownership_loop(n: int, alpha: Fraction, spec: str):
    return oracle_ownership_scan(n, alpha, DeviationClass.parse(spec))


def _assert_closed_under_relabelling(result, counts: bool = True) -> None:
    """Every vertex map sends each equilibrium of ``result`` to one, with the
    same ``deviations_checked`` when ``counts``.  A transposition and an
    n-cycle generate every vertex map, so they are the ones applied."""
    n = result.n
    checked = {p.edges: report.deviations_checked for p, report in result.equilibria}
    for pi in ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1 else ():
        for p, report in result.equilibria:
            image = tuple(sorted(BoughtEdge(pi[e.buyer], pi[e.other]) for e in p.edges))
            assert image in checked, (p, pi)
            assert not counts or checked[image] == report.deviations_checked, (p, pi)


@pytest.mark.parametrize("spec", CELL_SPECS)
def test_cells_match_the_ownership_loop(spec):
    # whole results, every report and deviations_checked included, against
    # one verify_equilibrium per ownership of every labelled graph
    cls = DeviationClass.parse(spec)
    for n in range(1, 5):
        for alpha in ORACLE_ALPHAS:
            assert enumerate_cell(n, alpha, cls) == _ownership_loop(n, alpha, spec), (n, alpha)


@pytest.mark.parametrize(
    "spec", ["single-add", "single-delete", "single-swap", "k-subset:2", "single-add,single-delete"]
)
def test_cells_match_the_ownership_loop_n5(spec, n5_profiles):
    cls = DeviationClass.parse(spec)
    want = oracle_profiles_cell(5, Fraction(3), cls, n5_profiles[Fraction(3)])
    assert enumerate_cell(5, Fraction(3), cls) == want
    if spec == "single-add":
        _assert_closed_under_relabelling(want)


@pytest.mark.parametrize("spec", RESTRICTED_SPECS)
def test_restricted_equilibria_are_closed_under_relabelling(spec):
    # Read off the labelled loop, so it is the class's own property: the
    # scan decides one graph per isomorphism class on the strength of it.
    # Paper-strategy candidates follow shortest path trees whose parent ties
    # go to the smallest id, so only their verdicts are closed, not their
    # deviations_checked.
    for n in range(1, 5):
        for alpha in ORACLE_ALPHAS:
            result = _ownership_loop(n, alpha, spec)
            _assert_closed_under_relabelling(result, counts="paper" not in spec)


def test_three_strategy_counts_n4():
    # every tied root's candidates; with the smallest id's alone alpha 2
    # had 164 equilibria, 30 of them with an image that was not one
    cls = DeviationClass.parse(THREE_STRATEGIES)
    assert [len(enumerate_cell(4, Fraction(a), cls).equilibria) for a in (2, 3)] == [134, 128]


def test_restricted_scan_prices_by_lookup(monkeypatch):
    expected = _ownership_loop(4, Fraction(2), "single-add")

    def refuse(*args):
        raise AssertionError("the scan priced a candidate by BFS")

    monkeypatch.setattr("ncg.equilibrium.verify_equilibrium", refuse)
    monkeypatch.setattr("ncg.equilibrium._class_costs", refuse)
    assert enumerate_cell(4, Fraction(2), DeviationClass.parse("single-add")) == expected


def test_restricted_cell_budget_counts_candidates_per_ownership():
    # single-add walks n(n-1) - m candidates on a stable ownership, at most 9
    # at n = 4, and this path is stable at alpha 2
    from ncg.cli import cmd_run

    cls = DeviationClass.parse("single-add")
    path = profile(4, 2, [(0, 1), (1, 2), (2, 3)])
    assert verify_equilibrium(path, cls).deviations_checked == 9
    with pytest.raises(BudgetExceededError):
        verify_equilibrium(path, cls, budget=8)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_cell(4, Fraction(2), cls, budget=8)
    assert err.value.required == 9
    assert enumerate_cell(4, Fraction(2), cls, budget=9) == enumerate_cell(4, Fraction(2), cls)
    argv = ["enumerate", "--n", "4", "--alpha", "2", "--class", "single-add", "--budget", "8"]
    assert cmd_run(argv) == 2


@pytest.mark.parametrize("spec", ["single-add", "k-subset:2"])
def test_restricted_cell_budget_counts_an_equilibriums_candidates(spec):
    # A cell is over budget exactly when one of its equilibria walks more
    # candidates than the budget, and raises what verify_equilibrium raises
    # on that equilibrium.
    cls = DeviationClass.parse(spec)
    for alpha in ORACLE_ALPHAS:
        result = enumerate_cell(4, alpha, cls)
        p, report = max(result.equilibria, key=lambda ne: ne[1].deviations_checked)
        most = report.deviations_checked
        with pytest.raises(BudgetExceededError) as err:
            enumerate_cell(4, alpha, cls, budget=most - 1)
        with pytest.raises(BudgetExceededError) as verified:
            verify_equilibrium(p, cls, budget=most - 1)
        assert err.value.required == verified.value.required == most, alpha
        assert enumerate_cell(4, alpha, cls, budget=most) == result, alpha


def _by_index(scan):
    connected, found = scan
    return connected, tuple((p, report) for _, p, report in sorted(found, key=lambda item: item[0]))


def _labelled(result):
    return result.connected_count, result.equilibria


@pytest.mark.parametrize("n", range(1, 6))
def test_class_scan_matches_labelled_scan(n):
    # connected counts, profiles and reports, one table build per labelled graph
    graphs = range(1 << (n * (n - 1) // 2))
    for alpha in ORACLE_ALPHAS:
        got = _labelled(enumerate_cell(n, alpha, EXACT))
        assert got == _by_index(oracle_graph_scan(n, alpha, graphs)), alpha


def test_class_scan_matches_labelled_scan_n6():
    got = _labelled(enumerate_cell(6, Fraction(3), EXACT, cap=6))
    assert got == _by_index(oracle_graph_scan(6, Fraction(3), range(1 << 15)))


def test_exact_cell_builds_one_table_per_class(monkeypatch):
    # one ownership walk per connected graph on n vertices up to
    # isomorphism, 1, 1, 2, 6, 21, 112, under every class: exact up to
    # n = 6, the others up to n = 5
    import ncg.equilibrium as eq

    walk = eq._ownership_equilibria
    calls = []
    monkeypatch.setattr(eq, "_ownership_equilibria", lambda *a: calls.append(a[1]) or walk(*a))
    counts = ((1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112))
    for spec in CELL_SPECS:
        cls = DeviationClass.parse(spec)
        for n, classes in counts if spec == "exact" else counts[:5]:
            calls.clear()
            decide_classes(graph_classes(n), Fraction(3), cls, DEFAULT_BUDGET)
            assert calls == [cls] * classes, (spec, n)


def test_catalogue_decodes_one_graph_per_isomorphism_class(monkeypatch):
    # every class's images are marked, connected or not, so the graphs
    # decoded and BFS-tested are one per isomorphism class of all graphs on
    # n vertices (OEIS A000088), and the connected ones are kept (A001349)
    import ncg.equilibrium as eq

    rows = eq._graph_rows
    calls = []
    monkeypatch.setattr(eq, "_graph_rows", lambda *a: calls.append(a[2]) or rows(*a))
    for n, graphs, connected in zip(range(1, 7), (1, 2, 4, 11, 34, 156), (1, 1, 2, 6, 21, 112)):
        calls.clear()
        classes = eq.graph_classes(n)
        assert len(calls) == graphs, n
        kept = [sum(1 << k for k in graph.ks) for graph in classes]
        assert len(kept) == connected and kept == sorted(kept) and set(kept) <= set(calls), n


@pytest.mark.parametrize(
    "spec", ["single-add", "single-swap", "k-subset:2", "single-add,single-delete"]
)
def test_restricted_scan_decodes_one_profile_per_class_record(monkeypatch, spec):
    # stability and candidate counts come from the tables per (v, I_v), so
    # only an equilibrium's ownership is ever decoded
    import ncg.equilibrium as eq

    decode = eq.profile_from_index
    calls = []
    monkeypatch.setattr(eq, "profile_from_index", lambda *args: calls.append(args) or decode(*args))
    cls = DeviationClass.parse(spec)
    for n in range(1, 6):
        for alpha in (Fraction(1, 2), Fraction(3), Fraction(11)):
            calls.clear()
            records = decide_classes(graph_classes(n), alpha, cls, DEFAULT_BUDGET)
            assert len(calls) == len(records), (n, alpha)


@cache
def _automorphisms(adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    n = len(adj)
    return [
        pi for pi in permutations(range(n))
        if all(adj[pi[u]] >> pi[v] & 1 == adj[u] >> v & 1 for u in range(n) for v in range(n))
    ]


def _stabiliser_count(p: StrategyProfile) -> int:
    edges = set(p.edges)
    return sum(
        all(BoughtEdge(pi[e.buyer], pi[e.other]) in edges for e in p.edges)
        for pi in permutations(range(p.n))
    )


@pytest.mark.parametrize(
    "n,classes,labelled", [(1, 1, 1), (2, 1, 1), (3, 2, 4), (4, 6, 38), (5, 21, 728)]
)
def test_class_weight_is_its_labelled_image_count(monkeypatch, n, classes, labelled):
    # A class weighs n!/|Aut G|, and the class weights sum to the labelled
    # connected graphs (OEIS A001187).  With every ownership of every
    # connected graph passed off as an equilibrium, each record stands for
    # its ownership's orbit under Aut G: it weighs n!/|Stab| of the
    # ownership, as many as its labelled images (expanded up to n = 4), and
    # the weights sum to the connected count.
    import ncg.equilibrium as eq

    catalogue = eq.graph_classes(n)
    assert len(catalogue) == classes
    assert sum(graph.weight for graph in catalogue) == labelled
    for graph in catalogue:
        assert graph.weight == factorial(n) // len(_automorphisms(tuple(graph.adj)))

    def every_ownership(alpha, cls, graph, budget):
        trits = product((1, 2), repeat=len(graph.ks))
        return [(sum(t * 3**k for t, k in zip(owners, graph.ks)), 0) for owners in trits]

    connected = enumerate_cell(n, Fraction(3), EXACT).connected_count
    monkeypatch.setattr(eq, "_ownership_equilibria", every_ownership)
    records = decide_classes(catalogue, Fraction(3), EXACT, DEFAULT_BUDGET)
    for record in records:
        p, _, weight = record
        assert weight == factorial(n) // _stabiliser_count(p), p
        if n <= 4:
            assert len(labelled_equilibria(n, Fraction(3), [record])) == weight
    assert sum(weight for *_, weight in records) == connected


def test_labelled_images_take_the_first_vertex_map():
    # an exact record stands for its ownership's orbit, every distinct
    # relabelling of it; a paper-strategy record for its ownership alone,
    # carried to each image of its graph by the first vertex map: the paper
    # strategies' candidate counts depend on vertex ids, so there a later
    # map through an automorphism could carry another count
    for spec in ("exact", THREE_STRATEGIES):
        for n, alpha in ((4, Fraction(2)), (5, Fraction(2))):
            result = enumerate_cell(n, alpha, DeviationClass.parse(spec))
            want = oracle_labelled_equilibria(result.representatives, orbits=spec == "exact")
            assert result.equilibria == want


def _ownership_records(n, alpha, cls):
    """``decide_classes`` records with the identity as every class's only
    automorphism: one record per equilibrium ownership of a representative,
    of its class's weight."""
    catalogue = [replace(graph, automorphisms=graph.automorphisms[:1]) for graph in graph_classes(n)]
    return decide_classes(catalogue, alpha, cls, DEFAULT_BUDGET)


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_records_equal_ownership_records(n):
    # orbit records fold to the row of per-ownership records, all eight
    # fields; both weigh the labelled count, and the orbits expand to the
    # labelled equilibria that the per-ownership records give through the
    # first vertex map reaching each image of their graph; paper-strategy
    # classes keep one record per ownership, so they have no orbits to check
    label_free = [spec for spec in RESTRICTED_SPECS if "paper" not in spec]
    for spec in ["exact"] + (label_free if n < 5 else []):
        cls = DeviationClass.parse(spec)
        for alpha in ORACLE_ALPHAS:
            result = enumerate_cell(n, alpha, cls)
            owned = _ownership_records(n, alpha, cls)
            scanned = result.profiles_scanned
            assert build_report_row(result) == fold_records(n, alpha, scanned, owned), (spec, alpha)
            assert sum(weight for *_, weight in result.representatives) == len(result.equilibria)
            assert sum(weight for *_, weight in owned) == len(result.equilibria)
            assert result.equilibria == oracle_labelled_equilibria(owned, orbits=False)


def _orbit_key(p: StrategyProfile) -> tuple:
    """The least sorted (buyer, other) tuple among p's images under its
    graph's automorphisms."""
    return min(
        tuple(sorted((pi[e.buyer], pi[e.other]) for e in p.edges)) for pi in _automorphisms(p.adj)
    )


@pytest.mark.parametrize("spec", ["exact", "single-add", "single-delete", "single-swap", "k-subset:2"])
def test_orbit_members_agree_on_girth_audit_and_checks(spec):
    # the facts an orbit record reports once for all its members: girth,
    # audit failures and deviations_checked, on every cell with n <= 5
    cls = DeviationClass.parse(spec)
    for n in range(1, 6):
        for alpha in (Fraction(1, 2), Fraction(2), Fraction(3), Fraction(2 * n + 1)):
            facts = {}
            for ctx, report, _ in contexts_by_graph(_ownership_records(n, alpha, cls)):
                fact = (ctx.girth, audit_failures(ctx, ne_certificate=report), report.deviations_checked)
                facts.setdefault(_orbit_key(ctx.profile), set()).add(fact)
            assert all(len(seen) == 1 for seen in facts.values()), (n, alpha)
            orbits = len(decide_classes(graph_classes(n), alpha, cls, DEFAULT_BUDGET))
            assert len(facts) == orbits, (n, alpha)


def test_catalogue_keeps_each_representatives_automorphisms():
    # identity first, |Aut G| maps in all, and each carries the all-lower-
    # buys ownership to its image under one vertex map fixing the graph
    for n in range(1, 7):
        for graph in graph_classes(n):
            auts = graph.automorphisms
            assert len(auts) * graph.weight == factorial(n)
            assert [auts[0][k] for k in graph.ks] == [(0, 3**k, 2 * 3**k) for k in graph.ks]
            if n > 5:
                continue
            p = profile_from_index(n, Fraction(1), sum(3**k for k in graph.ks))
            images = {sum(aut[k][1] for k in graph.ks) for aut in auts}
            relabelled = {profile_from_index(n, Fraction(1), index).adj for index in images}
            assert relabelled == {p.adj}
            assert len(images) == factorial(n) // _stabiliser_count(p) // graph.weight


def _labelled_row(result):
    """The row folded from every labelled equilibrium at weight 1."""
    records = [(profile, report, 1) for profile, report in result.equilibria]
    return fold_records(result.n, result.alpha, result.profiles_scanned, records)


def _sweep_rows(n, alphas, dev_class):
    """``run_sweep``'s rows, folded from class records with no labelled
    equilibrium decoded."""
    grid = tuple(format_fraction(alpha) for alpha in alphas)
    return run_sweep(SweepSpec((n,), grid, dev_class, cap=6))


@pytest.mark.parametrize("n", range(1, 6))
def test_weighted_row_equals_labelled_row(n):
    # each class record audited once and weighted folds to the row that
    # audits every labelled equilibrium, all eight fields, and so does the
    # sweep's row; restricted cells carry class records too, checked up to
    # n = 4
    for spec in ["exact"] + (RESTRICTED_SPECS if n < 5 else []):
        cls = DeviationClass.parse(spec)
        for alpha, swept in zip(ORACLE_ALPHAS, _sweep_rows(n, ORACLE_ALPHAS, cls)):
            result = enumerate_cell(n, alpha, cls)
            assert sum(weight for *_, weight in result.representatives) == len(result.equilibria)
            assert swept == build_report_row(result) == _labelled_row(result), (spec, alpha)


def test_weighted_row_equals_labelled_row_n6():
    result = enumerate_cell(6, Fraction(3), EXACT, cap=6)
    assert sum(weight for *_, weight in result.representatives) == len(result.equilibria)
    row = build_report_row(result)
    assert _sweep_rows(6, [Fraction(3)], EXACT) == [row]
    assert row == _labelled_row(result)


def test_sweep_row_audits_each_class_record_once(monkeypatch):
    # the sweep-n5 cells hold 62, 56, 1104 and 620 labelled equilibria in
    # 6, 5, 18 and 12 orbits of ownerships of their class representatives
    import ncg.harness as harness

    audit = harness.audit_failures
    calls = []
    monkeypatch.setattr(harness, "audit_failures", lambda *args, **kw: calls.append(1) or audit(*args, **kw))
    counts = []
    for n, alpha in ((4, 2), (4, 9), (5, 2), (5, 11)):
        calls.clear()
        build_report_row(enumerate_cell(n, Fraction(alpha), EXACT))
        counts.append(len(calls))
    assert counts == [6, 5, 18, 12]


def test_exact_scan_never_verifies(monkeypatch):
    expected = oracle_cell(4, Fraction(2), EXACT)

    def refuse(*args):
        raise AssertionError("the exact scan verified an ownership")

    monkeypatch.setattr("ncg.equilibrium.verify_equilibrium", refuse)
    assert enumerate_cell(4, Fraction(2), EXACT) == expected


def test_labelled_n6_cell_counts():
    # the counts the index oracle gave for this cell
    result = enumerate_cell(6, Fraction(13), EXACT, cap=6)
    assert result.connected_count == 13_982_208
    assert len(result.equilibria) == 5532
    assert all(len(p.undirected_edges()) == 5 for p, _ in result.equilibria)


def test_labelled_n6_cell_counts_alpha_3():
    # the counts the labelled graph scan gave for this cell
    result = enumerate_cell(6, Fraction(3), EXACT, cap=6)
    assert result.connected_count == 13_982_208
    assert len(result.equilibria) == 5412


def test_exact_enumeration_respects_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_cell(4, Fraction(9), EXACT, budget=27)
    assert enumerate_cell(4, Fraction(9), EXACT, budget=28) == enumerate_cell(4, Fraction(9), EXACT)


# A triangle 2-3-4 with pendants 0 on 3 and 1 on 4 at alpha 2: selling edge
# 2-3 costs vertex 2 two hops but vertex 3 one, so only vertex 2 may own it.
@example(profile(5, 2, [(3, 0), (4, 1), (3, 2), (2, 4), (3, 4)]), 2, 1)
@example(profile(5, 2, [(3, 0), (4, 1), (2, 3), (2, 4), (3, 4)]), 2, 1)
@given(
    st.one_of(connected_profiles(min_n=2, max_n=8), sparse_connected_profiles(max_n=8)),
    st.integers(1, 40),
    st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_greedy_filter_is_exactly_single_add_and_delete(p, num, den):
    # The filter rejects the graph, or drops the actual buyer of some edge,
    # exactly when a single add or a single sale strictly improves.
    p = StrategyProfile(p.n, Fraction(num, den), p.edges)
    edges = list(p.undirected_edges())
    greedy = _greedy_tables(profile_class(p), p.alpha)
    options = None if greedy is None else greedy[1]
    buyer_trits = [1 if p.buys(a, b) else 2 for a, b in edges]
    filtered = options is None or any(t not in kept for t, kept in zip(buyer_trits, options))
    report = verify_equilibrium(p, DeviationClass.parse("single-add,single-delete"))
    assert filtered == (report.witness is not None)


# At alpha 1 every ownership of K5 ties its sales and is an equilibrium; the
# 5-cycle at alpha 3 and two triangles at alpha 1 mix equilibria with others.
@example(profile(5, 1, pair_list(5)), 1, 1)
@example(directed_ring(5, 3), 3, 1)
@example(two_triangles(1), 1, 1)
@given(
    st.one_of(connected_profiles(min_n=2, max_n=7), sparse_connected_profiles(max_n=7)),
    st.integers(1, 40),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_table_verdict_matches_exact_verification(p, num, den):
    # Every ownership of the first ten edges (seven from n = 6 on, where each
    # exact re-verification costs far more), the rest owned as drawn: at
    # most 2^10 profiles on one graph, each decided by the tables and
    # re-verified.
    alpha = Fraction(num, den)
    edges = list(p.undirected_edges())
    found = _ownership_equilibria(alpha, EXACT, profile_class(p), DEFAULT_BUDGET)
    tabled = {profile_from_index(p.n, alpha, index) for index, _ in found}
    drawn = tuple(1 if p.buys(a, b) else 2 for a, b in edges)
    free = min(len(edges), 10 if p.n <= 5 else 7)
    for head in product((1, 2), repeat=free):
        owners = head + drawn[free:]
        bought = [BoughtEdge(*e) if t == 1 else BoughtEdge(*e[::-1]) for t, e in zip(owners, edges)]
        profile = StrategyProfile(p.n, alpha, tuple(bought))
        assert (profile in tabled) == verify_equilibrium(profile).is_equilibrium, owners


# ---------------------------------------------------------------------------
# random profiles


def test_random_profile_extremes():
    assert random_profile(5, 0.0, seed=1).edges == ()
    full = random_profile(5, 1.0, seed=1)
    assert len(full.undirected_edges()) == 10


def test_random_profile_deterministic():
    assert random_profile(6, 0.4, seed=9) == random_profile(6, 0.4, seed=9)


def test_random_profile_require_connected():
    p = random_profile(6, 0.3, seed=3, require_connected=True)
    assert is_connected(p)


def test_k_subset_walks_only_the_sizes_a_vertex_can_flip():
    # v has n - 1 bits, so any K >= n - 1 gives the same candidates: a huge
    # K is as quick as K = 3 on four vertices and reports the same
    import time

    p = star(4, alpha=9)
    start = time.perf_counter()
    report = verify_equilibrium(p, DeviationClass.parse(f"k-subset:{10**9}"))
    assert time.perf_counter() - start < 0.5
    want = verify_equilibrium(p, DeviationClass.parse("k-subset:3"))
    assert replace(report, deviation_class="k-subset:3") == want
    assert report.deviation_class == "k-subset:1000000000"


def test_composite_class_parses_and_runs():
    cls = DeviationClass.parse("single-add,single-delete")
    assert cls.kind == "composite" and len(cls.parts) == 2
    assert cls.spec() == "single-add,single-delete"
    report = verify_equilibrium(directed_ring(3, 5), cls)
    assert not report.is_equilibrium
