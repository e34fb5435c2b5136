"""Deviation generation, exact equilibrium verification, dynamics, enumeration.

An equilibrium check asks, per vertex, whether any replacement edge set
strictly lowers that vertex's total cost.  The exact class enumerates all
2^(n-1) replacement sets and is complete; the restricted classes are sound
witnesses only.  The hot paths run on bitmask adjacency with pure integer
arithmetic (alpha = p/q compared by cross-multiplication), so every verdict
is exact.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations, product
from math import inf

from .errors import BudgetExceededError
from .game import (
    BoughtEdge,
    StrategyProfile,
    adjacency_masks,
    ball_levels,
    bfs_distances,
    bfs_sum,
    is_connected,
)
from .structure import build_context

KINDS = (
    "exact-all-subsets",
    "single-add",
    "single-delete",
    "single-swap",
    "k-subset",
    "paper-strategy-1",
    "paper-strategy-2",
    "paper-strategy-3",
    "composite",
)

DEFAULT_BUDGET = 1 << 22


@dataclass(frozen=True)
class Deviation:
    """One vertex's replacement strategy: the vertices it now buys edges to."""

    vertex: int
    new_edge_set: frozenset[int]

    def __post_init__(self):
        if self.vertex in self.new_edge_set:
            raise ValueError("a vertex cannot buy an edge to itself")


@dataclass(frozen=True)
class DeviationClass:
    """A named family of deviations searched during verification."""

    kind: str
    k: int | None = None
    parts: tuple["DeviationClass", ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown deviation class kind {self.kind!r}")
        if self.kind == "k-subset" and (self.k is None or self.k < 1):
            raise ValueError("k-subset requires k >= 1")
        if self.kind == "composite" and not self.parts:
            raise ValueError("composite class needs at least one part")

    def spec(self) -> str:
        if self.kind == "k-subset":
            return f"k-subset:{self.k}"
        if self.kind == "composite":
            return ",".join(p.spec() for p in self.parts)
        return self.kind

    @staticmethod
    def parse(text: str) -> "DeviationClass":
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty deviation class spec")
        classes = []
        for part in parts:
            if part in ("exact", "exact-all-subsets"):
                classes.append(DeviationClass("exact-all-subsets"))
            elif part.startswith("k-subset:"):
                classes.append(DeviationClass("k-subset", k=int(part.split(":", 1)[1])))
            elif part in KINDS:
                classes.append(DeviationClass(part))
            else:
                raise ValueError(f"unknown deviation class {part!r}")
        if len(classes) == 1:
            return classes[0]
        return DeviationClass("composite", parts=tuple(classes))


EXACT = DeviationClass("exact-all-subsets")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one equilibrium check under one deviation class."""

    profile_hash: str
    deviation_class: str
    is_equilibrium: bool
    witness: tuple[Deviation, Fraction | float] | None
    deviations_checked: int


@dataclass(frozen=True)
class DynamicsTrace:
    """Best-response walk: each step is (vertex, deviation, exact delta < 0)."""

    steps: tuple[tuple[int, Deviation, Fraction | float], ...]
    converged: bool
    final_profile: StrategyProfile


def profile_hash(profile: StrategyProfile) -> str:
    """Stable digest of (n, alpha, sorted bought edges)."""
    payload = f"{profile.n};{profile.alpha};" + ";".join(
        f"{e.buyer},{e.other}" for e in sorted(profile.edges)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# bitmask internals


def _set_from_mask(mask: int) -> frozenset[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _mask_from_set(targets) -> int:
    m = 0
    for t in targets:
        m |= 1 << t
    return m


def _subset_masks(n: int, v: int):
    """Every target mask of ``v`` in subset-index order.

    Bit i of the index is the i-th vertex other than v, so vertices below v
    keep their bit and the rest move up one.  This order fixes every exact
    witness and ``deviations_checked``.
    """
    low = (1 << v) - 1
    return ((sub & low) | (sub >> v << (v + 1)) for sub in range(1 << (n - 1)))


def _distance_sums(profile: StrategyProfile, v: int, masks):
    """Yield (mask, v's BFS distance sum) when v buys exactly ``mask``.

    This prices restricted classes and ``delta_cost``; exact scans use
    ``_exact_sums``, which ``delta_cost`` then re-checks.

    The sum is None when v is cut off from some vertex.  Only row v is
    rewritten, to the edges others bought to v plus the mask: a BFS from v
    never follows an edge back into v, so the other rows may keep v's
    current purchases.
    """
    adj = adjacency_masks(profile)
    bought_to_v = _mask_from_set(e.buyer for e in profile.edges if e.other == v)
    full = (1 << profile.n) - 1
    for mask in masks:
        adj[v] = bought_to_v | mask
        yield mask, bfs_sum(adj, v, full)


# Each list ``_exact_sums`` yields holds at most 2^12 unions, so an exact
# scan keeps O(2^12) big ints alive at any n.
_TABLE_BITS = 12


def _exact_sums(profile: StrategyProfile, v: int):
    """Yield v's distance sums over ``_subset_masks(n, v)`` as lists, in order.

    With P[t] the ball levels of t in G - v and ``base`` those of the
    vertices that bought an edge to v, target mask T puts u within distance
    d + 1 of v iff u lies in block d of x = base | OR of P[t] over t in T.
    So v's distance sum is (n-1)n - popcount(x), or None when the top block
    misses a vertex, as ``_distance_sums`` gives.  Each list ORs one union
    over the high-half targets into the doubling-built unions of the low half.
    """
    n = profile.n
    adj = adjacency_masks(profile)
    blocked = 1 << v
    bought_to_v = _mask_from_set(e.buyer for e in profile.edges if e.other == v)
    levels = [ball_levels(adj, 1 << t, blocked) for t in range(n) if t != v]
    low, high = levels[:_TABLE_BITS], levels[_TABLE_BITS:]
    table = [ball_levels(adj, bought_to_v, blocked)]
    for lv in low:
        table += [x | lv for x in table]
    total = (n - 1) * n
    # The top block never holds v, so x >= reached iff it holds every other vertex.
    reached = (((1 << n) - 1) ^ blocked) << (max(n - 2, 0) * n)
    for sub in range(1 << len(high)):
        hx = 0
        for i, lv in enumerate(high):
            if sub >> i & 1:
                hx |= lv
        yield [total - y.bit_count() if (y := x | hx) >= reached else None for x in table]


# ---------------------------------------------------------------------------
# exact cost deltas


def delta_cost(profile: StrategyProfile, v: int, new_edge_set) -> Fraction | float:
    """Exact cost change for ``v`` adopting ``new_edge_set``, others fixed.

    Recomputes v's distance sum from scratch on the modified graph: this is
    the brute-force oracle every bound audit compares against.  Returns +inf
    when the deviation separates v from some vertex, -inf when it reconnects
    a previously separated v.
    """
    new_targets = frozenset(new_edge_set)
    if v in new_targets:
        raise ValueError("deviation may not contain a self-loop")
    if not all(0 <= t < profile.n for t in new_targets):
        raise ValueError("deviation target outside the vertex range")

    old_targets = profile.targets_of(v)
    masks = (_mask_from_set(old_targets), _mask_from_set(new_targets))
    (_, old_sum), (_, new_sum) = _distance_sums(profile, v, masks)

    if new_sum is None:
        return inf
    if old_sum is None:
        return -inf
    return profile.alpha * (len(new_targets) - len(old_targets)) + (new_sum - old_sum)


def best_response_exact(
    profile: StrategyProfile, v: int, budget: int = DEFAULT_BUDGET
) -> tuple[frozenset[int], Fraction | float]:
    """Cost-minimising edge set for ``v`` over all subsets of the other vertices.

    Ties prefer fewer edges, then lexicographically smallest target set.
    The returned delta is <= 0 since the current strategy competes.
    """
    n = profile.n
    required = 1 << (n - 1)
    if required > budget:
        raise BudgetExceededError(
            f"best response needs {required} evaluations (budget {budget})",
            required=required,
        )
    p, q = profile.alpha.numerator, profile.alpha.denominator
    best_key = best = None
    sums = chain.from_iterable(_exact_sums(profile, v))
    for mask, dsum in zip(_subset_masks(n, v), sums):
        if dsum is None:
            continue
        size = mask.bit_count()
        key = (p * size + q * dsum, size)
        # Of two sets of one size, the one holding the lowest vertex of their
        # symmetric difference has the smaller sorted tuple.
        if best_key is None or key < best_key or (
            key == best_key and mask & (diff := mask ^ best) & -diff
        ):
            best_key, best = key, mask

    # Buying an edge to everyone reaches every vertex, so best is never None.
    best_set = _set_from_mask(best)
    delta = delta_cost(profile, v, best_set)
    if delta > 0:  # cannot happen: current strategy is in the search space
        raise AssertionError("best response worse than current strategy")
    return best_set, delta


# ---------------------------------------------------------------------------
# deviation generators (restricted classes)


def _class_deviations(profile: StrategyProfile, v: int, cls: DeviationClass, ctx):
    """Yield candidate target sets for ``v`` in deterministic order."""
    current = profile.targets_of(v)
    others = [u for u in range(profile.n) if u != v]

    if cls.kind == "exact-all-subsets":
        for mask in _subset_masks(profile.n, v):
            s = _set_from_mask(mask)
            if s != current:
                yield s
    elif cls.kind == "single-add":
        for u in sorted(set(others) - current):
            yield current | {u}
    elif cls.kind == "single-delete":
        for u in sorted(current):
            yield current - {u}
    elif cls.kind == "single-swap":
        for u in sorted(current):
            for w in sorted(set(others) - current):
                yield (current - {u}) | {w}
    elif cls.kind == "k-subset":
        # All strategies within symmetric difference k of the current one.
        for size in range(1, cls.k + 1):
            for flip in combinations(others, size):
                yield current.symmetric_difference(flip)
    elif cls.kind.startswith("paper-strategy-"):
        yield from _paper_strategy_deviations(profile, v, cls.kind[-1], ctx)
    elif cls.kind == "composite":
        seen = set()
        for part in cls.parts:
            for s in _class_deviations(profile, v, part, ctx):
                if s not in seen:
                    seen.add(s)
                    yield s


def _paper_strategy_deviations(profile: StrategyProfile, v: int, which: str, ctx):
    """Sell-subsets of v's low-level H-edges, optionally rebuying the root edge.

    Strategy 1 sells bought edges of minimal level <= 2; strategies 2 and 3
    also buy the edge to the root, with 3 additionally allowed to sell v's
    bought up-edge.
    """
    if ctx is None or not ctx.has_cyclic_h or v not in ctx.h_vertices or v == ctx.root:
        return
    eligible = ctx.sellable_edges(v, include_up=(which == "3"))
    if not eligible:
        return
    current = profile.targets_of(v)
    for size in range(1, len(eligible) + 1):
        for sold in combinations(eligible, size):
            new = current - {other for (_, other) in sold}
            if which in ("2", "3"):
                new = new | {ctx.root}
            if new != current:
                yield new


def _needs_context(cls: DeviationClass) -> bool:
    if cls.kind.startswith("paper-strategy-"):
        return True
    return any(_needs_context(p) for p in cls.parts)


# ---------------------------------------------------------------------------
# verification


def verify_equilibrium(
    profile: StrategyProfile,
    dev_class: DeviationClass = EXACT,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Check every deviation the class generates; first strict improvement wins.

    Sound for every class (a witness always beats exact recomputation);
    complete only for exact-all-subsets.  Disconnected profiles are rejected
    outright: buying edges to everyone is a finite-cost improvement over an
    infinite one.  Candidates are compared by integer cross-multiplication;
    the witness is then re-priced by ``delta_cost``.
    """
    digest = profile_hash(profile)
    if profile.n > 1 and not is_connected(profile):
        v = 0
        dev = Deviation(v, frozenset(range(1, profile.n)))
        return VerificationReport(digest, dev_class.spec(), False, (dev, -inf), 1)

    exact = dev_class.kind == "exact-all-subsets"
    if exact:
        required = profile.n * ((1 << (profile.n - 1)) - 1)
        if required > budget:
            raise BudgetExceededError(
                f"exact verification needs {required} deviation checks (budget {budget})",
                required=required,
            )
    ctx = None
    if _needs_context(dev_class):
        ctx = build_context(profile)

    p, q = profile.alpha.numerator, profile.alpha.denominator
    checked = 0
    for v in range(profile.n):
        current = _mask_from_set(profile.targets_of(v))
        if exact:
            blocks = _exact_sums(profile, v)
            head = next(blocks)
            index = (current & ((1 << v) - 1)) | (current >> (v + 1) << v)
            if index < len(head):
                current_sum = head[index]
            else:  # past the first 2^12 target sets: one BFS beats waiting for its list
                [(_, current_sum)] = _distance_sums(profile, v, [current])
            priced = zip(_subset_masks(profile.n, v), chain(head, chain.from_iterable(blocks)))
        else:
            candidates = map(_mask_from_set, _class_deviations(profile, v, dev_class, ctx))
            priced = _distance_sums(profile, v, chain([current], candidates))
            _, current_sum = next(priced)
        current_cost = p * current.bit_count() + q * current_sum
        for mask, dsum in priced:
            if mask == current:
                continue
            checked += 1
            if checked > budget:
                raise BudgetExceededError(
                    f"verification exceeded budget {budget}", required=checked
                )
            if dsum is not None and p * mask.bit_count() + q * dsum < current_cost:
                targets = _set_from_mask(mask)
                delta = delta_cost(profile, v, targets)
                if delta >= 0:  # cannot happen: the oracle re-checks the integer verdict
                    raise AssertionError("witness does not improve under the oracle")
                dev = Deviation(v, targets)
                return VerificationReport(digest, dev_class.spec(), False, (dev, delta), checked)
    return VerificationReport(digest, dev_class.spec(), True, None, checked)


# ---------------------------------------------------------------------------
# dynamics


def best_response_dynamics(
    initial: StrategyProfile,
    dev_class: DeviationClass = EXACT,
    vertex_order: str = "round-robin",
    max_iters: int = 100,
    seed: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> DynamicsTrace:
    """Iterate best improving moves until a full pass changes nothing.

    ``max_iters`` bounds the number of passes; non-convergence is a valid
    outcome and leaves ``converged`` False.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = random.Random(seed)
    profile = initial
    steps: list[tuple[int, Deviation, Fraction | float]] = []
    converged = False
    for _ in range(max_iters):
        order = list(range(profile.n))
        if vertex_order == "random":
            rng.shuffle(order)
        improved = False
        for v in order:
            move = _best_class_move(profile, v, dev_class, budget)
            if move is None:
                continue
            targets, delta = move
            steps.append((v, Deviation(v, targets), delta))
            profile = profile.with_strategy(v, targets)
            improved = True
        if not improved:
            converged = True
            break
    return DynamicsTrace(tuple(steps), converged, profile)


def _best_class_move(
    profile: StrategyProfile, v: int, cls: DeviationClass, budget: int
) -> tuple[frozenset[int], Fraction | float] | None:
    """Best strictly improving deviation for v within the class, or None."""
    if cls.kind == "exact-all-subsets":
        targets, delta = best_response_exact(profile, v, budget)
        return (targets, delta) if delta < 0 else None
    ctx = None
    if _needs_context(cls):
        ctx = build_context(profile)
    best = None
    for targets in _class_deviations(profile, v, cls, ctx):
        delta = delta_cost(profile, v, targets)
        if delta >= 0:
            continue
        key = (delta, len(targets), tuple(sorted(targets)))
        if best is None or key < best[0]:
            best = (key, targets, delta)
    if best is None:
        return None
    return best[1], best[2]


# ---------------------------------------------------------------------------
# enumeration and random generation


@dataclass(frozen=True)
class EnumerationResult:
    """Exhaustive scan outcome over all buyer-annotated profiles."""

    n: int
    alpha: Fraction
    profiles_scanned: int
    connected_count: int
    equilibria: tuple[tuple[StrategyProfile, VerificationReport], ...]


def pair_list(n: int) -> list[tuple[int, int]]:
    """Unordered vertex pairs in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def profile_from_index(n: int, alpha: Fraction, index: int) -> StrategyProfile:
    """Decode a base-3 profile index: per pair 0 = absent, 1/2 = lower/higher buys."""
    edges = []
    for u, v in pair_list(n):
        index, trit = divmod(index, 3)
        if trit == 1:
            edges.append(BoughtEdge(u, v))
        elif trit == 2:
            edges.append(BoughtEdge(v, u))
    return StrategyProfile(n, alpha, tuple(edges))


def greedy_owner_options(
    adj: list[int], edges: list[tuple[int, int]], alpha: Fraction
) -> list[tuple[int, ...]] | None:
    """Owner trits of each edge ``(a, b)``, ``a < b``, that pass the greedy tests.

    ``adj`` is a connected graph.  Trit 1 means ``a`` buys, 2 means ``b``
    buys.  An owner is kept when selling the edge raises its distance sum by
    at least alpha, or when the edge is a bridge.  Returns None when some
    vertex strictly gains by buying one more edge, or when some edge keeps no
    owner.  Distances do not depend on ownership, so every Nash equilibrium
    on this graph survives: the tests are its single-add and single-delete
    deviations.
    """
    n = len(adj)
    full = (1 << n) - 1
    p, q = alpha.numerator, alpha.denominator
    dist = [bfs_distances(adj, s) for s in range(n)]
    for v, w in permutations(range(n), 2):
        gain = sum(max(0, x - 1 - y) for x, y in zip(dist[v], dist[w]))
        if q * gain > p and not adj[v] >> w & 1:
            return None
    options = []
    for a, b in edges:
        cut = list(adj)
        cut[a] ^= 1 << b
        cut[b] ^= 1 << a
        owners = tuple(
            trit for trit, x in ((1, a), (2, b))
            if (after := bfs_sum(cut, x, full)) is None or q * (after - sum(dist[x])) >= p
        )
        if not owners:
            return None
        options.append(owners)
    return options


def scan_graph_range(
    n: int,
    alpha: Fraction,
    dev_class: DeviationClass,
    graphs: range,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, list[tuple[int, VerificationReport]]]:
    """Verify every profile whose underlying graph index lies in ``graphs``.

    Bit k of a graph index is pair k of ``pair_list(n)``.  Under the exact
    class ``greedy_owner_options`` drops ownerships that cannot be equilibria;
    restricted classes may lack single adds and sells, so they verify every
    ownership.  Returns (connected-profile count, [(profile index, report)]
    for equilibria found); a pure function of its inputs.
    """
    exact = dev_class.kind == "exact-all-subsets"
    pairs = pair_list(n)
    connected = 0
    found = []
    for graph in graphs:
        ks = [k for k in range(len(pairs)) if graph >> k & 1]
        edges = [pairs[k] for k in ks]
        adj = [0] * n
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        if bfs_sum(adj, 0, (1 << n) - 1) is None:
            continue
        connected += 1 << len(edges)
        options = greedy_owner_options(adj, edges, alpha) if exact else [(1, 2)] * len(edges)
        if options is None:
            continue
        for owners in product(*options):
            index = sum(trit * 3**k for trit, k in zip(owners, ks))
            report = verify_equilibrium(profile_from_index(n, alpha, index), dev_class, budget)
            if report.is_equilibrium:
                found.append((index, report))
    return connected, found


def random_profile(
    n: int,
    edge_density: float,
    seed: int,
    alpha: Fraction | int = 1,
    require_connected: bool = False,
    max_tries: int = 10_000,
) -> StrategyProfile:
    """Seeded random profile: each pair present independently, buyer by coin flip."""
    if not 0 <= edge_density <= 1:
        raise ValueError("edge_density must lie in [0, 1]")
    rng = random.Random(seed)
    for _ in range(max_tries):
        edges = []
        for u, v in pair_list(n):
            if rng.random() < edge_density:
                edges.append(BoughtEdge(u, v) if rng.random() < 0.5 else BoughtEdge(v, u))
        profile = StrategyProfile(n, Fraction(alpha), tuple(edges))
        if not require_connected or is_connected(profile):
            return profile
    raise ValueError(f"no connected profile found in {max_tries} draws")
