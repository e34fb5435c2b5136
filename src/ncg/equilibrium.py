"""Deviation generation, exact equilibrium verification, dynamics, enumeration.

An equilibrium check asks, per vertex, whether any replacement edge set
strictly lowers that vertex's total cost.  The exact class is complete: of
the 2^(n-1) replacement sets it prices all those of each size whose cost
lower bound can still win, and a set of any other size cannot.  The
restricted classes are sound witnesses only.  The hot paths run on bitmask
adjacency with pure integer arithmetic (alpha = p/q compared by
cross-multiplication), so every verdict is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations, compress, permutations, repeat
from math import inf
from operator import getitem

from .errors import BudgetExceededError
from .game import (
    BoughtEdge,
    StrategyProfile,
    bfs_sum,
    colex_index,
    is_connected,
    mask_members,
    profile_hash,
    row_sums,
    sized_sums,
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

VERTEX_ORDERS = ("round-robin", "random")

# ``random_profile`` gives up on a connected draw after this many tries.
MAX_DRAWS = 10_000


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

    @property
    def covers_exact(self) -> bool:
        """Whether the class prices every target set: exact, or a composite
        with an exact part, whose equilibria are exact ones."""
        return self.kind == "exact-all-subsets" or EXACT in self.parts

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


# ---------------------------------------------------------------------------
# bitmask internals


def _subset_masks(n: int, v: int):
    """Every target mask of ``v`` in subset-index order.

    Bit i of the index is the i-th vertex other than v, so vertices below v
    keep their bit and the rest move up one.  This order fixes every exact
    witness and ``deviations_checked``.
    """
    return map(_subset_mask, range(1 << (n - 1)), repeat(v))


def _subset_mask(index: int, v: int) -> int:
    """The target mask at position ``index`` of v's subset-index order."""
    return (index & ((1 << v) - 1)) | (index >> v << (v + 1))


def _subset_index(mask: int, v: int) -> int:
    """Position of target mask ``mask`` in v's subset-index order."""
    return (mask & ((1 << v) - 1)) | (mask >> (v + 1) << v)


def _bounded_scan(profile: StrategyProfile, v: int, strict: bool, neighbours):
    """v's current cost in units of 1/q (alpha = p/q), and ``sized_sums`` up
    to the largest size whose sets can still cost at most that, less one
    when ``strict``; ``neighbours`` lists each vertex's neighbours.

    v's neighbours are its k targets and the set I of vertices that bought
    an edge to it, and every other vertex is at distance at least 2, so a
    k-set costs at least L(k) = p*k + q*(2(n-1) - min(n-1, k+|I|)).  L is
    not monotone in k when alpha < 1, so the cap is the largest admissible
    k, not the first that fails.  There is no cap when v is cut off now.
    """
    adj, bought_by = profile.adj, profile.bought_by[v]
    current_sum = bfs_sum(adj, v, adj[v])
    if current_sum is None:
        return inf, sized_sums(adj, v, bought_by, profile.n - 1, neighbours)
    p, q = profile.alpha.numerator, profile.alpha.denominator
    cost = p * profile.bought[v].bit_count() + q * current_sum
    return cost, sized_sums(adj, v, bought_by, _size_cap(profile, v, cost - strict), neighbours)


def _size_cap(profile: StrategyProfile, v: int, limit: int) -> int:
    """The largest k whose lower bound L(k) (``_bounded_scan``) is at most
    ``limit``, or -1.  L moves by p - q per edge until v's neighbours can
    cover every other vertex, at k = ``free``, and by p after it."""
    p, q = profile.alpha.numerator, profile.alpha.denominator
    m = profile.n - 1
    free = m - profile.bought_by[v].bit_count()
    if p <= 0:  # L never rises: its least value is L(m)
        return m if (p + q) * m <= limit else -1
    if p * free + q * m <= limit:
        return min(m, (limit - q * m) // p)
    if p <= q:  # below free, L(k) >= L(free) > limit
        return -1
    return max(-1, (limit - q * (m + free)) // (p - q))


# ---------------------------------------------------------------------------
# exact cost deltas


def delta_cost(profile: StrategyProfile, v: int, new_edge_set) -> Fraction | float:
    """Exact cost change for ``v`` adopting ``new_edge_set``, others fixed.

    Recomputes v's distance sums before and after from scratch, with two
    BFS.  It re-checks every verification witness and every dynamics winner,
    which the scans pick by integer pricing, and the tests use it as the
    oracle for the bound audits' integer pricing.  Returns +inf
    when the deviation separates v from some vertex, -inf when it reconnects
    a previously separated v.
    """
    new_targets = frozenset(new_edge_set)
    if v in new_targets:
        raise ValueError("deviation may not contain a self-loop")
    if not all(0 <= t < profile.n for t in new_targets):
        raise ValueError("deviation target outside the vertex range")

    adj = profile.adj
    old_sum = bfs_sum(adj, v, adj[v])
    new_sum = bfs_sum(adj, v, profile.bought_by[v] | sum(1 << t for t in new_targets))

    if new_sum is None:
        return inf
    if old_sum is None:
        return -inf
    return profile.alpha * (len(new_targets) - profile.bought[v].bit_count()) + (new_sum - old_sum)


def best_response_exact(
    profile: StrategyProfile, v: int, budget: int = DEFAULT_BUDGET, neighbours=None
) -> tuple[frozenset[int], Fraction | float]:
    """Cost-minimising edge set for ``v`` over all subsets of the other vertices.

    Ties prefer fewer edges, then lexicographically smallest target set.
    The returned delta is <= 0 since the current strategy competes.  Only
    sizes whose cost lower bound does not exceed the current cost are
    priced (``_bounded_scan``), and once a size sets the best cost so far,
    only larger sizes whose lower bound is below it (``_size_cap``).  A
    winner other than v's current row is re-priced by ``delta_cost``; the
    current row itself is no move, and its delta is ``Fraction(0)``.
    ``neighbours``, each vertex's neighbour list, is built when None.
    """
    n = profile.n
    required = 1 << (n - 1)
    if required > budget:
        raise BudgetExceededError(
            f"best response needs {required} evaluations (budget {budget})",
            required=required,
        )
    p, q = profile.alpha.numerator, profile.alpha.denominator
    # A set that ties the current cost may still win on size or order.
    _, layers = _bounded_scan(profile, v, strict=False, neighbours=neighbours)
    best_cost = best = None
    for k, sums in enumerate(layers):
        low = min((d for d in sums if d is not None), default=None)
        if low is None or (best_cost is not None and p * k + q * low >= best_cost):
            continue  # fewer edges win ties
        best_cost = p * k + q * low
        # Subset indices keep vertex order, so the smallest sorted tuple of
        # one size has the smallest member list.
        best = min((colex_index(i, k) for i, d in enumerate(sums) if d == low), key=mask_members)
        if _size_cap(profile, v, best_cost - 1) <= k:
            break  # no larger set can cost less than the incumbent

    # The current strategy, or everyone when v is cut off now, lies within
    # the cap, so best is never None.
    best_set = frozenset(mask_members(_subset_mask(best, v)))
    if best == _subset_index(profile.bought[v], v):
        return best_set, Fraction(0)
    delta = delta_cost(profile, v, best_set)
    if delta > 0:  # cannot happen: current strategy is in the search space
        raise AssertionError("best response worse than current strategy")
    return best_set, delta


# ---------------------------------------------------------------------------
# deviation generators (restricted classes)


def _class_deviations(n: int, v: int, current: int, cls: DeviationClass, contexts):
    """Yield the target masks v may switch to from ``current``, in order;
    paper strategies read ``contexts`` (``_class_contexts``), each root's in turn."""
    missing = mask_members(((1 << n) - 1) & ~current & ~(1 << v))

    if cls.kind == "exact-all-subsets":
        for mask in _subset_masks(n, v):
            if mask != current:
                yield mask
    elif cls.kind == "single-add":
        for u in missing:
            yield current | 1 << u
    elif cls.kind == "single-delete":
        for u in mask_members(current):
            yield current & ~(1 << u)
    elif cls.kind == "single-swap":
        for u in mask_members(current):
            for w in missing:
                yield current & ~(1 << u) | 1 << w
    elif cls.kind == "k-subset":
        # All strategies within symmetric difference k; v has n - 1 bits to flip.
        bits = [1 << u for u in range(n) if u != v]
        for size in range(1, min(cls.k, n - 1) + 1):
            for flip in combinations(bits, size):
                yield current ^ sum(flip)
    elif cls.kind.startswith("paper-strategy-"):
        kind = "strategy" + cls.kind[-1]
        seen = {current}
        for ctx in contexts:
            for sold in ctx.sell_sets(v, kind):
                mask = ctx.rewrite(v, kind, sold)
                if mask not in seen:
                    seen.add(mask)
                    yield mask
    elif cls.kind == "composite":
        seen = set()
        for part in cls.parts:
            for mask in _class_deviations(n, v, current, part, contexts):
                if mask not in seen:
                    seen.add(mask)
                    yield mask


def _class_costs(profile: StrategyProfile, v: int, cls: DeviationClass, contexts):
    """v's current cost and (mask, cost) per candidate, one BFS each: units of
    1/q for alpha = p/q, inf when v is cut off from some vertex.

    This prices restricted classes in verification and dynamics; exact scans
    use ``sized_sums``.  v's row is the edges others bought to v plus the mask.
    """
    p, q = profile.alpha.numerator, profile.alpha.denominator
    adj, into, current = profile.adj, profile.bought_by[v], profile.bought[v]
    candidates = _class_deviations(profile.n, v, current, cls, contexts)
    priced = ((mask, bfs_sum(adj, v, into | mask)) for mask in chain([current], candidates))
    costs = ((mask, inf if d is None else p * mask.bit_count() + q * d) for mask, d in priced)
    _, current = next(costs)
    return current, costs


def _needs_context(cls: DeviationClass) -> bool:
    if cls.kind.startswith("paper-strategy-"):
        return True
    return any(_needs_context(p) for p in cls.parts)


def _class_contexts(profile: StrategyProfile, cls: DeviationClass, graph=None) -> tuple:
    """The contexts the class's paper strategies read, one per root
    ``choose_root`` could pick: every H vertex of least connection cost, in
    id order, so that no root is chosen by label.  Empty when the class has
    none or the profile is disconnected: they live in a connected graph's H.
    ``graph`` is a context of a profile with the same ``adj``.
    """
    if not _needs_context(cls) or not is_connected(profile):
        return ()
    ctx = build_context(profile, graph)  # rooted at choose_root's pick
    least = ctx.connections[ctx.root]
    return tuple(
        ctx if r == ctx.root else build_context(profile, ctx, r)
        for r in sorted(ctx.h_vertices)
        if ctx.connections[r] == least
    )


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
    the witness is then re-priced by ``delta_cost``.  The exact class prices
    only sizes whose cost lower bound is below the current cost
    (``_bounded_scan``), but reports the witness and ``deviations_checked``
    of the full scan in subset-index order.  A composite with an exact part
    generates every other target set of each vertex, so the bounded scan
    decides each vertex's stability too; only a vertex with an improvement
    walks the composite order, which fixes its witness.
    """
    digest = profile_hash(profile)
    if profile.n > 1 and not is_connected(profile):
        v = 0
        dev = Deviation(v, frozenset(range(1, profile.n)))
        return VerificationReport(digest, dev_class.spec(), False, (dev, -inf), 1)

    exact = dev_class.kind == "exact-all-subsets"
    if exact:
        _exact_checks(profile.n, budget)
    covers_all = dev_class.covers_exact
    contexts = _class_contexts(profile, dev_class)
    neighbours = list(map(mask_members, profile.adj)) if covers_all else None

    checked = 0
    for v in range(profile.n):
        if covers_all:
            index = _first_improvement(profile, v, neighbours)
            if index is None:
                checked += (1 << (profile.n - 1)) - 1
                if checked > budget:  # the composite walk would stop one past the budget
                    raise _budget_error(budget)
                continue
        if exact:
            # As if every set up to the witness were checked, but the current one.
            checked += index + (_subset_index(profile.bought[v], v) > index)
            return _witness_report(profile, digest, dev_class, v, _subset_mask(index, v), checked)
        current_cost, priced = _class_costs(profile, v, dev_class, contexts)
        for mask, cost in priced:
            checked += 1
            if checked > budget:
                raise _budget_error(budget)
            if cost < current_cost:
                return _witness_report(profile, digest, dev_class, v, mask, checked)
    return VerificationReport(digest, dev_class.spec(), True, None, checked)


def _budget_error(budget: int) -> BudgetExceededError:
    """The error of a check that needs more than ``budget`` deviations."""
    return BudgetExceededError(f"verification exceeded budget {budget}", required=budget + 1)


def _exact_checks(n: int, budget: int) -> int:
    """The deviation checks of exact verification at n vertices, within ``budget``."""
    required = n * ((1 << (n - 1)) - 1)
    if required > budget:
        raise BudgetExceededError(
            f"exact verification needs {required} deviation checks (budget {budget})",
            required=required,
        )
    return required


def _first_improvement(profile: StrategyProfile, v: int, neighbours) -> int | None:
    """The least subset index of a target set strictly improving v, or None.

    Only sizes whose cost lower bound is below v's current cost are priced
    (``_bounded_scan``); within one size the first improving set has the
    least index, and no k-set has an index below 2^k - 1.
    """
    p, q = profile.alpha.numerator, profile.alpha.denominator
    cost, layers = _bounded_scan(profile, v, strict=True, neighbours=neighbours)
    best = end = 1 << (profile.n - 1)  # past every subset index
    for k, sums in enumerate(layers):
        if best < (1 << k) - 1:
            break
        limit = (cost - 1 - p * k) // q  # the largest improving distance sum
        for i, d in enumerate(sums):
            if d is not None and d <= limit:
                best = min(best, colex_index(i, k))
                break
    return best if best < end else None


def _witness_report(
    profile: StrategyProfile, digest: str, cls: DeviationClass, v: int, mask: int, checked: int
) -> VerificationReport:
    """The report for v's improving ``mask``, re-priced by ``delta_cost``."""
    targets = frozenset(mask_members(mask))
    delta = delta_cost(profile, v, targets)
    if delta >= 0:  # cannot happen: the oracle re-checks the integer verdict
        raise AssertionError("witness does not improve under the oracle")
    dev = Deviation(v, targets)
    return VerificationReport(digest, cls.spec(), False, (dev, delta), checked)


# ---------------------------------------------------------------------------
# dynamics


class _Rows:
    """A profile's ``n``, ``alpha`` and bitmask rows, as lists a move rewrites
    in place, and each vertex's neighbour list: what the scans read."""

    def __init__(self, profile: StrategyProfile):
        self.n, self.alpha = profile.n, profile.alpha
        self.adj, self.bought = list(profile.adj), list(profile.bought)
        self.bought_by = list(profile.bought_by)
        self.neighbours = list(map(mask_members, self.adj))

    def move(self, v: int, targets: frozenset[int]) -> None:
        """v buys ``targets`` instead: its bit flips in the rows it gains or drops."""
        changed = self.bought[v] ^ sum(1 << t for t in targets)
        self.bought[v] ^= changed
        for u in mask_members(changed):
            self.bought_by[u] ^= 1 << v
        for u in mask_members(changed | 1 << v):
            self.adj[u] = self.bought[u] | self.bought_by[u]
            self.neighbours[u] = mask_members(self.adj[u])

    def profile(self) -> StrategyProfile:
        edges = (BoughtEdge(v, u) for v in range(self.n) for u in mask_members(self.bought[v]))
        return StrategyProfile(self.n, self.alpha, tuple(edges))


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
    outcome and leaves ``converged`` False.  ``vertex_order`` is one of
    ``VERTEX_ORDERS``; "random" shuffles each pass with ``seed``.

    A vertex that answered "no move" on the current profile is not asked
    again until some vertex moves, nor, under the exact class, is the mover:
    its best response reads only G - v and the edges bought to v.  Moves
    rewrite ``_Rows``; profiles are built for the result and paper contexts.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if vertex_order not in VERTEX_ORDERS:
        raise ValueError(f"unknown vertex order {vertex_order!r}")
    rng = random.Random(seed)
    rows = _Rows(initial)
    contexts = _class_contexts(initial, dev_class)
    settled: set[int] = set()
    steps: list[tuple[int, Deviation, Fraction | float]] = []
    converged = False
    for _ in range(max_iters):
        order = list(range(rows.n))
        if vertex_order == "random":
            rng.shuffle(order)
        improved = False
        for v in order:
            if v in settled:
                continue
            move = _best_class_move(rows, v, dev_class, budget, contexts, rows.neighbours)
            if move is None:
                settled.add(v)
                continue
            targets, delta = move
            steps.append((v, Deviation(v, targets), delta))
            rows.move(v, targets)
            if _needs_context(dev_class):
                contexts = _class_contexts(rows.profile(), dev_class)
            settled = {v} if dev_class.kind == "exact-all-subsets" else set()
            improved = True
        if not improved:
            converged = True
            break
    return DynamicsTrace(tuple(steps), converged, rows.profile() if steps else initial)


def _best_class_move(
    profile: StrategyProfile, v: int, cls: DeviationClass, budget: int, contexts, neighbours=None
) -> tuple[frozenset[int], Fraction | float] | None:
    """Best strictly improving deviation for v within the class, or None.

    The least (cost, size, members) wins; a cut-off v gains -inf from every
    reconnecting set, so size decides, then members.  Past ``budget``
    candidates a restricted class raises ``BudgetExceededError``, as its
    verification does.
    """
    if cls.kind == "exact-all-subsets":
        targets, delta = best_response_exact(profile, v, budget, neighbours)
        return (targets, delta) if delta < 0 else None
    current_cost, priced = _class_costs(profile, v, cls, contexts)
    best = None
    for checked, (mask, cost) in enumerate(priced, 1):
        if checked > budget:
            raise BudgetExceededError(f"best response exceeded budget {budget}", required=checked)
        if cost >= current_cost:
            continue
        key = (cost if current_cost < inf else 0, mask.bit_count(), mask_members(mask))
        if best is None or key < best:
            best = key
    if best is None:
        return None
    targets = frozenset(best[2])
    return targets, delta_cost(profile, v, targets)


# ---------------------------------------------------------------------------
# enumeration and random generation


@dataclass(frozen=True)
class EnumerationResult:
    """Exhaustive scan outcome over all buyer-annotated profiles.

    ``representatives`` holds ``decide_classes``' class records and
    ``equilibria`` their ``labelled_equilibria``; the records are left out
    of equality, so a result rebuilt from the other five fields equals it.
    """

    n: int
    alpha: Fraction
    profiles_scanned: int
    connected_count: int
    equilibria: tuple[tuple[StrategyProfile, VerificationReport], ...]
    representatives: tuple | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class GraphClass:
    """One isomorphism class of connected graphs on n vertices, alpha-free.

    Its representative has pair indices ``ks`` of ``pair_list(n)``, ``edges``
    and adjacency rows ``adj``; ``weight`` is its number of labelled images,
    n!/|Aut G|.  ``sums[v]`` is ``row_sums(adj, v, 0)``: v's distance sum f_v(S)
    for every row S of v in subset-index order, from which every alpha's
    cost tables are priced (``_cost_tables``).  ``automorphisms`` holds, per
    vertex map fixing the representative (identity first), the profile-index
    terms ``(0, 3^k', 2*3^k')`` of each pair k's image k' (``_vertex_maps``),
    which carry an ownership of the representative to its image.
    """

    ks: list[int]
    edges: list[tuple[int, int]]
    adj: list[int]
    weight: int
    sums: list[list[int | None]]
    automorphisms: list[list[tuple[int, int, int]]]


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


def _cost_tables(sums: list[list[int | None]], alpha: Fraction):
    """Yield the cost table of each vertex in turn from its ``GraphClass.sums``.

    Table v holds q*f_v(S) + p*|S| for every row S of v in subset-index
    order, where alpha = p/q and f_v(S) = sums[v][S] is v's distance sum
    when its neighbours are exactly S (None when S cuts v off).  A caller
    that rules the graph out stops before the rest are built.
    """
    p, q = alpha.numerator, alpha.denominator
    weights = [0]
    for _ in range(len(sums) - 1):
        weights += [w + p for w in weights]
    for row in sums:
        yield [q * d + w if d is not None else None for d, w in zip(row, weights)]


def _greedy_tables(
    graph: GraphClass, alpha: Fraction
) -> tuple[list[list[int | None]], list[tuple[int, ...]]] | None:
    """Per-vertex cost tables of a connected graph, and its greedy owner trits.

    Tables are those of ``_cost_tables``.  Owner trit 1 of edge ``(a, b)``,
    ``a < b``, means ``a`` buys, 2 that ``b`` buys; an owner is kept when
    selling the edge does not lower its table entry.  Returns None when some
    vertex strictly gains by buying one more edge, or when some edge keeps
    no owner.  Distances do not depend on ownership, so every Nash
    equilibrium on this graph survives: these are its single-add and
    single-delete deviations, one table lookup each.
    """
    adj, edges = graph.adj, graph.edges
    everyone = (1 << (len(adj) - 1)) - 1
    rows = [_subset_index(row, v) for v, row in enumerate(adj)]
    tables = []
    options = [()] * len(edges)
    for v, h in enumerate(_cost_tables(graph.sums, alpha)):
        tables.append(h)
        now = h[rows[v]]
        missing = everyone ^ rows[v]
        while missing:
            bit = missing & -missing
            if h[rows[v] | bit] < now:
                return None
            missing ^= bit
        # Edges to lower vertices now have both tables, so a graph that an
        # unowned edge rules out stops before building the rest.
        for i, (a, b) in enumerate(edges):
            if b != v:
                continue
            options[i] = tuple(
                trit for trit, x, y in ((1, a, b), (2, b, a))
                if (sold := tables[x][rows[x] ^ _subset_index(1 << y, x)]) is None
                or sold >= tables[x][rows[x]]
            )
            if not options[i]:
                return None
    return tables, options


def _superset_min(table: list[int | None]) -> list[int | float]:
    """g[I] = min of ``table`` over every index S that contains I; None is inf."""
    g = [inf if h is None else h for h in table]
    half = 1
    while half < len(g):
        for lo in range(0, len(g), 2 * half):
            mid, hi = lo + half, lo + 2 * half
            g[lo:mid] = map(min, g[lo:mid], g[mid:hi])
        half *= 2
    return g


def _ownership_equilibria(
    alpha: Fraction, dev_class: DeviationClass, graph: GraphClass, budget: int
) -> list[tuple[int, int]]:
    """(profile index, deviations_checked) of every equilibrium under
    ``dev_class`` on the representative of ``graph``, none of them decoded.

    Whatever v deviates to, it keeps I_v, the edges others bought to it, and
    pays for the rest of its row: for alpha = p/q, target mask T improves iff
    h_v[I_v | T] + p*|I_v & T| < h_v[N(v)] in v's ``_cost_tables`` table (a
    None entry cuts v off).  So without a paper strategy, v's verdict and
    candidate count depend on I_v alone: under exact, v checks every other
    row and is stable iff g_v[I_v] >= h_v[N(v)], g_v the ``_superset_min`` of
    its table; else one lookup per ``_class_deviations`` candidate decides.
    Ownerships are walked in ``product`` order over owner trits (1: the lower
    end buys), the ``_greedy_tables`` ones under exact, and a branch is cut
    once a vertex whose edges are all owned is unstable.  The sum of the
    counts, ``deviations_checked``, may not exceed ``budget``.  Paper-strategy
    candidates follow the shortest path trees of the whole ownership, so such
    a class decodes each ownership it reaches and counts as
    ``verify_equilibrium`` does.
    """
    ks, edges, adj = graph.ks, graph.edges, graph.adj
    n, p = len(adj), alpha.numerator
    paper = _needs_context(dev_class)
    if dev_class.kind == "exact-all-subsets":
        greedy = _greedy_tables(graph, alpha)
        if greedy is None:
            return []
        tables, options = greedy
    else:
        tables, options = list(_cost_tables(graph.sums, alpha)), [(1, 2)] * len(edges)
    rows = [_subset_index(row, v) for v, row in enumerate(adj)]
    now = [h[row] for h, row in zip(tables, rows)]

    def improves(v: int, into: int, mask: int) -> bool:
        cost = tables[v][_subset_index(into | mask, v)]
        return cost is not None and cost + p * (into & mask).bit_count() < now[v]

    def count(v: int, into: int) -> int | None:
        masks = list(_class_deviations(n, v, adj[v] & ~into, dev_class, ()))
        return None if any(improves(v, into, mask) for mask in masks) else len(masks)

    # checks[v][I] is v's candidate count when I_v has subset index I, None
    # when v is unstable; a paper-strategy class decides whole ownerships.
    if paper:  # one context's graph facts serve every ownership
        graph = build_context(profile_from_index(n, alpha, sum(3**k for k in ks)))
    elif dev_class.kind == "exact-all-subsets":
        everyone = (1 << (n - 1)) - 1
        checks = [[everyone if g >= c else None for g in _superset_min(h)]
                  for h, c in zip(tables, now)]
    else:
        checks = [{i: count(v, _subset_mask(i, v)) for i in range(1 << (n - 1)) if not i & ~row}
                  for v, row in enumerate(rows)]
    # Every vertex of a connected graph on n >= 2 vertices has an edge, and
    # the lone vertex at n = 1 has nothing to buy, so checking each vertex
    # at its last edge checks them all.
    last = {}
    for i, (a, b) in enumerate(edges):
        last[a] = last[b] = i
    settled = [[] if paper else [v for v, i in last.items() if i == k] for k in range(len(edges))]
    # Trit 1: a buys, so the edge is in I_b; trit 2: b buys, so it is in I_a.
    # Each move adds its trit's term to the profile index.
    moves = [
        [(3**k, b, _subset_index(1 << a, b)) if trit == 1
         else (2 * 3**k, a, _subset_index(1 << b, a)) for trit in owners]
        for (a, b), k, owners in zip(edges, ks, options)
    ]
    kept = [0] * n
    found = []

    def walk(i: int, index: int) -> None:
        if i < len(edges):
            for term, x, bit in moves[i]:
                kept[x] |= bit
                if all(checks[u][kept[u]] is not None for u in settled[i]):
                    walk(i + 1, index + term)
                kept[x] ^= bit
            return
        checked = 0
        if paper:
            profile = profile_from_index(n, alpha, index)
            contexts = _class_contexts(profile, dev_class, graph)
            for v in range(n):
                for mask in _class_deviations(n, v, profile.bought[v], dev_class, contexts):
                    checked += 1
                    if checked > budget:
                        raise _budget_error(budget)
                    if improves(v, profile.bought_by[v], mask):
                        return
        elif (checked := sum(map(getitem, checks, kept))) > budget:
            raise _budget_error(budget)
        found.append((index, checked))

    walk(0, 0)
    return found


def _graph_rows(n: int, pairs: list[tuple[int, int]], graph: int):
    """Pair indices, edges and adjacency rows of graph index ``graph``."""
    ks = [k for k in range(len(pairs)) if graph >> k & 1]
    edges = [pairs[k] for k in ks]
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return ks, edges, adj


def _vertex_maps(n: int) -> list[tuple[list[int], list[tuple[int, int, int]]]]:
    """For each vertex map pi, identity first, what it does to each pair.

    Pair k = (a, b) goes to the pair k' holding pi[a] and pi[b]: bits[k] is
    graph-index bit k', and weights[k][t] is the profile-index term of k'
    when owner trit t of k is carried over (1: a buys, 2: b buys), flipped
    when pi reverses the order of the pair's ends.
    """
    pairs = pair_list(n)
    position = {pair: k for k, pair in enumerate(pairs)}
    maps = []
    for pi in permutations(range(n)):
        bits, weights = [], []
        for a, b in pairs:
            x, y = pi[a], pi[b]
            k = position[min(x, y), max(x, y)]
            bits.append(1 << k)
            weights.append((0, 3**k, 2 * 3**k) if x < y else (0, 2 * 3**k, 3**k))
        maps.append((bits, weights))
    return maps


def _graph_images(graph: int, ks: list[int], maps) -> tuple[set[int], list]:
    """The images of graph index ``graph``, on pairs ``ks``, under every
    vertex map, and the weights of the maps fixing it: its automorphisms."""
    images = [sum(map(bits.__getitem__, ks)) for bits, _ in maps]
    automorphisms = [weights for _, weights in compress(maps, map(graph.__eq__, images))]
    return set(images), automorphisms


def graph_classes(n: int) -> list[GraphClass]:
    """Every connected graph on n vertices up to isomorphism, with what every
    alpha prices it from.

    Bit k of a graph index is pair k of ``pair_list(n)``.  The first graph
    index no earlier class covers represents its class, and its images are
    marked whether it is connected or not, so one graph per isomorphism
    class of all graphs is decoded and BFS-tested.  The same pass over the
    vertex maps keeps those fixing the representative.  Nothing here depends
    on alpha or on a deviation class: one catalogue serves a whole row of
    cells.
    """
    pairs = pair_list(n)
    maps = _vertex_maps(n)
    marked = bytearray(((1 << len(pairs)) + 7) >> 3)
    classes = []
    for graph in range(1 << len(pairs)):
        if marked[graph >> 3] >> (graph & 7) & 1:
            continue
        ks, edges, adj = _graph_rows(n, pairs, graph)
        images, automorphisms = _graph_images(graph, ks, maps)
        for image in images:
            marked[image >> 3] |= 1 << (image & 7)
        if bfs_sum(adj, 0, adj[0]) is not None:
            neighbours = list(map(mask_members, adj))
            sums = [row_sums(adj, v, 0, neighbours) for v in range(n)]
            classes.append(GraphClass(ks, edges, adj, len(images), sums, automorphisms))
    return classes


def check_scan_budget(n: int, dev_class: DeviationClass, budget: int) -> None:
    """Refuse an exact scan on n vertices over ``budget``, before anything is
    built: each of its equilibria checks every other row of every vertex."""
    if dev_class.kind == "exact-all-subsets":
        _exact_checks(n, budget)


def _orbits(ks: list[int], automorphisms, found: list[tuple[int, int]]):
    """(least profile index, deviations_checked, size) per orbit of the
    ``found`` ownerships, on pairs ``ks``, under the vertex maps
    ``automorphisms`` (as ``GraphClass.automorphisms``), by least index."""
    seen = set()
    orbits = []
    for index, checked in sorted(found):
        if index not in seen:
            trits = [index // 3**k % 3 for k in ks]
            images = {sum(aut[k][t] for k, t in zip(ks, trits)) for aut in automorphisms}
            seen |= images
            orbits.append((index, checked, len(images)))
    return orbits


def decide_classes(
    classes: list[GraphClass], alpha: Fraction, dev_class: DeviationClass, budget: int
) -> tuple:
    """One ``(profile, report, weight)`` record per orbit of equilibrium
    ownerships on each class's representative under its automorphisms,
    decided by one ownership walk (``_ownership_equilibria``).

    Without a paper strategy an ownership's verdict and candidate count read
    only its vertices' rows and the edges bought to them, which an
    automorphism carries to the image: the equilibria are whole orbits whose
    members agree on ``deviations_checked``.  Only an orbit's least profile
    index is decoded and hashed; its weight, the class's weight times the
    orbit's size, is n!/|Stab| of the ownership, its number of labelled
    images.  Paper-strategy candidates follow shortest path trees whose
    parent ties go to the smallest id, so there each ownership is its own
    orbit, of the class's weight.  ``labelled_equilibria`` expands either.
    """
    spec = dev_class.spec()
    paper = _needs_context(dev_class)
    records = []
    for graph in classes:
        found = _ownership_equilibria(alpha, dev_class, graph, budget)
        automorphisms = graph.automorphisms[:1] if paper else graph.automorphisms
        for index, checked, size in _orbits(graph.ks, automorphisms, found):
            profile = profile_from_index(len(graph.adj), alpha, index)
            report = VerificationReport(profile_hash(profile), spec, True, None, checked)
            records.append((profile, report, graph.weight * size))
    return tuple(records)


def labelled_equilibria(n: int, alpha: Fraction, records) -> tuple:
    """Labelled ``(profile, report)`` equilibria of class records, by profile index.

    Every vertex map carries a record's ownership to a labelled image, which
    keeps the record's report under the image's hash.  An orbit record (no
    paper strategy) stands for every distinct image.  A paper-strategy
    record stands for its ownership alone, so only the first map giving
    each image of its graph carries it (classes are disjoint: these are the
    images the scan marked); its candidates follow shortest path trees whose
    parent ties go to the smallest id, so ``deviations_checked`` may differ
    from ``verify_equilibrium``'s on an image.
    """
    position = {pair: k for k, pair in enumerate(pair_list(n))}
    maps = _vertex_maps(n)
    found = {}
    for profile, report, _ in records:
        owned = [(position[e.endpoints()], 1 if e.buyer < e.other else 2) for e in profile.edges]
        orbit = not _needs_context(DeviationClass.parse(report.deviation_class))
        seen = set()
        for bits, weights in maps:
            index = sum(weights[k][trit] for k, trit in owned)
            image = index if orbit else sum(bits[k] for k, _ in owned)
            if image not in seen:
                seen.add(image)
                labelled = profile_from_index(n, alpha, index)
                found[index] = (labelled, replace(report, profile_hash=profile_hash(labelled)))
    return tuple(found[index] for index in sorted(found))


def random_profile(
    n: int,
    edge_density: float,
    seed: int,
    alpha: Fraction | int = 1,
    require_connected: bool = False,
) -> StrategyProfile:
    """Seeded random profile: each pair present independently, buyer by coin flip."""
    if not 0 <= edge_density <= 1:
        raise ValueError("edge_density must lie in [0, 1]")
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        edges = []
        for u, v in pair_list(n):
            if rng.random() < edge_density:
                edges.append(BoughtEdge(u, v) if rng.random() < 0.5 else BoughtEdge(v, u))
        profile = StrategyProfile(n, Fraction(alpha), tuple(edges))
        if not require_connected or is_connected(profile):
            return profile
    raise ValueError(f"no connected profile found in {MAX_DRAWS} draws")
