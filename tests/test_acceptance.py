"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction
from math import inf

from ncg import (
    DeviationClass,
    all_pairs_distances,
    build_context,
    build_spt,
    choose_root,
    delta_cost,
    largest_biconnected_component,
    random_profile,
    scaffold_profile,
    audit_deviation_bound,
    audit_structural,
    vertex_cost,
)
from ncg.audit import eligible_sold_selections
from ncg.cli import cmd_run
from ncg.harness import enumerate_cell, load_profile
from ncg.structure import global_girth, is_min_cycle, smallest_cycle_through_edge

EXACT = DeviationClass.parse("exact")


def _verdict(num: int, ok: bool, message: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} — {message}")
    assert ok, f"criterion {num}: {message}"


def _is_tree(p) -> bool:
    return len(p.undirected_edges()) == p.n - 1


def _cells(n_values, alpha_exprs):
    for n in n_values:
        for expr in alpha_exprs:
            yield n, expr(n)


MAIN_GRID = [(n, alpha) for n, alpha in _cells(
    (3, 4), (lambda n: Fraction(2 * n + 1), lambda n: Fraction(3 * n), lambda n: Fraction(5 * n))
)]
SMALL_ALPHA_GRID = [(n, alpha) for n, alpha in _cells(
    (3, 4), (lambda n: Fraction(1, 2), lambda n: Fraction(1), lambda n: Fraction(2))
)]

_cell_cache: dict = {}


def _scan(n, alpha):
    key = (n, alpha)
    if key not in _cell_cache:
        _cell_cache[key] = enumerate_cell(n, alpha, EXACT)
    return _cell_cache[key]


def test_criterion_1_tree_conjecture_regression():
    started = time.monotonic()
    details = []
    ok = True
    for n, alpha in MAIN_GRID:
        result = _scan(n, alpha)
        non_tree = sum(1 for p, _ in result.equilibria if not _is_tree(p))
        details.append(f"n={n} a={alpha}: ne={len(result.equilibria)} non-tree={non_tree}")
        ok = ok and len(result.equilibria) >= 1 and non_tree == 0
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _verdict(1, ok, f"{'; '.join(details)}; elapsed {elapsed:.2f}s (< 10s)")


def test_criterion_1_stretch_n5():
    started = time.monotonic()
    result = enumerate_cell(5, Fraction(11), EXACT)
    elapsed = time.monotonic() - started
    non_tree = sum(1 for p, _ in result.equilibria if not _is_tree(p))
    ok = (
        result.profiles_scanned == 59049
        and len(result.equilibria) >= 1
        and non_tree == 0
        and elapsed < 600.0
    )
    _verdict(
        1, ok,
        f"stretch n=5 a=11: scanned={result.profiles_scanned} "
        f"ne={len(result.equilibria)} non-tree={non_tree} elapsed {elapsed:.1f}s (< 600s)",
    )


def test_criterion_2_girth_bound_on_all_equilibria():
    checked = 0
    cyclic = 0
    violations = []
    for n, alpha in MAIN_GRID + SMALL_ALPHA_GRID:
        bound = 2 * alpha / n + 2
        for p, _ in _scan(n, alpha).equilibria:
            checked += 1
            girth = global_girth(p)
            if girth != inf:
                cyclic += 1
                if not girth >= bound:
                    violations.append((n, str(alpha), girth))
    _verdict(
        2, not violations and checked > 0,
        f"{checked} equilibria ({cyclic} cyclic) checked against 2a/n+2; "
        f"violations={len(violations)}",
    )


def test_criterion_3_min_cycles_directed():
    checked = 0
    vacuous = 0
    violations = []
    for n, alpha in MAIN_GRID + SMALL_ALPHA_GRID:
        if not alpha > 2 * (n - 1):
            continue
        for p, report in _scan(n, alpha).equilibria:
            finding = audit_structural(build_context(p), "directed-mincycles", report)
            assert finding.applicable
            checked += 1
            if finding.detail["min_cycle_count"] == 0:
                vacuous += 1
            if finding.holds is False:
                violations.append((n, str(alpha)))
    _verdict(
        3, not violations and checked > 0,
        f"{checked} equilibria checked ({vacuous} vacuously acyclic); "
        f"violations={len(violations)}",
    )


def test_criterion_4_bound_domination():
    started = time.monotonic()
    counts = {"strategy1": 0, "strategy2": 0, "strategy3": 0}
    violations = 0
    seed = 0
    while min(counts.values()) < 500 and seed < 3000:
        ctx = build_context(scaffold_profile(seed))
        for kind in counts:
            for u, combo in eligible_sold_selections(ctx, kind):
                cmp = audit_deviation_bound(ctx, u, kind, combo)
                if not cmp.preconditions_met:
                    continue
                counts[kind] += 1
                if not cmp.dominates:
                    violations += 1
        seed += 1
    elapsed = time.monotonic() - started
    ok = min(counts.values()) >= 500 and violations == 0 and elapsed < 60.0
    _verdict(
        4, ok,
        f"instances per strategy {counts} over {seed} scaffolds; "
        f"violations={violations}; elapsed {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_min_cycle_property():
    rng = random.Random(20240)
    checked_profiles = 0
    checked_cycles = 0
    violations = 0
    while checked_profiles < 500:
        n = rng.randint(3, 12)
        density = rng.uniform(0.2, 0.6)
        p = random_profile(n, density, seed=rng.randrange(1 << 30), require_connected=True)
        checked_profiles += 1
        dist = all_pairs_distances(p)
        for a, b in p.undirected_edges():
            cyc = smallest_cycle_through_edge(p, a, b)
            if cyc is None:
                continue
            checked_cycles += 1
            if not is_min_cycle(cyc, dist):
                violations += 1
    _verdict(
        5, violations == 0 and checked_cycles > 500,
        f"{checked_profiles} profiles, {checked_cycles} smallest-through-edge cycles; "
        f"violations={violations}",
    )


def test_criterion_6_spt_invariants():
    rng = random.Random(77)
    violations = 0
    for _ in range(500):
        n = rng.randint(2, 12)
        p = random_profile(n, rng.uniform(0.2, 0.7), seed=rng.randrange(1 << 30),
                           require_connected=True)
        dist = all_pairs_distances(p)
        root = choose_root(p, dist, largest_biconnected_component(p).largest_vertices())
        spt = build_spt(p, dist, root)
        if spt.depth != dist[root]:
            violations += 1
        if spt.subtree_size[root] != p.n:
            violations += 1
        for v in range(p.n):
            children = [c for c in range(p.n) if spt.parent[c] == v]
            if spt.subtree_size[v] != 1 + sum(spt.subtree_size[c] for c in children):
                violations += 1
    _verdict(6, violations == 0, f"500 random connected profiles; violations={violations}")


def test_criterion_7_delta_oracle_self_consistency():
    rng = random.Random(4242)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        p = random_profile(n, rng.uniform(0.1, 0.8), seed=rng.randrange(1 << 30),
                           alpha=Fraction(rng.randint(1, 40), rng.randint(1, 3)))
        v = rng.randrange(n)
        targets = frozenset(u for u in range(n) if u != v and rng.random() < 0.4)
        fast = delta_cost(p, v, targets)
        before = vertex_cost(p, all_pairs_distances(p), v).total
        q = p.with_strategy(v, targets)
        after = vertex_cost(q, all_pairs_distances(q), v).total
        if after == inf:
            expected = inf
        elif before == inf:
            expected = -inf
        else:
            expected = after - before
        if fast != expected:
            mismatches += 1
    _verdict(7, mismatches == 0, f"1000 deviations recomputed; mismatches={mismatches}")


def test_criterion_8_regression_fixtures(tmp_path):
    star_doc = {"n": 4, "alpha": "9",
                "edges": [{"buyer": 0, "other": 1}, {"buyer": 0, "other": 2},
                          {"buyer": 0, "other": 3}]}
    triangle_doc = {"n": 3, "alpha": "5",
                    "edges": [{"buyer": 0, "other": 1}, {"buyer": 1, "other": 2},
                              {"buyer": 2, "other": 0}]}
    path_doc = {"n": 3, "alpha": "5",
                "edges": [{"buyer": 0, "other": 1}, {"buyer": 1, "other": 2}]}
    import json

    from ncg import verify_equilibrium

    results = []
    for name, doc in (("star", star_doc), ("triangle", triangle_doc), ("path", path_doc)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        results.append((name, verify_equilibrium(load_profile(path), EXACT)))
    reports = dict(results)
    star_ok = reports["star"].is_equilibrium
    path_ok = reports["path"].is_equilibrium
    tri = reports["triangle"]
    tri_ok = (
        not tri.is_equilibrium
        and tri.witness is not None
        and tri.witness[1] == Fraction(-4)
        and len(tri.witness[0].new_edge_set) == 0  # sell-one-edge rewrite
    )
    _verdict(
        8, star_ok and path_ok and tri_ok,
        f"star NE={star_ok}, path NE={path_ok}, "
        f"triangle witness delta={tri.witness[1] if tri.witness else None}",
    )


def test_criterion_9_open_band_is_exploratory_only(tmp_path):
    # alpha = n sits inside [n, 2n): the sweep must report, never fail
    out = tmp_path / "sweep.csv"
    code = cmd_run(
        ["sweep", "--n", "3,4", "--alpha", "n,2n+1", "--class", "exact",
         "--jobs", "1", "--out", str(out)]
    )
    lines = out.read_text().splitlines() if out.exists() else []
    ok = code == 0 and len(lines) == 6  # comment + header + 4 cells
    in_band_rows = [line for line in lines[2:] if line.split(",")[1] in ("3", "4")]
    _verdict(
        9, ok and len(in_band_rows) == 2,
        f"sweep over alpha in [n, 2n) exited {code} with {max(len(lines) - 2, 0)} rows; "
        "open-band counts reported as data only",
    )
