"""Serialization, alpha grids, and the batch experiment driver.

Profile documents are plain JSON: ``{"n": int, "alpha": "p/q" | int,
"edges": [{"buyer": int, "other": int}, ...]}``.  Reports are CSV rows with
a versioned header comment; a sweep decides every (n, alpha) cell
exhaustively, on one catalogue of graph classes per n.  Everything is
deterministic for a fixed argv.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from pathlib import Path

from .audit import audit_failures
from .equilibrium import (
    DEFAULT_BUDGET,
    EXACT,
    DeviationClass,
    EnumerationResult,
    StrategyProfile,
    check_scan_budget,
    decide_classes,
    graph_classes,
    labelled_equilibria,
)
from .errors import EnumerationCapError, ProfileFormatError, TreeConjectureViolation
from .game import BoughtEdge, is_connected
from .structure import build_context

SCHEMA_VERSION = 1
# Whatever the cap, enumeration stops here: n = 8 has 2^28 labelled graphs
# and 8! relabellings per class.
MAX_ENUMERATION_N = 7
CSV_HEADER_COMMENT = "# ncg report v1"
CSV_COLUMNS = (
    "n",
    "alpha",
    "profiles_scanned",
    "ne_count",
    "tree_ne_count",
    "non_tree_ne_count",
    "min_girth_among_ne",
    "audit_failures",
)


# ---------------------------------------------------------------------------
# profile documents


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        m = re.fullmatch(r"\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?", text)
        if m and int(m.group(2) or 1) != 0:
            return Fraction(int(m.group(1)), int(m.group(2) or 1))
    raise ProfileFormatError("bad-alpha", f"cannot parse rational {text!r}")


def profile_to_document(profile: StrategyProfile) -> dict:
    return {
        "n": profile.n,
        "alpha": format_fraction(profile.alpha),
        "edges": [
            {"buyer": e.buyer, "other": e.other} for e in sorted(profile.edges)
        ],
    }


def profile_from_document(doc: dict) -> StrategyProfile:
    if not isinstance(doc, dict):
        raise ProfileFormatError("bad-type", "profile document must be an object")
    for key in ("n", "alpha", "edges"):
        if key not in doc:
            raise ProfileFormatError("missing-field", f"missing field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProfileFormatError("bad-n", f"n must be a positive integer, got {n!r}")
    alpha = parse_fraction(doc["alpha"])
    if alpha <= 0:
        raise ProfileFormatError("bad-alpha", f"alpha must be positive, got {doc['alpha']!r}")
    if not isinstance(doc["edges"], list):
        raise ProfileFormatError("bad-type", f"edges must be a list, got {doc['edges']!r}")
    edges = []
    seen = set()
    for item in doc["edges"]:
        if not isinstance(item, dict) or "buyer" not in item or "other" not in item:
            raise ProfileFormatError("bad-type", f"malformed edge entry {item!r}")
        buyer, other = item["buyer"], item["other"]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (buyer, other)):
            raise ProfileFormatError("bad-type", f"edge ids must be integers: {item!r}")
        if not (0 <= buyer < n and 0 <= other < n):
            raise ProfileFormatError(
                "id-out-of-range", f"edge {buyer}-{other} outside [0, {n})"
            )
        if buyer == other:
            raise ProfileFormatError("self-loop", f"self-loop at {buyer}")
        if (buyer, other) in seen:
            raise ProfileFormatError(
                "duplicate-edge", f"duplicate bought edge {buyer}-{other}"
            )
        seen.add((buyer, other))
        edges.append(BoughtEdge(buyer, other))
    return StrategyProfile(n, alpha, tuple(edges))


def load_profile(path) -> StrategyProfile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProfileFormatError("io-error", f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError("malformed-json", f"{path}: {exc}") from exc
    return profile_from_document(doc)


def save_profile(profile: StrategyProfile, path) -> None:
    doc = profile_to_document(profile)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# alpha grid expressions


def parse_alpha_expression(text: str):
    """Compile an alpha grid expression into a function of n.

    Supported forms: a constant ``p`` or ``p/q``, and the linear families
    ``a*n + b`` written ``an+b`` / ``an-b`` and ``a*n/b`` written ``an/b``.
    A zero denominator is rejected here, not when the function is called.
    """
    expr = text.strip().replace(" ", "")
    m = re.fullmatch(r"(-?\d*)n(?:([+-])(\d+))?", expr)
    if m:
        a = int(m.group(1)) if m.group(1) not in ("", "-") else (-1 if m.group(1) == "-" else 1)
        b = int(m.group(3) or 0)
        if m.group(2) == "-":
            b = -b
        return lambda n: Fraction(a * n + b)
    if re.search(r"/0+$", expr):
        raise ValueError(f"alpha expression {text!r} divides by zero")
    m = re.fullmatch(r"(-?\d*)n/(\d+)", expr)
    if m:
        a = int(m.group(1)) if m.group(1) not in ("", "-") else (-1 if m.group(1) == "-" else 1)
        q = int(m.group(2))
        return lambda n: Fraction(a * n, q)
    m = re.fullmatch(r"(-?\d+)(?:/(\d+))?", expr)
    if m:
        value = Fraction(int(m.group(1)), int(m.group(2) or 1))
        return lambda n: value
    raise ValueError(f"unsupported alpha expression {text!r}")


def cell_alpha(expr: str, n: int) -> Fraction:
    """The alpha of one (n, expression) cell; it must be positive."""
    alpha = parse_alpha_expression(expr)(n)
    if alpha <= 0:
        raise ValueError(f"alpha expression {expr!r} is not positive at n={n}")
    return alpha


# ---------------------------------------------------------------------------
# enumeration cells and sweeps


@dataclass(frozen=True)
class SweepSpec:
    """One batch run: every (n, alpha expression) cell under one class."""

    n_values: tuple[int, ...]
    alpha_expressions: tuple[str, ...]
    dev_class: DeviationClass
    cap: int = 5
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class ReportRow:
    """Aggregated outcome of one enumeration cell."""

    n: int
    alpha: Fraction
    profiles_scanned: int
    ne_count: int
    tree_ne_count: int
    non_tree_ne_count: int
    min_girth_among_ne: int | float
    audit_failures: int

    def csv_values(self) -> tuple[str, ...]:
        girth = "inf" if self.min_girth_among_ne == inf else str(self.min_girth_among_ne)
        return (
            str(self.n),
            format_fraction(self.alpha),
            str(self.profiles_scanned),
            str(self.ne_count),
            str(self.tree_ne_count),
            str(self.non_tree_ne_count),
            girth,
            str(self.audit_failures),
        )


def enumerate_cell(
    n: int,
    alpha: Fraction,
    dev_class: DeviationClass,
    cap: int = 5,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> EnumerationResult:
    """Exhaustively scan one (n, alpha) cell, with its labelled equilibria.

    The scan walks the 2^(n(n-1)/2) underlying graphs (``graph_classes``)
    and decides one connected graph per isomorphism class from per-vertex
    cost tables (``decide_classes``); only here and in ``--dump-dir`` does
    ``labelled_equilibria`` carry its class records to every relabelling.  ``profiles_scanned``
    counts the profiles covered, 3^(n(n-1)/2), not those verified.  n above
    ``cap`` or ``MAX_ENUMERATION_N`` is refused before anything is
    allocated.  ``jobs`` is ignored: every cell runs serially.
    """
    check_cell_n(n, cap)
    check_scan_budget(n, dev_class, budget)
    classes = graph_classes(n)
    connected = sum(graph.weight << len(graph.ks) for graph in classes)
    records = decide_classes(classes, alpha, dev_class, budget)
    equilibria = labelled_equilibria(n, alpha, records)
    return EnumerationResult(n, alpha, 3 ** (n * (n - 1) // 2), connected, equilibria, records)


def check_cell_n(n: int, cap: int) -> None:
    """Refuse n below 1, above ``cap`` or above ``MAX_ENUMERATION_N``."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if n > cap:
        raise EnumerationCapError(f"n={n} above enumeration cap {cap}")
    if n > MAX_ENUMERATION_N:
        raise EnumerationCapError(f"n={n} above the enumeration ceiling {MAX_ENUMERATION_N}")


def is_spanning_tree(profile: StrategyProfile) -> bool:
    """Connected with exactly n-1 underlying edges."""
    return is_connected(profile) and len(profile.undirected_edges()) == profile.n - 1


def contexts_by_graph(records) -> Iterator[tuple]:
    """``(build_context(profile), *rest)`` for each ``(profile, *rest)`` record,
    grouped by graph.

    The first context of each ``adj`` is built from scratch and the rest of
    its group on it, sharing its graph facts; only one graph's facts are
    alive at a time.
    """
    groups: dict[tuple[int, ...], list] = {}
    for record in records:
        groups.setdefault(record[0].adj, []).append(record)
    for (first, *head), *others in groups.values():
        graph = build_context(first)
        yield (graph, *head)
        for profile, *rest in others:
            yield (build_context(profile, graph), *rest)


def build_report_row(result: EnumerationResult) -> ReportRow:
    """``fold_records`` of the result's class records; a result rebuilt
    without them is refused."""
    if result.representatives is None:
        raise ValueError(
            f"no class records (representatives) in the n={result.n}, alpha={result.alpha} "
            "result to fold a row from"
        )
    return fold_records(result.n, result.alpha, result.profiles_scanned, result.representatives)


def fold_records(n: int, alpha: Fraction, scanned: int, records) -> ReportRow:
    """A cell's row from ``(profile, report, weight)`` records, each standing
    for weight labelled equilibria; enforces the tree-only rule above 2n.

    A relabelling changes neither girth nor audit, so each record is
    audited once on its ``StrategyContext`` (``contexts_by_graph``) by
    ``audit_failures``, which evaluates only the rules whose gate holds and
    prices bounds only in the paper's regime, and counts as many times as
    its weight.  Being connected, an equilibrium is a tree iff its girth is
    infinite.  A non-tree equilibrium that the exact class certifies at
    alpha > 2n is a hard failure, never a data point.  A restricted class
    proves stability only against its own deviations, so its non-tree
    counts are data, as are all of them in the open band [n, 2n).
    """
    tree = non_tree = failures = 0
    exact_non_tree = False
    min_girth: int | float = inf
    for ctx, report, weight in contexts_by_graph(records):
        if ctx.girth == inf:
            tree += weight
        else:
            non_tree += weight
            exact_non_tree = exact_non_tree or report.deviation_class == EXACT.spec()
        min_girth = min(min_girth, ctx.girth)
        failures += weight * audit_failures(ctx, ne_certificate=report)
    if alpha > 2 * n and exact_non_tree:
        raise TreeConjectureViolation(f"non-tree equilibrium at n={n}, alpha={alpha}")
    return ReportRow(n, alpha, scanned, tree + non_tree, tree, non_tree, min_girth, failures)


def sweep_cells(spec: SweepSpec) -> Iterator[tuple[tuple, ReportRow]]:
    """Each (n, alpha) cell's class records and their row, in grid order; the
    whole grid is checked before the first catalogue is built.

    The grid is n-major, so each n's ``graph_classes`` catalogue is built
    once, decides every alpha of that n, and is dropped before the next n's.
    """
    for n in spec.n_values:
        check_cell_n(n, spec.cap)
    grid = [(n, [cell_alpha(expr, n) for expr in spec.alpha_expressions]) for n in spec.n_values]
    for n, alphas in grid:
        yield from _cells_of_n(n, alphas, spec)


def _cells_of_n(
    n: int, alphas: list[Fraction], spec: SweepSpec
) -> Iterator[tuple[tuple, ReportRow]]:
    """The cells of one n, all decided on one catalogue; an exact scan over
    budget is refused before the catalogue is built."""
    check_scan_budget(n, spec.dev_class, spec.budget)
    classes = graph_classes(n)
    for alpha in alphas:
        records = decide_classes(classes, alpha, spec.dev_class, spec.budget)
        yield records, fold_records(n, alpha, 3 ** (n * (n - 1) // 2), records)


def run_sweep(spec: SweepSpec) -> list[ReportRow]:
    """One ReportRow per (n, alpha) cell, in grid order."""
    return [row for _, row in sweep_cells(spec)]


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER_COMMENT, ",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.csv_values()) for row in rows)
    return "\n".join(lines) + "\n"
