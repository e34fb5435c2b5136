"""Aggregated spans for the traced benchmark run.

The traced run wraps each public ncg call it makes in a span.  Spans are
aggregated in memory by name (call count, inclusive busy time, self time)
rather than stored one by one: the exhaustive sweep makes about 200k calls,
and keeping each span would cost more than the calls being measured.  A
span's self time is its busy time minus the busy time of the spans opened
inside it.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LEMMA_IDS = (
    "mincyclesize",
    "seven-cycle",
    "directed-mincycles",
    "maxn2",
    "altpath",
    "x2position",
    "deg2",
    "obs-x1",
    "obs-x2",
    "obs-x2depth",
    "mainlemma1",
    "mainlemma2",
    "degree-sum",
)
STRATEGIES = ("strategy1", "strategy2", "strategy3")

STRUCTURE_FUNCTIONS = (
    "largest_biconnected_component",
    "choose_root",
    "build_spt",
    "classify_x_sets",
    "cycle_report",
    "global_girth",
)


class Tracer:
    """Per-name call counts, busy and self seconds, plus free counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # busy time of child spans, per open span

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.calls[name] += 1
            self.busy[name] += elapsed
            self.self_time[name] += elapsed - self._children.pop()
            if self._children:
                self._children[-1] += elapsed

    def call(self, name: str, fn, *args):
        """``fn(*args)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def table(self) -> str:
        """Human-readable span table, busiest first."""
        lines = [f"{'span':<52} {'calls':>9} {'busy_s':>10} {'self_s':>10}"]
        for name in sorted(self.busy, key=self.busy.get, reverse=True):
            lines.append(
                f"{name:<52} {self.calls[name]:>9} "
                f"{self.busy[name]:>10.4f} {self.self_time[name]:>10.4f}"
            )
        return "\n".join(lines)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit); zero where a layer is idle.

    Busy time is reported as a share of the traced pass, ``busy_pct``: a
    share stays comparable when the speed of a shared box drifts between
    runs, and a layer a workload never calls reads 0 rather than a time.
    """
    m: dict[str, tuple[float, str]] = {}

    def timed(name: str, calls: bool = True) -> None:
        if calls:
            m[f"{name}.calls"] = (tr.calls.get(name, 0), "count")
        m[f"{name}.busy_pct"] = (100 * _ratio(tr.busy.get(name, 0.0), traced_s), "%")

    timed("harness.enumerate_cell", calls=False)
    timed("harness.build_report_row", calls=False)
    timed("equilibrium.profile_from_index")
    timed("game.is_connected")
    m["game.is_connected.pass_ratio"] = (
        _ratio(tr.counts["game.is_connected.passed"], tr.calls.get("game.is_connected", 0)),
        "ratio",
    )
    timed("equilibrium.verify_equilibrium")
    m["equilibrium.verify_equilibrium.deviations_checked"] = (
        tr.counts["equilibrium.verify_equilibrium.deviations_checked"], "count"
    )
    m["equilibrium.verify_equilibrium.ne_ratio"] = (
        _ratio(tr.counts["equilibrium.verify_equilibrium.ne"],
               tr.calls.get("equilibrium.verify_equilibrium", 0)),
        "ratio",
    )
    timed("equilibrium.best_response_exact")
    m["equilibrium.best_response_exact.subsets"] = (
        tr.counts["equilibrium.best_response_exact.subsets"], "count"
    )
    timed("game.with_strategy")
    m["equilibrium.dynamics.passes"] = (tr.counts["equilibrium.dynamics.passes"], "count")
    m["equilibrium.dynamics.moves"] = (tr.counts["equilibrium.dynamics.moves"], "count")
    timed("game.all_pairs_distances", calls=False)
    for fn in STRUCTURE_FUNCTIONS:
        timed(f"structure.{fn}", calls=False)
    timed("audit.build_context", calls=False)
    timed("audit.audit_full", calls=False)
    for lemma in LEMMA_IDS:
        timed(f"audit.audit_structural.{lemma}", calls=False)
    for kind in STRATEGIES:
        timed(f"audit.audit_deviation_bound.{kind}")
    m["audit.bounds_checked"] = (tr.counts["audit.bounds_checked"], "count")
    m["trace_overhead_s"] = (traced_s - untraced_s, "s")
    return m
