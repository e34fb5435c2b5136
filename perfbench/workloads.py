"""The benchmark's three workloads: inputs, output checks and traced re-drives.

Each workload imports ncg from the checkout's ``src/`` and calls only its
public functions.  ``timed_pass`` runs the workload the way a user would and
checks every output against results recorded in ``expected/`` when the
benchmark was introduced.  ``traced_pass`` runs each item twice: once through
the library call, and once re-driven through the same public calls that the
library function makes internally, each wrapped in a span.  The two results
must be equal, so the layer numbers describe the work the library does.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import inf
from time import perf_counter, process_time
from types import SimpleNamespace

import reference
from spans import STRATEGIES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected")

BUDGET = 1 << 22  # ncg's default deviation budget
MAX_BOUND_CHECKS = 10_000  # audit_full's default
ENUMERATION_CAP = 5  # the CLI's default --cap

SWEEP_ALPHAS = ("2", "2n+1")
SCAFFOLD_BLOCK = 1000
SMOKE_SCAFFOLDS = 20
DYNAMICS_MAX_ITERS = 50
DYNAMICS_PASSES = 3
SMOKE_DYNAMICS_N = 8


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def import_ncg() -> SimpleNamespace:
    """Import ncg afresh from ``src/``; earlier imports are dropped first."""
    for name in [m for m in sys.modules if m == "ncg" or m.startswith("ncg.")]:
        del sys.modules[name]
    if not os.path.isfile(os.path.join(SRC, "ncg", "__init__.py")):
        raise SetupError(f"no ncg package under {SRC}; run from the root of a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    modules = {
        name: importlib.import_module(f"ncg.{name}")
        for name in ("cli", "harness", "equilibrium", "game", "structure", "audit", "errors")
    }
    if not os.path.abspath(modules["cli"].__file__).startswith(SRC + os.sep):
        raise SetupError(f"ncg was imported from {modules['cli'].__file__}, not from {SRC}")
    return SimpleNamespace(**modules)


def read_expected(name: str) -> str:
    path = os.path.join(EXPECTED, name)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SetupError(f"cannot read expected output {path}: {exc}") from exc


def read_digests(name: str) -> list[str]:
    return read_expected(name).split()


def read_table(name: str) -> list[tuple[str, int]]:
    """Lines of ``<digest> <count>``."""
    return [(d, int(c)) for d, c in (line.split() for line in read_expected(name).splitlines())]


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def audit_digest(ncg, report) -> str:
    """Digest of an audit's verdicts: summary, every finding and every bound."""
    doc = ncg.cli.audit_to_json(report, None)
    for finding in doc["findings"]:
        del finding["detail"]
    for bound in doc["bounds"]:
        del bound["precondition_notes"]
    return _digest(doc)


def trace_digest(ncg, trace) -> str:
    """Digest of a dynamics trace: every step, convergence, final profile."""
    return _digest(ncg.cli.trace_to_json(trace))


def dynamics_start(ncg, profile_seed: int, n: int | None = None):
    """The start profile for one seed: n cycles 12, 13, 14, alpha n//2, n+1, 2n+1.

    Nine consecutive seeds cover each (n, alpha) pair once.
    """
    if n is None:
        n = 12 + profile_seed % 3
    alpha = (n // 2, n + 1, 2 * n + 1)[profile_seed % 9 // 3]
    return ncg.equilibrium.random_profile(n, 0.3, profile_seed, alpha, require_connected=True)


def sweep_argv(n_values) -> list[str]:
    return [
        "sweep", "--n", ",".join(map(str, n_values)), "--alpha", ",".join(SWEEP_ALPHAS),
        "--class", "exact", "--jobs", "1",
    ]


def report_error(label: str) -> None:
    sys.stderr.write(f"perfbench: {label} raised\n{traceback.format_exc()}")


@dataclass
class PassResult:
    """One pass over a workload's items.

    ``ref_wall_s`` and ``ref_cpu_s`` are the mean seconds of a reference
    sample (see ``reference.py``) taken during an untraced pass.
    """

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    traced_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_cpu_s: float = 0.0


class _Clock:
    """Sums wall and CPU seconds over the regions it is entered for.

    Time that a ``reference.Sampler`` spends inside a region is left out.
    """

    def __init__(self, sampler: reference.Sampler | None = None):
        self.wall = 0.0
        self.cpu = 0.0
        self._sampler = sampler

    def _spent(self) -> tuple[float, float]:
        return self._sampler.spent if self._sampler else (0.0, 0.0)

    def __enter__(self):
        self._spent_before = self._spent()
        self._wall = perf_counter()
        self._cpu = process_time()

    def __exit__(self, *exc):
        cpu = process_time() - self._cpu
        wall = perf_counter() - self._wall
        spent = self._spent()
        self.wall += wall - (spent[0] - self._spent_before[0])
        self.cpu += cpu - (spent[1] - self._spent_before[1])
        return False

    def result(self, attempted: int, failed: int) -> PassResult:
        """The pass, with the mean reference sample; call after the sampler stops."""
        ref_wall, ref_cpu = self._sampler.mean()
        return PassResult(self.wall, self.cpu, attempted, failed, ref_wall_s=ref_wall, ref_cpu_s=ref_cpu)


# ---------------------------------------------------------------------------
# traced re-drives of library functions that hide their lower-layer calls


def traced_build_context(tr: Tracer, ncg, profile):
    """``audit.build_context``, one span per structure call."""
    g, st = ncg.game, ncg.structure
    with tr.span("audit.build_context"):
        if not tr.call("game.is_connected", g.is_connected, profile):
            raise ValueError("audit context requires a connected profile")
        tr.add("game.is_connected.passed")
        dist = tr.call("game.all_pairs_distances", g.all_pairs_distances, profile)
        decomposition = tr.call(
            "structure.largest_biconnected_component", st.largest_biconnected_component, profile
        )
        h_vertices = decomposition.largest_vertices()
        h_edges = decomposition.largest_edges()
        root = (
            tr.call("structure.choose_root", st.choose_root, profile, dist, h_vertices)
            if h_vertices
            else 0
        )
        spt = tr.call("structure.build_spt", st.build_spt, profile, dist, root)
        classes = tr.call("structure.classify_x_sets", st.classify_x_sets, profile, spt, decomposition)
        cycles = tr.call("structure.cycle_report", st.cycle_report, profile, decomposition, dist)
        girth = tr.call("structure.global_girth", st.global_girth, profile)
        return ncg.audit.StrategyContext(
            profile=profile,
            dist=dist,
            decomposition=decomposition,
            h_vertices=h_vertices,
            h_edges=h_edges,
            root=root,
            spt=spt,
            x_classes={c.edge: c for c in classes},
            cycles=cycles,
            girth=girth,
        )


def traced_audit_full(tr: Tracer, ncg, ctx, certificate):
    """``audit.audit_full``, one span per rule and per bound comparison."""
    a = ncg.audit
    with tr.span("audit.audit_full"):
        findings = tuple(
            tr.call(f"audit.audit_structural.{lemma}", a.audit_structural, ctx, lemma, certificate)
            for lemma in a.LEMMA_IDS
        )
        bounds = []
        skipped = []
        for kind in STRATEGIES:
            family = list(a.eligible_sold_selections(ctx, kind))
            if len(bounds) + len(family) > MAX_BOUND_CHECKS:
                skipped.append(f"{kind}: {len(family)} selections over budget {MAX_BOUND_CHECKS}")
                continue
            for u, combo in family:
                bounds.append(
                    tr.call(
                        f"audit.audit_deviation_bound.{kind}",
                        a.audit_deviation_bound, ctx, u, kind, combo, certificate,
                    )
                )
        tr.add("audit.bounds_checked", len(bounds))
        summary = {
            "findings_applicable": sum(1 for f in findings if f.applicable),
            "findings_holding": sum(1 for f in findings if f.applicable and f.holds),
            "findings_failing": sum(1 for f in findings if f.applicable and f.holds is False),
            "bounds_checked": len(bounds),
            "bound_violations": sum(1 for b in bounds if b.preconditions_met and not b.dominates),
        }
        return a.AuditReport(tuple(findings), tuple(bounds), tuple(skipped), summary)


def traced_dynamics(tr: Tracer, ncg, initial):
    """Round-robin ``best_response_dynamics`` under the exact class, then the NE check."""
    eq = ncg.equilibrium
    with tr.span("equilibrium.best_response_dynamics"):
        profile = initial
        steps = []
        converged = False
        for _ in range(DYNAMICS_MAX_ITERS):
            tr.add("equilibrium.dynamics.passes")
            improved = False
            for v in range(profile.n):
                targets, delta = tr.call(
                    "equilibrium.best_response_exact", eq.best_response_exact, profile, v, BUDGET
                )
                tr.add("equilibrium.best_response_exact.subsets", 1 << (profile.n - 1))
                if delta >= 0:
                    continue
                tr.add("equilibrium.dynamics.moves")
                steps.append((v, eq.Deviation(v, targets), delta))
                profile = tr.call("game.with_strategy", profile.with_strategy, v, targets)
                improved = True
            if not improved:
                converged = True
                break
        trace = eq.DynamicsTrace(tuple(steps), converged, profile)
    report = tr.call(
        "equilibrium.verify_equilibrium", eq.verify_equilibrium, trace.final_profile, eq.EXACT, BUDGET
    )
    tr.add("equilibrium.verify_equilibrium.deviations_checked", report.deviations_checked)
    if report.is_equilibrium:
        tr.add("equilibrium.verify_equilibrium.ne")
    return trace, report


def same_audit(ref, got) -> bool:
    """Equal reports, including the fields dataclass equality skips."""
    return (
        ref == got
        and ref.summary == got.summary
        and [f.detail for f in ref.findings] == [f.detail for f in got.findings]
    )


# ---------------------------------------------------------------------------
# workloads


class SweepN5:
    """``ncg sweep --n 4,5 --alpha 2,2n+1 --class exact --jobs 1``.

    Exhaustive, so the seed changes nothing.
    """

    name = "sweep-n5"

    def __init__(self, ncg, seed: int, smoke: bool = False):
        self.ncg = ncg
        self.n_values = (3, 4) if smoke else (4, 5)
        self.expected = read_expected("sweep_smoke.csv" if smoke else "sweep.csv")
        self.cells = len(self.n_values) * len(SWEEP_ALPHAS)

    def _failed_rows(self, code: int, csv: str) -> int:
        if code == 0 and csv == self.expected:
            return 0
        if code != 0:
            return self.cells
        got = csv.splitlines()[2:]
        want = self.expected.splitlines()[2:]
        bad = sum(1 for i, row in enumerate(want) if i >= len(got) or got[i] != row)
        return max(bad, 1)

    def timed_pass(self) -> PassResult:
        out = io.StringIO()
        with reference.Sampler() as sampler:
            clock = _Clock(sampler)
            try:
                with clock, redirect_stdout(out):
                    code = self.ncg.cli.cmd_run(sweep_argv(self.n_values))
                failed = self._failed_rows(code, out.getvalue())
            except Exception:
                report_error("ncg sweep")
                failed = self.cells
        return clock.result(self.cells, failed)

    def traced_pass(self, tr: Tracer) -> PassResult:
        h, eq = self.ncg.harness, self.ncg.equilibrium
        ref_clock, tr_clock = _Clock(), _Clock()
        failed = 0
        ref_rows = []
        for n in self.n_values:
            for expr in SWEEP_ALPHAS:
                alpha = h.parse_alpha_expression(expr)(n)
                try:
                    with ref_clock:
                        ref_result = h.enumerate_cell(n, alpha, eq.EXACT, ENUMERATION_CAP, BUDGET, 1)
                        ref_row = h.build_report_row(ref_result)
                    with tr_clock:
                        result = self._traced_cell(tr, n, alpha)
                        row = self._traced_row(tr, result)
                except Exception:
                    report_error(f"sweep cell n={n} alpha={expr}")
                    failed += 1
                    ref_rows.append(None)
                    continue
                ref_rows.append(ref_row)
                if result != ref_result or row != ref_row:
                    sys.stderr.write(f"perfbench: traced sweep cell n={n} alpha={expr} differs\n")
                    failed += 1
        if None not in ref_rows:
            failed = max(failed, self._failed_rows(0, h.rows_to_csv(ref_rows)))
        return PassResult(ref_clock.wall, ref_clock.cpu, self.cells, failed, tr_clock.wall)

    def _traced_cell(self, tr: Tracer, n: int, alpha):
        """``harness.enumerate_cell`` with jobs=1, one span per public call."""
        eq, g = self.ncg.equilibrium, self.ncg.game
        with tr.span("harness.enumerate_cell"):
            total = 3 ** (n * (n - 1) // 2)
            connected = 0
            found = []
            for index in range(total):
                profile = tr.call("equilibrium.profile_from_index", eq.profile_from_index, n, alpha, index)
                if n > 1 and not tr.call("game.is_connected", g.is_connected, profile):
                    continue
                tr.add("game.is_connected.passed")
                connected += 1
                report = tr.call(
                    "equilibrium.verify_equilibrium", eq.verify_equilibrium, profile, eq.EXACT, BUDGET
                )
                tr.add("equilibrium.verify_equilibrium.deviations_checked", report.deviations_checked)
                if report.is_equilibrium:
                    tr.add("equilibrium.verify_equilibrium.ne")
                    found.append((index, report))
            equilibria = tuple(
                (tr.call("equilibrium.profile_from_index", eq.profile_from_index, n, alpha, index), report)
                for index, report in found
            )
            return eq.EnumerationResult(n, alpha, total, connected, equilibria)

    def _traced_row(self, tr: Tracer, result):
        """``harness.build_report_row`` with audits, one span per public call."""
        ncg = self.ncg
        with tr.span("harness.build_report_row"):
            tree = non_tree = audit_failures = 0
            min_girth = inf
            for profile, report in result.equilibria:
                if tr.call("harness.is_spanning_tree", ncg.harness.is_spanning_tree, profile):
                    tree += 1
                else:
                    non_tree += 1
                min_girth = min(min_girth, tr.call("structure.global_girth", ncg.structure.global_girth, profile))
                audit = traced_audit_full(tr, ncg, traced_build_context(tr, ncg, profile), report)
                audit_failures += audit.summary["findings_failing"] + audit.summary["bound_violations"]
            if result.alpha > 2 * result.n and non_tree > 0:
                raise ncg.errors.TreeConjectureViolation(
                    f"non-tree equilibrium at n={result.n}, alpha={result.alpha}"
                )
            return ncg.harness.ReportRow(
                n=result.n,
                alpha=result.alpha,
                profiles_scanned=result.profiles_scanned,
                ne_count=len(result.equilibria),
                tree_ne_count=tree,
                non_tree_ne_count=non_tree,
                min_girth_among_ne=min_girth,
                audit_failures=audit_failures,
            )


class ScaffoldAudit:
    """``build_context`` then ``audit_full`` (no certificate) on seeded scaffolds.

    The block of scaffold seeds starts at the workload seed, wrapped into the
    range whose audits were recorded.
    """

    name = "scaffold-audit"

    def __init__(self, ncg, seed: int, smoke: bool = False):
        self.ncg = ncg
        digests = read_digests("scaffold_digests.txt")
        block = SMOKE_SCAFFOLDS if smoke else SCAFFOLD_BLOCK
        start = seed % (len(digests) - block + 1)
        self.seeds = range(start, start + block)
        self.expected = digests[start:start + block]
        self.profiles = [ncg.audit.scaffold_profile(s) for s in self.seeds]

    def _ok(self, report, want: str) -> bool:
        return report.summary["bound_violations"] == 0 and audit_digest(self.ncg, report) == want

    def timed_pass(self) -> PassResult:
        a = self.ncg.audit
        failed = 0
        with reference.Sampler() as sampler:
            clock = _Clock(sampler)
            for seed, profile, want in zip(self.seeds, self.profiles, self.expected):
                try:
                    with clock:
                        report = a.audit_full(a.build_context(profile))
                except Exception:
                    report_error(f"scaffold {seed}")
                    failed += 1
                    continue
                if not self._ok(report, want):
                    sys.stderr.write(f"perfbench: scaffold {seed} audit differs from the recorded one\n")
                    failed += 1
        return clock.result(len(self.profiles), failed)

    def traced_pass(self, tr: Tracer) -> PassResult:
        a = self.ncg.audit
        ref_clock, tr_clock = _Clock(), _Clock()
        failed = 0
        for seed, profile, want in zip(self.seeds, self.profiles, self.expected):
            try:
                with ref_clock:
                    ref_ctx = a.build_context(profile)
                    ref = a.audit_full(ref_ctx)
                with tr_clock:
                    ctx = traced_build_context(tr, self.ncg, profile)
                    got = traced_audit_full(tr, self.ncg, ctx, None)
            except Exception:
                report_error(f"scaffold {seed}")
                failed += 1
                continue
            if not self._ok(ref, want) or ctx != ref_ctx or not same_audit(ref, got):
                sys.stderr.write(f"perfbench: scaffold {seed} differs (recorded or traced)\n")
                failed += 1
        return PassResult(ref_clock.wall, ref_clock.cpu, len(self.profiles), failed, tr_clock.wall)


class DynamicsExact:
    """Exact round-robin best-response dynamics, then an exact NE check.

    One start per (n, alpha) pair.  For each pair the start is the first
    recorded profile seed at or after nine times the workload seed (wrapping
    around the recorded range) whose dynamics take ``DYNAMICS_PASSES`` passes.  Each pass
    scans all 2^(n-1) strategies of every vertex, so the pass count sets the
    work; holding it fixed keeps the work of a block the same from seed to
    seed, where free pass counts make it vary by about a quarter.
    """

    name = "dynamics-exact"

    def __init__(self, ncg, seed: int, smoke: bool = False):
        self.ncg = ncg
        if smoke:
            self.expected = [read_table("dynamics_smoke.txt")[0][0]]
            self.starts = [dynamics_start(ncg, 0, SMOKE_DYNAMICS_N)]
            return
        table = read_table("dynamics.txt")
        seeds = [self._pick(table, seed, pair) for pair in range(9)]
        self.expected = [table[s][0] for s in seeds]
        self.starts = [dynamics_start(ncg, s) for s in seeds]

    @staticmethod
    def _pick(table, seed: int, pair: int) -> int:
        for k in range(len(table)):
            s = (9 * seed + k) % len(table)
            if s % 9 == pair and table[s][1] == DYNAMICS_PASSES:
                return s
        raise SetupError(f"no recorded start for pair {pair} with {DYNAMICS_PASSES} passes")

    def _run(self, profile):
        eq = self.ncg.equilibrium
        trace = eq.best_response_dynamics(profile, eq.EXACT, "round-robin", DYNAMICS_MAX_ITERS, None, BUDGET)
        return trace, eq.verify_equilibrium(trace.final_profile, eq.EXACT, BUDGET)

    def _ok(self, trace, report, want: str) -> bool:
        n = trace.final_profile.n
        if trace.converged and not (
            report.is_equilibrium and report.deviations_checked == n * ((1 << (n - 1)) - 1)
        ):
            return False
        return trace_digest(self.ncg, trace) == want

    def timed_pass(self) -> PassResult:
        failed = 0
        with reference.Sampler() as sampler:
            clock = _Clock(sampler)
            for i, (profile, want) in enumerate(zip(self.starts, self.expected)):
                try:
                    with clock:
                        trace, report = self._run(profile)
                except Exception:
                    report_error(f"dynamics start {i}")
                    failed += 1
                    continue
                if not self._ok(trace, report, want):
                    sys.stderr.write(f"perfbench: dynamics start {i} differs from the recorded trace\n")
                    failed += 1
        return clock.result(len(self.starts), failed)

    def traced_pass(self, tr: Tracer) -> PassResult:
        ref_clock, tr_clock = _Clock(), _Clock()
        failed = 0
        for i, (profile, want) in enumerate(zip(self.starts, self.expected)):
            try:
                with ref_clock:
                    ref = self._run(profile)
                with tr_clock:
                    got = traced_dynamics(tr, self.ncg, profile)
            except Exception:
                report_error(f"dynamics start {i}")
                failed += 1
                continue
            if not self._ok(*ref, want) or got != ref:
                sys.stderr.write(f"perfbench: dynamics start {i} differs (recorded or traced)\n")
                failed += 1
        return PassResult(ref_clock.wall, ref_clock.cpu, len(self.starts), failed, tr_clock.wall)


WORKLOADS = {w.name: w for w in (SweepN5, ScaffoldAudit, DynamicsExact)}
