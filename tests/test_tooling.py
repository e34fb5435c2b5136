"""Tooling guards: the benchmark's smoke run, which re-drives ncg through its
public calls, what importing the CLI loads, and that every top-level name
of the library has a reader."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import ncg
from ncg.equilibrium import EXACT, EnumerationResult
from ncg.harness import SweepSpec, enumerate_cell, rows_to_csv, run_sweep

ROOT = Path(__file__).resolve().parent.parent


def test_enumeration_result_rebuilds_from_its_five_fields():
    # perfbench's traced sweep rebuilds each cell's result from the five
    # fields and compares it with the library's; the class records are
    # derived from them and left out of equality
    result = enumerate_cell(4, Fraction(2), EXACT)
    assert result.representatives
    rebuilt = EnumerationResult(
        result.n, result.alpha, result.profiles_scanned, result.connected_count, result.equilibria
    )
    assert rebuilt.representatives is None
    assert rebuilt == result


def test_sweep_n5_rows_equal_the_benchmark_record():
    # the bytes the sweep-n5 workload checks each pass against; the smoke
    # run below covers only n = 3, 4
    spec = SweepSpec((4, 5), ("2", "2n+1"), EXACT)
    expected = (ROOT / "perfbench" / "expected" / "sweep.csv").read_text(encoding="utf-8")
    assert rows_to_csv(run_sweep(spec)) == expected


def test_perfbench_smoke_exits_0():
    # guards what perfbench calls: profile_from_index, enumerate_cell and the
    # EnumerationResult fields, untraced and traced; the traced sweep holds
    # only while a result rebuilt from its five fields equals the library's
    # (test_enumeration_result_rebuilds_from_its_five_fields)
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-4000:]


def test_cli_import_loads_no_process_pool():
    # a process pool's modules cost about 20 ms of import time per run
    code = (
        "import sys, ncg.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


# The cost reference that tests compare delta_cost and the scans' integer
# pricing against; the library prices costs without it.
CALLER_FREE = {"vertex_cost", "CostBreakdown"}


def _defined_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function's or class's, or
    an assignment's targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
    return set()


def _module(path: Path) -> list[ast.stmt]:
    return ast.parse(path.read_text(encoding="utf-8")).body


def _referenced_names(path: Path) -> set[str]:
    """Every name a module reads, as a bare name or an attribute, outside the
    top-level definition of that same name; imports read nothing."""
    names = set()
    for stmt in _module(path):
        own = _defined_names(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in own:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in own:
                names.add(node.attr)
    return names


def test_every_exported_name_has_a_caller():
    # every top-level name of src/ncg, exported or private: a name only tests
    # read is a second copy of some fact, or a helper with no user, such as
    # one a deletion left behind; library code under src/ncg or the
    # benchmark under perfbench must read it
    library = [p for p in (ROOT / "src" / "ncg").glob("*.py") if p.name != "__init__.py"]
    defined = {name for path in library for stmt in _module(path) for name in _defined_names(stmt)}
    used = set().union(*map(_referenced_names, library + list((ROOT / "perfbench").glob("*.py"))))
    assert sorted(defined - used - CALLER_FREE) == []
    assert CALLER_FREE <= set(ncg.__all__)
