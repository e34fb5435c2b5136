#!/usr/bin/env python3
"""Record the benchmark's expected outputs and baseline numbers.

    python3 perfbench/record.py expected   # rewrite perfbench/expected/
    python3 perfbench/record.py baseline   # rewrite perfbench/baseline.json

``expected`` stores what the current ncg computes for every input the
workloads can draw: the sweep CSVs, one audit digest per scaffold seed and
one trace digest per dynamics start seed.  These files are the benchmark's
notion of a correct output, so they are recorded once, on the commit that
introduces the benchmark, and not rewritten to make a later change pass.

``baseline`` runs ``run.py`` on every workload for ten seeds, untraced and
then traced once, and writes to ``baseline.json`` each end-to-end metric's
runs, median, quartiles and spread (interquartile range over median), the
raw seconds the runs print on standard error, and one traced run's
per-layer metrics.
"""

from __future__ import annotations

import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from contextlib import redirect_stdout

from spans import Tracer
from workloads import (
    DYNAMICS_MAX_ITERS,
    EXPECTED,
    HERE,
    ROOT,
    SMOKE_DYNAMICS_N,
    audit_digest,
    dynamics_start,
    import_ncg,
    sweep_argv,
    trace_digest,
    traced_dynamics,
)

SCAFFOLD_SEEDS = 8192
DYNAMICS_SEEDS = 90
BASELINE_SEEDS = range(1, 11)
RAW_METRICS = ("wall_s", "cpu_s", "reference_ms")


def write(name: str, text: str) -> None:
    with open(os.path.join(EXPECTED, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def sweep_csv(ncg, n_values) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = ncg.cli.cmd_run(sweep_argv(n_values))
    if code != 0:
        raise SystemExit(f"sweep --n {n_values} exited {code}")
    return out.getvalue()


def dynamics_record(ncg, profile) -> str:
    """``<trace digest> <passes>`` for one start; passes come from the traced re-drive."""
    eq = ncg.equilibrium
    trace = eq.best_response_dynamics(profile, eq.EXACT, "round-robin", DYNAMICS_MAX_ITERS)
    tracer = Tracer()
    if traced_dynamics(tracer, ncg, profile)[0] != trace:
        raise SystemExit("traced dynamics differ from best_response_dynamics")
    return f"{trace_digest(ncg, trace)} {tracer.counts['equilibrium.dynamics.passes']}\n"


def record_expected() -> None:
    ncg = import_ncg()
    os.makedirs(EXPECTED, exist_ok=True)
    write("sweep.csv", sweep_csv(ncg, (4, 5)))
    write("sweep_smoke.csv", sweep_csv(ncg, (3, 4)))
    a = ncg.audit
    write("scaffold_digests.txt", "".join(
        audit_digest(ncg, a.audit_full(a.build_context(a.scaffold_profile(s)))) + "\n"
        for s in range(SCAFFOLD_SEEDS)
    ))
    write("dynamics_smoke.txt", dynamics_record(ncg, dynamics_start(ncg, 0, SMOKE_DYNAMICS_N)))
    lines = []
    for s in range(DYNAMICS_SEEDS):
        lines.append(dynamics_record(ncg, dynamics_start(ncg, s)))
        print(f"dynamics start {s}: {lines[-1].strip()}", file=sys.stderr, flush=True)
    write("dynamics.txt", "".join(lines))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, with the raw seconds from its standard error added."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = re.search(r"raw: wall_s (\S+) cpu_s (\S+) reference_ms (\S+)", proc.stderr)
    if raw:
        for name, unit, value in zip(RAW_METRICS, ("s", "s", "ms"), raw.groups()):
            result["metrics"][name] = {"value": float(value), "unit": unit}
    return result


def record_baseline() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = {}
    for w in spec["workloads"]:
        runs = [run_once(w["name"], seed, seconds, 0) for seed in BASELINE_SEEDS]
        summary = {}
        for name in [m["name"] for m in spec["end_to_end"]] + list(RAW_METRICS):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "runs": values,
            }
        traced = run_once(w["name"], BASELINE_SEEDS[0], seconds, 1)
        workloads[w["name"]] = {
            "seeds": list(BASELINE_SEEDS),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summary,
            "per_layer_seed": BASELINE_SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{w['name']}: {json.dumps(summary)}", file=sys.stderr, flush=True)
    doc = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "jobs": 1,
        "run_seconds": seconds,
        "note": "--jobs scaling is not timed: the box has 2 cores shared with other work, "
                "so parallel speed-up would measure the neighbours, not ncg.",
        "workloads": workloads,
    }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["expected"]:
        record_expected()
    elif sys.argv[1:] == ["baseline"]:
        record_baseline()
    else:
        raise SystemExit(__doc__)
