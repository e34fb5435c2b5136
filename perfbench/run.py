#!/usr/bin/env python3
"""Benchmark of the ncg package, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep-n5 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``sweep-n5``,
``scaffold-audit`` and ``dynamics-exact``.  ncg is imported from ``src/``
and driven through public functions only, in this one process, serially
(``jobs=1``).

``--trace 0`` sets the workload up several times and reports the median
set-up time ``setup_s``, then repeats timed passes over the workload until
the next one would end after ``--seconds``.  ``wall_ref`` and ``cpu_ref``
are the median pass's wall and CPU (``time.process_time``) time divided by
the mean time of a fixed reference sample taken every half second during
the same pass (``reference.py``), which cancels most of the drift in a
shared box's speed.  The raw seconds ``wall_s`` and ``cpu_s`` are printed
on standard error.  ``peak_rss_mb`` is the peak resident memory.
``failed_frac`` is printed on standard error with its base; the result line
carries it as ``failed`` over ``attempted``.

``--trace 1`` makes one pass in which every item runs through the library
call and then again through spans around the same public calls (it ignores
``--seconds``).  Only when the traced results equal the library results
does it report per-layer call and work counts, busy time as a share of the
traced pass, and ``trace_overhead_s``: traced minus untraced seconds of the
pass.  Busy and self seconds per span are printed on standard error.

``--smoke`` runs a tiny version of all three workloads, untraced and traced,
in a few seconds.

Every output is checked against ``expected/``, recorded when the benchmark
was introduced.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0 when
every check passed, 1 when one failed, 2 when the checkout lacks ncg or the
recorded outputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, SetupError, import_ncg

SETUP_REPEATS = 5


def set_up(workload_cls, seed: int):
    """Import ncg and build the workload's inputs ``SETUP_REPEATS`` times.

    Returns the last workload and the median set-up seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload = workload_cls(import_ncg(), seed)
        times.append(perf_counter() - start)
    return workload, statistics.median(times)


def timed_passes(workload, seconds: float) -> list:
    """Passes until the next one, at the mean pass length so far, would overrun."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.timed_pass())
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def log(text: str) -> None:
    sys.stderr.write(text + "\n")


def result_line(attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def log_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        log(f"  {name:<52} {value:>14.6g} {unit}")


def run_untraced(workload_cls, seed: int, seconds: float):
    workload, setup_s = set_up(workload_cls, seed)
    passes = timed_passes(workload, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(p.wall_s / p.ref_wall_s for p in passes), "ref"),
        "cpu_ref": (statistics.median(p.cpu_s / p.ref_cpu_s for p in passes), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    log(f"{workload.name}: seed {seed}, {len(passes)} passes, median raw: wall_s "
        f"{statistics.median(p.wall_s for p in passes):.6g} cpu_s "
        f"{statistics.median(p.cpu_s for p in passes):.6g} reference_ms "
        f"{1000 * statistics.median(p.ref_wall_s for p in passes):.6g}")
    log(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
    log_metrics(metrics)
    return attempted, failed, metrics


def run_traced(workload_cls, seed: int):
    workload, _ = set_up(workload_cls, seed)
    tracer = Tracer()
    p = workload.traced_pass(tracer)
    log(f"{workload.name}: seed {seed}, untraced {p.wall_s:.4f} s, traced {p.traced_s:.4f} s")
    log(f"  failed_frac {p.failed}/{p.attempted} = {p.failed / p.attempted:.6g}")
    if p.failed:
        log("  traced results differ from the library or the recorded outputs; "
            "no layer numbers reported")
        return p.attempted, p.failed, {}
    log(tracer.table())
    metrics = layer_metrics(tracer, p.traced_s, p.wall_s)
    log_metrics(metrics)
    return p.attempted, p.failed, metrics


def run_smoke():
    attempted = failed = 0
    metrics = {}
    for name, workload_cls in WORKLOADS.items():
        workload = workload_cls(import_ncg(), 0, smoke=True)
        untraced = workload.timed_pass()
        traced = workload.traced_pass(Tracer())
        attempted += untraced.attempted + traced.attempted
        failed += untraced.failed + traced.failed
        metrics[f"{name}.wall_s"] = (untraced.wall_s, "s")
        log(f"{name} smoke: {untraced.wall_s:.4f} s untraced, {traced.traced_s:.4f} s traced, "
            f"failed {untraced.failed}/{untraced.attempted} untraced, "
            f"{traced.failed}/{traced.attempted} traced")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny check of all workloads")
    args = parser.parse_args(argv)
    if args.smoke == (args.workload is not None):
        parser.error("give exactly one of --workload and --smoke")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        if args.smoke:
            attempted, failed, metrics = run_smoke()
        elif args.trace:
            attempted, failed, metrics = run_traced(WORKLOADS[args.workload], args.seed)
        else:
            attempted, failed, metrics = run_untraced(
                WORKLOADS[args.workload], args.seed, args.seconds
            )
    except SetupError as exc:
        log(f"perfbench: {exc}")
        return 2
    print(result_line(attempted, failed, metrics), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
