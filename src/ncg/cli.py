"""Command line driver: ``ncg {verify|enumerate|dynamics|audit|sweep}``.

Exit codes: 0 success, 1 assertion failure (a non-tree exact equilibrium
above 2n), 2 usage, IO, budget errors and malformed input, 3 internal error (any
other exception; one ``internal error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

from .audit import AuditReport, audit_full, build_context
from .equilibrium import (
    DEFAULT_BUDGET,
    VERTEX_ORDERS,
    DeviationClass,
    DynamicsTrace,
    VerificationReport,
    best_response_dynamics,
    labelled_equilibria,
    verify_equilibrium,
)
from .errors import (
    BudgetExceededError,
    EnumerationCapError,
    NcgError,
    ProfileFormatError,
    TreeConjectureViolation,
)
from .harness import (
    SCHEMA_VERSION,
    SweepSpec,
    format_fraction,
    load_profile,
    profile_to_document,
    rows_to_csv,
    run_sweep,
    save_profile,
    sweep_cells,
)


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_fraction(value)
    if value == inf:
        return "inf"
    if value == -inf:
        return "-inf"
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report_to_json(report: VerificationReport) -> dict:
    witness = None
    if report.witness is not None:
        deviation, delta = report.witness
        witness = {
            "vertex": deviation.vertex,
            "new_edge_set": sorted(deviation.new_edge_set),
            "delta": _jsonable(delta),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "profile_hash": report.profile_hash,
        "class": report.deviation_class,
        "is_equilibrium": report.is_equilibrium,
        "witness": witness,
        "deviations_checked": report.deviations_checked,
    }


def trace_to_json(trace: DynamicsTrace) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "steps": [
            {
                "vertex": v,
                "new_edge_set": sorted(dev.new_edge_set),
                "delta": _jsonable(delta),
            }
            for v, dev, delta in trace.steps
        ],
        "converged": trace.converged,
        "final_profile": profile_to_document(trace.final_profile),
    }


def audit_to_json(report: AuditReport, certified_class: str | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "certified_class": certified_class,
        "findings": [
            {
                "lemma_id": f.lemma_id,
                "applicable": f.applicable,
                "holds": f.holds,
                "informational": f.informational,
                "detail": _jsonable(f.detail),
            }
            for f in report.findings
        ],
        "bounds": [
            {
                "lemma_id": b.lemma_id,
                "vertex": b.vertex,
                "sold_edges": _jsonable(b.sold_edges),
                "bought_r": b.bought_r,
                "bound": _jsonable(b.bound),
                "exact_delta": _jsonable(b.exact_delta),
                "preconditions_met": b.preconditions_met,
                "precondition_notes": b.precondition_notes,
                "dominates": b.dominates,
            }
            for b in report.bounds
        ],
        "skipped": list(report.skipped),
        "summary": _jsonable(report.summary),
    }


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, input_=False, cell=False):
        if input_:
            p.add_argument("--input", required=True, help="profile JSON path")
        if cell:
            p.add_argument("--n", required=True, help="vertex count(s), comma separated")
            p.add_argument("--alpha", required=True, help="alpha expression(s), e.g. 2n+1")
            p.add_argument("--out", help="CSV output path (default: stdout)")
            p.add_argument("--jobs", type=int, default=1, help="ignored: cells run serially")
            p.add_argument("--cap", type=int, default=5, help="enumeration vertex cap")
        p.add_argument("--class", dest="dev_class", default="exact",
                       help="deviation class spec (default: exact)")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p = sub.add_parser("verify", help="check one profile for equilibrium")
    common(p, input_=True)

    p = sub.add_parser("enumerate", help="scan every profile at one (n, alpha) cell")
    common(p, cell=True)
    p.add_argument("--dump-dir", help="directory for per-equilibrium profile JSON dumps")

    p = sub.add_parser("dynamics", help="run best-response dynamics from a profile")
    common(p, input_=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--order", choices=VERTEX_ORDERS, default="round-robin")
    p.add_argument("--seed", type=int, default=0, help="shuffle seed for --order random")

    p = sub.add_parser("audit", help="run every structural rule and bound check")
    common(p, input_=True)
    p.add_argument("--no-certify", action="store_true",
                   help="skip equilibrium certification (findings become informational)")

    p = sub.add_parser("sweep", help="enumerate a full (n, alpha) grid")
    common(p, cell=True)

    return parser


def _sweep_spec(args, dev_class: DeviationClass) -> SweepSpec:
    """The (n, alpha) grid of ``enumerate`` and ``sweep``; both lists must be nonempty."""
    n_values = tuple(int(x) for x in args.n.split(",") if x.strip())
    alpha_expressions = tuple(x for x in args.alpha.split(",") if x.strip())
    if not (n_values and alpha_expressions):
        raise ValueError("--n and --alpha each need at least one value")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return SweepSpec(n_values, alpha_expressions, dev_class, args.cap, args.budget)


def _dump_equilibria(n: int, alpha: Fraction, records, dump: Path) -> None:
    """One profile document per labelled equilibrium of the cell's records."""
    dump.mkdir(parents=True, exist_ok=True)
    name = format_fraction(alpha).replace("/", "_")
    for idx, (profile, _) in enumerate(labelled_equilibria(n, alpha, records)):
        save_profile(profile, dump / f"n{n}_alpha{name}_{idx}.json")


def cmd_run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)

    try:
        dev_class = DeviationClass.parse(args.dev_class)

        if args.command == "verify":
            profile = load_profile(args.input)
            report = verify_equilibrium(profile, dev_class, args.budget)
            sys.stdout.write(json.dumps(report_to_json(report), indent=2) + "\n")
            return 0

        if args.command in ("enumerate", "sweep"):
            spec = _sweep_spec(args, dev_class)
            if args.command == "enumerate" and args.dump_dir:
                rows = []
                for records, row in sweep_cells(spec):
                    rows.append(row)
                    _dump_equilibria(row.n, row.alpha, records, Path(args.dump_dir))
            else:
                rows = run_sweep(spec)
            _emit(rows_to_csv(rows), args.out)
            return 0

        if args.command == "dynamics":
            profile = load_profile(args.input)
            trace = best_response_dynamics(
                profile, dev_class, args.order, args.max_iters, args.seed, args.budget
            )
            sys.stdout.write(json.dumps(trace_to_json(trace), indent=2) + "\n")
            return 0

        if args.command == "audit":
            profile = load_profile(args.input)
            certificate = None
            certified_class = None
            if not args.no_certify:
                certificate = verify_equilibrium(profile, dev_class, args.budget)
                if certificate.is_equilibrium:
                    certified_class = certificate.deviation_class
            report = audit_full(build_context(profile), ne_certificate=certificate)
            sys.stdout.write(
                json.dumps(audit_to_json(report, certified_class), indent=2) + "\n"
            )
            return 0

        parser.error(f"unknown command {args.command!r}")
        return 2

    except TreeConjectureViolation as exc:
        sys.stderr.write(f"assertion failure: {exc}\n")
        return 1
    except (BudgetExceededError, EnumerationCapError) as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 2
    except (ProfileFormatError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2
    except NcgError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # exit 1 is reserved for the tree-conjecture gate
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 3


def main() -> None:
    sys.exit(cmd_run())


if __name__ == "__main__":
    main()
