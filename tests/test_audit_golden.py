"""Full-detail audit golden: every finding's detail and every bound's notes.

``data/audit_golden.txt`` holds one line ``<label> <digest>`` per audit:
scaffolds 0-199 without a certificate, then every equilibrium of the n=4
cells at alpha 2 and 9 with its exact certificate.  A digest covers the
complete ``audit_to_json`` text as ``ncg audit`` prints it, so it also
guards the order of rows, keys and notes.  Re-record it, only when an audit
output is meant to change, with

    PYTHONPATH=src python tests/test_audit_golden.py
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from ncg.audit import audit_full, build_context, scaffold_profile
from ncg.cli import audit_to_json
from ncg.equilibrium import EXACT
from ncg.harness import enumerate_cell

GOLDEN = Path(__file__).parent / "data" / "audit_golden.txt"
SCAFFOLD_SEEDS = range(200)
EQUILIBRIUM_CELLS = ((4, Fraction(2)), (4, Fraction(9)))


def _digest(report, certified_class) -> str:
    text = json.dumps(audit_to_json(report, certified_class), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def audit_digests() -> list[str]:
    """``<label> <digest>`` for every audit the golden covers, in file order."""
    lines = [
        f"scaffold-{seed} {_digest(audit_full(build_context(scaffold_profile(seed))), None)}"
        for seed in SCAFFOLD_SEEDS
    ]
    for n, alpha in EQUILIBRIUM_CELLS:
        for profile, certificate in enumerate_cell(n, alpha, EXACT).equilibria:
            report = audit_full(build_context(profile), ne_certificate=certificate)
            label = f"n{n}-alpha{alpha}-{certificate.profile_hash}"
            lines.append(f"{label} {_digest(report, certificate.deviation_class)}")
    return lines


def test_full_audit_outputs_match_golden():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = audit_digests()
    assert len(got) == len(want)
    assert [line for line, ref in zip(got, want) if line != ref] == []


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in audit_digests()), encoding="utf-8")
