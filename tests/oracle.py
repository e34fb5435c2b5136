"""The index scan the graph-first enumeration replaced, kept as its oracle.

It decodes, connectivity-checks and verifies every one of the
3^(n(n-1)/2) profile indices in order, with no filter.
"""

from __future__ import annotations

from fractions import Fraction

from ncg.equilibrium import (
    DEFAULT_BUDGET,
    DeviationClass,
    EnumerationResult,
    VerificationReport,
    profile_from_index,
    verify_equilibrium,
)
from ncg.game import is_connected


def scan_profile_range(
    n: int,
    alpha: Fraction,
    dev_class: DeviationClass,
    start: int,
    stop: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, list[tuple[int, VerificationReport]]]:
    """Verify every profile index in [start, stop).

    Returns (connected-profile count, [(index, report)] for equilibria found).
    """
    found = []
    connected = 0
    for index in range(start, stop):
        profile = profile_from_index(n, alpha, index)
        if profile.n > 1 and not is_connected(profile):
            continue
        connected += 1
        report = verify_equilibrium(profile, dev_class, budget)
        if report.is_equilibrium:
            found.append((index, report))
    return connected, found


def oracle_cell(n: int, alpha: Fraction, dev_class: DeviationClass) -> EnumerationResult:
    """The ``EnumerationResult`` the index scan gives for one whole cell."""
    total = 3 ** (n * (n - 1) // 2)
    connected, found = scan_profile_range(n, alpha, dev_class, 0, total)
    equilibria = tuple((profile_from_index(n, alpha, idx), report) for idx, report in found)
    return EnumerationResult(n, alpha, total, connected, equilibria)
