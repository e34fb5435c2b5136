"""Network creation game engine: exact costs, equilibrium search, rule audits."""

from .game import (
    BoughtEdge,
    CostBreakdown,
    StrategyProfile,
    all_pairs_distances,
    is_connected,
    vertex_cost,
)
from .structure import (
    BiconnectedDecomposition,
    CycleReport,
    EdgeClass,
    SptAnalysis,
    StrategyContext,
    build_context,
    build_spt,
    choose_root,
    classify_x_sets,
    cycle_report,
    global_girth,
    largest_biconnected_component,
)
from .equilibrium import (
    Deviation,
    DeviationClass,
    DynamicsTrace,
    EnumerationResult,
    VerificationReport,
    best_response_dynamics,
    best_response_exact,
    delta_cost,
    profile_hash,
    random_profile,
    verify_equilibrium,
)
from .audit import (
    AuditFinding,
    AuditReport,
    BoundComparison,
    audit_deviation_bound,
    audit_full,
    audit_structural,
    scaffold_profile,
)
from .errors import (
    BudgetExceededError,
    EnumerationCapError,
    NcgError,
    ProfileFormatError,
    TreeConjectureViolation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
