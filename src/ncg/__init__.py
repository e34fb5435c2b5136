"""Network creation game engine: exact costs, equilibrium search, rule audits."""

from .game import (
    BoughtEdge,
    CostBreakdown,
    DistanceMatrix,
    StrategyProfile,
    all_pairs_distances,
    connection_cost,
    is_connected,
    vertex_cost,
)
from .structure import (
    BiconnectedDecomposition,
    CycleReport,
    EdgeClass,
    SSet,
    SptAnalysis,
    StrategyContext,
    build_context,
    build_spt,
    choose_root,
    classify_x_sets,
    compute_s_set,
    cycle_report,
    edge_subtree_size,
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
    audit_altpath,
    audit_deviation_bound,
    audit_full,
    audit_structural,
    scaffold_profile,
    strategy1_bound,
    strategy2_bound,
    strategy3_bound,
)
from .errors import (
    BudgetExceededError,
    EnumerationCapError,
    NcgError,
    ProfileFormatError,
    TreeConjectureViolation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
