"""Fair division of indivisible goods under ordinal preferences plus a
limited number of value queries: exact envy metrics, allocation algorithms,
adversarial lower-bound families, and brute-force oracles.
"""

from .core import (
    Allocation,
    CompletenessError,
    DomainError,
    FairDivisionError,
    FairnessReport,
    Instance,
    InvalidAllocation,
    OverlapError,
    PreferenceProfile,
    Value,
    build_ranking,
    fairness_report,
    format_value,
    parse_value,
    trivial_few_goods_allocation,
    validate,
)
from .elicitation import BudgetExceeded, QueryOracle, Transcript
from .ordinal import round_robin, rrla
from .query_enhanced import (
    AgentVirtualValuation,
    BlackboxInvalid,
    FullInfoAllocator,
    ParamDomainError,
    PRRParams,
    bucket_thresholds,
    bucketize,
    prr,
    theorem5_bound,
    theorem5_params,
    virtual_efx,
    virtual_efx_bound,
    virtual_instance,
)
from .fullinfo import (
    TooLarge,
    best_alpha_bruteforce,
    envy_cycle_heuristic,
    exact_efx_bruteforce,
)
from .bivalued import (
    MatchFreezeState,
    NotBivalued,
    TransitionInfo,
    ZeroLowValue,
    discover_transition,
    match_and_freeze,
    match_freeze_round,
    mfrr,
    prioritized_max_matching,
    two_query_bivalued,
)
from .adversarial import (
    InconsistentTranscript,
    OrdinalLBFamily,
    QueryLBFamily,
    ordinal_adversary_pick,
    ordinal_lb_build,
    query_adversary_complete,
    query_lb_build,
)
from .enclosures import nth_root_enclosure, pow_enclosure, sqrt_enclosure

__all__ = [name for name in dir() if not name.startswith("_")]
