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
    build_ranking,
    fairness_report,
    format_value,
    parse_value,
    validate,
)
from .elicitation import BudgetExceeded, InconsistentTranscript, QueryOracle
from .ordinal import round_robin, rrla
from .query_enhanced import (
    AgentVirtualValuation,
    BlackboxInvalid,
    ParamDomainError,
    PRRParams,
    prr,
    theorem5_bound,
    theorem5_params,
    virtual_efx,
    virtual_efx_bound,
)
from .fullinfo import (
    TooLarge,
    best_alpha_bruteforce,
    envy_cycle_heuristic,
    exact_efx_bruteforce,
)
from .bivalued import (
    NotBivalued,
    ZeroLowValue,
    match_and_freeze,
    mfrr,
    two_query_bivalued,
)
from .adversarial import (
    OrdinalLBFamily,
    QueryLBFamily,
    ordinal_adversary_pick,
    ordinal_lb_build,
    query_adversary_complete,
    query_lb_build,
)

__all__ = [
    "Allocation", "CompletenessError", "DomainError", "FairDivisionError", "FairnessReport",
    "Instance", "InvalidAllocation", "OverlapError", "build_ranking", "fairness_report",
    "format_value", "parse_value", "validate", "BudgetExceeded", "QueryOracle",
    "round_robin", "rrla",
    "AgentVirtualValuation", "BlackboxInvalid", "ParamDomainError", "PRRParams", "prr",
    "theorem5_bound", "theorem5_params", "virtual_efx", "virtual_efx_bound",
    "TooLarge", "best_alpha_bruteforce", "envy_cycle_heuristic", "exact_efx_bruteforce",
    "NotBivalued", "ZeroLowValue", "match_and_freeze", "mfrr", "two_query_bivalued",
    "InconsistentTranscript", "OrdinalLBFamily", "QueryLBFamily", "ordinal_adversary_pick",
    "ordinal_lb_build", "query_adversary_complete", "query_lb_build",
]
