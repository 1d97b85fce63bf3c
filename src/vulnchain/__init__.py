"""vulnchain: attack-graph analysis of chained web vulnerabilities.

Scanner findings carry preconditions and postconditions; this package links
them into a state machine, computes which harmful goal states become
reachable only through combinations of vulnerabilities, and emits attack-path
witnesses plus graph exports.
"""

from .errors import (
    DuplicateState,
    EmptyCondition,
    GoalNotReached,
    InvalidAssumption,
    MalformedUri,
    ResultFsmMismatch,
    SchemaViolation,
    UnknownAssumptionFlag,
    VulnchainError,
)
from .ingest import FindingSet, build_fsm, parse_crawl_list, parse_findings
from .model import (
    START_STATE_ID,
    URI_ALL,
    URI_NULL,
    AssumptionSet,
    AttackPath,
    AttackState,
    Condition,
    Fsm,
    NormalizedUri,
    PostconditionRef,
    PreconditionRef,
    ReachResult,
    normalize_condition,
    normalize_uri,
    state_id,
)
from .reach import (
    ReachParams,
    Semantics,
    collect_goals,
    extract_witness,
    isolated_goals,
    reach,
)
from .report import (
    AnalysisReport,
    fsm_from_json,
    fsm_to_json,
    report_from_json,
    report_to_json,
    to_dot,
    to_report,
)

__version__ = "0.1.0"
