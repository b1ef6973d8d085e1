"""repro — a reproduction of µBE (ICDE 2007).

µBE ("Matching By Example") is a tool for Internet-scale data integration
that simultaneously *selects data sources* and *mediates their schemas*
by solving a user-guided constrained optimization problem.

Quick start::

    from repro import Session, generate_books_universe

    workload = generate_books_universe(n_sources=100, seed=1)
    session = Session(workload.universe, max_sources=10)
    iteration = session.solve()
    print(iteration.solution.summary())

See README.md for the architecture and DESIGN.md for the paper mapping.
"""

from .core import (
    AttributeRef,
    CharacteristicSpec,
    GlobalAttribute,
    MediatedSchema,
    Problem,
    Solution,
    Source,
    Universe,
    default_weights,
    normalize_weights,
)
from .exceptions import (
    ConstraintError,
    InvalidGAError,
    InvalidSchemaError,
    ReproError,
    SearchError,
    SketchError,
    WeightError,
    WorkloadError,
)
from .explain import (
    EventLog,
    SolutionExplanation,
    explain_solution,
    get_event_log,
)
from .execution import (
    CostModel,
    IntegrationSystem,
    Predicate,
    Query,
    QueryResult,
    full_answer_count,
    random_queries,
)
from .matching import (
    CompoundSpec,
    MatchOperator,
    MatchResult,
    NMMatch,
    apply_compounds,
    suggest_compounds,
)
from .quality import Objective
from .run_context import RunContext, current_run, run_scope
from .search import (
    OPTIMIZERS,
    OptimizerConfig,
    SearchResult,
    TabuSearch,
    get_optimizer,
)
from .session import Session, render_schema, render_solution
from .sketch import ExactDistinct, PCSASketch
from .telemetry import (
    InMemoryExporter,
    JsonLinesExporter,
    StderrSummaryExporter,
    Telemetry,
    get_telemetry,
    load_trace,
    render_trace_report,
)
from .similarity import (
    HybridSimilarity,
    InstanceSimilarity,
    NGramJaccard,
    available_measures,
    get_measure,
)
from .workload import (
    DataConfig,
    PerturbationModel,
    SourceSearchEngine,
    build_catalog,
    generate_books_universe,
    generate_universe,
    score_schema,
    theater_universe,
    value_samples_for_universe,
)

__version__ = "1.0.0"

__all__ = [
    "AttributeRef",
    "CharacteristicSpec",
    "CompoundSpec",
    "ConstraintError",
    "CostModel",
    "DataConfig",
    "EventLog",
    "ExactDistinct",
    "GlobalAttribute",
    "HybridSimilarity",
    "InMemoryExporter",
    "InstanceSimilarity",
    "IntegrationSystem",
    "InvalidGAError",
    "InvalidSchemaError",
    "JsonLinesExporter",
    "MatchOperator",
    "MatchResult",
    "MediatedSchema",
    "NGramJaccard",
    "NMMatch",
    "OPTIMIZERS",
    "Objective",
    "OptimizerConfig",
    "PCSASketch",
    "PerturbationModel",
    "Predicate",
    "Problem",
    "Query",
    "QueryResult",
    "ReproError",
    "RunContext",
    "SearchError",
    "SearchResult",
    "Session",
    "SketchError",
    "Solution",
    "SolutionExplanation",
    "Source",
    "SourceSearchEngine",
    "StderrSummaryExporter",
    "TabuSearch",
    "Telemetry",
    "Universe",
    "WeightError",
    "WorkloadError",
    "apply_compounds",
    "available_measures",
    "build_catalog",
    "current_run",
    "default_weights",
    "explain_solution",
    "full_answer_count",
    "generate_books_universe",
    "generate_universe",
    "get_event_log",
    "get_measure",
    "get_optimizer",
    "get_telemetry",
    "load_trace",
    "normalize_weights",
    "random_queries",
    "render_schema",
    "render_solution",
    "render_trace_report",
    "run_scope",
    "score_schema",
    "suggest_compounds",
    "theater_universe",
    "value_samples_for_universe",
    "__version__",
]
