"""Combinatorial optimizers for the µBE source-selection problem (paper §6)."""

from ..exceptions import SearchError
from .annealing import SimulatedAnnealing
from .base import (
    Optimizer,
    OptimizerConfig,
    SearchResult,
    SearchStats,
    best_of,
    free_ids,
    random_selection,
    required_ids,
)
from .exhaustive import ExhaustiveSearch
from .greedy_select import GreedySelector
from .local_search import StochasticLocalSearch
from .neighborhood import Move, MoveKind, Neighborhood
from .parallel import (
    ParallelSolveEngine,
    PortfolioStats,
    WorkerContext,
    WorkerOutcome,
    WorkerSpec,
    parse_portfolio,
    render_portfolio,
    resolve_portfolio,
    seeded_restarts,
)
from .pso import ParticleSwarm
from .random_search import RandomSearch
from .resilience import (
    ATTEMPT_PARAM,
    Checkpoint,
    WorkerProgress,
    load_checkpoint,
    problem_fingerprint,
    write_checkpoint,
)
from .tabu import TabuSearch, default_tenure

#: Optimizer classes by registry name.
OPTIMIZERS: dict[str, type[Optimizer]] = {
    cls.name: cls
    for cls in (
        TabuSearch,
        SimulatedAnnealing,
        StochasticLocalSearch,
        ParticleSwarm,
        GreedySelector,
        RandomSearch,
        ExhaustiveSearch,
    )
}


def get_optimizer(
    name: str, config: OptimizerConfig | None = None
) -> Optimizer:
    """Instantiate an optimizer by registry name.

    Raises
    ------
    SearchError
        If the name is unknown.
    """
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        raise SearchError(
            f"unknown optimizer {name!r}; "
            f"available: {', '.join(sorted(OPTIMIZERS))}"
        ) from None
    return cls(config)


def resolve_optimizer_class(name: str) -> type[Optimizer]:
    """Resolve an optimizer class from a registry name or a dotted path.

    ``name`` is either a registry key (``"tabu"``) or a
    ``"module.path:ClassName"`` reference to an :class:`Optimizer`
    subclass.  The dotted form is resolved by importing the module on
    demand, which makes it work in ``spawn``-started worker processes
    where runtime registry mutations in the parent are invisible — the
    fault-injection harness (:mod:`repro.testing.faults`) depends on
    this.

    Raises
    ------
    SearchError
        If the name is unknown, the module cannot be imported, or the
        attribute is not an :class:`Optimizer` subclass.
    """
    if ":" not in name:
        try:
            return OPTIMIZERS[name]
        except KeyError:
            raise SearchError(
                f"unknown optimizer {name!r}; "
                f"available: {', '.join(sorted(OPTIMIZERS))}"
            ) from None
    import importlib

    module_name, _, attribute = name.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise SearchError(
            f"cannot import optimizer module {module_name!r}: {exc}"
        ) from exc
    try:
        cls = getattr(module, attribute)
    except AttributeError:
        raise SearchError(
            f"module {module_name!r} has no attribute {attribute!r}"
        ) from None
    if not (isinstance(cls, type) and issubclass(cls, Optimizer)):
        raise SearchError(
            f"{name!r} does not name an Optimizer subclass"
        )
    return cls


__all__ = [
    "ATTEMPT_PARAM",
    "Checkpoint",
    "ExhaustiveSearch",
    "GreedySelector",
    "Move",
    "MoveKind",
    "Neighborhood",
    "OPTIMIZERS",
    "Optimizer",
    "OptimizerConfig",
    "ParallelSolveEngine",
    "ParticleSwarm",
    "PortfolioStats",
    "RandomSearch",
    "SearchResult",
    "SearchStats",
    "SimulatedAnnealing",
    "StochasticLocalSearch",
    "TabuSearch",
    "WorkerContext",
    "WorkerOutcome",
    "WorkerProgress",
    "WorkerSpec",
    "best_of",
    "default_tenure",
    "free_ids",
    "get_optimizer",
    "load_checkpoint",
    "parse_portfolio",
    "problem_fingerprint",
    "random_selection",
    "render_portfolio",
    "required_ids",
    "resolve_optimizer_class",
    "resolve_portfolio",
    "seeded_restarts",
    "write_checkpoint",
]
