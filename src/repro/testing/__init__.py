"""Deterministic test instrumentation for the solve pipeline.

Everything in here is production-importable on purpose: the fault
injectors ride the ordinary :class:`~repro.search.parallel.WorkerSpec`
mechanism into worker processes (including ``spawn``-started ones), so
they must live in the installed package, not under ``tests/``.  The
per-pair similarity oracle lives here too, so the tests and the
benchmarks share one definition.
"""

from .faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    FaultyOptimizer,
    faulty_spec,
    seeded_faults,
)
from .oracles import PerPairMeasure

__all__ = [
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "FaultyOptimizer",
    "PerPairMeasure",
    "faulty_spec",
    "seeded_faults",
]
