"""The no-op telemetry must stay out of the hot path's way.

A full solve with telemetry enabled (live tracer, in-memory exporter)
must finish within 1.5x the wall-clock of the same solve under the no-op
default.  The bound is deliberately generous — CI machines are noisy —
while still catching a regression that puts real work (allocation, I/O,
formatting) on the disabled path or makes spans pathologically expensive.
"""

import time

import pytest

from repro.core import Problem, default_weights
from repro.quality import Objective
from repro.run_context import run_scope
from repro.search import OptimizerConfig, TabuSearch
from repro.telemetry import InMemoryExporter, Telemetry
from repro.workload import DataConfig, generate_books_universe

#: Enabled-mode budget relative to disabled mode.
MAX_OVERHEAD_RATIO = 1.5


def run_solve() -> None:
    universe = generate_books_universe(
        n_sources=30, seed=11, data_config=DataConfig.tiny()
    ).universe
    problem = Problem(
        universe=universe, weights=default_weights([]), max_sources=6
    )
    objective = Objective(problem)
    config = OptimizerConfig(max_iterations=10, seed=0, sample_size=10)
    TabuSearch(config).optimize(objective)


def best_of_runs(repeats: int = 3) -> float:
    """Minimum wall-clock over several runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_solve()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.overhead
def test_enabled_telemetry_stays_within_overhead_budget():
    run_solve()  # warm imports, workload caches, numpy

    disabled = best_of_runs()
    telemetry = Telemetry(exporters=[InMemoryExporter()])
    with run_scope(telemetry=telemetry):
        enabled = best_of_runs()

    assert enabled <= disabled * MAX_OVERHEAD_RATIO, (
        f"telemetry overhead {enabled / disabled:.2f}x exceeds "
        f"{MAX_OVERHEAD_RATIO}x budget "
        f"(disabled {disabled:.4f}s, enabled {enabled:.4f}s)"
    )
