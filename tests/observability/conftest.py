"""Shared fixtures for the run-observatory suite.

Mirrors the resilience suite's setup: the same tiny problem, the same
small-but-real optimizer budget, and ``MUBE_TEST_START_METHOD`` pinning
the multiprocessing start method when CI exercises fork and spawn
separately.
"""

import os

import pytest

from repro.search import OptimizerConfig
from repro.testing import faulty_spec

from ..search.test_optimizers import tiny_problem

CONFIG = OptimizerConfig(max_iterations=12, patience=10, seed=3)


def faulted_portfolio(specs, plan):
    return tuple(
        faulty_spec(index, spec, plan) for index, spec in enumerate(specs)
    )


@pytest.fixture(scope="session")
def start_method():
    """The pinned multiprocessing start method, or None for the default."""
    return os.environ.get("MUBE_TEST_START_METHOD") or None


@pytest.fixture()
def problem():
    return tiny_problem()
