"""Fixtures for the solve-service tests."""

from __future__ import annotations

import pytest

from repro.serve import ResidentUniverse, ServeApp
from repro.workload import theater_universe


@pytest.fixture(scope="session")
def resident():
    """One resident theater universe shared by the whole module.

    Sharing across tests is deliberate: the resident artifacts are
    read-only by design, so if any test could corrupt them for a later
    one, that is exactly the bug this suite exists to catch.
    """
    return ResidentUniverse("theater:0", theater_universe(0))


@pytest.fixture
def app(resident, tmp_path):
    with ServeApp(
        {resident.name: resident},
        job_dir=tmp_path / "jobs",
    ) as served:
        yield served
