"""Cross-cutting edge behaviours not owned by a single module's test file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Problem, Universe, default_weights
from repro.quality import Objective
from repro.quality.data_metrics import estimated_distinct
from repro.workload import SourceSearchEngine

from .conftest import make_source, make_universe


class TestDiscoveryRanking:
    def test_rare_tokens_outrank_common_ones(self):
        # Ten sources mention "title"; one mentions "zymurgy".  A source
        # matching the rare token must outrank one matching the common.
        schemas = [("title",)] * 10 + [("zymurgy",)]
        universe = make_universe(*schemas)
        engine = SourceSearchEngine(universe)
        hits = engine.search("title zymurgy", limit=None)
        assert hits[0].source_id == 10

    def test_term_frequency_counts(self):
        universe = make_universe(("keyword", "keyword two"), ("keyword",))
        engine = SourceSearchEngine(universe)
        hits = engine.search("keyword", limit=None)
        # Source 0 mentions the token twice.
        assert hits[0].source_id == 0


class TestEstimatedDistinctBounds:
    @given(
        sizes=st.lists(st.integers(50, 500), min_size=1, max_size=4),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_estimate_within_feasible_range(self, sizes, seed):
        rng = np.random.default_rng(seed)
        sources = []
        for i, size in enumerate(sizes):
            start = int(rng.integers(0, 1_000))
            sources.append(
                make_source(
                    i, ("a",), tuple_ids=np.arange(start, start + size)
                )
            )
        estimate = estimated_distinct(sources)
        largest = max(s.cardinality for s in sources)
        total = sum(s.cardinality for s in sources)
        assert largest <= estimate <= total


class TestObjectiveEdges:
    def test_universe_property(self):
        universe = make_universe(("title",), ("title",))
        problem = Problem(
            universe=universe, weights=default_weights(), max_sources=2
        )
        assert Objective(problem).universe is universe

    def test_solution_is_frozen_against_later_evaluations(self):
        universe = make_universe(("title",), ("title",), ("titles",))
        problem = Problem(
            universe=universe, weights=default_weights(), max_sources=3
        )
        objective = Objective(problem)
        first = objective.evaluate({0, 1})
        objective.evaluate({0, 2})
        assert first.selected == frozenset({0, 1})
        assert first == objective.evaluate({0, 1})


class TestRenderHistoryInfeasible:
    def test_history_renders_infeasible_iterations(self):
        from repro.search import OptimizerConfig
        from repro.session import Session, render_history

        # Constrained source matches nothing: every solve is infeasible.
        universe = make_universe(("title",), ("title",), ("zzzz",))
        session = Session(
            universe,
            max_sources=3,
            optimizer_config=OptimizerConfig(max_iterations=5, seed=0),
        )
        session.require_source(2)
        session.solve()
        text = render_history(session.history)
        assert "iter 0" in text


class TestUniverseOfOneSourcePerDomainEdge:
    def test_single_source_catalog(self):
        from repro.workload import DataConfig, build_catalog

        catalog = build_catalog(
            domains=("books",), sources_per_domain=1,
            data_config=DataConfig.tiny(),
        )
        assert len(catalog.universe) == 1
        assert catalog.domain_of[0] == "books"
