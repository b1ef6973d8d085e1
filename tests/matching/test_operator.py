"""Tests for MatchOperator — Match(S, C, G)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import AttributeRef, GlobalAttribute
from repro.exceptions import ConstraintError
from repro.matching import MatchOperator, coalesce_ga_constraints

from ..conftest import make_universe


@pytest.fixture
def universe():
    return make_universe(
        ("title", "author"),          # 0
        ("title", "authors"),         # 1
        ("book title", "isbn"),       # 2
        ("mileage", "horsepower"),    # 3: matches nothing
    )


class TestBasicMatching:
    def test_identical_names_form_ga(self, universe):
        operator = MatchOperator(universe, theta=0.65, beta=2)
        result = operator.match({0, 1})
        assert not result.is_null
        names = {ga.names() for ga in result.schema}
        assert ("title", "title") in names
        assert ("author", "authors") in names

    def test_quality_is_mean_over_gas(self, universe):
        operator = MatchOperator(universe, theta=0.65, beta=2)
        result = operator.match({0, 1})
        per_ga = [operator.ga_quality(ga) for ga in result.schema]
        assert result.quality == math.fsum(per_ga) / len(per_ga)

    def test_quality_does_not_depend_on_the_string_hash_seed(self):
        # The schema's GAs sit in a frozenset whose iteration order
        # follows the string-hash seed; a plain running sum over it gave
        # this selection 0.9583333333333333 under one seed and
        # 0.9583333333333334 under another.
        script = (
            "from repro.matching import MatchOperator\n"
            "from repro.workload import generate_books_universe\n"
            "u = generate_books_universe(n_sources=40, seed=3).universe\n"
            "print(repr(MatchOperator(u).match({1, 2, 17, 28, 37}).quality))"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = set()
        for hash_seed in ("0", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join(
                    filter(None, (src, os.environ.get("PYTHONPATH")))
                ),
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(done.stdout.strip())
        assert len(outputs) == 1

    def test_theta_bounds_discovered_ga_quality(self, universe):
        # Every non-seed GA carries a pair at or above θ by construction.
        operator = MatchOperator(universe, theta=0.65, beta=2)
        result = operator.match({0, 1, 2})
        for ga in result.schema:
            assert operator.ga_quality(ga) >= 0.65

    def test_beta_filters_small_clusters(self, universe):
        strict = MatchOperator(universe, theta=0.65, beta=3)
        result = strict.match({0, 1, 2})
        # No concept spans three sources here above θ, so nothing survives.
        assert all(len(ga) >= 3 for ga in result.schema)

    def test_unmatched_source_reported_unspanned(self, universe):
        operator = MatchOperator(universe, theta=0.65, beta=2)
        result = operator.match({0, 1, 3})
        assert not result.is_null  # only *constrained* sources force NULL
        assert 3 in result.unspanned_source_ids

    def test_empty_schema_scores_zero(self, universe):
        operator = MatchOperator(universe, theta=0.65, beta=2)
        result = operator.match({2, 3})
        assert result.quality == 0.0
        assert len(result.schema) == 0


class TestSourceConstraints:
    def test_selection_missing_constraint_is_null(self, universe):
        operator = MatchOperator(
            universe, source_constraints={0}, theta=0.65
        )
        result = operator.match({1, 2})
        assert result.is_null
        assert result.quality == 0.0
        assert any("omits" in reason for reason in result.reasons)

    def test_constrained_source_must_be_spanned(self, universe):
        # Source 3 matches nothing, so a matching valid on C={3} does not
        # exist: Algorithm 1 returns NULL.
        operator = MatchOperator(
            universe, source_constraints={3}, theta=0.65
        )
        result = operator.match({0, 1, 3})
        assert result.is_null
        assert 3 in result.unspanned_source_ids

    def test_satisfied_constraint_passes(self, universe):
        operator = MatchOperator(
            universe, source_constraints={0}, theta=0.65
        )
        result = operator.match({0, 1})
        assert not result.is_null


class TestGAConstraints:
    def test_seed_appears_in_output(self, universe):
        seed = GlobalAttribute(
            [
                universe.source(0).attribute_named("author"),
                universe.source(2).attribute_named("isbn"),
            ]
        )
        operator = MatchOperator(universe, ga_constraints=(seed,), theta=0.65)
        result = operator.match({0, 1, 2})
        assert not result.is_null
        assert result.schema.subsumes_gas([seed])

    def test_ga_constraint_implies_source_requirement(self, universe):
        seed = GlobalAttribute(
            [
                universe.source(0).attribute_named("author"),
                universe.source(2).attribute_named("isbn"),
            ]
        )
        operator = MatchOperator(universe, ga_constraints=(seed,), theta=0.65)
        result = operator.match({0, 1})  # source 2 missing
        assert result.is_null

    def test_seed_grows_via_bridging(self, universe):
        # "author" and "isbn" are dissimilar, but "authors" joins through
        # its similarity to "author" (Matching By Example).
        seed = GlobalAttribute(
            [
                universe.source(0).attribute_named("author"),
                universe.source(2).attribute_named("isbn"),
            ]
        )
        operator = MatchOperator(universe, ga_constraints=(seed,), theta=0.65)
        result = operator.match({0, 1, 2})
        grown = next(
            ga for ga in result.schema
            if universe.source(0).attribute_named("author") in ga
        )
        assert universe.source(1).attribute_named("authors") in grown
        assert len(grown) == 3


class TestConstraintCoalescing:
    def test_overlapping_constraints_become_one_seed(self, universe):
        a0 = universe.source(0).attribute_named("author")
        a1 = universe.source(1).attribute_named("authors")
        a2 = universe.source(2).attribute_named("isbn")
        seeds = coalesce_ga_constraints(
            (GlobalAttribute([a0, a1]), GlobalAttribute([a1, a2]))
        )
        assert len(seeds) == 1
        assert set(seeds[0]) == {a0, a1, a2}

    def test_disjoint_constraints_stay_separate(self, universe):
        a0 = universe.source(0).attribute_named("author")
        a2 = universe.source(2).attribute_named("isbn")
        seeds = coalesce_ga_constraints(
            (GlobalAttribute([a0]), GlobalAttribute([a2]))
        )
        assert len(seeds) == 2

    def test_contradictory_constraints_rejected(self):
        shared = AttributeRef(1, 0, "x")
        first = GlobalAttribute([AttributeRef(0, 0, "a"), shared])
        second = GlobalAttribute([shared, AttributeRef(0, 1, "b")])
        with pytest.raises(ConstraintError):
            coalesce_ga_constraints((first, second))


class TestMemoization:
    def test_repeated_match_hits_cache(self, universe):
        operator = MatchOperator(universe, theta=0.65)
        first = operator.match({0, 1})
        second = operator.match({0, 1})
        assert first is second
        assert operator.cache_info()["entries"] == 1

    def test_different_selections_cached_separately(self, universe):
        operator = MatchOperator(universe, theta=0.65)
        operator.match({0, 1})
        operator.match({0, 2})
        assert operator.cache_info()["entries"] == 2
