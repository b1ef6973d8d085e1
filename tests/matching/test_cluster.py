"""Tests for Cluster and the reference linkage rules."""

import numpy as np
import pytest

from repro.core import AttributeRef, GlobalAttribute
from repro.exceptions import ReproError
from repro.matching import Cluster, cluster_similarity
from repro.similarity import NGramJaccard, NameSimilarityMatrix

NAMES = ("title", "titles", "book title", "isbn")


@pytest.fixture
def matrix():
    return NameSimilarityMatrix.build(NAMES, NGramJaccard(3))


def make_cluster(matrix, *pairs):
    attrs = [AttributeRef(sid, 0, name) for sid, name in pairs]
    return Cluster(
        attrs, matrix.name_ids(a.name for a in attrs)
    )


class TestCluster:
    def test_singleton(self, matrix):
        attr = AttributeRef(0, 0, "title")
        cluster = Cluster.singleton(attr, matrix)
        assert len(cluster) == 1
        assert cluster.source_ids == frozenset({0})
        assert not cluster.keep

    def test_from_ga_sets_keep(self, matrix):
        ga = GlobalAttribute(
            [AttributeRef(0, 0, "title"), AttributeRef(1, 0, "isbn")]
        )
        cluster = Cluster.from_ga(ga, matrix)
        assert cluster.keep
        assert len(cluster) == 2

    def test_same_source_rejected(self, matrix):
        with pytest.raises(ReproError):
            make_cluster(matrix, (0, "title"), (0, "isbn"))

    def test_can_merge_requires_disjoint_sources(self, matrix):
        a = make_cluster(matrix, (0, "title"))
        b = make_cluster(matrix, (1, "titles"))
        c = make_cluster(matrix, (0, "isbn"))
        assert a.can_merge(b)
        assert not a.can_merge(c)

    def test_merged_with_combines_and_keeps_flag(self, matrix):
        ga = GlobalAttribute([AttributeRef(0, 0, "title")])
        keeper = Cluster.from_ga(ga, matrix)
        other = make_cluster(matrix, (1, "titles"))
        cross = matrix.max_cross(keeper.name_ids, other.name_ids)
        merged = keeper.merged_with(other, cross)
        assert merged.keep
        assert len(merged) == 2
        assert merged.quality == cross == merged.internal_quality(matrix)

    def test_singleton_and_seed_qualities(self, matrix):
        assert (
            Cluster.singleton(AttributeRef(0, 0, "title"), matrix).quality
            == 0.0
        )
        seed = Cluster.from_ga(
            GlobalAttribute(
                [AttributeRef(0, 0, "title"), AttributeRef(1, 0, "isbn")]
            ),
            matrix,
        )
        assert seed.quality == seed.internal_quality(matrix)

    def test_to_ga_roundtrip(self, matrix):
        cluster = make_cluster(matrix, (0, "title"), (1, "titles"))
        ga = cluster.to_ga()
        assert {a.name for a in ga} == {"title", "titles"}

    def test_internal_quality_singleton_is_zero(self, matrix):
        assert (
            Cluster.singleton(AttributeRef(0, 0, "title"), matrix)
            .internal_quality(matrix)
            == 0.0
        )

    def test_internal_quality_is_max_pair(self, matrix):
        # Paper: quality within a cluster = max pairwise similarity.
        cluster = make_cluster(
            matrix, (0, "title"), (1, "titles"), (2, "isbn")
        )
        expected = NGramJaccard(3)("title", "titles")
        assert cluster.internal_quality(matrix) == pytest.approx(expected)


class TestLinkage:
    def test_single_linkage_is_max(self, matrix):
        a = make_cluster(matrix, (0, "title"), (1, "isbn"))
        b = make_cluster(matrix, (2, "titles"))
        measure = NGramJaccard(3)
        expected = max(measure("title", "titles"), measure("isbn", "titles"))
        assert cluster_similarity(a, b, matrix, "single") == pytest.approx(
            expected
        )

    def test_complete_linkage_is_min(self, matrix):
        a = make_cluster(matrix, (0, "title"), (1, "isbn"))
        b = make_cluster(matrix, (2, "titles"))
        measure = NGramJaccard(3)
        expected = min(measure("title", "titles"), measure("isbn", "titles"))
        assert cluster_similarity(a, b, matrix, "complete") == pytest.approx(
            expected
        )

    def test_average_linkage_is_mean(self, matrix):
        a = make_cluster(matrix, (0, "title"), (1, "isbn"))
        b = make_cluster(matrix, (2, "titles"))
        measure = NGramJaccard(3)
        expected = (
            measure("title", "titles") + measure("isbn", "titles")
        ) / 2
        assert cluster_similarity(a, b, matrix, "average") == pytest.approx(
            expected
        )

    def test_unknown_linkage_rejected(self, matrix):
        a = make_cluster(matrix, (0, "title"))
        b = make_cluster(matrix, (1, "titles"))
        with pytest.raises(ReproError):
            cluster_similarity(a, b, matrix, "centroid")
