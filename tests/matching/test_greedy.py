"""Tests for the greedy constrained clustering (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import AttributeRef, GlobalAttribute
from repro.matching import greedy_constrained_clustering, sequential_clustering
from repro.similarity import NGramJaccard, NameSimilarityMatrix


def custom_matrix(names, pairs):
    """A similarity matrix with explicit off-diagonal values."""
    size = len(names)
    matrix = np.eye(size)
    index = {name: i for i, name in enumerate(names)}
    for (a, b), value in pairs.items():
        matrix[index[a], index[b]] = value
        matrix[index[b], index[a]] = value
    return NameSimilarityMatrix(names, matrix, measure_name="custom")


def attrs_of(clusters):
    return sorted(
        (a.source_id, a.index, a.name) for c in clusters for a in c.attrs
    )


def partition_of(clusters):
    return {
        frozenset((a.source_id, a.index) for a in c.attrs) for c in clusters
    }


class TestBasicClustering:
    def test_empty_input(self):
        matrix = NameSimilarityMatrix.build(("a",), NGramJaccard(3))
        assert greedy_constrained_clustering((), (), matrix, 0.65) == []

    def test_single_attribute_passthrough(self):
        matrix = NameSimilarityMatrix.build(("a",), NGramJaccard(3))
        attr = AttributeRef(0, 0, "a")
        (cluster,) = greedy_constrained_clustering((attr,), (), matrix, 0.65)
        assert cluster.attrs == (attr,)
        assert not cluster.keep
        assert cluster.quality == 0.0

    def test_identical_names_merge(self):
        matrix = NameSimilarityMatrix.build(
            ("title", "isbn"), NGramJaccard(3)
        )
        attributes = [
            AttributeRef(0, 0, "title"),
            AttributeRef(1, 0, "title"),
            AttributeRef(2, 0, "isbn"),
        ]
        clusters = greedy_constrained_clustering(
            attributes, (), matrix, theta=0.65
        )
        partition = partition_of(clusters)
        assert frozenset({(0, 0), (1, 0)}) in partition
        assert frozenset({(2, 0)}) in partition

    def test_nothing_merges_below_threshold(self):
        matrix = custom_matrix(("a", "b"), {("a", "b"): 0.5})
        attributes = [AttributeRef(0, 0, "a"), AttributeRef(1, 0, "b")]
        clusters = greedy_constrained_clustering(
            attributes, (), matrix, theta=0.65
        )
        assert all(len(c) == 1 for c in clusters)

    def test_attributes_partitioned_exactly(self):
        matrix = NameSimilarityMatrix.build(
            ("title", "titles", "isbn"), NGramJaccard(3)
        )
        attributes = [
            AttributeRef(s, i, n)
            for s, i, n in [
                (0, 0, "title"),
                (0, 1, "isbn"),
                (1, 0, "titles"),
                (2, 0, "isbn"),
            ]
        ]
        clusters = greedy_constrained_clustering(
            attributes, (), matrix, theta=0.65
        )
        assert attrs_of(clusters) == sorted(
            (a.source_id, a.index, a.name) for a in attributes
        )

    def test_validity_blocks_same_source_merge(self):
        # Two identical names in ONE source must stay apart.
        matrix = NameSimilarityMatrix.build(("keyword",), NGramJaccard(3))
        attributes = [
            AttributeRef(0, 0, "keyword"),
            AttributeRef(0, 1, "keyword"),
            AttributeRef(1, 0, "keyword"),
        ]
        clusters = greedy_constrained_clustering(
            attributes, (), matrix, theta=0.65
        )
        for cluster in clusters:
            sources = [a.source_id for a in cluster.attrs]
            assert len(sources) == len(set(sources))
        # One of the source-0 attributes pairs with source 1.
        assert max(len(c) for c in clusters) == 2

    def test_transitive_chain_merges_fully(self):
        # a~b at 0.9, b~c at 0.8 but a~c at 0.1: single linkage chains.
        matrix = custom_matrix(
            ("a", "b", "c"),
            {("a", "b"): 0.9, ("b", "c"): 0.8, ("a", "c"): 0.1},
        )
        attributes = [
            AttributeRef(0, 0, "a"),
            AttributeRef(1, 0, "b"),
            AttributeRef(2, 0, "c"),
        ]
        clusters = greedy_constrained_clustering(
            attributes, (), matrix, theta=0.65
        )
        assert partition_of(clusters) == {
            frozenset({(0, 0), (1, 0), (2, 0)})
        }

    def test_both_merged_pairs_trigger_extra_round(self):
        # Round 1 merges (a,b) and (c,d); the (b,c) pair pops with both
        # sides consumed.  The published pseudocode would stop; the fix
        # schedules another round that merges the two unions.
        matrix = custom_matrix(
            ("a", "b", "c", "d"),
            {("a", "b"): 0.9, ("c", "d"): 0.85, ("b", "c"): 0.7},
        )
        attributes = [
            AttributeRef(i, 0, n) for i, n in enumerate("abcd")
        ]
        clusters = greedy_constrained_clustering(
            attributes, (), matrix, theta=0.65
        )
        assert partition_of(clusters) == {
            frozenset({(0, 0), (1, 0), (2, 0), (3, 0)})
        }

    def test_merge_candidate_survives_to_next_round(self):
        # b's best partner a merges with someone else first; b must get a
        # second chance (Algorithm 1 lines 15-19).
        matrix = custom_matrix(
            ("a", "a2", "b"),
            {("a", "a2"): 0.95, ("a", "b"): 0.7},
        )
        attributes = [
            AttributeRef(0, 0, "a"),
            AttributeRef(1, 0, "a2"),
            AttributeRef(2, 0, "b"),
        ]
        clusters = greedy_constrained_clustering(
            attributes, (), matrix, theta=0.65
        )
        assert partition_of(clusters) == {
            frozenset({(0, 0), (1, 0), (2, 0)})
        }


class TestSeeds:
    def test_seed_preserved_despite_low_similarity(self):
        # The user GA constraint survives although its members are
        # completely dissimilar (paper: no θ restriction on G).
        matrix = custom_matrix(("f name", "prenom"), {})
        seed = GlobalAttribute(
            [AttributeRef(0, 0, "f name"), AttributeRef(1, 0, "prenom")]
        )
        clusters = greedy_constrained_clustering(
            (), (seed,), matrix, theta=0.65
        )
        assert len(clusters) == 1
        assert clusters[0].keep
        assert len(clusters[0]) == 2

    def test_bridging_effect(self):
        # Figure 3(d)-(f): the constraint bridges the semantic gap, and
        # attributes similar to either side keep joining the cluster.
        matrix = custom_matrix(
            ("f name", "prenom", "first name", "prenom 2"),
            {
                ("f name", "first name"): 0.8,
                ("prenom", "prenom 2"): 0.9,
                # Everything else is dissimilar.
            },
        )
        seed = GlobalAttribute(
            [AttributeRef(0, 0, "f name"), AttributeRef(1, 0, "prenom")]
        )
        attributes = [
            AttributeRef(2, 0, "first name"),
            AttributeRef(3, 0, "prenom 2"),
        ]
        clusters = greedy_constrained_clustering(
            attributes, (seed,), matrix, theta=0.65
        )
        assert len(clusters) == 1
        assert len(clusters[0]) == 4
        assert clusters[0].keep

    def test_seed_never_eliminated(self):
        # A keep cluster with no partners at all must survive pruning.
        matrix = custom_matrix(("x", "y", "p", "q"), {("p", "q"): 0.9})
        seed = GlobalAttribute(
            [AttributeRef(0, 0, "x"), AttributeRef(1, 0, "y")]
        )
        attributes = [AttributeRef(2, 0, "p"), AttributeRef(3, 0, "q")]
        clusters = greedy_constrained_clustering(
            attributes, (seed,), matrix, theta=0.65
        )
        keeps = [c for c in clusters if c.keep]
        assert len(keeps) == 1
        assert len(keeps[0]) == 2

    def test_two_seeds_can_merge_together(self):
        matrix = custom_matrix(("a", "b", "c", "d"), {("b", "c"): 0.9})
        seeds = (
            GlobalAttribute(
                [AttributeRef(0, 0, "a"), AttributeRef(1, 0, "b")]
            ),
            GlobalAttribute(
                [AttributeRef(2, 0, "c"), AttributeRef(3, 0, "d")]
            ),
        )
        clusters = greedy_constrained_clustering(
            (), seeds, matrix, theta=0.65
        )
        assert len(clusters) == 1
        assert len(clusters[0]) == 4


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_same_invariants_as_sequential_reference(self, seed):
        rng = np.random.default_rng(seed)
        vocabulary = (
            "title", "titles", "book title", "author", "authors",
            "isbn", "isbn number", "keyword", "keywords", "price",
        )
        matrix = NameSimilarityMatrix.build(vocabulary, NGramJaccard(3))
        attributes = []
        for source_id in range(6):
            names = rng.choice(
                len(vocabulary), size=4, replace=False
            )
            for index, name_id in enumerate(names):
                attributes.append(
                    AttributeRef(source_id, index, vocabulary[name_id])
                )
        theta = 0.65
        for algorithm in (
            greedy_constrained_clustering,
            sequential_clustering,
        ):
            clusters = algorithm(attributes, (), matrix, theta)
            # Partition property.
            assert attrs_of(clusters) == sorted(
                (a.source_id, a.index, a.name) for a in attributes
            )
            for cluster in clusters:
                # Validity.
                sources = [a.source_id for a in cluster.attrs]
                assert len(sources) == len(set(sources))
                # θ respected: multi-attribute clusters contain at least
                # one pair at or above the threshold.
                if len(cluster) >= 2:
                    assert cluster.internal_quality(matrix) >= theta

    def test_deterministic(self):
        matrix = NameSimilarityMatrix.build(
            ("title", "titles", "isbn"), NGramJaccard(3)
        )
        attributes = [
            AttributeRef(0, 0, "title"),
            AttributeRef(1, 0, "titles"),
            AttributeRef(2, 0, "isbn"),
        ]
        first = greedy_constrained_clustering(attributes, (), matrix, 0.65)
        second = greedy_constrained_clustering(attributes, (), matrix, 0.65)
        assert partition_of(first) == partition_of(second)
