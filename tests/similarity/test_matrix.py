"""Tests for NameSimilarityMatrix."""

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.similarity import NGramJaccard, NameSimilarityMatrix

NAMES = ("title", "titles", "book title", "isbn")


@pytest.fixture
def matrix():
    return NameSimilarityMatrix.build(NAMES, NGramJaccard(3))


class TestBuild:
    def test_agrees_with_measure_on_every_pair(self, matrix):
        measure = NGramJaccard(3)
        for a in NAMES:
            for b in NAMES:
                assert matrix(a, b) == pytest.approx(measure(a, b))

    def test_diagonal_is_one(self, matrix):
        assert np.allclose(np.diag(matrix.matrix), 1.0)

    def test_symmetric(self, matrix):
        assert np.allclose(matrix.matrix, matrix.matrix.T)

    def test_duplicate_names_deduplicated(self):
        matrix = NameSimilarityMatrix.build(
            ("a", "b", "a"), NGramJaccard(3)
        )
        assert len(matrix) == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            NameSimilarityMatrix(("a", "b"), np.eye(3))


class TestLookups:
    def test_name_id_roundtrip(self, matrix):
        for name in NAMES:
            assert matrix.names[matrix.name_id(name)] == name

    def test_unknown_name_raises(self, matrix):
        with pytest.raises(ReproError):
            matrix.name_id("publisher")

    def test_name_ids_vectorized(self, matrix):
        ids = matrix.name_ids(["isbn", "title"])
        assert ids.tolist() == [matrix.name_id("isbn"), matrix.name_id("title")]

    def test_block_shape(self, matrix):
        a = matrix.name_ids(["title", "titles"])
        b = matrix.name_ids(["isbn"])
        assert matrix.block(a, b).shape == (2, 1)

    def test_max_cross_is_single_linkage(self, matrix):
        a = matrix.name_ids(["title", "isbn"])
        b = matrix.name_ids(["titles"])
        expected = max(
            NGramJaccard(3)("title", "titles"),
            NGramJaccard(3)("isbn", "titles"),
        )
        assert matrix.max_cross(a, b) == pytest.approx(expected)

    def test_max_cross_empty_is_zero(self, matrix):
        empty = np.array([], dtype=np.int64)
        a = matrix.name_ids(["title"])
        assert matrix.max_cross(a, empty) == 0.0

