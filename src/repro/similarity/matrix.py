"""Precomputed name-pair similarity matrices.

The optimizer evaluates the matching QEF thousands of times per run, and
each evaluation clusters a fresh attribute set.  Because the *vocabulary* of
distinct attribute names in a universe is small (hundreds) even when the
number of attributes is large (thousands), precomputing the full
vocabulary-by-vocabulary similarity matrix once per universe makes every
later lookup an O(1) array read and lets the clustering algorithm gather
whole cluster-pair blocks with numpy fancy indexing.

The build path follows from the measure type:

* **Blocked** (set-based measures — the paper's 3-gram Jaccard included):
  candidate pairs come from an inverted gram index and are scored
  vectorized (:mod:`repro.similarity.blocking`), so construction cost
  scales with the pairs that can be nonzero instead of all ``n²`` — and is
  bit-identical to an all-pairs build, because a pair sharing no gram
  scores exactly zero.
* **Per-pair** (every other measure — Levenshtein, hybrid, instance):
  the classic upper-triangle loop calling ``measure(a, b)`` once per pair.

The matrix is always a dense ``float64`` ndarray, ``8 n²`` bytes for ``n``
names: about 0.2 MB for the shipped vocabularies, which saturate near
165 names.  Nothing writes to it after the build, so portfolio workers
share it copy-on-write under ``fork`` and receive it in the one context
pickle under ``spawn``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence, Sized

import numpy as np

from ..exceptions import ReproError
from ..telemetry import get_telemetry
from .blocking import BlockedScores, blocked_scores
from .measures import SetSimilarityMeasure, SimilarityMeasure


class NameSimilarityMatrix:
    """Symmetric similarity matrix over a fixed name vocabulary."""

    __slots__ = ("names", "_index", "matrix", "measure_name")

    def __init__(
        self,
        names: Sequence[str],
        matrix: np.ndarray,
        measure_name: str = "custom",
    ):
        if matrix.shape != (len(names), len(names)):
            raise ReproError(
                f"matrix shape {matrix.shape} does not match vocabulary "
                f"size {len(names)}"
            )
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) != len(self.names):
            raise ReproError("vocabulary names must be unique")
        self.matrix = matrix
        self.measure_name = measure_name

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        names: Iterable[str],
        measure: SimilarityMeasure,
    ) -> "NameSimilarityMatrix":
        """Compute the full matrix for a vocabulary under a measure.

        The measure is assumed symmetric with self-similarity 1.0; only
        the upper triangle is computed.  Set-based measures take the
        blocked sub-quadratic path, every other measure the per-pair
        loop.
        """
        telemetry = get_telemetry()
        vocabulary = tuple(dict.fromkeys(names))
        size = len(vocabulary)
        with telemetry.span(
            "similarity.matrix_build", vocabulary=size, measure=measure.name
        ):
            matrix = np.eye(size, dtype=np.float64)
            if isinstance(measure, SetSimilarityMeasure):
                _scatter(matrix, blocked_scores(vocabulary, measure))
            else:
                for i in range(size):
                    for j in range(i + 1, size):
                        value = measure(vocabulary[i], vocabulary[j])
                        matrix[i, j] = value
                        matrix[j, i] = value
            result = cls(vocabulary, matrix, measure_name=measure.name)
        telemetry.metrics.gauge("similarity.vocabulary_size").set(size)
        return result

    def extended(
        self,
        names: Iterable[str],
        measure: SimilarityMeasure,
    ) -> "NameSimilarityMatrix":
        """A matrix over this vocabulary plus ``names``, reusing this block.

        Only the new rows/columns are computed — for set-based measures
        through the same blocked candidate generation as :meth:`build`
        (restricted to pairs touching a fresh name), otherwise O(new ×
        total) measure calls instead of the O(total²) of a cold build —
        which is what makes adding a source to a large universe cheap.
        Values are identical to a cold build over the union vocabulary
        (the measure is a pure pair function), but the new names are
        *appended* rather than re-sorted, so existing name ids stay valid
        for any cached clustering state.  Names already in the vocabulary
        are ignored; with nothing new to add, ``self`` is returned
        unchanged.
        """
        fresh = tuple(
            name for name in dict.fromkeys(names) if name not in self._index
        )
        if not fresh:
            return self
        telemetry = get_telemetry()
        old = len(self.names)
        size = old + len(fresh)
        vocabulary = self.names + fresh
        with telemetry.span(
            "similarity.matrix_extend", vocabulary=size,
            added=len(fresh), measure=self.measure_name,
        ):
            matrix = np.eye(size, dtype=np.float64)
            matrix[:old, :old] = self.matrix
            if isinstance(measure, SetSimilarityMeasure):
                _scatter(
                    matrix, blocked_scores(vocabulary, measure, row_limit=old)
                )
            else:
                for i in range(old, size):
                    for j in range(i):
                        value = measure(vocabulary[i], vocabulary[j])
                        matrix[i, j] = value
                        matrix[j, i] = value
            result = NameSimilarityMatrix(
                vocabulary, matrix, measure_name=self.measure_name
            )
        telemetry.metrics.gauge("similarity.vocabulary_size").set(size)
        return result

    # -- reads ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        """The row/column index of a vocabulary name.

        Raises
        ------
        ReproError
            If the name is not in the vocabulary.
        """
        try:
            return self._index[name]
        except KeyError:
            raise ReproError(
                f"name {name!r} is not in the similarity vocabulary"
            ) from None

    def name_ids(self, names: Iterable[str]) -> np.ndarray:
        """Vectorized :meth:`name_id` returning an int64 array.

        Sized inputs pass ``count`` to :func:`numpy.fromiter`, so the
        output is allocated once instead of through the growth-
        reallocation path — this is a hot call during clustering.
        """
        if isinstance(names, Sized):
            return np.fromiter(
                (self.name_id(n) for n in names),
                dtype=np.int64,
                count=len(names),
            )
        return np.fromiter(
            (self.name_id(n) for n in names), dtype=np.int64
        )

    def pair(self, a_id: int, b_id: int) -> float:
        """Similarity of two vocabulary ids."""
        return float(self.matrix[a_id, b_id])

    def block(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """The |A|×|B| sub-matrix of similarities between two id sets."""
        return self.matrix[np.ix_(a_ids, b_ids)]

    def max_cross(self, a_ids: np.ndarray, b_ids: np.ndarray) -> float:
        """Single-linkage similarity: max over all cross pairs."""
        if len(a_ids) == 0 or len(b_ids) == 0:
            return 0.0
        return float(self.block(a_ids, b_ids).max())

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle names, matrix and measure; the name index is derived.

        Built matrices ship to portfolio worker processes so the O(vocab²)
        measure evaluation runs once per solve, not once per worker.
        """
        return {
            "names": self.names,
            "matrix": self.matrix,
            "measure_name": self.measure_name,
        }

    def __setstate__(self, state: dict) -> None:
        # Re-run construction to rebuild the name→index map and keep
        # unpickled matrices under the same invariants as fresh ones.
        self.__init__(
            state["names"], state["matrix"], state["measure_name"]
        )

    # -- misc ----------------------------------------------------------------

    def __call__(self, a: str, b: str) -> float:
        """Measure-compatible call interface on raw names."""
        return self.pair(self.name_id(a), self.name_id(b))

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __repr__(self) -> str:
        return (
            f"NameSimilarityMatrix({len(self.names)} names, "
            f"measure={self.measure_name!r})"
        )


def _scatter(matrix: np.ndarray, scores: BlockedScores) -> None:
    """Write blocked upper-triangle scores into both triangles."""
    matrix[scores.rows, scores.cols] = scores.values
    matrix[scores.cols, scores.rows] = scores.values
