"""Inverted-token blocking: sub-quadratic similarity-matrix construction.

A per-pair build (what :mod:`repro.similarity.matrix` runs for non-set
measures) evaluates the measure on all ``n(n-1)/2`` vocabulary pairs,
which caps universe size long before the paper's "Internet scale".  For the set-based measures
(:class:`~repro.similarity.measures.SetSimilarityMeasure` — the paper's
3-gram Jaccard among them) that work is almost entirely wasted: two names
that share *no* token score exactly ``0.0``, so only pairs sharing at
least one token can contribute a nonzero entry.

This module exploits that:

1. **Tokenize once.**  Every vocabulary name is tokenized a single time
   through :meth:`~repro.similarity.measures.SetSimilarityMeasure.grams`
   and its token set mapped to integer gram ids.
2. **Block by inverted index.**  Candidate pairs are exactly the pairs
   sharing >= 1 gram id — read off a gram→names inverted index (or,
   equivalently, the sparse gram-incidence product).  Pairs outside the
   candidate set are *provably* zero, so blocking is exact, not
   approximate: the blocked matrix is bit-identical to the per-pair
   build by construction (property-tested in tests/similarity/test_blocking.py).
3. **Score vectorized.**  Intersection sizes for the whole candidate set
   come out of one sparse matrix multiply (scipy when available, a pure
   numpy postings merge otherwise), and the measure's
   :meth:`~repro.similarity.measures.SetSimilarityMeasure.score_counts`
   turns them into similarities in one vectorized expression instead of
   one Python ``frozenset`` op per pair.

The two special cases the zero-default rule does not cover are handled
explicitly:

* names whose token set is **empty** after normalization score ``1.0``
  against each other (and ``0.0`` against everything else), matching the
  scalar measures' empty/empty convention;
* the diagonal is ``1.0`` by the self-similarity convention of the matrix
  builder, never computed.

Counters (see docs/observability.md): ``similarity.blocking.builds``,
``.names``, ``.candidate_pairs``, ``.pruned_pairs`` and the
``similarity.blocking.candidate_ratio`` gauge record how sub-quadratic a
build actually was.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..exceptions import ReproError
from ..telemetry import get_telemetry
from .measures import SetSimilarityMeasure

try:  # scipy is optional: the numpy postings path is always available.
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised via MUBE_BLOCKING_BACKEND
    _scipy_sparse = None

#: Environment override for the intersection backend, mostly for tests:
#: ``auto`` (default), ``scipy``, or ``numpy``.
BACKEND_ENV = "MUBE_BLOCKING_BACKEND"


def _backend() -> str:
    choice = os.environ.get(BACKEND_ENV, "auto")
    if choice not in ("auto", "scipy", "numpy"):
        raise ReproError(
            f"{BACKEND_ENV} must be auto, scipy or numpy, got {choice!r}"
        )
    if choice == "auto":
        return "scipy" if _scipy_sparse is not None else "numpy"
    if choice == "scipy" and _scipy_sparse is None:
        raise ReproError("scipy backend requested but scipy is unavailable")
    return choice


@dataclass(frozen=True, slots=True)
class BlockedScores:
    """Nonzero off-diagonal similarities of one (partial) vocabulary build.

    ``rows``/``cols``/``values`` list every candidate pair that scored
    nonzero, with ``rows[k] < cols[k]`` (upper triangle).  ``candidates``
    counts the pairs actually scored and ``total_pairs`` the all-pairs
    count the blocking avoided, so ``candidates / total_pairs`` is the
    sub-quadratic ratio the telemetry reports.
    """

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    candidates: int
    total_pairs: int

    @property
    def candidate_ratio(self) -> float:
        """Scored pairs as a fraction of all pairs (0 when trivial)."""
        if self.total_pairs <= 0:
            return 0.0
        return self.candidates / self.total_pairs


# -- tokenization -------------------------------------------------------------


class GramIndex:
    """Integer-encoded token sets of a vocabulary, tokenized exactly once.

    ``sets[i]`` is a sorted int64 array of gram ids for name ``i``; the
    gram→id assignment is first-appearance order, so the index is a pure
    function of the vocabulary sequence.
    """

    __slots__ = ("sets", "sizes", "vocabulary_size", "empty_rows")

    def __init__(self, gram_sets: Sequence[frozenset[str]]):
        gram_ids: dict[str, int] = {}
        sets: list[np.ndarray] = []
        for grams in gram_sets:
            ids = np.empty(len(grams), dtype=np.int64)
            for slot, gram in enumerate(sorted(grams)):
                gram_id = gram_ids.get(gram)
                if gram_id is None:
                    gram_id = len(gram_ids)
                    gram_ids[gram] = gram_id
                ids[slot] = gram_id
            ids.sort()
            sets.append(ids)
        self.sets = sets
        self.sizes = np.array([len(ids) for ids in sets], dtype=np.int64)
        self.vocabulary_size = len(gram_ids)
        self.empty_rows = np.nonzero(self.sizes == 0)[0]

    def __len__(self) -> int:
        return len(self.sets)


def build_gram_index(
    names: Sequence[str], measure: SetSimilarityMeasure
) -> GramIndex:
    """Tokenize a vocabulary once into a :class:`GramIndex`."""
    return GramIndex([measure.grams(name) for name in names])


# -- candidate generation + intersection sizes --------------------------------


def _incidence_arrays(index: GramIndex) -> tuple[np.ndarray, np.ndarray]:
    """(name row, gram id) pairs of the incidence matrix, row-major."""
    if not index.sets:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    rows = np.repeat(
        np.arange(len(index.sets), dtype=np.int64), index.sizes
    )
    cols = (
        np.concatenate(index.sets)
        if any(len(s) for s in index.sets)
        else np.empty(0, dtype=np.int64)
    )
    return rows, cols


def _intersections_scipy(
    index: GramIndex, row_limit: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs + intersection sizes via a sparse incidence product.

    With ``row_limit`` only pairs whose *column* index is ``>= row_limit``
    are returned (the extension case: at least one side is a fresh name).
    """
    rows, cols = _incidence_arrays(index)
    n = len(index)
    incidence = _scipy_sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)),
        shape=(n, max(index.vocabulary_size, 1)),
    )
    if row_limit is None:
        product = _scipy_sparse.triu(incidence @ incidence.T, k=1).tocoo()
        return (
            product.row.astype(np.int64),
            product.col.astype(np.int64),
            product.data.astype(np.int64),
        )
    fresh = incidence[row_limit:]
    product = (fresh @ incidence.T).tocoo()
    pair_rows = product.row.astype(np.int64) + row_limit
    pair_cols = product.col.astype(np.int64)
    keep = pair_cols < pair_rows
    return (
        pair_cols[keep],
        pair_rows[keep],
        product.data.astype(np.int64)[keep],
    )


def _intersections_numpy(
    index: GramIndex, row_limit: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pure-numpy fallback: per-gram postings → pair multiset → counts.

    A pair sharing ``k`` grams appears once in ``k`` postings, so the
    multiset of per-gram pairs, deduplicated with counts, *is* the
    candidate set with exact intersection sizes — the sorted-array merge
    of the docstring, amortized across the whole build.
    """
    rows, cols = _incidence_arrays(index)
    n = len(index)
    if not len(rows):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    order = np.argsort(cols, kind="stable")
    sorted_cols = cols[order]
    sorted_rows = rows[order]
    boundaries = np.nonzero(np.diff(sorted_cols))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(sorted_cols)]))
    keys: list[np.ndarray] = []
    for start, end in zip(starts, ends):
        posting = np.sort(sorted_rows[start:end])
        if len(posting) < 2:
            continue
        if row_limit is not None and posting[-1] < row_limit:
            continue
        left, right = np.triu_indices(len(posting), k=1)
        i, j = posting[left], posting[right]
        if row_limit is not None:
            keep = j >= row_limit
            i, j = i[keep], j[keep]
        keys.append(i * np.int64(n) + j)
    if not keys:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    unique_keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    return (
        unique_keys // n,
        unique_keys % n,
        counts.astype(np.int64),
    )


def exact_candidates(
    index: GramIndex, row_limit: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, intersection sizes)`` of all gram-sharing pairs.

    ``rows < cols`` elementwise; with ``row_limit`` only pairs touching a
    name at or past that row are produced (the ``extended`` case).
    """
    if _backend() == "scipy":
        return _intersections_scipy(index, row_limit)
    return _intersections_numpy(index, row_limit)


# -- scoring ------------------------------------------------------------------


def _empty_pairs(
    index: GramIndex, row_limit: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """All-empty-token pairs, which score 1.0 by the measures' convention."""
    empties = index.empty_rows
    if len(empties) < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left, right = np.triu_indices(len(empties), k=1)
    rows, cols = empties[left], empties[right]
    if row_limit is not None:
        keep = cols >= row_limit
        rows, cols = rows[keep], cols[keep]
    return rows, cols


def blocked_scores(
    names: Sequence[str],
    measure: SetSimilarityMeasure,
    row_limit: int | None = None,
) -> BlockedScores:
    """Every nonzero off-diagonal similarity of a vocabulary, blocked.

    The workhorse behind the blocked
    :meth:`~repro.similarity.matrix.NameSimilarityMatrix.build` and
    :meth:`~repro.similarity.matrix.NameSimilarityMatrix.extended`
    paths.  With ``row_limit`` only pairs touching a name at or past that
    row are scored (the rest are already known to the caller).
    """
    telemetry = get_telemetry()
    index = build_gram_index(names, measure)
    rows, cols, inter = exact_candidates(index, row_limit)
    values = np.asarray(
        measure.score_counts(inter, index.sizes[rows], index.sizes[cols]),
        dtype=np.float64,
    )
    empty_rows, empty_cols = _empty_pairs(index, row_limit)
    if len(empty_rows):
        rows = np.concatenate((rows, empty_rows))
        cols = np.concatenate((cols, empty_cols))
        values = np.concatenate(
            (values, np.ones(len(empty_rows), dtype=np.float64))
        )
    n = len(index)
    if row_limit is None:
        total = n * (n - 1) // 2
    else:
        fresh = n - row_limit
        total = fresh * row_limit + fresh * (fresh - 1) // 2
    candidates = int(len(values))
    pruned = max(total - candidates, 0)
    metrics = telemetry.metrics
    metrics.counter("similarity.blocking.builds").inc()
    metrics.counter("similarity.blocking.names").inc(n)
    metrics.counter("similarity.blocking.candidate_pairs").inc(candidates)
    metrics.counter("similarity.blocking.pruned_pairs").inc(pruned)
    if total:
        metrics.gauge("similarity.blocking.candidate_ratio").set(
            candidates / total
        )
    return BlockedScores(
        rows=rows,
        cols=cols,
        values=values,
        candidates=candidates,
        total_pairs=total,
    )


__all__ = [
    "BACKEND_ENV",
    "BlockedScores",
    "GramIndex",
    "blocked_scores",
    "build_gram_index",
    "exact_candidates",
]
