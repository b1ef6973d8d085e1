"""Pairwise attribute-name similarity measures.

µBE treats the similarity measure as a pluggable building block: any
function mapping a pair of attribute names to [0, 1] can drive the
clustering algorithm (paper §3).  The prototype's default is
:class:`NGramJaccard` with ``n = 3``; several alternatives are provided for
ablation, all registered by name in :data:`MEASURES`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..exceptions import ReproError
from .ngram import ngrams, normalize_name, word_tokens


class SimilarityMeasure(ABC):
    """A symmetric similarity on attribute names, with values in [0, 1]."""

    #: Registry key and display name; subclasses set this.
    name: str = "abstract"

    @abstractmethod
    def __call__(self, a: str, b: str) -> float:
        """Similarity of the two names; must be symmetric and in [0, 1]."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SetSimilarityMeasure(SimilarityMeasure):
    """A measure that is a pure function of two token *sets*.

    Every set-based measure factors as ``score_sets(grams(a), grams(b))``,
    which is what makes two optimizations possible without approximation:

    * **Tokenize once.**  A matrix build tokenizes each vocabulary name a
      single time through :meth:`grams` instead of re-tokenizing both
      names inside every pair call.
    * **Exact blocking.**  All the concrete measures score a pair with an
      empty intersection as exactly ``0.0`` (and a pair of two *empty*
      token sets as exactly ``1.0``), so candidate pairs can be generated
      from an inverted token index and the untouched pairs written as
      zeros — bit-identical to the all-pairs build, not an approximation.
      :mod:`repro.similarity.blocking` builds on this contract.

    Subclasses implement :meth:`grams` and :meth:`score_counts`; the
    scalar :meth:`score_sets` (and with it ``__call__``) is derived, so
    the blocked and per-pair paths can never drift apart.
    """

    @abstractmethod
    def grams(self, name: str) -> frozenset[str]:
        """The token set of one name (tokenized exactly once per name)."""

    @abstractmethod
    def score_counts(
        self, intersection: np.ndarray, size_a: np.ndarray, size_b: np.ndarray
    ) -> np.ndarray:
        """Vectorized scores from intersection and set sizes.

        Only ever called with both sizes >= 1; the arithmetic must mirror
        :meth:`score_sets` operation for operation so float64 results are
        bit-identical to the scalar path.
        """

    def score_sets(self, a: frozenset[str], b: frozenset[str]) -> float:
        """Scalar score of two pre-tokenized sets."""
        if not a and not b:
            return 1.0
        if not a or not b:
            return 0.0
        intersection = len(a & b)
        if intersection == 0:
            return 0.0
        return float(
            self.score_counts(
                np.int64(intersection), np.int64(len(a)), np.int64(len(b))
            )
        )

    def __call__(self, a: str, b: str) -> float:
        return self.score_sets(self.grams(a), self.grams(b))


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    if intersection == 0:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)


class _NGramMeasure(SetSimilarityMeasure):
    """Shared n-gram plumbing for the character-gram measures."""

    def __init__(self, n: int = 3):
        if n < 1:
            raise ReproError(f"n must be >= 1, got {n}")
        self.n = n

    def grams(self, name: str) -> frozenset[str]:
        return ngrams(name, self.n)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class NGramJaccard(_NGramMeasure):
    """Jaccard coefficient over character n-grams (the paper's measure)."""

    def __init__(self, n: int = 3):
        super().__init__(n)
        self.name = f"{n}gram_jaccard"

    def score_counts(self, intersection, size_a, size_b):
        return intersection / (size_a + size_b - intersection)


class NGramDice(_NGramMeasure):
    """Dice coefficient over character n-grams: 2|A∩B| / (|A| + |B|)."""

    def __init__(self, n: int = 3):
        super().__init__(n)
        self.name = f"{n}gram_dice"

    def score_counts(self, intersection, size_a, size_b):
        return 2.0 * intersection / (size_a + size_b)


class NGramOverlap(_NGramMeasure):
    """Overlap coefficient over n-grams: |A∩B| / min(|A|, |B|).

    Generous to substrings — ``"title"`` vs ``"book title"`` scores 1.0 —
    which makes it a useful ablation point for over-merging behaviour.
    """

    def __init__(self, n: int = 3):
        super().__init__(n)
        self.name = f"{n}gram_overlap"

    def score_counts(self, intersection, size_a, size_b):
        return intersection / np.minimum(size_a, size_b)


class NGramCosine(_NGramMeasure):
    """Cosine similarity over binary n-gram incidence vectors."""

    def __init__(self, n: int = 3):
        super().__init__(n)
        self.name = f"{n}gram_cosine"

    def score_counts(self, intersection, size_a, size_b):
        return intersection / np.sqrt(size_a * size_b)


class TokenJaccard(SetSimilarityMeasure):
    """Jaccard coefficient over whole word tokens."""

    name = "token_jaccard"

    def grams(self, name: str) -> frozenset[str]:
        return word_tokens(name)

    def score_counts(self, intersection, size_a, size_b):
        return intersection / (size_a + size_b - intersection)


class LevenshteinSimilarity(SimilarityMeasure):
    """1 − (edit distance / max length) on normalized names."""

    name = "levenshtein"

    def __call__(self, a: str, b: str) -> float:
        a, b = normalize_name(a), normalize_name(b)
        if a == b:
            return 1.0
        if not a or not b:
            return 0.0
        return 1.0 - levenshtein_distance(a, b) / max(len(a), len(b))


class ExactMatch(SimilarityMeasure):
    """1.0 iff the normalized names are identical, else 0.0."""

    name = "exact"

    def __call__(self, a: str, b: str) -> float:
        return 1.0 if normalize_name(a) == normalize_name(b) else 0.0


def levenshtein_distance(a: str, b: str) -> int:
    """Classic dynamic-programming Levenshtein edit distance."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def _register() -> dict[str, SimilarityMeasure]:
    instances = [
        NGramJaccard(3),
        NGramJaccard(2),
        NGramDice(3),
        NGramOverlap(3),
        NGramCosine(3),
        TokenJaccard(),
        LevenshteinSimilarity(),
        ExactMatch(),
    ]
    return {m.name: m for m in instances}


_INSTANCES = _register()


def available_measures() -> tuple[str, ...]:
    """Sorted names of all registered measures."""
    return tuple(sorted(_INSTANCES))


def get_measure(name: str) -> SimilarityMeasure:
    """Look a measure up by its registry name.

    Raises
    ------
    ReproError
        If the name is unknown.
    """
    try:
        return _INSTANCES[name]
    except KeyError:
        raise ReproError(
            f"unknown similarity measure {name!r}; "
            f"available: {', '.join(available_measures())}"
        ) from None


def default_measure() -> SimilarityMeasure:
    """The paper's default: Jaccard over 3-grams."""
    return _INSTANCES["3gram_jaccard"]
