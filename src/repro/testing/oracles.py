"""Reference oracles for the bit-identity contracts."""

from __future__ import annotations

from ..similarity.measures import SetSimilarityMeasure, SimilarityMeasure


class PerPairMeasure(SimilarityMeasure):
    """A set-based measure seen as a plain (non-set) pair function.

    :meth:`~repro.similarity.NameSimilarityMatrix.build` picks its path
    from the measure type, so wrapping a set-based measure here yields
    the per-pair all-pairs matrix the blocked build must equal bit for
    bit.  Each name is tokenized once and every pair scored through the
    scalar :meth:`~repro.similarity.SetSimilarityMeasure.score_sets`,
    which is what ``measure(a, b)`` computes.
    """

    def __init__(self, measure: SetSimilarityMeasure):
        self.measure = measure
        self.name = measure.name
        self._grams: dict[str, frozenset[str]] = {}

    def _tokens(self, name: str) -> frozenset[str]:
        grams = self._grams.get(name)
        if grams is None:
            grams = self._grams[name] = self.measure.grams(name)
        return grams

    def __call__(self, a: str, b: str) -> float:
        return self.measure.score_sets(self._tokens(a), self._tokens(b))
