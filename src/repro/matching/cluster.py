"""Working clusters for the constrained clustering algorithm.

A cluster is a growing candidate GA: a set of attributes from distinct
sources.  Clusters seeded from user GA constraints carry ``keep=True`` and
are never eliminated (Algorithm 1, line 3); all other clusters start as
singletons.  Each cluster carries its internal matching quality through
merges, so a clustering's F1 needs no second pass over its GAs.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..core import AttributeRef, GlobalAttribute
from ..exceptions import ReproError
from ..similarity.matrix import NameSimilarityMatrix

class Cluster:
    """A mutable-by-replacement candidate GA during clustering.

    ``quality`` carries :meth:`internal_quality` instead of recomputing
    it: 0.0 for a singleton, computed once for a seed, combined on merge.
    """

    __slots__ = ("attrs", "name_ids", "source_ids", "keep", "quality")

    def __init__(
        self,
        attrs: Iterable[AttributeRef],
        name_ids: np.ndarray,
        keep: bool = False,
        quality: float = 0.0,
    ):
        self.attrs = tuple(attrs)
        self.name_ids = name_ids
        self.source_ids = frozenset(a.source_id for a in self.attrs)
        if len(self.source_ids) != len(self.attrs):
            raise ReproError(
                "cluster would contain two attributes from one source"
            )
        self.keep = keep
        self.quality = quality

    @classmethod
    def singleton(
        cls, attr: AttributeRef, matrix: NameSimilarityMatrix
    ) -> "Cluster":
        """A one-attribute cluster."""
        return cls(
            (attr,),
            np.array([matrix.name_id(attr.name)], dtype=np.int64),
        )

    @classmethod
    def from_ga(
        cls, ga: GlobalAttribute, matrix: NameSimilarityMatrix
    ) -> "Cluster":
        """A keep-flagged cluster seeded from a user GA constraint."""
        attrs = tuple(sorted(ga.attributes, key=lambda a: (a.source_id, a.index)))
        cluster = cls(attrs, matrix.name_ids(a.name for a in attrs), keep=True)
        cluster.quality = cluster.internal_quality(matrix)
        return cluster

    def can_merge(self, other: "Cluster") -> bool:
        """Validity check: the union must have one attribute per source."""
        return self.source_ids.isdisjoint(other.source_ids)

    def merged_with(self, other: "Cluster", cross_max: float) -> "Cluster":
        """The union cluster; keep survives if either side had it.

        ``cross_max`` is the max similarity over cross pairs (the
        single-linkage similarity), so the union's quality is exact.
        """
        return Cluster(
            self.attrs + other.attrs,
            np.concatenate((self.name_ids, other.name_ids)),
            keep=self.keep or other.keep,
            quality=max(self.quality, other.quality, cross_max),
        )

    def to_ga(self) -> GlobalAttribute:
        """Freeze the cluster into a GA."""
        return GlobalAttribute(self.attrs)

    def internal_quality(self, matrix: NameSimilarityMatrix) -> float:
        """Quality of matching within the cluster.

        The paper defines this as the maximum similarity between any two
        member attributes; singletons score 0 (they express no matching).
        """
        if len(self.attrs) < 2:
            return 0.0
        block = matrix.block(self.name_ids, self.name_ids)
        # Ignore the diagonal (self similarity).
        masked = block - np.eye(len(self.name_ids)) * 2.0
        return float(masked.max())

    def __len__(self) -> int:
        return len(self.attrs)

    def __repr__(self) -> str:
        flag = ", keep" if self.keep else ""
        names = ", ".join(a.name for a in self.attrs[:4])
        suffix = ", ..." if len(self.attrs) > 4 else ""
        return f"Cluster([{names}{suffix}]{flag})"
