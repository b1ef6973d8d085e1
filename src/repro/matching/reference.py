"""Reference clustering: naive sequential agglomeration.

A deliberately simple O(rounds × n²) agglomerative clusterer used to
cross-check Algorithm 1 in tests and to ablate its linkage rule and round
structure in benchmarks.  It repeatedly merges the globally most similar
*valid* cluster pair with similarity ≥ θ, recomputing similarities after
every merge, until no such pair remains.  Production ``Match(S)`` uses
single linkage only (:mod:`repro.matching.greedy`); the other rules live
here for comparison.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core import AttributeRef, GlobalAttribute
from ..exceptions import ReproError
from ..similarity.matrix import NameSimilarityMatrix
from .cluster import Cluster

#: Supported cluster-pair linkage rules.  The paper uses single linkage
#: ("the similarity between two clusters [is] the maximum similarity between
#: an attribute from the first cluster and an attribute from the second").
LINKAGES = ("single", "complete", "average")


def cluster_similarity(
    a: Cluster,
    b: Cluster,
    matrix: NameSimilarityMatrix,
    linkage: str = "single",
) -> float:
    """Similarity between two clusters under the chosen linkage rule."""
    block = matrix.block(a.name_ids, b.name_ids)
    if linkage == "single":
        return float(block.max())
    if linkage == "complete":
        return float(block.min())
    if linkage == "average":
        return float(block.mean())
    raise ReproError(
        f"unknown linkage {linkage!r}; expected one of {LINKAGES}"
    )


def sequential_clustering(
    attributes: Sequence[AttributeRef],
    seeds: Sequence[GlobalAttribute],
    matrix: NameSimilarityMatrix,
    theta: float,
    linkage: str = "single",
) -> list[Cluster]:
    """Best-first agglomerative clustering under the GA validity constraint.

    Same contract as
    :func:`repro.matching.greedy.greedy_constrained_clustering`: returns all
    final clusters including singletons, each carrying its internal
    quality whatever the linkage rule.
    """
    clusters: list[Cluster] = [Cluster.from_ga(ga, matrix) for ga in seeds]
    clusters.extend(Cluster.singleton(attr, matrix) for attr in attributes)

    while True:
        best_sim = -1.0
        best_pair: tuple[int, int] | None = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if not clusters[i].can_merge(clusters[j]):
                    continue
                sim = cluster_similarity(
                    clusters[i], clusters[j], matrix, linkage
                )
                if sim >= theta and sim > best_sim:
                    best_sim = sim
                    best_pair = (i, j)
        if best_pair is None:
            return clusters
        i, j = best_pair
        # The carried quality needs the single-linkage cross maximum,
        # whichever rule chose the pair.
        merged = clusters[i].merged_with(
            clusters[j],
            matrix.max_cross(clusters[i].name_ids, clusters[j].name_ids),
        )
        clusters = [
            c for k, c in enumerate(clusters) if k not in (i, j)
        ]
        clusters.append(merged)
