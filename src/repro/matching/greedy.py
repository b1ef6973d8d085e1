"""Greedy constrained similarity clustering (Algorithm 1 of the paper).

The algorithm proceeds in rounds.  Each round collects every pair of active
clusters whose similarity reaches the matching threshold θ into a priority
queue and pops pairs in descending similarity.  A popped pair merges if
neither side has merged this round and the union is a valid GA.  If exactly
one side has already merged, the other is kept for the next round (it is a
*merge candidate*).  At the end of a round, clusters that neither merged nor
were merge candidates — and are not user-GA seeds (``keep``) — are
*eliminated*: under single linkage their similarity to every other cluster
is below θ and can never rise, so they are frozen into the output.  The
algorithm stops when a round makes no progress.

One deviation from the published pseudocode, noted in DESIGN.md: when a
popped pair finds *both* sides already merged this round, the pseudocode
does nothing, which can terminate the loop while the two union clusters are
still mergeable.  We schedule another round in that case (``done = False``),
matching the paper's prose ("the algorithm terminates when it cannot find
any more pairs of clusters to merge").
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence

import numpy as np

from ..core import AttributeRef, GlobalAttribute
from ..explain.events import (
    ClusterEliminated,
    MergeDeferred,
    PairMerged,
    SeedPlanted,
    attr_key,
    cluster_members,
    get_event_log,
)
from ..similarity.matrix import NameSimilarityMatrix
from ..telemetry import get_telemetry
from .cluster import Cluster


def greedy_constrained_clustering(
    attributes: Sequence[AttributeRef],
    seeds: Sequence[GlobalAttribute],
    matrix: NameSimilarityMatrix,
    theta: float,
) -> list[Cluster]:
    """Cluster attributes into candidate GAs.

    Parameters
    ----------
    attributes:
        The free attributes (not covered by any seed) of the selected
        sources.
    seeds:
        Coalesced user GA constraints; each becomes a ``keep`` cluster that
        is never eliminated and may keep growing (the *bridging effect*).
    matrix:
        Precomputed name-pair similarities covering every attribute name.
    theta:
        The matching threshold θ.

    Returns
    -------
    list[Cluster]
        All final clusters, including singletons, each carrying its
        internal quality.  Callers filter by the minimum GA size β.
    """
    log = get_event_log()
    explain = log.enabled
    active: dict[int, Cluster] = {}
    ids = itertools.count()
    for seed_index, ga in enumerate(seeds):
        cluster = Cluster.from_ga(ga, matrix)
        active[next(ids)] = cluster
        if explain:
            log.emit(
                SeedPlanted(
                    seed_index=seed_index, members=cluster_members(cluster)
                )
            )
    for attr in attributes:
        active[next(ids)] = Cluster.singleton(attr, matrix)
    finished: list[Cluster] = []
    rounds = 0
    merges = 0
    eliminated = 0

    while True:
        rounds += 1
        done = True
        heap = _similar_pairs(active, matrix, theta)
        merged_away: set[int] = set()
        # Clusters made or deferred this round; the rest are eliminated.
        survivors: set[int] = set()
        while heap:
            neg_sim, _, id_a, id_b = heapq.heappop(heap)
            a_merged = id_a in merged_away
            b_merged = id_b in merged_away
            if a_merged and b_merged:
                # Both partners merged with other clusters this round; their
                # unions may still be mergeable, so run another round.
                done = False
                continue
            if a_merged or b_merged:
                # The losing side survives to the next round.
                survivor = id_b if a_merged else id_a
                survivors.add(survivor)
                done = False
                if explain:
                    log.emit(
                        MergeDeferred(
                            round=rounds,
                            similarity=-neg_sim,
                            members=cluster_members(active[survivor]),
                        )
                    )
                continue
            cluster_a, cluster_b = active[id_a], active[id_b]
            if not cluster_a.can_merge(cluster_b):
                # Invalid union (two attributes from one source): skip.
                continue
            merged_away.add(id_a)
            merged_away.add(id_b)
            merges += 1
            new_id = next(ids)
            active[new_id] = cluster_a.merged_with(cluster_b, -neg_sim)
            survivors.add(new_id)
            if explain:
                pair_a, pair_b = _best_pair(cluster_a, cluster_b, matrix)
                log.emit(
                    PairMerged(
                        round=rounds,
                        similarity=-neg_sim,
                        left=cluster_members(cluster_a),
                        right=cluster_members(cluster_b),
                        pair_a=pair_a,
                        pair_b=pair_b,
                        seeded=cluster_a.keep or cluster_b.keep,
                    )
                )
        for cluster_id in merged_away:
            del active[cluster_id]
        for cluster_id in list(active):
            cluster = active[cluster_id]
            if cluster.keep or cluster_id in survivors:
                continue
            finished.append(cluster)
            del active[cluster_id]
            eliminated += 1
            if explain:
                log.emit(
                    ClusterEliminated(
                        round=rounds, members=cluster_members(cluster)
                    )
                )
        if done:
            break

    metrics = get_telemetry().metrics
    metrics.counter("match.clustering.rounds").inc(rounds)
    metrics.counter("match.clustering.merges").inc(merges)
    metrics.counter("match.clustering.pruned").inc(eliminated)

    finished.extend(active.values())
    return finished


def _best_pair(
    cluster_a: Cluster, cluster_b: Cluster, matrix: NameSimilarityMatrix
):
    """The max-similarity attribute pair across two clusters.

    Under single linkage this is the pair whose similarity *is* the
    cluster-pair similarity — the pair that justifies the merge.  Only
    called when the decision-event log is live.
    """
    block = matrix.block(cluster_a.name_ids, cluster_b.name_ids)
    row, col = np.unravel_index(int(np.argmax(block)), block.shape)
    return attr_key(cluster_a.attrs[row]), attr_key(cluster_b.attrs[col])


def _similar_pairs(
    active: dict[int, Cluster],
    matrix: NameSimilarityMatrix,
    theta: float,
) -> list[tuple[float, int, int, int]]:
    """Heap of ``(-similarity, tiebreak, id_a, id_b)`` for pairs ≥ θ.

    The tiebreak makes pop order deterministic when similarities are equal.
    One dense gather over all member attributes followed by two
    ``np.maximum`` segment reductions yields the whole single-linkage
    cluster-pair similarity matrix.
    """
    items = sorted(active.items())
    if len(items) < 2:
        return []
    cluster_ids = [cid for cid, _ in items]
    sizes = [len(c.name_ids) for _, c in items]
    name_ids = np.concatenate([c.name_ids for _, c in items])
    offsets = np.zeros(len(items), dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    block = matrix.block(name_ids, name_ids)
    rows_reduced = np.maximum.reduceat(block, offsets, axis=0)
    pair = np.maximum.reduceat(rows_reduced, offsets, axis=1)
    rows, cols = np.nonzero(np.triu(pair >= theta, k=1))
    entries = [
        (-sim, tiebreak, cluster_ids[row], cluster_ids[col])
        for tiebreak, (sim, row, col) in enumerate(
            zip(pair[rows, cols].tolist(), rows.tolist(), cols.tolist())
        )
    ]
    heapq.heapify(entries)
    return entries
