"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the impact of choices the
paper fixes silently: the single-linkage rule, the similarity measure,
the matching threshold, and the redundancy normalization.
"""

from __future__ import annotations

import pytest

from repro.core import default_weights
from repro.matching import LINKAGES, MatchOperator, sequential_clustering
from repro.quality import Objective, RedundancyQEF, RedundancyRatioQEF
from repro.search import OptimizerConfig, TabuSearch
from repro.similarity import get_measure

from common import MTTF_SPEC, bench_scale, build_problem, cached_workload

SCALE = bench_scale()


def selection_of_size(workload, size, seed=0):
    import numpy as np

    rng = np.random.default_rng(seed)
    ids = sorted(workload.universe.source_ids)
    return frozenset(
        ids[i] for i in rng.choice(len(ids), size=size, replace=False)
    )


@pytest.mark.parametrize("linkage", LINKAGES)
def test_ablation_linkage(benchmark, linkage):
    """Cluster-pair similarity rule (paper uses single linkage).

    Production ``Match(S)`` is single linkage only, so the rules are
    compared on the reference clusterer, over the inputs the operator
    would cluster and with its β filter.
    """
    workload = cached_workload(SCALE.fig6_universe_size)
    selection = selection_of_size(workload, SCALE.fig5_choose)
    operator = MatchOperator(workload.universe, theta=0.65)

    def run():
        clusters = sequential_clustering(
            operator._free_attributes(selection),
            operator.seeds,
            operator.matrix,
            operator.theta,
            linkage=linkage,
        )
        return [
            c for c in clusters if c.keep or len(c) >= operator.beta
        ]

    kept = benchmark.pedantic(run, rounds=1, iterations=1)
    quality = (
        sum(c.internal_quality(operator.matrix) for c in kept) / len(kept)
        if kept
        else 0.0
    )
    sizes = sorted((len(c) for c in kept), reverse=True)
    benchmark.group = "ablation: linkage"
    benchmark.extra_info["linkage"] = linkage
    benchmark.extra_info["gas"] = len(kept)
    benchmark.extra_info["quality"] = round(quality, 4)
    print(
        f"[ablation/linkage] {linkage:<9} GAs={len(kept):>3} "
        f"F1={quality:.4f} sizes={sizes[:6]}"
    )


@pytest.mark.parametrize(
    "measure_name",
    ["3gram_jaccard", "3gram_dice", "2gram_jaccard", "levenshtein", "exact"],
)
def test_ablation_similarity_measure(benchmark, measure_name):
    """Swap the pairwise measure under the same threshold."""
    workload = cached_workload(SCALE.fig6_universe_size)
    selection = selection_of_size(workload, SCALE.fig5_choose)

    def run():
        operator = MatchOperator(
            workload.universe,
            theta=0.65,
            similarity=get_measure(measure_name),
        )
        return operator.match(selection)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "ablation: similarity measure"
    benchmark.extra_info["measure"] = measure_name
    benchmark.extra_info["gas"] = len(result.schema)
    benchmark.extra_info["quality"] = round(result.quality, 4)
    print(
        f"[ablation/measure] {measure_name:<14} "
        f"GAs={len(result.schema):>3} F1={result.quality:.4f}"
    )


@pytest.mark.parametrize(
    "variant", ["normalized", "ratio"], ids=["normalized", "ratio"]
)
def test_ablation_redundancy_formula(benchmark, variant):
    """The DESIGN.md §2 redundancy reconstruction vs the simple ratio."""
    workload = cached_workload(SCALE.fig6_universe_size)
    problem = build_problem(workload, SCALE.fig5_choose, "none")
    if variant == "ratio":
        weights = default_weights([MTTF_SPEC])
        weights["redundancy_ratio"] = weights.pop("redundancy")
        problem = problem.evolve(
            weights=weights, custom_qefs=(RedundancyRatioQEF(),)
        )

    def run():
        objective = Objective(problem)
        config = OptimizerConfig(
            max_iterations=SCALE.iterations,
            sample_size=SCALE.sample_size,
            seed=0,
        )
        return TabuSearch(config).optimize(objective)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    solution = result.solution
    key = "redundancy" if variant == "normalized" else "redundancy_ratio"
    benchmark.group = "ablation: redundancy formula"
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["quality"] = round(solution.quality, 4)
    print(
        f"[ablation/redundancy] {variant:<10} Q={solution.quality:.4f} "
        f"F4={solution.qef_scores.get(key, float('nan')):.4f} "
        f"sources={sorted(solution.selected)[:8]}..."
    )


@pytest.mark.parametrize("theta", [0.4, 0.5, 0.65, 0.8, 0.95])
def test_ablation_matching_threshold(benchmark, theta):
    """θ sweep: the precision/recall trade-off behind the paper's 0.65.

    Low θ merges sloppily (risking false GAs and noise GAs), high θ only
    accepts near-identical names (fragmenting concepts).  The default
    0.65 sits where false GAs stay at zero while variants still merge.
    """
    from repro.workload import score_schema

    workload = cached_workload(SCALE.fig6_universe_size)
    selection = selection_of_size(workload, SCALE.fig5_choose)

    def run():
        operator = MatchOperator(workload.universe, theta=theta)
        return operator.match(selection)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report = score_schema(
        result.schema,
        workload.ground_truth,
        workload.universe,
        selection,
    )
    benchmark.group = "ablation: theta"
    benchmark.extra_info.update(
        {
            "theta": theta,
            "concepts": report.true_ga_concepts,
            "attrs": report.attributes_in_true_gas,
            "false_gas": report.false_gas,
            "noise_gas": report.noise_gas,
        }
    )
    print(
        f"[ablation/theta] θ={theta:<5} GAs={len(result.schema):>3} "
        f"concepts={report.true_ga_concepts:>2} "
        f"attrs={report.attributes_in_true_gas:>3} "
        f"false={report.false_gas} noise={report.noise_gas} "
        f"missed={report.missed}"
    )


def test_ablation_qef_score_spread(benchmark):
    """Direct comparison of the two redundancy QEFs on the same selections."""
    workload = cached_workload(SCALE.fig6_universe_size)
    normalized = RedundancyQEF()
    ratio = RedundancyRatioQEF()

    def run():
        rows = []
        for seed in range(5):
            selection = selection_of_size(workload, SCALE.fig5_choose, seed)
            sources = workload.universe.select(selection)
            rows.append((normalized(sources), ratio(sources)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.group = "ablation: redundancy formula"
    for normalized_score, ratio_score in rows:
        print(
            f"[ablation/redundancy] normalized={normalized_score:.4f} "
            f"ratio={ratio_score:.4f}"
        )
        # The normalized variant always spreads scores at least as wide.
        assert normalized_score <= ratio_score + 1e-9


def test_ablation_pcsa_vs_exact_selection(benchmark):
    """What does sketch error cost µBE?  (§7.3's implicit claim.)

    The selected *sets* can differ — the quality landscape has many
    near-optima, so tiny estimate perturbations flip the argmax — but the
    claim that matters is that the PCSA-guided solution loses (almost) no
    quality when judged by the *exact* objective.
    """
    from repro.workload import DataConfig, generate_books_universe

    workload = generate_books_universe(
        n_sources=60,
        seed=9,
        data_config=DataConfig(
            pool_size=50_000, min_cardinality=200, max_cardinality=5_000
        ),
        keep_tuples=True,
    )
    problem = build_problem_over(workload.universe)

    def run():
        solutions = {}
        for tag, exact in (("pcsa", False), ("exact", True)):
            objective = Objective(problem, exact_data_metrics=exact)
            config = OptimizerConfig(
                max_iterations=SCALE.iterations,
                sample_size=SCALE.sample_size,
                seed=0,
            )
            solutions[tag] = (
                TabuSearch(config).optimize(objective).solution
            )
        # Judge both selections under the exact objective.
        judge = Objective(problem, exact_data_metrics=True)
        return {
            tag: judge.evaluate(solution.selected)
            for tag, solution in solutions.items()
        }

    judged = benchmark.pedantic(run, rounds=1, iterations=1)
    gap = judged["exact"].quality - judged["pcsa"].quality
    agreement = len(
        judged["pcsa"].selected & judged["exact"].selected
    ) / len(judged["exact"].selected)
    benchmark.group = "ablation: pcsa vs exact"
    benchmark.extra_info["exact_quality_gap"] = round(gap, 4)
    benchmark.extra_info["source_agreement"] = round(agreement, 3)
    print(
        f"[ablation/pcsa-exact] exact-judged Q: "
        f"pcsa={judged['pcsa'].quality:.4f} "
        f"exact={judged['exact'].quality:.4f} "
        f"(gap {gap:+.4f}, source agreement {agreement:.0%})"
    )
    # The sketch may cost a little quality, never a lot.
    assert gap <= 0.05


def build_problem_over(universe):
    from repro.core import Problem, default_weights

    return Problem(
        universe=universe,
        weights=default_weights(),
        max_sources=8,
    )
