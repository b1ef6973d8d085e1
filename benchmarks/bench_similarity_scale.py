"""Similarity-matrix construction at scale: blocked vs dense.

The blocked build (inverted 3-gram index + vectorized Jaccard) must
be bit-identical to the dense all-pairs build (the per-pair loop,
reached through :class:`~repro.testing.PerPairMeasure`) while scaling sub-
quadratically — this bench measures both claims at growing vocabulary
sizes and emits ``BENCH_similarity.json`` (a ``mube-metrics`` document)
with the 2000-name build times and the counter-verified candidate-pair
ratio, which CI asserts on.

The matrix is a dense ``float64`` array, ``8 n²`` bytes for ``n`` names:
0.5 GB at 8000 names and 3.2 GB at 20000.  Past ``COMPARE_SIZE`` the bench
therefore times the blocked scoring (:func:`~repro.similarity.blocking.
blocked_scores`) alone, under ``blocked_scores_seconds_<n>``, and never
allocates the matrix.

The synthetic vocabulary mixes correlated names (compounds of a shared
word pool, the way real source schemas repeat ``title``/``price``/...)
with unrelated random names, so the gram index has both dense blocks and
vast empty space — the regime the blocking exists for.
"""

from __future__ import annotations

import json
import string
import time
from pathlib import Path

import numpy as np
import pytest

from repro.run_context import run_scope
from repro.similarity import NameSimilarityMatrix, default_measure
from repro.similarity.blocking import blocked_scores
from repro.telemetry import InMemoryExporter, Telemetry
from repro.testing import PerPairMeasure

from common import bench_scale

SCALE = bench_scale()

#: Vocabulary sizes per scale.  Every scale includes 2000 — the
#: acceptance scale for the ≥5x speedup and <0.5 candidate-ratio gates —
#: so BENCH_similarity.json always carries the gated metrics.
SIZES = {
    "smoke": (500, 2000),
    "default": (500, 2000, 8000),
    "paper": (500, 2000, 8000, 20000),
}[SCALE.name]

#: The one size where the quadratic dense build also runs for the
#: bit-identity check and the speedup ratio.
COMPARE_SIZE = 2000
MIN_SPEEDUP = 5.0
MAX_CANDIDATE_RATIO = 0.5

WORDS = (
    "title", "author", "isbn", "price", "publisher", "year", "genre",
    "pages", "format", "language", "rating", "stock", "edition",
    "binding", "weight", "series",
)

#: Metrics accumulated by the tests and flushed to BENCH_similarity.json
#: by the session fixture below: ``_METRICS`` holds the measurements
#: (seconds, ratios; lower is better), ``_INFO`` the derived speedup.
_METRICS: dict[str, float] = {}
_INFO: dict[str, float] = {}


def vocabulary(size: int, seed: int = 0) -> list[str]:
    """``size`` unique attribute-like names, ~30% correlated compounds."""
    rng = np.random.default_rng(seed)
    letters = np.array(list(string.ascii_lowercase))
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < size:
        if rng.random() < 0.3:
            k = int(rng.integers(1, 4))
            picks = rng.choice(len(WORDS), size=k, replace=False)
            name = "_".join(WORDS[j] for j in picks)
            if rng.random() < 0.7:
                name = f"{name}_{int(rng.integers(0, 10 * size))}"
        else:
            length = int(rng.integers(5, 11))
            name = "".join(rng.choice(letters, size=length))
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def timed_build(names, measure=None, build=NameSimilarityMatrix.build):
    """(result, seconds, telemetry) of one instrumented ``build`` call."""
    telemetry = Telemetry(exporters=[InMemoryExporter()])
    with run_scope(telemetry=telemetry):
        started = time.perf_counter()
        result = build(names, measure or default_measure())
        elapsed = time.perf_counter() - started
    telemetry.close()
    return result, elapsed, telemetry


@pytest.fixture(scope="session", autouse=True)
def emit_metrics_doc(request):
    """Write BENCH_similarity.json next to the pytest-benchmark report."""
    yield
    if not _METRICS:
        return
    report = request.config.getoption("benchmark_json", None)
    out_dir = (
        Path(report.name).resolve().parent
        if report is not None
        else Path(__file__).resolve().parent
    )
    document = {
        "kind": "mube-metrics",
        "scale": SCALE.name,
        "metrics": dict(sorted(_METRICS.items())),
        "info": dict(sorted(_INFO.items())),
    }
    (out_dir / "BENCH_similarity.json").write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


@pytest.mark.parametrize("size", SIZES)
def test_blocked_build_scaling(benchmark, size):
    """Blocked build time and candidate ratio across vocabulary sizes.

    Past ``COMPARE_SIZE`` only the blocked scoring runs, so the dense
    matrix is never allocated (see the module docstring).
    """
    names = vocabulary(size, seed=size)
    full = size <= COMPARE_SIZE
    build = NameSimilarityMatrix.build if full else blocked_scores

    def run():
        return timed_build(names, build=build)

    _, elapsed, telemetry = benchmark.pedantic(run, rounds=1, iterations=1)
    metrics = telemetry.metrics
    ratio = metrics.gauge_value("similarity.blocking.candidate_ratio")
    candidates = metrics.counter_value("similarity.blocking.candidate_pairs")
    timed = "blocked_build" if full else "blocked_scores"
    benchmark.group = "similarity: blocked build"
    benchmark.extra_info["vocabulary"] = size
    benchmark.extra_info["candidate_ratio"] = round(ratio, 6)
    benchmark.extra_info["candidate_pairs"] = candidates
    benchmark.extra_info["timed"] = timed
    _METRICS[f"{timed}_seconds_{size}"] = round(elapsed, 6)
    _METRICS[f"candidate_ratio_{size}"] = round(ratio, 6)
    print(
        f"[similarity] n={size}: {timed} {elapsed:.3f}s, "
        f"{candidates} candidates (ratio {ratio:.4f})"
    )
    assert metrics.counter_value("similarity.blocking.names") == size


def test_blocked_vs_dense_at_acceptance_scale(benchmark):
    """At 2000 names: bit-identical to dense, ≥5x faster, ratio < 0.5."""
    names = vocabulary(COMPARE_SIZE, seed=COMPARE_SIZE)

    def run():
        blocked, blocked_s, telemetry = timed_build(names)
        dense, dense_s, _ = timed_build(
            names, PerPairMeasure(default_measure())
        )
        return blocked, dense, blocked_s, dense_s, telemetry

    blocked, dense, blocked_s, dense_s, telemetry = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    np.testing.assert_array_equal(blocked.matrix, dense.matrix)
    ratio = telemetry.metrics.gauge_value("similarity.blocking.candidate_ratio")
    speedup = dense_s / max(blocked_s, 1e-9)
    benchmark.group = "similarity: blocked vs dense"
    benchmark.extra_info["blocked_seconds"] = round(blocked_s, 4)
    benchmark.extra_info["dense_seconds"] = round(dense_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["candidate_ratio"] = round(ratio, 6)
    _METRICS["compare_blocked_seconds"] = round(blocked_s, 6)
    _METRICS["compare_dense_seconds"] = round(dense_s, 6)
    _INFO["compare_speedup"] = round(speedup, 2)
    print(
        f"[similarity] n={COMPARE_SIZE}: blocked {blocked_s:.3f}s vs "
        f"dense {dense_s:.3f}s (x{speedup:.1f}), ratio {ratio:.4f}, "
        f"bit-identical"
    )
    assert speedup >= MIN_SPEEDUP
    assert ratio < MAX_CANDIDATE_RATIO
