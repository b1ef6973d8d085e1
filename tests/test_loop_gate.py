"""The loopbench count gate (``benchmarks/loop_gate.py``) must be able to fail.

``compare`` is checked on hand-built result objects: an exact match
passes, and every kind of drift — a count, a share outside its band, a
missing workload or metric, a wrong or failed answer — fails with the
workload and the metric named.
"""

from __future__ import annotations

import json

import pytest

from tests.test_bench_discovery import load_bench_module

gate = load_bench_module("loop_gate.py")

UNITS = {
    "matching.misses": "count",
    "matching.memo_hit_ratio": "ratio",
    "matching.share": "ratio",
    "residual.share": "ratio",
    "matching.match_s": "s",
    "serve.payload_bytes": "bytes",
    "telemetry.trace_overhead": "ratio",
}
VALUES = {
    "matching.misses": 262.425,
    "matching.memo_hit_ratio": 0.024442379182156134,
    "matching.share": 0.91,
    "residual.share": 0.01,
    "matching.match_s": 0.27,
    "serve.payload_bytes": 942.11,
    "telemetry.trace_overhead": 1.01,
}


def result(changes=None, correct=True, failed=0):
    """A result object with ``changes`` over ``VALUES`` (None drops one)."""
    values = {**VALUES, **(changes or {})}
    return {
        "correct": correct,
        "attempted": 80,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
            if value is not None
        },
    }


@pytest.fixture
def baseline():
    return {"cold_solve": gate.compared_metrics(result())}


def failures_of(baseline, results):
    return gate.compare(baseline, results)[1]


class TestCompare:
    def test_exact_match_passes(self, baseline):
        lines, failures = gate.compare(baseline, {"cold_solve": result()})
        assert failures == []
        assert lines[0] == "cold_solve:"
        assert any("matching.misses" in line for line in lines)

    def test_wall_clock_and_unstable_metrics_are_not_compared(self, baseline):
        assert set(baseline["cold_solve"]) == {
            "matching.misses", "matching.memo_hit_ratio",
            "matching.share", "residual.share",
        }
        drifted = result({
            "matching.match_s": 9.0,
            "serve.payload_bytes": 1899.5,
            "telemetry.trace_overhead": 1.5,
        })
        assert failures_of(baseline, {"cold_solve": drifted}) == []

    def test_single_count_drift_fails_naming_workload_and_metric(
        self, baseline
    ):
        failures = failures_of(
            baseline, {"cold_solve": result({"matching.misses": 262.5})}
        )
        assert len(failures) == 1
        assert failures[0].startswith("cold_solve: matching.misses 262.5")

    def test_ratio_drift_in_the_last_bit_fails(self, baseline):
        drifted = result({"matching.memo_hit_ratio": 0.024442379182156137})
        failures = failures_of(baseline, {"cold_solve": drifted})
        assert len(failures) == 1
        assert "matching.memo_hit_ratio" in failures[0]

    def test_share_inside_the_band_passes(self, baseline):
        moved = result({"matching.share": 0.82, "residual.share": 0.1})
        assert failures_of(baseline, {"cold_solve": moved}) == []

    def test_share_outside_the_band_fails(self, baseline):
        failures = failures_of(
            baseline, {"cold_solve": result({"matching.share": 0.80})}
        )
        assert len(failures) == 1
        assert failures[0].startswith("cold_solve: matching.share 0.8")

    def test_small_share_climbing_past_the_band_fails(self, baseline):
        failures = failures_of(
            baseline, {"cold_solve": result({"residual.share": 0.2})}
        )
        assert [f.split()[1] for f in failures] == ["residual.share"]

    def test_missing_workload_fails(self, baseline):
        assert failures_of(baseline, {}) == ["cold_solve: no result"]
        extra = {"cold_solve": result(), "edit_loop": result()}
        assert failures_of(baseline, extra) == [
            "edit_loop: not in the baseline"
        ]

    def test_missing_metric_fails(self, baseline):
        failures = failures_of(
            baseline, {"cold_solve": result({"matching.misses": None})}
        )
        assert failures == ["cold_solve: matching.misses missing from the run"]
        del baseline["cold_solve"]["residual.share"]
        failures = failures_of(baseline, {"cold_solve": result()})
        assert failures == [
            "cold_solve: residual.share missing from the baseline"
        ]

    @pytest.mark.parametrize(
        "correct, failed", [(False, 0), (True, 2), (False, 3)]
    )
    def test_wrong_or_failed_answers_fail(self, baseline, correct, failed):
        failures = failures_of(
            baseline, {"cold_solve": result(correct=correct, failed=failed)}
        )
        assert failures == [
            f"cold_solve: correct={correct} failed={failed} of 80"
        ]


class TestCommittedBaseline:
    def test_covers_every_workload_with_the_core_counts(self):
        baseline = json.loads(gate.BASELINE.read_text(encoding="utf-8"))
        assert set(baseline) == set(gate.workloads())
        for metrics in baseline.values():
            assert {"matching.misses", "search.evaluations"} <= set(metrics)
            assert not set(metrics) & gate.UNSTABLE
