"""The loop-turn benchmark's own tests, at a tiny size.

Run from the root of a checkout::

    python -m pytest loopbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import bench  # noqa: E402

bench.bootstrap()

import report  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Every wrapped target as imported, before any run could patch it.
ORIGINAL_TARGETS = tracing.installed_targets()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.2
SEED = 3


@pytest.fixture(scope="module")
def results():
    """One tiny untraced and one tiny traced run per workload."""
    return {
        (name, trace): run.run(name, SEED, SECONDS, trace, scale=bench.TINY)
        for name in NAMES
        for trace in (False, True)
    }


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert sorted(NAMES) == sorted(workloads.RUNNERS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        report.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        report.PER_LAYER
    )
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds)
    assert setup["bound"] == max(bounds)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += NAMES
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(results, name, trace):
    result, _ = results[(name, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float | int)
        assert math.isfinite(value["value"])
    json.dumps(result)


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_are_never_zero(results, name):
    result, _ = results[(name, False)]
    for metric, value in result["metrics"].items():
        assert value["value"] > 0, metric


def _tamper_solution(solution):
    return dataclasses.replace(solution, objective=solution.objective + 1e-9)


def test_a_wrong_library_answer_fails_the_run(monkeypatch):
    from repro.session.session import Session

    solve = Session.solve

    def wrong(self, *args, **kwargs):
        iteration = solve(self, *args, **kwargs)
        result = dataclasses.replace(
            iteration.result, solution=_tamper_solution(iteration.solution)
        )
        return dataclasses.replace(iteration, result=result)

    monkeypatch.setattr(Session, "solve", wrong)
    result, lines = run.run("cold_solve", SEED, SECONDS, False, bench.TINY)
    assert result["correct"] is False
    assert result["failed"] > 0
    notes = json.loads(next(l for l in lines if l.startswith("run: "))[5:])
    assert notes["error_rate"] > 0
    assert any(line.startswith("FAILED") for line in lines)


def test_a_wrong_http_answer_fails_the_run(monkeypatch):
    from repro.serve import app

    payload = app.solution_payload

    def wrong(iteration, include_explanation=False):
        out = payload(iteration, include_explanation)
        out["solution"]["objective"] += 1e-9
        return out

    monkeypatch.setattr(app, "solution_payload", wrong)
    result, _ = run.run("serve_loop", SEED, SECONDS, False, bench.TINY)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_plus_residual_equal_turn_wall(name, tmp_path):
    tracer = tracing.Tracer()
    kwargs = {}
    if name in ("serve_loop", "portfolio_job"):
        kwargs["scratch"] = tmp_path
    scratch = bench.Scratch()
    try:
        with tracing.traced(tracer):
            workloads.RUNNERS[name](
                bench.TINY, SEED, SECONDS, tracer=tracer, **kwargs
            )
    finally:
        scratch.close()
    turns = tracing.turns_of(tracer.spans)
    assert turns
    for root, members in turns.values():
        wall = root[tracing.END] - root[tracing.START]
        credit = tracing.attribute_turn(root, members)
        assert math.isclose(sum(credit.values()), wall, rel_tol=1e-9)
        assert all(seconds >= 0 for seconds in credit.values())
    _, attribution = report.per_layer(tracer.spans, _log(), _log())
    shares = sum(
        attribution.self_seconds(layer) for layer in report.LAYERS
    ) / attribution.wall
    assert math.isclose(shares, 1.0, rel_tol=1e-9)


def _log():
    log = bench.RunLog()
    log.turn_seconds = [1.0]
    return log


def test_attribution_splits_concurrent_leaves_evenly():
    spans = [
        (1, "turn", tracing.TURN_LAYER, 0.0, 10.0, None, "t", {}),
        (2, "a", "session", 1.0, 9.0, 1, "t", {}),
        (3, "b", "matching", 2.0, 4.0, 2, "t", {}),
        (4, "c", "serve.transport", 3.0, 5.0, 1, "t", {}),
    ]
    credit = tracing.attribute_turn(spans[0], spans)
    assert credit == pytest.approx({1: 2.0, 2: 5.5, 3: 1.5, 4: 1.0})
    assert sum(credit.values()) == pytest.approx(10.0)


def test_the_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(tracer):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracing, "install", refuse)
    for name in NAMES:
        result, _ = run.run(name, SEED, SECONDS, False, bench.TINY)
        assert result["correct"] is True
    assert tracing.installed_targets() == ORIGINAL_TARGETS


def test_the_traced_run_restores_every_target(results):
    assert tracing.installed_targets() == ORIGINAL_TARGETS


def test_runs_leave_no_files_behind(results):
    assert not (bench.ROOT / ".loopbench_tmp").exists()
