"""Metrics from a run: end to end (untraced) and per layer (traced).

End-to-end metrics come from the untraced run's :class:`~bench.RunLog`.
Per-layer metrics come from the traced run's spans.  Unless a name says
otherwise, a per-layer ``*_s`` or count is per turn, ``serve.*`` times
and bytes are per HTTP request, ``serve.job_*`` per job, and
``<layer>.share`` is the layer's attributed self time over turn wall
time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from bench import RunLog, percentile, tail, tail_level
from tracing import (
    ATTRS,
    END,
    LAYER,
    NAME,
    START,
    TURN,
    TURN_LAYER,
    attribute_turn,
    outermost,
    turns_of,
)

#: End-to-end metric name → unit.
END_TO_END = {
    "setup_s": "s",
    "turn_p50_s": "s",
    "turn_tail_s": "s",
    "turns_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "requests_per_s": "1/s",
    "answer_quality": "score",
    "peak_rss_mb": "MiB",
}

#: Layers of the attribution table, in call-stack order (outermost last).
LAYERS = (
    "similarity",
    "quality",
    "matching",
    "search",
    "search.parallel",
    "explain",
    "session",
    "serve",
    "serve.transport",
    "client",
    TURN_LAYER,
)

#: Per-layer metric name → unit.
PER_LAYER = {
    "matching.match_s": "s",
    "matching.calls": "count",
    "matching.misses": "count",
    "matching.memo_hit_ratio": "ratio",
    "matching.us_per_miss": "us",
    "quality.score_s": "s",
    "quality.score_rows": "count",
    "quality.us_per_row": "us",
    "quality.evaluate_calls": "count",
    "quality.memo_hit_ratio": "ratio",
    "quality.compile_s": "s",
    "similarity.build_s": "s",
    "similarity.calls": "count",
    "similarity.names": "count",
    "similarity.candidate_ratio": "ratio",
    "search.optimize_s": "s",
    "search.self_s": "s",
    "search.iterations": "count",
    "search.evaluations": "count",
    "search.evals_per_s": "1/s",
    "search.parallel.solve_s": "s",
    "search.parallel.overhead_s": "s",
    "search.parallel.shm_bytes": "bytes",
    "search.parallel.workers_failed": "count",
    "session.solve_s": "s",
    "session.self_s": "s",
    "session.plan_s": "s",
    "session.context_rebuilt": "count",
    "session.operator_rebuilt": "count",
    "session.similarity_extended": "count",
    "session.memo_kept_share": "ratio",
    "serve.dispatch_s": "s",
    "serve.self_s": "s",
    "serve.transport_s": "s",
    "serve.payload_bytes": "bytes",
    "serve.job_queue_wait_s": "s",
    "serve.job_run_s": "s",
    "explain.build_s": "s",
    "setup.similarity_s": "s",
    "setup.compile_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "telemetry.trace_overhead": "ratio",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(log: RunLog) -> tuple[dict, dict]:
    """``(metrics, notes)``: every end-to-end metric, and how the tails
    were taken."""
    turn_level = tail_level(log.min_turns)
    turn_tail, turn_beyond = tail(log.turn_seconds, turn_level)
    req_level = tail_level(log.min_requests)
    req_tail, req_beyond = tail(log.request_seconds, req_level)
    metrics = {
        "setup_s": statistics.median(log.setup_seconds),
        "turn_p50_s": percentile(log.turn_seconds, 50.0),
        "turn_tail_s": turn_tail,
        "turns_per_s": len(log.turn_seconds) / log.wall_seconds,
        "request_p50_s": percentile(log.request_seconds, 50.0),
        "request_tail_s": req_tail,
        "requests_per_s": len(log.request_seconds) / log.wall_seconds,
        "answer_quality": _mean(log.qualities),
        "peak_rss_mb": log.peak_rss_mb,
    }
    notes = {
        "turns": len(log.turn_seconds),
        "turn_tail": f"p{turn_level:g} ({turn_beyond} of "
        f"{len(log.turn_seconds)} turns beyond)",
        "requests": len(log.request_seconds),
        "request_tail": f"p{req_level:g} ({req_beyond} of "
        f"{len(log.request_seconds)} requests beyond)",
        "setup_repeats": len(log.setup_seconds),
        "wall_s": round(log.wall_seconds, 3),
        "attempted": log.attempted,
        "failed": log.failed,
        "error_rate": _ratio(log.failed, log.attempted),
    }
    return metrics, notes


class Attribution:
    """Per-turn attribution of a traced run's spans."""

    def __init__(self, spans: list[tuple]):
        self.turns = turns_of(spans)
        self.in_turns = [s for s in spans if s[TURN] in self.turns]
        self.walls: list[float] = []
        self.by_layer: dict[str, float] = defaultdict(float)
        self.worst_gap = 0.0
        for root, members in self.turns.values():
            credit = attribute_turn(root, members)
            layer_of = {s[0]: s[LAYER] for s in members}
            wall = root[END] - root[START]
            turn_layers: dict[str, float] = defaultdict(float)
            for span_id, seconds in credit.items():
                turn_layers[layer_of[span_id]] += seconds
            for layer, seconds in turn_layers.items():
                self.by_layer[layer] += seconds
            self.walls.append(wall)
            self.worst_gap = max(
                self.worst_gap, abs(sum(turn_layers.values()) - wall)
            )

    @property
    def n(self) -> int:
        return max(len(self.turns), 1)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def named(self, *names: str, outer: bool = True) -> list[tuple]:
        chosen = []
        for name in names:
            if outer:
                chosen.extend(outermost(self.in_turns, name))
            else:
                chosen.extend(s for s in self.in_turns if s[NAME] == name)
        return chosen

    def per_turn_seconds(self, *names: str) -> float:
        return sum(s[END] - s[START] for s in self.named(*names)) / self.n

    def count(self, *names: str, where=None) -> int:
        return sum(
            1
            for s in self.named(*names, outer=False)
            if where is None or where(s[ATTRS])
        )

    def total(self, key: str, *names: str) -> float:
        return sum(s[ATTRS].get(key, 0) for s in self.named(*names, outer=False))

    def self_seconds(self, layer: str) -> float:
        return self.by_layer.get(layer, 0.0)


def setup_seconds(spans: list[tuple], windows, *names: str) -> float:
    """Seconds spent in ``names`` during the program set-ups, per set-up."""
    if not windows:
        return 0.0
    chosen = [
        s
        for name in names
        for s in outermost(spans, name)
        if any(lo <= s[START] and s[END] <= hi for lo, hi in windows)
    ]
    return sum(s[END] - s[START] for s in chosen) / len(windows)


def per_layer(
    spans: list[tuple], traced: RunLog, untraced: RunLog
) -> tuple[dict, Attribution]:
    """Every per-layer metric from a traced run's spans, and the
    attribution they were computed from."""
    a = Attribution(spans)
    n = a.n
    match_calls = a.count("MatchOperator.match")
    misses = a.count("MatchOperator.match", where=lambda x: x.get("miss"))
    miss_seconds = sum(
        s[END] - s[START]
        for s in a.named("MatchOperator.match", outer=False)
        if s[ATTRS].get("miss")
    )
    score_seconds = a.per_turn_seconds("EvalContext.score_batch")
    rows = a.total("rows", "EvalContext.score_batch")
    evaluate = ("Objective.evaluate", "Objective.evaluate_batch")
    lookups = a.total("hits", *evaluate) + a.total("misses", *evaluate)
    optimize_seconds = a.per_turn_seconds("Optimizer.optimize")
    evaluations = a.total("evaluations", "Optimizer.optimize")
    engines = a.named("ParallelSolveEngine.solve")
    plans = a.named("session.plan_delta", outer=False)
    builds = ("NameSimilarityMatrix.build", "NameSimilarityMatrix.extended")
    blocked = a.named("matrix.blocked_scores", outer=False)
    transport = [s for s in a.in_turns if s[LAYER] == "serve.transport"]
    requests = max(len(transport), 1)
    dispatch = a.named("ServeApp.dispatch")
    request_seconds = sum(s[END] - s[START] for s in transport)
    dispatch_seconds = sum(s[END] - s[START] for s in dispatch)
    payload = traced.extra.get("payload_bytes", [])
    metrics = {
        "matching.match_s": a.per_turn_seconds("MatchOperator.match"),
        "matching.calls": match_calls / n,
        "matching.misses": misses / n,
        "matching.memo_hit_ratio": _ratio(match_calls - misses, match_calls),
        "matching.us_per_miss": _ratio(miss_seconds, misses) * 1e6,
        "quality.score_s": score_seconds,
        "quality.score_rows": rows / n,
        "quality.us_per_row": _ratio(score_seconds * n, rows) * 1e6,
        "quality.evaluate_calls": lookups / n,
        "quality.memo_hit_ratio": _ratio(a.total("hits", *evaluate), lookups),
        "quality.compile_s": a.per_turn_seconds(
            "EvalContext.compile", "EvalContext.patched"
        ),
        "similarity.build_s": a.per_turn_seconds(*builds),
        "similarity.calls": a.count(
            *builds, where=lambda x: x.get("names", 0) > 0
        ) / n,
        "similarity.names": a.total("names", *builds) / n,
        "similarity.candidate_ratio": _ratio(
            sum(s[ATTRS]["candidates"] for s in blocked),
            sum(s[ATTRS]["pairs"] for s in blocked),
        ),
        "search.optimize_s": optimize_seconds,
        "search.self_s": a.self_seconds("search") / n,
        "search.iterations": a.total("iterations", "Optimizer.optimize") / n,
        "search.evaluations": evaluations / n,
        "search.evals_per_s": _ratio(evaluations / n, optimize_seconds),
        "search.parallel.solve_s": a.per_turn_seconds(
            "ParallelSolveEngine.solve"
        ),
        "search.parallel.overhead_s": sum(
            (s[END] - s[START]) - s[ATTRS].get("slowest_worker_s", 0.0)
            for s in engines
        ) / n,
        "search.parallel.shm_bytes": a.total(
            "shm_bytes", "parallel.export_context"
        ) / n,
        "search.parallel.workers_failed": a.total(
            "workers_failed", "ParallelSolveEngine.solve"
        ) / n,
        "session.solve_s": a.per_turn_seconds("Session.solve"),
        "session.self_s": a.self_seconds("session") / n,
        "session.plan_s": a.per_turn_seconds("session.plan_delta"),
        "session.context_rebuilt": a.count("EvalContext.compile") / n,
        "session.operator_rebuilt": sum(
            1 for s in plans if s[ATTRS]["operator_rebuilt"]
        ) / n,
        "session.similarity_extended": a.count(
            "NameSimilarityMatrix.extended",
            where=lambda x: x.get("names", 0) > 0,
        ) / n,
        "session.memo_kept_share": _ratio(
            sum(1 for s in plans if s[ATTRS]["memo_kept"]), len(plans)
        ),
        "serve.dispatch_s": dispatch_seconds / requests,
        "serve.self_s": a.self_seconds("serve") / requests,
        "serve.transport_s": (request_seconds - dispatch_seconds) / requests,
        "serve.payload_bytes": _mean(payload),
        "serve.job_queue_wait_s": _mean(
            traced.extra.get("job_queue_wait_s", [])
        ),
        "serve.job_run_s": _mean(traced.extra.get("job_run_s", [])),
        "explain.build_s": a.per_turn_seconds("attribution.explain_solution"),
        "setup.similarity_s": setup_seconds(
            spans, traced.setup_windows, *builds
        ),
        "setup.compile_s": setup_seconds(
            spans, traced.setup_windows, "EvalContext.compile"
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(a.self_seconds(layer), a.wall)
    metrics["telemetry.trace_overhead"] = _ratio(
        percentile(traced.turn_seconds, 50.0),
        percentile(untraced.turn_seconds, 50.0),
    )
    return metrics, a


def layer_table(workload: str, a: Attribution, metrics: dict) -> list[str]:
    """The attribution report: one row per layer, self time per turn,
    share of turn wall, and the layer's counts and ratios."""
    counts = defaultdict(list)
    for name, value in metrics.items():
        layer = name.rsplit(".", 1)[0]
        if name.endswith(".share") or name == "telemetry.trace_overhead":
            continue
        if layer.startswith("search.parallel"):
            layer = "search.parallel"
        counts[layer].append(f"{name.rsplit('.', 1)[1]}={value:.4g}")
    counts["serve.transport"] = [
        f"per_request_s={metrics['serve.transport_s']:.4g}"
    ]
    lines = [
        f"per-layer attribution, {workload}: {len(a.turns)} traced turns, "
        f"{a.wall:.3f} s wall, worst |sum(self) - wall| = "
        f"{a.worst_gap:.2e} s, trace overhead "
        f"{metrics['telemetry.trace_overhead']:.3f}x",
        f"{'layer':<16} {'self_s/turn':>12} {'share':>7}  counts and ratios",
    ]
    for layer in LAYERS:
        seconds = a.self_seconds(layer) / a.n
        lines.append(
            f"{layer:<16} {seconds:>12.5f} "
            f"{metrics[f'{layer}.share']:>7.1%}  "
            + " ".join(counts.get(layer, []))
        )
    lines.append("set-up, per set-up: " + " ".join(counts["setup"]))
    return lines
