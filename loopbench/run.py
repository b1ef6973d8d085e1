"""Loop-turn benchmark of the µBE reproduction: one workload, one run.

Usage, from the root of a checkout::

    python3 loopbench/run.py --workload cold_solve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs it twice from a fresh set-up — untraced,
then with spans around every layer boundary — and reports the per-layer
metrics, the attribution table and the tracing overhead.  The report
goes to standard output; its last line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and the load shape are described in
``loopbench/README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import report  # noqa: E402
import tracing  # noqa: E402
from workloads import MOVES, RUNNERS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: bench.Scale = bench.DEFAULT) -> tuple[dict, list[str]]:
    """Run one workload; returns ``(result object, report lines)``."""
    bench.bootstrap()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    runner = RUNNERS[workload]
    scratch = bench.Scratch()
    try:
        kwargs = {"reference": bench.ColdReference()}
        if workload in ("serve_loop", "portfolio_job"):
            kwargs["scratch"] = scratch.path
        untraced = runner(scale, seed, seconds, **kwargs)
        logs = [untraced]
        lines = [
            f"workload {workload}: {why[workload]}",
            "load shape: " + json.dumps({**scale.describe(), "seed": seed}),
            "should move: " + json.dumps(MOVES[workload]),
        ]
        metrics, notes = report.end_to_end(untraced)
        units = report.END_TO_END
        lines.append("run: " + json.dumps(notes))
        if trace:
            tracer = tracing.Tracer()
            with tracing.traced(tracer):
                traced = runner(scale, seed, seconds, tracer=tracer, **kwargs)
            logs.append(traced)
            metrics, attribution = report.per_layer(
                tracer.spans, traced, untraced
            )
            units = report.PER_LAYER
            lines.extend(report.layer_table(workload, attribution, metrics))
    finally:
        scratch.close()
        reap_helpers()
    attempted = sum(log.attempted for log in logs)
    failed = sum(log.failed for log in logs)
    for log in logs:
        lines.extend(f"FAILED {reason}" for reason in log.failures)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, lines


def reap_helpers() -> None:
    """Wait for every process the run started to end.

    Pool workers are joined; the shared-memory resource tracker, which
    would otherwise outlive the run by a moment, is stopped and waited
    for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(RUNNERS),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
