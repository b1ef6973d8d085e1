"""Performance gate: loopbench's deterministic counts against a baseline.

For each workload ``BENCHMARK.json`` declares, this runs one traced,
seeded loopbench pass::

    python3 loopbench/run.py --workload W --seed 1 --seconds 0 --trace 1

parses the result object on the last line of its report, and compares
it with the committed ``benchmarks/baseline.json``.  The gate fails when

* a run is not ``correct`` or any of its answers ``failed``;
* a count or ratio metric (``matching.misses``, ``search.evaluations``,
  ``matching.memo_hit_ratio``, …) differs from the baseline at all —
  with a fixed seed and ``--seconds 0`` every turn is the same work, so
  these read bit-equal from run to run;
* a ``.share`` metric (the layer attribution) moves by more than
  :data:`SHARE_BAND` from the baseline.  Shares are wall-clock ratios,
  so they get a band; a share under 0.05 can only fail by climbing
  past 0.15;
* a workload or a compared metric is missing on either side.

Wall-clock metrics (seconds, rates, ``telemetry.trace_overhead``) are
not compared, nor is ``serve.payload_bytes``, whose mean depends on the
timing of job polls.  Usage, from the root of a checkout::

    python benchmarks/loop_gate.py           # compare; exit 1 on drift
    python benchmarks/loop_gate.py --write   # refresh baseline.json

Refresh the baseline only in a change that says why its counts moved.
Each run's result object is kept in ``.loop_gate/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
RESULTS_DIR = REPO_ROOT / ".loop_gate"

SEED = 1
#: Largest absolute move a ``.share`` metric may make from its baseline.
SHARE_BAND = 0.10
#: Metrics with an exact-compare unit that still vary between runs.
UNSTABLE = frozenset({"serve.payload_bytes", "telemetry.trace_overhead"})
EXACT_UNITS = frozenset({"count", "ratio", "bytes"})


def workloads() -> list[str]:
    """The workloads ``BENCHMARK.json`` declares, in its order."""
    spec = REPO_ROOT / "BENCHMARK.json"
    declared = json.loads(spec.read_text(encoding="utf-8"))["workloads"]
    return [workload["name"] for workload in declared]


def compared_metrics(result: dict) -> dict[str, float]:
    """The metrics of one result object that the gate compares."""
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(".share")
        or (metric["unit"] in EXACT_UNITS and name not in UNSTABLE)
    }


def compare(
    baseline: dict[str, dict[str, float]], results: dict[str, dict]
) -> tuple[list[str], list[str]]:
    """Compare result objects with the baseline.

    ``baseline`` maps workload → metric → value; ``results`` maps
    workload → result object.  Returns ``(report lines, failures)``;
    each failure names its workload and, where there is one, its metric.
    """
    lines: list[str] = []
    failures: list[str] = []
    for workload in sorted(baseline.keys() | results.keys()):
        if workload not in results:
            failures.append(f"{workload}: no result")
            continue
        if workload not in baseline:
            failures.append(f"{workload}: not in the baseline")
            continue
        result = results[workload]
        if not result["correct"] or result["failed"] > 0:
            failures.append(
                f"{workload}: correct={result['correct']} "
                f"failed={result['failed']} of {result['attempted']}"
            )
        expected = baseline[workload]
        measured = compared_metrics(result)
        lines.append(f"{workload}:")
        for name in sorted(expected.keys() | measured.keys()):
            if name not in measured or name not in expected:
                side = "run" if name not in measured else "baseline"
                failures.append(f"{workload}: {name} missing from the {side}")
                continue
            want, got = expected[name], measured[name]
            if name.endswith(".share"):
                ok = abs(got - want) <= SHARE_BAND
                rule = f"±{SHARE_BAND}"
            else:
                ok = got == want
                rule = "exact"
            lines.append(
                f"  {name:<34} {want!r:>22} {got!r:>22} {rule:>6}"
                f"{'' if ok else '  DRIFT'}"
            )
            if not ok:
                failures.append(
                    f"{workload}: {name} {got!r} vs baseline {want!r} ({rule})"
                )
    return lines, failures


def run_workload(workload: str) -> dict:
    """One traced loopbench pass; its result object."""
    command = [
        sys.executable, "loopbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", "0", "--trace", "1",
    ]
    done = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload}: loopbench exited {done.returncode}\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--write", action="store_true",
        help="write the runs' metrics to baseline.json instead of comparing",
    )
    args = parser.parse_args(argv)

    RESULTS_DIR.mkdir(exist_ok=True)
    results = {}
    for workload in workloads():
        print(f"running {workload} (seed {SEED}, traced)", flush=True)
        results[workload] = run_workload(workload)
        (RESULTS_DIR / f"{workload}.json").write_text(
            json.dumps(results[workload], indent=1) + "\n", encoding="utf-8"
        )

    if args.write:
        wrong = [
            w for w, r in results.items() if not r["correct"] or r["failed"]
        ]
        if wrong:
            print(f"FAIL not writing a baseline from {wrong}")
            return 1
        baseline = {w: compared_metrics(r) for w, r in results.items()}
        BASELINE.write_text(
            json.dumps(baseline, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {BASELINE}")
        return 0

    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    lines, failures = compare(baseline, results)
    print(f"  {'metric':<34} {'baseline':>22} {'run':>22} {'rule':>6}")
    print("\n".join(lines))
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"loop gate passed: {len(results)} workloads match {BASELINE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
