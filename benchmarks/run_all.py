"""Run every ``bench_*.py`` suite and collect its JSON report.

Each suite runs in its own pytest process with
``--benchmark-json=BENCH_<name>.json`` so a crash in one bench cannot
take down the rest, and every report lands as a separate artifact::

    PYTHONPATH=src python benchmarks/run_all.py --scale smoke

is what CI runs; ``--scale paper`` reproduces the paper's figures on a
workstation.  ``mube figures BENCH_fig5_universe_size.json`` renders a
report afterwards.  These reports are records, not a gate: the
performance gate is ``benchmarks/loop_gate.py``, which compares
loopbench's deterministic counts with a committed baseline.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def discover(only: str | None) -> list[Path]:
    """The bench files to run, optionally filtered by substring."""
    benches = sorted(BENCH_DIR.glob("bench_*.py"))
    if only:
        benches = [b for b in benches if only in b.stem]
    return benches


def report_path(bench: Path, out_dir: Path) -> Path:
    """Where ``run_bench`` writes this suite's JSON report."""
    return out_dir / f"BENCH_{bench.stem.removeprefix('bench_')}.json"


def run_bench(
    bench: Path, out_dir: Path, scale: str, extra_args: list[str]
) -> tuple[int, float]:
    """Run one bench suite; returns (exit status, elapsed seconds)."""
    report = report_path(bench, out_dir)
    env = dict(os.environ)
    env["MUBE_BENCH_SCALE"] = scale
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    command = [
        sys.executable, "-m", "pytest", str(bench), "-q",
        f"--benchmark-json={report}",
        *extra_args,
    ]
    started = time.perf_counter()
    status = subprocess.run(command, env=env, cwd=str(BENCH_DIR)).returncode
    return status, time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run every bench_*.py suite, one JSON report each"
    )
    parser.add_argument(
        "--scale", choices=["smoke", "default", "paper"], default="smoke",
        help="MUBE_BENCH_SCALE for every suite (default: smoke)",
    )
    parser.add_argument(
        "--only", metavar="SUBSTR",
        help="run only benches whose name contains SUBSTR",
    )
    parser.add_argument(
        "--out-dir", default=str(BENCH_DIR),
        help="directory for the BENCH_*.json reports (default: benchmarks/)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the discovered bench suites and exit without running",
    )
    args, extra = parser.parse_known_args(argv)

    benches = discover(args.only)
    if not benches:
        print(f"no bench files match {args.only!r}", file=sys.stderr)
        return 2
    if args.list:
        for bench in benches:
            print(bench.stem)
        return 0
    out_dir = Path(args.out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    failures: list[str] = []
    for i, bench in enumerate(benches, start=1):
        print(
            f"[{i}/{len(benches)}] {bench.stem} (scale={args.scale})",
            flush=True,
        )
        status, elapsed = run_bench(bench, out_dir, args.scale, extra)
        verdict = "ok" if status == 0 else f"FAILED (exit {status})"
        print(f"    {verdict} in {elapsed:.1f}s", flush=True)
        if status != 0:
            failures.append(bench.stem)

    print(
        f"\n{len(benches) - len(failures)}/{len(benches)} suites passed; "
        f"reports in {out_dir}"
    )
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
