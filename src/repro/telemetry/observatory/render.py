"""Terminal rendering for the run registry.

``mube runs`` tabulates the registry (:func:`render_runs_table`), and
``mube runs show`` expands a single record — including the fold-back of
the ``portfolio.*`` telemetry counters captured at record time
(:func:`render_run_record`).

Everything here is pure string formatting over immutable records.
"""

from __future__ import annotations

import time

from .registry import RunRecord


def _format_when(started_at: float) -> str:
    try:
        return time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(started_at)
        )
    except (OverflowError, OSError, ValueError):
        return "?"


def render_runs_table(records: list[RunRecord]) -> str:
    """The ``mube runs`` listing: newest last, one line per record."""
    if not records:
        return "run registry is empty"
    rows = [
        (
            "RUN",
            "WHEN",
            "CMD",
            "OPT",
            "JOBS",
            "QUALITY",
            "FEAS",
            "STATUS",
        )
    ]
    for record in records:
        rows.append(
            (
                record.run_id,
                _format_when(record.started_at),
                record.command,
                record.optimizer or "-",
                str(record.jobs),
                f"{record.quality:.4f}",
                "yes" if record.feasible else "no",
                record.status,
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    ]
    return "\n".join(line.rstrip() for line in lines)


def render_run_record(record: RunRecord) -> str:
    """The ``mube runs show <id>`` expansion of one registry record."""
    lines = [
        f"run {record.run_id} ({record.status})",
        f"  started      {_format_when(record.started_at)}",
        f"  command      {record.command}",
        f"  fingerprint  {record.fingerprint}",
        f"  optimizer    {record.optimizer or '-'}",
        f"  jobs         {record.jobs}",
        (
            f"  solution     quality={record.quality:.4f} "
            f"objective={record.objective:.4f} "
            f"feasible={'yes' if record.feasible else 'no'}"
        ),
        f"  selection    {list(record.selection)}",
        (
            f"  effort       {record.iterations} iterations, "
            f"{record.evaluations} evaluations, "
            f"{record.elapsed_seconds:.2f}s"
        ),
    ]
    if record.checkpoint:
        lines.append(f"  checkpoint   {record.checkpoint}")
    resilience = []
    if record.retries:
        resilience.append(f"{record.retries} retries")
    if record.timeouts:
        resilience.append(f"{record.timeouts} timeouts")
    if record.requeues:
        resilience.append(f"{record.requeues} requeues")
    if record.pool_rebuilds:
        resilience.append(f"{record.pool_rebuilds} pool rebuilds")
    if record.resumed_workers:
        resilience.append(f"{record.resumed_workers} resumed")
    if resilience:
        lines.append(f"  resilience   {', '.join(resilience)}")
    if record.workers:
        lines.append("  workers:")
        for worker in record.workers:
            mark = (
                " <- winner"
                if worker.get("index") == record.winner_index
                and worker.get("status") == "ok"
                else ""
            )
            detail = worker.get("error")
            if worker.get("status") == "ok":
                detail = (
                    f"objective={worker.get('objective', 0.0):.4f} "
                    f"in {worker.get('elapsed_seconds', 0.0):.2f}s"
                )
            lines.append(
                "    "
                f"[{worker.get('index')}] {worker.get('label')}: "
                f"{worker.get('status')} "
                f"(attempts={worker.get('attempts', 1)}"
                f"{', resumed' if worker.get('resumed') else ''}) "
                f"{detail or ''}".rstrip()
                + mark
            )
    folded = record.portfolio_counters()
    if folded:
        lines.append("  portfolio counters:")
        for name, value in folded.items():
            lines.append(f"    {name} = {value}")
    return "\n".join(lines)


__all__ = ["render_run_record", "render_runs_table"]
