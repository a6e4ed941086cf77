"""``repro report``: one post-run artifact for "what ran, how fast, what broke".

Aggregates the two durable outputs a sweep leaves behind — the results
store (canonical rows) and the progress journal (lifecycle history) —
into a single static summary, rendered as text for humans and JSON for
CI.  Unlike ``repro watch`` this never loops and never needs the sweep
alive; it is the artifact a CI job archives next to the store digest.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.results.store import ResultsStore
from repro.sweep.journal import read_journal
from repro.sweep.watch import build_view, percentile_exact, resolve_paths
from repro.util.validation import ReproError

__all__ = ["build_report", "render_report", "report_json"]


def _journal_summary(journal_p: Path) -> dict:
    """Event census over the whole journal (every run, not just the last)."""
    if not journal_p.exists():
        return {"present": False}
    records, bad = read_journal(journal_p)
    by_event: dict = {}
    faults_handled: dict = {}
    failures: list = []
    losses: list = []
    for rec in records:
        kind = rec.get("event", "?")
        by_event[kind] = by_event.get(kind, 0) + 1
        if kind == "fault_handled":
            key = f"{rec.get('site')}:{rec.get('action')}"
            faults_handled[key] = faults_handled.get(key, 0) + 1
        elif kind == "cell_failed":
            failures.append({"cell": rec.get("cell"),
                             "reason": rec.get("reason")})
        elif kind == "worker_lost":
            losses.append({"shard": rec.get("shard"),
                           "workload": rec.get("workload"),
                           "reason": rec.get("reason")})
    return {
        "present": True,
        "records": len(records),
        "truncated_lines": len(bad),
        "runs": by_event.get("run_started", 0),
        "finished_runs": by_event.get("run_finished", 0),
        "by_event": dict(sorted(by_event.items())),
        "faults_handled": dict(sorted(faults_handled.items())),
        "failures": failures,
        "worker_losses": losses,
    }


def _store_summary(store_p: Path) -> dict:
    if not store_p.exists():
        return {"present": False}
    with ResultsStore(store_p) as store:
        rows = store.rows()
        wall = store.wall_stats()
        digest = store.digest()
    by_scheme: dict = {}
    by_workload: dict = {}
    for row in rows:
        by_scheme[row["scheme"]] = by_scheme.get(row["scheme"], 0) + 1
        by_workload[row["workload"]] = by_workload.get(row["workload"], 0) + 1
    return {
        "present": True,
        "rows": len(rows),
        "by_scheme": dict(sorted(by_scheme.items())),
        "by_workload": dict(sorted(by_workload.items())),
        "wall": {k: round(v, 6) for k, v in wall.items()},
        "digest": digest,
    }


def build_report(target: "str | Path",
                 journal: "str | Path | None" = None,
                 events: int = 8) -> dict:
    """The ``repro report`` payload (JSON-able dict)."""
    store_p, journal_p = resolve_paths(target)
    if journal is not None:
        journal_p = Path(journal)
    if not store_p.exists() and not journal_p.exists():
        raise ReproError(
            f"nothing to report: neither store {store_p} nor journal "
            f"{journal_p} exists"
        )
    view = build_view(store_p if store_p.exists() else journal_p,
                      events=events)
    cells = {
        "completed": len(view.completed),
        "resumed_distinct": len(view.resumed - view.completed),
        "failed": len(view.failed),
        "in_flight": view.in_flight,
        "last_run_total": view.run_total,
    }
    tails = {}
    if view.all_walls:
        tails["cell_wall_s"] = {
            "n": len(view.all_walls),
            "p50": round(percentile_exact(view.all_walls, 0.50), 6),
            "p95": round(percentile_exact(view.all_walls, 0.95), 6),
            "max": round(max(view.all_walls), 6),
        }
    for stage, samples in sorted(view.all_stage_walls.items()):
        tails[f"stage_{stage}_s"] = {
            "n": len(samples),
            "p50": round(percentile_exact(samples, 0.50), 6),
            "p95": round(percentile_exact(samples, 0.95), 6),
            "max": round(max(samples), 6),
        }
    return {
        "store_path": str(store_p),
        "journal_path": str(journal_p),
        "store": _store_summary(store_p),
        "journal": {**_journal_summary(journal_p), "cells": cells},
        "tails": tails,
    }


def render_report(report: dict) -> str:
    """Human rendering of :func:`build_report`'s payload."""
    lines = []
    store = report["store"]
    journal = report["journal"]
    cells = journal["cells"]
    lines.append(f"sweep report: {report['store_path']}")
    if store.get("present"):
        lines.append(
            f"  store: {store['rows']} rows, digest {store['digest']}"
        )
        lines.append(
            "  by scheme: " + ", ".join(
                f"{k}={v}" for k, v in store["by_scheme"].items())
        )
        lines.append(
            "  by workload: " + ", ".join(
                f"{k}={v}" for k, v in store["by_workload"].items())
        )
        wall = store["wall"]
        lines.append(
            f"  cell wall: total {wall['total_s']:.2f}s, "
            f"mean {wall['mean_s']:.3f}s, max {wall['max_s']:.3f}s"
        )
    else:
        lines.append("  store: missing")
    if journal.get("present"):
        lines.append(
            f"  journal: {journal['records']} records, "
            f"{journal['runs']} run(s) "
            f"({journal['finished_runs']} finished"
            + (f", {journal['truncated_lines']} truncated line(s)"
               if journal["truncated_lines"] else "")
            + ")"
        )
        lines.append(
            f"  cells: {cells['completed']} completed, "
            f"{cells['resumed_distinct']} resumed, "
            f"{cells['failed']} failed, {cells['in_flight']} in flight"
        )
        if journal["faults_handled"]:
            lines.append(
                "  recoveries: " + ", ".join(
                    f"{k}={v}" for k, v in journal["faults_handled"].items())
            )
        for loss in journal["worker_losses"]:
            lines.append(
                f"  worker lost: shard {loss['shard']} "
                f"({loss['workload']}): {loss['reason']}"
            )
        for failure in journal["failures"]:
            lines.append(
                f"  cell failed: {failure['cell']}: {failure['reason']}"
            )
    else:
        lines.append("  journal: missing (counts from store only)")
    for name, tail in report["tails"].items():
        lines.append(
            f"  {name}: p50 {tail['p50']:.3f} p95 {tail['p95']:.3f} "
            f"max {tail['max']:.3f} (n={tail['n']})"
        )
    return "\n".join(lines)


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
