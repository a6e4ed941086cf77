"""Run manifests: the durable record of what one run did and cost.

``run_manifest.json`` is written next to every artifact by the CLI (and
by anything else that holds a :class:`TelemetrySession
<repro.telemetry.TelemetrySession>`): the SimConfig identity and seed,
git/package versions, per-stage wall times, cache hit/miss counts,
replay-path choices, invariant-check outcomes, and the raw span list —
enough to explain a BENCH trajectory or a failed run from its artifacts
alone, and enough for ``repro trace`` to export a Perfetto trace without
re-running anything.

The schema is versioned and pinned by a golden test
(``tests/golden/manifest_schema.json``): adding a field means bumping
:data:`MANIFEST_SCHEMA_VERSION` and regenerating the golden, so downstream
tooling never sees a silently different shape.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "load_manifest",
    "validate_manifest",
    "write_manifest",
]

#: Bump on any change to the manifest's top-level shape.
MANIFEST_SCHEMA_VERSION = 1

#: Default file name, written next to the run's artifacts.
MANIFEST_NAME = "run_manifest.json"

_KIND = "repro-run-manifest"

#: Required top-level fields and their JSON types (the schema contract the
#: golden test pins; ``validate_manifest`` enforces it at load time).
_SCHEMA: dict[str, type | tuple] = {
    "schema_version": int,
    "kind": str,
    "created_unix": (int, float),
    "label": str,
    "experiments": list,
    "config": dict,
    "versions": dict,
    "git": (dict, type(None)),
    "wall_s": (int, float),
    "stages": dict,
    "counters": dict,
    "gauges": dict,
    "histograms": dict,
    "summary": dict,
    "events": list,
    "spans": list,
}


def _git_info() -> "dict | None":
    """Best-effort commit identity; ``None`` outside a git checkout."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        if commit.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5,
        )
        return {
            "commit": commit.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except Exception:
        return None


def _versions() -> dict:
    import numpy

    from repro import __version__

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "argv": list(sys.argv),
    }


def _config_dict(config) -> dict:
    """The manifest's view of a SimConfig: the trajectory identity plus
    the evaluation-side knobs that shape the numbers."""
    if config is None:
        return {}
    return {
        "machine": config.machine.name,
        "policy": config.policy.value,
        "refs_per_core": config.refs_per_core,
        "seed": config.seed,
        "replacement": config.replacement,
        "coherent": config.coherent,
        "cache_key": list(config.cache_key()),
        "checked": bool(getattr(config, "checked", False)),
        "stream_cache": getattr(config, "stream_cache", None),
        "faults": getattr(config, "faults", None),
        "fill_energy_weight": config.fill_energy_weight,
        "memory_latency": config.memory_latency,
        "memory_energy_nj": config.memory_energy_nj,
        "mlp": config.mlp,
    }


def _summarize(counters: dict) -> dict:
    """The headline numbers ``repro stats`` leads with."""

    def total(prefix: str) -> float:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    def by_kind(name: str) -> dict:
        prefix = f"{name}{{kind="
        return {k[len(prefix):-1]: v for k, v in sorted(counters.items())
                if k.startswith(prefix)}

    return {
        "cache": {
            "hits": total("stream_cache.hit"),
            "misses": total("stream_cache.miss"),
            "rejects": total("stream_cache.reject"),
            "saves": total("stream_cache.save"),
            "memo_hits": total("runner.memo_hit"),
        },
        "replay": {
            "vector": total("replay.vector"),
            "sequential": total("replay.sequential"),
            "epochs": total("replay.epochs"),
            "sweeps": total("replay.sweeps"),
        },
        # Replay plans per kind (presence, levelpred, ehc): built once
        # per (stream, table geometry), reused by every later cell.
        "plans": {
            "built": by_kind("replay.plans_built"),
            "reused": by_kind("replay.plans_reused"),
        },
        # Decision-code tables per flow (presence, levelpred, ehc): built
        # once per (kernel, flow, consults, skips) and process.
        "tables": {
            "built": by_kind("evaluate.tables_built"),
            "reused": by_kind("evaluate.tables_reused"),
        },
        "content": {
            "walks": total("content.walks"),
            "accesses": total("content.accesses"),
            "vector": total("content.vector_walks"),
            "sequential": total("content.sequential_walks"),
            "dual": total("content.dual_walks"),
            "chunks": total("content.vector_chunks"),
            "skipped": total("content.vector_skipped"),
            # The vector walk's lockstep regime (DESIGN.md, "Vectorized
            # content walk"): classes of XOR-equivalent cores, template
            # and shared-LLC pass sizes, LLC evictions checked for a
            # live victim, and the walks that switched to the exact loop
            # with the accesses it walked.
            "classes": total("content.classes"),
            "template_refs": total("content.template_refs"),
            "llc_pass_refs": total("content.llc_pass_refs"),
            "live_victims_checked": total("content.live_victims_checked"),
            "switches": total("content.switches"),
            "exact_refs": total("content.exact_refs"),
        },
        "invariants": {
            "inclusion_sweeps": total("invariants.inclusion_sweeps"),
            "result_checks": total("invariants.result_checks"),
            "violations": total("invariants.violations"),
        },
        # Fault injection & recovery (repro.faults): injected faults are
        # counted via their structured events; "handled" counts every
        # executed recovery path, injected or organic.
        "faults": {
            "injected": total("events.faults.injected"),
            "handled": total("faults.handled"),
            "retries": total("faults.retries"),
            "workers_lost": total("parallel.worker_lost"),
        },
    }


def build_manifest(session, config=None, experiments=()) -> dict:
    """Assemble the manifest dict for one session (no I/O)."""
    metrics = session.registry.snapshot()
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": _KIND,
        "created_unix": time.time(),
        "label": session.label,
        "experiments": list(experiments),
        "config": _config_dict(config),
        "versions": _versions(),
        "git": _git_info(),
        "wall_s": session.wall_s(),
        "stages": session.stage_totals(),
        "counters": metrics["counters"],
        "gauges": metrics["gauges"],
        "histograms": metrics["histograms"],
        "summary": _summarize(metrics["counters"]),
        "events": list(session.events),
        "spans": session.tracer.to_dicts(),
    }


def write_manifest(path, session, config=None, experiments=()) -> Path:
    """Build and write ``run_manifest.json``; returns the path written."""
    path = Path(path)
    if path.is_dir():
        path = path / MANIFEST_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    data = build_manifest(session, config=config, experiments=experiments)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path) -> dict:
    """Read and validate a manifest; raises ``ValueError`` on problems."""
    data = json.loads(Path(path).read_text())
    problems = validate_manifest(data)
    if problems:
        raise ValueError(
            f"invalid run manifest {path}: " + "; ".join(problems)
        )
    return data


def validate_manifest(data) -> list[str]:
    """Schema check: returns a list of problems (empty = valid)."""
    if not isinstance(data, dict):
        return ["manifest is not a JSON object"]
    problems = []
    if data.get("kind") != _KIND:
        problems.append(f"kind is {data.get('kind')!r}, expected {_KIND!r}")
    if data.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema_version is {data.get('schema_version')!r}, "
            f"expected {MANIFEST_SCHEMA_VERSION}"
        )
    for field_name, types in _SCHEMA.items():
        if field_name not in data:
            problems.append(f"missing field {field_name!r}")
        elif not isinstance(data[field_name], types):
            problems.append(
                f"field {field_name!r} has type "
                f"{type(data[field_name]).__name__}"
            )
    for i, span in enumerate(data.get("spans", ())):
        if not isinstance(span, dict) or not {
            "name", "start_s", "duration_s", "depth", "parent"
        } <= span.keys():
            problems.append(f"span #{i} is malformed")
            break
    for name, stage in data.get("stages", {}).items():
        if not isinstance(stage, dict) or not {"count", "total_s"} <= stage.keys():
            problems.append(f"stage {name!r} is malformed")
            break
    return problems
