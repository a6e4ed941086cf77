"""Chaos runs: the same experiment, clean and faulted, must not differ.

This is the checkable form of the repo's robustness claim.  A chaos run
executes one experiment twice — once with injection forced off, once
under a :class:`~repro.faults.plan.FaultPlan` — through the *full*
production path, each against its own isolated cache directory.  Each
run is two passes of the same experiment: a cold pass whose shards run
in the sweep scheduler's process pool (where worker crash/hang/pool
faults and stream-cache saves fire), then the measured warm pass, which
loads every stream from the cache the cold pass filled (where
stream-cache load faults fire).  The faulted run is held to three
standards:

1. **bit-identical artifact**: the rendered figure (table, notes and the
   raw series as JSON) must match the clean run byte for byte;
2. **every fault handled**: each injected fault — and each deterministic
   plan spec, which covers faults whose in-worker records die with a
   crashed worker — must be matched by a ``faults.handled`` recovery
   event at the same site in the run manifest.  A worker crash itself is
   drawn, and recorded, in the parent at the shard's dispatch;
3. **equal evaluation counters**: the replay-path counters and the
   invariant ``violations``/``result_checks`` of the two manifests must
   be identical — chaos may cost extra walks and retries, but it may
   never change *how results are computed*.  ``inclusion_sweeps`` counts
   one sweep per checked walk, so the faulted run may only have more.

``repro chaos --plan plan.json`` is the CLI entry point; both manifests
and artifacts are written under ``--out`` for post-mortems.
"""

from __future__ import annotations

import difflib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import faults, telemetry
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

__all__ = ["ChaosReport", "render_artifact", "run_chaos"]


@dataclass
class ChaosReport:
    """Everything ``repro chaos`` prints and exits on."""

    experiment_id: str
    out_dir: Path
    identical: bool
    injected: list = field(default_factory=list)   # faults.injected records
    handled_sites: set = field(default_factory=set)
    kinds: set = field(default_factory=set)        # distinct fault kinds fired
    problems: list = field(default_factory=list)   # human-readable failures
    artifact_diff: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.identical and not self.problems


def render_artifact(result) -> str:
    """A run's artifact as deterministic text (table + notes + series).

    Byte-compared between clean and faulted runs, so everything here must
    be a pure function of the result — no timestamps, no paths.
    """
    series = json.dumps(result.series, indent=2, sort_keys=True, default=float)
    out = (
        f"# {result.experiment_id}: {result.title}\n\n"
        f"```\n{result.table}\n```\n\n"
    )
    if result.notes:
        out += result.notes + "\n\n"
    return out + "## series\n\n```json\n" + series + "\n```\n"


def _one_run(experiment_id: str, config, workloads, out_dir: Path, label: str,
             plan: "FaultPlan | None", workers: int) -> tuple[str, dict]:
    """One run, cold pass then warm pass; returns (artifact text of the
    warm pass, manifest dict of both)."""
    from repro.experiments import clear_cache, get_spec, run_experiment

    run_dir = out_dir / label
    cfg = replace(config, stream_cache=str(run_dir / "cache"), faults=None)
    kwargs = {"workloads": tuple(workloads)} if workloads else {}
    # A build-only spec has no pool: both of its passes walk serially.
    pool = {"workers": workers} if get_spec(experiment_id).build is None else {}
    clear_cache()
    try:
        with faults.scope(plan):
            with telemetry.session(force=True, label=f"chaos-{label}") as sess:
                run_experiment(experiment_id, cfg, **pool, **kwargs)
                clear_cache()  # the warm pass reads streams from disk
                result = run_experiment(experiment_id, cfg, **kwargs)
            manifest_path = telemetry.write_manifest(
                run_dir, sess, config=cfg, experiments=[experiment_id]
            )
    finally:
        clear_cache()
    artifact = render_artifact(result)
    (run_dir / "artifact.md").write_text(artifact)
    return artifact, telemetry.load_manifest(manifest_path)


def _counter_problems(clean: dict, faulted: dict) -> "list[str]":
    """Compare two manifest summaries' evaluation counters.

    Chaos may add walks and retries, never change evaluation behaviour:
    the ``replay`` section and every ``invariants`` counter must match,
    except ``inclusion_sweeps`` — checked mode counts one sweep per
    content walk, and a faulted run legitimately re-walks (a lost
    worker, a failed cache save), so that counter may only grow.
    """
    problems = []
    if clean.get("replay") != faulted.get("replay"):
        problems.append(
            f"summary['replay'] differs: clean {clean.get('replay')} "
            f"vs faulted {faulted.get('replay')}"
        )
    inv_clean = clean.get("invariants") or {}
    inv_faulted = faulted.get("invariants") or {}
    for name in sorted(set(inv_clean) | set(inv_faulted)):
        a, b = inv_clean.get(name), inv_faulted.get(name)
        if name == "inclusion_sweeps" and a is not None and b is not None:
            ok = b >= a
        else:
            ok = a == b
        if not ok:
            problems.append(
                f"summary['invariants'][{name!r}] differs: "
                f"clean {a} vs faulted {b}"
            )
    return problems


def run_chaos(experiment_id: str, config, plan: FaultPlan, out_dir: "str | Path",
              workloads=None, workers: int = 2) -> ChaosReport:
    """Run ``experiment_id`` clean and faulted; verify they cannot be told
    apart by their artifacts.  See the module docstring for the checks."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    clean_artifact, clean_manifest = _one_run(
        experiment_id, config, workloads, out_dir, "baseline", None, workers
    )
    injector = FaultInjector(plan)
    faulted_artifact, faulted_manifest = _one_run(
        experiment_id, config, workloads, out_dir, "faulted", injector, workers
    )

    report = ChaosReport(
        experiment_id=experiment_id,
        out_dir=out_dir,
        identical=faulted_artifact == clean_artifact,
    )
    if not report.identical:
        report.artifact_diff = list(
            difflib.unified_diff(
                clean_artifact.splitlines(), faulted_artifact.splitlines(),
                "baseline/artifact.md", "faulted/artifact.md", lineterm="", n=1,
            )
        )[:40]
        report.problems.append("faulted artifact differs from the baseline")

    events = faulted_manifest.get("events", [])
    report.injected = [e for e in events if e.get("name") == "faults.injected"]
    report.handled_sites = {
        e.get("site") for e in events if e.get("name") == "faults.handled"
    }
    report.kinds = {e.get("kind") for e in report.injected}

    # Every injected fault must have been recovered from at its site.
    for record in report.injected:
        if record.get("site") not in report.handled_sites:
            report.problems.append(
                f"injected fault at {record.get('site')} "
                f"({record.get('kind')}, key={record.get('key')}) "
                f"has no faults.handled event"
            )
    # Deterministic specs are *known* to have fired even when the firing
    # process died before it could report (worker crash): hold them to the
    # same standard via the parent-side recovery record.
    for spec in plan.faults:
        if not spec.hits:
            continue
        if spec.site in report.handled_sites:
            report.kinds.add(spec.kind)
        else:
            report.problems.append(
                f"planned fault {spec.kind!r} at {spec.site} "
                f"(match={spec.match}) left no faults.handled event"
            )

    report.problems.extend(_counter_problems(
        clean_manifest.get("summary", {}), faulted_manifest.get("summary", {})
    ))
    return report
