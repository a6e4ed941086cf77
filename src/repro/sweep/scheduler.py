"""Resumable sharded sweep execution over worker processes.

Cells that share a content trajectory — same (machine, policy, seed,
workload) — are grouped into one *shard*: the shard's worker walks the
trajectory once (through the shared persistent stream cache) and
evaluates every scheme cell against it, exactly how a memoized
:class:`ExperimentRunner` amortizes walks inside one process.
Shards fan out over a :class:`~concurrent.futures.ProcessPoolExecutor`,
the repo's one process pool, with one misbehaviour budget: a worker that
crashes, hangs past the timeout, or raises loses only its own shard,
which re-executes serially in the parent; a pool that cannot spawn at
all degrades to the serial path.  The ``parallel.worker`` and
``parallel.pool`` fault sites and the ``parallel.*`` counters name that
budget.

Results land in the append-only store *as each shard completes*, one
transaction per shard (the parent is the only writer), so killing a
sweep at any point preserves every finished shard; restarting the same
:class:`SweepSpec` skips every fingerprint already recorded and the
final canonical store content is identical to an uninterrupted run's.

A failing cell (a bug, or an injected ``sweep.cell`` fault) is skipped
and reported — never written — so the next run re-attempts exactly that
cell.

Observability (see :mod:`repro.sweep.journal`): the parent journals
every lifecycle event to ``<store-stem>.journal.ndjson`` regardless of
telemetry activation, and pooled workers send periodic heartbeats
(current cell, cells done, accesses replayed, rss) over a manager queue
so the parent can tell a hung worker from a long cell — journalling
``worker_stalled`` *before* the ``REPRO_WORKER_TIMEOUT`` serial
fallback fires.  Journal writes happen only in the scheduler parent,
never on the per-cell simulation path.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import SimpleNamespace

from repro import faults, telemetry
from repro.results.store import CellRow, ResultsStore
from repro.sim.charging import ENERGY_CATEGORIES
from repro.sim.runner import ExperimentRunner
from repro.sim.streamcache import CACHE_ENV
from repro.hierarchy.inclusion import InclusionPolicy
from repro.util.validation import check_positive
from repro.sweep.journal import JOURNAL_SCHEMA, SweepJournal, journal_path
from repro.sweep.spec import (
    CellSpec,
    SweepSpec,
    build_scheme,
    cell_recal_period,
)

__all__ = [
    "HEARTBEAT_ENV",
    "SweepReport",
    "default_stream_cache",
    "default_worker_timeout",
    "default_workers",
    "heartbeat_interval",
    "run_cells",
    "run_sweep",
    "shard_cells",
    "sweep_stream_cache",
]

#: Environment override for the worker heartbeat period in seconds
#: (``0`` disables heartbeats; stall detection then rests on dispatch
#: time alone).
HEARTBEAT_ENV = "REPRO_HEARTBEAT"
DEFAULT_HEARTBEAT_S = 2.0

#: How often the parent drains heartbeats while waiting on a future.
_POLL_S = 0.2

#: Environment override for the per-shard worker timeout (seconds).
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"

#: Generous default: a shard is minutes at most; a worker silent for this
#: long is treated as lost and its shard re-runs serially.
DEFAULT_WORKER_TIMEOUT_S = 600.0


def default_workers() -> int:
    """Pool width: ``REPRO_PARALLEL`` if set, else cores-1 (min 1).

    A non-integer ``REPRO_PARALLEL`` (``"auto"``, ``"4x"``, …) is not an
    error — a misconfigured shell must not abort a long run — it warns
    and falls back to the cores-1 default.
    """
    env = os.environ.get("REPRO_PARALLEL")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            telemetry.event("parallel.bad_env", value=env)
            warnings.warn(
                f"ignoring non-integer REPRO_PARALLEL={env!r}; "
                f"falling back to cores-1",
                RuntimeWarning,
                stacklevel=2,
            )
    return max(1, (os.cpu_count() or 2) - 1)


def default_worker_timeout() -> float:
    """Per-shard result timeout: active fault plan, env, else the default.

    A fault plan's ``worker_timeout_s`` wins (chaos tests shrink it so a
    ``hang`` fault converts to a timeout in seconds, not minutes), then
    ``REPRO_WORKER_TIMEOUT``, then :data:`DEFAULT_WORKER_TIMEOUT_S`.  An
    env value that is not a positive number of seconds (non-numeric,
    zero, negative, NaN) warns and falls back, same contract as
    ``REPRO_PARALLEL``; ``inf`` means never time out.
    """
    injector = faults.current()
    if injector is not None and injector.plan.worker_timeout_s is not None:
        return injector.plan.worker_timeout_s
    env = os.environ.get(WORKER_TIMEOUT_ENV)
    if env:
        try:
            value = float(env)
        except ValueError:
            value = float("nan")
        if value > 0:
            return value
        telemetry.event("parallel.bad_env", value=env)
        warnings.warn(
            f"ignoring {WORKER_TIMEOUT_ENV}={env!r} (not a positive number "
            f"of seconds); falling back to {DEFAULT_WORKER_TIMEOUT_S:.0f}s",
            RuntimeWarning,
            stacklevel=2,
        )
    return DEFAULT_WORKER_TIMEOUT_S


def _worker_faults(workload_name: str) -> None:
    """The ``parallel.worker`` fault site, applied at worker entry.

    ``crash`` dies without cleanup (``os._exit`` — the pool reports a
    broken executor, exactly like an OOM-killed worker), ``hang`` stalls
    past the parent's timeout, ``exception`` raises.  All three must be
    absorbed by :func:`_run_pooled`'s serial fallback.
    """
    fired = faults.check("parallel.worker", key=workload_name)
    if fired is None:
        return
    if fired.kind == "crash":
        os._exit(23)
    elif fired.kind == "hang":
        time.sleep(float(fired.spec.param("sleep_s", 60.0)))
    elif fired.kind == "exception":
        raise faults.InjectedWorkerError(
            f"injected worker exception for {workload_name!r}"
        )


def heartbeat_interval() -> float:
    """Heartbeat period: ``REPRO_HEARTBEAT`` seconds, else 2.0."""
    raw = os.environ.get(HEARTBEAT_ENV, "").strip()
    if not raw:
        return DEFAULT_HEARTBEAT_S
    try:
        return max(0.0, float(raw))
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {HEARTBEAT_ENV}={raw!r}; "
            f"using {DEFAULT_HEARTBEAT_S:g}s",
            RuntimeWarning,
            stacklevel=2,
        )
        return DEFAULT_HEARTBEAT_S


@dataclass
class SweepReport:
    """What one ``run_sweep`` invocation did (printed by ``repro sweep``)."""

    sweep: str
    store_path: Path
    total: int                 # cells in the expanded grid
    resumed: int               # already in the store, skipped by fingerprint
    completed: int             # rows appended by this run
    failed: list = field(default_factory=list)   # (fingerprint, label, reason)
    shards: int = 0
    workers: int = 1
    wall_s: float = 0.0
    digest: str = ""
    journal_path: "Path | None" = None

    @property
    def ok(self) -> bool:
        return not self.failed and self.resumed + self.completed == self.total


def default_stream_cache(store_path: Path) -> "str | None":
    """Store-adjacent stream-cache directory (``None`` defers to an
    explicit ``REPRO_STREAM_CACHE`` environment so :func:`resolve_cache`
    keeps honouring it)."""
    if os.environ.get(CACHE_ENV, "").strip():
        return None
    return str(store_path.with_name(store_path.stem + ".stream-cache"))


def sweep_stream_cache(spec: SweepSpec, store_path: Path) -> "str | None":
    """The shared stream-cache directory for a sweep's workers.

    Spec wins, then an explicit ``REPRO_STREAM_CACHE`` environment,
    else a directory next to the store — a sweep always runs with the
    cache as shared backend, because resumes and scheme-axis grids revisit
    the same trajectories constantly.
    """
    if spec.stream_cache:
        return spec.stream_cache
    return default_stream_cache(store_path)


def _ensure_plan(faults_plan: "str | None") -> None:
    """Activate an explicitly passed fault plan (unless one is already
    installed) — so plan-driven faults fire even at sites reached before
    the first :class:`ExperimentRunner` exists (worker entry, pool spawn)."""
    if faults_plan:
        faults.ensure(SimpleNamespace(faults=str(faults_plan)))


def shard_cells(cells) -> list:
    """Group cells by content trajectory, preserving first-seen order.

    Every axis that :meth:`CellSpec.sim_config` forwards to the runner
    config is part of the key — a shard's single runner must be valid
    for each of its cells.
    """
    shards: dict = {}
    for cell in cells:
        key = (cell.machine, cell.policy, cell.seed, cell.workload,
               cell.refs_per_core, cell.replacement, cell.fill_weight)
        shards.setdefault(key, []).append(cell)
    return list(shards.values())


# --------------------------------------------------------------- metrics
def _metrics(result, num_levels: int) -> dict:
    """Deterministic scalar metrics for one cell row."""
    out = {
        "exec_cycles": float(result.exec_cycles),
        "dynamic_nj": float(result.dynamic_nj),
        "static_nj": float(result.static_nj),
        "total_nj": float(result.total_nj),
        "l1_misses": int(result.l1_misses),
        "skips": int(result.skips),
        "false_positives": int(result.false_positives),
        "true_misses": int(result.true_misses),
        "skip_coverage": float(result.skip_coverage),
        "recal_stall_cycles": float(result.recal_stall_cycles),
    }
    for lvl in range(1, num_levels + 1):
        out[f"hit_rate_L{lvl}"] = float(result.hit_rates.get(lvl, 0.0))
    return out


def _counters() -> dict:
    sess = telemetry.active()
    return dict(sess.registry.counters) if sess is not None else {}


_FAULT_PREFIXES = ("faults.", "stream_cache.", "parallel.")


def _fault_delta(before: dict) -> dict:
    """Per-cell fault/cache counter movement (the row's fault summary)."""
    sess = telemetry.active()
    if sess is None:
        return {}
    out = {}
    for key, value in sess.registry.counters.items():
        if not key.startswith(_FAULT_PREFIXES):
            continue
        delta = value - before.get(key, 0)
        if delta:
            out[key] = delta
    return out


#: Span name -> journal/histogram stage key for per-cell stage timings.
_STAGE_SPANS = {
    "content_walk": "walk",
    "replay": "replay",
    "energy_accounting": "charge",
}


def _span_mark() -> "int | None":
    """Current span-record count, or None when untraced — the cheap way
    to attribute subsequent spans to one cell without rescanning all."""
    sess = telemetry.active()
    return len(sess.tracer.records) if sess is not None else None


def _stage_delta(mark: "int | None") -> dict:
    """Per-stage seconds for the spans recorded since ``mark``."""
    sess = telemetry.active()
    if sess is None or mark is None:
        return {}
    out: dict = {}
    for rec in sess.tracer.records[mark:]:
        stage = _STAGE_SPANS.get(rec.name)
        if stage is not None:
            out[stage] = out.get(stage, 0.0) + rec.duration_s
    return out


# ------------------------------------------------------------ heartbeats
def _rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknowable)."""
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


class _Beacon:
    """Worker-side heartbeat sender: a daemon thread ticks the manager
    queue every ``interval`` seconds, plus an immediate tick at every
    cell or batch start so the parent always knows the current work.

    Queue sends are fire-and-forget — a dead manager (parent already
    gone) must never take the shard down with it.
    """

    def __init__(self, channel, shard: int, workload: str, total: int,
                 interval: float) -> None:
        self._channel = channel
        self._shard = shard
        self._workload = workload
        self._total = total
        self._interval = interval
        self._stop = threading.Event()
        self._cell = ""
        self._done = 0
        self._thread = threading.Thread(
            target=self._loop, name="sweep-heartbeat", daemon=True
        )

    def start(self) -> None:
        if self._interval > 0:
            self._thread.start()

    def progress(self, cell_label: str, done: int) -> None:
        self._cell = cell_label
        self._done = done
        self.tick()

    def tick(self) -> None:
        sess = telemetry.active()
        accesses = (
            int(sess.registry.counter_total("content.accesses"))
            if sess is not None else 0
        )
        payload = {
            "t": round(time.time(), 3),
            "shard": self._shard,
            "workload": self._workload,
            "pid": os.getpid(),
            "cell": self._cell,
            "done": self._done,
            "cells": self._total,
            "accesses": accesses,
            "rss_kb": _rss_kb(),
        }
        try:
            self._channel.put_nowait(payload)
        except Exception:
            pass

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.tick()

    def stop(self) -> None:
        self._stop.set()
        self.tick()


def _execute_cells(cells, fingerprints, sweep_name: str,
                   stream_cache: "str | None", faults_plan: "str | None",
                   progress=None) -> tuple:
    """Run one shard's cells (with their ``fingerprints``, in the same
    order) in this process.

    Returns ``(rows, failures, stages)`` where ``stages`` maps each
    completed fingerprint to its per-stage seconds (walk/replay/charge,
    empty when untraced).  One runner per shard: the content walk happens
    once (via the shared disk cache when enabled), and every two-phase
    cell is evaluated in one batch against it
    (:meth:`ExperimentRunner.run_many`); exclusive ReDHiP cells run the
    integrated simulator one by one.  A cell that trips the
    ``sweep.cell`` fault site, or fails in the batch, fails alone.  A
    row's ``wall_s`` is its batch share (its replay plus an equal share of
    the batch's shared work).  The shard's fault-counter movement lands
    on its first row; its traced stage seconds are shared equally among
    its rows.  ``progress`` (the worker beacon's ``progress``) is called
    before each exclusive cell and before the batch, with (the cell's or
    the batch's label, cells settled so far).
    """
    rows, failures, stages = [], [], {}
    cfg = cells[0].sim_config(stream_cache=stream_cache, faults=faults_plan)
    runner = ExperimentRunner(cfg)
    outcomes: dict = {}
    batch, schemes, exclusive = [], [], []
    for index, cell in enumerate(cells):
        if faults.check("sweep.cell", key=cell.workload) is not None:
            outcomes[index] = (faults.InjectedWorkerError(
                f"injected cell failure for {cell.label()}"), 0.0)
            continue
        try:
            # No shared-table two-phase replay without an LLC-superset
            # policy: exclusive ReDHiP runs the integrated per-level
            # table stack (Figure 13).
            if (cell.scheme == "redhip"
                    and not InclusionPolicy.parse(cell.policy).llc_is_superset):
                exclusive.append(index)
            else:
                schemes.append(build_scheme(cell, cfg.machine))
                batch.append(index)
        except Exception as exc:
            outcomes[index] = (exc, 0.0)
    before = _counters()
    mark = _span_mark()
    for index in exclusive:
        cell = cells[index]
        if progress is not None:
            progress(cell.label(), len(outcomes))
        t0 = time.perf_counter()
        try:
            with telemetry.span("sweep_cell", cell=cell.label()):
                result = runner.run_exclusive_redhip(
                    cell.workload, recal_period=cell_recal_period(cell, cfg.machine))
        except Exception as exc:
            result = exc
        outcomes[index] = (result, time.perf_counter() - t0)
    if batch:
        if progress is not None:
            progress(f"{cells[0].workload} batch of {len(batch)} cells", len(outcomes))
        try:
            with telemetry.span("sweep_batch", workload=cells[0].workload,
                                cells=len(batch)):
                results, walls = runner.run_many(cells[0].workload, schemes)
        except Exception as exc:
            results, walls = [exc] * len(batch), [0.0] * len(batch)
        outcomes.update(zip(batch, zip(results, walls)))
    delta = _fault_delta(before)
    completed = sum(not isinstance(result, Exception) for result, _ in outcomes.values())
    shared_stages = {stage: round(secs / completed, 6)
                     for stage, secs in _stage_delta(mark).items()} if completed else {}
    for index, (cell, fingerprint) in enumerate(zip(cells, fingerprints)):
        result, wall = outcomes[index]
        if isinstance(result, Exception):
            label = cell.label()
            reason = f"{result.__class__.__name__}: {result}"
            faults.handled("sweep.cell", "cell_skipped", cell=label, error=reason)
            warnings.warn(
                f"sweep cell {label} failed ({reason}); skipped — "
                f"rerun the sweep to retry it",
                RuntimeWarning,
                stacklevel=2,
            )
            failures.append((fingerprint, label, reason))
            continue
        stages[fingerprint] = shared_stages
        telemetry.observe("sweep.cell_wall_s", wall)
        for stage, secs in shared_stages.items():
            telemetry.observe("sweep.stage_s", secs, stage=stage)
        canon = cell.canonical()
        rows.append(CellRow(
            fingerprint=fingerprint,
            sweep=sweep_name,
            machine=canon.machine,
            workload=canon.workload,
            scheme=canon.scheme,
            policy=canon.policy,
            refs_per_core=canon.refs_per_core,
            seed=canon.seed,
            pt_kb=canon.pt_kb,
            recal_multiple=canon.recal_multiple,
            probe_mode=canon.probe_mode,
            metrics=_metrics(result, cfg.machine.num_levels),
            energy=result.ledger.categories_nj(ENERGY_CATEGORIES),
            wall_s=wall,
            faults=delta if len(rows) == 0 else {},
        ))
    return rows, failures, stages


def run_shard(payloads: list, fingerprints: list, sweep_name: str,
              stream_cache: "str | None", faults_plan: "str | None",
              heartbeats=None, shard: int = 0,
              interval: float = DEFAULT_HEARTBEAT_S) -> tuple:
    """Worker entry point (module-level, picklable).

    Cells travel as dicts and are rebuilt here (the workload generators
    are deterministic: shipping a few ints beats pickling trace arrays),
    next to the fingerprints the parent already computed.  The worker always runs its own
    telemetry session so per-cell fault summaries exist even when the
    parent is untraced; the parent merges the snapshot only when tracing.
    The ``parallel.worker`` fault site fires at entry, keyed by the
    shard's workload, so existing crash/hang plans apply unchanged.
    ``heartbeats`` is a manager queue proxy (or None on the serial path).
    """
    cells = [CellSpec(**p) for p in payloads]
    _ensure_plan(faults_plan)
    _worker_faults(cells[0].workload)
    with telemetry.session(force=True, label=f"sweep-{cells[0].workload}") as sess:
        beacon = None
        if heartbeats is not None:
            beacon = _Beacon(heartbeats, shard, cells[0].workload,
                             len(cells), interval)
            beacon.start()
        try:
            rows, failures, stages = _execute_cells(
                cells, fingerprints, sweep_name, stream_cache, faults_plan,
                progress=beacon.progress if beacon is not None else None)
        finally:
            if beacon is not None:
                beacon.stop()
        snapshot = sess.snapshot()
    return rows, failures, stages, snapshot


def _ingest(store: ResultsStore, rows, failures, report: SweepReport,
            journal: SweepJournal, stages: "dict | None" = None) -> None:
    """Record one shard's outcome (parent-side single writer).

    The shard's rows commit in one store transaction, and only then is
    each outcome journalled, so a journalled ``cell_completed`` is always
    durable in the store.  Every outcome is journalled *unconditionally*;
    the ``sweep.cell`` telemetry events and ``sweep.cells.*`` counters
    mirror it only when a session is active.
    """
    stages = stages or {}
    with store.transaction():
        accepted = [store.append(row) for row in rows]
    for row, added in zip(rows, accepted):
        if added:
            report.completed += 1
            journal.append("cell_completed", fingerprint=row.fingerprint,
                           cell=f"{row.workload}/{row.scheme}",
                           wall_s=round(row.wall_s, 6), faults=row.faults,
                           stages=stages.get(row.fingerprint, {}))
            telemetry.count("sweep.cells.completed")
            telemetry.event("sweep.cell", fingerprint=row.fingerprint,
                            cell=f"{row.workload}/{row.scheme}",
                            wall_s=round(row.wall_s, 6))
        else:
            # Another run of the same spec got there first (e.g. two
            # resumes racing): append-only means first write wins and
            # ours — bit-identical by construction — is dropped.
            report.resumed += 1
            journal.append("cell_resumed", fingerprint=row.fingerprint,
                           raced=True)
            telemetry.count("sweep.cells.resumed")
    for fingerprint, label, reason in failures:
        report.failed.append((fingerprint, label, reason))
        journal.append("cell_failed", fingerprint=fingerprint, cell=label,
                       reason=reason)
        telemetry.count("sweep.cells.failed")
        telemetry.event("sweep.cell_failed", fingerprint=fingerprint,
                        cell=label, reason=reason)


def run_sweep(
    spec: SweepSpec,
    store_path: "str | Path",
    workers: "int | None" = None,
    timeout_s: "float | None" = None,
    max_cells: "int | None" = None,
    faults_plan: "str | None" = None,
) -> SweepReport:
    """Run (or resume) one sweep; every completed cell lands in the store.

    ``max_cells`` bounds how many *pending* cells this invocation runs —
    the CI smoke and the resume tests use it to stop a sweep "mid-run"
    deterministically; production runs leave it ``None``.
    """
    store_path = Path(store_path)
    return run_cells(
        spec.cells(), spec.name, store_path,
        workers=workers, timeout_s=timeout_s, max_cells=max_cells,
        faults_plan=faults_plan,
        stream_cache=sweep_stream_cache(spec, store_path),
    )


def run_cells(
    cells,
    name: str,
    store_path: "str | Path",
    workers: "int | None" = None,
    timeout_s: "float | None" = None,
    max_cells: "int | None" = None,
    faults_plan: "str | None" = None,
    stream_cache: "str | None" = None,
    fingerprints: "list | None" = None,
) -> SweepReport:
    """Run (or resume) an explicit cell list against a store.

    The cells-level entry point beneath :func:`run_sweep` — the
    experiment driver compiles figure specs straight to cell lists and
    lands here, inheriting resume, sharding, journaling and fault
    policies without a :class:`SweepSpec` in between.  ``stream_cache``
    defaults to the store-adjacent directory (unless an explicit
    ``REPRO_STREAM_CACHE`` claims it).  ``fingerprints`` are the cells'
    fingerprints in order, when the caller already has them; each cell is
    otherwise hashed exactly once here.  ``workers`` defaults to
    :func:`default_workers`, ``timeout_s`` to
    :func:`default_worker_timeout`; an explicit ``timeout_s`` must be a
    positive number of seconds (``inf`` never times out).
    """
    store_path = Path(store_path)
    _ensure_plan(faults_plan)
    cells = list(cells)
    if fingerprints is None:
        fingerprints = [cell.fingerprint() for cell in cells]
    elif len(fingerprints) != len(cells):
        raise ValueError(f"{len(fingerprints)} fingerprints for "
                         f"{len(cells)} cells")
    report = SweepReport(sweep=name, store_path=store_path,
                         total=len(cells), resumed=0, completed=0)
    if stream_cache is None:
        stream_cache = default_stream_cache(store_path)
    nworkers = workers if workers is not None else default_workers()
    check_positive("workers", nworkers)
    if timeout_s is not None:
        check_positive("timeout_s", timeout_s)
    timeout = timeout_s if timeout_s is not None else default_worker_timeout()

    t0 = time.perf_counter()
    with ResultsStore(store_path) as store, \
            SweepJournal(journal_path(store_path)) as journal:
        report.journal_path = journal.path
        done = store.completed()
        pending, fingerprint_of, resumed_fps = [], {}, []
        for cell, fp in zip(cells, fingerprints):
            if fp in done:
                report.resumed += 1
                resumed_fps.append(fp)
                telemetry.count("sweep.cells.resumed")
            else:
                pending.append(cell)
                fingerprint_of[cell] = fp
        if max_cells is not None:
            pending = pending[:max_cells]
        shards = [(shard, [fingerprint_of[cell] for cell in shard])
                  for shard in shard_cells(pending)]
        report.shards = len(shards)
        report.workers = min(nworkers, len(shards)) if shards else 0

        journal.append("run_started", sweep=name, schema=JOURNAL_SCHEMA,
                       store=str(store_path), pid=os.getpid(),
                       total=len(cells), pending=len(pending),
                       resumed=report.resumed, shards=len(shards),
                       workers=report.workers)
        for fp in resumed_fps:
            journal.append("cell_resumed", fingerprint=fp)

        def _on_handled(site, action, fields):
            journal.append("fault_handled", site=site, action=action, **fields)

        faults.add_listener(_on_handled)
        try:
            with telemetry.span("sweep", sweep=name, cells=len(cells),
                                pending=len(pending), shards=len(shards)):
                telemetry.count("sweep.runs")
                telemetry.count("sweep.cells.planned", len(cells))
                if shards:
                    if nworkers == 1 or len(shards) == 1:
                        _run_inline(shards, name, store, report,
                                    stream_cache, faults_plan, journal)
                    else:
                        _run_pooled(shards, name, store, report, stream_cache,
                                    faults_plan, nworkers, timeout, journal)
        finally:
            faults.remove_listener(_on_handled)
        report.wall_s = time.perf_counter() - t0
        report.digest = store.digest()
        journal.append("run_finished", completed=report.completed,
                       resumed=report.resumed, failed=len(report.failed),
                       wall_s=round(report.wall_s, 6), digest=report.digest,
                       ok=report.ok)
        journal.sync()
    return report


def _run_inline(shards, name, store, report, stream_cache, faults_plan,
                journal: SweepJournal) -> None:
    """Run ``(cells, fingerprints)`` shards one after another in this
    process, ingesting each as it finishes."""
    for index, (shard, fps) in enumerate(shards):
        journal.append("shard_dispatched", shard=index,
                       workload=shard[0].workload, cells=len(shard),
                       inline=True, fingerprints=fps)
        rows, failures, stages = _execute_cells(
            shard, fps, name, stream_cache, faults_plan)
        _ingest(store, rows, failures, report, journal, stages)


def _heartbeat_channel() -> tuple:
    """A (manager, queue) pair for worker heartbeats, or (None, None).

    A plain ``multiprocessing.Queue`` cannot travel through
    ``ProcessPoolExecutor.submit``; a manager proxy can.  The manager is
    one extra parent-owned process for the sweep's duration — failure to
    spawn it degrades to no heartbeats, never to a failed sweep.
    """
    try:
        manager = multiprocessing.Manager()
        return manager, manager.Queue()
    except Exception as exc:
        warnings.warn(
            f"heartbeat manager failed to start ({exc.__class__.__name__}: "
            f"{exc}); sweep runs without worker heartbeats",
            RuntimeWarning,
            stacklevel=3,
        )
        return None, None


class _ShardWatch:
    """Parent-side liveness bookkeeping for one dispatched shard."""

    __slots__ = ("workload", "last_beat", "last_cell", "stalled", "done")

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.last_beat = time.monotonic()
        self.last_cell = ""
        self.stalled = False
        self.done = False


def _drain_heartbeats(channel, journal: SweepJournal, watches: dict,
                      traced: bool) -> None:
    """Relay every queued worker tick into the journal (non-blocking)."""
    if channel is None:
        return
    while True:
        try:
            beat = channel.get_nowait()
        except queue_mod.Empty:
            return
        except Exception:
            return
        journal.append("heartbeat", **beat)
        if traced:
            telemetry.count("sweep.heartbeat")
        watch = watches.get(beat.get("shard"))
        if watch is not None:
            watch.last_beat = time.monotonic()
            watch.last_cell = str(beat.get("cell", ""))
            if watch.stalled:
                watch.stalled = False
                journal.append("worker_recovered", shard=beat.get("shard"),
                               workload=watch.workload)


def _check_stalls(journal: SweepJournal, watches: dict, stall_after: float,
                  traced: bool) -> None:
    """Journal ``worker_stalled`` for every silent-too-long live shard —
    once per silence episode, and always before the timeout fallback."""
    now = time.monotonic()
    for index, watch in watches.items():
        if watch.done or watch.stalled:
            continue
        silent = now - watch.last_beat
        if silent >= stall_after:
            watch.stalled = True
            journal.append("worker_stalled", shard=index,
                           workload=watch.workload,
                           silent_s=round(silent, 3), cell=watch.last_cell)
            if traced:
                telemetry.count("sweep.worker_stalled")
                telemetry.event("sweep.worker_stalled", shard=index,
                                workload=watch.workload,
                                silent_s=round(silent, 3))


def _await_shard(fut, timeout: float, tick) -> tuple:
    """Wait on one shard future with the same per-future timeout budget
    as a bare ``result(timeout=...)``, draining heartbeats via ``tick``
    between short polls so the journal stays live while we block."""
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise FutureTimeoutError()
        try:
            return fut.result(timeout=min(_POLL_S, remaining))
        except FutureTimeoutError:
            tick()


def _run_pooled(shards, name, store, report, stream_cache, faults_plan,
                nworkers, timeout, journal: SweepJournal) -> None:
    """Fan ``(cells, fingerprints)`` shards over a process pool,
    absorbing every worker loss.

    Spawn failure degrades to all-serial; a timeout/crash/exception
    costs only that shard, which re-runs serially in the parent (skipping
    the worker-entry fault site, so an injected crash does not re-fire in
    the fallback)."""
    try:
        fired = faults.check("parallel.pool")
        if fired is not None and fired.kind == "spawn_fail":
            raise faults.InjectedFault(11, "injected pool spawn failure")
        pool = ProcessPoolExecutor(max_workers=min(nworkers, len(shards)))
    except OSError as exc:
        faults.handled("parallel.pool", "serial_all", workloads=len(shards),
                       error=f"{exc.__class__.__name__}: {exc}")
        journal.append("fallback_serial", scope="pool",
                       reason=f"{exc.__class__.__name__}: {exc}")
        warnings.warn(
            f"sweep pool failed to spawn ({exc}); running "
            f"{len(shards)} shard(s) serially",
            RuntimeWarning,
            stacklevel=3,
        )
        _run_inline(shards, name, store, report, stream_cache, faults_plan,
                    journal)
        return
    telemetry.count("parallel.pools")
    traced = telemetry.active() is not None
    interval = heartbeat_interval()
    manager, channel = (_heartbeat_channel() if interval > 0
                        else (None, None))
    # Stall threshold: several missed beats, but always strictly before
    # the timeout fallback so the journal explains what is about to die.
    stall_after = min(max(3 * interval, 1.0), 0.5 * timeout)
    watches: dict = {}
    lost: list = []
    abandoned = False

    def tick() -> None:
        if channel is None:
            # No heartbeat channel: silence is indistinguishable from
            # health, so stall detection stays off (timeout still fires).
            return
        _drain_heartbeats(channel, journal, watches, traced)
        _check_stalls(journal, watches, stall_after, traced)

    try:
        futures = []
        for index, (shard, fps) in enumerate(shards):
            fut = pool.submit(run_shard, [asdict(c) for c in shard], fps,
                              name, stream_cache, faults_plan,
                              channel, index, interval)
            watches[index] = _ShardWatch(shard[0].workload)
            journal.append("shard_dispatched", shard=index,
                           workload=shard[0].workload, cells=len(shard),
                           fingerprints=fps)
            futures.append((index, shard, fps, fut))
        for index, shard, fps, fut in futures:
            try:
                rows, failures, stages, snapshot = _await_shard(
                    fut, timeout, tick)
            except FutureTimeoutError:
                lost.append((index, shard, fps,
                             f"timed out after {timeout:g}s"))
                abandoned = True
                continue
            except BrokenExecutor:
                lost.append((index, shard, fps,
                             "died without returning a result "
                             "(process pool broken)"))
                abandoned = True
                continue
            except Exception as exc:
                lost.append((index, shard, fps,
                             f"raised {exc.__class__.__name__}: {exc}"))
                continue
            finally:
                watches[index].done = True
            tick()
            if traced:
                telemetry.merge_snapshot(snapshot)
            _ingest(store, rows, failures, report, journal, stages)
    finally:
        tick()
        pool.shutdown(wait=not abandoned, cancel_futures=True)
        if manager is not None:
            manager.shutdown()
    for index, shard, fps, reason in lost:
        telemetry.count("parallel.worker_lost")
        journal.append("worker_lost", shard=index,
                       workload=shard[0].workload, reason=reason)
        journal.append("fallback_serial", scope="shard", shard=index,
                       reason=reason)
        faults.handled("parallel.worker", "serial_fallback",
                       workload=shard[0].workload, reason=reason)
        warnings.warn(
            f"sweep worker for {shard[0].workload!r} {reason}; "
            f"re-running the shard serially",
            RuntimeWarning,
            stacklevel=3,
        )
        rows, failures, stages = _execute_cells(shard, fps, name,
                                                stream_cache, faults_plan)
        _ingest(store, rows, failures, report, journal, stages)
