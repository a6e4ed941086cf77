"""Resumable sharded sweep execution over worker processes.

Cells that share a content trajectory — same (machine, policy, seed,
workload) — are grouped into one *shard*: the shard's worker walks the
trajectory once (through the shared persistent stream cache) and
evaluates every scheme cell against it, exactly how a memoized
:class:`ExperimentRunner` amortizes walks inside one process.
Shards fan out over ``min(workers, shards)`` long-lived worker
processes, the repo's one process pool, with one misbehaviour budget: a
worker that crashes, raises, or holds its shard past the timeout
(counted from dispatch; the parent kills it) loses only that shard,
which re-executes serially in the parent while a fresh worker takes its
place; a pool that cannot spawn at all degrades to the serial path.
The ``parallel.*`` fault sites and counters name that budget.

Results land in the append-only store *as each shard completes*, in shard
order, one transaction per shard (the parent is the only writer), so a
killed sweep keeps every finished shard; restarting the same
:class:`SweepSpec` skips every fingerprint already recorded and the
final canonical store content is identical to an uninterrupted run's.

A failing cell (a bug, or an injected ``sweep.cell`` fault) is skipped
and reported — never written — so the next run re-attempts exactly that
cell.

Every shard runs through :func:`run_shard` — inline, in a pool worker,
on the serial path of a pool that could not spawn, and when a lost shard
re-runs in the parent — and returns the same record: its rows and
failures, its walk/replay/charge seconds (plain clock pairs taken where
the work happens) and the recoveries its ``faults.handled`` calls made.
A telemetry session is opened for a shard only when a pool worker runs
it for a traced parent.

Observability (see :mod:`repro.sweep.journal`): the parent journals
every lifecycle event to ``<store-stem>.journal.ndjson`` regardless of
telemetry activation — each shard's handled faults and per-cell stage
seconds, and its own recoveries (pool spawn failure, lost-shard
fallback) where it makes them.  Pooled workers send periodic heartbeats
(current cell, cells done, rss) over their pipe to the parent so it can
tell a hung worker from a long cell — journalling ``worker_stalled``
*before* the ``REPRO_WORKER_TIMEOUT`` serial fallback fires.  Journal
writes happen only in the scheduler parent, never on the per-cell
simulation path.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing.connection import wait
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

#: Environment override for the worker heartbeat period in seconds.
HEARTBEAT_ENV = "REPRO_HEARTBEAT"
DEFAULT_HEARTBEAT_S = 2.0

#: How long the parent waits on its workers' pipes between checks of
#: deadlines and stalls.
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


def _env_seconds(name: str, default: float, most: float = math.inf) -> float:
    """``name``'s value in seconds, else ``default``.  A value that is not
    a positive number of seconds up to ``most`` (non-numeric, zero,
    negative, NaN, too large) warns and falls back, same contract as
    ``REPRO_PARALLEL``."""
    env = os.environ.get(name, "").strip()
    if not env:
        return default
    try:
        value = float(env)
    except ValueError:
        value = float("nan")
    if 0 < value <= most:
        return value
    telemetry.event("parallel.bad_env", value=env)
    bound = f" up to {most:g}" if most < math.inf else ""
    warnings.warn(
        f"ignoring {name}={env!r} (not a positive number of seconds{bound}); "
        f"falling back to {default:g}s",
        RuntimeWarning,
        stacklevel=3,
    )
    return default


def default_worker_timeout() -> float:
    """Per-shard result timeout: active fault plan, env, else the default.

    A fault plan's ``worker_timeout_s`` wins (chaos tests shrink it so a
    ``hang`` fault converts to a timeout in seconds, not minutes), then
    ``REPRO_WORKER_TIMEOUT``, then :data:`DEFAULT_WORKER_TIMEOUT_S`;
    ``inf`` means never time out.
    """
    injector = faults.current()
    if injector is not None and injector.plan.worker_timeout_s is not None:
        return injector.plan.worker_timeout_s
    return _env_seconds(WORKER_TIMEOUT_ENV, DEFAULT_WORKER_TIMEOUT_S)


def _worker_faults(fired, workload_name: str) -> None:
    """Act out the ``parallel.worker`` fault the parent drew for this
    shard at dispatch (drawn there so its hit counters count per run, not
    per worker process).

    ``crash`` dies without cleanup (``os._exit``, like an OOM-killed
    worker), ``hang`` stalls past the parent's timeout, ``exception``
    raises.  All three must be absorbed by :func:`_run_pooled`'s serial
    fallback.
    """
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
    """Heartbeat period: ``REPRO_HEARTBEAT`` seconds, else 2.0.  A value
    that is not a positive number of seconds, or too long for a thread to
    wait (``inf``), warns and falls back."""
    return _env_seconds(HEARTBEAT_ENV, DEFAULT_HEARTBEAT_S,
                        most=threading.TIMEOUT_MAX)


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


# ------------------------------------------------------------ heartbeats
def _rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknowable)."""
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


class _Beacon:
    """Worker-side heartbeat sender: from construction, a daemon thread
    posts a tick every ``interval`` seconds, plus an immediate tick at
    every cell or batch start so the parent always knows the current work.

    Sends are fire-and-forget — a closed pipe (parent already gone) must
    never take the shard down with it.
    """

    def __init__(self, post, shard: int, workload: str, total: int,
                 interval: float) -> None:
        self._post = post
        self._shard = shard
        self._fixed = {"shard": shard, "workload": workload, "cells": total}
        self._interval = interval
        self._stop = threading.Event()
        self._cell = ""
        self._done = 0
        self._thread = threading.Thread(
            target=self._loop, name="sweep-heartbeat", daemon=True
        )
        self._thread.start()

    def progress(self, cell_label: str, done: int) -> None:
        self._cell = cell_label
        self._done = done
        self.tick()

    def tick(self) -> None:
        payload = {"t": round(time.time(), 3), **self._fixed,
                   "pid": os.getpid(), "cell": self._cell, "done": self._done,
                   "rss_kb": _rss_kb()}
        try:
            self._post(("beat", self._shard, payload))
        except Exception:
            pass

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.tick()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.tick()


def _evaluate(cells, stream_cache: "str | None", faults_plan: "str | None",
              progress=None) -> tuple:
    """Evaluate one shard's cells in this process: ``(outcomes, runner)``.

    ``outcomes`` holds, per cell in order, its result or the exception
    that failed it, and its seconds.  One runner per shard: the content
    walk happens once (via the shared disk cache when enabled), and every
    two-phase cell is evaluated in one batch against it
    (:meth:`ExperimentRunner.run_many`); exclusive ReDHiP cells run the
    integrated simulator one by one.  A cell that trips the ``sweep.cell``
    fault site, or fails in the batch, fails alone.  A cell's seconds are
    its batch share (its replay plus an equal share of the batch's shared
    work).  The runner's ``stage_s`` holds the shard's walk/replay/charge
    seconds.  ``progress`` (the worker beacon's ``progress``) is called before each
    exclusive cell and before the batch, with (the cell's or the batch's
    label, cells settled so far).
    """
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
    return [outcomes[index] for index in range(len(cells))], runner


def run_shard(cells: list, fingerprints: list, sweep_name: str,
              stream_cache: "str | None", faults_plan: "str | None",
              traced: bool = False, post=None, shard: int = 0,
              interval: float = DEFAULT_HEARTBEAT_S, fault=None) -> tuple:
    """Run one shard's cells (with their ``fingerprints``, in the same
    order): ``(rows, failures, stages, handled, snapshot)``.

    Every shard runs here, inline or in a pool worker.  ``stages`` is the
    per-stage seconds every completed row carries: the shard's walk,
    replay and charge totals shared equally among its completed rows.
    ``handled`` holds the shard's ``faults.handled`` records, collected
    whether or not telemetry is on; the shard's first row carries their
    count per ``site:action`` as its ``faults``.  ``traced`` says the
    parent runs a telemetry session that this process does not share (a
    pool worker's parent): the shard then records into a session of its
    own and returns its ``snapshot`` for the parent to merge, else
    ``snapshot`` is None and an inline shard records straight into its
    process's session, if any.  ``fault`` is the ``parallel.worker``
    fault the parent drew at dispatch, acted out here; ``post`` carries
    heartbeats to the parent every ``interval`` seconds.
    """
    _worker_faults(fault, cells[0].workload)
    rows, failures = [], []
    with telemetry.session(force=traced, label=f"sweep-{cells[0].workload}") as sess, \
            faults.collect() as handled:
        beacon = None
        if post is not None:
            beacon = _Beacon(post, shard, cells[0].workload, len(cells), interval)
        try:
            outcomes, runner = _evaluate(
                cells, stream_cache, faults_plan,
                progress=beacon.progress if beacon is not None else None)
        finally:
            if beacon is not None:
                beacon.stop()
        for cell, fingerprint, (result, _wall) in zip(cells, fingerprints, outcomes):
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
        completed = len(cells) - len(failures)
        stages = {stage: round(secs / completed, 6)
                  for stage, secs in runner.stage_s.items()} if completed else {}
        shard_faults = dict(Counter(f"{r['site']}:{r['action']}" for r in handled))
        for cell, fingerprint, (result, wall) in zip(cells, fingerprints, outcomes):
            if isinstance(result, Exception):
                continue
            telemetry.observe("sweep.cell_wall_s", wall)
            for stage, secs in stages.items():
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
                metrics=_metrics(result, runner.config.machine.num_levels),
                energy=result.ledger.categories_nj(ENERGY_CATEGORIES),
                wall_s=wall,
                faults=shard_faults if not rows else {},
            ))
        snapshot = sess.snapshot() if sess is not None else None
    return rows, failures, stages, handled, snapshot


def _ingest(store: ResultsStore, rows, failures, report: SweepReport,
            journal: SweepJournal, stages: "dict | None" = None,
            handled: tuple = ()) -> None:
    """Record one shard's outcome (parent-side single writer).

    The shard's rows commit in one store transaction, and only then is
    the shard journalled, in one write: its ``handled`` fault records
    first, then each cell's outcome, every completed cell with the
    shard's per-cell ``stages`` — so a journalled ``cell_completed`` is
    always durable in the store.  Every outcome is journalled
    *unconditionally*; the ``sweep.cell`` telemetry events and
    ``sweep.cells.*`` counters mirror it only when a session is active.
    """
    stages = stages or {}
    with store.transaction():
        accepted = [store.append(row) for row in rows]
    records = [("fault_handled", record) for record in handled]
    for row, added in zip(rows, accepted):
        if added:
            report.completed += 1
            records.append(("cell_completed", {
                "fingerprint": row.fingerprint,
                "cell": f"{row.workload}/{row.scheme}",
                "wall_s": round(row.wall_s, 6), "faults": row.faults,
                "stages": stages}))
            telemetry.count("sweep.cells.completed")
            telemetry.event("sweep.cell", fingerprint=row.fingerprint,
                            cell=f"{row.workload}/{row.scheme}",
                            wall_s=round(row.wall_s, 6))
        else:
            # Another run of the same spec got there first (e.g. two
            # resumes racing): append-only means first write wins and
            # ours — bit-identical by construction — is dropped.
            report.resumed += 1
            records.append(("cell_resumed", {"fingerprint": row.fingerprint,
                                             "raced": True}))
            telemetry.count("sweep.cells.resumed")
    for fingerprint, label, reason in failures:
        report.failed.append((fingerprint, label, reason))
        records.append(("cell_failed", {"fingerprint": fingerprint,
                                        "cell": label, "reason": reason}))
        telemetry.count("sweep.cells.failed")
        telemetry.event("sweep.cell_failed", fingerprint=fingerprint,
                        cell=label, reason=reason)
    journal.append_many(records)


def _settle(store: ResultsStore, outcome: tuple, report: SweepReport,
            journal: SweepJournal) -> None:
    """Ingest one :func:`run_shard` outcome, merging its worker snapshot."""
    rows, failures, stages, handled, snapshot = outcome
    if snapshot is not None:
        telemetry.merge_snapshot(snapshot)
    _ingest(store, rows, failures, report, journal, stages, handled)


def _recovered(journal: SweepJournal, site: str, action: str, **fields) -> None:
    """A recovery the parent itself made: ``faults.handled`` and its
    ``fault_handled`` journal record."""
    faults.handled(site, action, **fields)
    journal.append("fault_handled", site=site, action=action, **fields)


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
    if faults_plan:
        # Install the plan now: the pool sites fire before any runner
        # (which would install it) exists.
        faults.ensure(SimpleNamespace(faults=str(faults_plan)))
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

        journal.append_many([
            ("run_started", {"sweep": name, "schema": JOURNAL_SCHEMA,
                             "store": str(store_path), "pid": os.getpid(),
                             "total": len(cells), "pending": len(pending),
                             "resumed": report.resumed, "shards": len(shards),
                             "workers": report.workers}),
            *(("cell_resumed", {"fingerprint": fp}) for fp in resumed_fps),
        ])

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
        _settle(store, run_shard(shard, fps, name, stream_cache, faults_plan),
                report, journal)


def _worker_main(conn, interval: float) -> None:
    """A pool worker: run ``(shard, args, fault)`` tasks from ``conn``
    until ``None``, posting heartbeats and each ``("done" | "lost", shard,
    payload)`` outcome back; exit when idle if the parent died."""
    parent, lock = os.getppid(), threading.Lock()

    def post(message) -> None:
        with lock:
            conn.send(message)

    while True:
        while not conn.poll(1.0):
            if os.getppid() != parent:
                return
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        shard, args, fault = task
        try:
            post(("done", shard, run_shard(*args, post=post, shard=shard,
                                           interval=interval, fault=fault)))
        except Exception as exc:
            post(("lost", shard, f"raised {exc.__class__.__name__}: {exc}"))


class _Worker:
    """Parent-side handle on one pool worker: its process, its pipe, and
    the shard it holds (None when idle) with its deadline and liveness."""

    def __init__(self, interval: float) -> None:
        self.conn, child = multiprocessing.Pipe()
        self.process = multiprocessing.Process(
            target=_worker_main, args=(child, interval), name="sweep-worker",
            daemon=True)
        try:
            self.process.start()
        finally:
            child.close()  # the worker holds the only copy: its death is EOF
        self.alive, self.shard = True, None

    def dispatch(self, index: int, workload: str, timeout: float,
                 args: tuple) -> None:
        """Hand over a shard and its ``parallel.worker`` fault draw."""
        self.shard, self.workload, self.cell, self.stalled = \
            index, workload, "", False
        self.last_beat = time.monotonic()
        self.deadline = self.last_beat + timeout
        self.send((index, args, faults.check("parallel.worker", key=workload)))

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:       # died idle; reaped with its shard next pass
            self.alive = False

    def receive(self) -> list:
        """Every message waiting; EOF (after the last one) marks it dead."""
        messages = []
        try:
            while self.conn.poll():
                messages.append(self.conn.recv())
        except (EOFError, OSError):
            self.alive = False
        return messages

    def heard(self, beat: dict, journal: SweepJournal) -> None:
        """Relay one heartbeat of the held shard into the journal."""
        journal.append("heartbeat", **beat)
        telemetry.count("sweep.heartbeat")
        self.last_beat, self.cell = time.monotonic(), str(beat.get("cell", ""))
        if self.stalled:
            self.stalled = False
            journal.append("worker_recovered", shard=self.shard,
                           workload=self.workload)

    def check_stall(self, stall_after: float, journal: SweepJournal) -> None:
        """Journal ``worker_stalled`` once per silence episode of the held
        shard — always before its timeout fires."""
        if self.shard is None or self.stalled:
            return
        silent = time.monotonic() - self.last_beat
        if silent < stall_after:
            return
        self.stalled = True
        journal.append("worker_stalled", shard=self.shard,
                       workload=self.workload, silent_s=round(silent, 3),
                       cell=self.cell)
        telemetry.count("sweep.worker_stalled")
        telemetry.event("sweep.worker_stalled", shard=self.shard,
                        workload=self.workload, silent_s=round(silent, 3))

    def stop(self) -> None:
        """Let an idle worker exit; kill a busy, hung or unresponsive one."""
        if self.alive and self.shard is None:
            self.send(None)
            self.process.join(1.0)
        self.process.kill()             # a no-op once it has exited
        self.process.join()
        self.conn.close()


def _run_pooled(shards, name, store, report, stream_cache, faults_plan,
                nworkers, timeout, journal: SweepJournal) -> None:
    """Fan ``(cells, fingerprints)`` shards over ``min(nworkers, shards)``
    long-lived worker processes, ingesting outcomes in shard order.

    The ``parallel.worker`` site is drawn here at dispatch.  Spawn failure
    degrades to all-serial.  A worker that dies, raises, or still holds
    its shard ``timeout`` seconds after dispatch (it is killed) loses only
    that shard, which re-runs serially once the pool drains (past the
    worker-entry fault site, so an injected crash does not re-fire); a
    fresh worker replaces it while shards still wait.  Workers of a traced
    parent record into sessions of their own, merged here per shard."""
    interval = heartbeat_interval()
    traced = telemetry.active() is not None
    width = min(nworkers, len(shards))
    workers: list = []
    try:
        fired = faults.check("parallel.pool")
        if fired is not None and fired.kind == "spawn_fail":
            raise faults.InjectedFault(11, "injected pool spawn failure")
        while len(workers) < width:
            workers.append(_Worker(interval))
    except OSError as exc:
        for worker in workers:
            worker.stop()
        _recovered(journal, "parallel.pool", "serial_all", workloads=len(shards),
                   error=f"{exc.__class__.__name__}: {exc}")
        journal.append("fallback_serial", scope="pool",
                       reason=f"{exc.__class__.__name__}: {exc}")
        warnings.warn(f"sweep pool failed to spawn ({exc}); running "
                      f"{len(shards)} shard(s) serially", RuntimeWarning,
                      stacklevel=3)
        _run_inline(shards, name, store, report, stream_cache, faults_plan,
                    journal)
        return
    telemetry.count("parallel.pools")
    # Stall threshold: several missed beats, but always strictly before
    # the timeout fallback so the journal explains what is about to die.
    stall_after = min(max(3 * interval, 1.0), 0.5 * timeout)
    settled: dict = {}        # shard index -> worker outcome, None if lost
    lost: list = []
    dispatched = ingested = 0

    def lose(index: int, reason: str) -> None:
        settled[index] = None
        lost.append((index, *shards[index], reason))

    try:
        while ingested < len(shards):
            for worker in workers:
                if worker.shard is None and dispatched < len(shards):
                    shard, fps = shards[dispatched]
                    journal.append("shard_dispatched", shard=dispatched,
                                   workload=shard[0].workload,
                                   cells=len(shard), fingerprints=fps)
                    worker.dispatch(dispatched, shard[0].workload, timeout, (
                        shard, fps, name, stream_cache, faults_plan, traced))
                    dispatched += 1
            ready = wait([worker.conn for worker in workers], _POLL_S)
            for worker in list(workers):
                for kind, index, payload in (
                        worker.receive() if worker.conn in ready else ()):
                    if kind == "beat":
                        worker.heard(payload, journal)
                        continue
                    worker.shard = None
                    if kind == "done":
                        settled[index] = payload
                    else:
                        lose(index, payload)
                if worker.alive and (worker.shard is None
                                     or time.monotonic() < worker.deadline):
                    worker.check_stall(stall_after, journal)
                    continue
                timed_out = worker.alive
                worker.stop()
                workers.remove(worker)
                if worker.shard is not None:
                    lose(worker.shard, f"timed out after {timeout:g}s"
                         if timed_out else "died without returning a result "
                         f"(exit code {worker.process.exitcode})")
            try:
                while len(workers) < width and dispatched < len(shards):
                    workers.append(_Worker(interval))
            except OSError as exc:
                if not workers:   # nothing left to run the waiting shards
                    for index in range(dispatched, len(shards)):
                        lose(index, "was never dispatched: no worker could "
                             f"be respawned ({exc.__class__.__name__}: {exc})")
                    dispatched = len(shards)
            while ingested in settled:
                outcome = settled.pop(ingested)
                ingested += 1
                if outcome is not None:
                    _settle(store, outcome, report, journal)
    finally:
        for worker in workers:
            worker.stop()
    for index, shard, fps, reason in sorted(lost, key=lambda item: item[0]):
        telemetry.count("parallel.worker_lost")
        journal.append("worker_lost", shard=index,
                       workload=shard[0].workload, reason=reason)
        journal.append("fallback_serial", scope="shard", shard=index,
                       reason=reason)
        _recovered(journal, "parallel.worker", "serial_fallback",
                   workload=shard[0].workload, reason=reason)
        warnings.warn(f"sweep worker for {shard[0].workload!r} {reason}; "
                      f"re-running the shard serially", RuntimeWarning,
                      stacklevel=3)
        _settle(store, run_shard(shard, fps, name, stream_cache, faults_plan),
                report, journal)
