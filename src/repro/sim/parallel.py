"""Parallel content walks across worker processes.

Regenerating a figure costs one content walk per workload, and the walks
are embarrassingly parallel (they share nothing but read-only config).
This module fans them out over a :class:`~concurrent.futures.
ProcessPoolExecutor` and returns the frozen outcome streams, which the
caller can feed into an :class:`ExperimentRunner`'s cache — after which
every scheme evaluation proceeds as usual on the pre-warmed streams.

Workloads are *rebuilt inside each worker* from (name, config) rather than
pickled across the fence: the generators are deterministic, and shipping a
few ints beats serializing hundreds of megabytes of trace arrays.  Only
registry-named workloads can be prewarmed this way; explicit custom
workloads stay on the serial path.

Typical use (this is what the benchmark harness does under
``REPRO_PARALLEL``)::

    runner = ExperimentRunner(cfg)
    prewarm_streams(runner, PAPER_WORKLOADS, workers=4)
    results = {w: runner.run(w, scheme) for w in PAPER_WORKLOADS}  # all cached
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro import faults, telemetry
from repro.hierarchy.events import OutcomeStream
from repro.hierarchy.inclusion import InclusionPolicy
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.runner import ExperimentRunner
from repro.sim.streamcache import resolve_cache, stream_key
from repro.util.validation import check_positive
from repro.workloads import get_workload

__all__ = ["walk_one", "walk_one_traced", "prewarm_streams",
           "default_workers", "default_worker_timeout"]

#: Environment override for the per-worker prewarm timeout (seconds).
WORKER_TIMEOUT_ENV = "REPRO_WORKER_TIMEOUT"

#: Generous default: a content walk is minutes at most; a worker silent
#: for this long is treated as lost and its shard re-runs serially.
DEFAULT_WORKER_TIMEOUT_S = 600.0


def default_workers() -> int:
    """Worker count: ``REPRO_PARALLEL`` if set, else cores-1 (min 1).

    A non-integer ``REPRO_PARALLEL`` (``"auto"``, ``"4x"``, …) is not an
    error — a misconfigured shell must not abort a long benchmark run —
    it warns and falls back to the cores-1 default.
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
    """Per-worker result timeout: active fault plan, env, else the default.

    A fault plan's ``worker_timeout_s`` wins (chaos tests shrink it so a
    ``hang`` fault converts to a timeout in seconds, not minutes), then
    ``REPRO_WORKER_TIMEOUT``, then :data:`DEFAULT_WORKER_TIMEOUT_S`.  A
    non-numeric env value warns and falls back, same contract as
    ``REPRO_PARALLEL``.
    """
    injector = faults.current()
    if injector is not None and injector.plan.worker_timeout_s is not None:
        return injector.plan.worker_timeout_s
    env = os.environ.get(WORKER_TIMEOUT_ENV)
    if env:
        try:
            return float(env)
        except ValueError:
            telemetry.event("parallel.bad_env", value=env)
            warnings.warn(
                f"ignoring non-numeric {WORKER_TIMEOUT_ENV}={env!r}; "
                f"falling back to {DEFAULT_WORKER_TIMEOUT_S:.0f}s",
                RuntimeWarning,
                stacklevel=2,
            )
    return DEFAULT_WORKER_TIMEOUT_S


def _worker_faults(workload_name: str) -> None:
    """The ``parallel.worker`` fault site, applied at worker entry.

    ``crash`` dies without cleanup (``os._exit`` — the pool reports a
    broken executor, exactly like an OOM-killed worker), ``hang`` stalls
    past the parent's timeout, ``exception`` raises.  All three must be
    absorbed by :func:`prewarm_streams`'s serial fallback.
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


def walk_one(config: SimConfig, workload_name: str,
             policy: str | None = None) -> tuple[str, str, OutcomeStream]:
    """Worker entry point: build the workload and run one content walk.

    Module-level (picklable) by design.  Returns the key material the
    parent needs to slot the stream into a runner cache.
    """
    _worker_faults(workload_name)
    cfg = config if policy is None else config.with_policy(policy)
    with telemetry.span("workload_build", workload=workload_name):
        workload = get_workload(
            workload_name, cfg.machine, cfg.refs_per_core, cfg.seed
        )
    telemetry.count("workload.builds")
    stream = ContentSimulator(cfg).run(workload)
    return workload_name, cfg.policy.value, stream


def walk_one_traced(config: SimConfig, workload_name: str,
                    policy: str | None = None) -> tuple[str, str, OutcomeStream, dict]:
    """Worker entry point with telemetry: :func:`walk_one` under a fresh
    session, returning the session snapshot as a fourth element so the
    parent can merge it (parallel ≡ serial aggregate counters)."""
    with telemetry.session(force=True, label=f"worker-{workload_name}") as sess:
        name, pol, stream = walk_one(config, workload_name, policy)
        snapshot = sess.snapshot()
    return name, pol, stream, snapshot


def _serial_rerun(runner: ExperimentRunner, name: str, policy, reason: str,
                  out: dict) -> None:
    """Degradation path: a shard lost to the pool re-executes serially.

    The re-run goes through :meth:`ExperimentRunner.stream`, so it still
    consults the disk cache and writes its result back — a recovered
    shard is indistinguishable from one that was never lost.
    """
    telemetry.count("parallel.worker_lost")
    faults.handled("parallel.worker", "serial_fallback",
                   workload=name, reason=reason)
    warnings.warn(
        f"prewarm worker for {name!r} {reason}; re-running the shard serially",
        RuntimeWarning,
        stacklevel=3,
    )
    out[name] = runner.stream(name, policy=policy)


def prewarm_streams(
    runner: ExperimentRunner,
    workload_names,
    policy: InclusionPolicy | str | None = None,
    workers: int | None = None,
    timeout_s: float | None = None,
) -> dict[str, OutcomeStream]:
    """Fill the runner's stream cache using a process pool.

    Returns {workload_name: stream}.  With ``workers=1`` (or a single
    pending workload) the pool is skipped entirely — same results, no fork
    cost.  Workloads whose streams are already in the runner's in-process
    cache — or loadable from the persistent disk cache, when one is
    enabled — are served from it and never re-walked, so a warm prewarm
    spawns no pool at all.

    The pool is allowed to misbehave: a worker that dies without returning
    a snapshot (crash, OOM kill, injected fault), hangs past ``timeout_s``
    (default :func:`default_worker_timeout`), or raises, loses only its
    own shard — the shard re-executes serially in the parent with a
    structured ``faults.handled`` warning, so the returned streams are
    always complete and bit-identical to a serial prewarm.  Even a pool
    that cannot spawn at all degrades to the serial path.
    """
    names = [n for n in workload_names]
    nworkers = workers if workers is not None else default_workers()
    check_positive("workers", nworkers)
    cfg = runner.config if policy is None else runner.config.with_policy(policy)
    disk = resolve_cache(cfg)

    out: dict[str, OutcomeStream] = {}
    pending: list[str] = []
    for name in names:
        key = (name, *cfg.cache_key())
        stream = runner._streams.get(key)
        if stream is None and disk is not None:
            stream = disk.load(stream_key(name, cfg))
            if stream is not None:
                runner._streams[key] = stream
        if stream is not None:
            out[name] = stream
        else:
            pending.append(name)
    if not pending:
        return out
    if nworkers == 1 or len(pending) <= 1:
        for name in pending:
            out[name] = runner.stream(name, policy=policy)
        return out

    pol = None if policy is None else InclusionPolicy.parse(policy).value
    # With telemetry collecting in this process, workers run their own
    # sessions and ship their snapshots back for merging, so the parallel
    # prewarm reports the same aggregate counters a serial one would.
    traced = telemetry.active() is not None
    worker_fn = walk_one_traced if traced else walk_one
    timeout = timeout_s if timeout_s is not None else default_worker_timeout()
    with telemetry.span("prewarm", workloads=len(pending), workers=nworkers):
        try:
            fired = faults.check("parallel.pool")
            if fired is not None and fired.kind == "spawn_fail":
                raise faults.InjectedFault(11, "injected pool spawn failure")
            pool = ProcessPoolExecutor(max_workers=min(nworkers, len(pending)))
        except OSError as exc:
            # No pool at all (fork limits, injected spawn failure): run
            # every pending shard serially — slower, never wrong.
            faults.handled("parallel.pool", "serial_all",
                           workloads=len(pending),
                           error=f"{exc.__class__.__name__}: {exc}")
            warnings.warn(
                f"prewarm pool failed to spawn ({exc}); walking "
                f"{len(pending)} workload(s) serially",
                RuntimeWarning,
                stacklevel=2,
            )
            for name in pending:
                out[name] = runner.stream(name, policy=policy)
            return out
        telemetry.count("parallel.pools")
        lost: list[tuple[str, str]] = []
        abandoned = False  # a hung/dead worker: never block on shutdown
        try:
            futures = [
                (name, pool.submit(worker_fn, runner.config, name, pol))
                for name in pending
            ]
            for name, fut in futures:
                try:
                    result = fut.result(timeout=timeout)
                except FutureTimeoutError:
                    lost.append((name, f"timed out after {timeout:g}s"))
                    abandoned = True
                    continue
                except BrokenExecutor:
                    lost.append((name, "died without returning a snapshot "
                                       "(process pool broken)"))
                    abandoned = True
                    continue
                except Exception as exc:
                    lost.append((name, f"raised {exc.__class__.__name__}: {exc}"))
                    continue
                if traced:
                    name, _pol, stream, snapshot = result
                    telemetry.merge_snapshot(snapshot)
                else:
                    name, _pol, stream = result
                key = (name, *cfg.cache_key())
                runner._streams[key] = stream
                out[name] = stream
                if disk is not None:
                    disk.save(stream_key(name, cfg), stream)
        finally:
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        for name, reason in lost:
            _serial_rerun(runner, name, policy, reason, out)
    return out
