"""Telemetry: structured tracing spans, metrics, and run manifests.

The codebase makes invisible runtime decisions — stream-cache hit vs.
re-walk, vectorized vs. sequential replay, recalibration cadence, checked
invariant passes — and this package is where they become observable.  It
is dependency-free (stdlib only) and built around one rule: **disabled
telemetry costs one module-global check** at each instrumented call site,
nothing more.

Three layers:

:mod:`repro.telemetry.registry`
    counters / gauges / histograms / timers with flat string keys,
    snapshot+merge for cross-process aggregation;
:mod:`repro.telemetry.spans`
    nested stage spans with Chrome/Perfetto ``trace_event`` export;
:mod:`repro.telemetry.manifest`
    the per-run ``run_manifest.json`` — config identity, versions,
    per-stage wall times, counters and spans — consumed by ``repro
    stats`` and ``repro trace``.

Collection model
----------------

Instrumented code calls the module-level helpers (:func:`span`,
:func:`count`, :func:`event`, …).  They no-op unless a
:class:`TelemetrySession` is **active** in this process; activation is
explicit (:func:`start` / :func:`session`) and is performed by the CLI
(``repro run --telemetry``), by :class:`ExperimentRunner
<repro.sim.runner.ExperimentRunner>` when its config asks for telemetry,
by the bench harness, and inside sweep workers.  ``SimConfig(telemetry=
True)`` or ``REPRO_TELEMETRY=1`` declare the intent; :func:`enabled`
reads both.

Worker processes run their own session and return
:meth:`TelemetrySession.snapshot`; the parent folds it in with
:func:`merge_snapshot`, so parallel and serial runs report identical
aggregate counters (a property the test suite pins).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.telemetry.registry import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    metric_key,
)
from repro.telemetry.spans import NULL_SPAN, NullSpan, Span, SpanRecord, Tracer, chrome_trace

__all__ = [
    "TELEMETRY_ENV",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "SpanRecord",
    "TelemetrySession",
    "Tracer",
    "active",
    "chrome_trace",
    "count",
    "enabled",
    "event",
    "gauge",
    "merge_snapshot",
    "metric_key",
    "observe",
    "session",
    "span",
    "start",
    "stop",
    "timer",
]

#: Environment switch: 1/true/yes/on (case-insensitive) enables telemetry.
TELEMETRY_ENV = "REPRO_TELEMETRY"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def enabled(config=None) -> bool:
    """Has this run asked for telemetry?  ``config.telemetry`` or the env.

    Declares intent only — collection additionally requires an active
    session (see the module docstring).
    """
    if config is not None and getattr(config, "telemetry", False):
        return True
    return os.environ.get(TELEMETRY_ENV, "").strip().lower() in _TRUTHY


class TelemetrySession:
    """One process's collection state: a registry, a tracer, an event log."""

    def __init__(self, label: str = "run") -> None:
        self.label = label
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.events: list[dict] = []

    # ------------------------------------------------------------ recording
    def event(self, name: str, **fields) -> None:
        """Record one structured event (and count it under ``events.*``)."""
        self.events.append(
            {"name": name, "t_s": self.tracer.wall_s(), **fields}
        )
        self.registry.count(f"events.{name}")

    # ------------------------------------------------------------- reading
    def wall_s(self) -> float:
        return self.tracer.wall_s()

    def stage_totals(self) -> dict[str, dict]:
        return self.tracer.stage_totals()

    def snapshot(self) -> dict:
        """Everything a parent process needs to merge this session."""
        return {
            "label": self.label,
            "pid": self.tracer.pid,
            "epoch_unix": self.tracer.epoch_unix,
            "metrics": self.registry.snapshot(),
            "spans": self.tracer.to_dicts(),
            "events": list(self.events),
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a worker session's :meth:`snapshot` into this one."""
        self.registry.merge(snapshot.get("metrics", {}))
        shift = snapshot.get("epoch_unix", self.tracer.epoch_unix) - self.tracer.epoch_unix
        self.tracer.extend(snapshot.get("spans", []), shift_s=shift)
        self.events.extend(snapshot.get("events", []))


# ----------------------------------------------------------- active session
_SESSION: "TelemetrySession | None" = None


def active() -> "TelemetrySession | None":
    """The live session, or ``None`` (the disabled fast path)."""
    return _SESSION


def start(label: str = "run") -> TelemetrySession:
    """Activate a fresh session (replacing any current one)."""
    global _SESSION
    _SESSION = TelemetrySession(label=label)
    return _SESSION


def stop() -> "TelemetrySession | None":
    """Deactivate and return the current session (idempotent)."""
    global _SESSION
    out, _SESSION = _SESSION, None
    return out


@contextmanager
def session(config=None, force: "bool | None" = None, label: str = "run"):
    """Scoped session: activates iff asked, yields the session or ``None``.

    ``force=True`` always collects, ``force=False`` never does, and the
    default defers to :func:`enabled(config) <enabled>`.  The previously
    active session (if any) is restored on exit, so nesting is safe.
    """
    global _SESSION
    want = enabled(config) if force is None else force
    if not want:
        yield None
        return
    previous = _SESSION
    _SESSION = TelemetrySession(label=label)
    try:
        yield _SESSION
    finally:
        _SESSION = previous


# ------------------------------------------------- instrumentation helpers
def span(name: str, **tags):
    """A stage span in the active session, or the shared no-op span."""
    s = _SESSION
    if s is None:
        return NULL_SPAN
    return s.tracer.span(name, **tags)


def count(name: str, value: float = 1, **tags) -> None:
    s = _SESSION
    if s is not None:
        s.registry.count(name, value, **tags)


def gauge(name: str, value: float, **tags) -> None:
    s = _SESSION
    if s is not None:
        s.registry.gauge(name, value, **tags)


def observe(name: str, value: float, **tags) -> None:
    s = _SESSION
    if s is not None:
        s.registry.observe(name, value, **tags)


def timer(name: str, **tags):
    s = _SESSION
    if s is None:
        return NULL_REGISTRY.timer(name)
    return s.registry.timer(name, **tags)


def event(name: str, **fields) -> None:
    """Structured event — the logging path warnings are routed through."""
    s = _SESSION
    if s is not None:
        s.event(name, **fields)


def merge_snapshot(snapshot: dict) -> None:
    """Fold a worker snapshot into the active session (no-op when off)."""
    s = _SESSION
    if s is not None:
        s.merge_snapshot(snapshot)


# Re-exported late to avoid a cycle (manifest imports this module's API).
from repro.telemetry.manifest import (  # noqa: E402
    MANIFEST_NAME,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    load_manifest,
    validate_manifest,
    write_manifest,
)

__all__ += [
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "load_manifest",
    "validate_manifest",
    "write_manifest",
]
