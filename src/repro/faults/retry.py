"""Bounded retry with deterministic backoff — the I/O recovery policy.

Cache and trace-file reads/writes can fail transiently (short read while
a file is being replaced, a full disk that is being cleaned, an injected
:class:`~repro.faults.injector.InjectedFault`).  The policy here is the
one DESIGN.md's fault model prescribes: retry a *bounded* number of times
with a *deterministic* exponential backoff (no jitter — a retried run
must behave identically to the run it repeats), then let the caller
degrade gracefully (discard + re-walk, or skip the cache write).

Every retry is counted (``faults.retries``) and every recovery that ends
in success is recorded as a ``faults.handled`` event, so the manifest of
a run that survived misbehaving I/O says exactly how it did.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.faults.plan import RetryPolicy

__all__ = ["RetryExhausted", "run_with_retries", "handled",
           "add_listener", "remove_listener", "clear_listeners"]

#: Process-local observers of :func:`handled`, called as
#: ``listener(site, action, fields)``.  The sweep scheduler parent
#: registers one to journal every recovery path unconditionally —
#: unlike the telemetry mirror, which no-ops untraced.  Its pool workers
#: clear the list they inherit by fork (:func:`clear_listeners`), so
#: journal writes stay parent-only.
_LISTENERS: list = []


def add_listener(listener) -> None:
    """Register a recovery-path observer (idempotent per object)."""
    if listener not in _LISTENERS:
        _LISTENERS.append(listener)


def remove_listener(listener) -> None:
    """Unregister; unknown listeners are ignored."""
    try:
        _LISTENERS.remove(listener)
    except ValueError:
        pass


def clear_listeners() -> None:
    """Drop every observer (a forked worker's first step)."""
    _LISTENERS.clear()


class RetryExhausted(Exception):
    """All attempts failed; ``.last`` holds the final exception."""

    def __init__(self, site: str, last: BaseException) -> None:
        super().__init__(f"{site}: {last.__class__.__name__}: {last}")
        self.site = site
        self.last = last


def handled(site: str, action: str, **fields) -> None:
    """Record one executed recovery path (telemetry event + counter).

    Emitted by *every* recovery branch — retry-then-success, discard and
    re-walk, serial fallback, skipped cache write — whether the fault was
    injected or organic: the event stream is the audit trail ``repro
    chaos`` checks injected faults against.
    """
    telemetry.count("faults.handled", site=site)
    telemetry.event("faults.handled", site=site, action=action, **fields)
    for listener in list(_LISTENERS):
        try:
            listener(site, action, fields)
        except Exception:
            # An observer must never turn a *handled* fault into a new
            # failure; drop it and keep recovering.
            pass


def run_with_retries(site: str, fn, policy: RetryPolicy,
                     retriable: tuple = (OSError,), detail: "str | None" = None):
    """Run ``fn()`` under ``policy``; raises :class:`RetryExhausted`.

    Only ``retriable`` exception types are retried — anything else is a
    permanent failure and propagates immediately (a corrupt file does not
    get less corrupt by re-reading it).  On success after ``n`` failures a
    ``faults.handled(action="retried")`` event is recorded.
    """
    last: "BaseException | None" = None
    for attempt in range(max(1, policy.attempts)):
        try:
            result = fn()
        except retriable as exc:
            last = exc
            telemetry.count("faults.retries", site=site)
            telemetry.event(
                f"{site}.retry",
                attempt=attempt + 1,
                error=f"{exc.__class__.__name__}: {exc}",
                **({"detail": detail} if detail else {}),
            )
            if attempt + 1 < max(1, policy.attempts):
                delay = policy.delay_s(attempt)
                if delay > 0:
                    time.sleep(delay)
            continue
        if attempt:
            handled(site, "retried", attempts=attempt + 1,
                    **({"detail": detail} if detail else {}))
        return result
    raise RetryExhausted(site, last)
