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
a run that survived misbehaving I/O says exactly how it did.  Inside a
:func:`collect` scope each recovery is also kept as a plain record,
traced or not: the sweep scheduler runs every shard in one, and the
shard's recoveries travel with its outcome to the parent's journal.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro import telemetry
from repro.faults.plan import RetryPolicy

__all__ = ["RetryExhausted", "collect", "handled", "run_with_retries"]

#: The record lists of this process's open :func:`collect` scopes.
_COLLECTORS: list = []


@contextmanager
def collect():
    """Keep every :func:`handled` call made in the scope.

    Yields a list that gains one ``{"t", "site", "action", **fields}``
    record per recovery (``t`` is this process's wall clock), whether or
    not a telemetry session is active.  Scopes nest; each open scope
    gets every record.
    """
    records: list = []
    _COLLECTORS.append(records)
    try:
        yield records
    finally:
        _COLLECTORS.pop()


class RetryExhausted(Exception):
    """All attempts failed; ``.last`` holds the final exception."""

    def __init__(self, site: str, last: BaseException) -> None:
        super().__init__(f"{site}: {last.__class__.__name__}: {last}")
        self.site = site
        self.last = last


def handled(site: str, action: str, **fields) -> None:
    """Record one executed recovery path: a telemetry event and counter,
    and a record in every open :func:`collect` scope.

    Emitted by *every* recovery branch — retry-then-success, discard and
    re-walk, serial fallback, skipped cache write — whether the fault was
    injected or organic: the event stream is the audit trail ``repro
    chaos`` checks injected faults against.
    """
    telemetry.count("faults.handled", site=site)
    telemetry.event("faults.handled", site=site, action=action, **fields)
    if _COLLECTORS:
        record = {"t": round(time.time(), 3), "site": site, "action": action,
                  **fields}
        for records in _COLLECTORS:
            records.append(record)


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
