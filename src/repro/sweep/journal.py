"""Streaming sweep progress journal: one NDJSON line per lifecycle event.

The results store answers *what a sweep computed*; the journal answers
*what a sweep is doing right now* and *what happened while it ran*.  The
scheduler parent — already the single store writer — appends one record
per lifecycle event (run started/finished, shard dispatched, cell
completed/resumed/failed, worker heartbeat/stalled/lost, serial
fallbacks, handled faults) to ``<store-stem>.journal.ndjson`` next to
the store.  ``repro watch`` tails it live and ``repro report`` folds it
post-mortem; both work identically on an in-progress, killed, or
finished run.

Design rules:

* **independent of telemetry** — the journal is written whether or not
  a telemetry session is active, so progress is never lost on untraced
  runs (the telemetry events mirror it only when tracing is on);
* **parent-only, append-only** — workers never touch the file; records
  are only ever appended, so resuming a killed sweep appends a new
  ``run_started`` without rewriting history;
* **crash-safe by line** — each batch of records (one record, or one
  shard's outcomes) is one ``write()`` of ``\\n``-terminated lines
  followed by a flush, so killing the parent leaves at most one
  truncated trailing line.  On open, an unterminated tail (from a
  previous crash) is terminated before anything new is appended, and
  :func:`read_journal` skips unparseable lines instead of failing.  The
  file is fsynced on ``run_finished`` (and on close);
* **best-effort** — a journal write failure (full disk, revoked
  permissions) degrades to a warning: observability must never take
  down the sweep it observes.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path

from repro.results.store import canonical_json

__all__ = [
    "JOURNAL_SCHEMA",
    "JOURNAL_SUFFIX",
    "REQUIRED_FIELDS",
    "SweepJournal",
    "journal_path",
    "read_journal",
    "validate_record",
]

#: Bump when the record vocabulary or a record's required fields change.
JOURNAL_SCHEMA = 1

#: Journal file name suffix; the journal lives next to its store as
#: ``<store-stem>.journal.ndjson``.
JOURNAL_SUFFIX = ".journal.ndjson"

#: Required fields per event type (extra fields are always allowed).
#: Pinned by ``tests/golden/journal_schema.json`` — changing this table
#: means bumping :data:`JOURNAL_SCHEMA` and regenerating the golden.
REQUIRED_FIELDS: dict = {
    # one per run_sweep invocation, first record of every run
    "run_started": ("t", "sweep", "schema", "store", "pid", "total",
                    "pending", "resumed", "shards", "workers"),
    # one per shard handed to a worker (or run inline on the serial path)
    "shard_dispatched": ("t", "shard", "workload", "cells", "fingerprints"),
    # one per row appended to the store, with the cell's provenance
    "cell_completed": ("t", "fingerprint", "cell", "wall_s"),
    # one per cell skipped because its fingerprint was already recorded
    "cell_resumed": ("t", "fingerprint"),
    # one per cell that raised and was skipped without writing a row
    "cell_failed": ("t", "fingerprint", "cell", "reason"),
    # periodic worker progress tick, relayed by the parent
    "heartbeat": ("t", "shard", "workload", "pid", "done", "cells"),
    # a worker went silent past the stall threshold (before the timeout)
    "worker_stalled": ("t", "shard", "workload", "silent_s"),
    # a stalled worker's heartbeats resumed (the cell was just long)
    "worker_recovered": ("t", "shard", "workload"),
    # a worker timed out / crashed / raised; its shard re-runs serially
    "worker_lost": ("t", "shard", "workload", "reason"),
    # the pool (scope=pool) or one shard (scope=shard) degraded to serial
    "fallback_serial": ("t", "scope", "reason"),
    # one executed fault-recovery path (repro.faults.handled), in a shard
    # or in the parent
    "fault_handled": ("t", "site", "action"),
    # one per run_sweep invocation that ran to completion
    "run_finished": ("t", "completed", "resumed", "failed", "wall_s",
                     "digest", "ok"),
}


def journal_path(store_path: "str | Path") -> Path:
    """The journal's canonical location: next to the store, by stem."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem + JOURNAL_SUFFIX)


class SweepJournal:
    """Append-only NDJSON writer for one sweep store's lifecycle events.

    Only the scheduler parent holds one; every :meth:`append_many` (and
    :meth:`append`, its one-record case) is a single write + flush of
    whole lines, so readers (``repro watch``) see complete records mid-run
    and a killed parent corrupts at most the final line.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.write_errors = 0
        self._fh = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._terminate_truncated_tail()
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            self._warn_once(exc)

    def _terminate_truncated_tail(self) -> None:
        """If a previous parent died mid-write, terminate its partial
        line so history stays parseable and new records stay line-atomic."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                if fh.tell() == 0:
                    return
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
        except FileNotFoundError:
            return
        if last != b"\n":
            with open(self.path, "ab") as fh:
                fh.write(b"\n")

    def _warn_once(self, exc: OSError) -> None:
        self.write_errors += 1
        if self.write_errors == 1:
            warnings.warn(
                f"sweep journal {self.path} is unwritable "
                f"({exc.__class__.__name__}: {exc}); progress events "
                f"will be lost but the sweep continues",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------ writing
    def append(self, event: str, **fields) -> None:
        """Append one record; ``t`` defaults to now (callers may override
        it with the originating process's wall clock, e.g. heartbeats)."""
        self.append_many([(event, fields)])

    def append_many(self, records) -> None:
        """Append ``(event, fields)`` records, in order, in one write and
        one flush; each record's ``t`` defaults to now, as in :meth:`append`."""
        if self._fh is None:
            return
        text = "".join(
            canonical_json({"event": event, "t": round(time.time(), 3), **fields})
            + "\n"
            for event, fields in records
        )
        try:
            self._fh.write(text)
            self._fh.flush()
        except OSError as exc:
            self._warn_once(exc)

    def sync(self) -> None:
        """Flush and fsync — called on ``run_finished`` so a finished
        run's journal survives power loss, not just process death."""
        if self._fh is None:
            return
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._warn_once(exc)

    def close(self) -> None:
        if self._fh is not None:
            self.sync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# ---------------------------------------------------------------- reading
def read_journal(path: "str | Path") -> tuple:
    """Parse a journal line-by-line, tolerating crash damage.

    Returns ``(records, bad)`` where ``records`` are the parsed dicts in
    file order and ``bad`` lists ``(line_number, line_text)`` for every
    unparseable line.  A parent killed mid-write leaves at most one bad
    line, and it is the last one — a property the crash-safety tests pin.
    """
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    records, bad = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            bad.append((lineno, line))
            continue
        if not isinstance(record, dict) or "event" not in record:
            bad.append((lineno, line))
            continue
        records.append(record)
    return records, bad


def validate_record(record: dict) -> list:
    """Schema check for one record: a list of problems (empty = valid).

    Unknown events and missing required fields are problems; extra
    fields are not — the journal is free to grow payloads within one
    schema version.
    """
    event = record.get("event")
    required = REQUIRED_FIELDS.get(event)
    if required is None:
        return [f"unknown journal event {event!r}"]
    return [
        f"{event}: missing required field {name!r}"
        for name in required
        if name not in record
    ]
