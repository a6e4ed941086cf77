"""Append-only SQLite results store: one row per completed sweep cell.

Every cell an orchestrated sweep completes lands here exactly once, keyed
by its content-addressed fingerprint (:func:`repro.sweep.spec.CellSpec.
fingerprint`).  The store is the resume mechanism — a restarted sweep asks
:meth:`ResultsStore.completed` and skips every fingerprint already present
— and the query substrate: ``repro query`` filters, aggregates and exports
these rows instead of ad-hoc per-figure artifact files.

Design rules:

* **append-only** — the public surface is ``append`` (``INSERT OR
  IGNORE``) and reads; there is no update or delete.  A fingerprint's row
  is written once and never changes, which is what makes resume trivially
  correct.
* **deterministic core, volatile margin** — the *canonical* columns
  (identity + simulation metrics + per-category energy) are pure functions
  of the cell spec, so two stores produced by any interleaving of runs of
  the same :class:`SweepSpec` agree byte-for-byte on
  :meth:`canonical_bytes`.  Provenance columns (wall time, insertion
  timestamp, fault summary) are recorded per row but excluded from the
  canonical view — they describe *how* a run went, not *what* it computed.
* **single writer** — sweep workers never touch the store; they return
  rows to the parent, which is the only process that writes.  Readers
  (``repro query``) can open the file at any time.
* **commits once per ingested shard** — the scheduler receives a whole
  shard's rows at once and appends them inside one :meth:`ResultsStore.
  transaction`, so a shard costs one commit (one fsync), not one per row.
  A bare ``append`` outside a transaction still commits at once.

Schema (``cells`` table)::

    fingerprint TEXT PRIMARY KEY   -- cell content address
    sweep TEXT                     -- SweepSpec name
    machine/workload/scheme/policy TEXT, refs_per_core/seed INTEGER
    pt_kb REAL NULL, recal_multiple REAL NULL, probe_mode TEXT NULL
    metrics_json TEXT              -- scalar simulation metrics (see sweep)
    energy_json TEXT               -- nJ per charging-kernel category
    wall_s REAL, faults_json TEXT, created_at REAL, store_schema INTEGER
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sqlite3
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.validation import ReproError

__all__ = ["CANONICAL_COLUMNS", "STORE_SCHEMA", "CellRow", "ResultsStore"]

#: Bump when the row layout or metric vocabulary changes; old stores are
#: still readable but their rows no longer count as completed cells.
STORE_SCHEMA = 1

#: Identity columns, in canonical-export order.  ``fingerprint`` leads so
#: the canonical CSV sorts the way the rows do.
IDENTITY_COLUMNS = (
    "fingerprint", "sweep", "machine", "workload", "scheme", "policy",
    "refs_per_core", "seed", "pt_kb", "recal_multiple", "probe_mode",
)

#: Columns a ``repro query --where`` filter may name.
FILTER_COLUMNS = frozenset(IDENTITY_COLUMNS)

#: The deterministic view: identity plus the JSON payloads that are pure
#: functions of the cell spec.  Everything else is provenance.
CANONICAL_COLUMNS = IDENTITY_COLUMNS + ("metrics_json", "energy_json")

_NUMERIC_FILTERS = frozenset({"refs_per_core", "seed", "pt_kb", "recal_multiple"})

_CREATE = """
CREATE TABLE IF NOT EXISTS cells (
    fingerprint TEXT PRIMARY KEY,
    sweep TEXT NOT NULL,
    machine TEXT NOT NULL,
    workload TEXT NOT NULL,
    scheme TEXT NOT NULL,
    policy TEXT NOT NULL,
    refs_per_core INTEGER NOT NULL,
    seed INTEGER NOT NULL,
    pt_kb REAL,
    recal_multiple REAL,
    probe_mode TEXT,
    metrics_json TEXT NOT NULL,
    energy_json TEXT NOT NULL,
    wall_s REAL NOT NULL,
    faults_json TEXT NOT NULL,
    created_at REAL NOT NULL,
    store_schema INTEGER NOT NULL
)
"""


def _canon_number(value) -> "str | float | int | None":
    """JSON-safe canonical form: ``inf`` becomes the string ``"inf"``."""
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def canonical_json(doc: dict) -> str:
    """Sorted-key, tight-separator JSON: the store's canonical encoding."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CellRow:
    """One completed cell, ready to append.

    ``metrics``/``energy`` are deterministic (canonical); ``wall_s``,
    ``faults`` and ``created_at`` are provenance.
    """

    fingerprint: str
    sweep: str
    machine: str
    workload: str
    scheme: str
    policy: str
    refs_per_core: int
    seed: int
    pt_kb: "float | None"
    recal_multiple: "float | None"
    probe_mode: "str | None"
    metrics: dict
    energy: dict
    wall_s: float = 0.0
    faults: dict = field(default_factory=dict)
    created_at: float = 0.0


class ResultsStore:
    """Append-only SQLite store of completed sweep cells."""

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute(_CREATE)
        self._conn.commit()
        self._batching = False

    # ---------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -------------------------------------------------------------- write
    @contextmanager
    def transaction(self):
        """Group appends into one commit.

        Inside the block :meth:`append` inserts without committing; the
        rows commit together on a clean exit and roll back if the block
        raises.  Readers on other connections see all of them or none.
        """
        if self._batching:
            raise ReproError("ResultsStore transactions do not nest")
        self._batching = True
        try:
            yield self
        except BaseException:
            self._conn.rollback()
            raise
        else:
            self._conn.commit()
        finally:
            self._batching = False

    def append(self, row: CellRow) -> bool:
        """Insert one completed cell; returns False when the fingerprint
        is already present (``INSERT OR IGNORE`` — append-only, so a
        resumed sweep racing a stale worker can never overwrite a row).
        Commits at once unless inside :meth:`transaction`."""
        cur = self._conn.execute(
            "INSERT OR IGNORE INTO cells VALUES "
            "(?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
            (
                row.fingerprint, row.sweep, row.machine, row.workload,
                row.scheme, row.policy, int(row.refs_per_core), int(row.seed),
                row.pt_kb, row.recal_multiple, row.probe_mode,
                canonical_json(row.metrics),
                canonical_json(row.energy),
                float(row.wall_s),
                canonical_json(row.faults),
                float(row.created_at or time.time()),
                STORE_SCHEMA,
            ),
        )
        if not self._batching:
            self._conn.commit()
        return cur.rowcount > 0

    # --------------------------------------------------------------- read
    def completed(self, schema: int = STORE_SCHEMA) -> set:
        """Fingerprints of every cell recorded under ``schema`` — the set
        a resumed sweep skips."""
        cur = self._conn.execute(
            "SELECT fingerprint FROM cells WHERE store_schema = ?", (schema,)
        )
        return {fp for (fp,) in cur}

    def __len__(self) -> int:
        (n,) = self._conn.execute("SELECT COUNT(*) FROM cells").fetchone()
        return n

    def wall_stats(self) -> dict:
        """Wall-time history of every recorded cell: ``{"cells", "total_s",
        "mean_s", "max_s"}``.  ``repro watch`` derives its ETA from the
        mean — past cells of the same grid are the best predictor of the
        remaining ones."""
        cells, total, mean, peak = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(wall_s), 0.0), "
            "COALESCE(AVG(wall_s), 0.0), COALESCE(MAX(wall_s), 0.0) "
            "FROM cells"
        ).fetchone()
        return {"cells": cells, "total_s": total, "mean_s": mean,
                "max_s": peak}

    @staticmethod
    def _where(filters: "dict | None") -> tuple:
        clauses, params = [], []
        for col, value in (filters or {}).items():
            if col not in FILTER_COLUMNS:
                raise ReproError(
                    f"unknown filter column {col!r}; "
                    f"valid: {', '.join(sorted(FILTER_COLUMNS))}"
                )
            if value is None or (isinstance(value, str)
                                 and value.lower() in ("none", "null", "")):
                clauses.append(f"{col} IS NULL")
                continue
            if col in _NUMERIC_FILTERS and isinstance(value, str):
                try:
                    value = float(value)
                except ValueError:
                    raise ReproError(
                        f"filter {col}={value!r}: expected a number"
                    ) from None
            clauses.append(f"{col} = ?")
            params.append(value)
        sql = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return sql, params

    def rows(self, where: "dict | None" = None) -> list:
        """Flat row dicts (identity + ``metrics.*``/``energy.*`` keys +
        provenance), filtered by exact match on identity columns and
        ordered by fingerprint."""
        sql, params = self._where(where)
        cur = self._conn.execute(
            "SELECT " + ", ".join(IDENTITY_COLUMNS) +
            ", metrics_json, energy_json, wall_s, faults_json, created_at, "
            "store_schema FROM cells" + sql + " ORDER BY fingerprint",
            params,
        )
        out = []
        for rec in cur:
            row = dict(zip(IDENTITY_COLUMNS, rec[: len(IDENTITY_COLUMNS)]))
            metrics_json, energy_json, wall_s, faults_json, created, schema = \
                rec[len(IDENTITY_COLUMNS):]
            for name, value in json.loads(metrics_json).items():
                row[name] = value
            for cat, value in json.loads(energy_json).items():
                row[f"nj_{cat}"] = value
            row["wall_s"] = wall_s
            row["faults"] = json.loads(faults_json)
            row["created_at"] = created
            row["store_schema"] = schema
            out.append(row)
        return out

    def aggregate(
        self,
        value: str,
        by: tuple = ("scheme",),
        agg: str = "mean",
        where: "dict | None" = None,
    ) -> list:
        """Grouped aggregation over one flat-row metric.

        ``value`` is any key :meth:`rows` produces (``total_nj``,
        ``nj_probe``, ``wall_s``, …); ``agg`` is one of mean/min/max/sum/
        count.  Python-side on purpose: metrics live in JSON payloads, the
        stores are thousands of rows, not millions.
        """
        funcs = {
            "mean": lambda vs: sum(vs) / len(vs),
            "sum": sum,
            "min": min,
            "max": max,
            "count": len,
        }
        if agg not in funcs:
            raise ReproError(
                f"unknown aggregation {agg!r}; valid: {', '.join(sorted(funcs))}"
            )
        for col in by:
            if col not in FILTER_COLUMNS:
                raise ReproError(
                    f"unknown group-by column {col!r}; "
                    f"valid: {', '.join(sorted(FILTER_COLUMNS))}"
                )
        groups: dict = {}
        for row in self.rows(where):
            if value not in row:
                raise ReproError(
                    f"metric {value!r} not present in store rows; "
                    f"available: {', '.join(sorted(k for k in row if k != 'faults'))}"
                )
            groups.setdefault(tuple(row[c] for c in by), []).append(row[value])
        return [
            {**dict(zip(by, key)), agg: funcs[agg](vals), "n": len(vals)}
            for key, vals in sorted(groups.items(), key=lambda kv: repr(kv[0]))
        ]

    # ---------------------------------------------------------- canonical
    def canonical_rows(self) -> list:
        """The deterministic view: canonical columns only, fingerprint
        order, numbers in canonical form.  Two stores filled by *any* mix
        of interrupted/resumed runs of one SweepSpec agree here exactly."""
        cur = self._conn.execute(
            "SELECT " + ", ".join(CANONICAL_COLUMNS) +
            " FROM cells ORDER BY fingerprint"
        )
        out = []
        for rec in cur:
            row = dict(zip(CANONICAL_COLUMNS, rec))
            row["pt_kb"] = _canon_number(row["pt_kb"])
            row["recal_multiple"] = _canon_number(row["recal_multiple"])
            out.append(row)
        return out

    def canonical_bytes(self) -> bytes:
        """One line of canonical JSON per canonical row."""
        return b"".join(
            canonical_json(row).encode() + b"\n" for row in self.canonical_rows()
        )

    def digest(self) -> str:
        """Content address of the canonical view (resume-equivalence tests
        and the CI sweep-smoke gate compare this)."""
        return hashlib.blake2b(self.canonical_bytes(), digest_size=16).hexdigest()

    # -------------------------------------------------------------- merge
    def merge_from(self, other: "ResultsStore") -> tuple:
        """Union another store's rows into this one (cross-host merge).

        Returns ``(added, skipped)``.  Merging is a pure union keyed by
        fingerprint: a row absent here is copied verbatim — provenance
        columns included, so per-host wall times and fault summaries
        survive the merge — and a row already present is skipped *only*
        after its canonical payload is compared.  The same fingerprint
        with a different canonical payload means one side is corrupt or
        was produced by incompatible code; that is a hard
        :class:`ReproError`, never a silent pick-one.
        """
        mine = {
            row["fingerprint"]: row for row in self.canonical_rows()
        }
        added = skipped = 0
        cur = other._conn.execute(
            "SELECT " + ", ".join(IDENTITY_COLUMNS) +
            ", metrics_json, energy_json, wall_s, faults_json, created_at, "
            "store_schema FROM cells ORDER BY fingerprint"
        )
        for rec in cur:
            fingerprint = rec[0]
            theirs = dict(zip(CANONICAL_COLUMNS,
                              rec[: len(CANONICAL_COLUMNS)]))
            theirs["pt_kb"] = _canon_number(theirs["pt_kb"])
            theirs["recal_multiple"] = _canon_number(theirs["recal_multiple"])
            ours = mine.get(fingerprint)
            if ours is not None:
                if ours != theirs:
                    conflicts = sorted(
                        col for col in CANONICAL_COLUMNS
                        if ours.get(col) != theirs.get(col)
                    )
                    raise ReproError(
                        f"merge conflict at fingerprint {fingerprint}: "
                        f"same cell, different canonical payload "
                        f"(columns: {', '.join(conflicts)}) — one store is "
                        f"corrupt or was produced by incompatible code"
                    )
                skipped += 1
                continue
            self._conn.execute(
                "INSERT INTO cells VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                rec,
            )
            mine[fingerprint] = theirs
            added += 1
        self._conn.commit()
        return added, skipped

    # ------------------------------------------------------------- export
    @staticmethod
    def export_csv(rows: list, columns: "list | None" = None) -> str:
        """Render flat row dicts as CSV text (deterministic field order).

        Rows that carry a ``fingerprint`` are re-sorted by it before
        rendering, so the CSV is canonical regardless of the insertion
        order a resumed or merged store happened to see.  Floats are
        written with ``repr`` (shortest exact round-trip), so the
        golden-row CI comparison is byte-stable across interpreter
        versions.
        """
        if rows and all("fingerprint" in row for row in rows):
            rows = sorted(rows, key=lambda row: row["fingerprint"])
        if columns is None:
            seen: list = []
            for row in rows:
                for key in row:
                    if key not in seen and key != "faults":
                        seen.append(key)
            columns = seen
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            rendered = []
            for col in columns:
                value = row.get(col, "")
                if isinstance(value, float):
                    value = "inf" if math.isinf(value) else repr(value)
                elif value is None:
                    value = ""
                elif isinstance(value, dict):
                    value = canonical_json(value)
                rendered.append(value)
            writer.writerow(rendered)
        return buf.getvalue()
