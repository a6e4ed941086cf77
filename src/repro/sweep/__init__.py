"""Sweep orchestrator: grid specs -> sharded execution -> results store.

The simulation-as-a-service backbone.  A :class:`SweepSpec`
(:mod:`repro.sweep.spec`) expands a declarative grid — machine x scheme x
workload x PT size x recalibration period x probe mode — into concrete
cells with stable content-addressed fingerprints; the scheduler
(:mod:`repro.sweep.scheduler`) shards the cells over the repo's one
process pool (sharing the persistent stream cache, with one worker-loss/
timeout/serial-fallback budget) and lands every completed cell as one
row in an append-only SQLite store
(:mod:`repro.results.store`).  A killed sweep restarts and skips every
fingerprint already in the store; ``repro sweep`` / ``repro query`` are
the CLI verbs.

Observability rides alongside: the scheduler parent streams every
lifecycle event to an NDJSON journal (:mod:`repro.sweep.journal`) next
to the store, ``repro watch`` (:mod:`repro.sweep.watch`) renders a live
or snapshot view of it, and ``repro report`` (:mod:`repro.sweep.report`)
folds journal + store + bench history into one post-run artifact.
"""

from repro.sweep.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    journal_path,
    read_journal,
)
from repro.sweep.scheduler import SweepReport, run_cells, run_sweep, shard_cells
from repro.sweep.spec import CellSpec, SweepSpec, load_sweep

__all__ = [
    "CellSpec",
    "JOURNAL_SCHEMA",
    "SweepJournal",
    "SweepReport",
    "SweepSpec",
    "journal_path",
    "load_sweep",
    "read_journal",
    "run_cells",
    "run_sweep",
    "shard_cells",
]
