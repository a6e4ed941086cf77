"""Sweep progress journal: lifecycle completeness, crash-safety, schema.

The journal's contract (see :mod:`repro.sweep.journal`):

* written by the scheduler parent *unconditionally* — an untraced,
  killed-and-resumed sweep still yields a complete lifecycle record
  whose completed+resumed cell set matches the store exactly;
* crash-safe by line — a parent killed mid-write corrupts at most the
  final line, the reader skips it, and resuming appends a new
  ``run_started`` without rewriting a byte of history;
* schema-pinned — the record vocabulary is committed as
  ``tests/golden/journal_schema.json`` so downstream tooling (CI's
  journal validation, ``repro watch``) never sees a silently new shape.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.results import ResultsStore
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.journal import (
    JOURNAL_SCHEMA,
    REQUIRED_FIELDS,
    SweepJournal,
    journal_path,
    read_journal,
    validate_record,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _clean_faults():
    from repro import faults

    yield
    faults.uninstall()


def tiny_spec(name="t", workloads=("mcf", "lbm"), schemes=("base", "redhip"),
              **kw):
    return SweepSpec(name=name, machines=("tiny",), workloads=workloads,
                     schemes=schemes, refs_per_core=1200, **kw)


def _plan(tmp_path, *faults):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"seed": 7, "faults": list(faults)}))
    return str(path)


def _events(records, kind):
    return [r for r in records if r["event"] == kind]


def _assert_valid(records):
    problems = [p for r in records for p in validate_record(r)]
    assert not problems, problems


# ----------------------------------------------------- lifecycle + resume
def test_untraced_interrupted_resume_yields_complete_journal(tmp_path):
    """The satellite regression: no telemetry session anywhere, sweep
    stopped mid-grid and resumed — the journal alone reconstructs the
    full lifecycle and agrees with the store's canonical rows."""
    from repro import telemetry

    assert telemetry.active() is None
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"

    r1 = run_sweep(spec, store, workers=1, max_cells=1)   # "killed" mid-grid
    assert r1.completed == 1 and not r1.ok
    r2 = run_sweep(spec, store, workers=1)
    assert r2.ok and r2.resumed == 1 and r2.completed == 3

    jpath = journal_path(store)
    assert r1.journal_path == r2.journal_path == jpath
    records, bad = read_journal(jpath)
    assert not bad
    _assert_valid(records)

    starts = _events(records, "run_started")
    finishes = _events(records, "run_finished")
    assert len(starts) == len(finishes) == 2
    assert starts[0]["total"] == 4 and starts[0]["pending"] == 1
    assert starts[1]["resumed"] == 1 and starts[1]["pending"] == 3
    assert finishes[1]["ok"] is True and finishes[1]["digest"] == r2.digest

    completed = {r["fingerprint"] for r in _events(records, "cell_completed")}
    resumed = {r["fingerprint"] for r in _events(records, "cell_resumed")}
    with ResultsStore(store) as s:
        assert completed == s.completed()       # every row was journalled
    assert resumed < completed                  # the interrupted cell only
    assert len(resumed) == 1

    # every completed cell was dispatched in some shard first
    dispatched = set()
    for rec in _events(records, "shard_dispatched"):
        dispatched.update(rec["fingerprints"])
    assert completed <= dispatched


def test_journal_wall_payload_matches_store(tmp_path):
    spec = tiny_spec(workloads=("mcf",), stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1)
    records, _ = read_journal(journal_path(store))
    by_fp = {r["fingerprint"]: r for r in _events(records, "cell_completed")}
    with ResultsStore(store) as s:
        for row in s.rows():
            rec = by_fp[row["fingerprint"]]
            assert rec["wall_s"] == pytest.approx(row["wall_s"], abs=1e-5)
            assert rec["faults"] == row["faults"]
            assert "/" in rec["cell"]


# ----------------------------------------------------------- crash-safety
def test_truncated_tail_is_tolerated_and_never_rewritten(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1, max_cells=1)
    jpath = journal_path(store)

    # Simulate the parent dying mid-write: an unterminated partial line.
    with open(jpath, "ab") as fh:
        fh.write(b'{"event":"cell_compl')
    damaged = jpath.read_bytes()

    records, bad = read_journal(jpath)
    assert len(bad) == 1                       # at most one truncated line
    lineno, line = bad[0]
    assert lineno == damaged.count(b"\n") + 1  # and it is the last line
    _assert_valid(records)                     # everything else parses

    # Resume: history is append-only — the damaged prefix survives
    # byte-for-byte (terminated with one newline), new records follow.
    run_sweep(spec, store, workers=1)
    healed = jpath.read_bytes()
    assert healed.startswith(damaged + b"\n")
    records2, bad2 = read_journal(jpath)
    assert len(bad2) == 1 and bad2[0][1] == line
    assert len(_events(records2, "run_started")) == 2
    completed = {r["fingerprint"] for r in _events(records2, "cell_completed")}
    resumed = {r["fingerprint"] for r in _events(records2, "cell_resumed")}
    with ResultsStore(store) as s:
        assert completed | resumed >= s.completed()


def test_writer_is_line_atomic_per_append(tmp_path):
    """Every append leaves a parseable file — the mid-run ``repro
    watch`` reader never needs the writer to be done."""
    jpath = tmp_path / "j.journal.ndjson"
    with SweepJournal(jpath) as journal:
        for i in range(10):
            journal.append("heartbeat", t=float(i), shard=0, workload="mcf",
                           pid=1, done=i, cells=10)
            records, bad = read_journal(jpath)
            assert not bad and len(records) == i + 1


def test_unwritable_journal_degrades_to_warning(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("file blocking the parent directory")
    with pytest.warns(RuntimeWarning, match="unwritable"):
        journal = SweepJournal(target / "x.journal.ndjson")
    journal.append("run_started")              # silently dropped, no raise
    journal.close()
    assert journal.write_errors >= 1


# ---------------------------------------------------------------- schema
def test_journal_schema_matches_golden():
    golden = json.loads((GOLDEN / "journal_schema.json").read_text())
    assert golden["schema"] == JOURNAL_SCHEMA
    assert golden["events"] == {k: list(v) for k, v in REQUIRED_FIELDS.items()}


def test_validate_record_flags_unknown_and_missing():
    assert validate_record({"event": "nope"}) == ["unknown journal event 'nope'"]
    problems = validate_record({"event": "cell_completed", "t": 1.0})
    assert any("fingerprint" in p for p in problems)
    assert validate_record(
        {"event": "cell_resumed", "t": 1.0, "fingerprint": "f", "extra": 1}
    ) == []                                     # extra fields are fine


# ------------------------------------------------- failures and recovery
def test_failures_and_handled_faults_are_journalled(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    plan = _plan(tmp_path, {"site": "sweep.cell", "kind": "exception",
                            "match": "mcf", "hits": [1, 2]})
    store = tmp_path / "s.sqlite"
    r1 = run_sweep(spec, store, workers=1, faults_plan=plan)
    assert len(r1.failed) == 2
    records, _ = read_journal(journal_path(store))
    _assert_valid(records)
    failed = _events(records, "cell_failed")
    assert {r["fingerprint"] for r in failed} == {fp for fp, _l, _r in r1.failed}
    assert all("mcf" in r["cell"] and "injected" in r["reason"]
               for r in failed)
    handled = _events(records, "fault_handled")
    assert {(r["site"], r["action"]) for r in handled} == \
        {("sweep.cell", "cell_skipped")}
    assert _events(records, "run_finished")[0]["failed"] == 2


def test_worker_handled_faults_are_journalled_by_the_parent(tmp_path,
                                                           monkeypatch):
    """A pool worker's recoveries reach the journal through the parent:
    they travel, untraced, with the shard's outcome, only the parent
    writes them, and the shard's first row counts them — the same
    ``skipped_save`` records as before."""
    import os

    from repro import telemetry
    from repro.sweep import load_sweep

    assert telemetry.active() is None
    spec = load_sweep(GOLDEN / "sweep_smoke.json")
    plan = _plan(tmp_path, {"site": "streamcache.save", "kind": "enospc",
                            "match": "lbm", "probability": 1.0})
    writers = tmp_path / "writers.txt"
    real_append = SweepJournal.append_many

    def append_many(self, records):
        records = list(records)
        with open(writers, "a") as fh:      # a file: workers would write here too
            fh.writelines(f"{os.getpid()}\n" for event, _fields in records
                          if event == "fault_handled")
        real_append(self, records)

    monkeypatch.setattr(SweepJournal, "append_many", append_many)
    store = tmp_path / "s.sqlite"
    report = run_sweep(spec, store, workers=2, faults_plan=plan)
    assert report.ok and report.workers == 2
    records, bad = read_journal(journal_path(store))
    assert bad == []
    _assert_valid(records)
    handled = _events(records, "fault_handled")
    assert {(r["site"], r["action"]) for r in handled} == \
        {("streamcache.save", "skipped_save")}
    assert sorted(r["entry"].split("-")[0] for r in handled) == ["lbm", "lbm"]
    assert len({r["entry"] for r in handled}) == 2     # one per lbm shard
    assert writers.read_text().split() == [str(os.getpid())] * 2
    counted = [r["faults"] for r in _events(records, "cell_completed")
               if r["faults"]]
    assert counted == [{"streamcache.save:skipped_save": 1}] * 2


def test_inline_and_pooled_runs_journal_the_same_record(tmp_path):
    """Untraced, ``--workers 1`` and ``--workers 2`` leave the same durable
    record under one fault plan: every completed cell carries its stage
    seconds, and both runs journal the same handled faults and the same
    row fault counts."""
    from collections import Counter

    from repro import telemetry
    from repro.sweep import load_sweep

    assert telemetry.active() is None
    spec = load_sweep(GOLDEN / "sweep_smoke.json")
    plan = _plan(tmp_path,
                 {"site": "sweep.cell", "kind": "exception", "match": "mcf",
                  "probability": 1.0},
                 {"site": "streamcache.save", "kind": "enospc", "match": "lbm",
                  "probability": 1.0})
    journals, row_faults = {}, {}
    for workers in (1, 2):
        store = tmp_path / f"w{workers}.sqlite"
        report = run_sweep(spec, store, workers=workers, faults_plan=plan)
        assert report.workers == workers and len(report.failed) == 4
        records, bad = read_journal(journal_path(store))
        assert bad == []
        _assert_valid(records)
        journals[workers] = records
        with ResultsStore(store) as s:
            row_faults[workers] = {row["fingerprint"]: row["faults"]
                                   for row in s.rows()}

    stage_keys = {}
    for workers, records in journals.items():
        completed = _events(records, "cell_completed")
        assert len(completed) == 4                      # the lbm cells
        # Each store starts with an empty stream cache and lbm's saves
        # fail, so every shard that completed a cell walked its stream.
        for rec in completed:
            assert set(rec["stages"]) == {"walk", "replay", "charge"}
            assert all(secs >= 0 for secs in rec["stages"].values())
        stage_keys[workers] = [sorted(rec["stages"]) for rec in completed]
    assert stage_keys[1] == stage_keys[2]

    handled = {workers: Counter((r["site"], r["action"])
                                for r in _events(records, "fault_handled"))
               for workers, records in journals.items()}
    assert handled[1] == handled[2] == Counter({
        ("sweep.cell", "cell_skipped"): 4,
        ("streamcache.save", "skipped_save"): 2})
    assert row_faults[1] == row_faults[2]
    assert [f for f in row_faults[1].values() if f] == \
        [{"streamcache.save:skipped_save": 1}] * 2     # each lbm shard's first row


def test_worker_loss_journals_stall_then_fallback(tmp_path, monkeypatch):
    """A hung worker is journalled twice: ``worker_stalled`` when its
    heartbeats stop (before the timeout) and ``worker_lost`` +
    ``fallback_serial`` when the timeout fallback fires."""
    monkeypatch.setenv("REPRO_HEARTBEAT", "0.05")
    spec = tiny_spec(seeds=(1, 2), stream_cache=str(tmp_path / "cache"))
    plan = _plan(tmp_path, {"site": "parallel.worker", "kind": "hang",
                            "match": "mcf", "hits": [1],
                            "params": {"sleep_s": 30.0}})
    store = tmp_path / "s.sqlite"
    report = run_sweep(spec, store, workers=2, timeout_s=2.0,
                       faults_plan=plan)
    assert report.ok                           # fallback recovered everything
    records, _ = read_journal(journal_path(store))
    _assert_valid(records)
    stalls = _events(records, "worker_stalled")
    losses = _events(records, "worker_lost")
    assert losses and losses[0]["workload"] == "mcf"
    assert "timed out" in losses[0]["reason"]
    assert stalls and stalls[0]["workload"] == "mcf"
    assert stalls[0]["silent_s"] < 2.0         # strictly before the timeout
    # the journal ordering tells the story: stalled before lost
    kinds = [r["event"] for r in records]
    assert kinds.index("worker_stalled") < kinds.index("worker_lost")
    fallbacks = _events(records, "fallback_serial")
    assert any(f["scope"] == "shard" for f in fallbacks)


def test_one_hit_hang_costs_one_shard_and_its_worker(tmp_path, capfd):
    """A one-hit hang fires once per run, not once per worker process:
    one shard times out, its worker is killed rather than abandoned, the
    run ends long before the hang would, and stderr carries no traceback."""
    import multiprocessing
    import time

    from repro.sweep import run_cells

    spec = tiny_spec(seeds=(1, 2), stream_cache=str(tmp_path / "cache"))
    sleep_s = 30.0
    plan = _plan(tmp_path, {"site": "parallel.worker", "kind": "hang",
                            "match": "mcf", "hits": [1],
                            "params": {"sleep_s": sleep_s}})
    store = tmp_path / "s.sqlite"
    t0 = time.monotonic()
    report = run_cells(spec.cells(), spec.name, store, workers=2,
                       timeout_s=2.0, faults_plan=plan,
                       stream_cache=spec.stream_cache)
    elapsed = time.monotonic() - t0
    assert report.ok and report.shards == 4
    assert elapsed < sleep_s / 2
    assert multiprocessing.active_children() == []
    records, _ = read_journal(journal_path(store))
    _assert_valid(records)
    losses = _events(records, "worker_lost")
    assert [r["workload"] for r in losses] == ["mcf"]
    assert "timed out" in losses[0]["reason"]
    assert len(_events(records, "fallback_serial")) == 1
    kinds = [r["event"] for r in records]
    assert kinds.index("worker_stalled") < kinds.index("worker_lost")
    assert "Traceback" not in capfd.readouterr().err


def test_pooled_heartbeats_reach_the_journal(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HEARTBEAT", "0.02")
    spec = tiny_spec(seeds=(1, 2), stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    report = run_sweep(spec, store, workers=2)
    assert report.ok
    records, _ = read_journal(journal_path(store))
    _assert_valid(records)
    beats = _events(records, "heartbeat")
    assert beats                               # at least the cell-start ticks
    shards = {r["shard"] for r in _events(records, "shard_dispatched")}
    assert {b["shard"] for b in beats} <= shards
    assert all(b["pid"] != _events(records, "run_started")[0]["pid"]
               for b in beats)                 # beats come from workers
    assert all(b["cells"] == 2 for b in beats)
