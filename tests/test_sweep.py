"""Sweep orchestrator: grid expansion, results store, resume, recovery.

The properties under test mirror the subsystem's contract:

* expansion is canonical — inapplicable axes normalize away, duplicates
  collapse by fingerprint, invalid grid points are filtered, and the
  fingerprints are stable across processes (they are the resume key);
* the store is append-only and its *canonical view* is a pure function of
  the spec — any mix of killed/resumed runs converges to the same digest;
* worker loss costs nothing (the shard re-runs serially in the parent)
  and a failing cell costs exactly that cell, exactly once.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.results import CANONICAL_COLUMNS, STORE_SCHEMA, CellRow, ResultsStore
from repro.sweep import CellSpec, SweepSpec, load_sweep, run_sweep
from repro.sweep.scheduler import shard_cells, sweep_stream_cache
from repro.util.validation import ConfigError, ReproError

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _clean_faults():
    """A sweep's explicitly passed plan installs process-wide (so the pool
    sites fire before any runner exists); never let one leak into the
    next test."""
    from repro import faults

    yield
    faults.uninstall()


def tiny_spec(name="t", workloads=("mcf", "lbm"), schemes=("base", "redhip"),
              **kw):
    return SweepSpec(name=name, machines=("tiny",), workloads=workloads,
                     schemes=schemes, refs_per_core=1200, **kw)


# ------------------------------------------------------------- expansion
def test_inapplicable_axes_collapse_by_fingerprint():
    spec = tiny_spec(workloads=("mcf",), schemes=("base", "redhip"),
                     pt_kb=(None, 32.0), recal_multiples=(1.0, float("inf")))
    cells = spec.cells()
    # base ignores pt_kb AND recal_multiple -> exactly one base cell;
    # redhip gets the full 2x2.
    assert sum(1 for c in cells if c.scheme == "base") == 1
    assert sum(1 for c in cells if c.scheme == "redhip") == 4
    base = next(c for c in cells if c.scheme == "base")
    assert base.pt_kb is None and base.recal_multiple is None
    assert base.probe_mode is None


def test_probe_mode_axis_is_predictor_only():
    spec = tiny_spec(workloads=("mcf",), schemes=("phased", "redhip"),
                     probe_modes=("parallel", "phased", "waypred"))
    cells = spec.cells()
    assert sum(1 for c in cells if c.scheme == "phased") == 1
    assert sum(1 for c in cells if c.scheme == "redhip") == 3


def test_predictor_cells_skip_non_superset_policies():
    spec = tiny_spec(workloads=("mcf",), policies=("inclusive", "exclusive"))
    cells = spec.cells()
    assert {(c.scheme, c.policy) for c in cells} == {
        ("base", "inclusive"), ("base", "exclusive"), ("redhip", "inclusive"),
    }


def test_fingerprint_is_stable_and_canonical():
    a = CellSpec(machine="tiny", workload="mcf", scheme="base",
                 pt_kb=64.0, probe_mode="phased")   # inapplicable axes set
    b = CellSpec(machine="tiny", workload="mcf", scheme="base")
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() == a.fingerprint()
    assert "schema" in a.identity() and a.identity()["schema"] == STORE_SCHEMA
    c = CellSpec(machine="tiny", workload="mcf", scheme="base", seed=2)
    assert c.fingerprint() != b.fingerprint()


def test_cell_validation_names_the_problem():
    with pytest.raises(ConfigError, match="unknown machine"):
        CellSpec(machine="nope", workload="mcf", scheme="base")
    with pytest.raises(ConfigError, match="unknown scheme"):
        CellSpec(machine="tiny", workload="mcf", scheme="magic")
    with pytest.raises(ConfigError, match="unknown workload"):
        CellSpec(machine="tiny", workload="nope", scheme="base")
    with pytest.raises(ConfigError, match="recal_multiple"):
        CellSpec(machine="tiny", workload="mcf", scheme="redhip",
                 recal_multiple=0.0)


def test_shards_group_by_content_trajectory():
    spec = tiny_spec(seeds=(1, 2))
    shards = shard_cells(spec.cells())
    # 2 workloads x 2 seeds trajectories, each carrying both schemes
    assert len(shards) == 4
    assert all(len(s) == 2 for s in shards)
    for shard in shards:
        assert len({(c.workload, c.seed) for c in shard}) == 1


def test_load_sweep_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"workloads": ["mcf"], "shcemes": ["base"]}))
    with pytest.raises(ConfigError, match="shcemes"):
        load_sweep(path)


def test_load_sweep_defaults_and_inf(tmp_path):
    path = tmp_path / "pt-sweep.json"
    path.write_text(json.dumps({
        "workloads": ["mcf"], "schemes": ["redhip"],
        "recal_multiples": [1, "inf"],
    }))
    spec = load_sweep(path)
    assert spec.name == "pt-sweep"              # defaults to the file stem
    assert spec.recal_multiples == (1.0, float("inf"))
    assert len(spec.cells()) == 2


# ----------------------------------------------------------------- store
def _row(fp="f1", scheme="base", **kw):
    defaults = dict(
        fingerprint=fp, sweep="t", machine="tiny", workload="mcf",
        scheme=scheme, policy="inclusive", refs_per_core=1200, seed=1,
        pt_kb=None, recal_multiple=None, probe_mode=None,
        metrics={"total_nj": 10.0, "exec_cycles": 100.0},
        energy={"probe": 4.0}, wall_s=0.25, faults={"faults.injected": 1},
    )
    defaults.update(kw)
    return CellRow(**defaults)


def test_store_is_append_only(tmp_path):
    with ResultsStore(tmp_path / "s.sqlite") as store:
        assert store.append(_row()) is True
        assert store.append(_row(metrics={"total_nj": 999.0})) is False
        assert len(store) == 1
        assert store.completed() == {"f1"}
        assert store.rows()[0]["total_nj"] == 10.0   # first write won


def test_store_filters_and_aggregates(tmp_path):
    with ResultsStore(tmp_path / "s.sqlite") as store:
        store.append(_row("f1", scheme="base"))
        store.append(_row("f2", scheme="redhip",
                          metrics={"total_nj": 6.0, "exec_cycles": 90.0}))
        store.append(_row("f3", scheme="redhip", seed=2,
                          metrics={"total_nj": 8.0, "exec_cycles": 95.0}))
        assert [r["fingerprint"] for r in store.rows({"scheme": "redhip"})] \
            == ["f2", "f3"]
        assert store.rows({"pt_kb": "none"})  # NULL match spelling
        with pytest.raises(ReproError, match="unknown filter column"):
            store.rows({"total_nj": 1})
        agg = store.aggregate("total_nj", by=("scheme",), agg="mean")
        assert agg == [
            {"scheme": "base", "mean": 10.0, "n": 1},
            {"scheme": "redhip", "mean": 7.0, "n": 2},
        ]
        with pytest.raises(ReproError, match="unknown aggregation"):
            store.aggregate("total_nj", agg="median")
        with pytest.raises(ReproError, match="not present"):
            store.aggregate("zap")


def test_canonical_view_excludes_provenance(tmp_path):
    a, b = tmp_path / "a.sqlite", tmp_path / "b.sqlite"
    with ResultsStore(a) as sa, ResultsStore(b) as sb:
        sa.append(_row("f1", wall_s=0.1, faults={}))
        sa.append(_row("f2", wall_s=0.2))
        sb.append(_row("f2", wall_s=9.9, faults={"faults.injected": 5}))
        sb.append(_row("f1", wall_s=8.8))        # different insert order too
        assert sa.digest() == sb.digest()
        assert sa.canonical_bytes() == sb.canonical_bytes()
        rows = sa.canonical_rows()
        assert [r["fingerprint"] for r in rows] == ["f1", "f2"]
        assert set(rows[0]) == set(CANONICAL_COLUMNS)


def test_export_csv_renders_inf_none_and_dicts(tmp_path):
    with ResultsStore(tmp_path / "s.sqlite") as store:
        store.append(_row("f1", scheme="redhip", recal_multiple=float("inf")))
        text = ResultsStore.export_csv(store.rows())
        header, line = text.splitlines()
        assert "faults" not in header.split(",")
        cols = dict(zip(header.split(","), line.split(",")))
        assert cols["recal_multiple"] == "inf"
        assert cols["pt_kb"] == ""               # None -> empty
        text2 = ResultsStore.export_csv(store.rows(), ["fingerprint", "faults"])
        assert '"{""faults.injected"":1}"' in text2


# ---------------------------------------------------------- shard ingest
def _ingest_shard(tmp_path, rows, store=None, on_journal=None):
    """Ingest ``rows`` as one shard; returns (store, report, records)."""
    from repro.sweep.journal import SweepJournal, read_journal
    from repro.sweep.scheduler import SweepReport, _ingest

    if store is None:
        store = ResultsStore(tmp_path / "s.sqlite")
    report = SweepReport(sweep="t", store_path=store.path, total=len(rows),
                         resumed=0, completed=0)
    path = tmp_path / "s.journal.ndjson"
    with SweepJournal(path) as journal:
        if on_journal is not None:
            real = journal.append_many

            def append_many(records):
                records = list(records)
                for event, _fields in records:
                    on_journal(event)
                real(records)

            journal.append_many = append_many
        _ingest(store, rows, [("f9", "tiny/mcf/lbm", "boom")], report, journal)
    return store, report, read_journal(path)[0]


def _visible_rows(path) -> int:
    """Row count as a second connection sees it (committed rows only)."""
    import sqlite3

    other = sqlite3.connect(path)
    try:
        return other.execute("SELECT COUNT(*) FROM cells").fetchone()[0]
    finally:
        other.close()


def test_shard_ingest_commits_once(tmp_path):
    store = ResultsStore(tmp_path / "s.sqlite")
    statements = []
    store._conn.set_trace_callback(statements.append)
    rows = [_row(fp=f"f{k}") for k in range(5)]
    _, report, _ = _ingest_shard(tmp_path, rows, store)
    assert report.completed == 5
    assert [s for s in statements if s.strip().upper() == "COMMIT"] == ["COMMIT"]
    store.close()


def test_shard_rows_are_durable_before_completions_are_journalled(tmp_path):
    """A second connection sees the whole shard by the time the first
    ``cell_completed`` line is written."""
    rows = [_row(fp=f"f{k}") for k in range(4)]
    seen = []

    def on_journal(event):
        if event == "cell_completed":
            seen.append(_visible_rows(tmp_path / "s.sqlite"))

    store, _, records = _ingest_shard(tmp_path, rows, on_journal=on_journal)
    assert seen == [4] * 4
    assert [r["event"] for r in records] == ["cell_completed"] * 4 + ["cell_failed"]
    store.close()


def test_raced_fingerprint_still_journals_resumed(tmp_path):
    store = ResultsStore(tmp_path / "s.sqlite")
    store.append(_row(fp="f1"))
    _, report, records = _ingest_shard(tmp_path, [_row(fp="f1"), _row(fp="f2")],
                                       store)
    assert (report.completed, report.resumed) == (1, 1)
    assert records[0] == {**records[0], "event": "cell_resumed",
                          "fingerprint": "f1", "raced": True}
    assert records[1]["event"] == "cell_completed"
    store.close()


def test_store_transaction_rolls_back_and_bare_append_commits(tmp_path):
    def visible():
        return _visible_rows(tmp_path / "s.sqlite")

    with ResultsStore(tmp_path / "s.sqlite") as store:
        with pytest.raises(RuntimeError):
            with store.transaction():
                assert store.append(_row(fp="f1"))
                raise RuntimeError("shard lost mid-ingest")
        assert len(store) == 0
        assert store.append(_row(fp="f2"))
        assert visible() == 1                 # outside a transaction: at once
        with store.transaction():
            store.append(_row(fp="f3"))
            with pytest.raises(ReproError, match="do not nest"):
                with store.transaction():
                    pass
            assert visible() == 1             # not before the commit
        assert visible() == 2


def test_run_cells_hashes_each_cell_once(tmp_path, monkeypatch):
    """A fresh run and a fully resumed rerun each fingerprint every cell
    exactly once; caller-supplied fingerprints are not recomputed."""
    from repro.sweep import scheduler

    cells = tiny_spec().cells()
    fingerprints = [cell.fingerprint() for cell in cells]
    calls = []
    real = CellSpec.fingerprint

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CellSpec, "fingerprint", counted)
    store = tmp_path / "s.sqlite"
    cache = str(tmp_path / "cache")
    first = scheduler.run_cells(cells, "t", store, workers=1, stream_cache=cache)
    assert first.completed == len(cells) and len(calls) == len(cells)
    calls.clear()
    again = scheduler.run_cells(cells, "t", store, workers=1, stream_cache=cache)
    assert again.resumed == len(cells) and len(calls) == len(cells)
    calls.clear()
    scheduler.run_cells(cells, "t", store, workers=1, stream_cache=cache,
                        fingerprints=fingerprints)
    assert calls == []
    with pytest.raises(ValueError):
        scheduler.run_cells(cells, "t", store, fingerprints=fingerprints[1:])


# -------------------------------------------------------- run and resume
def test_run_rerun_and_interrupted_runs_converge(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    full = tmp_path / "full.sqlite"
    r1 = run_sweep(spec, full, workers=1)
    assert r1.ok and r1.completed == r1.total == 4 and r1.resumed == 0
    r2 = run_sweep(spec, full, workers=1)
    assert r2.ok and r2.completed == 0 and r2.resumed == 4
    assert r2.digest == r1.digest

    # killed mid-run (after 1 cell), restarted: identical canonical store
    part = tmp_path / "part.sqlite"
    ri = run_sweep(spec, part, workers=1, max_cells=1)
    assert ri.completed == 1 and not ri.ok      # genuinely interrupted
    rr = run_sweep(spec, part, workers=1)
    assert rr.ok and rr.resumed == 1 and rr.completed == 3
    with ResultsStore(part) as sp, ResultsStore(full) as sf:
        assert sp.canonical_bytes() == sf.canonical_bytes()
        assert sp.digest() == sf.digest()


def test_pooled_run_matches_serial_digest(tmp_path):
    spec = tiny_spec(seeds=(1, 2), stream_cache=str(tmp_path / "cache"))
    serial = run_sweep(spec, tmp_path / "serial.sqlite", workers=1)
    pooled = run_sweep(spec, tmp_path / "pooled.sqlite", workers=2)
    assert serial.ok and pooled.ok
    assert pooled.digest == serial.digest


def test_default_stream_cache_sits_next_to_store(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STREAM_CACHE", raising=False)
    spec = tiny_spec()
    assert sweep_stream_cache(spec, tmp_path / "x.sqlite") \
        == str(tmp_path / "x.stream-cache")
    monkeypatch.setenv("REPRO_STREAM_CACHE", str(tmp_path / "env-cache"))
    assert sweep_stream_cache(spec, tmp_path / "x.sqlite") is None
    explicit = tiny_spec(stream_cache="explicit-dir")
    assert sweep_stream_cache(explicit, tmp_path / "x.sqlite") == "explicit-dir"


# ------------------------------------------------------ fault tolerance
def _plan(tmp_path, *faults):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"seed": 7, "faults": list(faults)}))
    return str(path)


def test_worker_crash_falls_back_to_serial(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    plan = _plan(tmp_path, {"site": "parallel.worker", "kind": "crash",
                            "match": "mcf", "hits": [1]})
    report = run_sweep(spec, tmp_path / "s.sqlite", workers=2,
                       timeout_s=60.0, faults_plan=plan)
    assert report.ok and report.completed == report.total == 4
    clean = run_sweep(spec, tmp_path / "clean.sqlite", workers=1)
    assert report.digest == clean.digest


def test_worker_crash_loses_only_its_own_shard(tmp_path):
    """One crashed worker costs one shard: the other in-flight shard
    finishes in its own worker instead of re-running serially."""
    from repro.sweep import journal_path, read_journal, run_cells

    cells = tiny_spec(seeds=(1, 2)).cells()
    cache = str(tmp_path / "cache")
    serial = run_cells(cells, "t", tmp_path / "serial.sqlite", workers=1,
                       stream_cache=cache)
    plan = _plan(tmp_path, {"site": "parallel.worker", "kind": "crash",
                            "match": "mcf", "hits": [1]})
    store = tmp_path / "s.sqlite"
    report = run_cells(cells, "t", store, workers=2, timeout_s=60.0,
                       faults_plan=plan, stream_cache=cache)
    assert report.shards == 4 and report.ok
    assert report.digest == serial.digest
    records, bad = read_journal(journal_path(store))
    assert not bad
    lost = [r for r in records if r["event"] == "worker_lost"]
    assert [r["workload"] for r in lost] == ["mcf"]
    assert "exit code 23" in lost[0]["reason"]
    assert len([r for r in records if r["event"] == "fallback_serial"]) == 1


def test_failing_cell_is_skipped_then_retried_next_run(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    plan = _plan(tmp_path, {"site": "sweep.cell", "kind": "exception",
                            "match": "mcf", "hits": [1, 2]})
    store = tmp_path / "s.sqlite"
    r1 = run_sweep(spec, store, workers=1, faults_plan=plan)
    assert not r1.ok and len(r1.failed) == 2          # both mcf cells
    assert r1.completed == 2                          # lbm cells landed
    assert all("mcf" in label for _fp, label, _r in r1.failed)
    with ResultsStore(store) as s:
        assert len(s) == 2
    # next run (no plan) re-attempts exactly the failed cells
    r2 = run_sweep(spec, store, workers=1)
    assert r2.ok and r2.resumed == 2 and r2.completed == 2
    clean = run_sweep(spec, tmp_path / "clean.sqlite", workers=1)
    assert r2.digest == clean.digest


# ------------------------------------------------------------------- CLI
def test_cli_sweep_plan_run_resume_and_query(tmp_path, capsys):
    from repro.cli import main

    spec_path = GOLDEN / "sweep_smoke.json"
    store = tmp_path / "smoke.sqlite"

    assert main(["sweep", str(spec_path), "--plan"]) == 0
    out = capsys.readouterr().out
    assert "8 cells in 4 shard(s)" in out

    assert main(["sweep", str(spec_path), "--store", str(store),
                 "--workers", "1", "--max-cells", "3"]) == 0
    assert "3 completed" in capsys.readouterr().out
    assert main(["sweep", str(spec_path), "--store", str(store),
                 "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "3 resumed, 5 completed" in out

    assert main(["query", str(store), "--where", "scheme=redhip"]) == 0
    out = capsys.readouterr().out
    assert out.count("redhip") == 4 and "4 row(s)" in out
    assert main(["query", str(store), "--by", "scheme", "--value",
                 "total_nj"]) == 0
    out = capsys.readouterr().out
    assert "scheme=base" in out and "scheme=redhip" in out and "n=4" in out


def test_cli_query_matches_golden_rows(tmp_path, capsys):
    """The committed golden rows pin the smoke grid's simulated physics:
    any change to the walk, the charging kernel or the store's rendering
    shows up as a diff here (and in the CI sweep-smoke job)."""
    from repro.cli import main

    golden = (GOLDEN / "sweep_smoke_rows.csv").read_text()
    columns = golden.splitlines()[0]
    store = tmp_path / "smoke.sqlite"
    assert main(["sweep", str(GOLDEN / "sweep_smoke.json"),
                 "--store", str(store), "--workers", "1"]) == 0
    capsys.readouterr()
    assert main(["query", str(store), "--csv", "--columns", columns]) == 0
    assert capsys.readouterr().out == golden


def test_cli_query_errors_are_reported(tmp_path, capsys):
    from repro.cli import main

    assert main(["query", str(tmp_path / "missing.sqlite")]) == 1
    assert "no results store" in capsys.readouterr().err
    store = tmp_path / "s.sqlite"
    with ResultsStore(store) as s:
        s.append(_row())
    assert main(["query", str(store), "--where", "bogus"]) == 1
    assert "expected COL=VAL" in capsys.readouterr().err
    assert main(["query", str(store), "--where", "nope=1"]) == 1
    assert "unknown filter column" in capsys.readouterr().err
