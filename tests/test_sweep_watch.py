"""``repro watch`` / ``repro report``: correct counts mid-run and post-mortem.

Both tools are pure functions of the on-disk journal + store, so the
tests drive them through real sweeps at three lifecycle points: killed
mid-grid (counts show the partial state and remaining work), resumed to
completion (counts converge with the store), and degraded inputs (store
without journal, journal without store).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sweep import SweepSpec, journal_path, run_sweep
from repro.sweep.report import build_report, render_report
from repro.sweep.watch import (
    build_view,
    percentile_exact,
    render_view,
    resolve_paths,
)
from repro.util.validation import ReproError

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


# ----------------------------------------------------------------- paths
def test_resolve_paths_accepts_store_or_journal(tmp_path):
    store = tmp_path / "s.sqlite"
    journal = journal_path(store)
    assert resolve_paths(store) == (store, journal)
    assert resolve_paths(journal) == (store, journal)
    with pytest.raises(ReproError, match="nothing to watch"):
        build_view(tmp_path / "missing.sqlite")


def test_percentile_exact_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile_exact(values, 0.50) == 5.0
    assert percentile_exact(values, 0.95) == 10.0
    assert percentile_exact([7.5], 0.95) == 7.5
    assert percentile_exact([], 0.5) == 0.0


# ----------------------------------------------- mid-run and post-mortem
def test_view_counts_mid_run_and_after_resume(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"

    run_sweep(spec, store, workers=1, max_cells=1)     # killed mid-grid
    view = build_view(store)
    assert not view.finished or view.remaining == 3    # run finished early
    assert len(view.completed) == 1 and view.run_total == 4
    assert view.remaining == 3 and view.store_rows == 1
    frame = render_view(view)
    assert "1 completed" in frame and "3 remaining" in frame

    run_sweep(spec, store, workers=1)                  # resumed to the end
    view = build_view(store)
    assert view.finished and view.remaining == 0
    assert view.done == 4 == view.store_rows
    assert len(view.resumed) == 1
    assert view.digest
    frame = render_view(view)
    assert "0 remaining" in frame and view.digest in frame


def test_view_joins_failures_and_eta_inputs(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 7, "faults": [
        {"site": "sweep.cell", "kind": "exception", "match": "mcf",
         "hits": [1, 2]}]}))
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1, faults_plan=str(plan))
    view = build_view(store)
    assert len(view.failed) == 2 and len(view.completed) == 2
    assert view.store_wall["cells"] == 2
    assert view.store_wall["mean_s"] > 0
    assert any(kind == "cell_failed" for _t, kind, _d in view.events)
    frame = render_view(view)
    assert "2 failed" in frame and "[cell_failed]" in frame


def test_view_without_journal_degrades_to_store_counts(tmp_path):
    spec = tiny_spec(workloads=("mcf",), stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1)
    journal_path(store).unlink()
    view = build_view(store)
    assert view.journal_records == 0 and view.store_rows == 2
    render_view(view)                                  # renders, no raise


# ----------------------------------------------------------------- report
def test_report_counts_match_store_and_journal(tmp_path):
    spec = tiny_spec(stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1, max_cells=2)
    run_sweep(spec, store, workers=1)
    report = build_report(store)
    assert report["store"]["rows"] == 4
    assert report["store"]["by_scheme"] == {"base": 2, "redhip": 2}
    assert report["journal"]["runs"] == 2
    assert report["journal"]["cells"]["completed"] == 4
    assert report["journal"]["cells"]["resumed_distinct"] == 0
    assert report["journal"]["cells"]["failed"] == 0
    assert report["tails"]["cell_wall_s"]["n"] == 4
    text = render_report(report)
    assert "4 rows" in text and "2 run(s)" in text
    json.dumps(report)                                 # fully JSON-able


def test_report_without_store_uses_journal_only(tmp_path):
    spec = tiny_spec(workloads=("mcf",), stream_cache=str(tmp_path / "cache"))
    store = tmp_path / "s.sqlite"
    run_sweep(spec, store, workers=1)
    store.unlink()
    report = build_report(journal_path(store))
    assert report["store"] == {"present": False}
    assert report["journal"]["cells"]["completed"] == 2
    assert "store: missing" in render_report(report)


# -------------------------------------------------------------------- CLI
def test_cli_watch_once_shows_untraced_inline_stages(tmp_path, capsys):
    """An untraced ``--workers 1`` sweep journals per-cell stage seconds,
    so ``repro watch`` has stage lines to print."""
    from repro import telemetry
    from repro.cli import main

    assert telemetry.active() is None
    store = tmp_path / "smoke.sqlite"
    assert main(["sweep", str(GOLDEN / "sweep_smoke.json"),
                 "--store", str(store), "--workers", "1"]) == 0
    capsys.readouterr()
    assert main(["watch", str(store), "--once"]) == 0
    out = capsys.readouterr().out
    assert "stage replay:" in out and "stage charge:" in out
    assert "stage walk:" in out


def test_cli_watch_once_and_report(tmp_path, capsys):
    from repro.cli import main

    store = tmp_path / "smoke.sqlite"
    assert main(["sweep", str(GOLDEN / "sweep_smoke.json"),
                 "--store", str(store), "--workers", "1",
                 "--max-cells", "3"]) == 0
    out = capsys.readouterr().out
    assert "journal" in out

    assert main(["watch", str(store), "--once"]) == 0
    out = capsys.readouterr().out
    assert "3 completed" in out and "5 remaining" in out

    assert main(["sweep", str(GOLDEN / "sweep_smoke.json"),
                 "--store", str(store), "--workers", "1"]) == 0
    capsys.readouterr()
    assert main(["watch", str(store), "--once"]) == 0
    out = capsys.readouterr().out
    assert "8 completed" in out and "0 remaining" in out and "finished" in out

    assert main(["report", str(store)]) == 0
    out = capsys.readouterr().out
    assert "8 rows" in out

    assert main(["report", str(store), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"store_path", "journal_path", "store", "journal",
                        "tails"}
    assert doc["store"]["rows"] == 8
    assert doc["journal"]["cells"]["completed"] == 8

    assert main(["watch", str(tmp_path / "nope.sqlite"), "--once"]) == 1
    assert "nothing to watch" in capsys.readouterr().err
