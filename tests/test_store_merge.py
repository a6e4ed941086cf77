"""Cross-host merge: sharded stores union back to the single-host digest.

The merge contract (DESIGN.md): ``repro merge`` is a pure union of
canonical rows keyed by cell fingerprint.  Rows are bit-identical
wherever they were computed (the simulator is deterministic), so merging
any sharding of a grid must reproduce the digest of an unsharded run —
and the same fingerprint with a *different* canonical payload is a hard
error, never a silent pick-one.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest

from repro.cli import main
from repro.results import ResultsStore
from repro.sweep import load_sweep, run_cells, run_sweep
from repro.util.validation import ReproError

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def smoke_parts(tmp_path_factory):
    """The smoke grid run three ways: single-host, and two one-host shards."""
    root = tmp_path_factory.mktemp("merge")
    spec = load_sweep(GOLDEN / "sweep_smoke.json")
    single = root / "single.sqlite"
    report = run_sweep(spec, single, workers=1)
    assert report.ok

    cells = spec.cells()
    host_a, host_b = root / "hostA.sqlite", root / "hostB.sqlite"
    # Interleaved split: both shards carry a mix of workloads/schemes.
    ra = run_cells(cells[0::2], spec.name, host_a, workers=1)
    rb = run_cells(cells[1::2], spec.name, host_b, workers=1)
    assert ra.ok and rb.ok
    return single, host_a, host_b


def _digest(path: Path) -> str:
    with ResultsStore(path) as store:
        return store.digest()


def test_two_way_merge_reproduces_single_host_digest(smoke_parts, tmp_path):
    single, host_a, host_b = smoke_parts
    merged = tmp_path / "merged.sqlite"
    with ResultsStore(merged) as dst:
        with ResultsStore(host_a) as a:
            added_a, skipped_a = dst.merge_from(a)
        with ResultsStore(host_b) as b:
            added_b, skipped_b = dst.merge_from(b)
        assert skipped_a == skipped_b == 0
        assert added_a + added_b == len(dst)
    assert _digest(merged) == _digest(single)


def test_merge_is_idempotent_and_order_independent(smoke_parts, tmp_path):
    single, host_a, host_b = smoke_parts
    ba = tmp_path / "ba.sqlite"
    with ResultsStore(ba) as dst:
        with ResultsStore(host_b) as b:
            dst.merge_from(b)
        with ResultsStore(host_a) as a:
            dst.merge_from(a)
        # Folding a source in again adds nothing and changes nothing.
        with ResultsStore(host_a) as a:
            added, skipped = dst.merge_from(a)
        assert added == 0 and skipped > 0
    assert _digest(ba) == _digest(single)


def test_cli_merge_two_shards_matches_single_run(smoke_parts, tmp_path, capsys):
    single, host_a, host_b = smoke_parts
    merged = tmp_path / "cli-merged.sqlite"
    assert main(["merge", str(merged), str(host_a), str(host_b)]) == 0
    out = capsys.readouterr().out
    assert "added" in out
    assert _digest(single) in out
    assert _digest(merged) == _digest(single)


def test_tampered_row_is_a_merge_conflict(smoke_parts, tmp_path, capsys):
    single, host_a, _ = smoke_parts
    tampered = tmp_path / "tampered.sqlite"
    tampered.write_bytes(host_a.read_bytes())
    conn = sqlite3.connect(tampered)
    conn.execute(
        "UPDATE cells SET metrics_json = '{\"exec_cycles\": 1.0}' "
        "WHERE fingerprint = (SELECT MIN(fingerprint) FROM cells)"
    )
    conn.commit()
    conn.close()

    merged = tmp_path / "conflict.sqlite"
    with ResultsStore(merged) as dst:
        with ResultsStore(host_a) as a:
            dst.merge_from(a)
        with ResultsStore(tampered) as bad:
            with pytest.raises(ReproError, match="merge conflict"):
                dst.merge_from(bad)

    # Same failure through the CLI: non-zero exit, named fingerprint.
    assert main(["merge", str(tmp_path / "cli-conflict.sqlite"),
                 str(host_a), str(tampered)]) == 1
    err = capsys.readouterr().err
    assert "merge conflict" in err


def test_cli_merge_missing_source_is_an_error(smoke_parts, tmp_path, capsys):
    """A missing source fails the merge before ``dst`` is opened: no empty
    store is left behind, and an existing one keeps its rows even when a
    good source precedes the missing one."""
    _, host_a, host_b = smoke_parts
    missing = tmp_path / "nope.sqlite"

    fresh = tmp_path / "dst.sqlite"
    assert main(["merge", str(fresh), str(missing)]) == 1
    assert "no results store" in capsys.readouterr().err
    assert not fresh.exists()
    assert main(["merge", str(fresh), str(host_a), str(missing)]) == 1
    capsys.readouterr()
    assert not fresh.exists()

    existing = tmp_path / "existing.sqlite"
    assert main(["merge", str(existing), str(host_b)]) == 0
    capsys.readouterr()
    before = existing.read_bytes()
    assert main(["merge", str(existing), str(host_a), str(missing)]) == 1
    assert "no results store" in capsys.readouterr().err
    assert existing.read_bytes() == before


def test_export_csv_is_fingerprint_ordered(smoke_parts):
    single, _, _ = smoke_parts
    with ResultsStore(single) as store:
        rows = store.rows()
    assert rows == sorted(rows, key=lambda r: r["fingerprint"])
    shuffled = list(reversed(rows))
    assert ResultsStore.export_csv(shuffled) == ResultsStore.export_csv(rows)
