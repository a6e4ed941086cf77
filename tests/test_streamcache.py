"""Persistent stream cache: round-trip, verification, rejection, wiring.

The contract under test (see :mod:`repro.sim.streamcache`): a loaded
stream is bit-identical to the walk that produced it — anything else
(bad header, cut file, tampered arrays, wrong key, stale schema) is
discarded with a warning and the walk re-runs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim import runner as runner_module
from repro.sim.runner import ExperimentRunner
from repro.hierarchy.events import RECORD_FIELDS, OutcomeStream
from repro.sim.streamcache import (
    CACHE_ENV,
    ENTRY_SUFFIX,
    StreamCache,
    _header_bytes,
    _parse_record,
    _write_record,
    resolve_cache,
    stream_key,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture
def cached_config(tiny_machine, tmp_path):
    return SimConfig(machine=tiny_machine, refs_per_core=2000, seed=7,
                     stream_cache=str(tmp_path / "cache"))


def _walk(config, name="mcf"):
    return ExperimentRunner(config).stream(name)


def _no_walk(monkeypatch):
    """Make any content walk an immediate failure."""
    def boom(self, workload, max_accesses=None):
        raise AssertionError("content walk ran on a warm cache")
    monkeypatch.setattr(ContentSimulator, "run", boom)


# ------------------------------------------------------------- round trip
def test_save_load_round_trip(cached_config):
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    assert cache.path_for(key).exists()  # runner saved it
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.fingerprint() == stream.fingerprint()
    assert loaded.num_levels == stream.num_levels
    np.testing.assert_array_equal(loaded.block, stream.block)
    np.testing.assert_array_equal(loaded.hit_level, stream.hit_level)
    np.testing.assert_array_equal(loaded.llc_when, stream.llc_when)


def test_warm_runner_skips_walk(cached_config, monkeypatch):
    _walk(cached_config)
    _no_walk(monkeypatch)
    loaded = ExperimentRunner(cached_config).stream("mcf")
    assert loaded.num_accesses == cached_config.total_refs


def test_custom_workload_is_never_served_a_cached_stream(cached_config):
    """Streams are keyed by workload name.  A custom workload may not take
    a registry name (it would be served the registry stream from the disk
    cache), and an added workload's stream never touches the disk: two
    custom workloads under one name each get their own walk."""
    from dataclasses import replace

    from repro.util.validation import ConfigError
    from repro.workloads import get_workload

    cfg = cached_config
    _walk(cfg, "mcf")

    def build(name):
        return get_workload(name, cfg.machine, cfg.refs_per_core, cfg.seed)

    impostor = replace(build("lbm"), name="mcf")
    with pytest.raises(ConfigError, match="'mcf'"):
        ExperimentRunner(cfg).add_workload(impostor)

    files = sorted(Path(cfg.stream_cache).iterdir())
    for source in ("lbm", "bwaves"):
        custom = replace(build(source), name="custom")
        runner = ExperimentRunner(cfg)
        runner.add_workload(custom)
        got = runner.stream("custom")
        uncached = ContentSimulator(replace(cfg, stream_cache=None)).run(custom)
        assert got.fingerprint() == uncached.fingerprint()
    assert sorted(Path(cfg.stream_cache).iterdir()) == files


def test_warm_figure_regeneration_runs_no_walk(cached_config, monkeypatch):
    """Figure-level warm path: regenerating fig6 over a filled cache runs
    zero content walks, loads every stream from disk and renders the same
    table byte for byte."""
    from repro import telemetry
    from repro.experiments import get_spec, run_spec

    workloads = ("mcf", "soplex")
    walks = []
    real_run = ContentSimulator.run

    def counting_run(self, workload, max_accesses=None):
        walks.append(workload.name)
        return real_run(self, workload, max_accesses=max_accesses)

    monkeypatch.setattr(ContentSimulator, "run", counting_run)
    cold = run_spec(get_spec("fig6"), cached_config, workloads=workloads)
    assert sorted(walks) == sorted(workloads)

    walks.clear()
    with telemetry.session(force=True, label="warm") as sess:
        warm = run_spec(get_spec("fig6"), cached_config, workloads=workloads)
        hits = sess.registry.counter_total("stream_cache.hit")
        misses = sess.registry.counter_total("stream_cache.miss")
    assert walks == []
    assert (hits, misses) == (len(workloads), 0)
    assert warm.table == cold.table


def test_warm_cells_build_no_workload(cached_config, monkeypatch):
    """With a filled cache, every sweep scheme evaluates from the L1-miss
    record alone — no workload is built — and matches the cold run.  The
    exclusive-hierarchy path still simulates the workload itself."""
    from repro.sweep.spec import SWEEP_SCHEMES, CellSpec, build_scheme

    def schemes(machine):
        return [build_scheme(CellSpec(machine="tiny", workload="mcf",
                                      scheme=key), machine)
                for key in SWEEP_SCHEMES]

    cold_runner = ExperimentRunner(cached_config)
    cold = [cold_runner.run("mcf", scheme)
            for scheme in schemes(cached_config.machine)]
    builds = []
    real = runner_module.get_workload
    monkeypatch.setattr(runner_module, "get_workload",
                        lambda *a, **k: builds.append(a[0]) or real(*a, **k))
    warm_runner = ExperimentRunner(cached_config)
    warm = [warm_runner.run("mcf", scheme)
            for scheme in schemes(cached_config.machine)]
    assert builds == []
    for a, b in zip(cold, warm):
        assert a.scheme == b.scheme
        assert a.timing.core_cycles.tobytes() == b.timing.core_cycles.tobytes()
        assert a.__dict__.keys() == b.__dict__.keys()
        for name, value in a.__dict__.items():
            if name != "timing":
                assert value == getattr(b, name), (a.scheme, name)
    warm_runner.run_exclusive_redhip("mcf")
    assert builds == ["mcf"]


def test_missing_entry_returns_none(cached_config):
    cache = StreamCache(cached_config.stream_cache)
    assert cache.load(stream_key("never-walked", cached_config)) is None


# ------------------------------------------------------------- rejection
def test_corrupt_entry_discarded_with_warning(cached_config):
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    path = cache.path_for(key)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])  # truncate
    with pytest.warns(RuntimeWarning, match="discarding stream-cache entry"):
        assert cache.load(key) is None
    assert not path.exists()  # never trusted again
    # The runner transparently re-walks and re-caches.
    again = ExperimentRunner(cached_config).stream("mcf")
    assert again.fingerprint() == stream.fingerprint()
    assert path.exists()


def _entry(path: Path) -> tuple:
    """``(meta, arrays)`` of a cache entry, through the module's reader."""
    return _parse_record(path.read_bytes())


def _rewrite(path: Path, meta: "dict | None" = None, **changes) -> None:
    """Rewrite a cache entry through the module's writer with some arrays
    (or the metadata) replaced: a well-formed entry whose stored record
    digest no longer matches what it holds."""
    old_meta, arrays = _entry(path)
    arrays = {**arrays, **changes}
    with open(path, "wb") as fh:
        _write_record(fh, old_meta if meta is None else meta, arrays)


def test_tampered_arrays_fail_fingerprint(cached_config):
    """A stale/tampered entry whose layout is valid still fails verification."""
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    path = cache.path_for(key)
    hit_level = _entry(path)[1]["hit_level"].copy()
    hit_level[0] ^= 1  # flip one outcome
    _rewrite(path, hit_level=hit_level)
    with pytest.warns(RuntimeWarning, match="record digest mismatch"):
        assert cache.load(key) is None
    assert not path.exists()


@pytest.mark.parametrize("field", ["pc", "cpis", "at"])
def test_tampered_record_array_discarded_and_rewalked(cached_config, field,
                                                      monkeypatch):
    """Every persisted array is under the record digest — including the
    PCs and CPIs the content fingerprint never covered."""
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)
    path = cache.path_for(stream_key("mcf", cached_config))
    tampered = _entry(path)[1][field].copy()
    tampered[-1] = tampered[-1] + 1
    _rewrite(path, **{field: tampered})
    walks = []
    real_run = ContentSimulator.run
    monkeypatch.setattr(ContentSimulator, "run",
                        lambda self, *a, **k: walks.append(1) or real_run(self, *a, **k))
    with pytest.warns(RuntimeWarning, match="record digest mismatch"):
        again = ExperimentRunner(cached_config).stream("mcf")
    assert walks == [1]  # discarded, then re-walked
    assert again.record_digest() == stream.record_digest()
    assert cache.load(stream_key("mcf", cached_config)) is not None


def test_schema_v1_entry_not_addressed(cached_config, monkeypatch):
    """Bumping the schema version leaves old entries unreachable: an
    entry saved under version 1 is never loaded for the current key."""
    from repro.sim import streamcache

    assert streamcache.SCHEMA_VERSION == 3
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    old_key = key[:-1] + (1,)
    cache.path_for(key).rename(cache.path_for(old_key))
    assert cache.path_for(old_key) != cache.path_for(key)
    assert cache.load(key) is None
    walks = []
    real_run = ContentSimulator.run
    monkeypatch.setattr(ContentSimulator, "run",
                        lambda self, *a, **k: walks.append(1) or real_run(self, *a, **k))
    assert ExperimentRunner(cached_config).stream("mcf").fingerprint() == \
        stream.fingerprint()
    assert walks == [1]


def test_entries_read_only_the_metadata(cached_config, monkeypatch):
    """``repro cache ls`` takes ``num_accesses`` and the size from the
    entry's metadata and file size, never from an array: it reads the
    16 fixed bytes and the header, and nothing after them."""
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    [path] = cache.directory.glob(f"*{ENTRY_SUFFIX}")
    header_len = int.from_bytes(path.read_bytes()[8:16], "little")
    read = []
    real_open = Path.open

    class Spy:
        def __init__(self, fh):
            self._fh = fh

        def read(self, size=-1):
            data = self._fh.read(size)
            read.append(len(data))
            return data

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    monkeypatch.setattr(Path, "open",
                        lambda self, *a, **k: Spy(real_open(self, *a, **k)))
    monkeypatch.setattr(Path, "read_bytes", lambda self: pytest.fail(
        "entries() read a whole entry"))
    [entry] = cache.entries()
    assert read == [16, header_len]
    assert sum(read) < entry.size_bytes
    assert entry.num_accesses == cached_config.total_refs
    assert entry.size_bytes == entry.path.stat().st_size


def test_wrong_key_inside_file_rejected(cached_config):
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    path = cache.path_for(key)
    meta = _entry(path)[0]
    meta["key"][0] = "other-workload"
    _rewrite(path, meta=meta)
    with pytest.warns(RuntimeWarning, match="different key"):
        assert cache.load(key) is None


@pytest.mark.parametrize("where", ["header", "arrays"])
def test_truncated_entry_discarded_and_rewalked(cached_config, where,
                                                monkeypatch):
    """A cut inside the header or inside the arrays is a bounds error:
    the entry is discarded and the walk re-runs."""
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    path = cache.path_for(key)
    data = path.read_bytes()
    start = 16 + int.from_bytes(data[8:16], "little")
    cut = 16 + (start - 16) // 2 if where == "header" else (start + len(data)) // 2
    path.write_bytes(data[:cut])
    walks = []
    real_run = ContentSimulator.run
    monkeypatch.setattr(ContentSimulator, "run",
                        lambda self, *a, **k: walks.append(1) or real_run(self, *a, **k))
    with pytest.warns(RuntimeWarning, match="out of bounds|ends past the file"):
        again = ExperimentRunner(cached_config).stream("mcf")
    assert walks == [1]
    assert again.record_digest() == stream.record_digest()
    assert path.read_bytes() == data          # re-saved, byte for byte


@pytest.mark.parametrize("field,column,change", [
    ("at", 1, "<u8"),                 # a pinned dtype swapped
    ("llc_op", 1, "<i8"),
    ("at", 2, -1),                    # one element fewer
    ("final_llc_blocks", 2, +1),      # one element past the end
])
def test_header_field_changes_rejected_before_digest(cached_config, field,
                                                     column, change,
                                                     monkeypatch):
    """A header that re-types or re-counts a pinned array is a layout
    error, caught before the record digest is computed."""
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    path = cache.path_for(key)
    data = path.read_bytes()
    start = 16 + int.from_bytes(data[8:16], "little")
    meta = _entry(path)[0]
    row = next(r for r in meta["arrays"] if r[0] == field)
    row[column] = change if column == 1 else row[column] + change
    path.write_bytes(_header_bytes(meta) + data[start:])
    digests = []
    real = OutcomeStream.record_digest
    monkeypatch.setattr(OutcomeStream, "record_digest",
                        lambda self: digests.append(1) or real(self))
    with pytest.warns(RuntimeWarning, match="unreadable"):
        assert cache.load(key) is None
    assert digests == []
    assert not path.exists()


def test_loaded_arrays_read_only_and_bit_identical(cached_config):
    """Every persisted field comes back read-only, with its pinned dtype,
    holding exactly the bytes the walk produced."""
    stream = _walk(cached_config)
    loaded = resolve_cache(cached_config).load(stream_key("mcf", cached_config))
    assert loaded is not None
    assert {dtype for _, dtype in RECORD_FIELDS} == \
        {"<i8", "i1", "<u8", "<u2", "<f8"}
    for name, dtype in RECORD_FIELDS:
        got = getattr(loaded, name)
        want = np.ascontiguousarray(getattr(stream, name), dtype=dtype)
        assert got.dtype == np.dtype(dtype), name
        assert not got.flags.writeable, name
        assert got.tobytes() == want.tobytes(), name
        with pytest.raises(ValueError):
            got[:1] = 0


def test_every_flipped_byte_is_rejected(cached_config):
    """One flipped byte anywhere — header, padding or array — fails the
    parse, the layout check or the record digest; none loads."""
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    path = cache.path_for(stream_key("mcf", cached_config))
    data = path.read_bytes()
    meta = _entry(path)[0]
    start = 16 + int.from_bytes(data[8:16], "little")
    offsets = set(range(start))                  # every fixed and header byte
    for _name, dtype, count, offset in meta["arrays"]:
        end = start + offset + count * np.dtype(dtype).itemsize
        offsets.update(range(start + offset, min(end, start + offset + 2)))
        offsets.update(range(max(end - 2, start + offset), end + 8))
    offsets = sorted(o for o in offsets if o < len(data))
    for offset in offsets:
        mangled = bytearray(data)
        mangled[offset] ^= 0xFF
        try:
            got_meta, arrays = _parse_record(bytes(mangled))
        except (ValueError, KeyError, TypeError):
            continue
        stream = OutcomeStream(**arrays, num_levels=int(got_meta["num_levels"]),
                               content_fingerprint=str(got_meta["fingerprint"]))
        assert stream.record_digest() != got_meta["record_digest"], offset


def test_clear_removes_schema2_npz_entries(cached_config):
    """``clear`` also reclaims the ``.npz`` entries (and temp leftovers)
    that schema 2 wrote and no key addresses any more."""
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    old = [cache.directory / "mcf-tiny-2-abc.npz",
           cache.directory / "mcf-tiny-2-abc.npz.tmp-123",
           cache.directory / f"bwaves-tiny-3-def{ENTRY_SUFFIX}.tmp-456"]
    for path in old:
        path.write_bytes(b"PK\x03\x04 a schema-2 zip")
    assert [e.path.suffix for e in cache.entries()] == [ENTRY_SUFFIX]
    assert cache.clear() == 4
    assert list(cache.directory.iterdir()) == []


def test_verify_flags_bad_entries_without_deleting(cached_config):
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    ok, bad = cache.verify()
    assert len(ok) == 1 and not bad
    junk = cache.directory / f"junk{ENTRY_SUFFIX}"
    junk.write_bytes(b"not a stream-cache entry at all")
    ok, bad = cache.verify()
    assert len(ok) == 1 and bad == [junk]
    assert junk.exists()  # verify is read-only
    assert cache.clear() == 2
    assert cache.entries() == []


# ----------------------------------------------------------------- wiring
def test_env_var_enables_cache(tiny_machine, tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path / "envcache"))
    cfg = SimConfig(machine=tiny_machine, refs_per_core=2000, seed=7)
    assert resolve_cache(cfg).directory == Path(tmp_path / "envcache")
    ExperimentRunner(cfg).stream("mcf")
    assert list((tmp_path / "envcache").glob(f"*{ENTRY_SUFFIX}"))
    _no_walk(monkeypatch)
    ExperimentRunner(cfg).stream("mcf")  # warm from the env-named cache


@pytest.mark.parametrize("value", ["", "0", "false", "off"])
def test_env_var_falsy_disables(value, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, value)
    assert resolve_cache(None) is None


def test_env_var_truthy_selects_default_dir(monkeypatch):
    monkeypatch.setenv(CACHE_ENV, "1")
    assert resolve_cache(None).directory == Path(".repro-cache")


def test_different_config_different_entry(cached_config):
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    other = SimConfig(
        machine=cached_config.machine,
        refs_per_core=cached_config.refs_per_core,
        seed=99,
        stream_cache=cached_config.stream_cache,
    )
    assert cache.load(stream_key("mcf", other)) is None  # seed is in the key


# -------------------------------------------------------------------- CLI
def test_cache_cli_ls_verify_clear(cached_config, capsys):
    from repro.cli import main

    _walk(cached_config)
    cache_dir = str(cached_config.stream_cache)
    assert main(["cache", "ls", "--dir", cache_dir]) == 0
    assert "1 entries" in capsys.readouterr().out
    assert main(["cache", "verify", "--dir", cache_dir]) == 0
    assert "1 ok, 0 corrupt" in capsys.readouterr().out
    entry = next(Path(cache_dir).glob(f"*{ENTRY_SUFFIX}"))
    pcs = _entry(entry)[1]["pc"] ^ np.uint64(4)
    _rewrite(entry, pc=pcs)  # a valid layout, but not the record it claims
    assert main(["cache", "verify", "--dir", cache_dir]) == 1
    assert "1 corrupt" in capsys.readouterr().out
    (Path(cache_dir) / f"junk{ENTRY_SUFFIX}").write_bytes(b"garbage")
    assert main(["cache", "verify", "--dir", cache_dir]) == 1
    assert "2 corrupt" in capsys.readouterr().out
    assert main(["cache", "clear", "--dir", cache_dir]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["cache", "ls", "--dir", cache_dir]) == 0
    assert "empty" in capsys.readouterr().out


# ------------------------------------------------- hardened failure paths
def test_save_survives_uncreatable_directory(cached_config, tmp_path):
    """Regression: ``save`` used to mkdir *outside* the retry/skip
    envelope, so an uncreatable cache directory (permissions, ENOSPC, a
    file squatting on the path) crashed the run instead of degrading to
    an uncached walk."""
    stream = _walk(cached_config)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = StreamCache(blocker / "cache")  # mkdir must fail: parent is a file
    key = stream_key("mcf", cached_config)
    with pytest.warns(RuntimeWarning, match="continuing uncached"):
        assert cache.save(key, stream) is None
    assert blocker.is_file()  # nothing trampled the blocker


def test_save_skips_on_non_io_error_without_tmp_leak(
    cached_config, monkeypatch
):
    """Regression: a non-OSError inside the entry writer (bad dtype, an
    unconvertible array) escaped ``save`` entirely *and* leaked the
    ``*.tmp-*`` temp file.  Now: warn, return None, leave no droppings."""
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)

    def bad_write(*args, **kwargs):
        raise ValueError("cannot convert object arrays")

    monkeypatch.setattr("repro.sim.streamcache._write_record", bad_write)
    key = stream_key("bwaves", cached_config)
    with pytest.warns(RuntimeWarning, match="continuing uncached"):
        assert cache.save(key, _walk(cached_config, "bwaves")) is None
    assert list(cache.directory.glob("*.tmp-*")) == []
    assert not cache.path_for(key).exists()
    # the original mcf entry is untouched
    assert cache.load(stream_key("mcf", cached_config)) is not None


def test_entries_skips_file_deleted_between_glob_and_stat(
    cached_config, monkeypatch
):
    """Regression: ``entries()`` called ``path.stat()`` outside its try
    block, so a concurrent ``load`` discard or ``clear()`` deleting a
    file between the glob and the stat aborted ``repro cache ls`` and
    ``verify`` with FileNotFoundError."""
    import os as _os

    _walk(cached_config, "mcf")
    _walk(cached_config, "bwaves")
    cache = resolve_cache(cached_config)
    before = cache.entries()
    assert len(before) == 2
    victim = before[0].path
    real_stat = Path.stat
    state = {"fired": False}

    def racy_stat(self, *args, **kwargs):
        if self.name == victim.name and not state["fired"]:
            state["fired"] = True
            _os.unlink(victim)  # the concurrent writer wins the race
            raise FileNotFoundError(2, "deleted concurrently", str(self))
        return real_stat(self, *args, **kwargs)

    monkeypatch.setattr(Path, "stat", racy_stat)
    survivors = cache.entries()
    assert state["fired"]
    assert [e.path for e in survivors] == [before[1].path]
    assert all(e.ok for e in survivors)


def test_load_treats_concurrent_clear_as_plain_miss(cached_config, monkeypatch):
    """An entry deleted between ``load``'s existence check and the read
    (another process's ``clear``) is an ordinary miss — no discard
    warning, nothing reported corrupt."""
    import warnings as _warnings

    _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    real = StreamCache._read_checked

    def read_after_clear(self, path, k):
        path.unlink(missing_ok=True)
        return real(self, path, k)

    monkeypatch.setattr(StreamCache, "_read_checked", read_after_clear)
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")  # any discard warning -> failure
        assert cache.load(key) is None
