"""Persistent stream cache: round-trip, verification, rejection, wiring.

The contract under test (see :mod:`repro.sim.streamcache`): a loaded
stream is bit-identical to the walk that produced it — anything else
(corrupt zip, tampered arrays, wrong key, stale schema) is discarded with
a warning and the walk re-runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim import runner as runner_module
from repro.sim.runner import ExperimentRunner
from repro.sim.streamcache import (
    CACHE_ENV,
    StreamCache,
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


def test_warm_figure_regeneration_runs_no_walk(cached_config, monkeypatch):
    """Figure-level warm path: regenerating fig6 over a filled cache, with
    the in-process runner memo dropped, runs zero content walks, loads
    every stream from disk and renders the same table byte for byte."""
    from repro import telemetry
    from repro.experiments import clear_cache, get_spec, run_spec

    workloads = ("mcf", "soplex")
    walks = []
    real_run = ContentSimulator.run

    def counting_run(self, workload, max_accesses=None):
        walks.append(workload.name)
        return real_run(self, workload, max_accesses=max_accesses)

    monkeypatch.setattr(ContentSimulator, "run", counting_run)
    clear_cache()
    cold = run_spec(get_spec("fig6"), cached_config, workloads=workloads)
    assert sorted(walks) == sorted(workloads)

    clear_cache()
    walks.clear()
    with telemetry.session(force=True, label="warm") as sess:
        warm = run_spec(get_spec("fig6"), cached_config, workloads=workloads)
        hits = sess.registry.counter_total("stream_cache.hit")
        misses = sess.registry.counter_total("stream_cache.miss")
    clear_cache()
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


def test_tampered_arrays_fail_fingerprint(cached_config):
    """A stale/tampered entry whose zip is valid still fails verification."""
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    path = cache.path_for(key)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["hit_level"] = arrays["hit_level"].copy()
    arrays["hit_level"][0] ^= 1  # flip one outcome
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    with pytest.warns(RuntimeWarning, match="record digest mismatch"):
        assert cache.load(key) is None
    assert not path.exists()


def _rewrite(path: Path, **changes) -> None:
    """Rewrite a cache entry with some arrays replaced (a valid zip)."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays.update(changes)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("field", ["pc", "cpis", "at"])
def test_tampered_record_array_discarded_and_rewalked(cached_config, field,
                                                      monkeypatch):
    """Every persisted array is under the record digest — including the
    PCs and CPIs the content fingerprint never covered."""
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)
    path = cache.path_for(stream_key("mcf", cached_config))
    with np.load(path) as data:
        tampered = data[field].copy()
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

    assert streamcache.SCHEMA_VERSION == 2
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
    entry's metadata and file size, never from an array."""
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    read = []
    real_getitem = np.lib.npyio.NpzFile.__getitem__

    def spy(self, name):
        read.append(name)
        return real_getitem(self, name)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spy)
    [entry] = cache.entries()
    assert read == ["meta"]
    assert entry.num_accesses == cached_config.total_refs
    assert entry.size_bytes == entry.path.stat().st_size


def test_wrong_key_inside_file_rejected(cached_config):
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    key = stream_key("mcf", cached_config)
    path = cache.path_for(key)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["key"][0] = "other-workload"
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    with pytest.warns(RuntimeWarning, match="different key"):
        assert cache.load(key) is None


def test_verify_flags_bad_entries_without_deleting(cached_config):
    _walk(cached_config)
    cache = resolve_cache(cached_config)
    ok, bad = cache.verify()
    assert len(ok) == 1 and not bad
    junk = cache.directory / "junk.npz"
    junk.write_bytes(b"not a zip at all")
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
    assert list((tmp_path / "envcache").glob("*.npz"))
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
    entry = next(Path(cache_dir).glob("*.npz"))
    with np.load(entry) as data:
        pcs = data["pc"] ^ np.uint64(4)
    _rewrite(entry, pc=pcs)  # a valid zip, but not the record it claims
    assert main(["cache", "verify", "--dir", cache_dir]) == 1
    assert "1 corrupt" in capsys.readouterr().out
    (Path(cache_dir) / "junk.npz").write_bytes(b"garbage")
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
    """Regression: a non-OSError inside ``np.savez`` (bad dtype, pickling
    failure) escaped ``save`` entirely *and* leaked the ``*.npz.tmp-*``
    temp file.  Now: warn, return None, leave no droppings."""
    stream = _walk(cached_config)
    cache = resolve_cache(cached_config)

    def bad_savez(*args, **kwargs):
        raise ValueError("cannot pickle object arrays")

    monkeypatch.setattr("repro.sim.streamcache.np.savez", bad_savez)
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
