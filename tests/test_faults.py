"""Fault injection & recovery: chaos must be invisible in the results.

Three layers under test (see :mod:`repro.faults` and DESIGN.md's "Fault
model & recovery policies"):

* the *injector* itself — same plan + seed fires the same faults at the
  same sites regardless of scheduling (golden-pinned fault log, key-order
  independence of probability streams), and the ``REPRO_FAULTS`` /
  ``SimConfig(faults=...)`` wiring never leaks into cache identity;
* each *site + recovery policy* pair — corrupt/short-read/transient-IO
  cache loads, ENOSPC/partial cache writes, worker crash/hang/exception
  and pool spawn failure, trace-file short reads — every one must end in
  results bit-identical to a clean run;
* the *chaos harness* — ``run_chaos`` on the committed plan
  (``tests/golden/chaos_plan.json``) regenerates a fig6 slice with and
  without faults and proves the artifacts byte-equal, which is the
  acceptance gate CI's chaos-smoke job re-runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import faults, telemetry
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
)
from repro.sim.config import SimConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.streamcache import (ENTRY_SUFFIX, StreamCache, resolve_cache,
                                  stream_key)
from repro.sweep.scheduler import default_worker_timeout
from repro.util.validation import ConfigError
from repro.workloads import get_workload
from repro.workloads.tracefile import load_workload, save_workload

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

GOLDEN_DIR = Path(__file__).parent / "golden"
CHAOS_PLAN = GOLDEN_DIR / "chaos_plan.json"

#: Retry policy used throughout: no real sleeping in unit tests.
FAST_RETRY = RetryPolicy(attempts=3, backoff_s=0.0)


def plan_of(*specs, seed=7, **kwargs) -> FaultPlan:
    return FaultPlan(faults=tuple(specs), seed=seed,
                     retry=FAST_RETRY, **kwargs)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """A test that forgets to scope its injector must not poison the next."""
    yield
    faults.uninstall()


@pytest.fixture
def cached_config(tiny_machine, tmp_path):
    return SimConfig(machine=tiny_machine, refs_per_core=1500, seed=7,
                     stream_cache=str(tmp_path / "cache"))


# ======================================================== plan validation
class TestPlan:
    def test_round_trip(self):
        plan = plan_of(
            FaultSpec(site="streamcache.load", kind="corrupt",
                      match="mcf", hits=[1, 3]),
            FaultSpec(site="parallel.worker", kind="hang",
                      probability=0.25, max_fires=2,
                      params={"sleep_s": 1.5}),
            worker_timeout_s=9.0,
        )
        again = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert again == plan

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault site"):
            FaultSpec(site="nope.nope", kind="corrupt", hits=[1])

    def test_kind_must_match_site(self):
        with pytest.raises(ConfigError, match="not valid at site"):
            FaultSpec(site="streamcache.save", kind="crash", hits=[1])

    def test_exactly_one_trigger(self):
        with pytest.raises(ConfigError, match="exactly one trigger"):
            FaultSpec(site="streamcache.load", kind="corrupt",
                      hits=[1], probability=0.5)
        with pytest.raises(ConfigError, match="exactly one trigger"):
            FaultSpec(site="streamcache.load", kind="corrupt")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault-spec fields"):
            FaultSpec.from_dict({"site": "streamcache.load",
                                 "kind": "corrupt", "hits": [1], "when": 3})

    def test_committed_chaos_plan_loads(self):
        plan = faults.load_plan(CHAOS_PLAN)
        assert len(plan.faults) >= 3
        assert len({s.kind for s in plan.faults}) >= 3


# ================================================== injection determinism
class TestInjectorDeterminism:
    def _run_script(self, plan, script):
        injector = FaultInjector(plan)
        for site, key in script:
            injector.check(site, key)
        return injector.log

    def test_fault_log_matches_golden(self):
        """The committed plan, replayed over a scripted hit sequence,
        fires exactly the golden-pinned log — regenerate fault_log.json
        only on an intentional injector-semantics change."""
        golden = json.loads((GOLDEN_DIR / "fault_log.json").read_text())
        plan = faults.load_plan(CHAOS_PLAN)
        script = [tuple(s) for s in golden["script"]]
        assert self._run_script(plan, script) == golden["log"]

    def test_same_plan_same_seed_same_fires(self):
        plan = plan_of(
            FaultSpec(site="streamcache.load", kind="io_error",
                      probability=0.5),
        )
        script = [("streamcache.load", k) for k in "abcab" for _ in range(3)]
        assert self._run_script(plan, script) == self._run_script(plan, script)

    def test_probability_is_key_order_independent(self):
        """Per-key RNG streams: interleaving keys differently must not
        change any key's decisions — the property that keeps injection
        deterministic under pool scheduling."""
        plan = plan_of(
            FaultSpec(site="parallel.worker", kind="exception",
                      probability=0.4),
        )
        keys = ["mcf", "lbm", "astar"]
        seq_a = [("parallel.worker", k) for k in keys * 4]
        seq_b = [("parallel.worker", k) for k in list(reversed(keys)) * 4]

        def per_key(log):
            out = {}
            for rec in log:
                out.setdefault(rec["key"], []).append(rec["hit"])
            return out

        assert per_key(self._run_script(plan, seq_a)) == \
            per_key(self._run_script(plan, seq_b))

    def test_hits_are_per_key(self):
        plan = plan_of(
            FaultSpec(site="streamcache.load", kind="corrupt", hits=[2]),
        )
        injector = FaultInjector(plan)
        assert injector.check("streamcache.load", "a") is None
        assert injector.check("streamcache.load", "b") is None
        assert injector.check("streamcache.load", "a").kind == "corrupt"
        assert injector.check("streamcache.load", "b").kind == "corrupt"

    def test_max_fires_caps_probability_spec(self):
        plan = plan_of(
            FaultSpec(site="streamcache.load", kind="io_error",
                      probability=1.0, max_fires=2),
        )
        injector = FaultInjector(plan)
        fired = [injector.check("streamcache.load", "k") for _ in range(5)]
        assert sum(f is not None for f in fired) == 2

    def test_injected_events_reach_telemetry(self):
        plan = plan_of(
            FaultSpec(site="streamcache.load", kind="corrupt", hits=[1]),
        )
        with telemetry.session(force=True) as sess:
            FaultInjector(plan).check("streamcache.load", "mcf")
        assert sess.events[0]["name"] == "faults.injected"
        assert sess.events[0]["site"] == "streamcache.load"
        assert sess.registry.snapshot()["counters"]["events.faults.injected"] == 1


# ====================================================== config/env wiring
class TestWiring:
    def test_faults_do_not_pollute_cache_identity(self, tiny_machine, tmp_path):
        plain = SimConfig(machine=tiny_machine, refs_per_core=1000, seed=3)
        chaotic = SimConfig(machine=tiny_machine, refs_per_core=1000, seed=3,
                            faults=str(tmp_path / "plan.json"))
        assert plain.cache_key() == chaotic.cache_key()
        assert plain == chaotic  # compare=False, like checked/telemetry

    def test_env_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(plan_of(
            FaultSpec(site="tracefile.load", kind="short_read", hits=[1]),
        ).to_json())
        monkeypatch.setenv(faults.FAULTS_ENV, str(path))
        injector = faults.current()
        assert injector is not None
        assert injector.plan.faults[0].site == "tracefile.load"
        assert faults.current() is injector  # cached while env is stable
        monkeypatch.setenv(faults.FAULTS_ENV, "0")
        assert faults.current() is None

    def test_config_plan_installed_by_runner(self, tiny_machine, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(plan_of(
            FaultSpec(site="streamcache.save", kind="enospc", hits=[99]),
        ).to_json())
        cfg = SimConfig(machine=tiny_machine, refs_per_core=1000, seed=3,
                        faults=str(path))
        try:
            ExperimentRunner(cfg)
            assert faults.current() is not None
            assert faults.retry_policy() == FAST_RETRY
        finally:
            faults.uninstall()

    def test_manifest_records_plan_path(self, tiny_machine):
        from repro.telemetry.manifest import _config_dict

        cfg = SimConfig(machine=tiny_machine, refs_per_core=1000, seed=3,
                        faults="plan.json")
        assert _config_dict(cfg)["faults"] == "plan.json"
        assert "plan.json" not in _config_dict(cfg)["cache_key"]


# ================================================ stream-cache fault sites
class TestStreamCacheFaults:
    def _warm(self, config, name="mcf"):
        return ExperimentRunner(config).stream(name)

    def test_corrupt_on_load_rewalks_identically(self, cached_config):
        clean = self._warm(cached_config)
        plan = plan_of(FaultSpec(site="streamcache.load", kind="corrupt",
                                 match="mcf", hits=[1]))
        with faults.scope(plan) as injector, \
                telemetry.session(force=True) as sess:
            again = ExperimentRunner(cached_config).stream("mcf")
            assert injector.fired_kinds() == {"corrupt"}
        assert again.fingerprint() == clean.fingerprint()
        names = [e["name"] for e in sess.events]
        assert "faults.injected" in names and "faults.handled" in names
        handled = [e for e in sess.events if e["name"] == "faults.handled"]
        assert handled[0]["site"] == "streamcache.load"
        assert handled[0]["action"] == "discard_rewalk"
        # The re-walk re-cached a good entry.
        cache = resolve_cache(cached_config)
        assert cache.load(stream_key("mcf", cached_config)) is not None

    def test_short_read_on_load_rewalks_identically(self, cached_config):
        clean = self._warm(cached_config)
        plan = plan_of(FaultSpec(site="streamcache.load", kind="short_read",
                                 match="mcf", hits=[1]))
        with faults.scope(plan):
            again = ExperimentRunner(cached_config).stream("mcf")
        assert again.fingerprint() == clean.fingerprint()

    def test_transient_io_error_retried_entry_survives(self, cached_config):
        clean = self._warm(cached_config)
        cache = resolve_cache(cached_config)
        key = stream_key("mcf", cached_config)
        plan = plan_of(FaultSpec(site="streamcache.load", kind="io_error",
                                 match="mcf", hits=[1]))
        with faults.scope(plan), telemetry.session(force=True) as sess:
            loaded = cache.load(key)
        assert loaded is not None  # retry recovered, no re-walk needed
        assert loaded.fingerprint() == clean.fingerprint()
        assert cache.path_for(key).exists()  # never discarded
        handled = [e for e in sess.events if e["name"] == "faults.handled"]
        assert handled and handled[0]["action"] == "retried"

    def test_io_error_every_attempt_discards_and_rewalks(self, cached_config):
        clean = self._warm(cached_config)
        plan = plan_of(FaultSpec(site="streamcache.load", kind="io_error",
                                 match="mcf", hits=[1, 2, 3]))
        with faults.scope(plan):
            with pytest.warns(RuntimeWarning, match="unreadable after retries"):
                again = ExperimentRunner(cached_config).stream("mcf")
        assert again.fingerprint() == clean.fingerprint()

    def test_enospc_once_is_retried_to_success(self, cached_config):
        plan = plan_of(FaultSpec(site="streamcache.save", kind="enospc",
                                 match="mcf", hits=[1]))
        with faults.scope(plan), telemetry.session(force=True) as sess:
            self._warm(cached_config)
        cache = resolve_cache(cached_config)
        assert cache.load(stream_key("mcf", cached_config)) is not None
        handled = [e for e in sess.events if e["name"] == "faults.handled"]
        assert handled and handled[0]["action"] == "retried"

    def test_enospc_every_attempt_skips_save_gracefully(self, cached_config):
        plan = plan_of(FaultSpec(site="streamcache.save", kind="enospc",
                                 match="mcf", hits=[1, 2, 3]))
        with faults.scope(plan):
            with pytest.warns(RuntimeWarning, match="continuing uncached"):
                stream = self._warm(cached_config)
        assert stream.num_accesses == cached_config.total_refs
        cache = resolve_cache(cached_config)
        assert cache.load(stream_key("mcf", cached_config)) is None  # miss
        # A later clean run caches normally.
        self._warm(cached_config)
        assert cache.load(stream_key("mcf", cached_config)) is not None

    def test_partial_write_never_leaves_a_visible_entry(self, cached_config):
        plan = plan_of(FaultSpec(site="streamcache.save", kind="partial_write",
                                 match="mcf", hits=[1, 2, 3]))
        with faults.scope(plan):
            with pytest.warns(RuntimeWarning, match="continuing uncached"):
                self._warm(cached_config)
        cache = resolve_cache(cached_config)
        # Nothing half-written under the final name, nothing in ls/verify.
        assert cache.entries() == []
        ok, bad = cache.verify()
        assert ok == [] and bad == []

    def test_partial_write_retry_recovers(self, cached_config):
        clean_fp = self._warm(
            SimConfig(machine=cached_config.machine,
                      refs_per_core=cached_config.refs_per_core,
                      seed=cached_config.seed)
        ).fingerprint()
        plan = plan_of(FaultSpec(site="streamcache.save", kind="partial_write",
                                 match="mcf", hits=[1]))
        with faults.scope(plan):
            self._warm(cached_config)
        cache = resolve_cache(cached_config)
        loaded = cache.load(stream_key("mcf", cached_config))
        assert loaded is not None and loaded.fingerprint() == clean_fp


# ================================================= scheduler pool sites
class TestPoolFaults:
    """The ``parallel.*`` sites of the sweep scheduler's pool.  Crash and
    hang are covered end to end in ``tests/test_sweep.py`` and
    ``tests/test_sweep_journal.py``."""

    @staticmethod
    def _cells():
        from repro.sweep import SweepSpec

        return SweepSpec(name="pool", machines=("tiny",),
                         workloads=("mcf", "lbm"), schemes=("base", "redhip"),
                         refs_per_core=1200).cells()

    def _pooled_vs_serial(self, tmp_path, plan):
        """Run the grid pooled under ``plan`` and serially without it;
        return (telemetry session, journal records) of the pooled run."""
        from repro.sweep import journal_path, read_journal, run_cells

        cells = self._cells()
        cache = str(tmp_path / "cache")
        serial = run_cells(cells, "pool", tmp_path / "serial.sqlite",
                           workers=1, stream_cache=cache)
        store = tmp_path / "pooled.sqlite"
        with faults.scope(plan), telemetry.session(force=True) as sess:
            pooled = run_cells(cells, "pool", store, workers=2,
                               stream_cache=cache)
        assert serial.ok and pooled.ok
        assert pooled.digest == serial.digest
        records, bad = read_journal(journal_path(store))
        assert not bad
        return sess, records

    def test_worker_exception_degrades_to_serial(self, tmp_path):
        plan = plan_of(FaultSpec(site="parallel.worker", kind="exception",
                                 match="lbm", hits=[1]))
        sess, records = self._pooled_vs_serial(tmp_path, plan)
        handled = [e for e in sess.events if e["name"] == "faults.handled"
                   and e["site"] == "parallel.worker"]
        assert [e["action"] for e in handled] == ["serial_fallback"]
        assert "InjectedWorkerError" in handled[0]["reason"]
        lost = [r for r in records if r["event"] == "worker_lost"]
        assert [r["workload"] for r in lost] == ["lbm"]
        fallback = [r for r in records if r["event"] == "fallback_serial"]
        assert [r["scope"] for r in fallback] == ["shard"]
        assert sess.registry.snapshot()["counters"]["parallel.worker_lost"] == 1

    def test_pool_spawn_failure_runs_everything_serially(self, tmp_path,
                                                         monkeypatch):
        plan = plan_of(FaultSpec(site="parallel.pool", kind="spawn_fail",
                                 hits=[1]))
        # Belt and braces: no pool worker may even be constructed.
        monkeypatch.setattr(
            "repro.sweep.scheduler._Worker",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("pool constructed despite spawn_fail")),
        )
        sess, records = self._pooled_vs_serial(tmp_path, plan)
        handled = [e for e in sess.events if e["name"] == "faults.handled"]
        assert [(e["site"], e["action"]) for e in handled] == \
            [("parallel.pool", "serial_all")]
        assert not [r for r in records if r["event"] == "worker_lost"]
        fallback = [r for r in records if r["event"] == "fallback_serial"]
        assert [r["scope"] for r in fallback] == ["pool"]
        assert "parallel.pools" not in sess.registry.snapshot()["counters"]

    def test_failed_respawn_runs_the_waiting_shards_serially(self, tmp_path,
                                                             monkeypatch):
        """A lost worker whose replacement cannot spawn: the surviving
        worker carries on, and once none is left the shards still waiting
        re-run serially like lost ones."""
        from repro.sweep import SweepSpec, journal_path, read_journal, run_cells
        from repro.sweep import scheduler

        real, spawned = scheduler._Worker, []

        def two_workers(interval):
            if len(spawned) == 2:
                raise OSError(11, "injected respawn failure")
            spawned.append(real(interval))
            return spawned[-1]

        monkeypatch.setattr(scheduler, "_Worker", two_workers)
        # Shards run mcf/1, mcf/2, lbm/1, lbm/2; each workload's first
        # shard crashes its worker.
        cells = SweepSpec(name="pool", machines=("tiny",),
                          workloads=("mcf", "lbm"), schemes=("base", "redhip"),
                          refs_per_core=1200, seeds=(1, 2)).cells()
        cache = str(tmp_path / "cache")
        serial = run_cells(cells, "pool", tmp_path / "serial.sqlite",
                           workers=1, stream_cache=cache)
        store = tmp_path / "pooled.sqlite"
        plan = plan_of(FaultSpec(site="parallel.worker", kind="crash",
                                 hits=[1]))
        with faults.scope(plan):
            pooled = run_cells(cells, "pool", store, workers=2,
                               stream_cache=cache)
        assert pooled.ok and pooled.digest == serial.digest
        records, bad = read_journal(journal_path(store))
        assert not bad
        lost = [r for r in records if r["event"] == "worker_lost"]
        assert [r["shard"] for r in lost] == [0, 2, 3]
        assert "exit code 23" in lost[0]["reason"]
        assert "never dispatched" in lost[2]["reason"]

    def test_worker_timeout_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "12.5")
        assert default_worker_timeout() == 12.5
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "inf")
        assert default_worker_timeout() == float("inf")
        for bad in ("soon", "0", "-5", "nan"):
            monkeypatch.setenv("REPRO_WORKER_TIMEOUT", bad)
            with pytest.warns(RuntimeWarning, match="not a positive number"):
                assert default_worker_timeout() == 600.0
        # A fault plan's override wins, and only while it is installed.
        with faults.scope(plan_of(worker_timeout_s=0.5)):
            assert default_worker_timeout() == 0.5
        assert default_worker_timeout() == 600.0

    def test_heartbeat_env_fallback(self, monkeypatch):
        from repro.sweep.scheduler import heartbeat_interval

        monkeypatch.setenv("REPRO_HEARTBEAT", "0.5")
        assert heartbeat_interval() == 0.5
        for bad in ("0", "-1", "soon", "nan", "inf", "1e12"):
            monkeypatch.setenv("REPRO_HEARTBEAT", bad)
            with pytest.warns(RuntimeWarning, match="not a positive number"):
                assert heartbeat_interval() == 2.0

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan")])
    def test_explicit_worker_timeout_must_be_positive(self, tmp_path, bad):
        from repro.sweep import run_cells

        with pytest.raises(ConfigError, match="timeout_s"):
            run_cells(self._cells(), "pool", tmp_path / "s.sqlite",
                      workers=2, timeout_s=bad)
        assert not (tmp_path / "s.sqlite").exists()
        with pytest.raises(ConfigError, match="worker_timeout_s"):
            plan_of(worker_timeout_s=bad)
        with pytest.raises(ConfigError, match="worker_timeout_s"):
            FaultPlan.from_dict({"worker_timeout_s": bad})

    def test_infinite_worker_timeout_never_times_out(self, tmp_path):
        from repro.sweep import run_cells

        cells = self._cells()
        report = run_cells(cells, "pool", tmp_path / "s.sqlite", workers=2,
                           timeout_s=float("inf"),
                           stream_cache=str(tmp_path / "cache"))
        assert report.ok and report.completed == len(cells)
        assert plan_of(worker_timeout_s=float("inf")).worker_timeout_s \
            == float("inf")

    def test_cli_sweep_rejects_nonpositive_timeout(self, tmp_path, capsys):
        from repro.cli import main

        spec = GOLDEN_DIR / "sweep_smoke.json"
        rc = main(["sweep", str(spec), "--store", str(tmp_path / "s.sqlite"),
                   "--workers", "2", "--timeout", "0"])
        assert rc == 1
        assert "timeout_s must be positive" in capsys.readouterr().err


# =================================================== trace-file fault site
class TestTracefileFaults:
    def _saved(self, tiny_machine, tmp_path):
        workload = get_workload("mcf", tiny_machine, 800, 5)
        return workload, save_workload(workload, tmp_path / "mcf.npz")

    def test_short_read_retried_to_identical_workload(self, tiny_machine,
                                                      tmp_path):
        workload, path = self._saved(tiny_machine, tmp_path)
        plan = plan_of(FaultSpec(site="tracefile.load", kind="short_read",
                                 hits=[1]))
        with faults.scope(plan), telemetry.session(force=True) as sess:
            loaded = load_workload(path)
        assert loaded.name == workload.name
        for a, b in zip(workload.traces, loaded.traces):
            np.testing.assert_array_equal(a.addr, b.addr)
            np.testing.assert_array_equal(a.write, b.write)
        handled = [e for e in sess.events if e["name"] == "faults.handled"]
        assert handled and handled[0]["site"] == "tracefile.load"

    def test_short_read_every_attempt_raises_config_error(self, tiny_machine,
                                                          tmp_path):
        _workload, path = self._saved(tiny_machine, tmp_path)
        plan = plan_of(FaultSpec(site="tracefile.load", kind="short_read",
                                 hits=[1, 2, 3]))
        with faults.scope(plan):
            with pytest.raises(ConfigError, match="unreadable after 3 attempts"):
                load_workload(path)

    def test_io_error_retried(self, tiny_machine, tmp_path):
        workload, path = self._saved(tiny_machine, tmp_path)
        plan = plan_of(FaultSpec(site="tracefile.load", kind="io_error",
                                 hits=[1, 2]))
        with faults.scope(plan):
            assert load_workload(path).name == workload.name

    def test_save_is_atomic_no_tmp_left(self, tiny_machine, tmp_path):
        _workload, path = self._saved(tiny_machine, tmp_path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp-*")) == []


# ============================================================== CLI verbs
class TestCli:
    def test_cache_verify_discard(self, cached_config, capsys):
        from repro.cli import main

        ExperimentRunner(cached_config).stream("mcf")
        cache_dir = str(cached_config.stream_cache)
        junk = Path(cache_dir) / f"junk{ENTRY_SUFFIX}"
        junk.write_bytes(b"not a stream-cache entry")
        # Without --discard: flags it, exits 1, leaves it.
        assert main(["cache", "verify", "--dir", cache_dir]) == 1
        assert junk.exists()
        # With --discard: removes it and still exits 1 (CI must notice).
        assert main(["cache", "verify", "--dir", cache_dir, "--discard"]) == 1
        out = capsys.readouterr().out
        assert f"discarded junk{ENTRY_SUFFIX}" in out
        assert not junk.exists()
        assert main(["cache", "verify", "--dir", cache_dir]) == 0

    def test_chaos_requires_plan(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["chaos"])

    def test_chaos_missing_plan_file_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["chaos", "--plan", str(tmp_path / "nope.json")]) == 1
        assert "does not exist" in capsys.readouterr().err


# ===================================================== chaos equivalence
class TestChaosHarness:
    def test_committed_plan_fig6_slice_is_bit_identical(self, tmp_path):
        """The acceptance gate: the committed chaos plan against a fig6
        smoke slice injects >= 3 distinct fault kinds, every fault is
        handled, and the faulted artifact byte-equals the baseline."""
        from repro.energy.params import get_machine
        from repro.faults.chaos import run_chaos

        cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=1200,
                        seed=1)
        plan = faults.load_plan(CHAOS_PLAN)
        report = run_chaos("fig6", cfg, plan, tmp_path / "chaos",
                           workloads=("mcf", "lbm"), workers=2)
        assert report.problems == []
        assert report.identical
        assert report.ok
        assert len(report.kinds) >= 3
        # Both manifests + artifacts persisted for post-mortems.
        assert (tmp_path / "chaos" / "baseline" / "artifact.md").exists()
        assert (tmp_path / "chaos" / "faulted" / "run_manifest.json").exists()
        manifest = json.loads(
            (tmp_path / "chaos" / "faulted" / "run_manifest.json").read_text()
        )
        assert manifest["summary"]["faults"]["handled"] >= 3

    def test_chaos_fault_log_is_reproducible(self, tmp_path):
        """Two faulted runs under the same plan+seed inject the same
        faults (site, kind, key, hit) in the same order."""
        from repro.energy.params import get_machine
        from repro.faults.chaos import run_chaos

        plan = faults.load_plan(CHAOS_PLAN)
        logs = []
        for label in ("one", "two"):
            cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=900,
                            seed=2)
            report = run_chaos("fig6", cfg, plan, tmp_path / label,
                               workloads=("mcf", "lbm"), workers=2)
            assert report.ok
            logs.append([
                {k: e[k] for k in ("site", "kind", "key", "hit")}
                for e in report.injected
            ])
        assert logs[0] == logs[1]

    def test_vecwalk_plan_fallback_is_bit_identical(self, tmp_path):
        """The vectorized-walk chaos plan: killing the vector path
        mid-experiment (plus a cache-save failure) must leave the
        artifact byte-identical — the sequential fallback IS the same
        trajectory, just slower."""
        from repro.energy.params import get_machine
        from repro.faults.chaos import run_chaos

        cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=1200,
                        seed=1)
        plan = faults.load_plan(GOLDEN_DIR / "chaos_plan_vecwalk.json")
        report = run_chaos("fig6", cfg, plan, tmp_path / "chaos",
                           workloads=("mcf", "lbm"), workers=2)
        assert report.problems == []
        assert report.identical
        assert "content.vector_walk" in report.handled_sites
        manifest = json.loads(
            (tmp_path / "chaos" / "faulted" / "run_manifest.json").read_text()
        )
        # The faulted run demonstrably took the fallback path...
        handled = [e for e in manifest["events"]
                   if e.get("name") == "faults.handled"
                   and e.get("site") == "content.vector_walk"]
        assert handled and all(
            e.get("action") == "sequential_fallback" for e in handled
        )
        assert manifest["summary"]["content"]["sequential"] >= 2
        # ...while the clean run stayed vectorized.
        clean = json.loads(
            (tmp_path / "chaos" / "baseline" / "run_manifest.json").read_text()
        )
        assert clean["summary"]["content"]["sequential"] == 0
        assert clean["summary"]["content"]["vector"] >= 2

    def test_counters_may_gain_inclusion_sweeps_only(self):
        """A faulted run may re-walk (more inclusion sweeps), but every
        other evaluation counter must match the clean run exactly."""
        from repro.faults.chaos import _counter_problems

        def summary(sweeps, checks=4, violations=0, vector=3):
            return {
                "replay": {"vector": vector, "sequential": 0},
                "invariants": {"inclusion_sweeps": sweeps,
                               "result_checks": checks,
                               "violations": violations},
            }

        assert _counter_problems(summary(2), summary(2)) == []
        assert _counter_problems(summary(2), summary(4)) == []
        fewer = _counter_problems(summary(4), summary(2))
        assert len(fewer) == 1 and "inclusion_sweeps" in fewer[0]
        assert "violations" in _counter_problems(
            summary(2), summary(4, violations=1))[0]
        assert "result_checks" in _counter_problems(
            summary(2), summary(2, checks=5))[0]
        assert "replay" in _counter_problems(
            summary(2), summary(2, vector=4))[0]
