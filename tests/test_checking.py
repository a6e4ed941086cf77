"""Checked mode: invariant verification, replay bundles, fingerprints.

Covers the contract of :mod:`repro.checking`:

* checked runs are *observationally identical* to unchecked runs (same
  streams, same scheme results) — checking must never perturb physics;
* deliberately injected bugs (mutation smoke tests) are caught as
  :class:`InvariantViolation` with a replay bundle that reproduces the
  failure deterministically via ``repro check --replay``;
* fingerprints identify content trajectories: stable across runs and
  across the process-pool path, sensitive to seed/workload changes;
* the ``repro check`` CLI verb is the shared human/CI entry point.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.checking import (
    CheckContext,
    InvariantViolation,
    ReplayBundle,
    config_from_dict,
    enabled,
    replay,
)
from repro.cli import main as cli_main
from repro.core.recalibration import RecalibrationEngine
from repro.core.redhip import redhip_scheme
from repro.energy.accounting import EnergyLedger
from repro.energy.params import get_machine
from repro.hierarchy.hierarchy import CacheHierarchy
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.integrated import IntegratedSimulator
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def replay_dir(tmp_path, monkeypatch):
    """Keep replay bundles out of the repo during tests."""
    monkeypatch.setenv("REPRO_REPLAY_DIR", str(tmp_path / "replay"))
    return tmp_path / "replay"


def checked_config(**kwargs):
    kwargs.setdefault("machine", get_machine("tiny"))
    kwargs.setdefault("refs_per_core", 3000)
    kwargs.setdefault("seed", 7)
    return SimConfig(checked=True, **kwargs)


def workload_for(cfg, name="mcf"):
    return get_workload(name, cfg.machine, cfg.refs_per_core, cfg.seed)


# ----------------------------------------------------------------- gating
def test_enabled_via_config_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKED", raising=False)
    cfg = SimConfig(machine=get_machine("tiny"))
    assert not enabled(cfg)
    assert enabled(checked_config())
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv("REPRO_CHECKED", value)
        assert enabled(cfg)
        assert enabled(None)
    monkeypatch.setenv("REPRO_CHECKED", "0")
    assert not enabled(cfg)


def test_checked_flag_is_not_part_of_trajectory_identity():
    plain = SimConfig(machine=get_machine("tiny"), refs_per_core=3000, seed=7)
    assert checked_config().cache_key() == plain.cache_key()
    assert checked_config() == plain  # compare=False: same trajectory


# ------------------------------------------------- checked == unchecked
def test_checked_content_walk_is_observationally_identical():
    plain = SimConfig(machine=get_machine("tiny"), refs_per_core=3000, seed=7)
    w = workload_for(plain)
    unchecked = ContentSimulator(plain).run(w)
    checked = ContentSimulator(checked_config()).run(w)
    assert unchecked.fingerprint() == checked.fingerprint()


@pytest.mark.parametrize("policy", ["inclusive", "hybrid", "exclusive"])
def test_checked_walk_passes_on_all_checkable_policies(policy):
    cfg = checked_config(policy=policy)
    stream = ContentSimulator(cfg).run(workload_for(cfg))
    assert stream.num_accesses == cfg.total_refs


def test_checked_integrated_redhip_is_observationally_identical():
    plain = SimConfig(machine=get_machine("tiny"), refs_per_core=3000, seed=7)
    w = workload_for(plain)
    scheme = redhip_scheme(recal_period=plain.recal_period)
    unchecked = IntegratedSimulator(plain).run(w, scheme)
    checked = IntegratedSimulator(checked_config()).run(w, scheme)
    assert checked.skips == unchecked.skips
    assert checked.false_positives == unchecked.false_positives
    assert checked.level_lookups == unchecked.level_lookups
    assert checked.dynamic_nj == pytest.approx(unchecked.dynamic_nj)
    assert checked.exec_cycles == pytest.approx(unchecked.exec_cycles)


# ----------------------------------------------------------- fingerprints
def test_fingerprint_stable_and_sensitive():
    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=2000, seed=3)
    w = workload_for(cfg)
    fp1 = ContentSimulator(cfg).run(w).fingerprint()
    fp2 = ContentSimulator(cfg).run(w).fingerprint()
    assert fp1 == fp2
    assert len(fp1) == 32 and int(fp1, 16) >= 0
    other_seed = SimConfig(machine=get_machine("tiny"), refs_per_core=2000, seed=4)
    fp3 = ContentSimulator(other_seed).run(workload_for(other_seed)).fingerprint()
    assert fp3 != fp1
    fp4 = ContentSimulator(cfg).run(workload_for(cfg, "lbm")).fingerprint()
    assert fp4 != fp1


# -------------------------------------------------------- replay bundles
def test_bundle_roundtrip(tmp_path):
    bundle = ReplayBundle(
        invariant="inclusion",
        detail="core0 L1 block 0x2a missing at L2",
        workload="mcf",
        ref_index=123,
        config={"machine": "tiny", "policy": "inclusive", "refs_per_core": 3000,
                "seed": 7, "replacement": "lru", "coherent": False},
    )
    path = bundle.write(tmp_path)
    assert path.name == "inclusion-mcf-inclusive-s7-r123.json"
    loaded = ReplayBundle.load(path)
    assert loaded == bundle
    # Unknown keys from a future version are tolerated.
    data = json.loads(path.read_text())
    data["future_field"] = True
    assert ReplayBundle.from_json(json.dumps(data)) == bundle
    cfg = config_from_dict(loaded.config)
    assert cfg.machine.name == "tiny" and cfg.seed == 7 and cfg.checked


# -------------------------------------------------- mutation smoke tests
#
# The tiny machine's LLC only comes under real pressure with soplex at
# 6000 refs/core (~230 LLC evictions); smaller windows never exercise the
# eviction paths these mutations break, so the mutation tests pin that
# configuration.
def mutation_config():
    return checked_config(refs_per_core=6000)


def test_injected_inclusion_violation_is_caught_and_replays(replay_dir, monkeypatch):
    """The acceptance-criteria mutation test: break back-invalidation, see
    checked mode catch it, and reproduce it from the bundle."""
    cfg = mutation_config()
    w = workload_for(cfg, "soplex")
    monkeypatch.setattr(
        CacheHierarchy, "_back_invalidate_all_cores",
        lambda self, below_level, block: None,
    )
    with pytest.raises(InvariantViolation) as excinfo:
        ContentSimulator(cfg).run(w)
    exc = excinfo.value
    assert exc.invariant == "inclusion"
    assert exc.bundle_path is not None and exc.bundle_path.exists()
    assert exc.bundle.workload == "soplex"
    assert exc.bundle.config["machine"] == "tiny"

    # With the bug still present, the bundle reproduces it exactly.
    report = replay(exc.bundle_path)
    assert report.reproduced
    assert report.violation.ref_index == exc.ref_index

    # The CLI shares the same path and signals the reproduction via rc=1.
    assert cli_main(["check", "--replay", str(exc.bundle_path)]) == 1

    # With the bug removed, the same window runs clean (rc=0).
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_REPLAY_DIR", str(replay_dir))
    clean = replay(exc.bundle_path)
    assert not clean.reproduced and clean.violation is None
    assert clean.fingerprint  # the clean window reports its fingerprint
    assert cli_main(["check", "--replay", str(exc.bundle_path)]) == 0


def test_unchecked_mode_does_not_catch_the_mutation(monkeypatch):
    """Control for the mutation test: without checked mode the injected
    bug silently corrupts the walk — which is exactly why checked mode
    exists."""
    monkeypatch.delenv("REPRO_CHECKED", raising=False)
    monkeypatch.setattr(
        CacheHierarchy, "_back_invalidate_all_cores",
        lambda self, below_level, block: None,
    )
    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=6000, seed=7)
    stream = ContentSimulator(cfg).run(workload_for(cfg, "soplex"))
    assert stream.num_accesses == cfg.total_refs  # ran to completion


def test_injected_pt_bit_clear_is_caught(monkeypatch):
    """Mutation test for PT monotonicity: make LLC evictions clear table
    bits (the classic 'obvious optimization' §III-A forbids)."""
    from repro.core.redhip import ReDHiPController

    original = ReDHiPController.on_llc_evict

    def clearing_evict(self, block):
        original(self, block)
        self.table._bits[self._index(block)] = False  # the injected bug

    monkeypatch.setattr(ReDHiPController, "on_llc_evict", clearing_evict)
    cfg = mutation_config()
    with pytest.raises(InvariantViolation) as excinfo:
        IntegratedSimulator(cfg).run(
            workload_for(cfg, "soplex"),
            redhip_scheme(recal_period=cfg.recal_period),
        )
    assert excinfo.value.invariant in ("pt-monotone", "recalibration")


def test_injected_bad_sweep_is_caught(monkeypatch):
    """Mutation test for recalibration exactness: a sweep that 'forgets'
    one entry differs from the from-scratch rebuild."""

    original = RecalibrationEngine.sweep

    def corrupt_sweep(self, table, mirror):
        original(self, table, mirror)
        occupied = np.flatnonzero(table._bits)
        if len(occupied):
            table._bits[occupied[0]] = False  # the injected bug

    monkeypatch.setattr(RecalibrationEngine, "sweep", corrupt_sweep)
    cfg = mutation_config()
    with pytest.raises(InvariantViolation) as excinfo:
        IntegratedSimulator(cfg).run(
            workload_for(cfg, "soplex"),
            redhip_scheme(recal_period=cfg.recal_period),
        )
    assert excinfo.value.invariant == "recalibration"
    assert excinfo.value.bundle.runner == "integrated"
    assert excinfo.value.bundle.scheme == "ReDHiP"


def test_per_block_inclusion_check_matches_full_check():
    """check_block_inclusion is the local fast path of check_inclusion:
    on a healthy hierarchy both report nothing, for every resident."""
    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=1500, seed=5)
    # The sequential walk is forced: only it builds the real
    # CacheHierarchy object this test inspects.
    sim = ContentSimulator(cfg, vectorized=False)
    sim.run(workload_for(cfg))
    hier = sim._last_hierarchy
    assert hier.check_inclusion() == []
    for block in hier.llc_resident_blocks()[:64]:
        assert hier.check_block_inclusion(block) == []


# ----------------------------------------------------- ledger validation
def test_ledger_validate_clean_and_dirty():
    ledger = EnergyLedger()
    ledger.charge("L2", "probe", 0.5, 10)
    ledger.charge("PT", "lookup", 0.01, 3)
    assert ledger.validate() == []
    ledger.energy_nj[("L2", "probe")] = float("nan")
    assert any("L2" in p for p in ledger.validate())
    ledger.energy_nj[("L2", "probe")] = -1.0
    assert any("negative energy" in p for p in ledger.validate())
    ledger.energy_nj[("L2", "probe")] = 5.0
    ledger.counts[("L2", "probe")] = -1
    assert any("negative event count" in p for p in ledger.validate())


def test_check_result_flags_inconsistent_counters():
    from repro.checking import check_result

    cfg = checked_config()
    result = IntegratedSimulator(cfg).run(
        workload_for(cfg), redhip_scheme(recal_period=cfg.recal_period)
    )
    ctx = CheckContext.for_run(cfg, "mcf", runner="integrated", scheme="ReDHiP")
    check_result(result, ctx)  # healthy result passes
    result.level_hits[2] = result.level_lookups[2] + 1
    with pytest.raises(InvariantViolation) as excinfo:
        check_result(result, ctx)
    assert excinfo.value.invariant == "energy-conservation"


# --------------------------------------------------------------- CLI verb
def test_cli_check_reports_fingerprints(capsys):
    rc = cli_main(["check", "--machine", "tiny", "--refs", "1500",
                   "--workloads", "mcf", "--redhip"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all invariants held" in out
    assert "mcf" in out and "ReDHiP ok" in out
    # One 32-hex-digit fingerprint per workload line.
    fp = [tok for line in out.splitlines() if line.startswith("mcf")
          for tok in line.split() if len(tok) == 32]
    assert len(fp) == 1 and int(fp[0], 16) >= 0


def test_cli_check_detects_mutation(monkeypatch, capsys):
    monkeypatch.setattr(
        CacheHierarchy, "_back_invalidate_all_cores",
        lambda self, below_level, block: None,
    )
    rc = cli_main(["check", "--machine", "tiny", "--refs", "6000",
                   "--workloads", "soplex"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "invariant 'inclusion' violated" in captured.err


# ------------------------------------------------ default_workers satellite
def test_default_workers_non_integer_env_falls_back(monkeypatch):
    """Satellite regression: REPRO_PARALLEL='4x'/'auto' must warn, not
    raise, and fall back to the cores-1 default."""
    from repro.sweep.scheduler import default_workers

    monkeypatch.delenv("REPRO_PARALLEL", raising=False)
    fallback = default_workers()
    for bad in ("4x", "auto", " 3 x"):
        monkeypatch.setenv("REPRO_PARALLEL", bad)
        with pytest.warns(RuntimeWarning, match="REPRO_PARALLEL"):
            assert default_workers() == fallback
    monkeypatch.setenv("REPRO_PARALLEL", "5")
    assert default_workers() == 5
    monkeypatch.setenv("REPRO_PARALLEL", "")
    assert default_workers() == fallback
