"""The banked DRAM model and the MRU-way-prediction scheme."""

import math

import numpy as np
import pytest

from repro.energy.dram import DramConfig, DramModel
from repro.energy.params import get_machine
from repro.predictors.base import base_scheme, waypred_scheme
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.evaluate import evaluate_scheme
from repro.util.validation import ConfigError

from conftest import single_core_workload

MACHINE = get_machine("tiny")


# --------------------------------------------------------------------- DRAM
def test_dram_row_hit_miss_conflict():
    cfg = DramConfig(channels=1, banks_per_channel=1, blocks_per_row=4)
    dram = DramModel(cfg)
    lat, _ = dram.access(0)           # cold bank: row miss
    assert lat == cfg.row_miss_latency
    lat, _ = dram.access(1)           # same row: hit
    assert lat == cfg.row_hit_latency
    lat, _ = dram.access(4)           # next row: conflict
    assert lat == cfg.row_conflict_latency
    assert dram.stats.row_hits == 1
    assert dram.stats.row_misses == 1
    assert dram.stats.row_conflicts == 1
    assert dram.stats.row_hit_rate == pytest.approx(1 / 3)


def test_dram_banks_interleave():
    cfg = DramConfig(channels=1, banks_per_channel=4, blocks_per_row=4)
    dram = DramModel(cfg)
    # Blocks 0..3 land in different banks: all row misses, no conflicts.
    for b in range(4):
        dram.access(b)
    assert dram.stats.row_misses == 4
    assert dram.stats.row_conflicts == 0


def test_dram_streams_get_row_hits():
    dram = DramModel()
    blocks = np.arange(0, 256, dtype=np.int64)
    lat, energy = dram.access_stream(blocks)
    assert dram.stats.row_hit_rate > 0.8  # sequential = open-row friendly
    rand = DramModel()
    rng = np.random.default_rng(0)
    rand.access_stream(rng.integers(0, 1 << 24, 256))
    assert rand.stats.row_hit_rate < dram.stats.row_hit_rate


def test_dram_reset():
    dram = DramModel()
    dram.access(0)
    dram.reset()
    assert dram.stats.accesses == 0
    lat, _ = dram.access(0)
    assert lat == dram.config.row_miss_latency


def test_dram_config_validation():
    with pytest.raises(ConfigError):
        DramConfig(channels=3)


def test_dram_in_evaluation_charges_pattern_dependent_memory():
    from dataclasses import replace
    from repro.sim.runner import ExperimentRunner
    cfg0 = SimConfig(machine=MACHINE, refs_per_core=2000)
    cfg1 = replace(cfg0, dram=DramConfig())
    r0 = ExperimentRunner(cfg0).run("mcf", base_scheme())
    r1 = ExperimentRunner(cfg1).run("mcf", base_scheme())
    assert r1.ledger.component_nj("MEM") > 0
    assert r1.exec_cycles > r0.exec_cycles
    assert r1.ledger.counts[("MEM", "access")] == r1.true_misses


# ----------------------------------------------------------- way prediction
def test_waypred_spec_validation():
    spec = waypred_scheme()
    assert spec.kind == "waypred" and spec.way_predicted_levels == (3, 4)
    from repro.predictors.base import SchemeSpec
    with pytest.raises(ConfigError):
        SchemeSpec(name="w", kind="waypred")


def test_hit_rank_recorded_in_stream():
    cfg = SimConfig(machine=MACHINE, refs_per_core=4)
    # [0, 8, 0]: second touch of 0 hits L1 at rank 1 (8 became MRU).
    wl = single_core_workload(MACHINE, [0, 8, 0, 0])
    record = ContentSimulator(cfg).walk(wl)
    core0 = record.core == 0
    assert record.hit_rank[core0].tolist() == [-1, -1, 1, 0]


def test_waypred_energy_between_base_and_phased(tiny_config, tiny_workload):
    stream = ContentSimulator(tiny_config).run(tiny_workload)
    base = evaluate_scheme(stream, MACHINE, base_scheme(), tiny_workload)
    from repro.predictors.base import phased_scheme
    way = evaluate_scheme(stream, MACHINE, waypred_scheme(), tiny_workload)
    ph = evaluate_scheme(stream, MACHINE, phased_scheme(), tiny_workload)
    # Way prediction reads tag + 1/assoc data per probe: cheaper than base.
    assert way.dynamic_nj < base.dynamic_nj
    # Latency: at most the phased penalty (only non-MRU hits pay extra).
    assert way.exec_cycles >= base.exec_cycles - 1e-9
    # Content accounting identical.
    assert way.level_lookups == base.level_lookups


def test_waypred_mru_hit_has_no_latency_penalty():
    """A single L3 hit at MRU rank must cost exactly the parallel delay."""
    # Build an L3 hit: fill, push out of L1+L2 (sets conflict), re-touch.
    blocks = [0, 16, 32, 48, 64, 0]
    cfg = SimConfig(machine=MACHINE, refs_per_core=len(blocks))
    wl = single_core_workload(MACHINE, blocks)
    stream = ContentSimulator(cfg).run(wl)
    assert list(stream.hit_level[stream.core == 0])[-1] == 3
    base = evaluate_scheme(stream, MACHINE, base_scheme(), wl)
    way = evaluate_scheme(stream, MACHINE, waypred_scheme(levels=(3,)), wl)
    rank = stream.hit_rank[stream.core == 0][-1]
    if rank == 0:
        assert math.isclose(way.exec_cycles, base.exec_cycles)
    else:
        assert way.exec_cycles > base.exec_cycles


def test_waypred_two_phase_equals_integrated(tiny_config, tiny_workload):
    from repro.sim.integrated import IntegratedSimulator
    from repro.sim.runner import ExperimentRunner
    runner = ExperimentRunner(tiny_config)
    sim = IntegratedSimulator(tiny_config)
    fast = runner.run(tiny_workload, waypred_scheme())
    slow = sim.run(tiny_workload, waypred_scheme())
    assert fast.level_lookups == slow.level_lookups
    assert math.isclose(fast.dynamic_nj, slow.dynamic_nj, rel_tol=1e-9)
    assert math.isclose(fast.exec_cycles, slow.exec_cycles, rel_tol=1e-9)
