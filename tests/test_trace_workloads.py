"""Trace container, synthetic mixtures and the workload registry."""

import numpy as np
import pytest

from repro.energy.params import get_machine
from repro.util.validation import ConfigError
from repro.workloads import PAPER_WORKLOADS, get_workload
from repro.workloads.spec import SPEC_MODELS, SPEC_NAMES, build_spec_trace
from repro.workloads.synthetic import Component, Region, assemble_mixture
from repro.workloads.trace import (
    Trace,
    Workload,
    duplicate_for_cores,
    per_core_address_space,
)

from conftest import make_trace


# -------------------------------------------------------------------- Trace
def test_trace_validation_and_properties():
    t = make_trace(refs=100)
    t.validate()
    assert t.num_refs == 100
    assert t.blocks.dtype == np.uint64
    assert (t.blocks == (t.addr >> np.uint64(6))).all()
    assert t.instructions >= t.num_refs


def test_trace_head():
    t = make_trace(refs=100)
    h = t.head(10)
    assert h.num_refs == 10
    assert (h.addr == t.addr[:10]).all()


def test_trace_field_length_mismatch_rejected():
    with pytest.raises(ConfigError):
        Trace(
            name="bad",
            pc=np.zeros(3, dtype=np.uint64),
            addr=np.zeros(2, dtype=np.uint64),
            write=np.zeros(2, dtype=bool),
            gap=np.zeros(2, dtype=np.uint32),
        )


def test_page_xor_is_bijective_and_preserves_offsets():
    t = make_trace(refs=500)
    shifted = t.with_page_xor(0xABCDE)
    # Page offsets (low 12 bits) untouched.
    assert (shifted.addr & np.uint64(0xFFF) == t.addr & np.uint64(0xFFF)).all()
    # Bijection: distinct addresses stay distinct.
    assert len(np.unique(shifted.addr)) == len(np.unique(t.addr))
    # Involution: applying the same xor twice restores the trace.
    assert (shifted.with_page_xor(0xABCDE).addr == t.addr).all()
    with pytest.raises(ConfigError):
        t.with_page_xor(1 << 28)


def test_duplicate_for_cores_distinct_spaces():
    m = get_machine("tiny")
    w = duplicate_for_cores(make_trace(machine=m), m.cores, seed=1)
    assert w.cores == m.cores
    a0 = set(w.traces[0].addr.tolist())
    a1 = set(w.traces[1].addr.tolist())
    assert not (a0 & a1), "process address spaces must be disjoint"


def test_per_core_address_space_decorrelates_table_indices():
    """The regression that motivated page randomization: duplicated cores
    must NOT alias in the prediction-table bits-hash."""
    m = get_machine("tiny")
    t = make_trace(machine=m, refs=2000)
    p = m.prediction_table.index_bits
    mask = np.uint64((1 << p) - 1)
    c0 = per_core_address_space(t, 0, seed=1)
    c1 = per_core_address_space(t, 1, seed=1)
    i0 = (c0.addr >> np.uint64(6)) & mask
    i1 = (c1.addr >> np.uint64(6)) & mask
    # Identical traces without randomization would give 100% collisions.
    collision_rate = float((i0 == i1).mean())
    assert collision_rate < 0.30


# ----------------------------------------------------------------- mixtures
def test_region_resolution():
    m = get_machine("scaled")
    assert Region(1.0, "L1").resolve(m) == m.level(1).size
    assert Region(0.5, "LLC").resolve(m) == m.llc.size // 2
    assert Region(1.0, "SHARE").resolve(m) == m.llc.size // m.cores
    assert Region(1e-9, "L1").resolve(m) == 64  # floor at one line
    with pytest.raises(ConfigError):
        Region(1.0, "L9").resolve(m)


def test_component_validation():
    with pytest.raises(ConfigError):
        Component("zigzag", 0.5, Region(1.0, "L1"))
    with pytest.raises(ConfigError):
        Component("seq", 1.5, Region(1.0, "L1"))


def test_mixture_weights_must_sum_to_one():
    m = get_machine("tiny")
    with pytest.raises(ConfigError):
        assemble_mixture(
            "bad",
            (Component("seq", 0.5, Region(1.0, "L1")),),
            refs=10, machine=m, seed=1,
        )


def test_mixture_determinism_and_seed_sensitivity():
    m = get_machine("tiny")
    a = make_trace(machine=m, seed=3)
    b = make_trace(machine=m, seed=3)
    c = make_trace(machine=m, seed=4)
    assert (a.addr == b.addr).all() and (a.gap == b.gap).all()
    assert (a.addr != c.addr).any()


def test_chase_component_is_permutation_cycle():
    from repro.workloads.synthetic import component_addresses
    from repro.util.rng import make_rng
    m = get_machine("tiny")
    comp = Component("chase", 1.0, Region(1.0, "L3"))
    addrs = component_addresses(comp, 2000, m, make_rng(1, "x"), base=0)
    blocks = (addrs // 64).tolist()
    region_blocks = Region(1.0, "L3").resolve(m) // 64
    # Deterministic cycle: the same block is always followed by the same
    # successor (pointer-chase semantics).
    succ = {}
    for a, b in zip(blocks, blocks[1:]):
        if a in succ:
            assert succ[a] == b
        succ[a] = b
    assert max(blocks) < region_blocks


def _full_cycle_chase(comp, count, machine, rng, base):
    """Reference chase generator: walk the whole cycle, then resize."""
    blocks_in_region = max(1, comp.region.resolve(machine) // 64)
    perm = rng.permutation(blocks_in_region)
    cycle = [0]
    nxt = int(perm[0])
    while nxt != 0:
        cycle.append(nxt)
        nxt = int(perm[nxt])
    walk = np.resize(np.asarray(cycle, dtype=np.uint64), count)
    return np.uint64(base) + walk * np.uint64(64), len(cycle)


def test_chase_stops_early_but_matches_full_cycle_walk():
    from repro.workloads.synthetic import component_addresses
    from repro.util.rng import make_rng
    m = get_machine("tiny")
    comp = Component("chase", 1.0, Region(1.0, "L1"))
    _, cycle_len = _full_cycle_chase(comp, 1, m, make_rng(5, "c"), 0)
    assert cycle_len > 2
    for count in (1, cycle_len - 1, cycle_len, cycle_len + 1, 3 * cycle_len + 7):
        ref_rng, rng = make_rng(5, "c"), make_rng(5, "c")
        want, _ = _full_cycle_chase(comp, count, m, ref_rng, 4096)
        got = component_addresses(comp, count, m, rng, base=4096)
        assert got.dtype == want.dtype and np.array_equal(got, want), count
        # The permutation is still drawn in full: the rng stays in step.
        assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)


def test_write_fractions_respected():
    m = get_machine("tiny")
    t = assemble_mixture(
        "w",
        (Component("seq", 1.0, Region(2.0, "LLC"), write_frac=0.5),),
        refs=4000, machine=m, seed=9,
    )
    frac = float(t.write.mean())
    assert 0.4 < frac < 0.6


# ---------------------------------------------------------------- workloads
def test_registry_names():
    assert set(SPEC_NAMES) == {
        "astar", "bwaves", "cactusADM", "GemsFDTD", "lbm", "mcf", "milc", "soplex",
    }
    assert set(PAPER_WORKLOADS) == set(SPEC_NAMES) | {"mix", "pmf", "blas"}


@pytest.mark.parametrize("name", PAPER_WORKLOADS)
def test_all_workloads_build(name):
    m = get_machine("tiny")
    w = get_workload(name, m, refs_per_core=500, seed=2)
    assert w.cores == m.cores
    for t in w.traces:
        t.validate()
        assert t.num_refs == 500


def test_unknown_workload_rejected():
    with pytest.raises(ConfigError):
        get_workload("doom", get_machine("tiny"), 100)
    with pytest.raises(ConfigError):
        build_spec_trace("doom", get_machine("tiny"), 100, 1)
    with pytest.raises(ConfigError):
        get_workload("mcf", get_machine("tiny"), 0)


def test_mix_assigns_distinct_models():
    m = get_machine("scaled")
    w = get_workload("mix", m, refs_per_core=200, seed=1)
    names = [t.name for t in w.traces]
    assert len(set(names)) == len(SPEC_NAMES)  # 8 distinct apps on 8 cores
    cpis = {t.name: t.cpi for t in w.traces}
    assert cpis == {n: SPEC_MODELS[n].cpi for n in names}


def test_workload_head():
    m = get_machine("tiny")
    w = get_workload("mcf", m, refs_per_core=300, seed=1)
    h = w.head(50)
    assert all(t.num_refs == 50 for t in h.traces)


def test_extended_models_are_cache_friendly():
    """The excluded benchmarks must have the profile that got them
    excluded: very high L1 hit rates and low memory traffic (§IV)."""
    from repro.sim.config import SimConfig
    from repro.sim.runner import ExperimentRunner
    from repro.workloads.spec import EXTENDED_NAMES
    m = get_machine("tiny")
    runner = ExperimentRunner(SimConfig(machine=m, refs_per_core=4000))
    for name in EXTENDED_NAMES:
        stream = runner.stream(name)
        rates = stream.base_hit_rates()
        mem = np.count_nonzero(stream.hit_level == 0) / stream.num_accesses
        assert rates[1] > 0.90, name
        assert mem < 0.05, name


def test_extended_models_distinct_from_paper_set():
    from repro.workloads.spec import EXTENDED_NAMES, SPEC_NAMES
    assert not set(EXTENDED_NAMES) & set(SPEC_NAMES)
    assert get_workload("perlbench", get_machine("tiny"), 200, 1).cores == 2
