"""Differential fuzz harness for the vectorized content walk.

The contract (see :mod:`repro.sim.vector_content`): for every eligible
configuration — any machine geometry with power-of-two set counts, any
workload family, any chunk size — the set-bucketed walk produces an
:class:`AccessRecord` *byte-identical* to the sequential reference walk:
same arrays in every field, same fingerprint, same final LLC contents.

The fuzz loop drives 200+ randomized (machine geometry x workload family
x chunk size) cases through both paths; boundary chunk sizes (1, N-1, N,
N+1) get their own deterministic sweep.  A divergence routes through
:func:`vector_content.assert_streams_equal`, which writes a seed-replay
bundle before failing — so any red case is reproducible offline from the
bundle alone, like every other invariant in :mod:`repro.checking`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import checking, faults, telemetry
from repro.energy.params import (
    CacheLevelParams,
    MachineConfig,
    PredictionTableParams,
    deep_machine,
    get_machine,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hierarchy.events import EVENT_EVICT
from repro.sim import vector_content
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.runner import ExperimentRunner
from repro.sweep.spec import known_workloads
from repro.util.proptest import cases
from repro.util.validation import ConfigError
from repro.workloads import get_workload
from repro.workloads.shared import build_shared_workload
from repro.workloads.trace import Trace, Workload

#: Families the fuzzer samples — every generator the registry ships
#: (SPEC models, graph500-backed blas, pmf, the per-core mix) plus the
#: cross-core shared-region workload.
FAMILIES = ("mcf", "lbm", "milc", "bwaves", "astar", "mix", "pmf", "blas",
            "shared")

#: Families whose recipes never reference an L3 region — the only ones a
#: 2-level machine can build (`Region("L3")` needs `machine.level(3)`).
SHALLOW_FAMILIES = ("mcf", "lbm", "milc", "bwaves", "pmf", "blas", "shared")

STREAM_FIELDS = vector_content._STREAM_FIELDS


def make_machine(name: str, cores: int, geometry,
                 description: str = "hand-sized test geometry") -> MachineConfig:
    """A machine from ``(num_sets, assoc)`` per level, the last shared.

    Timing/energy parameters are irrelevant to the content walk and stay
    fixed.
    """
    levels = tuple(
        CacheLevelParams(
            name=f"L{i + 1}",
            size=num_sets * assoc * 64,
            assoc=assoc,
            shared=(i == len(geometry) - 1),
            tag_delay=2, data_delay=3,
            tag_energy=0.01, data_energy=0.04, leakage_w=0.001,
        )
        for i, (num_sets, assoc) in enumerate(geometry)
    )
    pt = PredictionTableParams(
        size=512, access_delay=1, wire_delay=5,
        access_energy=0.02, leakage_w=0.01, banks=2,
    )
    return MachineConfig(
        name=name, cores=cores, frequency_hz=3.7e9, levels=levels,
        prediction_table=pt, description=description,
    )


def random_machine(rng: np.random.Generator,
                   tight_llc: bool = False) -> MachineConfig:
    """A random small machine: 2-5 levels, 1-4 cores, pow2 geometry.

    Set counts and associativities vary per level; sizes are forced
    non-decreasing with depth (a MachineConfig invariant) by accumulating
    size bits.  ``tight_llc`` gives the LLC the deepest private level's
    size, so it holds less than the cores' private levels together and
    evicts blocks they still hold (the draws are the same either way).
    """
    depth = int(rng.integers(2, 6))
    ncores = int(rng.integers(1, 5))
    geometry = []
    size_bits = int(rng.integers(3, 6))  # L1: 8..32 lines
    for i in range(depth):
        grow = int(rng.integers(0, 3)) if i else 0
        size_bits += 0 if tight_llc and i == depth - 1 else grow
        assoc_bits = int(rng.integers(0, min(4, size_bits) + 1))
        geometry.append((1 << (size_bits - assoc_bits), 1 << assoc_bits))
    tag = "-tight" if tight_llc else ""
    return make_machine(f"fuzz-{depth}l{ncores}c-{size_bits}{tag}", ncores,
                        geometry, "randomized fuzz geometry")


def xor_blocks(trace: Trace, xor: int) -> Trace:
    """``trace`` with every block number XOR ``xor``."""
    return replace(trace, addr=trace.addr ^ np.uint64(xor << 6))


def xor_constants(rng: np.random.Generator, machine: MachineConfig,
                  count: int) -> list:
    """``count`` distinct XOR constants, 0 first, the rest flipping set
    index bits at every level (when the smallest level has more than one
    set) as well as high tag bits."""
    low = min(lvl.num_sets for lvl in machine.levels)
    out = [0]
    while len(out) < count:
        flip = int(rng.integers(1, low)) if low > 1 else 0
        d = (int(rng.integers(1, 1 << 20)) << 16) | flip
        if d not in out:
            out.append(d)
    return out


#: Workload shapes of the fuzz: the family as built; one trace on every
#: core under distinct XOR constants; cores 0..k sharing a trace that
#: way, the rest distinct; every core its own trace.
SHAPES = ("native", "duplicated", "partial", "distinct")


def shape_workload(shape: str, family: str, machine: MachineConfig,
                   refs_per_core: int, seed: int,
                   rng: np.random.Generator) -> Workload:
    native = build_case_workload(family, machine, refs_per_core, seed)
    if shape == "native":
        return native
    ncores = machine.cores
    shared = {"duplicated": ncores,
              "partial": int(rng.integers(1, ncores + 1)),
              "distinct": 1}[shape]
    consts = xor_constants(rng, machine, shared)
    traces = [xor_blocks(native.traces[0], d) for d in consts]
    for core in range(shared, ncores):
        # A different seed per core: no two of these are XOR-equivalent.
        other = build_case_workload(family, machine, refs_per_core,
                                    seed + 7919 * core)
        traces.append(other.traces[core])
    return Workload(name=f"{native.name}-{shape}", traces=tuple(traces))


def build_case_workload(name: str, machine: MachineConfig,
                        refs_per_core: int, seed: int) -> Workload:
    if name == "shared":
        return build_shared_workload(machine, refs_per_core, seed=seed,
                                     shared_fraction=0.5)
    return get_workload(name, machine, refs_per_core, seed)


def case_runner(cfg: SimConfig, workload: Workload) -> ExperimentRunner:
    """A runner that serves ``workload`` by name.  A registry workload is
    left to the runner, which builds the same one from ``cfg`` (a custom
    workload may not take a registry name); any other is added."""
    runner = ExperimentRunner(cfg)
    if workload.name not in known_workloads():
        runner.add_workload(workload)
    return runner


def assert_bit_identical(cfg: SimConfig, workload: Workload, label: str,
                         chunk_refs: "int | None" = None,
                         max_accesses: "int | None" = None) -> dict:
    """Run both walks, demand byte identity; returns the vector stats."""
    vec, stats = vector_content.walk_vectorized(
        cfg, workload, max_accesses=max_accesses, chunk_refs=chunk_refs)
    seq = ContentSimulator(cfg, vectorized=False).walk(
        workload, max_accesses=max_accesses)
    same = (
        vec.num_levels == seq.num_levels
        and all(np.array_equal(getattr(vec, f), getattr(seq, f))
                for f in STREAM_FIELDS)
    )
    if not same:
        # Writes the seed-replay bundle, then raises InvariantViolation
        # with the first divergent field/index.
        try:
            vector_content.assert_streams_equal(vec, seq, cfg, workload.name)
        except checking.InvariantViolation as exc:
            pytest.fail(f"{label}: vectorized walk diverged: {exc}")
        pytest.fail(f"{label}: streams differ but assert_streams_equal "
                    f"passed — comparison logic is inconsistent")
    assert vec.fingerprint() == seq.fingerprint(), label
    assert stats["skipped"] + stats["residual"] == vec.num_accesses, label
    return stats


# ================================================================ fuzz
class TestDifferentialFuzz:
    def test_random_geometry_family_chunk(self):
        """200 randomized machine x family x shape x chunk-size cases."""
        skipped_total = 0
        switches = 0
        shared_classes = 0
        for i, rng in cases(seed=20260808, n=200):
            # The shape axes draw from their own stream, so the geometry,
            # family and chunk draws are those of the shape-less corpus.
            aux = np.random.default_rng([20260808, i])
            tight = bool(aux.integers(0, 2))
            machine = random_machine(rng, tight_llc=tight)
            pool = FAMILIES if machine.num_levels >= 3 else SHALLOW_FAMILIES
            family = pool[int(rng.integers(0, len(pool)))]
            refs = int(rng.integers(150, 700))
            seed = int(rng.integers(1, 1 << 16))
            shape = SHAPES[int(aux.integers(0, len(SHAPES)))]
            workload = shape_workload(shape, family, machine, refs, seed, aux)
            total = workload.total_refs
            chunk = [1, 7, 64, total - 1, total, total + 1, None][
                int(rng.integers(0, 7))]
            if chunk is not None and chunk < 1:
                chunk = 1
            cfg = SimConfig(machine=machine, refs_per_core=refs, seed=seed)
            label = (f"case {i}: machine={machine.name} family={family} "
                     f"shape={shape} refs={refs} seed={seed} chunk={chunk}")
            stats = assert_bit_identical(cfg, workload, label,
                                         chunk_refs=chunk)
            skipped_total += stats["skipped"]
            switches += stats["exact_from"] >= 0
            shared_classes += stats["classes"] < machine.cores
        # The candidate rule, the switch to the exact loop and classes
        # of more than one core must all occur across the corpus —
        # otherwise the fuzz misses the path they guard.
        assert skipped_total > 0
        assert switches > 0
        assert shared_classes > 0

    @pytest.mark.parametrize("family", ("mcf", "mix", "pmf", "shared"))
    @pytest.mark.parametrize("boundary", ("one", "n-1", "n", "n+1"))
    def test_boundary_chunk_sizes(self, family, boundary):
        """Chunking at 1, N-1, N and N+1 refs never changes the stream."""
        machine = get_machine("tiny")
        cfg = SimConfig(machine=machine, refs_per_core=400, seed=5)
        workload = build_case_workload(family, machine, 400, 5)
        total = workload.total_refs
        chunk = {"one": 1, "n-1": total - 1, "n": total, "n+1": total + 1}[
            boundary]
        assert_bit_identical(cfg, workload, f"{family}/chunk={chunk}",
                             chunk_refs=chunk)

    @pytest.mark.parametrize("depth", (2, 3, 5))
    def test_hierarchy_depths(self, depth):
        machine = deep_machine(depth, cores=2)
        cfg = SimConfig(machine=machine, refs_per_core=1500, seed=2)
        workload = get_workload("mcf", machine, 1500, 2)
        assert_bit_identical(cfg, workload, f"deep{depth}")

    def test_max_accesses_truncation(self):
        machine = get_machine("tiny")
        cfg = SimConfig(machine=machine, refs_per_core=800, seed=3)
        workload = get_workload("lbm", machine, 800, 3)
        for cut in (1, 17, 333, workload.total_refs):
            stats = assert_bit_identical(cfg, workload, f"cut={cut}",
                                         max_accesses=cut)
            assert stats["skipped"] + stats["residual"] == cut


# ====================================================== demotion repair
def demotion_workload(machine: MachineConfig) -> Workload:
    """Adversarial pattern that forces the eviction-hazard demotion.

    Core 0 touches block A twice, far apart in virtual time; core 1
    floods ``llc_assoc + 2`` distinct blocks mapping to A's LLC set in
    between, evicting A from the LLC (inclusion back-invalidates core
    0's L1 copy).  The candidate rule would mark core 0's second access
    an L1 MRU hit; the demotion repair must replay it as the memory miss
    it really is.
    """
    llc = machine.llc
    set_stride = (llc.num_sets) << 6  # byte stride between same-set blocks
    a = np.uint64(64 * 7)  # block 7: same partition on every level
    flood = llc.assoc + 2
    t0 = Trace(
        name="victim",
        pc=np.zeros(2, dtype=np.uint64),
        addr=np.array([a, a], dtype=np.uint64),
        write=np.zeros(2, dtype=bool),
        gap=np.array([0, 100000], dtype=np.uint32),
    )
    addrs = a + np.arange(1, flood + 1, dtype=np.uint64) * np.uint64(set_stride)
    t1 = Trace(
        name="flood",
        pc=np.zeros(flood, dtype=np.uint64),
        addr=addrs,
        write=np.zeros(flood, dtype=bool),
        gap=np.ones(flood, dtype=np.uint32),
    )
    traces = [t0, t1]
    for core in range(2, machine.cores):
        traces.append(Trace(
            name=f"idle{core}",
            pc=np.zeros(1, dtype=np.uint64),
            addr=np.array([a + np.uint64((core + flood + 8) * set_stride)],
                          dtype=np.uint64),
            write=np.zeros(1, dtype=bool),
            gap=np.array([200000], dtype=np.uint32),
        ))
    return Workload(name="demotion-adversary", traces=tuple(traces))


class TestDemotionRepair:
    @pytest.mark.parametrize("chunk", (None, 1, 2, 5, 39))
    def test_adversarial_eviction_hazard(self, chunk):
        """The constructed hazard stays bit-identical at every chunking,
        and with whole-trace chunking the repair demonstrably fires."""
        machine = get_machine("tiny")
        cfg = SimConfig(machine=machine, refs_per_core=64, seed=1)
        workload = demotion_workload(machine)
        stats = assert_bit_identical(cfg, workload, f"hazard chunk={chunk}",
                                     chunk_refs=chunk)
        if chunk is None:
            # Single chunk: the candidate and the eviction share a chunk,
            # so the hazard must be repaired by demotion, not by the
            # cross-chunk carry invalidation.
            assert stats["demoted"] >= 1


def repeated_hazard_workload(machine: MachineConfig) -> Workload:
    """Block A loses its LLC copy twice before core 0's repeat access.

    Core 0 touches A twice, far apart; its second access is a candidate.
    Core 1 floods A's LLC set (evicting A: a hazard that demotes core
    0's candidate), then refills A itself and floods the set again,
    evicting A a second time while the demoted access is still pending.
    The second eviction must neither demote anything again nor reach
    core 0, which no longer holds A.
    """
    llc = machine.llc
    set_stride = np.uint64(llc.num_sets << 6)
    a = np.uint64(64 * 7)
    flood = llc.assoc + 2
    t0 = Trace(
        name="victim",
        pc=np.zeros(2, dtype=np.uint64),
        addr=np.array([a, a], dtype=np.uint64),
        write=np.zeros(2, dtype=bool),
        gap=np.array([0, 100000], dtype=np.uint32),
    )
    ways = np.arange(1, 2 * flood + 1, dtype=np.uint64)
    addrs = np.concatenate([
        a + ways[:flood] * set_stride,
        [a],
        a + ways[flood:] * set_stride,
    ]).astype(np.uint64)
    t1 = Trace(
        name="refill-flood",
        pc=np.zeros(len(addrs), dtype=np.uint64),
        addr=addrs,
        write=np.zeros(len(addrs), dtype=bool),
        gap=np.ones(len(addrs), dtype=np.uint32),
    )
    return Workload(name="repeated-hazard", traces=(t0, t1))


class TestRepeatedHazard:
    @pytest.mark.parametrize("chunk,demoted", ((None, 1), (1, 0), (2, 0),
                                               (5, 0)))
    def test_second_eviction_of_a_demoted_block(self, chunk, demoted):
        """Bit-identical at every chunking; the candidate is demoted once
        when it shares a chunk with the first eviction (otherwise the
        carry is invalidated), and only the first eviction is a hazard."""
        machine = get_machine("tiny")
        cfg = SimConfig(machine=machine, refs_per_core=64, seed=1)
        workload = repeated_hazard_workload(machine)
        stats = assert_bit_identical(cfg, workload,
                                     f"repeated hazard chunk={chunk}",
                                     chunk_refs=chunk)
        seq = ContentSimulator(cfg, vectorized=False).walk(workload)
        evicted_a = (seq.llc_op == EVENT_EVICT) & (seq.llc_block == 7)
        assert int(evicted_a.sum()) == 2
        assert seq.hit_level[-1] == 0  # core 0's repeat is a memory miss
        assert stats["demoted"] == demoted
        assert stats["hazards"] == 1


# ==================================================== lockstep regime
#: L1 4x2, L2 8x4, LLC 8x4 (sets x ways): the LLC is no larger than one
#: core's L2, so the first live inclusion victim comes early.
TIGHT = ((4, 2), (8, 4), (8, 4))


def duplicated(machine: MachineConfig, family: str, refs: int, seed: int,
               gaps: "tuple | None" = None) -> Workload:
    """One ``family`` trace on every core under distinct XOR constants;
    ``gaps[c]`` scales core ``c``'s compute gaps (its merge speed)."""
    base = build_case_workload(family, machine, refs, seed).traces[0]
    consts = xor_constants(np.random.default_rng(seed), machine,
                           machine.cores)
    traces = []
    for core, d in enumerate(consts):
        t = xor_blocks(base, d)
        if gaps is not None:
            t = replace(t, gap=(t.gap * np.uint32(gaps[core])).astype(
                np.uint32))
        traces.append(t)
    return Workload(name=f"{family}-dup", traces=tuple(traces))


def block_trace(name: str, blocks, gap: int = 1) -> Trace:
    blocks = np.asarray(blocks, dtype=np.uint64)
    n = len(blocks)
    return Trace(name=name, pc=np.zeros(n, dtype=np.uint64),
                 addr=blocks << np.uint64(6), write=np.zeros(n, dtype=bool),
                 gap=np.full(n, gap, dtype=np.uint32))


class TestLockstep:
    """The lockstep regime and its switch to the exact loop, each case
    byte-identical to the sequential walk."""

    def test_live_victim_in_first_chunk(self):
        machine = make_machine("tight2", 2, TIGHT)
        workload = duplicated(machine, "mcf", 600, 3)
        cfg = SimConfig(machine=machine, refs_per_core=600, seed=3)
        stats = assert_bit_identical(cfg, workload, "first chunk",
                                     chunk_refs=256)
        assert stats["classes"] == 1
        assert 0 <= stats["exact_from"] < 256

    def test_live_victim_at_chunk_boundary(self):
        machine = make_machine("tight2", 2, TIGHT)
        workload = duplicated(machine, "mcf", 600, 3)
        cfg = SimConfig(machine=machine, refs_per_core=600, seed=3)
        first = assert_bit_identical(cfg, workload, "whole")["exact_from"]
        assert first > 1
        # The first live victim is a property of the stream: chunking
        # so that its access opens or closes a chunk moves nothing.
        for chunk in (first, first + 1):
            stats = assert_bit_identical(cfg, workload, f"chunk={chunk}",
                                         chunk_refs=chunk)
            assert stats["exact_from"] == first

    def test_live_victim_on_core_0_itself(self):
        """One core, L1 1x2, L2 2x2, LLC 2x2: A, B, A, C.  The L1 hit on
        A leaves it least recent in the LLC, so C's fill evicts A while
        core 0's own L1 and L2 hold it."""
        machine = make_machine("self-victim", 1, ((1, 2), (2, 2), (2, 2)))
        workload = Workload(name="self-victim",
                            traces=(block_trace("abac", [0, 2, 0, 4]),))
        cfg = SimConfig(machine=machine, refs_per_core=4, seed=1)
        stats = assert_bit_identical(cfg, workload, "self victim")
        assert stats["exact_from"] == 3
        assert stats["live_victims_checked"] == 1
        seq = ContentSimulator(cfg, vectorized=False).walk(workload)
        assert seq.hit_level.tolist() == [0, 0, 1, 0]

    def test_dead_victims_stay_in_lockstep(self):
        """A one-set stream, L1 1x1, L2 1x2, LLC 1x4: every LLC victim
        left the private levels two fills earlier, so none is live and
        the walk never leaves the lockstep regime."""
        machine = make_machine("stream", 1, ((1, 1), (1, 2), (1, 4)))
        workload = Workload(name="stream",
                            traces=(block_trace("s", np.arange(12)),))
        cfg = SimConfig(machine=machine, refs_per_core=12, seed=1)
        stats = assert_bit_identical(cfg, workload, "dead victims")
        assert stats["exact_from"] == -1
        assert stats["live_victims_checked"] == 12 - 4

    def test_near_lockstep_adversary_gets_its_own_class(self):
        """Core 1 is core 0 XOR a constant except for its last access,
        which misses where core 0's repeat hits."""
        machine = make_machine("tight2", 2, TIGHT)
        blocks = np.random.default_rng(8).integers(0, 40, size=300,
                                                   dtype=np.uint64)
        blocks[-1] = blocks[-2]
        d = 1 << 20
        other = blocks ^ np.uint64(d)
        other[-1] = 1 << 30
        workload = Workload(name="near-lockstep", traces=(
            block_trace("t0", blocks), block_trace("t1", other)))
        leaders, cls, _ = vector_content._classes(workload)
        assert leaders == [0, 1] and cls == [0, 1]
        cfg = SimConfig(machine=machine, refs_per_core=300, seed=1)
        stats = assert_bit_identical(cfg, workload, "near lockstep")
        assert stats["classes"] == 2
        seq = ContentSimulator(cfg, vectorized=False).walk(workload)
        last = np.flatnonzero(seq.core == 1)[-1]
        assert seq.hit_level[last] == 0

    def test_xor_equivalent_cores_share_a_class(self):
        machine = make_machine("tight4", 4, TIGHT)
        workload = duplicated(machine, "lbm", 300, 2)
        leaders, cls, xor = vector_content._classes(workload)
        assert leaders == [0] and cls == [0, 0, 0, 0]
        for core, t in enumerate(workload.traces):
            assert np.array_equal(
                workload.traces[0].blocks ^ np.uint64(xor[core]), t.blocks)

    @pytest.mark.parametrize("chunk", (None, 16, 97))
    def test_truncation_at_unequal_member_ranks(self, chunk):
        """Members merge at different speeds (gaps x1, x3, x7), so a cut
        leaves them at far-apart ranks, and the switch materializes each
        from a snapshot well behind it."""
        machine = make_machine("tight3", 3, TIGHT)
        workload = duplicated(machine, "milc", 500, 4, gaps=(1, 3, 7))
        cfg = SimConfig(machine=machine, refs_per_core=500, seed=4)
        for cut in (1, 250, 701, workload.total_refs):
            stats = assert_bit_identical(cfg, workload,
                                         f"cut={cut} chunk={chunk}",
                                         chunk_refs=chunk, max_accesses=cut)
            assert stats["classes"] == 1
        cores = np.concatenate(
            [c.core for c in workload.block_stream(max_refs=701)])
        counts = np.bincount(cores, minlength=3)
        assert counts.max() - counts.min() > 100
        assert stats["exact_from"] >= 0

    @pytest.mark.parametrize("batch", (1, 7, 16))
    @pytest.mark.parametrize("family,llc,switches", (
        ("mix", (16, 8), True), ("mcf", (16, 16), False)))
    def test_small_batches_near_eviction(self, monkeypatch, batch, family,
                                         llc, switches):
        """Once the fullest LLC set nears its first eviction the regime
        walks smaller batches; shrunk, they split the 50-ref chunks
        anywhere, across the switch (mix) or without one (mcf)."""
        monkeypatch.setattr(vector_content, "_LIVE_BATCH", batch)
        machine = make_machine("mid3", 3, ((4, 2), (8, 4), llc))
        workload = build_case_workload(family, machine, 400, 9)
        cfg = SimConfig(machine=machine, refs_per_core=400, seed=9)
        stats = assert_bit_identical(cfg, workload, f"batch={batch}",
                                     chunk_refs=50)
        assert (stats["exact_from"] > 50) == switches

    def test_one_core_machine(self):
        machine = make_machine("tight1", 1, TIGHT)
        workload = get_workload("mcf", machine, 2000, 5)
        cfg = SimConfig(machine=machine, refs_per_core=2000, seed=5)
        stats = assert_bit_identical(cfg, workload, "one core")
        assert stats["classes"] == 1
        assert stats["exact_from"] >= 0

    def test_two_level_machine(self):
        machine = make_machine("tight-2l", 2, ((4, 2), (4, 4)))
        workload = duplicated(machine, "mcf", 800, 6)
        cfg = SimConfig(machine=machine, refs_per_core=800, seed=6)
        for chunk in (None, 33):
            stats = assert_bit_identical(cfg, workload, f"chunk={chunk}",
                                         chunk_refs=chunk)
            assert stats["classes"] == 1
            assert stats["exact_from"] >= 0


# ============================================== selection and fallbacks
class TestPathSelection:
    def test_escape_hatch_env(self, monkeypatch):
        monkeypatch.setenv(vector_content.NO_VECTOR_WALK_ENV, "1")
        assert vector_content.vector_walk_disabled()
        cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=100)
        assert not ContentSimulator(cfg)._use_vector()
        monkeypatch.setenv(vector_content.NO_VECTOR_WALK_ENV, "0")
        assert ContentSimulator(cfg)._use_vector()

    def test_ineligible_configs_fall_back(self):
        machine = get_machine("tiny")
        for kwargs in ({"policy": "exclusive"}, {"replacement": "random"},
                       {"coherent": True}):
            cfg = SimConfig(machine=machine, refs_per_core=100, **kwargs)
            assert not vector_content.eligible(cfg)
            assert not ContentSimulator(cfg)._use_vector()

    def test_forcing_vector_on_ineligible_raises(self):
        machine = get_machine("tiny")
        cfg = SimConfig(machine=machine, refs_per_core=100,
                        policy="exclusive")
        workload = get_workload("mcf", machine, 100, 1)
        with pytest.raises(ConfigError, match="set-bucketable"):
            vector_content.walk_vectorized(cfg, workload)

    def test_checked_mode_runs_both_paths(self):
        machine = get_machine("tiny")
        cfg = SimConfig(machine=machine, refs_per_core=500, seed=4,
                        checked=True)
        workload = get_workload("mcf", machine, 500, 4)
        with telemetry.session(force=True, label="dual") as sess:
            stream = ContentSimulator(cfg).run(workload)
        counters = sess.registry.snapshot()["counters"]
        assert counters["content.dual_walks"] == 1
        assert counters["content.vector_walks"] == 1
        assert counters["content.walks"] == 1
        plain = SimConfig(machine=machine, refs_per_core=500, seed=4)
        ref = ContentSimulator(plain, vectorized=False).run(workload)
        assert stream.fingerprint() == ref.fingerprint()

    def test_span_tags_path_and_chunks(self):
        machine = get_machine("tiny")
        workload = get_workload("lbm", machine, 300, 2)
        with telemetry.session(force=True, label="tags") as sess:
            ContentSimulator(
                SimConfig(machine=machine, refs_per_core=300, seed=2)
            ).run(workload)
            ContentSimulator(
                SimConfig(machine=machine, refs_per_core=300, seed=2),
                vectorized=False,
            ).run(workload)
        walks = [s for s in sess.tracer.records if s.name == "content_walk"]
        paths = sorted(s.tags["path"] for s in walks)
        assert paths == ["sequential", "vector"]
        vec_span = next(s for s in walks if s.tags["path"] == "vector")
        assert vec_span.tags["chunks"] >= 1
        assert "skipped" in vec_span.tags
        counters = sess.registry.snapshot()["counters"]
        assert counters["content.vector_chunks"] >= 1
        assert counters["content.sequential_walks"] == 1

    def test_lockstep_tags_and_counters(self):
        """The lockstep stats reach the span tags and the counters."""
        machine = make_machine("tight2", 2, TIGHT)
        workload = duplicated(machine, "mcf", 600, 3)
        cfg = SimConfig(machine=machine, refs_per_core=600, seed=3)
        _, stats = vector_content.walk_vectorized(cfg, workload)
        assert stats["exact_from"] >= 0
        with telemetry.session(force=True, label="lockstep") as sess:
            ContentSimulator(cfg).run(workload)
        span = next(s for s in sess.tracer.records if s.name == "content_walk")
        for key in ("classes", "template_refs", "llc_pass_refs",
                    "live_victims_checked", "exact_from"):
            assert span.tags[key] == stats[key], key
        counters = sess.registry.snapshot()["counters"]
        assert counters["content.classes"] == 1
        assert counters["content.template_refs"] == stats["template_refs"]
        assert counters["content.llc_pass_refs"] == stats["llc_pass_refs"]
        assert counters["content.switches"] == 1
        assert (counters["content.exact_refs"]
                == workload.total_refs - stats["exact_from"])

    def test_injected_fault_falls_back_to_sequential(self):
        machine = get_machine("tiny")
        cfg = SimConfig(machine=machine, refs_per_core=400, seed=6)
        workload = get_workload("milc", machine, 400, 6)
        clean = ContentSimulator(cfg, vectorized=False).run(workload)
        plan = FaultPlan(
            faults=(FaultSpec(site="content.vector_walk", kind="exception",
                              match="milc", hits=[1]),),
            seed=11,
        )
        faults.install(plan)
        try:
            with telemetry.session(force=True, label="chaos") as sess:
                stream = ContentSimulator(cfg).run(workload)
        finally:
            faults.uninstall()
        assert stream.fingerprint() == clean.fingerprint()
        counters = sess.registry.snapshot()["counters"]
        assert counters["content.sequential_walks"] == 1
        assert counters.get("content.vector_walks", 0) == 0
        handled = [e for e in sess.events if e["name"] == "faults.handled"]
        assert handled and handled[0]["action"] == "sequential_fallback"
