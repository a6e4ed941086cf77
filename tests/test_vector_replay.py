"""Vectorized replay: equivalence, eligibility, escape hatches.

The kernels' contract (see :mod:`repro.sim.vector_replay`): for every
stream and every plain ReDHiP, LevelPred or EHC configuration, with the
fixed-period or the adaptive (fill-budget) engine, and every plain CBF,
the batched replay is *bit-identical* to the sequential loop — same
per-L1-miss outputs, same stall cycles, same final predictor state, same
telemetry — and therefore every derived :class:`SchemeResult` field
matches.  Predictors that observe per-event state (MissMap, gated) must be
declared ineligible and keep the sequential path.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import json
import weakref
from functools import partial

import numpy as np
import pytest

from repro import checking, telemetry
from repro.core.gating import gated_redhip_scheme
from repro.core.recalibration import AdaptiveRecalibrationEngine
from repro.core.redhip import ReDHiPController, redhip_scheme
from repro.hierarchy.events import (
    EVENT_EVICT,
    EVENT_FILL,
    RECORD_FIELDS,
    AccessRecord,
    OutcomeStream,
)
from repro.predictors.cbf_scheme import CBFPredictor, cbf_scheme
from repro.predictors.ehc import EHCController, ehc_scheme
from repro.predictors.base import base_scheme, oracle_scheme, phased_scheme
from repro.predictors.levelpred import (
    LevelPredController,
    levelpred_scheme,
    oracle_levelpred_scheme,
)
from repro.predictors.missmap import missmap_scheme
from repro.sim import evaluate, vector_replay
from repro.sim.charging import ChargingKernel
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.evaluate import _replay_predictor_scalar, evaluate_scheme, result_facts
from repro.sim.runner import ExperimentRunner
from repro.util.proptest import cases
from repro.util.validation import ConfigError, ReproError
from repro.workloads.shared import merge_order

from test_vector_content import build_case_workload, case_runner, random_machine

SEEDS = (1, 2, 3)

#: A recalibration period that sweeps several times on the ``seeded``
#: streams (878-958 L1 misses per seed).
PERIOD = 128


def scheme_lineup(period):
    """Every shipped predictor scheme (ISSUE: 3 seeds x all of them)."""
    return [
        redhip_scheme(recal_period=period),
        redhip_scheme(recal_period=period, hash_kind="xor", name="ReDHiP-xor"),
        redhip_scheme(recal_period=None, name="ReDHiP-norecal"),
        # A fill budget of 204 lines: sweeps on every seed (388-578 fills).
        redhip_scheme(recal_period=period, recal_threshold=0.2,
                      name="ReDHiP-adaptive"),
        cbf_scheme(),
        gated_redhip_scheme(recal_period=period, window=256),
        missmap_scheme(),
        # A fill budget of 51 lines: several sweeps on these streams.
        redhip_scheme(recal_period=None, recal_threshold=0.05,
                      name="ReDHiP-adaptive-fast"),
    ]


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request):
    from repro.energy.params import get_machine

    machine = get_machine("tiny")
    cfg = SimConfig(machine=machine, refs_per_core=2500, seed=request.param)
    runner = ExperimentRunner(cfg)
    return cfg, runner, runner.stream("mcf")


# ----------------------------------------------------------- equivalence
#: The ``scheme_lineup`` entries that recalibrate: ReDHiP, ReDHiP-xor,
#: the two adaptive engines and the gated ReDHiP.
RECALIBRATING = {0: "recal_sweeps", 1: "recal_sweeps", 3: "recal_sweeps",
                 5: "inner_recal_sweeps", 7: "recal_sweeps"}


@pytest.mark.parametrize("scheme_idx", range(8))
@pytest.mark.parametrize("checked", [False, True])
def test_vectorized_equals_sequential_scheme_results(seeded, scheme_idx, checked,
                                                     monkeypatch):
    """Bit-identical SchemeResults, checked and unchecked, all schemes;
    every recalibrating entry sweeps."""
    cfg, runner, stream = seeded
    scheme = scheme_lineup(PERIOD)[scheme_idx]
    wl = runner.workload("mcf")
    fast = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=checked)
    monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")
    slow = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=False)
    assert result_facts(fast) == result_facts(slow)
    if scheme_idx in RECALIBRATING:
        assert fast.predictor_stats[RECALIBRATING[scheme_idx]] > 0, scheme.name


def test_direct_replay_equivalence_with_sweeps(seeded):
    """Low-level contract: predictions, stall and final predictor state,
    for fixed periods and fill budgets, from fresh controllers and after
    one or two earlier replays of the stream."""
    cfg, _, stream = seeded
    for cadence, warm in itertools.product(
            (1, 7, 300, None, ("fills", 1), ("fills", 40)), range(3)):
        seq = _controller("redhip", cfg.machine, cadence)
        vec = _controller("redhip", cfg.machine, cadence)
        for _ in range(warm):
            _replay_predictor_scalar(stream, seq)
            vector_replay.replay_redhip_vectorized(stream, vec)
        p1, c1, s1 = _replay_predictor_scalar(stream, seq)
        p2, c2, s2 = vector_replay.replay_redhip_vectorized(stream, vec)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(c1, c2)
        assert s1 == s2
        np.testing.assert_array_equal(seq.table._bits, vec.table._bits)
        np.testing.assert_array_equal(seq.mirror._counts, vec.mirror._counts)
        assert seq.stats() == vec.stats()
        assert seq.table_updates == vec.table_updates
        assert vars(seq.engine) == vars(vec.engine)
        if cadence is not None:
            assert vec.engine.sweeps > 0  # the replay actually swept


def test_never_recalibrating_replay_keeps_miss_count(seeded):
    """A ``None`` period never counts misses (``note_l1_miss`` returns
    early), so the kernel's end state must leave ``l1_misses`` alone."""
    cfg, _, stream = seeded
    seq = ReDHiPController(cfg.machine, recal_period=None)
    vec = ReDHiPController(cfg.machine, recal_period=None)
    _replay_predictor_scalar(stream, seq)
    vector_replay.replay_redhip_vectorized(stream, vec)
    assert seq.engine.l1_misses == 0
    assert vec.engine.l1_misses == seq.engine.l1_misses


# ------------------------------------------------------------ eligibility
def test_eligibility_gate(tiny_machine):
    eligible = vector_replay.eligible
    assert eligible(ReDHiPController(tiny_machine, recal_period=64))
    assert eligible(ReDHiPController(tiny_machine, recal_period=None))
    assert eligible(ReDHiPController(tiny_machine, hash_kind="xor"))
    # The adaptive engine's sweeps follow from the fill count at each miss.
    assert eligible(ReDHiPController(tiny_machine, recal_threshold=0.5))
    # The zoo controllers and CBF (either hash) have dedicated kernels.
    assert eligible(LevelPredController(tiny_machine, recal_period=None))
    assert eligible(EHCController(tiny_machine, recal_period=64))
    for hash_kind in ("xor", "bits"):
        assert eligible(cbf_scheme(hash_kind=hash_kind).build_predictor(tiny_machine))
    # Predictors observing per-event state, and wrappers: not batchable.
    for spec in (gated_redhip_scheme(), missmap_scheme()):
        assert not eligible(spec.build_predictor(tiny_machine))


def test_ineligible_predictor_rejected(seeded, tiny_machine):
    _, _, stream = seeded
    for spec in (missmap_scheme(), gated_redhip_scheme()):
        predictor = spec.build_predictor(tiny_machine)
        for kernel in (vector_replay.replay_redhip_vectorized,
                       vector_replay.replay_cbf_vectorized):
            with pytest.raises(ReproError, match="not batchable"):
                kernel(stream, predictor)


# ---------------------------------------------------------- escape hatch
def test_no_vector_env_forces_sequential(seeded, monkeypatch):
    cfg, runner, stream = seeded
    monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")

    def boom(*args, **kwargs):
        raise AssertionError("vector kernel ran despite REPRO_NO_VECTOR_REPLAY")

    monkeypatch.setattr(vector_replay, "replay_redhip_vectorized", boom)
    res = evaluate_scheme(
        stream, cfg.machine, redhip_scheme(recal_period=cfg.recal_period),
        runner.workload("mcf"),
    )
    assert res.l1_misses > 0


def test_checked_mode_catches_divergent_kernel(seeded, monkeypatch):
    """Mutation test: a wrong vectorized answer must trip the checked-mode
    equivalence assertion, not silently change results."""
    cfg, runner, stream = seeded
    real = vector_replay.replay_redhip_vectorized
    poisoned_at = []

    def poisoned(stream_, predictor_):
        predicted, consulted, stall = real(stream_, predictor_)
        skips = np.flatnonzero(~predicted)
        assert len(skips), "stream produced no skips to poison"
        predicted = predicted.copy()
        predicted[skips[-1]] = True  # stays conservative: no false negative
        poisoned_at.append((int(skips[-1]), int(stream_.at[skips[-1]])))
        return predicted, consulted, stall

    monkeypatch.setattr(vector_replay, "replay_redhip_vectorized", poisoned)
    with pytest.raises(ReproError, match="vectorized replay diverged") as err:
        evaluate_scheme(
            stream, cfg.machine, redhip_scheme(recal_period=cfg.recal_period),
            runner.workload("mcf"), checked=True,
        )
    # The report names the access index, not the miss ordinal.
    ((ordinal, access),) = poisoned_at
    assert ordinal != access
    assert f"output 0: 1 L1 miss(es) differ (first at access {access})" in str(err.value)


def test_runner_two_phase_uses_vector_path(seeded, monkeypatch):
    """The runner's fast path actually dispatches to the kernel."""
    cfg, _, _ = seeded
    runner = ExperimentRunner(cfg)
    calls = []
    real = vector_replay.replay_redhip_vectorized

    def spy(stream_, predictor_):
        calls.append(predictor_.name)
        return real(stream_, predictor_)

    monkeypatch.setattr(vector_replay, "replay_redhip_vectorized", spy)
    runner.run("mcf", redhip_scheme(recal_period=cfg.recal_period))
    assert calls == ["ReDHiP"]


# ------------------------------------------------------------ zoo kernels
ZOO_CONTROLLERS = {"levelpred": LevelPredController, "ehc": EHCController}
CONTROLLERS = {"redhip": ReDHiPController, **ZOO_CONTROLLERS}


def _controller(kind, machine, cadence, *args, l1_misses=0):
    """A fresh ``kind`` controller.  ``cadence`` is a fixed recalibration
    period (None: never) or ``("fills", budget)``: the adaptive engine,
    sweeping at the first miss ``budget`` LLC fills after its last sweep.
    ``l1_misses`` starts the engine's miss count mid-period."""
    if isinstance(cadence, tuple):
        controller = CONTROLLERS[kind](machine, *args, recal_period=None)
        controller.engine = AdaptiveRecalibrationEngine(
            threshold=cadence[1], llc_lines=1, cost=controller.engine.cost)
    else:
        controller = CONTROLLERS[kind](machine, *args, recal_period=cadence)
    controller.engine.l1_misses = l1_misses
    return controller


def _zoo_replay(kind, stream, predictor, vector):
    if kind == "redhip":
        if vector:
            return vector_replay.replay_redhip_vectorized(stream, predictor)
        return _replay_predictor_scalar(stream, predictor)
    if kind == "levelpred":
        if vector:
            return vector_replay.replay_levelpred_vectorized(stream, predictor)
        return evaluate._replay_level_predictor_scalar(stream, predictor)
    if vector:
        return vector_replay.replay_ehc_vectorized(stream, predictor)
    return evaluate._replay_ehc_scalar(stream, predictor)


def _zoo_state(kind, predictor) -> dict:
    """Every end-of-run observable of a zoo (or ReDHiP) controller."""
    state = {
        "mirror": predictor.mirror._counts.copy(),
        "stats": predictor.stats(),
        "table_updates": predictor.table_updates,
        "engine": vars(predictor.engine).copy(),
    }
    if kind == "redhip":
        state.update(bits=predictor.table._bits.copy())
    elif kind == "levelpred":
        state.update(bits=predictor.table._bits.copy(),
                     tags=predictor.tags.copy(), levels=predictor.levels.copy(),
                     conf=predictor.conf.copy(), last=predictor._last)
    else:
        state.update(expected=predictor.expected.copy(),
                     cur=predictor.cur.copy())
    return state


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _zoo_divergences(kind, stream, make, warm=()) -> list:
    """Replay two fresh controllers down both paths — after each path has
    first replayed the ``warm`` streams — and name what differs."""
    scalar, batched = make(), make()
    for earlier in warm:
        _zoo_replay(kind, earlier, scalar, vector=False)
        _zoo_replay(kind, earlier, batched, vector=True)
    want = _zoo_replay(kind, stream, scalar, vector=False)
    got = _zoo_replay(kind, stream, batched, vector=True)
    diffs = [f"output {k}" for k, (a, b) in enumerate(zip(got, want))
             if not _same(a, b)]
    want_state, got_state = _zoo_state(kind, scalar), _zoo_state(kind, batched)
    diffs += [name for name in want_state
              if not _same(got_state[name], want_state[name])]
    return diffs


ZOO_FUZZ_SEED = 20261016
ZOO_FUZZ_FAMILIES = ("mcf", "lbm", "bwaves", "blas", "shared")


def _fuzz_periods(rng, n_miss: int) -> tuple:
    """1, a small period, one that does not divide the miss count, None."""
    uneven = int(rng.integers(2, max(3, n_miss // 2)))
    while n_miss and n_miss % uneven == 0:
        uneven += 1
    return 1, int(rng.integers(2, 17)), uneven, None


def _fuzz_budgets(rng, stream) -> tuple:
    """Adaptive cadences: a sweep at every miss after a fill, and a fill
    budget a few sweeps fit into."""
    fills = int(np.count_nonzero(stream.llc_op == EVENT_FILL))
    return ("fills", 1), ("fills", int(rng.integers(2, max(3, fills // 3))))


def test_fuzz_zoo_kernels_match_scalar(monkeypatch, tmp_path):
    """Random geometry x workload family x cadence x table budget: the
    batched LevelPred and EHC kernels match the scalar loops in every
    output and every piece of end-of-run state, from fresh controllers
    and from controllers that already replayed the stream once or twice
    (so a plan built for a fresh predictor is never applied to a trained
    one).  Cadences are four fixed periods and two fill budgets of the
    adaptive engine, which ReDHiP also replays.  Half the cases run the
    level-table wavefront down to single-miss rounds, half finish sparse
    rounds in the scalar tail.  A divergence writes a seed-replay bundle
    (the case is regenerated from ``ZOO_FUZZ_SEED`` and its index)."""
    monkeypatch.setenv(checking.REPLAY_DIR_ENV, str(tmp_path))
    for i, rng in cases(seed=ZOO_FUZZ_SEED, n=16):
        machine = random_machine(rng)
        family = ZOO_FUZZ_FAMILIES[int(rng.integers(0, len(ZOO_FUZZ_FAMILIES)))]
        refs = int(rng.integers(150, 1200))
        seed = int(rng.integers(0, 2**31))
        budget = 1 << int(rng.integers(3, 11))  # 8 B .. 1 KiB
        wave = (1, vector_replay._WAVE_MIN)[i % 2]
        cfg = SimConfig(machine=machine, refs_per_core=refs, seed=seed)
        workload = build_case_workload(family, machine, refs, seed)
        runner = case_runner(cfg, workload)
        stream = runner.stream(workload.name)
        n_miss = stream.num_misses
        monkeypatch.setattr(vector_replay, "_WAVE_MIN", wave)
        periods, budgets = _fuzz_periods(rng, n_miss), _fuzz_budgets(rng, stream)
        runs = itertools.chain(
            itertools.product(periods + budgets, ZOO_CONTROLLERS),
            itertools.product(budgets, ["redhip"]))
        for (period, kind), warm in itertools.product(runs, (0, 1, 2)):
            make = partial(_controller, kind, machine, period, budget)
            diffs = _zoo_divergences(kind, stream, make, [stream] * warm)
            if not diffs:
                continue
            bundle = {
                "fuzz_seed": ZOO_FUZZ_SEED, "case": i, "scheme": kind,
                "machine": machine.name, "family": family,
                "refs_per_core": refs, "seed": seed,
                "budget_bytes": budget, "recal_period": period,
                "wave_min": wave, "misses": n_miss, "warm_replays": warm,
                "diverged": diffs,
            }
            path = checking.default_replay_dir() / f"zoo-replay-case{i}-{kind}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(bundle, indent=2, sort_keys=True))
            pytest.fail(f"case {i}: {kind} kernel diverged in {diffs} "
                        f"(bundle: {path})")


def _synthetic_stream(hit_level, block, events=(), num_levels=4,
                      cores=1) -> OutcomeStream:
    """A hand-built single-core walk, reduced to its L1-miss record;
    ``events`` are ``(when, op, block)``.  Every PC is 0."""
    n = len(hit_level)
    when, op, ev_block = (list(col) for col in zip(*events)) if events else ([], [], [])
    record = AccessRecord(
        core=np.zeros(n, dtype=np.uint16),
        block=np.asarray(block, dtype=np.uint64),
        write=np.zeros(n, dtype=bool),
        gap=np.zeros(n, dtype=np.uint32),
        hit_level=np.asarray(hit_level, dtype=np.int8),
        hit_rank=np.full(n, -1, dtype=np.int8),
        llc_when=np.asarray(when, dtype=np.int64),
        llc_op=np.asarray(op, dtype=np.int8),
        llc_block=np.asarray(ev_block, dtype=np.uint64),
        num_levels=num_levels,
        final_llc_blocks=np.zeros(0, dtype=np.uint64),
    )
    return record.reduce(np.ones(cores), _core0_origin)


def _core0_origin(at):
    """PC 0 for every access; all on core 0, so each access's index among
    its core's accesses is its access index."""
    return np.zeros(len(at), dtype=np.uint64), at


def _all_hits(stream: OutcomeStream) -> OutcomeStream:
    """``stream`` with every access an L1 hit: no misses, same totals and
    LLC events."""
    per_miss = ("at", "hit_level", "hit_rank", "block", "pc", "core", "local")
    return dataclasses.replace(
        stream, **{name: getattr(stream, name)[:0] for name in per_miss})


def _random_valid_stream(rng, n: int, pool: int,
                         evict_rate: float = 0.15) -> OutcomeStream:
    """Random hit levels over a small block pool, with LLC events that
    respect residency: memory-served accesses fill, residents get evicted
    at random.  A hot pool with rare evictions drives EHC's counters into
    saturation."""
    hit_level = rng.choice([0, 1, 2, 3, 4], size=n, p=[0.2, 0.3, 0.1, 0.1, 0.3])
    block = rng.integers(0, pool, size=n)
    resident, events = set(), []
    for i in range(n):
        if hit_level[i] == 0 and int(block[i]) not in resident:
            resident.add(int(block[i]))
            events.append((i, EVENT_FILL, int(block[i])))
        if resident and rng.random() < evict_rate:
            victim = sorted(resident)[int(rng.integers(0, len(resident)))]
            resident.discard(victim)
            events.append((i, EVENT_EVICT, victim))
    return _synthetic_stream(hit_level, block, events)


@pytest.mark.parametrize("kind", sorted(ZOO_CONTROLLERS))
@pytest.mark.parametrize("period", [1, 5, None])
def test_zoo_directed_streams(tiny_machine, monkeypatch, kind, period):
    """Degenerate and adversarial streams: no L1 misses, no LLC events,
    and a hot block pool that saturates EHC's counters — each from a
    fresh controller and after one or two earlier replays of it.  Unlike
    a cold-cache walk, these streams hit the LLC before any event on the
    entry, so they read the ``cur`` an earlier replay left."""
    rng = np.random.default_rng(11)
    no_misses = _synthetic_stream(
        [1] * 6, [1, 2, 3, 4, 5, 6],
        [(0, EVENT_FILL, 9), (2, EVENT_FILL, 10), (4, EVENT_EVICT, 9)])
    no_events = _synthetic_stream(rng.choice([0, 2, 3, 4], size=200),
                                  rng.integers(0, 50, size=200))
    streams = [no_misses, no_events, _random_valid_stream(rng, 600, 12),
               _random_valid_stream(rng, 600, 200),
               _random_valid_stream(rng, 600, 3, evict_rate=0.01)]
    make = partial(ZOO_CONTROLLERS[kind], tiny_machine, recal_period=period)
    for wave in (1, vector_replay._WAVE_MIN):
        monkeypatch.setattr(vector_replay, "_WAVE_MIN", wave)
        for k, stream in enumerate(streams):
            pcs = rng.integers(0, 1 << 20, size=stream.num_misses).astype(np.uint64)
            stream = dataclasses.replace(stream, pc=pcs)
            for warm in range(3):
                assert _zoo_divergences(kind, stream, make,
                                        [stream] * warm) == [], (k, wave, warm)


def _edge_stream(rng) -> OutcomeStream:
    """Blocks A and B share every table entry; C lives elsewhere.  The
    stream fills and evicts at the access of the miss that causes it (so
    a sweep after that miss precedes its own events), fills and evicts
    one entry at a single access in both orders, and drains the entry to
    zero and refills it several times; L1 hits sit between the misses."""
    a, b, c = 5, 5 + (1 << 20), 7
    steps = [  # (hit level, block, events at this access)
        (0, a, [(EVENT_FILL, a)]), (4, a, []), (1, a, []),
        (0, b, [(EVENT_EVICT, a), (EVENT_FILL, b)]),
        (0, a, [(EVENT_FILL, a), (EVENT_EVICT, b)]),
        (0, c, [(EVENT_FILL, c)]), (2, a, []), (1, c, []),
        (4, a, [(EVENT_EVICT, a)]), (2, c, []), (0, a, [(EVENT_FILL, a)]),
        (4, a, []), (0, b, [(EVENT_FILL, b)]),
        (4, a, [(EVENT_EVICT, b), (EVENT_EVICT, a)]), (4, c, []), (1, a, []),
        (4, a, []), (0, b, [(EVENT_FILL, b)]), (4, b, [(EVENT_EVICT, b)]),
        (4, a, []), (0, a, [(EVENT_FILL, a)]), (4, a, []),
    ]
    return _with_pcs(rng, _steps_stream(steps))


def _steps_stream(steps) -> OutcomeStream:
    """A synthetic stream from ``(hit level, block, [(op, block)])`` per
    access."""
    events = [(i, op, block) for i, (_, _, evs) in enumerate(steps)
              for op, block in evs]
    return _synthetic_stream([lvl for lvl, _, _ in steps],
                             [blk for _, blk, _ in steps], events)


def _with_pcs(rng, stream) -> OutcomeStream:
    pcs = rng.integers(0, 1 << 20, size=stream.num_misses).astype(np.uint64)
    return dataclasses.replace(stream, pc=pcs)


@pytest.mark.parametrize("kind", sorted(CONTROLLERS))
@pytest.mark.parametrize("cadence", [1, 2, 3, 5, None, ("fills", 1),
                                     ("fills", 2), ("fills", 3)])
def test_sweep_edges(tiny_machine, kind, cadence):
    """Directed sweep placements on every recalibrating kernel and both
    engines: a sweep at a miss whose own access fills or evicts its
    entry, an entry drained and refilled between two sweeps, a fill and
    an eviction on one entry at one access, an eviction at a sweeping
    miss's access refilled before the next sweep, a replay started
    mid-period (``l1_misses % period != 0``), a stream with no LLC events
    and one with no misses — each fresh, after one or two earlier replays
    of it, and after a replay of another stream that leaves stale state
    on entries this one never touches."""
    rng = np.random.default_rng(17)
    edges = _edge_stream(rng)
    no_events = dataclasses.replace(
        edges, llc_when=edges.llc_when[:0], llc_op=edges.llc_op[:0],
        llc_block=edges.llc_block[:0])
    a, c = 5, 7  # two LLC hits on a, evicted at the second sweep's access
    refill = _with_pcs(rng, _steps_stream([
        (0, a, [(EVENT_FILL, a)]), (4, a, []), (4, a, []),
        (0, c, [(EVENT_EVICT, a), (EVENT_FILL, c)]),
        (0, a, [(EVENT_FILL, a)]), (4, c, [])]))
    # Another stream, then stale bits: blocks filled and evicted after
    # the last miss, on entries the streams above never touch.
    blocks = range(20, 30)
    stale = _steps_stream([(0, blk, [(EVENT_FILL, blk)]) for blk in blocks]
                          + [(1, 0, [(EVENT_EVICT, blk)]) for blk in blocks])
    other = [_with_pcs(rng, _random_valid_stream(rng, 300, 40)), _with_pcs(rng, stale)]
    offsets = range(cadence) if isinstance(cadence, int) else (0,)
    for stream in (edges, no_events, _all_hits(edges), refill):
        for offset, warm in itertools.product(
                offsets, ([], [stream], [stream, stream], other)):
            make = partial(_controller, kind, tiny_machine, cadence,
                           l1_misses=offset)
            assert _zoo_divergences(kind, stream, make, warm) == [], (
                stream.num_misses, len(stream.llc_when), offset, len(warm))
    swept = _controller(kind, tiny_machine, cadence)
    _zoo_replay(kind, edges, swept, vector=True)
    assert swept.engine.sweeps > 0 or cadence is None


@pytest.mark.parametrize("wave", [1, 10**9])
def test_levelpred_every_miss_in_one_slot(tiny_machine, monkeypatch, wave):
    """One level slot, varying tags and levels: a single dependency chain,
    replayed as one-miss wavefront rounds or entirely by the scalar tail."""
    monkeypatch.setattr(vector_replay, "_WAVE_MIN", wave)
    rng = np.random.default_rng(5)
    ctl = LevelPredController(tiny_machine)
    n = 400
    block = rng.integers(0, 64, size=n).astype(np.uint64)
    tag = rng.integers(0, 3, size=n).astype(np.uint64)  # few tags: real reuse
    full = np.uint64(7) | (tag << np.uint64(ctl._level_bits))
    pcs = (full ^ block) << np.uint64(2)
    hit_level = rng.choice([0, 2, 3, 4], size=n, p=[0.1, 0.3, 0.3, 0.3])
    events = [(i, EVENT_FILL, int(block[i])) for i in range(0, n, 3)]
    stream = dataclasses.replace(_synthetic_stream(hit_level, block, events),
                                 pc=pcs)
    slots = {ctl._level_slot(int(p), int(b))[0] for p, b in zip(pcs, block)}
    assert slots == {7}
    make = partial(LevelPredController, tiny_machine, recal_period=32)
    assert _zoo_divergences("levelpred", stream, make) == []


@pytest.mark.parametrize("kind", ["redhip", "levelpred", "ehc"])
def test_phantom_eviction_raises_on_both_paths(tiny_machine, kind):
    """Evicting a block that was never filled is a corrupt stream: both
    the batched kernel and the scalar loop refuse it."""
    stream = _synthetic_stream([0, 2, 0], [4, 5, 6],
                               [(0, EVENT_FILL, 4), (1, EVENT_EVICT, 77)])
    if kind == "redhip":
        make = partial(ReDHiPController, tiny_machine)
        paths = (partial(_replay_predictor_scalar, stream),
                 partial(vector_replay.replay_redhip_vectorized, stream))
    else:
        make = partial(ZOO_CONTROLLERS[kind], tiny_machine)
        paths = tuple(partial(_zoo_replay, kind, stream, vector=v)
                      for v in (False, True))
    for replay in paths:
        with pytest.raises(ConfigError):
            replay(make())


@pytest.fixture(scope="module")
def zoo_case():
    from repro.energy.params import get_machine

    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=2500, seed=3)
    runner = ExperimentRunner(cfg)
    return cfg, runner.workload("soplex"), runner.stream("soplex")


def _zoo_schemes(cfg):
    return (levelpred_scheme(recal_period=cfg.recal_period),
            ehc_scheme(recal_period=cfg.recal_period))


@pytest.mark.parametrize("disabled", [False, True])
def test_zoo_replay_telemetry_names_the_path(zoo_case, monkeypatch, disabled):
    """The replay span and counters report the path that actually ran;
    the per-scheme counters stay."""
    cfg, wl, stream = zoo_case
    if disabled:
        monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")
    with telemetry.session(force=True, label="zoo") as sess:
        for scheme in _zoo_schemes(cfg):
            evaluate_scheme(stream, cfg.machine, scheme, wl, checked=False)
        counters = dict(sess.registry.snapshot()["counters"])
        spans = [s for s in sess.tracer.to_dicts() if s["name"] == "replay"]
    ran, idle = ("sequential", "vector") if disabled else ("vector", "sequential")
    assert [s["tags"]["path"] for s in spans] == [ran, ran]
    assert counters[f"replay.{ran}"] == 2
    assert f"replay.{idle}" not in counters
    assert counters["replay.levelpred"] == 1 and counters["replay.ehc"] == 1


@pytest.mark.parametrize("checked", [False, True])
def test_zoo_results_identical_on_both_paths(zoo_case, monkeypatch, checked):
    cfg, wl, stream = zoo_case
    for scheme in _zoo_schemes(cfg):
        fast = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=checked)
        with monkeypatch.context() as env:
            env.setenv(vector_replay.NO_VECTOR_ENV, "1")
            slow = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=False)
        assert result_facts(fast) == result_facts(slow)


def test_no_vector_env_forces_scalar_zoo_replay(zoo_case, monkeypatch):
    cfg, wl, stream = zoo_case
    monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")

    def boom(*args, **kwargs):
        raise AssertionError("zoo kernel ran despite REPRO_NO_VECTOR_REPLAY")

    monkeypatch.setattr(vector_replay, "replay_levelpred_vectorized", boom)
    monkeypatch.setattr(vector_replay, "replay_ehc_vectorized", boom)
    for scheme in _zoo_schemes(cfg):
        assert evaluate_scheme(stream, cfg.machine, scheme, wl).l1_misses > 0


def test_checked_mode_catches_divergent_zoo_kernels(zoo_case, monkeypatch):
    """Mutation test: one flipped per-access answer in either zoo kernel
    must trip the checked-mode equivalence oracle."""
    cfg, wl, stream = zoo_case
    first_miss = 0
    real_lp = vector_replay.replay_levelpred_vectorized
    real_ehc = vector_replay.replay_ehc_vectorized

    def poisoned_lp(stream_, predictor_):
        level, confident, stall = real_lp(stream_, predictor_)
        confident = confident.copy()
        confident[first_miss] = not confident[first_miss]
        return level, confident, stall

    def poisoned_ehc(stream_, predictor_):
        dead, stall = real_ehc(stream_, predictor_)
        dead = dead.copy()
        dead[first_miss] = not dead[first_miss]
        return dead, stall

    monkeypatch.setattr(vector_replay, "replay_levelpred_vectorized", poisoned_lp)
    monkeypatch.setattr(vector_replay, "replay_ehc_vectorized", poisoned_ehc)
    for scheme in _zoo_schemes(cfg):
        with pytest.raises(ReproError, match="vectorized replay diverged"):
            evaluate_scheme(stream, cfg.machine, scheme, wl, checked=True)


# ---------------------------------------------------------- replay plans
def _plan_scheme(kind, budget, period):
    """The recalibrating schemes that replay through a plan, by kind."""
    if kind == "redhip":
        return redhip_scheme(table_bytes=budget, recal_period=period)
    if kind == "redhip_noov":
        return redhip_scheme(table_bytes=budget, recal_period=period,
                             name="ReDHiP-NoOv", lookup_delay=0)
    if kind == "levelpred":
        return levelpred_scheme(table_bytes=budget, recal_period=period)
    return ehc_scheme(budget_bytes=budget, recal_period=period)


def _plan_outcome(machine, stream, kind, budget, period, vector=True):
    """(SchemeResult facts, end-of-run state) of one evaluation."""
    scheme = _plan_scheme(kind, budget, period)
    result = evaluate_scheme(stream, machine, scheme, "soplex")
    predictor = scheme.build_predictor(machine)
    state_kind = "redhip" if kind.startswith("redhip") else kind
    _zoo_replay(state_kind, stream, predictor, vector=vector)
    return result_facts(result), _zoo_state(state_kind, predictor)


def _same_outcome(a, b) -> bool:
    return a[0] == b[0] and all(_same(a[1][k], b[1][k]) for k in a[1])


def test_plan_reuse_is_exact(tmp_path, monkeypatch):
    """One stream through one runner: ReDHiP, ReDHiP-NoOv, LevelPred and
    EHC at every cadence kind and two table budgets, forward and then in
    reverse, so nearly every cell reuses a plan.  Each result and end
    state equals the same evaluation on an independently loaded copy of
    the stream with a cold memo, and the scalar oracle."""
    from repro.energy.params import get_machine

    cfg = SimConfig(machine=get_machine("tiny"), refs_per_core=2500, seed=3,
                    stream_cache=str(tmp_path / "cache"))
    runner = ExperimentRunner(cfg)
    stream = runner.stream("soplex")
    loaded = ExperimentRunner(cfg).stream("soplex")  # from the disk cache
    assert loaded is not stream and loaded.record_digest() == stream.record_digest()
    kinds = ("redhip", "redhip_noov", "levelpred", "ehc")
    cells = list(itertools.product(
        kinds, (None, 128), _fuzz_periods(np.random.default_rng(7),
                                          stream.num_misses)))
    with telemetry.session(force=True, label="plans") as sess:
        hot = {}
        for cell in cells + cells[::-1]:
            outcome = _plan_outcome(cfg.machine, runner.stream("soplex"), *cell)
            assert _same_outcome(hot.setdefault(cell, outcome), outcome), cell
        counters = sess.registry.snapshot()["counters"]
    # One plan per (kind, geometry), used by every later lookup: each cell
    # looks its plans up twice per pass (evaluation and direct replay),
    # and the presence plan serves ReDHiP, ReDHiP-NoOv and LevelPred.
    for kind, users in (("presence", 3), ("levelpred", 1), ("ehc", 1)):
        built = counters[f"replay.plans_built{{kind={kind}}}"]
        reused = counters[f"replay.plans_reused{{kind={kind}}}"]
        assert built == 2 and built + reused == 2 * 2 * len(cells) * users // 4, kind
    for plan in vector_replay._PLANS[stream].values():
        for value in vars(plan).values():
            arrays = vars(value).values() if dataclasses.is_dataclass(value) else [value]
            for array in arrays:
                if isinstance(array, np.ndarray):
                    assert not array.flags.writeable
    for cell in cells:
        cold = _plan_outcome(cfg.machine, dataclasses.replace(loaded), *cell)
        assert _same_outcome(hot[cell], cold), cell
        with monkeypatch.context() as env:
            env.setenv(vector_replay.NO_VECTOR_ENV, "1")
            scalar = _plan_outcome(cfg.machine, loaded, *cell, vector=False)
        assert _same_outcome(hot[cell], scalar), cell


def test_plans_live_as_long_as_their_stream(tiny_machine, tmp_path):
    """Dropping a runner drops its stream's plans; a sweep over several
    shards leaves none behind."""
    runner = ExperimentRunner(SimConfig(machine=tiny_machine,
                                        refs_per_core=1500, seed=6))
    for scheme in (redhip_scheme(), levelpred_scheme(), ehc_scheme()):
        runner.run("mcf", scheme)
    stream = weakref.ref(runner.stream("mcf"))
    assert {key[0] for key in vector_replay._PLANS[stream()]} == {
        "presence", "levelpred", "ehc"}
    gc.collect()
    before = len(vector_replay._PLANS)
    del runner
    gc.collect()
    assert stream() is None
    assert len(vector_replay._PLANS) == before - 1

    from repro.experiments.studies import cells_recal_study
    from repro.sweep.scheduler import run_cells

    cfg = SimConfig(machine=tiny_machine, refs_per_core=1500, seed=6)
    cells = cells_recal_study(cfg, workloads=("mcf", "bwaves", "soplex"))
    with telemetry.session(force=True, label="shards") as sess:
        report = run_cells(cells, "plans", tmp_path / "s.sqlite", workers=1)
        built = sess.registry.counter_total("replay.plans_built")
    gc.collect()
    assert report.ok and built == 3 * 3
    assert len(vector_replay._PLANS) == before - 1


def test_per_access_pcs_is_one_gather(tiny_machine):
    """The single gather of the L1 misses' PCs at walk time equals a
    per-core masked assignment on a multi-core workload, restricted to
    the misses."""
    cfg = SimConfig(machine=tiny_machine, refs_per_core=1500, seed=4)
    runner = ExperimentRunner(cfg)
    workload = build_case_workload("shared", tiny_machine, 1500, 4)
    runner.add_workload(workload)
    stream = runner.stream(workload.name)
    record = ContentSimulator(cfg).walk(workload)
    assert len(workload.traces) > 1
    merged_core, merged_idx = merge_order(workload)
    n = stream.num_accesses
    want = np.empty(n, dtype=np.uint64)
    for core, trace in enumerate(workload.traces):
        sel = merged_core[:n] == core
        want[sel] = trace.pc[merged_idx[:n][sel]]
    assert stream.pc.dtype == np.uint64
    np.testing.assert_array_equal(stream.pc, want[record.hit_level != 1])


# ------------------------------------------------------- L1-miss record
def test_miss_record_is_a_read_only_gather_of_the_walk(zoo_case):
    """The stream is the walk's misses plus per-core totals, frozen; and
    it is exactly what the stream cache persists."""
    cfg, wl, stream = zoo_case
    record = ContentSimulator(cfg).walk(wl)
    at = np.flatnonzero(record.hit_level != 1)
    np.testing.assert_array_equal(stream.at, at)
    for name in ("hit_level", "hit_rank", "block", "core"):
        got = getattr(stream, name)
        assert got.dtype == getattr(record, name).dtype
        np.testing.assert_array_equal(got, getattr(record, name)[at])
    for core in range(wl.cores):
        mine = record.core == core
        assert stream.core_accesses[core] == np.count_nonzero(mine)
        np.testing.assert_array_equal(
            stream.local[stream.core == core],
            np.flatnonzero(record.hit_level[mine] != 1))
    assert stream.fingerprint() == record.fingerprint()
    arrays = {f.name for f in dataclasses.fields(stream)} - {
        "num_levels", "content_fingerprint"}
    assert arrays == {name for name, _ in RECORD_FIELDS}
    for name in arrays:     # replay plans are memoized per stream object
        assert not getattr(stream, name).flags.writeable, name


def test_gap_sums_cover_cores_without_accesses(seeded):
    """A core that issued nothing still gets its (zero) gap sum, and the
    timing fold still reports every core."""
    cfg, runner, stream = seeded
    cores = cfg.machine.cores
    wl = runner.workload("mcf")
    record = ContentSimulator(cfg).walk(wl)
    idle = dataclasses.replace(record, core=np.zeros_like(record.core)).reduce(
        wl.cpis, _core0_origin)
    sums = idle.core_gap_sums
    assert sums.shape == (cores,) and sums[1:].tolist() == [0.0] * (cores - 1)
    assert sums[0] == float(record.gap.astype(np.float64).sum())
    assert idle.core_accesses.tolist() == [record.num_accesses] + [0] * (cores - 1)
    empty = _synthetic_stream([], [], cores=cores)
    assert empty.core_gap_sums.tolist() == [0.0] * cores
    res = evaluate_scheme(idle, cfg.machine, base_scheme(), wl)
    assert res.timing.compute_cycles.shape == (cores,)
    assert res.timing.memory_cycles[1:].tolist() == [0.0] * (cores - 1)


def _every_flow(cfg):
    return (base_scheme(), oracle_scheme(), phased_scheme(),
            redhip_scheme(recal_period=cfg.recal_period), cbf_scheme(),
            gated_redhip_scheme(recal_period=cfg.recal_period, window=256),
            levelpred_scheme(recal_period=cfg.recal_period),
            oracle_levelpred_scheme(),
            ehc_scheme(recal_period=cfg.recal_period))


def test_stream_without_l1_misses_through_every_flow(zoo_case, monkeypatch):
    """All-hit stream: every flow (checked and on the scalar path) charges
    L1 probes only, and the predictors still drain every LLC event."""
    cfg, wl, stream = zoo_case
    hits = _all_hits(stream)
    assert hits.num_misses == 0
    d1 = ChargingKernel(cfg.machine).par_d[1]
    per_core = hits.core_accesses * float(d1)
    for scheme in _every_flow(cfg):
        fast = evaluate_scheme(hits, cfg.machine, scheme, wl, checked=True)
        with monkeypatch.context() as env:
            env.setenv(vector_replay.NO_VECTOR_ENV, "1")
            slow = evaluate_scheme(hits, cfg.machine, scheme, wl, checked=True)
        assert result_facts(fast) == result_facts(slow), scheme.name
        assert (fast.l1_misses, fast.skips, fast.true_misses) == (0, 0, 0)
        assert all(fast.level_lookups[lvl] == 0 for lvl in (2, 3, 4))
        np.testing.assert_array_equal(fast.timing.memory_cycles, per_core)


def _replays(cfg):
    """Every batched kernel and scalar oracle, as ``(name, make, replay)``."""
    machine, period = cfg.machine, cfg.recal_period
    redhip = partial(ReDHiPController, machine, recal_period=period)
    cbf = cbf_scheme().build_predictor
    lp = partial(LevelPredController, machine, recal_period=period)
    ehc = partial(EHCController, machine, recal_period=period)
    return (
        ("redhip-vector", redhip, vector_replay.replay_redhip_vectorized),
        ("redhip-scalar", redhip, _replay_predictor_scalar),
        ("cbf-vector", partial(cbf, machine), vector_replay.replay_cbf_vectorized),
        ("cbf-scalar", partial(cbf, machine), _replay_predictor_scalar),
        ("gated-scalar", partial(gated_redhip_scheme().build_predictor, machine),
         _replay_predictor_scalar),
        ("missmap-scalar", partial(missmap_scheme().build_predictor, machine),
         _replay_predictor_scalar),
        ("levelpred-vector", lp, vector_replay.replay_levelpred_vectorized),
        ("levelpred-scalar", lp, evaluate._replay_level_predictor_scalar),
        ("ehc-vector", ehc, vector_replay.replay_ehc_vectorized),
        ("ehc-scalar", ehc, evaluate._replay_ehc_scalar),
    )


def test_every_replay_returns_one_answer_per_l1_miss(zoo_case):
    cfg, wl, stream = zoo_case
    for case in (stream, _all_hits(stream)):
        k = case.num_misses
        assert case.pc.shape == (k,)
        for name, make, replay in _replays(cfg):
            outputs = replay(case, make())
            arrays = [out for out in outputs if isinstance(out, np.ndarray)]
            assert arrays and all(out.shape == (k,) for out in arrays), (name, k)


# ------------------------------------------------------------ CBF kernel
def _cbf_state(predictor: CBFPredictor) -> dict:
    """Every end-of-run observable of a CBF predictor."""
    cbf = predictor.filter
    return {"counts": cbf._counts.copy(), "disabled": cbf._disabled.copy(),
            "inserts": cbf.inserts, "deletes": cbf.deletes,
            "saturations": cbf.saturations,
            "table_updates": predictor.table_updates,
            "stats": predictor.stats()}


def _cbf_divergences(stream, make, warm=()) -> tuple:
    """Replay two fresh CBF predictors down both paths — after each path
    has first replayed the ``warm`` streams — and return what differs and
    the scalar-replayed predictor."""
    scalar, batched = make(), make()
    for earlier in warm:
        _replay_predictor_scalar(earlier, scalar)
        vector_replay.replay_cbf_vectorized(earlier, batched)
    want = _replay_predictor_scalar(stream, scalar)
    got = vector_replay.replay_cbf_vectorized(stream, batched)
    diffs = [f"output {k}" for k, (a, b) in enumerate(zip(got, want))
             if not _same(a, b)]
    want_state, got_state = _cbf_state(scalar), _cbf_state(batched)
    diffs += [name for name in want_state
              if not _same(got_state[name], want_state[name])]
    return diffs, scalar


def _disables(predictor: CBFPredictor) -> tuple:
    """(overflow, underflow) disables left in the filter: a counter keeps
    its pre-violation value, ``max_count`` or 0."""
    cbf = predictor.filter
    off = cbf._disabled
    return (int(np.count_nonzero(off & (cbf._counts == cbf.max_count))),
            int(np.count_nonzero(off & (cbf._counts == 0))))


def _drop_fills(stream, rng, fraction: float):
    """The stream minus a random share of its fills, so later evictions
    of those blocks underflow their counters."""
    keep = (stream.llc_op != EVENT_FILL) | (rng.random(len(stream.llc_op)) >= fraction)
    return dataclasses.replace(stream, llc_when=stream.llc_when[keep],
                               llc_op=stream.llc_op[keep],
                               llc_block=stream.llc_block[keep])


CBF_FUZZ_SEED = 20261017


def test_fuzz_cbf_kernel_matches_scalar(monkeypatch, tmp_path):
    """Random geometry x workload family, every counter width 1-8 under
    both hashes, at budgets of 8-64 bytes: the batched CBF replay matches
    the scalar loop in outputs and end-of-run filter state.  Every other
    case drops a share of the fills, so evictions underflow as well as
    fills overflow; the fuzz must see both kinds of disable.  A divergence
    writes a seed-replay bundle."""
    monkeypatch.setenv(checking.REPLAY_DIR_ENV, str(tmp_path))
    overflows = underflows = 0
    for i, rng in cases(seed=CBF_FUZZ_SEED, n=12):
        machine = random_machine(rng)
        family = ZOO_FUZZ_FAMILIES[int(rng.integers(0, len(ZOO_FUZZ_FAMILIES)))]
        refs = int(rng.integers(150, 1000))
        seed = int(rng.integers(0, 2**31))
        cfg = SimConfig(machine=machine, refs_per_core=refs, seed=seed)
        workload = build_case_workload(family, machine, refs, seed)
        runner = case_runner(cfg, workload)
        stream = runner.stream(workload.name)
        if i % 2:
            stream = _drop_fills(stream, rng, 0.2)
        for bits in range(1, 9):
            for hash_kind in ("xor", "bits"):
                budget = 1 << int(rng.integers(3, 7))  # 8 .. 64 B
                make = partial(CBFPredictor, budget, bits, hash_kind)
                diffs, scalar = _cbf_divergences(stream, make)
                if not diffs:
                    over, under = _disables(scalar)
                    overflows += over
                    underflows += under
                    continue
                bundle = {
                    "fuzz_seed": CBF_FUZZ_SEED, "case": i, "scheme": "cbf",
                    "machine": machine.name, "family": family,
                    "refs_per_core": refs, "seed": seed, "budget_bytes": budget,
                    "counter_bits": bits, "hash": hash_kind,
                    "dropped_fills": bool(i % 2), "diverged": diffs,
                }
                path = checking.default_replay_dir() / f"cbf-replay-case{i}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(bundle, indent=2, sort_keys=True))
                pytest.fail(f"case {i}: CBF kernel diverged in {diffs} "
                            f"(bundle: {path})")
    assert overflows and underflows, (overflows, underflows)


@pytest.mark.parametrize("hash_kind", ["xor", "bits"])
def test_cbf_directed_streams(tiny_machine, hash_kind):
    """No LLC events, no L1 misses, every event on one entry (a 2-bit
    counter that overflows) and random hot pools at several widths, from
    a fresh filter and from one a previous replay left in use."""
    rng = np.random.default_rng(13)
    no_events = _synthetic_stream(rng.choice([0, 2, 3, 4], size=200),
                                  rng.integers(0, 50, size=200))
    no_misses = _synthetic_stream(
        [1] * 6, [1, 2, 3, 4, 5, 6],
        [(0, EVENT_FILL, 9), (2, EVENT_FILL, 10), (4, EVENT_EVICT, 9)])
    make = partial(CBFPredictor, 64, 2, hash_kind)
    entries = make().filter.num_entries
    # Under either hash, blocks 5 + k * (entries + entries**2) share entry 5.
    same = [5 + k * (entries + entries * entries) for k in range(8)]
    one_entry_events = [(i, EVENT_FILL, same[i]) for i in range(8)]
    one_entry_events += [(8 + i, EVENT_EVICT, same[i]) for i in range(8)]
    one_entry = _synthetic_stream([0] * 8 + [2] * 12, same + same[:8] + same[:4],
                                  one_entry_events)
    for stream in (no_events, no_misses, one_entry):
        assert _cbf_divergences(stream, make)[0] == []
    scalar = _cbf_divergences(one_entry, make)[1]
    assert scalar.filter.saturations == 1 and scalar.filter._disabled[5]
    for bits in (1, 3, 8):
        for pool in (3, 40):
            stream = _random_valid_stream(rng, 500, pool, evict_rate=0.05)
            make = partial(CBFPredictor, 8, bits, hash_kind)
            assert _cbf_divergences(stream, make)[0] == [], (bits, pool)
            # From used filters: the first rerun starts from non-zero
            # counts, the second also from entries the first disabled.
            for warm in ([stream], [stream, stream]):
                assert _cbf_divergences(stream, make, warm)[0] == [], (bits, pool)
    twice = _cbf_divergences(stream, partial(CBFPredictor, 8, 1, hash_kind),
                             [stream])[1]
    assert twice.filter.disabled_fraction > 0


@pytest.mark.parametrize("vector", [False, True])
def test_cbf_eviction_before_fill_disables(tiny_machine, vector):
    """A CBF treats an eviction it never saw filled as an underflow: the
    entry disables and answers "present" from then on, on both paths,
    where the tag-mirror schemes refuse the stream."""
    stream = _synthetic_stream([0, 0, 2], [4, 77, 77],
                               [(0, EVENT_EVICT, 77), (1, EVENT_FILL, 4)])
    predictor = CBFPredictor(64, 4, "bits")
    replay = vector_replay.replay_cbf_vectorized if vector else _replay_predictor_scalar
    predicted, _, _ = replay(stream, predictor)
    assert predicted.tolist() == [False, True, True]
    assert predictor.filter.saturations == 1
    assert predictor.filter._disabled[77 % predictor.filter.num_entries]
    # The entry stays disabled: a later fill/evict pair that would bring
    # a live counter back to zero still answers "present".
    again = _synthetic_stream([0, 0, 2], [77, 5, 77],
                              [(0, EVENT_FILL, 77), (1, EVENT_EVICT, 77)])
    predicted, _, _ = replay(again, predictor)
    assert predicted.tolist() == [True, False, True]
    assert predictor.filter.saturations == 1


def test_cbf_dispatch_and_escape_hatch(zoo_case, monkeypatch):
    """The evaluator runs CBF through the kernel (via ``replay_predictor``),
    and ``REPRO_NO_VECTOR_REPLAY`` keeps it on the scalar loop."""
    cfg, wl, stream = zoo_case
    calls = []
    real = vector_replay.replay_cbf_vectorized

    def spy(stream_, predictor_):
        calls.append(predictor_.name)
        return real(stream_, predictor_)

    monkeypatch.setattr(vector_replay, "replay_cbf_vectorized", spy)
    fast = evaluate_scheme(stream, cfg.machine, cbf_scheme(), wl, checked=False)
    assert calls == ["CBF"]
    monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")
    slow = evaluate_scheme(stream, cfg.machine, cbf_scheme(), wl, checked=False)
    assert calls == ["CBF"]
    assert result_facts(fast) == result_facts(slow)


@pytest.mark.parametrize("poison", ["output", "state"])
def test_checked_mode_catches_divergent_cbf_kernel(zoo_case, monkeypatch, poison):
    """Mutation test: a flipped answer, or a filter counter the kernel
    leaves wrong, trips the checked-mode oracle — which must therefore
    be the scalar loop, not the dispatcher that runs the kernel."""
    cfg, wl, stream = zoo_case
    real = vector_replay.replay_cbf_vectorized

    def poisoned(stream_, predictor_):
        predicted, consulted, stall = real(stream_, predictor_)
        if poison == "state":
            predictor_.filter.deletes += 1
            return predicted, consulted, stall
        predicted = predicted.copy()
        predicted[np.flatnonzero(~predicted)[0]] = True  # still conservative
        return predicted, consulted, stall

    monkeypatch.setattr(vector_replay, "replay_cbf_vectorized", poisoned)
    match = "filter.deletes" if poison == "state" else "output 0"
    with pytest.raises(ReproError, match=match):
        evaluate_scheme(stream, cfg.machine, cbf_scheme(), wl, checked=True)
