"""Vectorized replay: equivalence, eligibility, escape hatches.

The kernels' contract (see :mod:`repro.sim.vector_replay`): for every
stream and every fixed-period plain-ReDHiP, LevelPred or EHC
configuration, and every plain CBF, the batched replay is *bit-identical*
to the sequential loop — same per-access outputs, same stall cycles, same
final predictor state, same telemetry — and therefore every derived
:class:`SchemeResult` field matches.  Predictors that observe per-event
state (MissMap, gated, adaptive engine) must be declared ineligible and
keep the sequential path.
"""

from __future__ import annotations

import dataclasses
import json
from functools import partial

import numpy as np
import pytest

from repro import checking, telemetry
from repro.core.gating import gated_redhip_scheme
from repro.core.redhip import ReDHiPController, redhip_scheme
from repro.hierarchy.events import EVENT_EVICT, EVENT_FILL, OutcomeStream
from repro.predictors.cbf_scheme import CBFPredictor, cbf_scheme
from repro.predictors.ehc import EHCController, ehc_scheme
from repro.predictors.levelpred import LevelPredController, levelpred_scheme
from repro.predictors.missmap import missmap_scheme
from repro.sim import evaluate, vector_replay
from repro.sim.config import SimConfig
from repro.sim.evaluate import _replay_predictor_scalar, evaluate_scheme
from repro.sim.runner import ExperimentRunner
from repro.util.proptest import cases
from repro.util.validation import ConfigError, ReproError
from repro.workloads.shared import merge_order

from test_vector_content import build_case_workload, random_machine

SEEDS = (1, 2, 3)


def scheme_lineup(period):
    """Every shipped predictor scheme (ISSUE: 3 seeds x all of them)."""
    return [
        redhip_scheme(recal_period=period),
        redhip_scheme(recal_period=period, hash_kind="xor", name="ReDHiP-xor"),
        redhip_scheme(recal_period=None, name="ReDHiP-norecal"),
        redhip_scheme(recal_period=period, recal_threshold=0.5,
                      name="ReDHiP-adaptive"),
        cbf_scheme(),
        gated_redhip_scheme(recal_period=period, window=256),
        missmap_scheme(),
    ]


@pytest.fixture(scope="module", params=SEEDS)
def seeded(request):
    from repro.energy.params import get_machine

    machine = get_machine("tiny")
    cfg = SimConfig(machine=machine, refs_per_core=2500, seed=request.param)
    runner = ExperimentRunner(cfg)
    return cfg, runner, runner.stream("mcf")


def _result_facts(res):
    """Everything a figure could read off a SchemeResult."""
    return (
        res.timing.exec_cycles,
        res.ledger.total_nj,
        dict(res.ledger.counts),
        dict(res.ledger.energy_nj),
        res.static_nj,
        res.hit_rates,
        res.level_lookups,
        res.level_hits,
        res.skips,
        res.false_positives,
        res.true_misses,
        res.recal_stall_cycles,
        res.predictor_stats,
    )


# ----------------------------------------------------------- equivalence
@pytest.mark.parametrize("scheme_idx", range(7))
@pytest.mark.parametrize("checked", [False, True])
def test_vectorized_equals_sequential_scheme_results(seeded, scheme_idx, checked,
                                                     monkeypatch):
    """Bit-identical SchemeResults, checked and unchecked, all schemes."""
    cfg, runner, stream = seeded
    scheme = scheme_lineup(cfg.recal_period)[scheme_idx]
    wl = runner.workload("mcf")
    fast = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=checked)
    monkeypatch.setenv(vector_replay.NO_VECTOR_ENV, "1")
    slow = evaluate_scheme(stream, cfg.machine, scheme, wl, checked=False)
    assert _result_facts(fast) == _result_facts(slow)


def test_direct_replay_equivalence_with_sweeps(seeded):
    """Low-level contract: predictions, stall and final predictor state."""
    cfg, _, stream = seeded
    for period in (1, 7, 300, None):
        seq = ReDHiPController(cfg.machine, recal_period=period)
        vec = ReDHiPController(cfg.machine, recal_period=period)
        p1, c1, s1 = _replay_predictor_scalar(stream, seq)
        p2, c2, s2 = vector_replay.replay_redhip_vectorized(stream, vec)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(c1, c2)
        assert s1 == s2
        np.testing.assert_array_equal(seq.table._bits, vec.table._bits)
        np.testing.assert_array_equal(seq.mirror._counts, vec.mirror._counts)
        assert seq.stats() == vec.stats()
        assert seq.table_updates == vec.table_updates
        assert seq.engine.l1_misses == vec.engine.l1_misses
        assert seq.engine.sweeps == vec.engine.sweeps
        if period is not None:
            assert vec.engine.sweeps > 0  # the loop actually crossed epochs


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
    # Adaptive engine observes per-event churn: not batchable.
    assert not eligible(ReDHiPController(tiny_machine, recal_threshold=0.5))
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
            with pytest.raises(ReproError, match="not epoch-batchable"):
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

    def poisoned(stream_, predictor_):
        predicted, consulted, stall = real(stream_, predictor_)
        skips = np.nonzero(~predicted & (stream_.hit_level != 1))[0]
        assert len(skips), "stream produced no skips to poison"
        predicted = predicted.copy()
        predicted[skips[0]] = True  # stays conservative: no false negative
        return predicted, consulted, stall

    monkeypatch.setattr(vector_replay, "replay_redhip_vectorized", poisoned)
    with pytest.raises(ReproError, match="vectorized replay diverged"):
        evaluate_scheme(
            stream, cfg.machine, redhip_scheme(recal_period=cfg.recal_period),
            runner.workload("mcf"), checked=True,
        )


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


def _zoo_replay(kind, stream, predictor, pcs, vector):
    if kind == "levelpred":
        if vector:
            return vector_replay.replay_levelpred_vectorized(stream, predictor, pcs)
        return evaluate._replay_level_predictor_scalar(stream, predictor, pcs)
    if vector:
        return vector_replay.replay_ehc_vectorized(stream, predictor)
    return evaluate._replay_ehc_scalar(stream, predictor)


def _zoo_state(kind, predictor) -> dict:
    """Every end-of-run observable of a zoo controller."""
    state = {
        "mirror": predictor.mirror._counts.copy(),
        "stats": predictor.stats(),
        "table_updates": predictor.table_updates,
        "l1_misses": predictor.engine.l1_misses,
        "sweeps": predictor.engine.sweeps,
    }
    if kind == "levelpred":
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


def _zoo_divergences(kind, stream, make, pcs=None) -> list:
    """Replay two fresh controllers down both paths; name what differs."""
    scalar, batched = make(), make()
    want = _zoo_replay(kind, stream, scalar, pcs, vector=False)
    got = _zoo_replay(kind, stream, batched, pcs, vector=True)
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


def test_fuzz_zoo_kernels_match_scalar(monkeypatch, tmp_path):
    """Random geometry x workload family x recal period x table budget:
    the batched LevelPred and EHC kernels match the scalar loops in every
    output and every piece of end-of-run state.  Half the cases run the
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
        runner = ExperimentRunner(cfg)
        runner.add_workload(workload)
        stream = runner.stream(workload.name)
        pcs = evaluate._per_access_pcs(stream, workload)
        n_miss = int(np.count_nonzero(stream.hit_level != 1))
        monkeypatch.setattr(vector_replay, "_WAVE_MIN", wave)
        for period in _fuzz_periods(rng, n_miss):
            for kind, controller in ZOO_CONTROLLERS.items():
                make = partial(controller, machine, budget, recal_period=period)
                diffs = _zoo_divergences(kind, stream, make, pcs)
                if not diffs:
                    continue
                bundle = {
                    "fuzz_seed": ZOO_FUZZ_SEED, "case": i, "scheme": kind,
                    "machine": machine.name, "family": family,
                    "refs_per_core": refs, "seed": seed,
                    "budget_bytes": budget, "recal_period": period,
                    "wave_min": wave, "misses": n_miss, "diverged": diffs,
                }
                path = checking.default_replay_dir() / f"zoo-replay-case{i}-{kind}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(bundle, indent=2, sort_keys=True))
                pytest.fail(f"case {i}: {kind} kernel diverged in {diffs} "
                            f"(bundle: {path})")


def _synthetic_stream(hit_level, block, events=(), num_levels=4) -> OutcomeStream:
    """A hand-built outcome stream; ``events`` are ``(when, op, block)``."""
    n = len(hit_level)
    when, op, ev_block = (list(col) for col in zip(*events)) if events else ([], [], [])
    return OutcomeStream(
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
    and a hot block pool that saturates EHC's counters."""
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
            pcs = rng.integers(0, 1 << 20, size=stream.num_accesses).astype(np.uint64)
            assert _zoo_divergences(kind, stream, make, pcs) == [], (k, wave)


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
    stream = _synthetic_stream(hit_level, block, events)
    slots = {ctl._level_slot(int(p), int(b))[0] for p, b in zip(pcs, block)}
    assert slots == {7}
    make = partial(LevelPredController, tiny_machine, recal_period=32)
    assert _zoo_divergences("levelpred", stream, make, pcs) == []


@pytest.mark.parametrize("kind", ["redhip", "levelpred", "ehc"])
def test_phantom_eviction_raises_on_both_paths(tiny_machine, kind):
    """Evicting a block that was never filled is a corrupt stream: both
    the batched kernel and the scalar loop refuse it."""
    stream = _synthetic_stream([0, 2, 0], [4, 5, 6],
                               [(0, EVENT_FILL, 4), (1, EVENT_EVICT, 77)])
    pcs = np.zeros(3, dtype=np.uint64)
    if kind == "redhip":
        make = partial(ReDHiPController, tiny_machine)
        paths = (partial(_replay_predictor_scalar, stream),
                 partial(vector_replay.replay_redhip_vectorized, stream))
    else:
        make = partial(ZOO_CONTROLLERS[kind], tiny_machine)
        paths = tuple(partial(_zoo_replay, kind, stream, pcs=pcs, vector=v)
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
        assert _result_facts(fast) == _result_facts(slow)


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
    first_miss = int(np.flatnonzero(stream.hit_level != 1)[0])
    real_lp = vector_replay.replay_levelpred_vectorized
    real_ehc = vector_replay.replay_ehc_vectorized

    def poisoned_lp(stream_, predictor_, pcs_):
        level, confident, stall = real_lp(stream_, predictor_, pcs_)
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


def test_per_access_pcs_is_one_gather(tiny_machine):
    """The single gather equals a per-core masked assignment on a
    multi-core workload."""
    cfg = SimConfig(machine=tiny_machine, refs_per_core=1500, seed=4)
    runner = ExperimentRunner(cfg)
    workload = build_case_workload("shared", tiny_machine, 1500, 4)
    runner.add_workload(workload)
    stream = runner.stream(workload.name)
    assert len(workload.traces) > 1
    merged_core, merged_idx = merge_order(workload)
    n = stream.num_accesses
    want = np.empty(n, dtype=np.uint64)
    for core, trace in enumerate(workload.traces):
        sel = merged_core[:n] == core
        want[sel] = trace.pc[merged_idx[:n][sel]]
    got = evaluate._per_access_pcs(stream, workload)
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got, want)


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
        runner = ExperimentRunner(cfg)
        runner.add_workload(workload)
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
    assert _result_facts(fast) == _result_facts(slow)


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
