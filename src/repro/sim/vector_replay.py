"""Vectorized predictor replay: batch the per-L1-miss loops with NumPy.

The scalar replays in :mod:`repro.sim.evaluate` walk the LLC event stream
against a predictor one L1 miss at a time — a Python call per miss plus a
Python call per LLC event.  For the three recalibrating predictors that
loop is batchable, because their visible state changes in a schedule
fixed in advance:

* **fills set bits** — and never clear them (the PT-monotonicity invariant
  checked mode already enforces); evictions touch only the tag mirror;
* **sweeps happen at deterministic miss counts** — the fixed-period engine
  fires after every ``period``-th L1 miss, independent of the answers.

So the replay decomposes into *epochs* (the spans between consecutive
sweeps).  Within one epoch the ReDHiP prediction for the miss at access
index ``i`` hashing to table entry ``e`` is::

    bits_at_epoch_start[e]  OR  first_fill_time[e] < i

where ``first_fill_time[e]`` is the access index of the earliest LLC fill
in the epoch that hashes to ``e`` — computed for all entries at once with
``np.minimum.at`` (first-fill-sets-the-bit semantics).  The tag mirror
advances per epoch with ``np.add.at``/``np.subtract.at``, and the sweep
itself is the same ``counts > 0`` assignment the engine performs.

The two predictor-zoo controllers reuse that schedule:

* **LevelPred** (:func:`replay_levelpred_vectorized`) — the presence half
  *is* ReDHiP's bitmap, replayed by the same epoch loop.  The level table
  evolves only from the (slot, tag, hit level) sequence of L1 misses:
  presence bits, LLC events and sweeps never feed into it.  Slots are
  independent, so it replays as a *wavefront* over each slot's occurrence
  rank — round ``r`` updates every slot's ``r``-th miss in one vectorized
  step.  Once a round is too sparse to amortize NumPy's per-call cost, the
  remaining misses (a few hot slots) finish in a scalar tail.
* **EHC** (:func:`replay_ehc_vectorized`) — predictions never feed back
  into the counters.  An eviction's ``cur`` is ``min(15, LLC hits on its
  entry since the entry's last fill or evict)``, which one stable sort of
  the merged miss/event timeline by entry yields for every eviction at
  once.  ``expected`` then only needs materialising at sweep boundaries:
  within an epoch a miss reads either the value at the epoch start or the
  ``cur`` of the latest eviction on its entry in the same epoch.

Each of these kernels is a **plan** plus a cheap **per-cell run**.  The
plan holds everything derived from the stream alone, which no cadence
changes: the hashed miss and event entries (presence), the trained level
table (LevelPred), and the timeline sort's per-eviction ``cur``,
last/next-eviction links and final ``cur`` (EHC).  The run is the epoch
loop for one cadence plus writing the predictor's end state.  A plan is
built at most once per (stream, table geometry) and kept in a per-stream
memo with weak keys, so every cadence and every scheme that replays one
stream shares it and it lives exactly as long as the stream.  A plan's
key names every predictor parameter it reads; a plan that reads
predictor state (the level table, EHC's ``cur`` and mirror) is stored only
when that state is the constructor's all-zero one, and is otherwise built
for the one call.  Plan arrays are read-only; the run copies from them.

The counting-Bloom-filter competitor needs no schedule at all:

* **CBF** (:func:`replay_cbf_vectorized`) — it never recalibrates and its
  lookups never touch the filter.  Each counter is a +1/-1 walk over the
  events on its entry that disables itself at the first overflow or
  underflow, so one stable sort of the events by entry turns every walk
  into a running sum, and one ``searchsorted`` on ``(entry, when)`` finds
  the state each miss reads.

Every kernel, like its scalar oracle, reads the stream's L1 misses (an
:class:`~repro.hierarchy.events.OutcomeStream` is the L1-miss record)
and returns one answer per miss, in access order; L1 hits never reach a
predictor.  Each kernel mutates its predictor to the exact end-of-run
state the scalar loop would leave (tables, mirror or filter counts, telemetry
counters, sweep/stall totals), so ``predictor.stats()`` and every derived
:class:`SchemeResult` field are bit-identical.  Predictors whose
per-event updates do not decompose this way — MissMap (page-granular
capacity evictions), gated wrappers (window state), the adaptive
(churn-triggered) engine — stay on the scalar path; :func:`eligible` is
the gate.

``REPRO_NO_VECTOR_REPLAY=1`` forces the scalar path everywhere, and
checked mode runs both paths and asserts equivalence (see
:func:`repro.sim.evaluate.evaluate_scheme`).
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.recalibration import RecalibrationEngine
from repro.core.redhip import ReDHiPController
from repro.hierarchy.events import EVENT_FILL, OutcomeStream, _frozen
from repro.predictors.bloom import CountingBloomFilter
from repro.predictors.cbf_scheme import CBFPredictor
from repro.predictors.ehc import EHC_MAX, EHCController
from repro.predictors.hashes import bits_hash_array, xor_hash_array
from repro.predictors.levelpred import CONF_CONFIDENT, CONF_MAX, LevelPredController
from repro.sim.charging import recal_stall_cycles
from repro.util.validation import ConfigError

__all__ = ["NO_VECTOR_ENV", "eligible", "replay_cbf_vectorized",
           "replay_ehc_vectorized", "replay_levelpred_vectorized",
           "replay_redhip_vectorized", "use_vector", "vector_replay_disabled"]

#: Escape hatch: force the sequential replay path everywhere.
NO_VECTOR_ENV = "REPRO_NO_VECTOR_REPLAY"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Sentinel "no fill yet" event time (later than any access index).
_NEVER = np.iinfo(np.int64).max

#: A level-table wavefront round narrower than this many misses costs
#: more in NumPy call overhead than the scalar state machine spends on
#: it; the kernel finishes the remaining misses in the scalar tail.
_WAVE_MIN = 48

#: Replay plans per stream, ``{stream: {key: plan}}``.  The weak keys tie
#: every plan's lifetime to its stream's.
_PLANS: "weakref.WeakKeyDictionary[OutcomeStream, dict]" = weakref.WeakKeyDictionary()


def vector_replay_disabled() -> bool:
    """Has the environment vetoed the vectorized path?"""
    return os.environ.get(NO_VECTOR_ENV, "").strip().lower() in _TRUTHY


def eligible(predictor) -> bool:
    """Can ``predictor`` be replayed by one of the batched kernels?

    Exactly the plain ReDHiP, LevelPred and EHC controllers with the
    fixed-period engine, and the plain CBF predictor over its own
    counting filter: subclasses and wrappers (gating, checked-mode
    delegation, the adaptive churn-triggered engine) may observe
    per-event state and must replay sequentially.  ``type(...) is`` — not
    ``isinstance`` — on purpose.
    """
    kind = type(predictor)
    if kind is CBFPredictor:
        return (type(predictor.filter) is CountingBloomFilter
                and predictor.filter.hash_kind in ("bits", "xor"))
    if kind is ReDHiPController:
        if predictor.hash_kind not in ("bits", "xor"):
            return False
    elif kind is not LevelPredController and kind is not EHCController:
        return False
    return type(predictor.engine) is RecalibrationEngine


def use_vector(predictor) -> bool:
    """Will the evaluator replay ``predictor`` with a batched kernel?"""
    return eligible(predictor) and not vector_replay_disabled()


def _require(predictor, kind: type) -> None:
    if type(predictor) is not kind or not eligible(predictor):
        raise ConfigError(
            f"predictor {predictor.name!r} is not epoch-batchable "
            f"as {kind.__name__}; use the sequential replay"
        )


def _index_array(hash_kind: str, p: int, blocks: np.ndarray) -> np.ndarray:
    """Vectorized counterpart of a ``p``-bit ``hash_kind`` table index."""
    if hash_kind == "bits":
        idx = bits_hash_array(blocks, p)
    else:
        idx = xor_hash_array(blocks, p)
    return idx.astype(np.intp)


# ---------------------------------------------------------------- plans
def _plan(stream: OutcomeStream, key: tuple, build, pristine: bool = True):
    """The plan ``build()`` derives from ``stream``, built at most once
    per ``(stream, key)``.

    ``key`` starts with the plan kind and names every predictor parameter
    ``build`` reads.  A plan that also reads predictor state is shared
    only if that state is the constructor's (``pristine``); otherwise it
    is built for this call and not stored.
    """
    plans = _PLANS.setdefault(stream, {}) if pristine else {}
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = build()
        telemetry.count("replay.plans_built", kind=key[0])
    else:
        telemetry.count("replay.plans_reused", kind=key[0])
    return plan


@dataclass(frozen=True, eq=False)
class _Events:
    """A stream's LLC events split by kind, each in time order.  Events
    ``lo:hi`` are fills ``fill_cut[lo]:fill_cut[hi]`` and evictions
    ``lo - fill_cut[lo]:hi - fill_cut[hi]``."""

    fill_entry: np.ndarray      # intp[fills]   table entry of each fill
    fill_when: np.ndarray       # int64[fills]  access index of each fill
    evict_entry: np.ndarray     # intp[evicts]
    fill_cut: np.ndarray        # int64[m + 1]  fills among the first k events

    @classmethod
    def split(cls, stream: OutcomeStream, entry: np.ndarray) -> "_Events":
        is_fill = stream.llc_op == EVENT_FILL
        return cls(fill_entry=_frozen(entry[is_fill]),
                   fill_when=_frozen(stream.llc_when[is_fill]),
                   evict_entry=_frozen(entry[~is_fill]),
                   fill_cut=_frozen(np.r_[0, np.cumsum(is_fill)]))

    @property
    def fills(self) -> int:
        return len(self.fill_entry)


def _epochs(engine: RecalibrationEngine, miss_at: np.ndarray,
            when: np.ndarray, events: _Events) -> tuple[list, int]:
    """The sweep schedule as ``([(pos, pos_end, fills, evicts, sweep)], sweeps)``.

    Epoch ``k`` covers misses ``pos:pos_end`` and the events the scalar
    loop applies before the epoch's last lookup, as the slices ``fills``
    and ``evicts`` of ``events``; events at or after that lookup land
    post-sweep, in the next epoch.  ``sweep`` says whether the engine
    fires after the epoch's last miss.
    """
    n_miss = len(miss_at)
    if not n_miss:
        return [], 0
    period = engine.period
    if period is None:
        ends = np.array([n_miss])
    else:
        ends = np.arange(period - engine.l1_misses % period, n_miss + 1, period)
    sweeps = len(ends) if period is not None else 0
    if not len(ends) or ends[-1] != n_miss:
        ends = np.append(ends, n_miss)
    ev_his = np.searchsorted(when, miss_at[ends - 1], side="left")
    fill_his = events.fill_cut[ev_his]
    epochs = []
    pos = fill_lo = evict_lo = 0
    for k, (pos_end, fill_hi, evict_hi) in enumerate(zip(
            ends.tolist(), fill_his.tolist(), (ev_his - fill_his).tolist())):
        epochs.append((pos, pos_end, slice(fill_lo, fill_hi),
                       slice(evict_lo, evict_hi), k < sweeps))
        pos, fill_lo, evict_lo = pos_end, fill_hi, evict_hi
    return epochs, sweeps


def _tail(epochs: list, events: _Events) -> tuple[slice, slice]:
    """The fills and evictions after the last epoch's lookups."""
    fills, evicts = (epochs[-1][2].stop, epochs[-1][3].stop) if epochs else (0, 0)
    return (slice(fills, events.fills),
            slice(evicts, len(events.evict_entry)))


def _finish_engine(engine: RecalibrationEngine, n_miss: int, epochs: int,
                   sweeps: int) -> float:
    """Advance the engine as ``n_miss`` calls of ``note_l1_miss`` would
    (a ``None`` period never counts) and return the stall cycles."""
    if engine.period is not None:
        engine.l1_misses += n_miss
    engine.sweeps += sweeps
    telemetry.count("replay.epochs", epochs)
    telemetry.count("replay.sweeps", sweeps)
    return recal_stall_cycles(sweeps, engine.cost)


def _advance_mirror(counts: np.ndarray, fill_entry: np.ndarray,
                    evict_entry: np.ndarray) -> None:
    one = counts.dtype.type(1)                   # same dtype: ufunc.at fast path
    np.add.at(counts, fill_entry, one)
    np.subtract.at(counts, evict_entry, one)
    if len(evict_entry) and counts[evict_entry].min() < 0:
        raise ConfigError("LLC evicted a block the controller never saw filled")


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` below ``bound``;
    keys that fit 16 bits take NumPy's radix sort."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


# ------------------------------------------------------------- presence
@dataclass(frozen=True, eq=False)
class _PresencePlan:
    """The hashed entries a presence bitmap replay reads."""

    miss_entry: np.ndarray      # intp[k]
    events: _Events


def _presence_plan(stream: OutcomeStream, hash_kind: str, p: int) -> _PresencePlan:
    def build() -> _PresencePlan:
        entries = _index_array(hash_kind, p,
                               np.concatenate([stream.block, stream.llc_block]))
        n_miss = stream.num_misses
        return _PresencePlan(miss_entry=_frozen(entries[:n_miss]),
                             events=_Events.split(stream, entries[n_miss:]))
    return _plan(stream, ("presence", hash_kind, p), build)


def _replay_presence(stream: OutcomeStream, predictor) -> tuple[np.ndarray, float]:
    """The ReDHiP epoch loop over a controller's presence bitmap.

    Returns the per-miss presence answers and the stall cycles, and
    leaves ``table``, ``mirror``, ``engine`` and the ``lookups`` /
    ``predicted_miss`` / ``table_updates`` (one per fill) counters where
    the scalar loop would.
    """
    plan = _presence_plan(stream, predictor.hash_kind, predictor.table.p)
    events = plan.events
    miss_at = stream.at
    n_miss = len(miss_at)

    bits = predictor.table._bits
    counts = predictor.mirror._counts
    epochs, sweeps = _epochs(predictor.engine, miss_at, stream.llc_when, events)
    out = np.empty(n_miss, dtype=bool)
    first_fill = None                            # lazily allocated
    for pos, pos_end, fills, evicts, sweep in epochs:
        fill_entry = events.fill_entry[fills]
        entries = plan.miss_entry[pos:pos_end]
        if len(fill_entry):
            if first_fill is None:
                first_fill = np.full(predictor.table.num_bits, _NEVER,
                                     dtype=np.int64)
            np.minimum.at(first_fill, fill_entry, events.fill_when[fills])
            out[pos:pos_end] = bits[entries] | (first_fill[entries] < miss_at[pos:pos_end])
            first_fill[fill_entry] = _NEVER      # reset only touched slots
        else:
            out[pos:pos_end] = bits[entries]
        _advance_mirror(counts, fill_entry, events.evict_entry[evicts])
        if sweep:
            np.greater(counts, 0, out=bits)
        else:
            bits[fill_entry] = True

    # Drain the event tail so telemetry covers the full run (matches the
    # sequential loop's trailing drain).
    fills, evicts = _tail(epochs, events)
    fill_entry = events.fill_entry[fills]
    _advance_mirror(counts, fill_entry, events.evict_entry[evicts])
    bits[fill_entry] = True

    predictor.lookups += n_miss
    predictor.predicted_miss += int(n_miss - np.count_nonzero(out))
    predictor.table_updates += events.fills
    return out, _finish_engine(predictor.engine, n_miss, len(epochs), sweeps)


def replay_redhip_vectorized(
    stream: OutcomeStream, predictor: ReDHiPController
) -> tuple[np.ndarray, np.ndarray, float]:
    """Epoch-batched equivalent of :func:`repro.sim.evaluate.replay_predictor`.

    Same contract: returns ``(predicted, consulted, stall)`` per L1 miss
    (``stream`` order), and leaves ``predictor`` in the
    end-of-run state (final table bits, mirror counts, lookup/sweep
    telemetry) the sequential replay would produce.  Event ordering
    matches hardware: events caused by access *i* are applied after
    access *i*'s lookup.
    """
    _require(predictor, ReDHiPController)
    predicted, stall = _replay_presence(stream, predictor)
    return predicted, np.ones(len(predicted), dtype=bool), stall  # always consults


# ------------------------------------------------------------ LevelPred
@dataclass(frozen=True, eq=False)
class _LevelPlan:
    """The level table trained over every miss, and what each miss read.

    Per miss: whether its slot held its tag at confidence >=
    ``CONF_CONFIDENT`` just before its own train (``matched``), that
    slot's level at the time (``pre_level``), whether that is a scored
    single-level guess (``scored``: matched at a level >= 2) and a right
    one (``correct``).  ``updates`` counts modifying trains; ``tags``,
    ``levels`` and ``conf`` are the final table.
    """

    matched: np.ndarray         # bool[k]
    pre_level: np.ndarray       # uint8[k]
    scored: np.ndarray          # bool[k]
    correct: np.ndarray         # bool[k]
    updates: int
    tags: np.ndarray
    levels: np.ndarray
    conf: np.ndarray


def _level_plan(stream: OutcomeStream, predictor: LevelPredController) -> _LevelPlan:
    tables = (predictor.tags, predictor.levels, predictor.conf)

    def build() -> _LevelPlan:
        full = (stream.pc >> np.uint64(2)) ^ stream.block
        slot = (full & np.uint64(predictor._level_mask)).astype(np.intp)
        tag = ((full >> np.uint64(predictor._level_bits)) & np.uint64(0xFF)).astype(np.uint8)
        hit = stream.hit_level.astype(np.uint8)
        tags, levels, conf = trained = tuple(table.copy() for table in tables)
        matched, pre_level, updates = _train_level_table(trained, slot, tag, hit)
        scored = matched & (pre_level >= 2)
        return _LevelPlan(
            matched=_frozen(matched), pre_level=_frozen(pre_level),
            scored=_frozen(scored), correct=_frozen(scored & (hit == pre_level)),
            updates=updates, tags=_frozen(tags), levels=_frozen(levels),
            conf=_frozen(conf))
    return _plan(stream, ("levelpred", predictor._level_bits), build,
                 pristine=not any(table.any() for table in tables))


def _train_level_table(table: tuple, slot: np.ndarray, tag: np.ndarray,
                       hit: np.ndarray) -> tuple:
    """Replay every miss's ``train`` against ``table`` (the ``tags``,
    ``levels`` and ``conf`` arrays), leaving it in its final state.

    Returns ``(matched, pre_level, updates)`` as :class:`_LevelPlan`
    describes them.
    """
    n = len(slot)
    matched = np.zeros(n, dtype=bool)
    pre_level = np.zeros(n, dtype=np.uint8)
    if not n:
        return matched, pre_level, 0
    tags, levels, conf = table

    # Group the misses by slot (time order within a slot), rank each one
    # within its slot, and lay them out round-major: round r holds every
    # slot's r-th miss, so no slot repeats inside a round.
    order = _stable_argsort(slot, len(tags))
    grouped = slot[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    widths = np.bincount(rank).tolist()
    by_round = order[_stable_argsort(rank, len(widths))]

    updates = 0
    lo = 0
    for width in widths:
        if width < _WAVE_MIN:
            break
        idx = by_round[lo:lo + width]
        lo += width
        s, t, h = slot[idx], tag[idx], hit[idx]
        T, L, C = tags[s], levels[s], conf[s]
        match = T == t
        matched[idx] = match & (C >= CONF_CONFIDENT)
        pre_level[idx] = L
        deep = h >= 2
        reinforce = deep & match & (L == h)
        retrain = deep & ~reinforce
        replace = retrain & (~match | (C <= 1))
        decay = (~deep & match) | (retrain & ~replace)
        updates += int(np.count_nonzero(retrain)
                       + np.count_nonzero(reinforce & (C < CONF_MAX))
                       + np.count_nonzero(~deep & match & (C > 0)))
        dec = np.where(C > 0, C - 1, 0)
        conf[s] = np.where(reinforce, np.minimum(C + 1, CONF_MAX),
                           np.where(decay, dec, np.where(replace, 1, C)))
        levels[s] = np.where(replace, h, L)
        tags[s] = np.where(replace, t, T)
    if lo < n:
        updates += _train_tail(table, slot, tag, hit, by_round[lo:],
                               matched, pre_level)
    return matched, pre_level, updates


def _train_tail(table: tuple, slot, tag, hit, tail, matched, pre_level) -> int:
    """Scalar ``train`` over ``tail`` (per-slot time order preserved),
    on plain-int copies of just the slots of ``table`` it touches."""
    tail_slots = slot[tail].tolist()
    slots = list(dict.fromkeys(tail_slots))      # np.unique would import numpy.ma
    local = {s: k for k, s in enumerate(slots)}
    tags, levels, conf = (column[slots].tolist() for column in table)
    hits, pres = [], []
    updates = 0
    for s, t, h in zip(tail_slots, tag[tail].tolist(), hit[tail].tolist()):
        k = local[s]
        c = conf[k]
        hits.append(tags[k] == t and c >= CONF_CONFIDENT)
        pres.append(levels[k])
        if h >= 2:
            if tags[k] == t:
                if levels[k] == h:
                    if c < CONF_MAX:
                        conf[k] = c + 1
                        updates += 1
                    continue
                if c > 1:
                    conf[k] = c - 1
                    updates += 1
                    continue
            tags[k], levels[k], conf[k] = t, h, 1
            updates += 1
        elif tags[k] == t and c > 0:
            conf[k] = c - 1
            updates += 1
    matched[tail] = hits
    pre_level[tail] = pres
    for column, values in zip(table, (tags, levels, conf)):
        column[slots] = values
    return updates


def replay_levelpred_vectorized(
    stream: OutcomeStream, predictor: LevelPredController
) -> tuple[np.ndarray, np.ndarray, float]:
    """Batched equivalent of :func:`repro.sim.evaluate.replay_level_predictor`.

    Same contract: the returned ``(pred_level, confident, stall)`` are
    per L1 miss, and ``predictor`` — presence bitmap, mirror,
    engine, level table, ``_last`` and every telemetry counter — ends in
    the state the scalar loop would leave.
    """
    _require(predictor, LevelPredController)
    present, stall = _replay_presence(stream, predictor)
    plan = _level_plan(stream, predictor)

    single = present & plan.matched
    level = np.where(single, plan.pre_level, 0).astype(np.int64)
    confident = ~present | plan.matched
    correct = int(np.count_nonzero(present & plan.correct))
    predictor.confident_singles += int(np.count_nonzero(single))
    predictor.correct_singles += correct
    predictor.mispredicts += int(np.count_nonzero(present & plan.scored)) - correct
    predictor.table_updates += plan.updates
    np.copyto(predictor.tags, plan.tags)
    np.copyto(predictor.levels, plan.levels)
    np.copyto(predictor.conf, plan.conf)
    if stream.num_misses:
        predictor._last = (int(level[-1]), bool(confident[-1]))
    return level, confident, stall


# ------------------------------------------------------------------ EHC
@dataclass(frozen=True, eq=False)
class _EHCPlan:
    """Everything an EHC replay reads that no sweep changes.

    Evictions are numbered in time order.  ``evict_cur`` is ``cur`` at
    each eviction (what it writes to ``expected``), ``evict_next`` the
    next eviction on the same entry (the eviction count: none) and
    ``miss_last`` each miss's latest earlier eviction on its entry (-1:
    none).  ``cur`` is the final ``cur`` table.
    """

    miss_entry: np.ndarray      # intp[k]
    miss_last: np.ndarray       # intp[k]
    events: _Events
    evict_cur: np.ndarray       # uint8[evicts]
    evict_next: np.ndarray      # intp[evicts]
    cur: np.ndarray             # uint8[entries]
    observed: int               # LLC hits the misses observe


def _saturate(base: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """``cur`` after ``hits`` saturating increments from ``base``."""
    return np.where(base >= EHC_MAX, base, np.minimum(base + hits, EHC_MAX))


def _ehc_plan(stream: OutcomeStream, predictor: EHCController) -> _EHCPlan:
    cur0, counts0 = predictor.cur, predictor.mirror._counts

    def build() -> _EHCPlan:
        n_miss = stream.num_misses
        mask = np.uint64(predictor._mask)
        miss_entry = (stream.block & mask).astype(np.intp)
        observe = stream.hit_level == stream.num_levels
        when = stream.llc_when
        ev_fill = stream.llc_op == EVENT_FILL
        ev_entry = (stream.llc_block & mask).astype(np.intp)
        m = len(when)

        # One timeline of misses (items 0..n_miss-1) and events (n_miss..):
        # event e precedes miss i iff when[e] < miss_at[i].  Sorted stably
        # by entry, each entry's items form a run in timeline order.
        total = n_miss + m
        position = np.empty(total, dtype=np.intp)
        position[:n_miss] = np.arange(n_miss) + np.searchsorted(when, stream.at, side="left")
        position[n_miss:] = np.arange(m) + np.searchsorted(stream.at, when, side="right")
        timeline = np.empty(total, dtype=np.intp)
        timeline[position] = np.arange(total)
        entry = np.concatenate([miss_entry, ev_entry])
        item = timeline[_stable_argsort(entry[timeline], predictor.num_entries)]

        # Per sorted item: its kind, its entry, and where its entry's run
        # starts.
        where_at = np.arange(total)
        no_miss, no_event = np.zeros(n_miss, dtype=bool), np.zeros(m, dtype=bool)
        is_miss = item < n_miss
        is_fill = np.concatenate([no_miss, ev_fill])[item]
        is_evict = ~is_miss & ~is_fill
        is_obs = np.concatenate([observe, no_event])[item]
        run_entry = entry[item]
        group = np.ones(total, dtype=bool)
        np.not_equal(run_entry[1:], run_entry[:-1], out=group[1:])
        group_start = np.maximum.accumulate(np.where(group, where_at, 0))
        # Each eviction item's number among the evictions in time order.
        evict_no = np.full(total, -1, dtype=np.intp)
        evict_no[is_evict] = (np.cumsum(~ev_fill) - 1)[item[is_evict] - n_miss]

        # Mirror occupancy after every item: an eviction may never find its
        # entry empty (the scalar TagMirror.evict check, exact per event).
        step = is_fill.astype(np.int64) - is_evict
        running = np.cumsum(step)
        occupancy = counts0[run_entry] + running - (running - step)[group_start]
        if np.any(occupancy[is_evict] < 0):
            raise ConfigError("tag mirror underflow: eviction of a block never filled")

        # cur at each eviction: hits since the entry's last fill or evict.
        reset = is_fill | is_evict
        seg_start = np.maximum.accumulate(np.where(
            group | np.r_[False, reset[:-1]], where_at, 0))
        hits_before = np.cumsum(is_obs) - is_obs
        base = np.where(group[seg_start], cur0[run_entry], 0)
        cur_here = _saturate(base, hits_before - hits_before[seg_start])
        n_evict = m - int(np.count_nonzero(ev_fill))
        evict_cur = np.zeros(n_evict, dtype=np.uint8)
        evict_cur[evict_no[is_evict]] = cur_here[is_evict]

        # Per miss: latest eviction on its entry before it (-1: none).
        last_evict = np.maximum.accumulate(np.where(is_evict, where_at, -1))
        has_evict = last_evict >= group_start
        miss_last = np.full(n_miss, -1, dtype=np.intp)
        miss_last[item[is_miss]] = np.where(has_evict, evict_no[last_evict], -1)[is_miss]
        # Per eviction: the next eviction on its entry, so a batch of
        # events can tell which eviction writes `expected` last.
        ev_items = np.flatnonzero(is_evict)
        nxt = np.full(n_evict, n_evict, dtype=np.intp)
        same = run_entry[ev_items[1:]] == run_entry[ev_items[:-1]]
        nxt[:-1][same] = evict_no[ev_items[1:]][same]
        evict_next = np.empty(n_evict, dtype=np.intp)
        evict_next[evict_no[ev_items]] = nxt

        # Final cur: hits in each entry's last segment, 0 right after a
        # reset.
        cur = cur0.copy()
        if total:
            ends = np.r_[np.flatnonzero(group)[1:] - 1, total - 1]
            cur[run_entry[ends]] = np.where(
                reset[ends], 0,
                _saturate(base[ends], hits_before[ends] + is_obs[ends]
                          - hits_before[seg_start[ends]]))
        return _EHCPlan(
            miss_entry=_frozen(miss_entry), miss_last=_frozen(miss_last),
            events=_Events.split(stream, ev_entry),
            evict_cur=_frozen(evict_cur), evict_next=_frozen(evict_next),
            cur=_frozen(cur), observed=int(np.count_nonzero(observe)))
    return _plan(stream, ("ehc", predictor._mask), build,
                 pristine=not (cur0.any() or counts0.any()))


def replay_ehc_vectorized(
    stream: OutcomeStream, predictor: EHCController
) -> tuple[np.ndarray, float]:
    """Batched equivalent of :func:`repro.sim.evaluate.replay_ehc`.

    Same contract: returns ``(dead, stall)`` per L1 miss and leaves
    ``expected``/``cur``, the mirror, the engine and the telemetry
    counters in the state the scalar loop would.
    """
    _require(predictor, EHCController)
    plan = _ehc_plan(stream, predictor)
    events = plan.events
    n_miss = stream.num_misses
    expected = predictor.expected
    counts = predictor.mirror._counts

    def apply_events(fills: slice, evicts: slice) -> None:
        evict_entry = events.evict_entry[evicts]
        _advance_mirror(counts, events.fill_entry[fills], evict_entry)
        last_write = plan.evict_next[evicts] >= evicts.stop
        expected[evict_entry[last_write]] = plan.evict_cur[evicts][last_write]

    epochs, sweeps = _epochs(predictor.engine, stream.at, stream.llc_when, events)
    dead = np.empty(n_miss, dtype=bool)
    for pos, pos_end, fills, evicts, sweep in epochs:
        values = expected[plan.miss_entry[pos:pos_end]]
        last = plan.miss_last[pos:pos_end]
        fresh = last >= evicts.start
        if fresh.any():
            values = np.where(fresh, plan.evict_cur[last], values)
        dead[pos:pos_end] = values == 0
        apply_events(fills, evicts)
        if sweep:
            np.maximum(expected, 1, out=expected)
            expected[counts == 0] = 0
    apply_events(*_tail(epochs, events))
    np.copyto(predictor.cur, plan.cur)

    predictor.lookups += n_miss
    predictor.predicted_dead += int(np.count_nonzero(dead))
    predictor.llc_hits_observed += plan.observed
    predictor.table_updates += len(stream.llc_when)
    return dead, _finish_engine(predictor.engine, n_miss, len(epochs), sweeps)


# ------------------------------------------------------------------ CBF
def replay_cbf_vectorized(
    stream: OutcomeStream, predictor: CBFPredictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Batched equivalent of :func:`repro.sim.evaluate.replay_predictor`
    for the counting-Bloom-filter predictor.

    CBF never recalibrates and its lookups never feed back into the
    filter, so each counter is an independent +1/-1 walk over the events
    on its entry.  One stable sort of the events by entry gives every
    walk as a running sum; the first value outside ``0..max_count`` is the
    overflow or underflow that disables the entry, after which the counter
    keeps its pre-violation value.  A miss reads the state its entry had
    after the last event strictly before it, found for all misses at once
    with one ``searchsorted`` on ``(entry, when)``.  Returns
    ``(predicted, consulted, stall)`` per L1 miss and leaves the filter counts,
    disabled flags and every telemetry counter where the scalar loop
    would.
    """
    _require(predictor, CBFPredictor)
    cbf = predictor.filter
    miss_at = stream.at
    n_miss = len(miss_at)
    when = stream.llc_when
    m = len(when)
    counters, disabled = cbf._counts, cbf._disabled
    entries = _index_array(cbf.hash_kind, cbf.p,
                           np.concatenate([stream.block, stream.llc_block]))
    miss_entry, ev_entry = entries[:n_miss], entries[n_miss:]

    # Events grouped by entry; the stable sort keeps time order within one.
    order = _stable_argsort(ev_entry, cbf.num_entries)
    entry = ev_entry[order]
    ev_fill = stream.llc_op[order] == EVENT_FILL
    step = np.where(ev_fill, 1, -1)
    group = np.ones(m, dtype=bool)
    np.not_equal(entry[1:], entry[:-1], out=group[1:])
    starts = np.flatnonzero(group)
    group_of = np.cumsum(group) - 1
    group_start = starts[group_of]
    was_disabled = disabled[entry]

    # Each counter's walk as if it never saturated, from its initial count.
    running = np.cumsum(step)
    offset = (running - step)[starts] - counters[entry[starts]]
    value = running - offset[group_of]
    bad = (value < 0) | (value > cbf.max_count)
    bad &= ~was_disabled
    # Disabled after event k: the entry's first violation is at or before k.
    last_bad = np.maximum.accumulate(np.where(bad, np.arange(m), -1))
    dead = last_bad >= group_start
    dead |= was_disabled
    present_after = dead | (value > 0)

    # Per miss: its entry's last event strictly earlier in time (-1: none).
    stride = max(stream.num_accesses, int(when.max(initial=0)) + 1)
    ev_key = entry.astype(np.int64) * stride + when[order]
    prev = np.searchsorted(ev_key, miss_entry.astype(np.int64) * stride + miss_at) - 1
    seen = prev >= 0
    seen[seen] = entry[prev[seen]] == miss_entry[seen]
    out = disabled[miss_entry] | (counters[miss_entry] > 0)
    out[seen] = present_after[prev[seen]]

    # Final filter state: the pre-violation count on disabled entries.
    first_bad = bad.copy()
    first_bad[1:] &= last_bad[:-1] < group_start[1:]
    first_bad = np.flatnonzero(first_bad)
    ends = np.empty_like(starts)                  # each entry's last event
    ends[:-1] = starts[1:] - 1
    ends[-1:] = m - 1
    final = value[ends]
    final[group_of[first_bad]] = value[first_bad] - step[first_bad]
    live = ~was_disabled[starts]
    counters[entry[starts][live]] = final[live]
    disabled[entry[first_bad]] = True

    fills = int(np.count_nonzero(ev_fill))
    cbf.inserts += fills
    cbf.deletes += m - fills
    cbf.saturations += len(first_bad)
    predictor.table_updates += m
    predictor.lookups += n_miss
    predictor.predicted_miss += int(n_miss - np.count_nonzero(out))
    return out, np.ones(n_miss, dtype=bool), 0.0  # CBF always consults
