"""Vectorized predictor replay: the per-L1-miss loops in closed form.

The scalar replays in :mod:`repro.sim.evaluate` walk the LLC event stream
against a predictor one L1 miss at a time.  For the recalibrating
predictors that loop has a closed form: fills only set bits (evictions
touch only the tag mirror), and sweeps fall at misses the stream alone
fixes — every ``period``-th miss, or for the adaptive engine the first
miss ``fill_budget`` LLC fills after the last sweep.  Sweep ``K`` fires
right after the lookup of the miss at access index ``s[K]``, so an event
lands after it iff its ``when >= s[K]``; ``s[0]``, just above ``-inf``,
stands for "no sweep yet".  Every kernel answers from one **timeline**
(:class:`_Timeline`): the misses and LLC events merged in the order the
scalar loop applies them and grouped by table entry, which gives each
miss its entry's latest earlier event and running fills minus evictions.

* **Presence** (ReDHiP, ReDHiP-NoOv, ReDHiP-xor, LevelPred's presence
  half).  Per miss, ``t`` is ``+inf`` if the entry's mirror count is
  positive just before the lookup, else the ``when`` of its latest
  earlier event (a stale initial bit: ``s[0]``), else ``-inf``.  The miss
  after ``K`` sweeps reads a set bit iff ``t >= s[K]``: a live block set
  it at the sweep, or an event since did (a fill sets the bit; an
  eviction means a block was live at the sweep).  The end-state bits are
  each entry's final ``t`` against the last sweep.
* **LevelPred** (:func:`replay_levelpred_vectorized`) — the level table
  evolves only from the (slot, tag, hit level) sequence of L1 misses, and
  slots are independent, so it replays as a *wavefront* over each slot's
  occurrence rank: round ``r`` updates every slot's ``r``-th miss in one
  vectorized step.  Rounds too sparse to amortize NumPy's per-call cost
  (a few hot slots) finish in a scalar tail.
* **EHC** (:func:`replay_ehc_vectorized`) — an eviction ``x`` writes its
  ``cur`` (``min(15, LLC hits since the entry's last fill or evict)``) to
  ``expected``; a later sweep writes 0 iff the mirror count is 0, i.e. it
  was 0 right after ``x`` and no fill came before the sweep.  So a miss
  is dead iff ``x_when >= s[K] ? cur_x == 0 : empty_after_x &
  (refill_when >= s[K])``, and the end-state ``expected`` follows from
  the same values per entry.
* **CBF** (:func:`replay_cbf_vectorized`) — never recalibrates, and its
  lookups never touch the filter: each counter is a +1/-1 walk over its
  entry's events that disables itself at the first overflow or
  underflow, and each miss reads its entry's walk at its own place on the
  timeline.

Every kernel is a **plan** plus a **per-cell run**.  The plan is what no
cadence changes: the timeline's per-miss and per-entry values (presence,
EHC), the trained level table (LevelPred) and, for CBF, which never
recalibrates, the whole answer.  The run places the sweeps, compares and
writes the predictor's end state: a fixed number of array operations,
however many sweeps the cadence makes.  Plans live in a per-stream memo
with weak keys, built at most once per (stream, table geometry) and
freed with the stream.  A plan's key names every predictor parameter it
reads; one that reads predictor state (the level table, EHC's ``cur``
and mirror, the CBF counters) is stored only when that state is the
constructor's all-zero one.  Plan arrays are read-only.  Every timeline
starts from one **event order** per stream (:class:`_Order`, the time
merge of misses and LLC events).

Every kernel returns one answer per L1 miss, in access order, and leaves
its predictor in the exact end-of-run state the scalar loop would
(tables, mirror or filter counts, engine, telemetry counters), so
``predictor.stats()`` and every :class:`SchemeResult` field are
bit-identical.  MissMap (page-granular capacity evictions) and gated
wrappers (window state) stay on the scalar path; :func:`eligible` is the
gate.  ``REPRO_NO_VECTOR_REPLAY=1`` forces the scalar path everywhere,
and checked mode runs both paths and asserts equivalence (see
:func:`repro.sim.evaluate.evaluate_scheme`).
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.recalibration import AdaptiveRecalibrationEngine, RecalibrationEngine
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

#: Sentinel times: before every event (``-inf``), the sweep threshold
#: before the first sweep (``s[0]``), and after every access (``+inf``).
_NEG = np.iinfo(np.int64).min
_START = _NEG + 1
_POS = np.iinfo(np.int64).max

#: A level-table wavefront round narrower than this many misses costs
#: more in NumPy call overhead than the scalar state machine spends on
#: it; the kernel finishes the remaining misses in the scalar tail.
_WAVE_MIN = 48

#: Replay plans per stream, ``{stream: {key: plan}}``, and each stream's
#: event order.  The weak keys tie every plan's lifetime to its stream's.
_PLANS: "weakref.WeakKeyDictionary[OutcomeStream, dict]" = weakref.WeakKeyDictionary()
_ORDERS: "weakref.WeakKeyDictionary[OutcomeStream, _Order]" = weakref.WeakKeyDictionary()


def vector_replay_disabled() -> bool:
    """Has the environment vetoed the vectorized path?"""
    return os.environ.get(NO_VECTOR_ENV, "").strip().lower() in _TRUTHY


def eligible(predictor) -> bool:
    """Can ``predictor`` be replayed by one of the batched kernels?

    Exactly the plain ReDHiP, LevelPred and EHC controllers with the
    fixed-period or the adaptive (fill-budget) engine, and the plain CBF
    predictor over its own counting filter: subclasses and wrappers
    (gating, checked-mode delegation) may observe per-event state and
    must replay sequentially.  ``type(...) is`` — not ``isinstance`` — on
    purpose.
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
    return type(predictor.engine) in (RecalibrationEngine, AdaptiveRecalibrationEngine)


def use_vector(predictor) -> bool:
    """Will the evaluator replay ``predictor`` with a batched kernel?"""
    return eligible(predictor) and not vector_replay_disabled()


def _require(predictor, kind: type) -> None:
    if type(predictor) is not kind or not eligible(predictor):
        raise ConfigError(
            f"predictor {predictor.name!r} is not batchable "
            f"as {kind.__name__}; use the sequential replay"
        )


def _index_array(hash_kind: str, p: int, blocks: np.ndarray) -> np.ndarray:
    """Vectorized counterpart of a ``p``-bit ``hash_kind`` table index."""
    if hash_kind == "bits":
        idx = bits_hash_array(blocks, p)
    else:
        idx = xor_hash_array(blocks, p)
    return idx.astype(np.intp)


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys`` below ``bound``;
    keys that fit 16 bits take NumPy's radix sort."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


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
class _Order:
    """A stream's L1 misses and LLC events merged in the order the scalar
    loop applies them: where every timeline starts, so it is computed
    once per stream (:func:`_order`).

    Items are numbered misses first (``0..n-1``), then events.
    ``merged`` lists the items in time order (an event at access ``i``
    lands after the lookup of the miss at ``i``), ``steps`` is each
    item's +1 (fill), -1 (eviction) or 0 (miss), ``fills`` counts the
    fills, and ``shift`` leaves room for an item number below every
    entry key.  Only these nine bytes per item stay memoized (the items'
    blocks and access indices are concatenated where a timeline needs
    them, :func:`_blocks`), so the memo adds little to a large stream's
    peak memory.
    """

    merged: np.ndarray          # intp[n + m]
    steps: np.ndarray           # int8[n + m]
    fills: int
    shift: int


def _order(stream: OutcomeStream) -> _Order:
    order = _ORDERS.get(stream)
    if order is None:
        at, when = stream.at, stream.llc_when
        # Event e precedes miss i iff when[e] < at[i].
        merged = np.argsort(np.concatenate([2 * at, 2 * when + 1]), kind="stable")
        steps = np.zeros(len(merged), dtype=np.int8)
        fill = stream.llc_op == EVENT_FILL
        steps[len(at):] = np.where(fill, 1, -1)
        order = _ORDERS[stream] = _Order(
            merged=_frozen(merged), steps=_frozen(steps),
            fills=int(np.count_nonzero(fill)), shift=len(merged).bit_length())
    return order


def _blocks(stream: OutcomeStream) -> np.ndarray:
    """The block of every :class:`_Order` item."""
    return np.concatenate([stream.block, stream.llc_block])


def _entries(stream: OutcomeStream, hash_kind: str, p: int) -> np.ndarray:
    """The ``p``-bit ``hash_kind`` table entry of every :class:`_Order` item."""
    return _index_array(hash_kind, p, _blocks(stream))


@dataclass(frozen=True, eq=False)
class _Timeline:
    """A stream's L1 misses and LLC events on one table, in the order the
    scalar loop applies them, then grouped by table entry.

    Items are numbered misses first (``0..n-1``), then events, and
    ``times`` holds their access indices.  Each entry's items form one
    run, in time order (an event at access ``i`` lands after the lookup
    of the miss at ``i``).  Per sorted position: the item, its place in
    time order, its entry, where its run starts, its ``step`` (+1 fill,
    -1 eviction, 0 miss) and ``net``, the sum of the steps of its run
    through it.  ``picks`` holds each miss's position, then the last
    position of each run.
    """

    times: np.ndarray           # int64[n + m]
    item: np.ndarray            # intp[n + m]
    place: np.ndarray           # intp[n + m]
    entry: np.ndarray           # intp[n + m]
    start: np.ndarray           # intp[n + m]
    step: np.ndarray            # int8[n + m]
    net: np.ndarray             # int64[n + m]
    picks: np.ndarray           # intp[n + entries touched]

    @classmethod
    def sort(cls, stream: OutcomeStream, entries: np.ndarray) -> "_Timeline":
        """``entries``: the table entry of every :class:`_Order` item."""
        order = _order(stream)
        n, shift, total = len(stream.at), order.shift, len(entries)
        # Sort the (entry, place in time order) keys once.
        places = np.arange(total)
        key = entries[order.merged] << shift
        key |= places
        key.sort()
        place = key & ((1 << shift) - 1)
        item = order.merged[place]
        entry = key >> shift
        change = np.ones(total, dtype=bool)
        np.not_equal(entry[1:], entry[:-1], out=change[1:])
        first = np.flatnonzero(change)
        length = np.diff(first, append=total)
        step = order.steps[item]
        running = np.cumsum(step)
        position = np.empty(total, dtype=np.intp)
        position[item] = places
        return cls(times=np.concatenate([stream.at, stream.llc_when]), item=item, place=place,
                   entry=entry, start=np.repeat(first, length), step=step,
                   net=running - np.repeat((running - step)[first], length),
                   picks=np.concatenate([position[:n], first + length - 1]))

    def latest(self, mask: np.ndarray) -> np.ndarray:
        """Per position, the latest position at or before it in its run
        where ``mask`` holds (-1: none)."""
        last = np.maximum.accumulate(np.where(mask, np.arange(len(mask)), -1))
        return np.where(last >= self.start, last, -1)

    def when_of(self, pos: np.ndarray, none: int) -> np.ndarray:
        """The access index at each position of ``pos`` (``none`` at -1)."""
        return np.where(pos >= 0, self.times[self.item[pos]], none)


@dataclass(frozen=True, eq=False)
class _Deficit:
    """Where the evictions so far outnumber the fills on an entry: the
    mirror must have held that many blocks there before the stream (the
    scalar ``TagMirror`` underflow check, exact per event)."""

    entry: np.ndarray           # intp
    net: np.ndarray             # int64, negative

    @classmethod
    def of(cls, tl: _Timeline) -> "_Deficit":
        short = tl.net < 0
        return cls(entry=_frozen(tl.entry[short]), net=_frozen(tl.net[short]))

    def check(self, mirror: np.ndarray) -> None:
        if np.any(mirror[self.entry] + self.net < 0):
            raise ConfigError("tag mirror underflow: eviction of a block never filled")


# ------------------------------------------------------------- schedule
def _schedule(engine: RecalibrationEngine,
              stream: OutcomeStream) -> tuple[np.ndarray, float]:
    """Place ``engine``'s sweeps over ``stream``'s misses.

    Returns ``(since, stall)``: per miss, and at the end of the stream
    (``since[n]``), the threshold ``s[K]`` of the last sweep before it —
    the access index of the miss after whose lookup the sweep fired, or
    ``s[0] = _START`` before any sweep — and the stall cycles.  Advances
    the engine as the scalar loop's ``note_fill`` and ``note_l1_miss``
    calls would.
    """
    at = stream.at
    n = len(at)
    if type(engine) is AdaptiveRecalibrationEngine:
        # The fills the engine has counted at each miss's lookup; it
        # sweeps at the first miss ``fill_budget`` fills past the last.
        fills = stream.llc_when[stream.llc_op == EVENT_FILL]
        seen = engine._fills_since_sweep + np.searchsorted(fills, at, side="left")
        fire, base = [], 0
        while (j := int(np.searchsorted(seen, base + engine.fill_budget))) < n:
            fire.append(j)
            base = int(seen[j])
        engine._fills_since_sweep += len(fills) - base
        engine.l1_misses += n
        swept = at[fire]
        skip, repeats = 0, np.diff(fire, prepend=-1, append=n)
    elif engine.period is None:                  # a None period never counts
        fire = range(0)
    else:
        # Every period-th miss sweeps; the first epoch is the rest of the
        # period the engine is in.
        period, skip = engine.period, engine.l1_misses % engine.period
        fire = range(period - skip - 1, n, period)
        swept, repeats = at[fire.start::period], period
        engine.l1_misses += n
    sweeps = len(fire)
    engine.sweeps += sweeps
    telemetry.count("replay.epochs",
                    sweeps + int(n > 0 and (not sweeps or fire[-1] != n - 1)))
    telemetry.count("replay.sweeps", sweeps)
    since = (np.repeat(np.concatenate([[_START], swept]), repeats)[skip:skip + n + 1]
             if sweeps else np.full(n + 1, _START))
    return since, recal_stall_cycles(sweeps, engine.cost)


# ------------------------------------------------------------- presence
@dataclass(frozen=True, eq=False)
class _PresencePlan:
    """Per miss and per touched entry (``run_*``, at the end of the
    stream): the entry's net fills minus evictions so far and ``t`` as an
    all-zero table and mirror would give it; and the mirror-underflow
    check."""

    miss_entry: np.ndarray      # intp[k]
    miss_net: np.ndarray        # int64[k]
    miss_t: np.ndarray          # int64[k]
    run_entry: np.ndarray       # intp[r]
    run_net: np.ndarray         # int32[r]
    run_t: np.ndarray           # int64[r]
    deficit: _Deficit
    fills: int


def _presence_plan(stream: OutcomeStream, hash_kind: str, p: int) -> _PresencePlan:
    def build() -> _PresencePlan:
        n = stream.num_misses
        entries = _entries(stream, hash_kind, p)
        tl = _Timeline.sort(stream, entries)
        q = tl.picks
        net = tl.net[q]
        t = np.where(net > 0, _POS, tl.when_of(tl.latest(tl.step != 0)[q], _NEG))
        return _PresencePlan(
            miss_entry=_frozen(entries[:n]), miss_net=_frozen(net[:n]),
            miss_t=_frozen(t[:n]), run_entry=_frozen(tl.entry[q[n:]]),
            run_net=_frozen(net[n:].astype(np.int32)), run_t=_frozen(t[n:]),
            deficit=_Deficit.of(tl), fills=_order(stream).fills)
    return _plan(stream, ("presence", hash_kind, p), build)


def _initial_t(count: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """What an earlier replay's state adds to ``t``: ``+inf`` while one of
    its blocks is live, a stale bit as an event at ``s[0]``."""
    return np.where(count > 0, _POS, np.where(bit, _START, _NEG))


def _replay_presence(stream: OutcomeStream, predictor) -> tuple[np.ndarray, float]:
    """Replay a controller's presence bitmap in closed form.

    Returns the per-miss presence answers and the stall cycles, and
    leaves ``table``, ``mirror``, ``engine`` and the ``lookups`` /
    ``predicted_miss`` / ``table_updates`` (one per fill) counters where
    the scalar loop would.
    """
    plan = _presence_plan(stream, predictor.hash_kind, predictor.table.p)
    bits = predictor.table._bits
    mirror = predictor.mirror._counts
    plan.deficit.check(mirror)
    since, stall = _schedule(predictor.engine, stream)
    used = bits.any() or mirror.any()
    t = plan.miss_t
    if used:
        entry = plan.miss_entry
        t = np.maximum(t, _initial_t(mirror[entry] + plan.miss_net, bits[entry]))
    out = t >= since[:-1]

    # End state: entries no event touched keep their count, so a sweep
    # leaves them `count > 0` and no sweep leaves them as they were.
    touched, t = plan.run_entry, plan.run_t
    if used:
        t = np.maximum(t, _initial_t(mirror[touched] + plan.run_net, bits[touched]))
    mirror[touched] += plan.run_net
    if since[-1] > _START:
        np.greater(mirror, 0, out=bits)
    bits[touched] = t >= since[-1]

    n_miss = len(out)
    predictor.lookups += n_miss
    predictor.predicted_miss += int(n_miss - np.count_nonzero(out))
    predictor.table_updates += plan.fills
    return out, stall


def replay_redhip_vectorized(
    stream: OutcomeStream, predictor: ReDHiPController
) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form equivalent of :func:`repro.sim.evaluate.replay_predictor`.

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
class _LastEviction:
    """Per miss, or per touched entry at the end of the stream: the
    latest eviction ``x`` on the entry before it.  ``when`` is its access
    index (``_START``: none, the initial ``expected`` stands in), ``cur``
    the ``cur`` it wrote to ``expected`` (0: none), ``empty`` whether the
    mirror count was 0 right after it (at the start, if none) and
    ``refill`` the access index of the entry's first fill after it
    (``_POS``: none)."""

    when: np.ndarray            # int64
    cur: np.ndarray             # uint8
    empty: np.ndarray           # bool
    refill: np.ndarray          # int64

    def split(self, n: int) -> tuple:
        """The first ``n`` rows and the rest, frozen."""
        parts = [{}, {}]
        for name, values in vars(self).items():
            parts[0][name], parts[1][name] = _frozen(values[:n]), _frozen(values[n:])
        return type(self)(**parts[0]), type(self)(**parts[1])

    def value(self, expected: np.ndarray, entry: np.ndarray) -> np.ndarray:
        """``expected`` as ``x`` left it; without an ``x``, the initial
        ``expected[entry]``."""
        if not expected.any():
            return self.cur
        return np.where(self.when == _START, expected[entry], self.cur)


@dataclass(frozen=True, eq=False)
class _EHCPlan:
    """Everything an EHC replay reads that no sweep changes: each miss's
    and each touched entry's last eviction, the touched entries' net
    fills minus evictions, the final ``cur`` table and the LLC hits the
    misses observe."""

    miss_entry: np.ndarray      # intp[k]
    miss: _LastEviction
    run_entry: np.ndarray       # intp[r]
    run_net: np.ndarray         # int32[r]
    end: _LastEviction
    run_refilled: np.ndarray    # intp[r]  misses up to each end refill
    cur: np.ndarray             # uint8[entries]
    observed: int


def _saturate(base: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """``cur`` after ``hits`` saturating increments from ``base``."""
    return np.where(base >= EHC_MAX, base, np.minimum(base + hits, EHC_MAX))


def _ehc_plan(stream: OutcomeStream, predictor: EHCController) -> _EHCPlan:
    cur0, counts0 = predictor.cur, predictor.mirror._counts

    def build() -> _EHCPlan:
        n = stream.num_misses
        entries = (_blocks(stream) & np.uint64(predictor._mask)).astype(np.intp)
        tl = _Timeline.sort(stream, entries)
        _Deficit.of(tl).check(counts0)
        total = len(tl.entry)
        q = tl.picks
        observe = stream.hit_level == stream.num_levels
        hits = np.zeros(total, dtype=np.int64)
        hits[q[:n]] = observe
        before = np.cumsum(hits) - hits          # LLC hits before each position
        reset = tl.latest(tl.step != 0)          # latest fill or eviction

        def cur(pos, last, seen):
            """``cur`` with ``seen`` hits counted since the start of the
            timeline, after the reset at ``last`` (-1: none, ``cur0``)."""
            first = last < 0
            return _saturate(np.where(first, cur0[tl.entry[pos]], 0),
                             seen - np.where(first, before[tl.start[pos]], before[last]))

        # The cur each eviction writes: hits since the reset before it.
        evict = np.flatnonzero(tl.step < 0)
        written = np.zeros(total, dtype=np.uint8)
        written[evict] = cur(evict, np.where(evict > tl.start[evict], reset[evict - 1], -1),
                             before[evict])

        # Per miss and run end: its latest eviction x, and the first fill
        # on its entry after x (after the run start if none).
        x = tl.latest(tl.step < 0)[q]
        has = x >= 0
        fill_at = np.where(tl.step > 0, np.arange(total), total - 1)
        refill = np.minimum.accumulate(fill_at[::-1])[::-1][np.where(has, x, tl.start[q])]
        entry = tl.entry[q]
        refill = np.where((tl.step[refill] > 0) & (tl.entry[refill] == entry), refill, -1)
        miss, end = _LastEviction(
            when=tl.when_of(x, _START), cur=np.where(has, written[x], 0),
            empty=counts0[entry] + np.where(has, tl.net[x], 0) == 0,
            refill=tl.when_of(refill, _POS)).split(n)
        # Misses up to each end refill: those before it in time order.
        refill = refill[n:]
        refilled = np.where(refill >= 0, tl.place[refill] - tl.item[refill] + n, n)

        # Final cur: hits after each entry's last reset.
        ends = q[n:]
        final = cur0.copy()
        final[tl.entry[ends]] = cur(ends, reset[ends], before[ends] + hits[ends])
        return _EHCPlan(
            miss_entry=_frozen(entries[:n]), miss=miss,
            run_entry=_frozen(tl.entry[ends]),
            run_net=_frozen(tl.net[ends].astype(np.int32)), end=end,
            run_refilled=_frozen(refilled),
            cur=_frozen(final), observed=int(np.count_nonzero(observe)))
    return _plan(stream, ("ehc", predictor._mask), build,
                 pristine=not (cur0.any() or counts0.any()))


def replay_ehc_vectorized(
    stream: OutcomeStream, predictor: EHCController
) -> tuple[np.ndarray, float]:
    """Closed-form equivalent of :func:`repro.sim.evaluate.replay_ehc`.

    Same contract: returns ``(dead, stall)`` per L1 miss and leaves
    ``expected``/``cur``, the mirror, the engine and the telemetry
    counters in the state the scalar loop would.
    """
    _require(predictor, EHCController)
    plan = _ehc_plan(stream, predictor)
    expected = predictor.expected
    mirror = predictor.mirror._counts
    since, stall = _schedule(predictor.engine, stream)

    # A sweep after x writes 0 iff the entry was still empty at it.
    x, swept, last = plan.miss, since[:-1], since[-1]
    dead = np.where(x.when >= swept, x.value(expected, plan.miss_entry) == 0,
                    x.empty & (x.refill >= swept))

    # End state.  After x, sweeps keep a nonzero value, raise 0 to 1 if
    # the entry is live and write 0 if it is empty; once filled it stays
    # live.  Entries no event touched see only sweeps.
    x, touched = plan.end, plan.run_entry
    value = x.value(expected, touched)
    mirror[touched] += plan.run_net
    if last > _START:
        np.maximum(expected, 1, out=expected)
        expected[mirror == 0] = 0
    # A sweep between x and the refill found the entry empty: 0, then 1.
    emptied = x.empty & (since[plan.run_refilled] > x.when)
    expected[touched] = np.where(x.when >= last, value,
                                 np.where(emptied, x.refill < last, np.maximum(value, 1)))
    np.copyto(predictor.cur, plan.cur)

    n_miss = len(dead)
    predictor.lookups += n_miss
    predictor.predicted_dead += int(np.count_nonzero(dead))
    predictor.llc_hits_observed += plan.observed
    predictor.table_updates += len(stream.llc_when)
    return dead, stall


# ------------------------------------------------------------------ CBF
@dataclass(frozen=True, eq=False)
class _CBFPlan:
    """A CBF replay's whole answer from one initial filter state: each
    miss's presence answer, the final count of every touched entry that
    started enabled, the entries the replay disables with the count each
    held at its first violation, and the fills."""

    present: np.ndarray         # bool[k]
    counted: np.ndarray         # intp
    counts: np.ndarray          # int64
    disabled: np.ndarray        # intp
    held: np.ndarray            # int64
    fills: int


def _cbf_plan(stream: OutcomeStream, predictor: CBFPredictor) -> _CBFPlan:
    cbf = predictor.filter
    counters, disabled = cbf._counts, cbf._disabled

    def build() -> _CBFPlan:
        n = stream.num_misses
        tl = _Timeline.sort(stream, _entries(stream, cbf.hash_kind, cbf.p))
        entry, step = tl.entry, tl.step
        # Each counter's walk as if it never saturated; disabled after an
        # item once its entry's first violation is at or before it.
        was_disabled = disabled[entry]
        value = counters[entry] + tl.net
        bad = (step != 0) & ((value < 0) | (value > cbf.max_count)) & ~was_disabled
        last_bad = tl.latest(bad)
        present = (was_disabled | (last_bad >= 0) | (value > 0))[tl.picks[:n]]
        first_bad = bad.copy()
        first_bad[1:] &= last_bad[:-1] < tl.start[1:]
        first_bad = np.flatnonzero(first_bad)
        # An entry that starts disabled keeps its count.
        ends = tl.picks[n:]
        ends = ends[~was_disabled[ends]]
        return _CBFPlan(
            present=_frozen(present), counted=_frozen(entry[ends]),
            counts=_frozen(value[ends]), disabled=_frozen(entry[first_bad]),
            held=_frozen(value[first_bad] - step[first_bad]), fills=_order(stream).fills)
    return _plan(stream, ("cbf", cbf.hash_kind, cbf.p, cbf.max_count), build,
                 pristine=not (counters.any() or disabled.any()))


def replay_cbf_vectorized(
    stream: OutcomeStream, predictor: CBFPredictor
) -> tuple[np.ndarray, np.ndarray, float]:
    """Batched equivalent of :func:`repro.sim.evaluate.replay_predictor`
    for the counting-Bloom-filter predictor.

    CBF never recalibrates and its lookups never feed back into the
    filter, so each counter is an independent +1/-1 walk over the events
    on its entry: the timeline's running sums, from the initial counts.
    The first value outside ``0..max_count`` is the overflow or underflow
    that disables the entry, after which the counter keeps its
    pre-violation value.  A miss reads its entry's state at its own place
    on the timeline.  The plan holds all of it; the run writes the end
    state.  Returns ``(predicted, consulted, stall)`` per L1 miss and
    leaves the filter counts, disabled flags and every telemetry counter
    where the scalar loop would.
    """
    _require(predictor, CBFPredictor)
    plan = _cbf_plan(stream, predictor)
    cbf = predictor.filter
    n_miss = stream.num_misses
    m = len(stream.llc_when)
    # Final filter state: the pre-violation count on disabled entries.
    cbf._counts[plan.counted] = plan.counts
    cbf._counts[plan.disabled] = plan.held
    cbf._disabled[plan.disabled] = True

    cbf.inserts += plan.fills
    cbf.deletes += m - plan.fills
    cbf.saturations += len(plan.disabled)
    predictor.table_updates += m
    predictor.lookups += n_miss
    predictor.predicted_miss += int(n_miss - np.count_nonzero(plan.present))
    return plan.present, np.ones(n_miss, dtype=bool), 0.0  # CBF always consults
