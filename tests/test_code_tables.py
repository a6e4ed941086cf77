"""Decision-code charging: each table is the scalar walk, code by code.

The two-phase evaluator charges a cell as one histogram of its misses'
decision codes against a :class:`~repro.sim.charging.CodeTable`.  These
tests pin that path to the scalar kernel API the integrated simulator
uses: per miss, ``charge_l1`` + ``charge_lookup`` + ``charge_probe`` over
its probe sequence must give the same latency (exactly) and the same
ledger counts (exactly, energies to 1e-12), on every registry machine,
every probe mode and every decision.  They also pin the memos: a result
never depends on which schemes ran before it in the process.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.core.redhip import redhip_scheme
from repro.energy.accounting import EnergyLedger
from repro.energy.params import MACHINES, get_machine
from repro.predictors.base import (
    base_scheme,
    oracle_scheme,
    phased_scheme,
    waypred_scheme,
)
from repro.predictors.ehc import ehc_scheme
from repro.predictors.levelpred import levelpred_scheme, oracle_levelpred_scheme
from repro.sim import charging
from repro.sim.charging import PROBE_PHASED, ChargingKernel, code_table
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.evaluate import evaluate_scheme, result_facts
from repro.sim.runner import ExperimentRunner
from repro.workloads import get_workload

#: References per core: enough misses at every level of every machine.
REFS = {"paper": 300, "scaled": 400, "tiny": 1500, "deep5": 300}

#: Scheme kind -> charging flow, as the evaluator dispatches.
FLOW = {"levelpred": "levelpred", "oracle_level": "levelpred", "ehc": "ehc"}


def lineup(levels: int) -> dict:
    """Every probe mode under every flow: the plan's parallel, phased and
    waypred levels, EHC's phased LLC override (over a parallel and a
    way-predicted LLC), gated lookups and a fractional lookup delay."""
    below_l1 = tuple(range(2, levels + 1))
    return {
        "base": base_scheme(),
        "phased": phased_scheme(below_l1),
        "waypred": waypred_scheme(below_l1),
        "oracle": oracle_scheme(),
        "redhip": redhip_scheme(),
        "redhip-frac": redhip_scheme(lookup_delay=2.5, name="ReDHiP-frac"),
        "redhip-waypred": dataclasses.replace(
            redhip_scheme(), way_predicted_levels=below_l1),
        "levelpred": levelpred_scheme(),
        "levelpred-phased": dataclasses.replace(
            levelpred_scheme(), phased_levels=below_l1),
        "oracle_level": oracle_levelpred_scheme(),
        "ehc": ehc_scheme(),
        "ehc-waypred": dataclasses.replace(
            ehc_scheme(), way_predicted_levels=below_l1),
    }


def random_outputs(flow: str, scheme, levels: int, n: int, rng) -> tuple:
    """Replay outputs covering every decision of ``flow`` (gated lookups
    included); schemes without a table have none."""
    if not scheme.consults_table:
        return ()
    if flow == "presence":
        return rng.random(n) < 0.6, rng.random(n) < 0.7
    if flow == "levelpred":
        return rng.integers(0, levels + 1, n), rng.random(n) < 0.6
    return (rng.random(n) < 0.5,)


def probe_sequence(flow: str, scheme, levels: int, h: int, outputs) -> tuple:
    """``(consulted, [(level, mode), ...])`` one miss walks, in charge
    order — the per-miss statement of each flow."""
    probes = []
    if flow == "presence":
        if scheme.consults_table:
            predicted, consulted = outputs
        else:
            predicted = h != 0 or not scheme.skips_on_predicted_miss
            consulted = False
        for level in range(2, levels + 1):
            if (h == 0 or h >= level) and (
                    predicted or not scheme.skips_on_predicted_miss):
                probes.append((level, None))
        return consulted, probes
    if flow == "levelpred":
        pred, confident = outputs if scheme.consults_table else (h, True)
        single = confident and pred >= 2
        walk = not confident or (single and h != pred)
        for level in range(2, levels + 1):
            if walk and (h == 0 or h >= level):
                probes.append((level, None))
            if single and pred == level:
                probes.append((level, None))
        return True, probes
    (dead,) = outputs
    for level in range(2, levels + 1):
        if h == 0 or h >= level:
            probes.append((level, PROBE_PHASED if level == levels and dead else None))
    return True, probes


def scalar_walk(kernel, flow, scheme, stream, outputs):
    """Per-miss latencies and the ledger of the scalar API, one call per
    L1 probe, lookup and level probe."""
    ledger = EnergyLedger()
    for _ in range(stream.num_accesses - stream.num_misses):
        kernel.charge_l1(ledger)
    lat = np.empty(stream.num_misses)
    for i, (h, rank) in enumerate(zip(stream.hit_level.tolist(),
                                      stream.hit_rank.tolist())):
        consulted, probes = probe_sequence(
            flow, scheme, kernel.num_levels, h, [out[i] for out in outputs])
        latency = kernel.charge_l1(ledger)
        if scheme.consults_table and consulted:
            latency += kernel.charge_lookup(ledger)
        for level, mode in probes:
            latency += kernel.charge_probe(ledger, level, h == level, rank, mode)
        lat[i] = latency
    return lat, ledger


@pytest.fixture(scope="module", params=sorted(MACHINES))
def machine_stream(request):
    """A walked stream whose misses are re-dealt to every serving level
    and LRU rank, so that every code of every machine occurs."""
    machine = get_machine(request.param)
    refs = REFS[request.param]
    cfg = SimConfig(machine=machine, refs_per_core=refs, seed=3)
    stream = ContentSimulator(cfg).run(get_workload("mcf", machine, refs, cfg.seed))
    rng = np.random.default_rng(len(request.param))
    levels = rng.choice([0, *range(2, machine.num_levels + 1)], stream.num_misses)
    ranks = np.where(levels == 0, -1, rng.integers(0, 3, stream.num_misses))
    return machine, dataclasses.replace(stream, hit_level=levels.astype(np.int8),
                                        hit_rank=ranks.astype(np.int8))


def test_every_registry_machine_is_covered():
    assert set(REFS) == set(MACHINES)


@pytest.mark.parametrize("key", sorted(lineup(4)))
def test_code_table_equals_scalar_walk(machine_stream, key):
    machine, stream = machine_stream
    levels = machine.num_levels
    scheme = lineup(levels)[key]
    flow = FLOW.get(scheme.kind, "presence")
    kernel = ChargingKernel.for_scheme(machine, scheme)
    table = code_table(kernel, flow, scheme.consults_table,
                       scheme.skips_on_predicted_miss)
    outputs = random_outputs(flow, scheme, levels, stream.num_misses,
                             np.random.default_rng(sum(map(ord, key))))
    want_lat, want = scalar_walk(kernel, flow, scheme, stream, outputs)

    codes, histograms = table.histograms(stream, [table.decide(*outputs)])
    [totals] = table.totals(histograms).tolist()
    got = EnergyLedger()
    table.charge_ledger(got, stream.num_accesses, totals)
    expanded = np.repeat(table.latencies(None), machine.cores)[codes[0]]
    assert expanded.tobytes() == want_lat.tobytes()
    assert dict(got.counts) == dict(want.counts)
    for line, energy in want.energy_nj.items():
        assert got.energy_nj[line] == pytest.approx(energy, rel=1e-12), line
    # Per-level reach and hits are the probes the walk made.
    for level in range(2, levels + 1):
        name = machine.level(level).name
        probes = want.counts.get((name, "probe"), 0) + want.counts.get((name, "tag"), 0)
        assert totals[table.tally_rows[f"reach{level}"]] == probes


def clear_memos() -> None:
    charging._KERNELS.clear()
    charging._TABLES.clear()


#: Pairs that differ in exactly one memo-key component: machine (tiny vs
#: scaled), probe plan (base, phased, waypred), lookup delay and energy
#: (the ReDHiP variants), consults (LevelPred vs its oracle), skips
#: (Oracle vs Base) and flow (LevelPred vs EHC).
MEMO_SCHEMES = {
    "base": base_scheme(),
    "phased": phased_scheme(),
    "waypred": waypred_scheme(),
    "oracle": oracle_scheme(),
    "redhip": redhip_scheme(),
    "redhip-frac": redhip_scheme(lookup_delay=2.5, name="ReDHiP-frac"),
    "redhip-energy": redhip_scheme(lookup_energy_nj=0.0123, name="ReDHiP-e"),
    "levelpred": levelpred_scheme(),
    "oracle_level": oracle_levelpred_scheme(),
    "ehc": ehc_scheme(),
}


def test_memos_never_leak_between_schemes():
    """Forward then reverse through one process, every result equals the
    one evaluated with cold memos."""
    streams = []
    for name, refs in (("tiny", 1500), ("scaled", 400)):
        machine = get_machine(name)
        cfg = SimConfig(machine=machine, refs_per_core=refs, seed=4)
        streams.append((machine, ContentSimulator(cfg).run(
            get_workload("soplex", machine, refs, cfg.seed))))
    cells = [(m, s, key) for m, s in streams for key in MEMO_SCHEMES]

    def run(cell):
        machine, stream, key = cell
        return result_facts(evaluate_scheme(stream, machine, MEMO_SCHEMES[key],
                                           "soplex"))

    cold = {}
    for cell in cells:
        clear_memos()
        cold[cell[0].name, cell[2]] = run(cell)
    clear_memos()
    with telemetry.session(force=True, label="memo") as sess:
        for cell in cells + cells[::-1]:
            assert run(cell) == cold[cell[0].name, cell[2]], cell[::2]
        built = sess.registry.counter_total("evaluate.tables_built")
        reused = sess.registry.counter_total("evaluate.tables_reused")
    # One table per scheme and machine: the lineup has no two schemes
    # that share every key component.
    assert built == len(cells) and reused == len(cells)
    for table in charging._TABLES.values():
        assert not table.rows.flags.writeable and not table.lat.flags.writeable


def test_code_base_lives_as_long_as_its_stream(tiny_machine):
    runner = ExperimentRunner(SimConfig(machine=tiny_machine,
                                        refs_per_core=1500, seed=6))
    for scheme in (base_scheme(), levelpred_scheme(), ehc_scheme()):
        runner.run("mcf", scheme)
    stream = weakref.ref(runner.stream("mcf"))
    base, histogram = charging._BASES[stream()]
    assert not base.flags.writeable and not histogram.flags.writeable
    gc.collect()
    before = len(charging._BASES)
    del runner, base, histogram
    gc.collect()
    assert stream() is None
    assert len(charging._BASES) == before - 1


def test_replays_are_looked_up_per_call(tiny_machine, monkeypatch):
    """Profilers (the benchmark recorder) swap ``evaluate``'s replay
    functions by module attribute; every evaluation must call the one
    the module holds at that time."""
    from repro.sim import evaluate

    calls = []
    for name in ("_replay_binary", "replay_level_predictor", "replay_ehc"):
        def spy(stream, predictor, real=getattr(evaluate, name), name=name):
            calls.append(name)
            return real(stream, predictor)

        monkeypatch.setattr(evaluate, name, spy)
    cfg = SimConfig(machine=tiny_machine, refs_per_core=500, seed=1)
    stream = ContentSimulator(cfg).run(get_workload("mcf", tiny_machine, 500, 1))
    for scheme in (redhip_scheme(), levelpred_scheme(), ehc_scheme()):
        evaluate_scheme(stream, tiny_machine, scheme, "mcf")
    assert calls == ["_replay_binary", "replay_level_predictor", "replay_ehc"]
