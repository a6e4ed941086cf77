"""Shard-batched evaluation equals per-cell evaluation, bit for bit.

:func:`repro.sim.evaluate.evaluate_schemes` evaluates a shard's cells
together: one replay pass over plans built once per table geometry,
then one stacked histogram matrix per code table.  Every result it returns must equal the one
:func:`~repro.sim.evaluate.evaluate_scheme` returns for the cell alone —
every ledger line in charge order, every timing array byte, the static
energy and the predictor telemetry — for every sweep scheme at both
table sizes and both recalibration axes, for the zoo's extra kinds, and
under the charging configurations that take the ordered timing fold
(MLP != 1, a DRAM model, a memory latency, a fractional lookup delay).
A cell that fails in a batch fails alone; the rest of its shard lands
exactly as in a run without the failure.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro import faults
from repro.core.gating import gated_redhip_scheme
from repro.core.redhip import redhip_scheme
from repro.energy.dram import DramConfig
from repro.energy.params import get_machine
from repro.predictors.base import PresencePredictor, SchemeSpec
from repro.predictors.cbf_scheme import cbf_scheme
from repro.predictors.levelpred import oracle_levelpred_scheme
from repro.predictors.missmap import missmap_scheme
from repro.results.store import ResultsStore
from repro.sim import charging, vector_replay
from repro.sim.config import SimConfig
from repro.sim.evaluate import evaluate_scheme, evaluate_schemes, result_facts
from repro.sim.runner import ExperimentRunner
from repro.sweep import SweepSpec, scheduler
from repro.sweep.journal import journal_path, read_journal
from repro.sweep.spec import SWEEP_SCHEMES, build_scheme
from repro.util.validation import ConfigError, ReproError

MACHINE = get_machine("tiny")

#: Charging configurations: the paper's (the any-order timing fold) and
#: each one that moves a cell to the ordered fold or charges memory.
CONFIGS = {
    "paper": {},
    "mlp": {"mlp": 1.3},
    "dram": {"dram": DramConfig()},
    "memory": {"memory_latency": 120.0, "memory_energy_nj": 3.5},
    "fill": {"fill_energy_weight": 0.25},
}


@pytest.fixture(scope="module")
def stream():
    cfg = SimConfig(machine=MACHINE, refs_per_core=3000, seed=2)
    return ExperimentRunner(cfg).stream("soplex")


@pytest.fixture(autouse=True)
def _clean_faults():
    """A sweep's explicitly passed plan installs process-wide; never let
    one leak into the next test."""
    yield
    faults.uninstall()


def lineup() -> list:
    """Every sweep scheme at both table sizes and both recalibration
    axes, in both probe modes that change a code table, plus the kinds
    only experiments build: LevelPred's oracle, the xor-hash CBF with
    8-bit counters, gated ReDHiP and MissMap (sequential replays),
    adaptive and short-period ReDHiP (several sweeps) and a fractional
    lookup delay (the ordered timing fold)."""
    cells = SweepSpec(
        name="batch", machines=("tiny",), workloads=("soplex",),
        schemes=SWEEP_SCHEMES, refs_per_core=3000, seeds=(2,),
        pt_kb=(None, 1.0), recal_multiples=(1.0, math.inf),
        probe_modes=("parallel", "waypred"),
    ).cells()
    return [build_scheme(cell, MACHINE) for cell in cells] + [
        oracle_levelpred_scheme(),
        cbf_scheme(hash_kind="xor", counter_bits=8),
        gated_redhip_scheme(recal_period=64, window=256),
        missmap_scheme(),
        redhip_scheme(recal_period=None, recal_threshold=0.05,
                      name="ReDHiP-adaptive"),
        redhip_scheme(recal_period=64, name="ReDHiP-64"),
        redhip_scheme(recal_period=64, lookup_delay=2.5, name="ReDHiP-frac"),
    ]


def test_lineup_covers_every_sweep_scheme_and_axis():
    names = {scheme.name for scheme in lineup()}
    assert {"Base", "Oracle", "Phased", "WayPred", "CBF", "ReDHiP", "LevelPred",
            "EHC", "ReDHiP-NoOv", "ReDHiP-xor"} <= names
    assert len(lineup()) > 2 * len(SWEEP_SCHEMES)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_batch_equals_each_cell_alone(stream, config):
    """One batch over the whole lineup; each cell alone on an
    independently memoized copy of the stream."""
    schemes = lineup()
    kwargs = CONFIGS[config]
    results, walls = evaluate_schemes(stream, MACHINE, schemes, "soplex",
                                      checked=False, **kwargs)
    assert len(results) == len(walls) == len(schemes)
    assert all(wall >= 0.0 for wall in walls)
    fresh = dataclasses.replace(stream)
    for scheme, batched in zip(schemes, results):
        assert not isinstance(batched, Exception), (scheme.name, batched)
        alone = evaluate_scheme(fresh, MACHINE, scheme, "soplex", checked=False,
                                **kwargs)
        assert result_facts(batched) == result_facts(alone), scheme.name
    # The lineup recalibrates: some cells sweep.
    assert any(result.predictor_stats.get("recal_sweeps", 0) > 0
               for result in results)


def test_ordered_fold_configs_reach_the_ordered_fold(stream, monkeypatch):
    """MLP != 1 and the fractional lookup delay put rows of a stacked
    group on the ordered fold; the paper's model keeps every row exact."""
    real = charging._exact_in_any_order
    answers = []

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(charging, "_exact_in_any_order", spy)
    evaluate_schemes(stream, MACHINE, lineup(), "soplex", checked=False)
    assert not np.concatenate(answers).all()          # ReDHiP-frac
    answers.clear()
    evaluate_schemes(stream, MACHINE, lineup()[:8], "soplex", checked=False)
    assert np.concatenate(answers).all()


def test_checked_batch_matches_and_reports_divergence(stream, monkeypatch):
    """Checked mode evaluates every batched cell alone as well; a batch
    path that diverges (here: stacked histograms perturbed, which a cell
    alone never uses) fails exactly the cells it touched."""
    schemes = lineup()[:12]
    checked, _ = evaluate_schemes(stream, MACHINE, schemes, "soplex", checked=True)
    plain, _ = evaluate_schemes(stream, MACHINE, schemes, "soplex", checked=False)
    assert [result_facts(r) for r in checked] == [result_facts(r) for r in plain]

    real = charging.CodeTable.histograms

    def perturbed(self, stream_, outputs):
        codes, histograms = real(self, stream_, outputs)
        if len(outputs) > 1:
            histograms = histograms.copy()
            histograms[:, 0] += 1
        return codes, histograms

    monkeypatch.setattr(charging.CodeTable, "histograms", perturbed)
    results, _ = evaluate_schemes(stream, MACHINE, schemes, "soplex", checked=True)
    diverged = [isinstance(r, ReproError) and "diverged" in str(r) for r in results]
    assert any(diverged) and not all(diverged)


class _Blind(PresencePredictor):
    """Predicts every block absent: a false negative at every LLC hit."""

    name = "Blind"

    def predict_present(self, block: int) -> bool:
        return False

    def on_llc_fill(self, block: int) -> None:
        pass

    def on_llc_evict(self, block: int) -> None:
        pass


class _Broken(_Blind):
    """Raises at its first lookup."""

    def predict_present(self, block: int) -> bool:
        raise RuntimeError("replay exploded")


def _faulty(name, cls) -> SchemeSpec:
    return SchemeSpec(name=name, kind="predictor", make_predictor=lambda machine: cls())


def test_batch_failures_are_per_cell(stream):
    schemes = lineup()[:6]
    schemes[1:1] = [_faulty("Blind", _Blind), _faulty("Broken", _Broken)]
    results, _ = evaluate_schemes(stream, MACHINE, schemes, "soplex", checked=False)
    assert isinstance(results[1], ReproError) and "false negatives" in str(results[1])
    assert isinstance(results[2], RuntimeError)
    for scheme, result in zip(schemes[3:] + schemes[:1], results[3:] + results[:1]):
        alone = evaluate_scheme(stream, MACHINE, scheme, "soplex")
        assert result_facts(result) == result_facts(alone)
    with pytest.raises(ReproError, match="false negatives"):
        evaluate_scheme(stream, MACHINE, schemes[1], "soplex")


def test_plan_build_failure_fails_only_its_cells(stream, monkeypatch):
    """A replay plan that fails to build (here EHC's at one table
    geometry, as a tag-mirror underflow would) fails only the cells that
    replay from it; every other cell lands as it does alone."""
    schemes = lineup()
    masks = {k: scheme.build_predictor(MACHINE)._mask
             for k, scheme in enumerate(schemes) if scheme.kind == "ehc"}
    target = min(masks.values())
    assert len(set(masks.values())) > 1
    real = vector_replay._ehc_plan

    def plan(stream_, predictor):
        if predictor._mask == target:
            raise ConfigError("tag mirror underflow: eviction of a block never filled")
        return real(stream_, predictor)

    monkeypatch.setattr(vector_replay, "_ehc_plan", plan)
    fresh = dataclasses.replace(stream)
    results, _ = evaluate_schemes(fresh, MACHINE, schemes, "soplex", checked=False)
    monkeypatch.undo()
    for k, (scheme, result) in enumerate(zip(schemes, results)):
        if masks.get(k) == target:
            assert isinstance(result, ConfigError), scheme.name
        else:
            alone = evaluate_scheme(stream, MACHINE, scheme, "soplex", checked=False)
            assert result_facts(result) == result_facts(alone), scheme.name


def test_shard_failures_journal_alone(tmp_path, monkeypatch):
    """A shard with an injected ``sweep.cell`` fault and a scheme that
    trips the false-negative check: only those two cells journal
    ``cell_failed``, and every other row is byte-identical to an
    unfaulted run's."""
    cells = SweepSpec(
        name="iso", machines=("tiny",), workloads=("mcf",),
        schemes=("base", "oracle", "cbf", "redhip", "levelpred", "ehc"),
        refs_per_core=1500, pt_kb=(None, 1.0),
    ).cells()
    cache = str(tmp_path / "cache")
    clean = scheduler.run_cells(cells, "iso", tmp_path / "clean.sqlite",
                                workers=1, stream_cache=cache)
    assert clean.ok

    real = scheduler.build_scheme
    blind = next(cell for cell in cells if cell.scheme == "ehc")
    monkeypatch.setattr(scheduler, "build_scheme", lambda cell, machine: (
        _faulty("Blind", _Blind) if cell == blind else real(cell, machine)))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"seed": 3, "faults": [
        {"site": "sweep.cell", "kind": "exception", "match": "mcf", "hits": [3]}]}))
    store = tmp_path / "faulted.sqlite"
    with pytest.warns(RuntimeWarning, match="failed"):
        report = scheduler.run_cells(cells, "iso", store, workers=1,
                                     stream_cache=cache, faults_plan=str(plan))
    failed = {fp for fp, _label, _reason in report.failed}
    assert failed == {cells[2].fingerprint(), blind.fingerprint()}
    assert report.completed == len(cells) - 2
    journalled = {rec["fingerprint"] for rec in read_journal(journal_path(store))[0]
                  if rec["event"] == "cell_failed"}
    assert journalled == failed
    with ResultsStore(tmp_path / "clean.sqlite") as s:
        want = {row["fingerprint"]: row for row in s.canonical_rows()}
    with ResultsStore(store) as s:
        got = {row["fingerprint"]: row for row in s.canonical_rows()}
    assert got == {fp: row for fp, row in want.items() if fp not in failed}
