"""Predictor-zoo lockdown: controller units, dominance properties,
checked-mode invariants, randomized differential fuzz and golden pins.

The zoo schemes (``levelpred``, ``ehc``, ``oracle_level``) ride dedicated
accounting paths in both simulators; this suite is what keeps those paths
honest — cross-path equivalence lives in ``test_charging_equivalence.py``,
everything scheme-specific lives here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.core.redhip import redhip_scheme
from repro.energy.params import get_machine
from repro.predictors.base import base_scheme, oracle_scheme
from repro.predictors.ehc import EHC_MAX, EHCController, ehc_scheme
from repro.predictors.levelpred import (
    CONF_CONFIDENT,
    CONF_MAX,
    LevelPredController,
    levelpred_scheme,
    oracle_levelpred_scheme,
)
from repro import checking
from repro.sim.config import SimConfig
from repro.sim.integrated import IntegratedSimulator
from repro.sim.runner import ExperimentRunner
from repro.sweep.spec import (
    PREDICTOR_SCHEMES,
    RECAL_SCHEMES,
    SWEEP_SCHEMES,
    CellSpec,
    SweepSpec,
    load_sweep,
)
from repro.util.proptest import cases
from repro.util.validation import ConfigError, ReproError

from test_charging_equivalence import assert_charged_equal
from test_vector_content import build_case_workload, case_runner, random_machine

GOLDEN = Path(__file__).parent / "golden"

ZOO_SCHEMES = {
    "levelpred": lambda cfg: levelpred_scheme(recal_period=cfg.recal_period),
    "ehc": lambda cfg: ehc_scheme(recal_period=cfg.recal_period),
    "oracle_levelpred": lambda cfg: oracle_levelpred_scheme(),
}


# ------------------------------------------------------ controller units
def test_levelpred_confidence_state_machine(tiny_machine):
    ctl = LevelPredController(tiny_machine)
    pc, block = 0x400100, 77
    # Presence bit clear: guaranteed miss, regardless of the level table.
    assert ctl.predict(pc, block) == (0, True)
    assert ctl.predicted_miss == 1
    ctl.on_llc_fill(block)
    # Present but untrained: unconfident, full walk.
    assert ctl.predict(pc, block) == (0, False)
    ctl.train(pc, block, 3)  # allocate at conf=1
    assert ctl.predict(pc, block) == (0, False)
    ctl.train(pc, block, 3)  # reinforce to conf=2
    assert ctl.predict(pc, block) == (3, True)
    # Saturation: two more agreements cap at CONF_MAX.
    ctl.train(pc, block, 3)
    ctl.train(pc, block, 3)
    idx, _ = ctl._level_slot(pc, block)
    assert ctl.conf[idx] == CONF_MAX
    # Disagreement decays; the entry only retrains at confidence 0.
    for _ in range(CONF_MAX):
        ctl.train(pc, block, 4)
    assert ctl.levels[idx] == 4 and ctl.conf[idx] == 1
    # A memory-served outcome (hit_level 0) decays a matching entry too.
    ctl.train(pc, block, 0)
    assert ctl.conf[idx] == 0


def test_levelpred_mispredict_bookkeeping(tiny_machine):
    ctl = LevelPredController(tiny_machine)
    pc, block = 0x400100, 77
    ctl.on_llc_fill(block)
    ctl.train(pc, block, 3)
    ctl.train(pc, block, 3)
    assert ctl.predict(pc, block) == (3, True)
    ctl.train(pc, block, 2)  # confident single was wrong
    assert ctl.mispredicts == 1 and ctl.correct_singles == 0
    ctl.train(pc, block, 2)  # retrain to level 2 (conf 1 -> replace path)
    assert ctl.predict(pc, block)[1] in (True, False)  # never raises


def test_levelpred_presence_half_matches_redhip(tiny_runner, tiny_workload):
    """The presence bitmap is ReDHiP's verbatim, so at equal table budget
    and recal period the two schemes skip the *same* accesses."""
    cfg = tiny_runner.config
    tiny_runner.add_workload(tiny_workload)
    red = tiny_runner.run(tiny_workload.name,
                          redhip_scheme(recal_period=cfg.recal_period))
    lp = tiny_runner.run(tiny_workload.name,
                         levelpred_scheme(recal_period=cfg.recal_period))
    assert lp.skips == red.skips
    assert lp.l1_misses == red.l1_misses
    assert lp.true_misses == red.true_misses
    assert lp.false_positives == red.false_positives


def test_ehc_counter_mechanics(tiny_machine):
    ctl = EHCController(tiny_machine)
    block = 123
    idx = ctl._idx(block)
    ctl.on_llc_fill(block)
    assert ctl.cur[idx] == 0
    for _ in range(EHC_MAX + 5):  # saturates, never wraps
        ctl.observe_hit(block)
    assert ctl.cur[idx] == EHC_MAX
    ctl.on_llc_evict(block)  # eviction trains: expected := spent count
    assert ctl.expected[idx] == EHC_MAX and ctl.cur[idx] == 0
    ctl.on_llc_fill(block)
    assert not ctl.predict_dead(block)  # expected > 0: live
    ctl.expected[idx] = 0
    assert ctl.predict_dead(block)


def test_ehc_recalibration_revives_resident_blocks(tiny_machine):
    """The sweep re-reads the tag mirror: non-resident entries are
    cleared, resident entries with a spent budget get one more hit."""
    ctl = EHCController(tiny_machine, recal_period=1)
    resident, gone = 5, 9
    ctl.on_llc_fill(resident)
    ctl.on_llc_fill(gone)
    ctl.on_llc_evict(gone)
    ctl.expected[ctl._idx(gone)] = 7  # stale leftover
    stall = ctl.note_l1_miss()
    assert stall > 0 and ctl.engine.sweeps == 1
    assert ctl.expected[ctl._idx(resident)] == 1
    assert ctl.expected[ctl._idx(gone)] == 0


# ------------------------------------------------- dominance + conservation
DOMINANCE_WORKLOADS = ("mcf", "bwaves", "lbm")


@pytest.mark.parametrize("wname", DOMINANCE_WORKLOADS)
def test_oracle_levelpred_dominates_oracle(tiny_runner, wname):
    """Perfect level prediction probes one level per hit where the
    presence Oracle walks serially to it: latency can only shrink, and
    both skip exactly the true misses."""
    orc = tiny_runner.run(wname, oracle_scheme())
    olp = tiny_runner.run(wname, oracle_levelpred_scheme())
    assert olp.exec_cycles <= orc.exec_cycles
    assert olp.skips == orc.skips == olp.true_misses == orc.true_misses
    assert olp.dynamic_nj <= orc.dynamic_nj


@pytest.mark.parametrize("scheme_name", sorted(ZOO_SCHEMES))
def test_zoo_energy_accounting_conserved(tiny_runner, tiny_workload,
                                         scheme_name):
    """The ledger's component breakdown sums to the dynamic total — no
    charge enters outside a named component."""
    tiny_runner.add_workload(tiny_workload)
    scheme = ZOO_SCHEMES[scheme_name](tiny_runner.config)
    res = tiny_runner.run(tiny_workload.name, scheme)
    total = sum(res.ledger.component_nj(c) for c in res.ledger.breakdown())
    assert math.isclose(total, res.dynamic_nj, rel_tol=1e-12)
    assert res.exec_cycles > 0 and res.l1_misses > 0


# --------------------------------------------------- checked-mode oracles
@pytest.mark.parametrize("scheme_name", sorted(ZOO_SCHEMES))
def test_zoo_checked_mode_clean(tiny_machine, tiny_workload, scheme_name,
                                tmp_path, monkeypatch):
    """Both paths run clean under REPRO_CHECKED semantics: the levelpred
    conservation and EHC counter-bound oracles hold on a real workload."""
    monkeypatch.setenv(checking.REPLAY_DIR_ENV, str(tmp_path))
    cfg = SimConfig(machine=tiny_machine, refs_per_core=2000, seed=7,
                    checked=True)
    scheme = ZOO_SCHEMES[scheme_name](cfg)
    runner = ExperimentRunner(cfg)
    runner.add_workload(tiny_workload)
    fast = runner.run(tiny_workload.name, scheme)
    slow = IntegratedSimulator(cfg).run(tiny_workload, scheme)
    assert_charged_equal(fast, slow)
    assert not list(tmp_path.glob("*"))  # no violation bundles written


def test_levelpred_conservation_oracle_rejects(tmp_path, monkeypatch):
    monkeypatch.setenv(checking.REPLAY_DIR_ENV, str(tmp_path))
    ctx = checking.evaluation_context("tiny", "mcf", "LevelPred")
    with pytest.raises(checking.InvariantViolation, match="partition"):
        checking.check_levelpred_conservation(
            ctx=ctx, l1_misses=10, skips=1, correct_singles=2,
            mispredicts=3, unconfident=3, walks=6, walk_reach_l2=6,
        )


def test_ehc_counter_oracle_rejects(tiny_machine, tmp_path, monkeypatch):
    monkeypatch.setenv(checking.REPLAY_DIR_ENV, str(tmp_path))
    ctl = EHCController(tiny_machine)
    ctl.expected[0] = EHC_MAX + 1  # corrupt past the saturation bound
    ctx = checking.evaluation_context("tiny", "mcf", "EHC")
    with pytest.raises(checking.InvariantViolation, match="ehc-counters"):
        checking.check_ehc_counters(ctl, ctx)


def test_levelpred_rejects_phantom_evictions(tiny_machine):
    ctl = LevelPredController(tiny_machine)
    with pytest.raises(ConfigError):
        ctl.on_llc_evict(42)


# ------------------------------------------------ sweep axis + validation
def test_sweep_schemes_include_zoo():
    assert {"levelpred", "ehc"} <= set(SWEEP_SCHEMES)
    assert {"levelpred", "ehc"} <= PREDICTOR_SCHEMES
    assert RECAL_SCHEMES == {"redhip", "levelpred", "ehc",
                             "redhip_noov", "redhip_xor"}
    assert RECAL_SCHEMES <= PREDICTOR_SCHEMES <= set(SWEEP_SCHEMES)


def test_probe_mode_validation_message_tracks_registry():
    """Satellite regression: the probe-mode error must name every
    predictor scheme, derived from the registry — not a stale literal."""
    with pytest.raises(ConfigError) as err:
        SweepSpec(name="bad", workloads=("mcf",), schemes=("base", "phased"),
                  probe_modes=("parallel", "phased"))
    message = str(err.value)
    for scheme in PREDICTOR_SCHEMES:
        assert scheme in message
    assert str(sorted(PREDICTOR_SCHEMES)) in message


@pytest.mark.parametrize("scheme", sorted(PREDICTOR_SCHEMES))
def test_probe_modes_accepted_with_any_predictor_scheme(scheme):
    spec = SweepSpec(name="ok", workloads=("mcf",), schemes=("base", scheme),
                     probe_modes=("parallel", "phased"))
    assert any(c.probe_mode == "phased" for c in spec.cells())


def test_zoo_cell_canonicalization():
    """The new axes canonicalize exactly like redhip's: recal_multiple
    survives for recalibrating schemes, pt/probe axes for predictor
    schemes, and everything inapplicable nulls out."""
    lp = CellSpec(machine="tiny", workload="mcf", scheme="levelpred",
                  pt_kb=8.0, recal_multiple=2.0, probe_mode=None).canonical()
    assert lp.pt_kb == 8.0 and lp.recal_multiple == 2.0
    assert lp.probe_mode == "parallel"
    cbf = CellSpec(machine="tiny", workload="mcf", scheme="cbf",
                   recal_multiple=2.0).canonical()
    assert cbf.recal_multiple is None  # CBF never recalibrates
    base = CellSpec(machine="tiny", workload="mcf", scheme="base",
                    pt_kb=8.0, recal_multiple=2.0).canonical()
    assert base.pt_kb is None and base.recal_multiple is None


def test_cell_fingerprints_match_golden():
    """Satellite property: every pre-existing cell fingerprint is
    invariant under the scheme-axis extension.  Fingerprints are resume
    keys — moving one silently orphans completed work in every existing
    results store.  Regenerate only via ``tests/golden/regen.py``."""
    golden = json.loads((GOLDEN / "sweep_cell_fingerprints.json").read_text())
    for grid, expected in golden.items():
        spec = load_sweep(GOLDEN / grid)
        got = {cell.label(): cell.fingerprint() for cell in spec.cells()}
        assert got == expected, f"fingerprint drift in {grid}"


def test_zoo_grid_shares_cells_with_smoke_grid():
    """The overlapping (base, redhip-recal1) cells of the two committed
    grids are literally the same cells: identical fingerprints, so one
    store can serve both sweeps without recomputation."""
    golden = json.loads((GOLDEN / "sweep_cell_fingerprints.json").read_text())
    smoke = golden["sweep_smoke.json"]
    zoo = golden["sweep_zoo.json"]
    shared = set(smoke) & set(zoo)
    assert shared  # the grids genuinely overlap
    for label in shared:
        assert smoke[label] == zoo[label]


# ------------------------------------------------------- golden zoo rows
def test_cli_query_matches_golden_zoo_rows(tmp_path, capsys):
    """Byte-pins the zoo grid's physics, exactly like the smoke grid's
    golden rows (and the CI sweep-smoke job's zoo step)."""
    from repro.cli import main

    golden = (GOLDEN / "sweep_zoo_rows.csv").read_text()
    columns = golden.splitlines()[0]
    store = tmp_path / "zoo.sqlite"
    assert main(["sweep", str(GOLDEN / "sweep_zoo.json"),
                 "--store", str(store), "--workers", "1"]) == 0
    capsys.readouterr()
    assert main(["query", str(store), "--csv", "--columns", columns]) == 0
    assert capsys.readouterr().out == golden


def test_golden_zoo_rows_scheme_ordering():
    """The deterministic ordering the CI job gates: levelpred matches
    redhip's skips row-for-row (shared presence half), and both predictor
    schemes beat the base walk on total energy."""
    rows = (GOLDEN / "sweep_zoo_rows.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    recs = [dict(zip(header, r.split(","))) for r in rows[1:]]
    by = {}
    for r in recs:
        by.setdefault((r["workload"], r["scheme"]), []).append(r)
    for workload in {r["workload"] for r in recs}:
        base = float(by[(workload, "base")][0]["total_nj"])
        for scheme in ("redhip", "levelpred"):
            for r in by[(workload, scheme)]:
                assert float(r["total_nj"]) < base
        skips = {s: {r["skips"] for r in by[(workload, s)]}
                 for s in ("redhip", "levelpred")}
        assert skips["redhip"] == skips["levelpred"]
        for r in by[(workload, "ehc")]:
            assert r["skips"] == "0" and r["false_positives"] == "0"


# ------------------------------------------------- differential fuzzing
FUZZ_SCHEMES = ("levelpred", "ehc", "oracle_levelpred")


def _fuzz_scheme(name: str, cfg: SimConfig):
    return ZOO_SCHEMES[name](cfg)


def test_fuzz_zoo_schemes_cross_path(monkeypatch, tmp_path):
    """Randomized scheme x geometry differential: the integrated scalar
    simulator and the two-phase bulk evaluator must charge identically on
    random machines and workload families.  Runs in checked mode, so a
    divergence in the zoo invariants also writes a seed-replay bundle
    (the label names the case for reproduction)."""
    monkeypatch.setenv(checking.REPLAY_DIR_ENV, str(tmp_path))
    for i, rng in cases(seed=20260808, n=25):
        machine = random_machine(rng)
        family = ("mcf", "lbm", "bwaves", "blas")[int(rng.integers(0, 4))]
        scheme_name = FUZZ_SCHEMES[int(rng.integers(0, len(FUZZ_SCHEMES)))]
        refs = int(rng.integers(300, 1200))
        seed = int(rng.integers(0, 2**31))
        cfg = SimConfig(machine=machine, refs_per_core=refs, seed=seed,
                        checked=True)
        label = (f"case {i}: {scheme_name} on {family} "
                 f"({machine.name}, refs={refs}, seed={seed})")
        workload = build_case_workload(family, machine, refs, seed)
        scheme = _fuzz_scheme(scheme_name, cfg)
        runner = case_runner(cfg, workload)
        try:
            fast = runner.run(workload.name, scheme)
            slow = IntegratedSimulator(cfg).run(workload, scheme)
        except (ReproError, ConfigError) as exc:  # pragma: no cover
            pytest.fail(f"{label}: {exc}")
        try:
            assert_charged_equal(fast, slow)
        except AssertionError as exc:  # pragma: no cover
            pytest.fail(f"{label}: cross-path divergence: {exc}")


# -------------------------------------------------- experiment registry
def test_zoo_experiments_registered():
    from repro.experiments.registry import get_spec

    lp = get_spec("ext-zoo-levelpred")
    assert set(lp.schemes) >= {"LevelPred", "Oracle-LevelPred", "ReDHiP"}
    e = get_spec("ext-zoo-ehc")
    assert set(e.schemes) >= {"EHC", "EHC-stale", "ReDHiP"}


def test_zoo_comparison_table_lists_every_scheme(tiny_config):
    """Acceptance: both new schemes appear in scheme_comparison_table
    output of the committed head-to-head specs."""
    from repro.experiments.registry import run_experiment

    res = run_experiment("ext-zoo-levelpred", tiny_config,
                         workloads=("mcf",))
    for name in ("Base", "ReDHiP", "LevelPred", "Oracle-LevelPred", "Oracle"):
        assert name in res.table
    res = run_experiment("ext-zoo-ehc", tiny_config, workloads=("mcf",))
    for name in ("Base", "Phased", "ReDHiP", "EHC"):
        assert name in res.table
