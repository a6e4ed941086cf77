"""Whole-pipeline integration tests: figure regeneration is deterministic,
internally consistent, and the scheme inequalities hold under randomness."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.params import get_machine
from repro.experiments import run_experiment
from repro.predictors.base import base_scheme, phased_scheme, waypred_scheme
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.evaluate import evaluate_scheme

from conftest import single_core_workload

MACHINE = get_machine("tiny")


def test_figure_regeneration_is_deterministic(tmp_path):
    """Two cold regenerations, each walking into its own stream cache."""
    cfg = SimConfig(machine=MACHINE, refs_per_core=2500, seed=4)
    a = run_experiment("fig6", replace(cfg, stream_cache=str(tmp_path / "a")),
                       workloads=("mcf",))
    b = run_experiment("fig6", replace(cfg, stream_cache=str(tmp_path / "b")),
                       workloads=("mcf",))
    assert a.series == b.series
    assert a.table == b.table


def test_fig6_fig7_fig8_internally_consistent():
    """Figure 8 must be derivable from Figures 6 and 7's inputs: the same
    scheme ordering appears in the combined metric."""
    cfg = SimConfig(machine=MACHINE, refs_per_core=3000, seed=2)
    f6 = run_experiment("fig6", cfg, workloads=("mcf", "bwaves"),
                        include_no_overhead=False)
    f8 = run_experiment("fig8", cfg, workloads=("mcf", "bwaves"))
    for bench in ("mcf", "bwaves"):
        # ReDHiP beats CBF on the combined metric whenever it beats it on
        # both speedup (fig6) and, by construction of our workloads,
        # energy — consistency, not tautology, since fig8 recomputes.
        if f6.series[bench]["ReDHiP"] >= f6.series[bench]["CBF"]:
            assert f8.series[bench]["ReDHiP"] >= f8.series[bench]["CBF"] - 0.1


@given(blocks=st.lists(st.integers(0, 5000), min_size=5, max_size=200))
@settings(max_examples=25, deadline=None)
def test_scheme_energy_inequalities(blocks):
    """Structural inequalities that hold for ANY trace:
    phased <= base energy; waypred <= base energy; both >= base latency."""
    wl = single_core_workload(MACHINE, blocks)
    cfg = SimConfig(machine=MACHINE, refs_per_core=len(blocks))
    stream = ContentSimulator(cfg).run(wl)
    base = evaluate_scheme(stream, MACHINE, base_scheme(), wl)
    ph = evaluate_scheme(stream, MACHINE, phased_scheme(), wl)
    wp = evaluate_scheme(stream, MACHINE, waypred_scheme(), wl)
    assert ph.dynamic_nj <= base.dynamic_nj + 1e-9
    assert wp.dynamic_nj <= base.dynamic_nj + 1e-9
    assert ph.exec_cycles >= base.exec_cycles - 1e-9
    assert wp.exec_cycles >= base.exec_cycles - 1e-9
    # Content accounting identical across the non-predicting schemes.
    assert ph.level_lookups == base.level_lookups == wp.level_lookups


@given(seed=st.integers(0, 20))
@settings(max_examples=10, deadline=None)
def test_stream_self_consistency(seed):
    """Outcome-stream identities that must hold for any workload seed."""
    from repro.workloads import get_workload
    wl = get_workload("soplex", MACHINE, 1200, seed=seed)
    cfg = SimConfig(machine=MACHINE, refs_per_core=1200, seed=seed)
    record = ContentSimulator(cfg).walk(wl)
    stream = ContentSimulator(cfg).run(wl)
    h = record.hit_level
    # Every access accounted for exactly once.
    counted = sum(stream.level_hits(l) for l in range(1, 5)) + int((h == 0).sum())
    assert counted == stream.num_accesses == record.num_accesses
    # Hit ranks are defined exactly for hits.
    assert ((record.hit_rank >= 0) == (h > 0)).all()
    # Fills at the LLC equal memory-served accesses.
    from repro.hierarchy.events import EVENT_FILL
    assert int((stream.llc_op == EVENT_FILL).sum()) == int((h == 0).sum())
    # The miss record holds exactly the L1 misses, in access order.
    assert (stream.at == np.flatnonzero(h != 1)).all()
    assert (stream.hit_level == h[h != 1]).all()
    assert stream.fingerprint() == record.fingerprint()
