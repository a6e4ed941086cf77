"""Reuse-distance analysis, phase statistics and multi-seed runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.multiseed import MetricEstimate, run_multi_seed
from repro.analysis.phases import windowed_skip_rate, windowed_stats
from repro.analysis.reuse import COLD, profile_trace, reuse_distances
from repro.core.redhip import ReDHiPController, redhip_scheme
from repro.energy.params import get_machine
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator

from conftest import make_explicit_trace, make_trace, single_core_workload

MACHINE = get_machine("tiny")


# ------------------------------------------------------------ reuse distance
def test_reuse_distances_hand_checked():
    #            a  b  a  c  b  a
    blocks = np.array([1, 2, 1, 3, 2, 1], dtype=np.uint64)
    d = reuse_distances(blocks)
    # a: cold; b: cold; a: {b}=1; c: cold; b: {a(t2),c}=2; a: {c,b}=2
    assert d.tolist() == [COLD, COLD, 1, COLD, 2, 2]


def test_reuse_distance_zero_for_immediate_repeat():
    d = reuse_distances(np.array([7, 7, 7], dtype=np.uint64))
    assert d.tolist() == [COLD, 0, 0]


def naive_reuse_distances(blocks):
    """O(n^2) reference implementation."""
    out = []
    last = {}
    for t, b in enumerate(blocks):
        if b not in last:
            out.append(COLD)
        else:
            out.append(len(set(blocks[last[b] + 1:t])))
        last[b] = t
    return out


@given(st.lists(st.integers(0, 30), min_size=0, max_size=120))
@settings(max_examples=50, deadline=None)
def test_reuse_distances_match_naive(blocks):
    arr = np.asarray(blocks, dtype=np.uint64)
    assert reuse_distances(arr).tolist() == naive_reuse_distances(blocks)


def test_profile_hit_rate_semantics():
    # Cyclic scan of 4 blocks: distance 3 for every revisit.
    blocks = [1, 2, 3, 4] * 10
    trace = make_explicit_trace(blocks)
    p = profile_trace(trace)
    assert p.cold_fraction == pytest.approx(4 / 40)
    assert p.hit_rate(4) == pytest.approx(36 / 40)
    assert p.hit_rate(3) == 0.0  # LRU thrashes below the loop size
    assert p.working_set_blocks(0.99) == 4


def test_analytic_l1_bounds_simulated(tiny_config):
    """Fully-associative analytic hit rate >= simulated 2-way L1 rate."""
    trace = make_trace(machine=MACHINE, refs=4000)
    profile = profile_trace(trace)
    wl = single_core_workload(MACHINE, trace.blocks.tolist())
    record = ContentSimulator(tiny_config).walk(wl)
    # Restrict to core 0 (the real trace).
    h0 = record.hit_level[record.core == 0]
    simulated_l1 = float((h0 == 1).mean())
    capacity = MACHINE.level(1).size // 64
    analytic = profile.hit_rate(capacity)
    assert analytic >= simulated_l1 - 0.02
    assert analytic - simulated_l1 < 0.25  # and it tracks, not just bounds


# ------------------------------------------------------------------- phases
def test_windowed_stats_shapes(tiny_config, tiny_workload):
    stream = ContentSimulator(tiny_config).run(tiny_workload)
    stats = windowed_stats(stream, window=512)
    assert stats.num_windows == stream.num_accesses // 512
    assert np.all(stats.l1_miss_rate >= stats.memory_rate - 1e-12)
    assert np.all(stats.llc_fill_rate >= 0)
    s = stats.summary()
    assert 0 < s["l1_miss_mean"] < 1


def test_windowed_skip_rate(tiny_config, tiny_workload):
    stream = ContentSimulator(tiny_config).run(tiny_workload)
    pred = ReDHiPController(MACHINE, recal_period=tiny_config.recal_period)
    rates = windowed_skip_rate(stream, pred, window=512)
    finite = rates[~np.isnan(rates)]
    assert len(finite) > 0
    assert np.all((finite >= 0) & (finite <= 1))


def test_windowed_skip_rate_values_pinned(tiny_config, tiny_workload):
    """Per-L1-miss replay outputs leave the skip rates exactly where the
    full-length outputs put them (values pinned from that version)."""
    stream = ContentSimulator(tiny_config).run(tiny_workload)
    pred = ReDHiPController(MACHINE, recal_period=tiny_config.recal_period)
    rates = windowed_skip_rate(stream, pred, window=512)
    assert rates.tolist() == [62 / 63, 22 / 23, 25 / 27]


def test_windowed_stats_validation(tiny_config, tiny_workload):
    stream = ContentSimulator(tiny_config).run(tiny_workload)
    with pytest.raises(Exception):
        windowed_stats(stream, window=0)


# --------------------------------------------------------------- multi-seed
def test_metric_estimate_math():
    est = MetricEstimate("x", (1.0, 2.0, 3.0))
    assert est.mean == 2.0
    assert est.std == pytest.approx(1.0)
    assert est.ci95 == pytest.approx(1.96 / np.sqrt(3))
    single = MetricEstimate("y", (5.0,))
    assert single.ci95 == 0.0
    assert "x:" in str(est)


def test_run_multi_seed():
    cfg = SimConfig(machine=MACHINE, refs_per_core=1500)
    res = run_multi_seed(cfg, "mcf",
                         redhip_scheme(recal_period=cfg.recal_period),
                         seeds=(1, 2, 3))
    assert len(res.speedup.samples) == 3
    assert 0 < res.dynamic_ratio.mean < 1
    assert res.skip_coverage.mean > 0.3
    rows = res.as_rows()
    assert set(rows) == {"speedup", "dynamic_ratio", "total_ratio", "skip_coverage"}
