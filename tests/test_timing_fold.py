"""The per-miss timing fold is the per-access fold, bit for bit.

:meth:`ChargingKernel.run_timing` folds an L1-miss record into per-core
cycles without a per-access latency vector.  The evaluator hands it one
latency per decision code plus each miss's code (per-miss latencies only
under a DRAM model): ``hits x d1`` plus the per-core code tally times the
code latencies (a bincount of the miss latencies) when every partial sum
is an exact integer, and an ordered per-core fold of the latencies
expanded per miss (rebuilt from the misses' core-local indices)
otherwise.  Both must reproduce the former fold — every access's latency
in one per-access vector, summed per core in access order — exactly, on
every registry machine, with and without MLP, with and without a DRAM
model, and with a fractional table-lookup delay.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.redhip import redhip_scheme
from repro.energy.dram import DramConfig
from repro.energy.params import MACHINES, get_machine
from repro.hierarchy.events import AccessRecord
from repro.predictors.base import base_scheme
from repro.sim import charging
from repro.sim.charging import ChargingKernel
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.evaluate import evaluate_scheme
from repro.workloads import get_workload

#: References per core: a few thousand accesses per machine, enough for
#: L1 misses on every core and memory traffic for the DRAM model.
REFS = {"paper": 300, "scaled": 400, "tiny": 1500, "deep5": 300}

SCHEMES = {
    "base": lambda period: base_scheme(),
    "redhip": lambda period: redhip_scheme(recal_period=period),
    "redhip-frac": lambda period: redhip_scheme(
        recal_period=period, lookup_delay=2.5, name="ReDHiP-frac"),
}


def per_access_fold(kernel: ChargingKernel, record: AccessRecord, at,
                    miss_latencies, cpis):
    """The former fold, kept here as the reference: the miss latencies
    scattered into a per-access vector of L1 delays, and every core's
    compute gaps and latencies summed in access order by one bincount.
    Returns per-core ``(total, compute, memory)`` cycles."""
    cores = kernel.machine.cores
    latencies = np.full(record.num_accesses, float(kernel.par_d[1]))
    latencies[at] = miss_latencies
    gap_sums = np.bincount(record.core, weights=record.gap.astype(np.float64),
                           minlength=cores)
    memory = np.bincount(record.core, weights=latencies, minlength=cores)
    compute = gap_sums * cpis
    return compute + memory, compute, memory


@pytest.fixture(scope="module", params=sorted(MACHINES))
def walked(request):
    machine = get_machine(request.param)
    refs = REFS[request.param]
    cfg = SimConfig(machine=machine, refs_per_core=refs, seed=2)
    workload = get_workload("mcf", machine, refs, cfg.seed)
    sim = ContentSimulator(cfg)
    return cfg, workload, sim.walk(workload), sim.run(workload)


def test_every_registry_machine_is_covered():
    assert set(REFS) == set(MACHINES)


@pytest.mark.parametrize("scheme_key", sorted(SCHEMES))
@pytest.mark.parametrize("dram", [None, DramConfig()], ids=["flat", "dram"])
@pytest.mark.parametrize("mlp", [1.0, 1.3])
def test_run_timing_equals_per_access_fold(walked, scheme_key, dram, mlp,
                                           monkeypatch):
    cfg, workload, record, stream = walked
    assert stream.num_misses and stream.level_hits(1)
    scheme = SCHEMES[scheme_key](cfg.recal_period)
    folds, exact = [], []
    real_fold = ChargingKernel.run_timing
    real_exact = charging._exact_in_any_order

    def spy_fold(self, stream_, latencies, stall_cycles, codes=None,
                 histogram=None):
        result = real_fold(self, stream_, latencies, stall_cycles, codes,
                           histogram)
        lat = np.array(latencies, dtype=np.float64)
        timing, stall, row = result, stall_cycles, None
        if codes is not None:
            # A stack of one cell: one latency per decision code, and a
            # miss's code ends in its core.
            cores = self.machine.cores
            [timing], [stall], row = result, stall_cycles, codes[0]
            assert len(codes) == len(histogram) == 1
            assert histogram[0].tobytes() == np.bincount(
                row, minlength=lat.size * cores).tobytes()
            assert np.array_equal(row % cores, stream_.core)
            lat = np.repeat(lat, cores)[row]
        folds.append((self, lat, stall, row, timing))
        return result

    def spy_exact(*args):
        answer = real_exact(*args)
        exact.append(bool(np.squeeze(answer)))     # one row, or one bool
        return answer

    monkeypatch.setattr(ChargingKernel, "run_timing", spy_fold)
    monkeypatch.setattr(charging, "_exact_in_any_order", spy_exact)
    res = evaluate_scheme(stream, cfg.machine, scheme, workload, mlp=mlp,
                          dram=dram)
    [(kernel, lat, stall, codes, timing)] = folds
    assert timing is res.timing
    # A DRAM model charges each miss its own latency; otherwise the
    # latencies stay per decision code.
    assert (codes is None) == (dram is not None)
    assert lat.shape == (stream.num_misses,)
    # The paper's model (MLP 1, integral delays) takes the fast fold; a
    # fractional lookup delay always takes the ordered one.  (Under
    # MLP != 1 the latencies decide: some machines' stay integral.)
    if scheme_key == "redhip-frac":
        assert exact == [False]
    elif mlp == 1.0:
        assert exact == [True]
    total, compute, memory = per_access_fold(kernel, record, stream.at, lat,
                                             workload.cpis)
    assert timing.core_cycles.tobytes() == total.tobytes()
    assert timing.compute_cycles.tobytes() == compute.tobytes()
    assert timing.memory_cycles.tobytes() == memory.tobytes()
    assert res.exec_cycles == float(total.max() + stall)


def test_fold_beyond_exact_range_keeps_access_order(walked):
    """Integral latencies whose sums leave the exact float range must
    take the ordered fold, and it must still match the per-access one."""
    cfg, workload, record, stream = walked
    kernel = ChargingKernel(cfg.machine)
    rng = np.random.default_rng(7)
    lat = rng.integers(1, 50, size=stream.num_misses).astype(np.float64)
    lat[::3] += 2.0 ** 53
    assert not charging._exact_in_any_order(
        lat, float(kernel.par_d[1]), stream.num_accesses)
    timing = kernel.run_timing(stream, lat, 0.0)
    total, _, memory = per_access_fold(kernel, record, stream.at, lat,
                                       workload.cpis)
    assert timing.memory_cycles.tobytes() == memory.tobytes()
    assert timing.core_cycles.tobytes() == total.tobytes()
