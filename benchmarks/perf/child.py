"""One benchmark child: run one workload once in a fresh process.

``run.py`` starts this file once per timed run with a scrubbed
environment (no ``REPRO_*`` variables, ``PYTHONPATH=src``), so every run
is a single-threaded process with ``workers=1``, a fresh results store
and, for cold workloads, a fresh stream-cache directory.  The job is one
JSON argument; the result is one JSON line on standard output::

    python benchmarks/perf/child.py '{"mode": "run", "workload": "fig6-warm", ...}'

Modes: ``ready`` stops once the child is ready to run (imports done,
cells expanded); ``prefill`` then walks every content trajectory the
workload needs into ``cache`` and reports how long that took (set-up of
the warm workloads); ``run`` times the workload; ``trace`` times it with
the hooks of :mod:`recorder` attached and adds the per-layer metrics.
Every mode reports ``ready_at``, the monotonic time it became ready, and
``cal_s``, the host's speed just then: the seconds :func:`calibrate`
took, measured after ``ready_at`` and again after the timed work.

Importing this module imports nothing from ``repro``, so ``run.py`` can
read :data:`WORKLOADS` from a checkout without the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Bench:
    """The inputs of one workload; the seed comes from the command line."""

    #: Registry experiment run through ``run_spec``; ``None`` runs the
    #: sweep grid through ``run_cells`` instead.
    experiment: "str | None"
    machine: str
    refs_per_core: int
    #: Warm workloads read a stream cache filled during set-up; cold ones
    #: start every run from an empty cache.
    warm: bool
    #: Workload subset passed to the experiment, or the grid's workloads.
    workloads: "tuple | None" = None
    #: Grid only: seeds per workload (``seed .. seed + grid_seeds - 1``).
    grid_seeds: int = 0


#: The five benchmark workloads.  The names are referred to by
#: ``BENCHMARK.json``, ``expected.json`` and the README.
WORKLOADS = {
    "fig6-cold": Bench("fig6", "scaled", 20_000, warm=False),
    "fig6-warm": Bench("fig6", "scaled", 20_000, warm=True),
    "recal-warm": Bench("study-recal", "scaled", 40_000, warm=True),
    "inclusion-cold": Bench("fig13", "scaled", 20_000, warm=False,
                            workloads=("mcf", "lbm", "soplex", "mix")),
    "grid-many": Bench(None, "tiny", 1_500, warm=True,
                       workloads=("bwaves", "GemsFDTD", "lbm", "mcf",
                                  "milc", "soplex", "astar", "cactusADM"),
                       grid_seeds=6),
}


#: Seconds :func:`calibrate` takes on the reference host (a calm spell of
#: a 2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4).  ``run.py`` scales
#: every timing by ``REF_CAL_S / cal_s`` to express it at that speed.
REF_CAL_S = 0.040


def _interpreted_loop() -> int:
    table: dict = {}
    total = 0
    for i in range(200_000):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
        total += key
    return total


def calibrate() -> float:
    """Seconds a fixed kernel takes on this host right now (median of 3).

    The kernel mixes what the simulator spends its time on, an
    interpreted dict-and-integer loop and a NumPy gather and sort, and
    uses nothing from ``repro``, so no change to the program moves it.
    On a shared host the speed of both drifts by tens of per cent within
    a minute; dividing a timing by this reading taken beside it removes
    most of that drift.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    values = rng.integers(0, 1 << 30, 1_000_000)
    picks = rng.integers(0, values.size, 300_000)
    reps = []
    for _ in range(3):
        t0 = time.perf_counter()
        _interpreted_loop()
        int(np.sort(values[picks]).sum())
        reps.append(time.perf_counter() - t0)
    return sorted(reps)[1]


def smoke_shape(bench: Bench) -> Bench:
    """The ``--smoke`` shape: tiny machine, two workloads, two grid seeds."""
    pick = bench.workloads or ("mcf", "bwaves")
    return replace(bench, machine="tiny", refs_per_core=1_500,
                   workloads=pick[:2],
                   grid_seeds=min(bench.grid_seeds, 2))


def _grid_cells(bench: Bench, seed: int) -> list:
    from repro.sweep.spec import SWEEP_SCHEMES, SweepSpec

    return SweepSpec(
        name="grid-many", machines=(bench.machine,),
        workloads=bench.workloads, schemes=SWEEP_SCHEMES,
        refs_per_core=bench.refs_per_core,
        seeds=tuple(range(seed, seed + bench.grid_seeds)),
        pt_kb=(None, 1.0), recal_multiples=(1.0, float("inf")),
    ).cells()


def _experiment(bench: Bench, seed: int, cache: str) -> tuple:
    """(spec, config, kwargs, distinct cells) of a ``run_spec`` workload."""
    from repro.energy.params import get_machine
    from repro.experiments.registry import get_spec
    from repro.sim.config import SimConfig

    spec = get_spec(bench.experiment)
    cfg = SimConfig(machine=get_machine(bench.machine),
                    refs_per_core=bench.refs_per_core, seed=seed,
                    stream_cache=cache)
    kwargs = {"workloads": bench.workloads} if bench.workloads else {}
    cells = list({c.fingerprint(): c for c in spec.cells(cfg, **kwargs)}.values())
    return spec, cfg, kwargs, cells


def _prefill(cells: list, cache: str) -> None:
    """Walk (and save) each distinct content trajectory of ``cells``."""
    from repro.sim.runner import ExperimentRunner
    from repro.sweep.scheduler import shard_cells

    for shard in shard_cells(cells):
        ExperimentRunner(shard[0].sim_config(stream_cache=cache)).stream(
            shard[0].workload)


def _run_grid(cells: list, store: str, cache: str) -> str:
    """The grid workload: run, resume (every cell already stored), then
    the query tail.  Returns the artifact text that gets hashed."""
    from repro.results.store import ResultsStore, canonical_json
    from repro.sweep import scheduler

    for _ in range(2):
        scheduler.run_cells(cells, "grid-many", store, workers=1,
                            stream_cache=cache)
    with ResultsStore(store) as results:
        rows = results.rows()
        by_scheme = results.aggregate("total_nj", by=("scheme",))
        # Provenance columns (wall time, insertion time) differ per run.
        columns = [key for key in rows[0]
                   if key not in ("wall_s", "faults", "created_at")]
        csv = results.export_csv(rows, columns)
        results.digest()
    return csv + canonical_json({"total_nj_by_scheme": by_scheme})


def _fig6_model(result) -> dict:
    """Per-scheme average speedups beside the paper's reported averages."""
    from repro.experiments.fig6_speedup import PAPER_AVERAGES

    averages = result.series["average"]
    return {scheme: {"measured": averages[scheme], "paper": paper,
                     "error": averages[scheme] - paper}
            for scheme, paper in PAPER_AVERAGES.items()}


def _store_facts(store: str) -> tuple:
    """(digest, simulated refs, per-cell wall seconds, journalled cell
    failures) of a finished run's store."""
    from repro.energy.params import get_machine
    from repro.results.store import ResultsStore
    from repro.sweep.journal import journal_path, read_journal

    with ResultsStore(store) as results:
        digest = results.digest()
        rows = results.rows()
    refs = sum(row["refs_per_core"] * get_machine(row["machine"]).cores
               for row in rows)
    journal = journal_path(store)
    records = read_journal(journal)[0] if journal.exists() else []
    failed = sum(1 for rec in records if rec["event"] == "cell_failed")
    return digest, refs, [row["wall_s"] for row in rows], failed


def main(job: dict) -> dict:
    from recorder import Recorder, chrome_events, layer_metrics
    from repro.experiments import driver
    from repro.sweep import scheduler  # noqa: F401  (imported before ready)

    bench = WORKLOADS[job["workload"]]
    if job.get("smoke"):
        bench = smoke_shape(bench)
    seed, cache, store = job["seed"], job["cache"], job["store"]
    if bench.experiment is None:
        cells = _grid_cells(bench, seed)
        attempted = 2 * len(cells)
    else:
        spec, cfg, kwargs, cells = _experiment(bench, seed, cache)
        attempted = len(cells)

    ready_at = time.monotonic()
    cal_before = calibrate()
    if job["mode"] == "ready":
        return {"ready_at": ready_at, "cal_s": cal_before}
    if job["mode"] == "prefill":
        t0 = time.perf_counter()
        _prefill(cells, cache)
        prefill_s = time.perf_counter() - t0
        return {"ready_at": ready_at, "prefill_s": prefill_s,
                "cal_s": (cal_before + calibrate()) / 2}

    recorder = Recorder() if job["mode"] == "trace" else None
    out = {"ready_at": ready_at, "attempted": attempted, "error": None}
    # The calibration's arrays must not set the peak: restart the
    # kernel's high-water mark from the current RSS (Linux).
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    if recorder is not None:
        recorder.attach()
    t0 = time.perf_counter()
    try:
        if bench.experiment is None:
            table = _run_grid(cells, store, cache)
        else:
            result = driver.run_spec(spec, cfg, store=store, **kwargs)
            table = result.table
            if bench.experiment == "fig6":
                out["model"] = _fig6_model(result)
    except Exception as exc:  # reported and counted as failed cells
        table = ""
        out["error"] = f"{exc.__class__.__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        if recorder is not None:
            recorder.detach()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["cal_s"] = (cal_before + calibrate()) / 2
    digest, refs, cell_walls, failed = _store_facts(store)
    out.update(wall_s=wall, refs=refs, failed=failed, digest=digest,
               table_sha256=hashlib.sha256(table.encode()).hexdigest())
    if recorder is not None:
        out["layers"] = layer_metrics(recorder.spans, wall, cell_walls)
        if job.get("events"):
            with open(job["events"], "w") as fh:
                json.dump(chrome_events(recorder.spans, job["run_id"],
                                        os.getpid()), fh)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
