"""Per-layer timing hooks: attach, run, detach, then read the spans.

The recorder follows the ``add_hooks`` / ``StatsRecorder`` /
``remove_hooks`` shape.  :meth:`Recorder.attach` replaces each public
layer function in :data:`HOOKS` with a timing wrapper *where its callers
look it up* (``repro.sim.runner.evaluate_scheme``, not only
``repro.sim.evaluate.evaluate_scheme``); :meth:`Recorder.detach` puts the
original objects back.  Used as a context manager the originals are
restored in a ``finally``, including when the traced call raises.

Each wrapped call becomes one :class:`Span` (name, start, end, parent).
The call's positional arguments and result are kept on the span and only
read after detach, so deriving counts (bytes, misses, refs) costs no traced time.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

#: (module, attribute path) of every hooked layer entry point.  The
#: attribute path is looked up on the module, so ``"Class.method"`` hooks
#: a method for every instance.
HOOKS = (
    ("repro.experiments.driver", "run_spec"),
    ("repro.sweep.scheduler", "run_cells"),
    ("repro.sweep.spec", "CellSpec.fingerprint"),
    ("repro.results.store", "ResultsStore.append"),
    ("repro.results.store", "ResultsStore.completed"),
    ("repro.results.store", "ResultsStore.rows"),
    ("repro.results.store", "ResultsStore.aggregate"),
    ("repro.results.store", "ResultsStore.export_csv"),
    ("repro.results.store", "ResultsStore.digest"),
    ("repro.sweep.journal", "SweepJournal.append"),
    ("repro.sweep.journal", "SweepJournal.sync"),
    ("repro.sim.runner", "get_workload"),
    ("repro.sim.content", "ContentSimulator.run"),
    ("repro.sim.streamcache", "StreamCache.save"),
    ("repro.sim.streamcache", "StreamCache.load"),
    ("repro.sim.runner", "evaluate_scheme"),
    ("repro.sim.vector_replay", "replay_redhip_vectorized"),
    ("repro.sim.evaluate", "replay_predictor"),
    ("repro.sim.evaluate", "replay_level_predictor"),
    ("repro.sim.evaluate", "replay_ehc"),
    ("repro.sim.charging", "ChargingKernel.run_timing"),
    ("repro.sim.integrated", "IntegratedSimulator.run_exclusive_redhip"),
)


@dataclass
class Span:
    """One hooked call.  ``parent`` indexes the enclosing span."""

    name: str
    start: float
    parent: "int | None"
    end: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Timing wrappers over ``hooks``; spans accumulate in :attr:`spans`."""

    def __init__(self, hooks=HOOKS, clock=time.perf_counter) -> None:
        self.hooks = hooks
        self.spans: list[Span] = []
        self._clock = clock
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def attach(self) -> "Recorder":
        for module, path in self.hooks:
            *owner_path, attr = path.split(".")
            owner = importlib.import_module(module)
            for name in owner_path:
                owner = getattr(owner, name)
            # The raw descriptor (function or staticmethod), exactly as
            # stored, so detach can put back the identical object.
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(path, original))
            self._saved.append((owner, attr, original))
        return self

    def detach(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        try:
            return self.attach()
        except BaseException:
            self.detach()
            raise

    def __exit__(self, *exc) -> bool:
        self.detach()
        return False

    def _wrap(self, name: str, original):
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        spans, opened, clock = self.spans, self._open, self._clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(name, clock(), opened[-1] if opened else None)
            opened.append(len(spans))
            spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = clock()
                span.args = args
                opened.pop()

        return staticmethod(timed) if static else timed


def self_times(spans: "list[Span]") -> list:
    """Each span's duration minus the durations of its direct children.

    One thread, so children nest inside their parent and never overlap.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def chrome_events(spans: "list[Span]", run_id: str, pid: int) -> list:
    """The spans as Chrome ``trace_event`` complete events (microseconds)."""
    return [
        {"name": span.name, "cat": span.name.split(".")[0], "ph": "X",
         "ts": span.start * 1e6, "dur": span.duration * 1e6,
         "pid": pid, "tid": 0,
         "args": {"span": index, "parent": span.parent, "run": run_id}}
        for index, span in enumerate(spans)
    ]


def layer_metrics(spans: "list[Span]", wall_s: float, cell_walls: list) -> dict:
    """Per-layer metrics of one traced run, keyed by the names in
    ``BENCHMARK.json`` (``trace.overhead_frac`` needs the untraced runs and
    is added by the caller).  ``cell_walls`` are the store rows' per-cell
    ``wall_s``.  A rate over a layer that never ran reads 0.0."""
    import numpy as np
    from repro.sim import vector_content

    own = self_times(spans)
    calls: dict = {}
    for span, secs in zip(spans, own):
        calls.setdefault(span.name, []).append((span, secs))

    def spent(name: str) -> float:
        return sum(secs for _, secs in calls.get(name, ()))

    def count(name: str) -> int:
        return len(calls.get(name, ()))

    def rate(work: float, secs: float) -> float:
        return work / secs if secs > 0 else 0.0

    out: dict = {}

    builds = calls.get("get_workload", ())
    out["workloads.build_s"] = spent("get_workload")
    out["workloads.builds"] = len(builds)
    out["workloads.refs_per_s"] = rate(
        sum(span.result.total_refs for span, _ in builds), out["workloads.build_s"])

    walks = {"vector": [0, 0, 0.0], "sequential": [0, 0, 0.0]}
    for span, secs in calls.get("ContentSimulator.run", ()):
        path = "vector" if vector_content.eligible(span.args[0].config) else "sequential"
        walks[path][0] += 1
        walks[path][1] += span.result.num_accesses
        walks[path][2] += secs
    out["content.walk_s"] = spent("ContentSimulator.run")
    for path, (n, refs, secs) in walks.items():
        out[f"content.{path}_walks"] = n
        out[f"content.{path}_refs_per_s"] = rate(refs, secs)

    saves = calls.get("StreamCache.save", ())
    loads = calls.get("StreamCache.load", ())
    hits = [(span, secs) for span, secs in loads if span.result is not None]
    saved_mb = sum(span.result.stat().st_size for span, _ in saves
                   if span.result is not None) / 2**20
    loaded_mb = sum(span.args[0].path_for(span.args[1]).stat().st_size
                    for span, _ in hits) / 2**20
    out["streamcache.save_s"] = spent("StreamCache.save")
    out["streamcache.load_s"] = spent("StreamCache.load")
    out["streamcache.saves"] = len(saves)
    out["streamcache.loads"] = len(loads)
    out["streamcache.hit_ratio"] = len(hits) / len(loads) if loads else 0.0
    out["streamcache.save_mb_per_s"] = rate(saved_mb, out["streamcache.save_s"])
    out["streamcache.load_mb_per_s"] = rate(loaded_mb, out["streamcache.load_s"])

    for kind, name in (("vector", "replay_redhip_vectorized"),
                       ("sequential", "replay_predictor"),
                       ("levelpred", "replay_level_predictor"),
                       ("ehc", "replay_ehc")):
        replays = calls.get(name, ())
        misses = sum(int(np.count_nonzero(span.args[0].hit_level != 1))
                     for span, _ in replays)
        out[f"replay.{kind}_s"] = spent(name)
        out[f"replay.{kind}_calls"] = len(replays)
        out[f"replay.{kind}_misses_per_s"] = rate(misses, spent(name))

    evaluations = calls.get("evaluate_scheme", ())
    out["evaluate.calls"] = len(evaluations)
    out["evaluate.charge_s"] = spent("evaluate_scheme")
    out["evaluate.accesses_per_s"] = rate(
        sum(span.args[0].num_accesses for span, _ in evaluations),
        out["evaluate.charge_s"])
    out["charging.timing_s"] = spent("ChargingKernel.run_timing")

    integrated = calls.get("IntegratedSimulator.run_exclusive_redhip", ())
    out["integrated.run_s"] = spent("IntegratedSimulator.run_exclusive_redhip")
    out["integrated.runs"] = len(integrated)
    out["integrated.accesses_per_s"] = rate(
        sum(span.args[1].total_refs for span, _ in integrated),
        out["integrated.run_s"])

    reports = [span.result for span, _ in calls.get("run_cells", ())
               if span.result is not None]
    cells = sum(report.total for report in reports)
    out["spec.fingerprints"] = count("CellSpec.fingerprint")
    out["spec.fingerprint_s"] = spent("CellSpec.fingerprint")
    out["spec.fingerprints_per_cell"] = rate(out["spec.fingerprints"], cells)

    out["scheduler.cells"] = cells
    out["scheduler.cells_failed"] = sum(len(report.failed) for report in reports)
    out["scheduler.self_s"] = spent("run_cells")
    out["scheduler.overhead_ms_per_cell"] = rate(1e3 * out["scheduler.self_s"], cells)
    p50, p90 = np.percentile(cell_walls, (50, 90)) if cell_walls else (0.0, 0.0)
    out["scheduler.cell_wall_p50_ms"] = 1e3 * float(p50)
    out["scheduler.cell_wall_p90_ms"] = 1e3 * float(p90)

    appends = calls.get("ResultsStore.append", ())
    out["store.append_s"] = spent("ResultsStore.append")
    out["store.appends"] = len(appends)
    out["store.append_ms_per_row"] = rate(1e3 * out["store.append_s"], len(appends))
    out["store.append_accept_ratio"] = (
        sum(bool(span.result) for span, _ in appends) / len(appends)
        if appends else 0.0)
    out["store.completed_s"] = spent("ResultsStore.completed")
    out["store.rows_s"] = spent("ResultsStore.rows")
    out["store.query_s"] = (spent("ResultsStore.aggregate")
                            + spent("ResultsStore.export_csv"))
    out["store.digest_s"] = spent("ResultsStore.digest")

    out["journal.events"] = count("SweepJournal.append")
    out["journal.append_s"] = spent("SweepJournal.append")
    out["journal.sync_s"] = spent("SweepJournal.sync")

    out["driver.run_spec_s"] = sum(span.duration for span, _ in calls.get("run_spec", ()))
    out["driver.self_s"] = spent("run_spec")

    covered = sum(span.duration for span in spans if span.parent is None)
    out["trace.unattributed_frac"] = rate(max(0.0, wall_s - covered), wall_s)
    return out
