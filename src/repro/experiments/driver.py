"""Declarative experiment driver: one place that runs any spec.

Every paper artifact is described by an :class:`ExperimentSpec` — id,
title, figure, sweep axes, scheme line-up, workloads — plus a ``build``
callable that turns an :class:`ExperimentContext` into an
:class:`~repro.sim.report.ExperimentResult`.  :func:`run_spec` is the one
path every spec runs through, so the cross-cutting wiring happens exactly
once:

**One execution substrate** (DESIGN.md): a spec that also declares the
``cells``/``render`` pair *compiles to* a sweep — :func:`run_spec` expands
the grid, executes it through :func:`repro.sweep.scheduler.run_cells`
against a :class:`~repro.results.store.ResultsStore` (resumable, sharded,
journalled, fault-aware), and renders the artifact as a pure function of
the canonical store rows.  ``build`` remains the fallback for configs the
grid vocabulary cannot express (non-registry machines, coherent or
timing-model variants) and for genuinely non-grid artifacts.  Pass
``store=<path>`` to keep the results store (a second run resumes from it);
by default each run uses a private temporary store, recomputing cells but
sharing content walks through a process-wide stream cache.

* **telemetry** — each run is wrapped in an ``experiment`` span and bumps
  the ``experiments.runs`` counter;
* **fault injection** — a config that names a fault plan
  (``SimConfig(faults=...)``) is activated before the build runs, even
  for specs that never construct a runner;
* **runner memoization** — the context's :attr:`ExperimentContext.runner`
  is the shared memoized runner for the resolved config, so specs that
  run back-to-back share content walks;
* **parallel prewarm** — when the user opts in via ``REPRO_PARALLEL``,
  the spec's workload list is walked through the process pool before the
  build starts evaluating schemes.

The registry (:mod:`repro.experiments.registry`) maps artifact ids to
specs; the per-figure modules keep thin ``run(config=None, **kwargs)``
wrappers that route through here, so both ``run_experiment("fig6")`` and
``fig6_speedup.run()`` are the same code path.
"""

from __future__ import annotations

import atexit
import os
import tempfile
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro import faults, telemetry
from repro.energy.params import get_machine
from repro.experiments.context import default_config, get_runner
from repro.sim.config import SimConfig
from repro.sim.report import ExperimentResult
from repro.util.validation import ReproError

__all__ = ["ExperimentContext", "ExperimentSpec", "griddable", "run_spec"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproducible artifact.

    ``build(ctx, **kwargs)`` does the experiment-specific work; everything
    else is metadata the driver and the CLI (``repro experiments ls``)
    read without running anything.

    ``smoke_kwargs`` are the overrides a cheap registry-wide smoke pass
    uses (typically a two-workload subset); ``uses_runner`` is False for
    static artifacts (Figure 1's historical dataset, Table I's parameter
    cross-check) that never touch content streams.
    """

    experiment_id: str
    title: str
    build: Callable[..., ExperimentResult] = field(compare=False)
    #: Paper anchor ("Figure 6", "Table I") or "—" for extensions/ablations.
    figure: str = "—"
    #: "paper" | "extension" | "ablation".
    kind: str = "paper"
    #: Registry workload names the default run evaluates (prewarm list).
    workloads: tuple[str, ...] = ()
    #: Scheme names the artifact compares (display metadata).
    schemes: tuple[str, ...] = ()
    #: Swept axes, if the experiment is a parameter sweep.
    sweep: tuple[str, ...] = ()
    uses_runner: bool = True
    smoke_kwargs: Mapping[str, Any] = field(default_factory=dict, compare=False)
    notes: str = ""
    #: Grid protocol (both or neither): ``cells(cfg, **kwargs)`` compiles
    #: the experiment to canonical :class:`~repro.sweep.spec.CellSpec`
    #: instances; ``render(cfg, rows, **kwargs)`` turns the resulting
    #: fingerprint-keyed store rows into the artifact.  When present and
    #: the config is :func:`griddable`, :func:`run_spec` executes through
    #: the sweep scheduler + results store instead of ``build``.
    cells: "Callable[..., list] | None" = field(default=None, compare=False)
    render: "Callable[..., ExperimentResult] | None" = field(
        default=None, compare=False)


class ExperimentContext:
    """What a spec's ``build`` receives: the resolved config plus the
    memoized runner for it (built lazily, so runner-less specs never pay
    for one)."""

    def __init__(self, spec: ExperimentSpec, config: SimConfig) -> None:
        self.spec = spec
        self.config = config

    @property
    def runner(self):
        return get_runner(self.config)


def _maybe_prewarm(ctx: ExperimentContext, workloads) -> None:
    """Fan the spec's content walks over a process pool — only when the
    user opted in with ``REPRO_PARALLEL`` (the serial default stays the
    default), and only for registry-named workloads.

    Non-string entries (explicit :class:`Workload` objects, which cannot
    be rebuilt by name inside a worker) stay on the serial path; dropping
    them is correct but must not be silent — a sweep that expected a
    parallel prewarm and got none needs the event to explain why.
    """
    if not workloads or not os.environ.get("REPRO_PARALLEL"):
        return
    from repro.sim.parallel import prewarm_streams

    workloads = list(workloads)
    names = [w for w in workloads if isinstance(w, str)]
    if len(names) < len(workloads):
        telemetry.event(
            "prewarm.skipped_workloads",
            experiment=ctx.spec.experiment_id,
            skipped=len(workloads) - len(names),
            total=len(workloads),
            reason="non-registry workload objects cannot prewarm by name",
        )
    if len(names) > 1:
        prewarm_streams(ctx.runner, names)


def griddable(cfg: SimConfig) -> bool:
    """Can the cell vocabulary express this config exactly?

    A :class:`~repro.sweep.spec.CellSpec` pins a *registry* machine by
    name plus the paper's timing model; a config that modifies the machine
    (``with_cores``/``deep_machine``), turns on coherence, or relaxes the
    §IV memory model has no cell encoding and stays on the imperative
    ``build`` path.  ``checked=True`` set on the config object (rather
    than via ``REPRO_CHECKED``, which workers inherit) is likewise not
    representable.
    """
    try:
        registry = get_machine(cfg.machine.name)
    except Exception:
        return False
    return (
        registry == cfg.machine
        and not cfg.coherent
        and cfg.memory_latency == 0.0
        and cfg.memory_energy_nj == 0.0
        and cfg.mlp == 1.0
        and cfg.dram is None
        and not cfg.checked
    )


#: Process-shared stream-cache directory for grid runs without an explicit
#: cache: private temporary stores come and go per figure, but the content
#: trajectories they replay are shared — ``repro run-all`` walks each one
#: once.  Created lazily, removed at interpreter exit.
_SHARED_STREAM_CACHE: "tempfile.TemporaryDirectory | None" = None


def _grid_stream_cache(cfg: SimConfig, store_path: Path) -> "str | None":
    from repro.sim.streamcache import CACHE_ENV

    if cfg.stream_cache:
        return cfg.stream_cache
    if os.environ.get(CACHE_ENV, "").strip():
        return None  # resolve_cache honours the environment directly
    global _SHARED_STREAM_CACHE
    if _SHARED_STREAM_CACHE is None:
        _SHARED_STREAM_CACHE = tempfile.TemporaryDirectory(
            prefix="repro-experiments-cache-")
        atexit.register(_SHARED_STREAM_CACHE.cleanup)
    return _SHARED_STREAM_CACHE.name


@contextmanager
def _grid_store(store: "str | Path | None", experiment_id: str):
    """The store path a grid run writes: the caller's (kept, resumable)
    or a run-private temporary one (recomputed every time)."""
    if store is not None:
        yield Path(store)
        return
    with tempfile.TemporaryDirectory(prefix="repro-experiment-") as tmp:
        yield Path(tmp) / f"{experiment_id}.sqlite"


def _run_grid(spec: ExperimentSpec, cfg: SimConfig,
              store: "str | Path | None", kwargs: dict) -> ExperimentResult:
    """Execute a grid-declaring spec through the sweep substrate."""
    from repro.results.store import ResultsStore
    from repro.sim.parallel import default_workers
    from repro.sweep.scheduler import run_cells

    # Figures may list the same canonical cell twice (e.g. two sweep
    # points that collapse to the same period); run each once.
    by_fingerprint: dict = {}
    for cell in spec.cells(cfg, **kwargs):
        by_fingerprint.setdefault(cell.fingerprint(), cell)
    cells, fingerprints = list(by_fingerprint.values()), list(by_fingerprint)
    workers = default_workers() if os.environ.get("REPRO_PARALLEL") else 1
    with _grid_store(store, spec.experiment_id) as store_path:
        stream_cache = _grid_stream_cache(cfg, store_path)
        run = partial(run_cells, cells, spec.experiment_id, store_path,
                      workers=workers, faults_plan=cfg.faults,
                      stream_cache=stream_cache, fingerprints=fingerprints)
        report = run()
        if report.failed:
            # One retry pass: transient failures (injected cell faults,
            # lost workers) heal on resume; persistent ones are real.
            report = run()
        if report.failed:
            failed = ", ".join(label for _, label, _ in report.failed)
            raise ReproError(
                f"experiment {spec.experiment_id}: {len(report.failed)} "
                f"cell(s) failed after retry: {failed}"
            )
        with ResultsStore(store_path) as results:
            rows = {row["fingerprint"]: row for row in results.rows()}
    return spec.render(cfg, rows, **kwargs)


def run_spec(
    spec: ExperimentSpec, config: SimConfig | None = None,
    smoke: bool = False, store: "str | Path | None" = None, **kwargs,
) -> ExperimentResult:
    """Run one spec: the single entry point for every experiment.

    ``smoke=True`` merges :attr:`ExperimentSpec.smoke_kwargs` under the
    caller's kwargs (explicit arguments win), which is how the CLI's
    ``repro experiments smoke`` and CI keep a registry-wide pass cheap.
    ``store`` (grid specs only) persists the results store at that path so
    an interrupted figure resumes instead of recomputing.
    """
    cfg = config if config is not None else default_config()
    if smoke:
        kwargs = {**dict(spec.smoke_kwargs), **kwargs}
    with telemetry.span("experiment", experiment=spec.experiment_id):
        telemetry.count("experiments.runs", experiment=spec.experiment_id)
        faults.ensure(cfg)
        if spec.cells is not None and spec.render is not None and griddable(cfg):
            return _run_grid(spec, cfg, store, kwargs)
        ctx = ExperimentContext(spec, cfg)
        if spec.uses_runner:
            _maybe_prewarm(ctx, kwargs.get("workloads", spec.workloads))
        return spec.build(ctx, **kwargs)
