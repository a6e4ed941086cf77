"""Declarative experiment driver: one place that runs any spec.

Every paper artifact is described by an :class:`ExperimentSpec` — id,
title, figure, sweep axes, scheme line-up, workloads — plus exactly one
implementation: either the ``cells``/``render`` grid pair, or a ``build``
callable that turns an :class:`ExperimentContext` into an
:class:`~repro.sim.report.ExperimentResult`.  :func:`run_spec` is the one
path every spec runs through, so the cross-cutting wiring happens exactly
once:

**One execution substrate** (DESIGN.md): a grid spec *compiles to* a
sweep — :func:`run_spec` expands the grid, executes it through
:func:`repro.sweep.scheduler.run_cells` against a
:class:`~repro.results.store.ResultsStore` (resumable, sharded,
journalled, fault-aware), and renders the artifact as a pure function of
the canonical store rows.  A config the cell vocabulary cannot express
(non-registry machines, coherent or timing-model variants, ``checked``
set on the config) is refused with a :class:`ConfigError`.  Pass
``store=<path>`` to keep the results store (a second run resumes from it);
by default each run uses a private temporary store, recomputing cells but
sharing content walks through a process-wide stream cache.  The grid's
shards run in the scheduler's process pool (``workers=``, else
``REPRO_PARALLEL`` when set, else one process).  ``build`` specs have
no store and no pool: they refuse ``store=`` and ``workers=``, and walk
serially in this process.

* **telemetry** — each run is wrapped in an ``experiment`` span and bumps
  the ``experiments.runs`` counter;
* **fault injection** — a config that names a fault plan
  (``SimConfig(faults=...)``) is activated before the build runs, even
  for specs that never construct a runner;
* **runner memoization** — the context's :attr:`ExperimentContext.runner`
  is the shared memoized runner for the resolved config, so specs that
  run back-to-back share content walks.

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
from repro.util.validation import ConfigError, ReproError

__all__ = ["ExperimentContext", "ExperimentSpec", "run_spec"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one reproducible artifact.

    A spec has exactly one implementation: ``build(ctx, **kwargs)``, or
    the ``cells``/``render`` grid pair.  Everything else is metadata the
    driver and the CLI (``repro experiments ls``) read without running
    anything.

    ``smoke_kwargs`` are the overrides a cheap registry-wide smoke pass
    uses (typically a two-workload subset).
    """

    experiment_id: str
    title: str
    build: "Callable[..., ExperimentResult] | None" = field(
        default=None, compare=False)
    #: Paper anchor ("Figure 6", "Table I") or "—" for extensions/ablations.
    figure: str = "—"
    #: "paper" | "extension" | "ablation".
    kind: str = "paper"
    #: Registry workload names the default run evaluates.
    workloads: tuple[str, ...] = ()
    #: Scheme names the artifact compares (display metadata).
    schemes: tuple[str, ...] = ()
    #: Swept axes, if the experiment is a parameter sweep.
    sweep: tuple[str, ...] = ()
    smoke_kwargs: Mapping[str, Any] = field(default_factory=dict, compare=False)
    notes: str = ""
    #: Grid protocol (both or neither): ``cells(cfg, **kwargs)`` compiles
    #: the experiment to canonical :class:`~repro.sweep.spec.CellSpec`
    #: instances; ``render(cfg, rows, **kwargs)`` turns the resulting
    #: store rows, keyed by canonical cell, into the artifact.
    #: :func:`run_spec` executes it through the sweep scheduler + results
    #: store.
    cells: "Callable[..., list] | None" = field(default=None, compare=False)
    render: "Callable[..., ExperimentResult] | None" = field(
        default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.cells is None) != (self.render is None):
            raise ConfigError(
                f"spec {self.experiment_id}: declare cells and render together")
        if (self.build is None) == (self.cells is None):
            raise ConfigError(
                f"spec {self.experiment_id}: declare exactly one "
                f"implementation, build or the cells/render pair")


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


#: Process-shared stream-cache directory for grid runs without an explicit
#: cache: private temporary stores come and go per figure, but the content
#: trajectories they replay are shared — ``repro run-all`` walks each one
#: once.  Created lazily, removed at interpreter exit.
_SHARED_STREAM_CACHE: "tempfile.TemporaryDirectory | None" = None


def _grid_stream_cache(cfg: SimConfig) -> "str | None":
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


def _off_grid(cfg: SimConfig) -> list[str]:
    """What a :class:`~repro.sweep.spec.CellSpec` cannot express about
    ``cfg`` — empty when the config is on the grid.

    A cell pins a *registry* machine by name plus the paper's timing
    model; a modified machine (``with_cores``/``deep_machine``),
    coherence, a relaxed §IV memory model, or ``checked=True`` set on the
    config object (rather than via ``REPRO_CHECKED``, which workers
    inherit) has no cell encoding.
    """
    try:
        registry = get_machine(cfg.machine.name) == cfg.machine
    except ConfigError:
        registry = False
    reasons = [
        (not registry, f"machine {cfg.machine.name!r} is not the registry "
                       f"machine of that name"),
        (cfg.coherent, "coherence"),
        (cfg.memory_latency != 0.0 or cfg.memory_energy_nj != 0.0,
         "memory latency/energy"),
        (cfg.mlp != 1.0, f"mlp={cfg.mlp}"),
        (cfg.dram is not None, "a DRAM model"),
        (cfg.checked, "checked=True on the config (set REPRO_CHECKED=1 "
                      "instead: grid workers honour it)"),
    ]
    return [reason for off, reason in reasons if off]


def _run_grid(spec: ExperimentSpec, cfg: SimConfig,
              store: "str | Path | None", workers: "int | None",
              kwargs: dict) -> ExperimentResult:
    """Execute a grid spec through the sweep substrate."""
    from repro.results.store import ResultsStore
    from repro.sweep.scheduler import default_workers, run_cells

    off_grid = _off_grid(cfg)
    if off_grid:
        raise ConfigError(
            f"experiment {spec.experiment_id} runs on the sweep grid, which "
            f"cannot express this off-grid config: {'; '.join(off_grid)}. "
            f"Use a registry machine with the paper timing model."
        )
    # Figures may list the same canonical cell twice (e.g. two sweep
    # points that collapse to the same period); run each once.  Each
    # expanded cell is fingerprinted exactly once, here: ``render`` looks
    # its rows up by cell.
    fingerprint_of: dict = {}
    by_fingerprint: dict = {}
    for cell in spec.cells(cfg, **kwargs):
        cell = cell.canonical()
        if cell not in fingerprint_of:
            fingerprint_of[cell] = cell.fingerprint()
        by_fingerprint.setdefault(fingerprint_of[cell], cell)
    cells, fingerprints = list(by_fingerprint.values()), list(by_fingerprint)
    if workers is None:
        workers = default_workers() if os.environ.get("REPRO_PARALLEL") else 1
    with _grid_store(store, spec.experiment_id) as store_path:
        stream_cache = _grid_stream_cache(cfg)
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
            by_row = {row["fingerprint"]: row for row in results.rows()}
    rows = {cell: by_row[fingerprint]
            for cell, fingerprint in fingerprint_of.items()
            if fingerprint in by_row}
    return spec.render(cfg, rows, **kwargs)


def run_spec(
    spec: ExperimentSpec, config: SimConfig | None = None,
    smoke: bool = False, store: "str | Path | None" = None,
    workers: "int | None" = None, **kwargs,
) -> ExperimentResult:
    """Run one spec: the single entry point for every experiment.

    ``smoke=True`` merges :attr:`ExperimentSpec.smoke_kwargs` under the
    caller's kwargs (explicit arguments win), which is how the CLI's
    ``repro experiments smoke`` and CI keep a registry-wide pass cheap.
    ``store`` persists the results store at that path so an interrupted
    figure resumes instead of recomputing.  ``workers`` is the width of
    the scheduler pool the grid's shards run in (``None``: the
    ``REPRO_PARALLEL`` width when that is set, else one process).  A
    ``build`` spec has neither a store nor a pool and raises
    :class:`ConfigError` for either.
    """
    if spec.build is not None:
        for value, flag in ((store, "store=/--store"), (workers, "workers=")):
            if value is not None:
                raise ConfigError(
                    f"experiment {spec.experiment_id} is not a grid "
                    f"experiment and keeps no results store or worker "
                    f"pool; drop {flag}"
                )
    cfg = config if config is not None else default_config()
    if smoke:
        kwargs = {**dict(spec.smoke_kwargs), **kwargs}
    with telemetry.span("experiment", experiment=spec.experiment_id):
        telemetry.count("experiments.runs", experiment=spec.experiment_id)
        faults.ensure(cfg)
        if spec.build is None:
            return _run_grid(spec, cfg, store, workers, kwargs)
        return spec.build(ExperimentContext(spec, cfg), **kwargs)
