"""Experiment orchestration with content-trajectory caching.

The expensive part of any figure is the content walk (one pass of the full
multi-core trace through the hierarchy).  Because the walk is
scheme-independent, the runner caches one :class:`OutcomeStream` per
(workload, machine, policy, refs, seed, replacement) and re-evaluates every
scheme against it in milliseconds — so regenerating Figure 6 costs one walk
per workload, not one per (workload, scheme).

Workloads themselves are also cached: the same trace arrays serve every
policy's walk and the integrated runs, exactly as the paper's Pin trace
files did.  Two-phase evaluation never needs them once a stream exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import checking, faults, telemetry
from repro.hierarchy.events import OutcomeStream
from repro.hierarchy.inclusion import InclusionPolicy
from repro.predictors.base import SchemeSpec
from repro.sim.config import SimConfig
from repro.sim.content import ContentSimulator
from repro.sim.evaluate import SchemeResult, evaluate_scheme, evaluate_schemes
from repro.sim.integrated import IntegratedSimulator, PrefetchConfig
from repro.sim.streamcache import resolve_cache, stream_key
from repro.util.validation import ConfigError
from repro.workloads import get_workload
from repro.workloads.trace import Workload

__all__ = ["ExperimentRunner"]


@dataclass
class ExperimentRunner:
    """Caches workloads and content streams; runs scheme evaluations."""

    config: SimConfig
    #: Seconds spent per stage, traced or not: ``walk`` (the content walks
    #: of :meth:`stream`), ``replay`` and ``charge`` (:meth:`run_many`'s
    #: replay and charging passes).  The sweep scheduler journals them.
    stage_s: dict[str, float] = field(default_factory=dict, repr=False)
    _workloads: dict[tuple, Workload] = field(default_factory=dict, repr=False)
    _streams: dict[tuple, OutcomeStream] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # A config that asks for telemetry (SimConfig(telemetry=True) /
        # REPRO_TELEMETRY=1) gets a collection session even in pure-API
        # use; the CLI and bench harness manage their own scoped sessions.
        if telemetry.enabled(self.config) and telemetry.active() is None:
            telemetry.start(label=f"runner-{self.config.machine.name}")
        # Same pattern for fault injection: a config that names a plan
        # (SimConfig(faults="plan.json")) activates it unless a scoped
        # injector (repro chaos, the test suite) is already installed.
        faults.ensure(self.config)

    # ------------------------------------------------------------ workloads
    def add_workload(self, workload: Workload) -> str:
        """Register an explicit workload (custom traces, loaded trace
        files); it becomes addressable by its name like registry entries."""
        key = (workload.name, self.config.machine.name,
               self.config.refs_per_core, self.config.seed)
        self._workloads[key] = workload
        return workload.name

    def _resolve(self, workload: "str | Workload") -> str:
        if isinstance(workload, Workload):
            return self.add_workload(workload)
        return workload

    def workload(self, name: "str | Workload") -> Workload:
        name = self._resolve(name)
        key = (name, self.config.machine.name, self.config.refs_per_core, self.config.seed)
        if key not in self._workloads:
            with telemetry.span("workload_build", workload=name):
                self._workloads[key] = get_workload(
                    name, self.config.machine, self.config.refs_per_core, self.config.seed
                )
            telemetry.count("workload.builds")
        return self._workloads[key]

    # -------------------------------------------------------------- content
    def stream(self, workload_name: "str | Workload",
               policy: InclusionPolicy | str | None = None) -> OutcomeStream:
        """The (possibly cached) content stream for one workload.

        Lookup order: in-process cache, then the persistent disk cache
        (when enabled via ``SimConfig.stream_cache`` /
        ``REPRO_STREAM_CACHE`` — loads are fingerprint-verified), then a
        fresh content walk whose result is written back to both.
        """
        workload_name = self._resolve(workload_name)
        cfg = self.config if policy is None else self.config.with_policy(policy)
        key = (workload_name, *cfg.cache_key())
        if key not in self._streams:
            disk = resolve_cache(cfg)
            stream = None
            if disk is not None:
                with telemetry.span("cache_load", workload=workload_name):
                    stream = disk.load(stream_key(workload_name, cfg))
            if stream is None:
                workload = self.workload(workload_name)
                began = time.perf_counter()
                stream = ContentSimulator(cfg).run(workload)
                self.stage_s["walk"] = (self.stage_s.get("walk", 0.0)
                                        + time.perf_counter() - began)
                if disk is not None:
                    with telemetry.span("cache_save", workload=workload_name):
                        disk.save(stream_key(workload_name, cfg), stream)
            self._streams[key] = stream
        else:
            telemetry.count("runner.memo_hit")
        return self._streams[key]

    # ------------------------------------------------------------ two-phase
    def run(self, workload_name: "str | Workload", scheme: SchemeSpec,
            policy: InclusionPolicy | str | None = None) -> SchemeResult:
        """Two-phase evaluation (fast path).

        Predictor schemes require an LLC-superset policy; exclusive
        hierarchies must use :meth:`run_integrated` /
        :meth:`run_exclusive_redhip`.  The stream carries everything the
        evaluation reads, so a stream served from a cache builds no
        workload.
        """
        workload_name = self._resolve(workload_name)
        cfg = self.config if policy is None else self.config.with_policy(policy)
        if scheme.consults_table and not cfg.policy.llc_is_superset:
            raise ConfigError(
                "two-phase evaluation of predictor schemes needs an "
                "LLC-superset (inclusive/hybrid) policy"
            )
        stream = self.stream(workload_name, policy=cfg.policy)
        return evaluate_scheme(
            stream,
            cfg.machine,
            scheme,
            workload_name,
            fill_energy_weight=cfg.fill_energy_weight,
            memory_latency=cfg.memory_latency,
            memory_energy_nj=cfg.memory_energy_nj,
            mlp=cfg.mlp,
            dram=cfg.dram,
            checked=checking.enabled(cfg),
        )

    def run_many(self, workload_name: "str | Workload", schemes,
                 policy: InclusionPolicy | str | None = None) -> tuple[list, list]:
        """Two-phase evaluation of several schemes over one stream in one
        batch (:func:`~repro.sim.evaluate.evaluate_schemes`).

        Returns, per scheme, its :class:`SchemeResult` or the exception
        that failed it (a predictor scheme under a policy that is no
        LLC superset fails as :meth:`run` would), and its seconds: its own
        replay plus an equal share of the batch's shared work, the stream
        lookup included.
        """
        start = time.perf_counter()
        workload_name = self._resolve(workload_name)
        cfg = self.config if policy is None else self.config.with_policy(policy)
        schemes = list(schemes)
        if not schemes:
            return [], []
        results: list = [None] * len(schemes)
        batch = []
        for k, scheme in enumerate(schemes):
            if scheme.consults_table and not cfg.policy.llc_is_superset:
                results[k] = ConfigError(
                    "two-phase evaluation of predictor schemes needs an "
                    "LLC-superset (inclusive/hybrid) policy")
            else:
                batch.append(k)
        walls = [0.0] * len(schemes)
        if batch:
            stream = self.stream(workload_name, policy=cfg.policy)
            done, spent = evaluate_schemes(
                stream, cfg.machine, [schemes[k] for k in batch], workload_name,
                fill_energy_weight=cfg.fill_energy_weight,
                memory_latency=cfg.memory_latency,
                memory_energy_nj=cfg.memory_energy_nj, mlp=cfg.mlp, dram=cfg.dram,
                checked=checking.enabled(cfg), stages=self.stage_s)
            for k, result, wall in zip(batch, done, spent):
                results[k], walls[k] = result, wall
        share = (time.perf_counter() - start - sum(walls)) / len(schemes)
        return results, [wall + share for wall in walls]

    # ------------------------------------------------------------ one-phase
    def run_integrated(
        self, workload_name: "str | Workload", scheme: SchemeSpec,
        policy: InclusionPolicy | str | None = None,
        prefetch: PrefetchConfig | None = None,
    ) -> SchemeResult:
        """Single-pass simulation (prefetching, cross-validation)."""
        workload_name = self._resolve(workload_name)
        cfg = self.config if policy is None else self.config.with_policy(policy)
        sim = IntegratedSimulator(cfg)
        return sim.run(self.workload(workload_name), scheme, prefetch=prefetch)

    def run_exclusive_redhip(
        self, workload_name: "str | Workload", recal_period: int | None = None
    ) -> SchemeResult:
        """ReDHiP with the per-level table stack on the exclusive hierarchy."""
        workload_name = self._resolve(workload_name)
        cfg = self.config.with_policy(InclusionPolicy.EXCLUSIVE)
        period = recal_period if recal_period is not None else cfg.recal_period
        sim = IntegratedSimulator(cfg)
        return sim.run_exclusive_redhip(self.workload(workload_name), period)
