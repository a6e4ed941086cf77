"""Run configuration.

A :class:`SimConfig` pins everything that determines a content trajectory:
machine, inclusion policy, replacement policy, trace length and seed.
Scheme choice deliberately lives *outside* it — one content trajectory
serves every scheme (DESIGN.md, "Two-phase simulation").  Machine, trace
length and seed are never read from the environment: a run is pinned by
its config (the CLI's ``--machine``/``--refs``/``--seed``).

Environment knobs for the opt-in observation and robustness layers, each
mirrored by a field below:

``REPRO_STREAM_CACHE``
    Persistent stream-cache directory (``1`` selects ``.repro-cache/``);
    see :mod:`repro.sim.streamcache`.
``REPRO_TELEMETRY``
    Enable telemetry collection (spans, metrics, run manifests); see
    :mod:`repro.telemetry`.
``REPRO_FAULTS``
    Path to a fault-injection plan (chaos testing); see
    :mod:`repro.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.energy.params import MachineConfig
from repro.hierarchy.inclusion import InclusionPolicy
from repro.util.validation import check_positive

__all__ = ["SimConfig", "default_recal_period"]


def default_recal_period(machine: MachineConfig) -> int:
    """Recalibration period (in L1 misses) matching the paper's cadence.

    The paper sweeps every 1 M L1 misses on a 64 MB LLC — exactly the
    LLC's line count (2**20 lines).  That identity is not a coincidence:
    staleness accumulates with LLC *turnover*, and with the paper's miss
    mix roughly 40 % of L1 misses cause an LLC fill, so "one LLC worth of
    L1 misses" corresponds to a fixed fraction of the table going stale
    between sweeps.  It also pins the overhead ratio: a sweep costs one
    tag read per set, and sets scale with lines, so sweep work stays a
    constant (sub-1 %) fraction of the probe work regardless of machine
    scale.  We therefore use ``llc.num_lines`` as the period on every
    machine; Figure 12 sweeps multiples of it.
    """
    return machine.llc.num_lines


@dataclass(frozen=True)
class SimConfig:
    """Everything that pins one content trajectory."""

    machine: MachineConfig
    policy: InclusionPolicy = InclusionPolicy.INCLUSIVE
    refs_per_core: int = 80_000
    seed: int = 1
    replacement: str = "lru"
    #: Fraction of a level's data-access energy charged per line fill.
    #: The paper's energy accounting is probe-dominated (see DESIGN.md);
    #: 0.0 reproduces its normalization, the fill-accounting ablation
    #: sweeps it.
    fill_energy_weight: float = 0.0
    #: Use the write-invalidate coherent hierarchy (multi-threaded
    #: workloads with shared data; inclusive policy only).
    coherent: bool = False
    #: Main-memory access latency in cycles.  The paper models memory as a
    #: zero-latency data store (§IV) — 0.0 reproduces that; the
    #: ``ext-memory`` experiment sweeps realistic values to quantify how
    #: the conclusions shift when off-chip time is charged.
    memory_latency: float = 0.0
    #: Main-memory access energy in nJ (same caveat; 0.0 = paper model).
    memory_energy_nj: float = 0.0
    #: Memory-level parallelism: miss-path latencies beyond L1 are divided
    #: by this factor, modelling an out-of-order core overlapping misses.
    #: 1.0 (the paper's serialized model) charges them in full.
    mlp: float = 1.0
    #: Banked open-page DRAM model (see :mod:`repro.energy.dram`).  When
    #: set, memory accesses are charged pattern-dependent latency/energy
    #: and the flat ``memory_latency``/``memory_energy_nj`` are ignored.
    dram: "object | None" = None
    #: Opt-in invariant checking (see :mod:`repro.checking`).  Orthogonal
    #: to the content trajectory — a checked walk must produce the same
    #: stream as an unchecked one — so it is excluded from comparisons and
    #: from :meth:`cache_key`.  ``REPRO_CHECKED=1`` enables it globally.
    checked: bool = field(default=False, compare=False)
    #: Opt-in persistent stream cache directory (see
    #: :mod:`repro.sim.streamcache`).  Where cached content walks live —
    #: not *what* they compute — so, like ``checked``, it is excluded from
    #: comparisons and from :meth:`cache_key`.  ``REPRO_STREAM_CACHE=dir``
    #: enables it globally.
    stream_cache: "str | None" = field(default=None, compare=False)
    #: Opt-in telemetry collection (see :mod:`repro.telemetry`): stage
    #: spans, metric counters and the run manifest.  Observation only — a
    #: traced run must produce the same trajectory as an untraced one — so
    #: like ``checked`` it is excluded from comparisons and from
    #: :meth:`cache_key`.  ``REPRO_TELEMETRY=1`` enables it globally.
    telemetry: bool = field(default=False, compare=False)
    #: Opt-in fault injection: path to a :mod:`repro.faults` plan JSON.
    #: Chaos is an environment property, not a trajectory property — the
    #: whole point is that faulted results must equal clean ones — so like
    #: ``checked`` it is excluded from comparisons and from
    #: :meth:`cache_key`.  ``REPRO_FAULTS=plan.json`` enables it globally.
    faults: "str | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        check_positive("refs_per_core", self.refs_per_core)
        check_positive("mlp", self.mlp)
        object.__setattr__(self, "policy", InclusionPolicy.parse(self.policy))

    @property
    def total_refs(self) -> int:
        return self.refs_per_core * self.machine.cores

    @property
    def recal_period(self) -> int:
        """Paper-equivalent recalibration period for this machine."""
        return default_recal_period(self.machine)

    def with_policy(self, policy: InclusionPolicy | str) -> "SimConfig":
        return replace(self, policy=InclusionPolicy.parse(policy))

    def cache_key(self) -> tuple:
        """Hashable identity of the content trajectory this config pins."""
        return (
            self.machine.name,
            self.policy.value,
            self.refs_per_core,
            self.seed,
            self.replacement,
            self.coherent,
        )
