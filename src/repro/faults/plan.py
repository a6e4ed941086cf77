"""Declarative fault plans: what to break, where, and when.

A :class:`FaultPlan` is a seeded list of :class:`FaultSpec`\\ s.  Each spec
names an injection *site* (an explicit hook in the pipeline — see
:data:`SITES`), a fault *kind* valid at that site, and a trigger: either a
list of 1-based per-key hit indices (``hits=[1, 3]`` fires on the first
and third time that site sees that key) or a ``probability`` drawn from a
named RNG stream derived from ``(plan.seed, spec index, site, kind,
key)``.  Keying every counter and every RNG stream by the *subject* (the
workload or file name the site is operating on) rather than by global
call order is what makes injection deterministic even when work is
scheduled across a process pool: the same plan and seed fire the same
faults at the same sites no matter which worker gets which shard.

Plans are plain JSON so they can be committed next to golden data::

    {
      "seed": 2014,
      "worker_timeout_s": 60.0,
      "retry": {"attempts": 3, "backoff_s": 0.0},
      "faults": [
        {"site": "streamcache.load", "kind": "corrupt",
         "match": "mcf", "hits": [1]},
        {"site": "parallel.worker", "kind": "crash",
         "match": "mcf", "hits": [1]}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.util.validation import ConfigError, check_positive

__all__ = ["SITES", "FaultSpec", "FaultPlan", "RetryPolicy", "load_plan"]

#: Every injection site the pipeline exposes, with the fault kinds it can
#: apply.  Sites are explicit calls in the code (grep for ``faults.check``);
#: a plan naming anything else is rejected at load time.
SITES: dict[str, frozenset] = {
    # Persistent stream cache (repro.sim.streamcache)
    "streamcache.load": frozenset({"corrupt", "short_read", "io_error"}),
    "streamcache.save": frozenset({"enospc", "partial_write"}),
    # Sweep scheduler process pool (repro.sweep.scheduler)
    "parallel.worker": frozenset({"crash", "hang", "exception"}),
    "parallel.pool": frozenset({"spawn_fail"}),
    # Saved trace files (repro.workloads.tracefile)
    "tracefile.load": frozenset({"short_read", "io_error"}),
    # Vectorized content walk (repro.sim.content); recovery is the
    # sequential-walk fallback, which is bit-identical by construction.
    "content.vector_walk": frozenset({"exception"}),
    # One sweep cell (repro.sweep.scheduler); recovery is skip-and-record:
    # the cell is reported failed, never written to the store, and the
    # next run of the same SweepSpec re-attempts exactly that cell.
    "sweep.cell": frozenset({"exception"}),
}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with a deterministic exponential backoff schedule."""

    attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0

    def delay_s(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (0-based, no jitter)."""
        return self.backoff_s * self.multiplier ** attempt

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(
            attempts=int(data.get("attempts", cls.attempts)),
            backoff_s=float(data.get("backoff_s", cls.backoff_s)),
            multiplier=float(data.get("multiplier", cls.multiplier)),
        )


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: site + kind + trigger (hits or probability)."""

    site: str
    kind: str
    #: Exact key (workload / file name) this spec applies to; ``None``
    #: matches every key the site sees.
    match: "str | None" = None
    #: 1-based per-key hit indices at which to fire (count trigger).
    hits: tuple = ()
    #: Per-hit firing probability under a named RNG (random trigger).
    probability: "float | None" = None
    #: Cap on total fires across all keys (mainly for probability specs).
    max_fires: "int | None" = None
    #: Kind-specific knobs (e.g. ``sleep_s`` for ``hang``).
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"unknown fault site {self.site!r}; valid: {sorted(SITES)}"
            )
        if self.kind not in SITES[self.site]:
            raise ConfigError(
                f"fault kind {self.kind!r} is not valid at site "
                f"{self.site!r}; valid: {sorted(SITES[self.site])}"
            )
        object.__setattr__(self, "hits", tuple(int(h) for h in self.hits))
        if bool(self.hits) == (self.probability is not None):
            raise ConfigError(
                f"fault at {self.site!r} needs exactly one trigger: "
                f"hits or probability"
            )
        if any(h < 1 for h in self.hits):
            raise ConfigError("fault hits are 1-based (>= 1)")
        if self.probability is not None and not 0.0 < self.probability <= 1.0:
            raise ConfigError("fault probability must be in (0, 1]")

    def param(self, name: str, default):
        return self.params.get(name, default)

    def to_dict(self) -> dict:
        out: dict = {"site": self.site, "kind": self.kind}
        if self.match is not None:
            out["match"] = self.match
        if self.hits:
            out["hits"] = list(self.hits)
        if self.probability is not None:
            out["probability"] = self.probability
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        unknown = set(data) - {"site", "kind", "match", "hits",
                               "probability", "max_fires", "params"}
        if unknown:
            raise ConfigError(f"unknown fault-spec fields {sorted(unknown)}")
        return cls(
            site=data.get("site", ""),
            kind=data.get("kind", ""),
            match=data.get("match"),
            hits=tuple(data.get("hits", ())),
            probability=data.get("probability"),
            max_fires=data.get("max_fires"),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered set of faults plus the recovery knobs they test."""

    faults: tuple = ()
    seed: int = 0
    #: Per-shard worker timeout override in seconds (None = site
    #: default); must be positive, ``inf`` never times out.
    worker_timeout_s: "float | None" = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.worker_timeout_s is not None:
            check_positive("worker_timeout_s", self.worker_timeout_s)

    def to_dict(self) -> dict:
        out: dict = {
            "seed": self.seed,
            "faults": [spec.to_dict() for spec in self.faults],
            "retry": {
                "attempts": self.retry.attempts,
                "backoff_s": self.retry.backoff_s,
                "multiplier": self.retry.multiplier,
            },
        }
        if self.worker_timeout_s is not None:
            out["worker_timeout_s"] = self.worker_timeout_s
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ConfigError("fault plan must be a JSON object")
        timeout = data.get("worker_timeout_s")
        return cls(
            faults=tuple(FaultSpec.from_dict(d) for d in data.get("faults", ())),
            seed=int(data.get("seed", 0)),
            worker_timeout_s=None if timeout is None else float(timeout),
            retry=RetryPolicy.from_dict(data.get("retry", {})),
        )


def load_plan(path: "str | Path") -> FaultPlan:
    """Read and validate a JSON fault plan."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"fault plan {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"fault plan {path} is not valid JSON: {exc}") from None
    return FaultPlan.from_dict(data)
