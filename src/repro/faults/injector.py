"""The fault injector: deterministic firing decisions and the fault log.

One :class:`FaultInjector` holds the per-``(spec, key)`` hit counters and
RNG streams for a plan.  Sites ask :meth:`check`; a fired fault comes back
as a :class:`FiredFault` and is appended to :attr:`FaultInjector.log` and
recorded as a ``faults.injected`` telemetry event, so a run's complete
injection history lands in its ``run_manifest.json``.

Hit counters and probability streams are keyed by the *subject* of the
operation (workload name, cache-entry key, file name), never by global
call order — see :mod:`repro.faults.plan` for why that makes injection
reproducible under parallel scheduling.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.faults.plan import FaultPlan, FaultSpec
from repro.util.rng import make_rng

__all__ = ["FiredFault", "FaultInjector", "InjectedFault", "InjectedWorkerError"]


class InjectedFault(OSError):
    """An injected I/O error (ENOSPC, transient EIO, …).

    Subclasses :class:`OSError` so recovery code does not — and must not —
    special-case injected faults: whatever handles this handles the real
    thing.  The distinct type exists only so tests can assert provenance.
    """


class InjectedWorkerError(RuntimeError):
    """An injected in-worker exception (the ``exception`` fault kind)."""


class FiredFault:
    """One firing: the spec that fired plus the context it fired in."""

    __slots__ = ("spec", "index", "site", "key", "hit", "_seed")

    def __init__(self, spec: FaultSpec, index: int, site: str,
                 key: "str | None", hit: int, seed: int) -> None:
        self.spec = spec
        self.index = index
        self.site = site
        self.key = key
        self.hit = hit
        self._seed = seed

    @property
    def kind(self) -> str:
        return self.spec.kind

    def rng(self) -> np.random.Generator:
        """Payload RNG (e.g. which byte to corrupt) — deterministic per
        (plan seed, spec, key, hit)."""
        return make_rng(
            self._seed, f"fault-payload:{self.index}:{self.site}:{self.key}:{self.hit}"
        )

    def record(self) -> dict:
        return {"site": self.site, "kind": self.kind, "key": self.key,
                "hit": self.hit, "spec": self.index}


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against site hits, deterministically."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._hits: dict[tuple, int] = {}      # (spec index, key) -> count
        self._fires: dict[int, int] = {}       # spec index -> total fires
        self._rngs: dict[tuple, np.random.Generator] = {}
        self.log: list[dict] = []              # fired records, in fire order

    # ------------------------------------------------------------- firing
    def check(self, site: str, key: "str | None" = None) -> "FiredFault | None":
        """One site hit for ``key``: returns the fault to apply, or None.

        At most one spec fires per hit (first match in plan order wins);
        every fire is logged and emitted as a ``faults.injected`` event.
        """
        for index, spec in enumerate(self.plan.faults):
            if spec.site != site:
                continue
            if spec.match is not None and spec.match != key:
                continue
            hit_key = (index, key)
            hit = self._hits.get(hit_key, 0) + 1
            self._hits[hit_key] = hit
            if spec.max_fires is not None and self._fires.get(index, 0) >= spec.max_fires:
                continue
            if spec.hits:
                fire = hit in spec.hits
            else:
                rng = self._rngs.get(hit_key)
                if rng is None:
                    rng = make_rng(
                        self.plan.seed,
                        f"fault:{index}:{spec.site}:{spec.kind}:{key}",
                    )
                    self._rngs[hit_key] = rng
                fire = float(rng.random()) < spec.probability
            if fire:
                self._fires[index] = self._fires.get(index, 0) + 1
                fired = FiredFault(spec, index, site, key, hit, self.plan.seed)
                record = fired.record()
                self.log.append(record)
                telemetry.event("faults.injected", **record)
                return fired
        return None

    # ---------------------------------------------------------- reporting
    def fired_kinds(self) -> set:
        return {rec["kind"] for rec in self.log}
