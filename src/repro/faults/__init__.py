"""Deterministic fault injection with survivable recovery policies.

The stateful surfaces this repo grew — an on-disk stream cache, the
sweep scheduler's process pool, trace-file I/O — are exactly the
parts that misbehave in production.  This package makes misbehaviour a
*first-class, reproducible input*: a seeded :class:`FaultPlan` declares
which sites fail, how, and when; the pipeline's recovery policies
(bounded retry with deterministic backoff, discard-and-re-walk, per-
worker timeout with serial fallback, atomic temp-file + ``os.replace``
writes) absorb every injected fault; and the repo-level invariant —
checkable with ``repro chaos`` — is that a faulted run's artifacts are
**bit-identical** to a clean run's.

Activation mirrors the stream cache and telemetry:

``SimConfig(faults="plan.json")``
    per-config plan (observation/robustness only: excluded from
    ``cache_key()`` and config comparisons, exactly like ``checked``);
``REPRO_FAULTS=plan.json``
    environment-wide (empty/``0``/``false``/``off``/``no`` disables) —
    this is also how a sweep worker finds the plan when it did not
    inherit the installed injector;
:func:`scope`
    scoped programmatic installation (what ``repro chaos`` and the test
    suite use).

When no plan is active every site hook is one module-global check — the
same "free when off" contract as checked mode and telemetry.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from repro.faults.injector import (
    FaultInjector,
    FiredFault,
    InjectedFault,
    InjectedWorkerError,
)
from repro.faults.plan import SITES, FaultPlan, FaultSpec, RetryPolicy, load_plan
from repro.faults.retry import RetryExhausted, collect, handled, run_with_retries

__all__ = [
    "FAULTS_ENV",
    "SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "InjectedFault",
    "InjectedWorkerError",
    "RetryExhausted",
    "RetryPolicy",
    "check",
    "collect",
    "current",
    "damage_file",
    "ensure",
    "handled",
    "install",
    "load_plan",
    "retry_policy",
    "run_with_retries",
    "scope",
    "uninstall",
]

#: Environment switch: a fault-plan path (falsy values disable).
FAULTS_ENV = "REPRO_FAULTS"

_FALSY = frozenset({"", "0", "false", "off", "no"})

_INSTALLED: "FaultInjector | None" = None
#: (env value, injector) — so a stable REPRO_FAULTS loads the plan once.
_ENV_CACHE: tuple = (None, None)


def install(plan: "FaultPlan | FaultInjector") -> FaultInjector:
    """Activate an injector process-wide (replacing any current one)."""
    global _INSTALLED
    _INSTALLED = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
    return _INSTALLED


def uninstall() -> "FaultInjector | None":
    """Deactivate and return the installed injector (idempotent)."""
    global _INSTALLED
    out, _INSTALLED = _INSTALLED, None
    return out


def current() -> "FaultInjector | None":
    """The active injector: installed one, else ``REPRO_FAULTS``, else None."""
    if _INSTALLED is not None:
        return _INSTALLED
    env = os.environ.get(FAULTS_ENV, "").strip()
    if env.lower() in _FALSY:
        return None
    global _ENV_CACHE
    if _ENV_CACHE[0] != env:
        _ENV_CACHE = (env, FaultInjector(load_plan(env)))
    return _ENV_CACHE[1]


def ensure(config) -> "FaultInjector | None":
    """Install the plan a config names, unless one is already active.

    Called by :class:`ExperimentRunner <repro.sim.runner.ExperimentRunner>`
    so pure-API use of ``SimConfig(faults=...)`` behaves like the env var.
    """
    path = getattr(config, "faults", None)
    if path and _INSTALLED is None:
        return install(load_plan(path))
    return current()


@contextmanager
def scope(plan: "FaultPlan | FaultInjector | None"):
    """Scoped activation; restores the previously installed injector.

    ``scope(None)`` installs an *empty* plan — injection is forced off in
    the scope even when ``REPRO_FAULTS`` is set, which is how ``repro
    chaos`` keeps its baseline run clean.
    """
    global _INSTALLED
    previous = _INSTALLED
    injector = install(plan if plan is not None else FaultPlan())
    try:
        yield injector
    finally:
        _INSTALLED = previous


# ------------------------------------------------------------- site hooks
def check(site: str, key: "str | None" = None) -> "FiredFault | None":
    """One site hit: the fault to apply now, or ``None`` (the fast path)."""
    injector = current()
    if injector is None:
        return None
    return injector.check(site, key)


def retry_policy() -> RetryPolicy:
    """The I/O retry policy: the active plan's, else the default."""
    injector = current()
    if injector is None:
        return RetryPolicy()
    return injector.plan.retry


def damage_file(path: "str | Path", fired: FiredFault) -> None:
    """Apply an on-disk payload: ``corrupt`` flips one byte, ``short_read``
    truncates to half — both deterministic via the fault's payload RNG."""
    path = Path(path)
    data = path.read_bytes()
    if not data:
        return
    if fired.kind == "corrupt":
        offset = int(fired.rng().integers(len(data)))
        mangled = bytearray(data)
        mangled[offset] ^= 0xFF
        path.write_bytes(bytes(mangled))
    elif fired.kind == "short_read":
        path.write_bytes(data[: len(data) // 2])
