"""Sweep grids: declarative axes -> concrete, fingerprinted cells.

A :class:`SweepSpec` names lists of values along each axis the simulator
exposes — machine, workload, scheme, inclusion policy, seed, prediction-
table size, recalibration period, probe mode — and :meth:`SweepSpec.cells`
expands their cartesian product into :class:`CellSpec` instances.

Two properties make the expansion safe to resume and to share:

* **canonicalization** — an axis that does not apply to a scheme is
  normalized away before fingerprinting (``pt_kb`` means nothing to the
  Base scheme; ``recal_multiple`` means nothing to CBF), so a grid that
  sweeps PT sizes against both Base and ReDHiP produces *one* Base cell,
  not one per size.  Duplicates collapse by fingerprint, first occurrence
  wins.
* **content-addressed fingerprints** — :meth:`CellSpec.fingerprint` is a
  digest of the canonical cell identity plus the store schema version.
  The fingerprint is the resume key: any process, on any host, expanding
  the same spec computes the same fingerprints, so "skip completed cells"
  needs no coordination beyond the results store itself.

Sweep files are plain JSON (see ``tests/golden/sweep_smoke.json``)::

    {
      "name": "demo",
      "machines": ["tiny"],
      "workloads": ["mcf", "lbm"],
      "schemes": ["base", "redhip"],
      "refs_per_core": 4000,
      "seeds": [1, 2],
      "pt_kb": [null, 32],
      "recal_multiples": [1, "inf"],
      "probe_modes": ["parallel", "phased"]
    }
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.energy.params import MACHINES, get_machine
from repro.hierarchy.inclusion import InclusionPolicy
from repro.results.store import STORE_SCHEMA, canonical_json
from repro.sim.config import SimConfig
from repro.util.validation import ConfigError, check_positive
from repro.workloads import EXTENDED_NAMES, SPEC_NAMES

__all__ = [
    "PREDICTOR_SCHEMES",
    "RECAL_SCHEMES",
    "SWEEP_SCHEMES",
    "CellSpec",
    "SweepSpec",
    "build_scheme",
    "cell_recal_period",
    "known_workloads",
    "load_sweep",
]

#: Scheme axis vocabulary: the §V line-up plus the predictor zoo, plus
#: the figure/ablation variants the experiment grids compile to —
#: ``redhip_noov`` (zero-latency table lookup, Figure 6's "+10 % without
#: overhead" row), ``redhip_xor`` (xor-hash, the §III-B hash ablation) and
#: ``cbf_counting`` (bits-hash 4-bit-counter CBF, the entry-width
#: ablation's equal-area competitor).  New names append; the pre-existing
#: vocabulary and its fingerprints are pinned by the golden suite.
SWEEP_SCHEMES = ("base", "oracle", "phased", "waypred", "cbf", "redhip",
                 "levelpred", "ehc", "redhip_noov", "redhip_xor",
                 "cbf_counting")

#: Schemes that consult a prediction table — the only ones for which the
#: ``pt_kb`` and ``probe_mode`` axes are meaningful.
PREDICTOR_SCHEMES = frozenset({"cbf", "redhip", "levelpred", "ehc",
                               "redhip_noov", "redhip_xor", "cbf_counting"})

#: Schemes with a periodic recalibration sweep — the only ones for which
#: the ``recal_multiple`` axis is meaningful (CBF never recalibrates).
RECAL_SCHEMES = frozenset({"redhip", "levelpred", "ehc", "redhip_noov",
                           "redhip_xor"})

_PROBE_MODES = ("parallel", "phased", "waypred")

_REPLACEMENTS = ("lru", "random", "plru")


def known_workloads() -> tuple:
    """Every name :func:`repro.workloads.get_workload` can build."""
    return tuple(sorted((*SPEC_NAMES, *EXTENDED_NAMES, "mix", "blas", "pmf")))


@dataclass(frozen=True)
class CellSpec:
    """One concrete grid point: everything needed to run and identify it.

    Axis semantics:

    ``pt_kb``
        prediction-table budget in KiB (``None`` = the machine's default
        table); predictor schemes only.
    ``recal_multiple``
        recalibration period as a multiple of the machine's paper-cadence
        default (:func:`repro.sim.config.default_recal_period`);
        ``float("inf")`` means never recalibrate; recalibrating schemes
        only (``redhip``/``levelpred``/``ehc`` — CBF has no sweep).
    ``probe_mode``
        how the levels a predictor scheme *does* probe are accessed:
        ``parallel`` (default), ``phased`` or ``waypred`` at the large
        lower levels — composing ReDHiP with the energy alternatives it is
        compared against.  Non-predictor schemes carry their probe
        discipline in the scheme itself (``phased``/``waypred`` rows).
    ``replacement``
        cache replacement policy for the content walk (``None`` = the
        ``lru`` default; ``random``/``plru`` are the replacement
        ablation's trajectories).  Non-default values extend the
        fingerprint identity; ``None`` leaves it byte-identical to the
        pre-axis encoding.
    ``fill_weight``
        fraction of a level's data-access energy charged per line fill
        (``None`` = the paper's probe-dominated 0.0; the fill-accounting
        ablation sweeps it).  Same identity-extension rule as
        ``replacement``.
    """

    machine: str
    workload: str
    scheme: str
    policy: str = "inclusive"
    refs_per_core: int = 4000
    seed: int = 1
    pt_kb: "float | None" = None
    recal_multiple: "float | None" = 1.0
    probe_mode: "str | None" = "parallel"
    replacement: "str | None" = None
    fill_weight: "float | None" = None

    def __post_init__(self) -> None:
        if self.machine not in MACHINES:
            raise ConfigError(
                f"unknown machine {self.machine!r}; valid: {sorted(MACHINES)}"
            )
        if self.scheme not in SWEEP_SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; valid: {list(SWEEP_SCHEMES)}"
            )
        if self.workload not in known_workloads():
            raise ConfigError(
                f"unknown workload {self.workload!r}; "
                f"valid: {list(known_workloads())}"
            )
        InclusionPolicy.parse(self.policy)
        check_positive("refs_per_core", self.refs_per_core)
        if self.probe_mode is not None and self.probe_mode not in _PROBE_MODES:
            raise ConfigError(
                f"unknown probe mode {self.probe_mode!r}; valid: {_PROBE_MODES}"
            )
        if self.pt_kb is not None:
            check_positive("pt_kb", self.pt_kb)
        if self.recal_multiple is not None and not (
            self.recal_multiple > 0
        ):  # accepts inf, rejects 0/negative/nan
            raise ConfigError("recal_multiple must be positive (or inf)")
        if self.replacement is not None and self.replacement not in _REPLACEMENTS:
            raise ConfigError(
                f"unknown replacement {self.replacement!r}; "
                f"valid: {_REPLACEMENTS}"
            )
        if self.fill_weight is not None and not (0.0 <= self.fill_weight <= 1.0):
            raise ConfigError("fill_weight must be in [0, 1]")
        # Memo slots for canonical()/fingerprint(), set before first use so
        # every cell carries the same attribute layout from construction.
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_fingerprint", None)

    # ------------------------------------------------------- canonical id
    def _memo(self, name: str, compute):
        """``compute()``, once per instance: a frozen cell's identity never
        changes, and the memo lives outside the dataclass fields (so it
        takes no part in equality, hashing, ``asdict`` or ``repr``).  Read
        by attribute: touching ``__dict__`` gives every cell a
        materialized dict, and attributes first set after construction
        cost ~1 MiB of peak RSS on ``fig6-cold`` (a 2-vCPU host)."""
        value = getattr(self, name)
        if value is None:
            value = compute()
            object.__setattr__(self, name, value)
        return value

    def canonical(self) -> "CellSpec":
        """Normalize inapplicable axes so equivalent cells collide."""
        return self._memo("_canonical", self._canonicalize)

    def _canonicalize(self) -> "CellSpec":
        changes = {}
        if self.scheme not in PREDICTOR_SCHEMES:
            if self.pt_kb is not None:
                changes["pt_kb"] = None
            if self.probe_mode is not None:
                changes["probe_mode"] = None
        elif not InclusionPolicy.parse(self.policy).llc_is_superset:
            # Exclusive ReDHiP runs the per-level table stack in the
            # integrated simulator: no shared table to size or probe-mode.
            if self.pt_kb is not None:
                changes["pt_kb"] = None
            if self.probe_mode is not None:
                changes["probe_mode"] = None
        elif self.probe_mode is None:
            changes["probe_mode"] = "parallel"
        if self.scheme not in RECAL_SCHEMES and self.recal_multiple is not None:
            changes["recal_multiple"] = None
        if self.replacement == "lru":
            changes["replacement"] = None
        if self.fill_weight == 0.0:
            changes["fill_weight"] = None
        return replace(self, **changes) if changes else self

    def identity(self) -> dict:
        """The canonical JSON-able identity the fingerprint digests.

        The ``replacement``/``fill_weight`` axes appear only when set to a
        non-default value: a cell that never touches them digests exactly
        the bytes it did before the axes existed, so every pre-existing
        store row and pinned fingerprint stays valid.
        """
        cell = self.canonical()
        doc = {
            "schema": STORE_SCHEMA,
            "machine": cell.machine,
            "workload": cell.workload,
            "scheme": cell.scheme,
            "policy": InclusionPolicy.parse(cell.policy).value,
            "refs_per_core": int(cell.refs_per_core),
            "seed": int(cell.seed),
            "pt_kb": _json_number(cell.pt_kb),
            "recal_multiple": _json_number(cell.recal_multiple),
            "probe_mode": cell.probe_mode,
        }
        if cell.replacement is not None:
            doc["replacement"] = cell.replacement
        if cell.fill_weight is not None:
            doc["fill_weight"] = _json_number(cell.fill_weight)
        return doc

    def fingerprint(self) -> str:
        """Content address of this cell: identical on every host and in
        every process that expands the same spec — the resume key."""
        return self._memo("_fingerprint", lambda: hashlib.blake2b(
            canonical_json(self.identity()).encode(), digest_size=16
        ).hexdigest())

    # -------------------------------------------------------- realization
    def sim_config(self, stream_cache: "str | None" = None,
                   faults: "str | None" = None) -> SimConfig:
        """The content-trajectory config this cell pins."""
        cell = self.canonical()
        return SimConfig(
            machine=get_machine(cell.machine),
            policy=cell.policy,
            refs_per_core=cell.refs_per_core,
            seed=cell.seed,
            replacement=cell.replacement or "lru",
            fill_energy_weight=(
                cell.fill_weight if cell.fill_weight is not None else 0.0),
            stream_cache=stream_cache,
            faults=faults,
        )

    def label(self) -> str:
        """Human-readable cell tag for logs and telemetry events."""
        cell = self.canonical()
        parts = [cell.machine, cell.workload, cell.scheme, cell.policy,
                 f"s{cell.seed}"]
        if cell.pt_kb is not None:
            parts.append(f"pt{cell.pt_kb:g}K")
        if cell.recal_multiple is not None:
            parts.append(f"recal{cell.recal_multiple:g}")
        if cell.probe_mode not in (None, "parallel"):
            parts.append(cell.probe_mode)
        if cell.replacement is not None:
            parts.append(cell.replacement)
        if cell.fill_weight is not None:
            parts.append(f"fill{cell.fill_weight:g}")
        return "-".join(parts)


def _json_number(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def cell_recal_period(cell: "CellSpec", machine) -> "int | None":
    """The absolute recalibration period a cell's multiple pins.

    ``None`` means "never recalibrate" (an ``inf`` multiple, or no
    multiple at all) — the same convention the scheme constructors use.
    Shared between :func:`build_scheme` and the scheduler's exclusive-
    ReDHiP dispatch so both paths derive identical periods.
    """
    if cell.recal_multiple is None or not math.isfinite(cell.recal_multiple):
        return None
    from repro.sim.config import default_recal_period

    return max(1, round(cell.recal_multiple * default_recal_period(machine)))


def build_scheme(cell: CellSpec, machine):
    """The :class:`~repro.predictors.base.SchemeSpec` a cell evaluates.

    Imported lazily (predictors pull in the simulator stack); the probe-
    mode composition leans on the charging kernel being entirely
    plan-driven — a predictor scheme with ``phased_levels`` charges phased
    probes at those levels whenever it probes at all.
    """
    from repro.core.redhip import redhip_scheme
    from repro.predictors.base import (
        base_scheme,
        oracle_scheme,
        phased_scheme,
        waypred_scheme,
    )
    from repro.predictors.cbf_scheme import cbf_scheme
    from repro.predictors.ehc import ehc_scheme
    from repro.predictors.levelpred import levelpred_scheme

    cell = cell.canonical()
    if cell.scheme == "base":
        return base_scheme()
    if cell.scheme == "oracle":
        return oracle_scheme()
    if cell.scheme == "phased":
        return phased_scheme()
    if cell.scheme == "waypred":
        return waypred_scheme()
    table_bytes = int(cell.pt_kb * 1024) if cell.pt_kb is not None else None
    if cell.scheme == "cbf":
        spec = cbf_scheme(budget_bytes=table_bytes)
    elif cell.scheme == "cbf_counting":
        # Entry-width ablation competitor: equal-area CBF with 4-bit
        # counters and the same bits-hash ReDHiP uses.
        spec = cbf_scheme(budget_bytes=table_bytes, counter_bits=4,
                          hash_kind="bits")
    else:
        period = cell_recal_period(cell, machine)
        if cell.scheme == "levelpred":
            spec = levelpred_scheme(table_bytes=table_bytes, recal_period=period)
        elif cell.scheme == "ehc":
            spec = ehc_scheme(budget_bytes=table_bytes, recal_period=period)
        elif cell.scheme == "redhip_noov":
            spec = redhip_scheme(table_bytes=table_bytes, recal_period=period,
                                 name="ReDHiP-NoOv", lookup_delay=0)
        elif cell.scheme == "redhip_xor":
            spec = redhip_scheme(table_bytes=table_bytes, recal_period=period,
                                 hash_kind="xor", name="ReDHiP-xor")
        else:
            spec = redhip_scheme(table_bytes=table_bytes, recal_period=period)
    if cell.probe_mode == "phased":
        spec = replace(spec, phased_levels=(3, 4))
    elif cell.probe_mode == "waypred":
        spec = replace(spec, way_predicted_levels=(3, 4))
    return spec


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid over every axis the simulator exposes."""

    name: str
    machines: tuple = ("tiny",)
    workloads: tuple = ()
    schemes: tuple = ("base", "redhip")
    policies: tuple = ("inclusive",)
    refs_per_core: int = 4000
    seeds: tuple = (1,)
    pt_kb: tuple = (None,)
    recal_multiples: tuple = (1.0,)
    probe_modes: tuple = ("parallel",)
    #: Shared stream-cache directory for every worker (None = honour
    #: ``REPRO_STREAM_CACHE``; the scheduler defaults it per store).
    stream_cache: "str | None" = None
    notes: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("sweep spec needs a name")
        if not self.workloads:
            raise ConfigError("sweep spec needs at least one workload")
        check_positive("refs_per_core", self.refs_per_core)
        non_parallel = [m for m in self.probe_modes if m not in (None, "parallel")]
        if non_parallel and not any(s in PREDICTOR_SCHEMES for s in self.schemes):
            # Message derives from the registry so it stays true as the
            # zoo grows (a regression test pins this).
            raise ConfigError(
                f"probe_modes {sorted(set(non_parallel))} only apply to "
                f"predictor schemes; add one of {sorted(PREDICTOR_SCHEMES)} "
                "to 'schemes' (non-predictor rows carry their probe "
                "discipline in the scheme itself)"
            )

    def cells(self) -> list:
        """Expand the grid: canonicalized, deduplicated, stable order."""
        seen: dict = {}
        for (machine, workload, scheme, policy, seed,
             pt, recal, probe) in itertools.product(
            self.machines, self.workloads, self.schemes, self.policies,
            self.seeds, self.pt_kb, self.recal_multiples, self.probe_modes,
        ):
            if (scheme in PREDICTOR_SCHEMES
                    and not InclusionPolicy.parse(policy).llc_is_superset):
                # Two-phase predictor evaluation needs an LLC-superset
                # policy (see ExperimentRunner.run); the combo
                # is not a valid grid point, not a failure to record.
                continue
            cell = CellSpec(
                machine=machine, workload=workload, scheme=scheme,
                policy=policy, refs_per_core=self.refs_per_core,
                seed=seed, pt_kb=pt, recal_multiple=recal, probe_mode=probe,
            ).canonical()
            seen.setdefault(cell.fingerprint(), cell)
        return list(seen.values())

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "machines": list(self.machines),
            "workloads": list(self.workloads),
            "schemes": list(self.schemes),
            "policies": list(self.policies),
            "refs_per_core": self.refs_per_core,
            "seeds": list(self.seeds),
            "pt_kb": [_json_number(v) for v in self.pt_kb],
            "recal_multiples": [_json_number(v) for v in self.recal_multiples],
            "probe_modes": list(self.probe_modes),
        }
        if self.stream_cache:
            doc["stream_cache"] = self.stream_cache
        if self.notes:
            doc["notes"] = self.notes
        return json.dumps(doc, indent=2) + "\n"


_SWEEP_KEYS = {
    "name", "machines", "workloads", "schemes", "policies", "refs_per_core",
    "seeds", "pt_kb", "recal_multiples", "probe_modes", "stream_cache",
    "notes",
}

_LIST_KEYS = {"machines", "workloads", "schemes", "policies", "seeds",
              "pt_kb", "recal_multiples", "probe_modes"}


def _parse_multiple(value):
    """Recal multiples: JSON numbers, plus the string ``"inf"``."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity", "never"):
            return float("inf")
        raise ConfigError(f"bad recal multiple {value!r} (number or 'inf')")
    return float(value)


def load_sweep(path: "str | Path") -> SweepSpec:
    """Parse and validate a sweep JSON file (fail fast, name the key)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: sweep file must be a JSON object")
    unknown = set(doc) - _SWEEP_KEYS
    if unknown:
        raise ConfigError(
            f"{path}: unknown sweep key(s) {sorted(unknown)}; "
            f"valid: {sorted(_SWEEP_KEYS)}"
        )
    kwargs = {}
    for key, value in doc.items():
        if key in _LIST_KEYS:
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{path}: {key!r} must be a non-empty list")
            if key == "recal_multiples":
                value = [_parse_multiple(v) for v in value]
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    kwargs.setdefault("name", path.stem)
    return SweepSpec(**kwargs)
