"""ReDHiP reproduction: Recalibrating Deep Hierarchy Prediction (IPPS 2014).

Public API tour
---------------

Machines and schemes::

    from repro import get_machine, redhip_scheme, base_scheme, cbf_scheme
    machine = get_machine("scaled")          # or "paper"

Run one experiment end to end::

    from repro import SimConfig, ExperimentRunner, oracle_scheme, phased_scheme
    cfg = SimConfig(machine=machine, refs_per_core=50_000)
    runner = ExperimentRunner(cfg)
    base = runner.run("mcf", base_scheme())
    redhip = runner.run("mcf", redhip_scheme(recal_period=cfg.recal_period))
    print(redhip.speedup_over(base), redhip.dynamic_ratio(base))

Regenerate a paper figure::

    from repro.experiments import run_experiment
    result = run_experiment("fig6", cfg)
    print(result.table)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.checking import InvariantViolation, ReplayBundle
from repro.core import (
    PAPER_RECAL_PERIOD,
    ExclusiveReDHiP,
    GatedPredictor,
    PredictionTable,
    ReDHiPController,
    RecalibrationCost,
    RecalibrationEngine,
    TagMirror,
    gated_redhip_scheme,
    redhip_scheme,
)
from repro.energy import (
    CactiModel,
    CostTable,
    EnergyLedger,
    MachineConfig,
    StaticEnergyModel,
    TimingModel,
    get_machine,
    paper_machine,
    scaled_machine,
    tiny_machine,
)
from repro.hierarchy import (
    CacheHierarchy,
    InclusionPolicy,
    LRUCache,
    OutcomeStream,
)
from repro.predictors import (
    CBFPredictor,
    CountingBloomFilter,
    MissMapPredictor,
    PresencePredictor,
    SchemeSpec,
    base_scheme,
    cbf_scheme,
    missmap_scheme,
    oracle_scheme,
    phased_scheme,
    waypred_scheme,
)
from repro.prefetch import StridePrefetcher
from repro.sim import (
    ContentSimulator,
    ExperimentResult,
    ExperimentRunner,
    IntegratedSimulator,
    PrefetchConfig,
    SchemeResult,
    SimConfig,
)
from repro.workloads import PAPER_WORKLOADS, Trace, Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "CBFPredictor",
    "CacheHierarchy",
    "CactiModel",
    "ContentSimulator",
    "CostTable",
    "CountingBloomFilter",
    "EnergyLedger",
    "ExclusiveReDHiP",
    "ExperimentResult",
    "ExperimentRunner",
    "GatedPredictor",
    "InclusionPolicy",
    "IntegratedSimulator",
    "InvariantViolation",
    "ReplayBundle",
    "LRUCache",
    "MachineConfig",
    "MissMapPredictor",
    "OutcomeStream",
    "PAPER_RECAL_PERIOD",
    "PAPER_WORKLOADS",
    "PredictionTable",
    "PrefetchConfig",
    "PresencePredictor",
    "ReDHiPController",
    "RecalibrationCost",
    "RecalibrationEngine",
    "SchemeResult",
    "SchemeSpec",
    "SimConfig",
    "StaticEnergyModel",
    "StridePrefetcher",
    "TagMirror",
    "TimingModel",
    "Trace",
    "Workload",
    "__version__",
    "base_scheme",
    "cbf_scheme",
    "gated_redhip_scheme",
    "get_machine",
    "get_workload",
    "missmap_scheme",
    "oracle_scheme",
    "paper_machine",
    "phased_scheme",
    "redhip_scheme",
    "waypred_scheme",
    "scaled_machine",
    "tiny_machine",
]
