"""Post-detection response engine.

Once a detector flags a process, termination on the first verdict is
reckless while the detector's quality is still climbing, and doing
nothing hands the attacker the whole detection window. This package
implements the middle path: keep a bounded per-process threat ledger,
throttle the process's resources in proportion to how the ledger moves,
and only terminate (or fully restore) once the detector has spent its
measurement budget. A desk-scale simulator quantifies what the throttled
process still gets done, and a planner converts detection quality
targets into measurement budgets.
"""

from .actuation import (
    DEFAULT_SHARES,
    RESOURCES,
    ActuationMode,
    ActuatorPolicy,
    ResourceShares,
    SchedulerModel,
    actuate,
    actuate_reset,
    cfs_timeslice,
    weight_for_threat,
)
from .config import ConfigError, load_scenario, parse_response_curve
from .detectors import (
    GroundTruth,
    SourceExhausted,
    StochasticSource,
    ThresholdSource,
    TraceSource,
    VerdictSource,
    derive_seed,
    load_measurement_stream_csv,
    load_trace_csv,
    next_verdict,
)
from .efficacy import (
    CurvePoint,
    EfficacyCurve,
    EfficacyTarget,
    TargetKind,
    UnreachableTargetError,
    budget_to_time,
    load_curve_csv,
    required_measurements,
)
from .hostadapter import (
    Ack,
    CallRecord,
    FakeHostAdapter,
    HostAdapter,
    LinuxSignalAdapter,
    ProcessHandle,
    StaleHandleError,
)
from .simulation import (
    Baseline,
    Cliff,
    Combiner,
    EpochRecord,
    LinearSaturating,
    ProcessSpec,
    ProgressModel,
    Proportional,
    ResponseCurve,
    Scenario,
    ScenarioError,
    ScenarioLog,
    SlowdownReport,
    baseline,
    progress_rate,
    respond,
    run_scenario,
    slowdown,
    slowdown_reports,
    write_slowdown_csv,
)
from .supervisor import SupervisionReport, supervise
from .threat import (
    SCORE_CEILING,
    AssessmentPolicy,
    GrowthFamily,
    LifecycleState,
    ThreatLedger,
    Verdict,
    assess,
    clamp,
    mark_completed,
    resolve_terminable,
    step_epoch,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # threat
    "SCORE_CEILING",
    "Verdict",
    "LifecycleState",
    "GrowthFamily",
    "AssessmentPolicy",
    "ThreatLedger",
    "clamp",
    "assess",
    "step_epoch",
    "resolve_terminable",
    "mark_completed",
    # actuation
    "RESOURCES",
    "DEFAULT_SHARES",
    "ResourceShares",
    "ActuationMode",
    "ActuatorPolicy",
    "SchedulerModel",
    "actuate",
    "actuate_reset",
    "cfs_timeslice",
    "weight_for_threat",
    # efficacy
    "CurvePoint",
    "EfficacyCurve",
    "TargetKind",
    "EfficacyTarget",
    "UnreachableTargetError",
    "required_measurements",
    "budget_to_time",
    "load_curve_csv",
    # detectors
    "GroundTruth",
    "SourceExhausted",
    "TraceSource",
    "StochasticSource",
    "ThresholdSource",
    "VerdictSource",
    "next_verdict",
    "derive_seed",
    "load_trace_csv",
    "load_measurement_stream_csv",
    # simulation
    "Proportional",
    "LinearSaturating",
    "Cliff",
    "ResponseCurve",
    "Combiner",
    "ProgressModel",
    "ProcessSpec",
    "Scenario",
    "EpochRecord",
    "ScenarioLog",
    "Baseline",
    "SlowdownReport",
    "ScenarioError",
    "progress_rate",
    "respond",
    "run_scenario",
    "baseline",
    "slowdown",
    "slowdown_reports",
    "write_slowdown_csv",
    # host adapter
    "Ack",
    "CallRecord",
    "FakeHostAdapter",
    "HostAdapter",
    "LinuxSignalAdapter",
    "ProcessHandle",
    "StaleHandleError",
    # supervisor
    "SupervisionReport",
    "supervise",
    # config
    "ConfigError",
    "load_scenario",
    "parse_response_curve",
]
