"""Discrete-epoch simulation of throttled and unthrottled process runs.

A scenario runs each process for a fixed number of epochs. Epoch 0
accrues progress at the default (unthrottled) shares and consumes no
verdict; every later epoch fetches one verdict, steps the threat ledger,
actuates the shares, then accrues progress at the post-actuation shares.
Once the measurement budget fills, the ledger is terminable and each
epoch resolves it instead: benign restores the default shares and keeps
going, malicious terminates the process. The termination epoch accrues
zero progress and is the process's final record. ``respond`` is that
per-epoch transition; the supervisor runs the same function against a
live host.

Progress per epoch is ``base_rate`` scaled by the process's response to
its current shares. Response curves map one resource's share to a
progress multiplier in [0, 1] (share 1.0 always maps to multiplier 1.0):

* ``Proportional``       progress tracks the share linearly (cpu-bound
                         and filesystem-bound work)
* ``LinearSaturating``   progress is unaffected until the share drops
                         below the fraction of the allotment the process
                         actually uses (network-bound work)
* ``Cliff``              progress is unaffected above a threshold and
                         collapses below it (memory-bound work)

Multipliers across resources combine by bottleneck (minimum, the
default) or product.

Slowdown compares the throttled run against the same scenario with the
response disabled: S = (1 - with/without) * 100, in percent.

Determinism: scenarios are pure functions of their configuration and
seed, and the CSV emission uses fixed 6-decimal formatting, so equal
scenarios produce byte-identical logs.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, NamedTuple, Union

from .actuation import (
    DEFAULT_SHARES,
    RESOURCES,
    ActuatorPolicy,
    ResourceShares,
    actuate,
    actuate_reset,
)
from .csvio import write_rows
from .detectors import SourceExhausted, VerdictSource, next_verdict
from .threat import (
    AssessmentPolicy,
    LifecycleState,
    ThreatLedger,
    Verdict,
    resolve_terminable,
    step_epoch,
)

__all__ = [
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
    "SlowdownReport",
    "ScenarioError",
    "progress_rate",
    "respond",
    "run_scenario",
    "slowdown",
    "slowdown_reports",
    "write_slowdown_csv",
    "LOG_CSV_HEADER",
    "SLOWDOWN_CSV_HEADER",
]

LOG_CSV_HEADER = (
    "epoch",
    "process",
    "verdict",
    "penalty",
    "compensation",
    "threat",
    "state",
    "cpu",
    "mem",
    "net",
    "fs",
    "progress",
    "cumulative",
)
SLOWDOWN_CSV_HEADER = ("process", "progress_with", "progress_without", "slowdown_pct")

# Verdict column value for epochs that consume no verdict.
NO_VERDICT = "none"


class ScenarioError(Exception):
    """A scenario failed at run time (for example, a verdict source ran dry)."""


@dataclass(frozen=True)
class Proportional:
    """Progress tracks the resource share one-for-one."""

    def multiplier(self, share: float) -> float:
        return share


@dataclass(frozen=True)
class LinearSaturating:
    """Progress is unaffected until the share dips below the demand.

    ``cap_fraction`` is the fraction of the full allotment the process
    actually consumes; above it, throttling removes only headroom.
    """

    cap_fraction: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.cap_fraction) or not 0.0 < self.cap_fraction <= 1.0:
            raise ValueError(f"cap_fraction must lie in (0, 1], got {self.cap_fraction!r}")

    def multiplier(self, share: float) -> float:
        return min(1.0, share / self.cap_fraction)


@dataclass(frozen=True)
class Cliff:
    """Progress is unaffected above a threshold and collapses below it.

    Models working-set behavior: shrink the allotment past the working
    set and the process thrashes at ``collapsed_multiplier`` speed.
    """

    threshold_fraction: float
    collapsed_multiplier: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold_fraction) or not 0.0 < self.threshold_fraction <= 1.0:
            raise ValueError(
                f"threshold_fraction must lie in (0, 1], got {self.threshold_fraction!r}"
            )
        if not math.isfinite(self.collapsed_multiplier) or not 0.0 <= self.collapsed_multiplier <= 1.0:
            raise ValueError(
                f"collapsed_multiplier must lie in [0, 1], got {self.collapsed_multiplier!r}"
            )

    def multiplier(self, share: float) -> float:
        return 1.0 if share >= self.threshold_fraction else self.collapsed_multiplier


ResponseCurve = Union[Proportional, LinearSaturating, Cliff]


class Combiner(Enum):
    BOTTLENECK_MIN = "bottleneck_min"
    PRODUCT = "product"


@dataclass(frozen=True)
class ProgressModel:
    """Work output model for one process.

    ``base_rate`` is progress units per epoch at full shares;
    ``response`` maps resource names to their response curves. Resources
    without a curve do not affect progress.
    """

    base_rate: float
    unit_label: str = "units"
    response: Mapping[str, ResponseCurve] = field(default_factory=dict)
    combiner: Combiner = Combiner.BOTTLENECK_MIN

    def __post_init__(self) -> None:
        if not math.isfinite(self.base_rate) or self.base_rate <= 0.0:
            raise ValueError(f"base_rate must be positive, got {self.base_rate!r}")
        object.__setattr__(self, "response", dict(self.response))
        unknown = [r for r in self.response if r not in RESOURCES]
        if unknown:
            raise ValueError(f"unknown resources in response map: {unknown}")


def progress_rate(model: ProgressModel, shares: ResourceShares) -> float:
    """Progress units per epoch at the given shares."""
    if model.combiner is Combiner.BOTTLENECK_MIN:
        combined = 1.0
        for resource, curve in model.response.items():
            combined = min(combined, curve.multiplier(shares.get(resource)))
    else:
        combined = 1.0
        for resource, curve in model.response.items():
            combined *= curve.multiplier(shares.get(resource))
    return model.base_rate * combined


@dataclass(frozen=True)
class ProcessSpec:
    process_id: str
    model: ProgressModel
    source: VerdictSource

    def __post_init__(self) -> None:
        if not self.process_id:
            raise ValueError("process id must be non-empty")


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: processes, policies, and epoch framing.

    ``epochs`` may be smaller than the measurement budget (the run then
    ends before any process becomes terminable) or larger (the tail
    exercises the terminable phase).
    """

    processes: tuple[ProcessSpec, ...]
    measurement_budget: int
    penalty_policy: AssessmentPolicy
    compensation_policy: AssessmentPolicy
    actuator: ActuatorPolicy
    epochs: int
    epoch_duration_ms: float = 100.0
    seed: int = 0
    measurements_per_epoch: int = 1
    response_enabled: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", tuple(self.processes))
        if not self.processes:
            raise ValueError("a scenario needs at least one process")
        ids = [p.process_id for p in self.processes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate process ids: {ids}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.measurement_budget < 1:
            raise ValueError(f"measurement budget must be >= 1, got {self.measurement_budget}")
        if not math.isfinite(self.epoch_duration_ms) or self.epoch_duration_ms <= 0.0:
            raise ValueError("epoch duration must be positive")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.measurements_per_epoch < 1:
            raise ValueError("measurements per epoch must be >= 1")

    def without_response(self) -> "Scenario":
        """The same scenario with throttling and termination disabled."""
        return replace(self, response_enabled=False)


class EpochRecord(NamedTuple):
    """One process-epoch of a run; a plain tuple of its fields, in CSV order."""

    epoch: int
    process_id: str
    verdict: str
    penalty: float
    compensation: float
    threat_index: float
    state: str
    cpu: float
    memory: float
    network: float
    filesystem: float
    progress: float
    cumulative: float

    def csv_row(self) -> tuple[str, ...]:
        return (
            str(self.epoch),
            self.process_id,
            self.verdict,
            f"{self.penalty:.6f}",
            f"{self.compensation:.6f}",
            f"{self.threat_index:.6f}",
            self.state,
            f"{self.cpu:.6f}",
            f"{self.memory:.6f}",
            f"{self.network:.6f}",
            f"{self.filesystem:.6f}",
            f"{self.progress:.6f}",
            f"{self.cumulative:.6f}",
        )


@dataclass(frozen=True)
class ScenarioLog:
    """Per-epoch records for every live process, sorted by epoch then id.

    A terminated process stops producing records after its termination
    epoch, so its record count can be smaller than ``epochs``.

    The records are indexed by process once per log, on first use.
    ``process_ids``, ``for_process`` and ``total_progress`` read that
    index, so a report over every process is linear in records.
    """

    epochs: int
    records: tuple[EpochRecord, ...]

    @cached_property
    def _by_process(self) -> dict[str, tuple[EpochRecord, ...]]:
        rows: dict[str, list[EpochRecord]] = {}
        for record in self.records:
            rows.setdefault(record.process_id, []).append(record)
        return {process_id: tuple(run) for process_id, run in sorted(rows.items())}

    def process_ids(self) -> tuple[str, ...]:
        return tuple(self._by_process)

    def for_process(self, process_id: str) -> tuple[EpochRecord, ...]:
        rows = self._by_process.get(process_id)
        if rows is None:
            raise ValueError(f"no records for process {process_id!r}")
        return rows

    def total_progress(self, process_id: str) -> float:
        return self.for_process(process_id)[-1].cumulative

    def write_csv(self, destination: str | Path | io.TextIOBase) -> None:
        write_rows(destination, LOG_CSV_HEADER, (record.csv_row() for record in self.records))

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        self.write_csv(buffer)
        return buffer.getvalue()


@dataclass(frozen=True)
class SlowdownReport:
    process_id: str
    progress_with: float
    progress_without: float
    slowdown_pct: float

    def csv_row(self) -> tuple[str, ...]:
        return (
            self.process_id,
            f"{self.progress_with:.6f}",
            f"{self.progress_without:.6f}",
            f"{self.slowdown_pct:.6f}",
        )


def respond(
    ledger: ThreatLedger, shares: ResourceShares, verdict: Verdict, scenario: Scenario
) -> tuple[ThreatLedger, ResourceShares]:
    """Apply one verdict: the ledger and shares after this epoch's response.

    A terminable ledger is resolved: malicious terminates the process and
    leaves its shares as they were, benign restores the defaults. Any
    other ledger is stepped and its threat delta actuated. Both drivers
    read what to do from the result: a terminated ledger or new shares.
    """
    if ledger.state is LifecycleState.TERMINABLE:
        ledger = resolve_terminable(ledger, verdict)
        if ledger.state is LifecycleState.TERMINATED:
            return ledger, shares
        return ledger, actuate_reset()
    ledger, delta = step_epoch(
        ledger,
        verdict,
        scenario.penalty_policy,
        scenario.compensation_policy,
        scenario.measurement_budget,
        scenario.measurements_per_epoch,
    )
    return ledger, actuate(shares, delta, scenario.actuator)


def _run_process(spec: ProcessSpec, scenario: Scenario) -> list[EpochRecord]:
    ledger = ThreatLedger()
    shares = DEFAULT_SHARES
    # Progress depends on the shares only; actuation often returns the
    # same shares object, so rate it again only when that object changes.
    rated_shares = None
    rate = 0.0
    cumulative = 0.0
    records: list[EpochRecord] = []
    for epoch in range(scenario.epochs):
        if epoch == 0 or not scenario.response_enabled:
            verdict_name = NO_VERDICT
        else:
            try:
                verdict = next_verdict(spec.source, epoch)
            except SourceExhausted as exc:
                raise ScenarioError(f"process {spec.process_id!r}: {exc}") from exc
            verdict_name = verdict.value
            ledger, shares = respond(ledger, shares, verdict, scenario)
        terminated = ledger.state is LifecycleState.TERMINATED
        if terminated:
            progress = 0.0
        else:
            if shares is not rated_shares:
                rated_shares = shares
                rate = progress_rate(spec.model, shares)
            progress = rate
        cumulative += progress
        records.append(
            EpochRecord(
                epoch,
                spec.process_id,
                verdict_name,
                ledger.penalty,
                ledger.compensation,
                ledger.threat_index,
                ledger.state.value,
                shares.cpu,
                shares.memory,
                shares.network,
                shares.filesystem,
                progress,
                cumulative,
            )
        )
        if terminated:
            break
    return records


def run_scenario(scenario: Scenario) -> ScenarioLog:
    """Run every process through the scenario and merge the records."""
    merged: list[EpochRecord] = []
    for spec in scenario.processes:
        merged.extend(_run_process(spec, scenario))
    merged.sort(key=lambda r: (r.epoch, r.process_id))
    return ScenarioLog(epochs=scenario.epochs, records=tuple(merged))


def slowdown(with_log: ScenarioLog, without_log: ScenarioLog, process_id: str) -> SlowdownReport:
    """Percent of baseline progress lost to the response.

    Both logs must cover the same number of epochs. The result is
    clamped to [0, 100]; with monotone response curves the throttled run
    can never outpace the baseline, and a materially negative value is
    rejected as a broken invariant rather than hidden.
    """
    if with_log.epochs != without_log.epochs:
        raise ValueError(
            f"mismatched epoch counts: {with_log.epochs} with vs {without_log.epochs} without"
        )
    progress_with = with_log.total_progress(process_id)
    progress_without = without_log.total_progress(process_id)
    if progress_without <= 0.0:
        raise ValueError(f"zero baseline progress for process {process_id!r}")
    value = (1.0 - progress_with / progress_without) * 100.0
    if value < -1e-9:
        raise ValueError(
            f"throttled run outpaced baseline for {process_id!r} ({value:.12f}%)"
        )
    return SlowdownReport(
        process_id=process_id,
        progress_with=progress_with,
        progress_without=progress_without,
        slowdown_pct=min(100.0, max(0.0, value)),
    )


def slowdown_reports(with_log: ScenarioLog, without_log: ScenarioLog) -> tuple[SlowdownReport, ...]:
    return tuple(
        slowdown(with_log, without_log, process_id) for process_id in with_log.process_ids()
    )


def write_slowdown_csv(
    reports: tuple[SlowdownReport, ...], destination: str | Path | io.TextIOBase
) -> None:
    write_rows(destination, SLOWDOWN_CSV_HEADER, (report.csv_row() for report in reports))
