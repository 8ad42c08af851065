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
live host. Both drivers step epoch by epoch, and within an epoch the
live processes in id order, so both raise the same first failure.
``run_scenario`` is one flat loop over the epochs: each process's
ledger, shares, rate and cumulative progress live in a small
``__slots__`` object, each record is built with ``tuple.__new__``
(no named-tuple ``__new__`` frame), and the list of live processes is
rebuilt only after an epoch in which one was terminated. It calls
``next_verdict``, ``respond`` and ``progress_rate`` through this
module's globals, where the benchmark's tracer wraps them.

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
default) or product. A model keeps its curves as terms of a resource's
index and the curve's ``multiplier``, so ``progress_rate`` reads the
four shares once and folds the terms in ``response`` order.

Slowdown compares the throttled run against the same scenario with the
response disabled: S = (1 - with/without) * 100, in percent. With the
response off every epoch accrues the rate at the default shares, so
``baseline`` computes those totals in closed form, adding the rate once
per epoch in the order a run would, and matches the totals of
``run_scenario(scenario.without_response())`` bit for bit without
building its records.

Determinism: scenarios are pure functions of their configuration and
seed, and the CSV emission uses fixed 6-decimal formatting, so equal
scenarios produce byte-identical logs.

The response curves, models, specs, logs and reports are ``__slots__``
classes over ``quell._value.Value``: a hand-written constructor
validates and stores the fields, and the base gives, with no code
generated at import, the frozen dataclass's equality, hashing and repr
over the fields, refused assignment and deletion, and pickling. None
has an instance dict: what a constructor derives from the fields (a
model's terms, a log's index by process) sits in a slot that is not a
field, set with ``object.__setattr__``.
``Scenario`` alone stays a dataclass, because the benchmark's checks
copy it with ``dataclasses.replace``; this is the one module that
imports ``dataclasses``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Union

from ._value import Value
from .actuation import (
    DEFAULT_SHARES,
    RESOURCES,
    ActuatorPolicy,
    ResourceShares,
    actuate,
    actuate_reset,
)
from .csvio import quote_cell, write_lines, write_rows
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
    "LOG_CSV_HEADER",
    "SLOWDOWN_CSV_HEADER",
]

LOG_CSV_HEADER = (
    "epoch", "process", "verdict", "penalty", "compensation", "threat", "state",
    "cpu", "mem", "net", "fs", "progress", "cumulative",
)
# One ``log.csv`` line, spelled from an ``EpochRecord`` whose id needs no quoting.
_LOG_LINE = "%d,%s,%s,%.6f,%.6f,%.6f,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n"
SLOWDOWN_CSV_HEADER = ("process", "progress_with", "progress_without", "slowdown_pct")

# Verdict column value for epochs that consume no verdict.
NO_VERDICT = "none"

# Module-level aliases read faster than members through an Enum class.
_TERMINABLE = LifecycleState.TERMINABLE
_TERMINATED = LifecycleState.TERMINATED


class ScenarioError(Exception):
    """A scenario failed at run time (for example, a verdict source ran dry)."""


class Proportional(Value):
    """Progress tracks the resource share one-for-one."""

    __slots__ = ()

    def multiplier(self, share: float) -> float:
        return share


class LinearSaturating(Value):
    """Progress is unaffected until the share dips below the demand.

    ``cap_fraction`` is the fraction of the full allotment the process
    actually consumes; above it, throttling removes only headroom.
    """

    __slots__ = ("cap_fraction",)
    cap_fraction: float

    def __init__(self, cap_fraction: float) -> None:
        if not math.isfinite(cap_fraction) or not 0.0 < cap_fraction <= 1.0:
            raise ValueError(f"cap_fraction must lie in (0, 1], got {cap_fraction!r}")
        self._fill(cap_fraction)

    def multiplier(self, share: float) -> float:
        return min(1.0, share / self.cap_fraction)


class Cliff(Value):
    """Progress is unaffected above a threshold and collapses below it.

    Models working-set behavior: shrink the allotment past the working
    set and the process thrashes at ``collapsed_multiplier`` speed.
    """

    __slots__ = ("threshold_fraction", "collapsed_multiplier")
    threshold_fraction: float
    collapsed_multiplier: float

    def __init__(self, threshold_fraction: float, collapsed_multiplier: float) -> None:
        if not math.isfinite(threshold_fraction) or not 0.0 < threshold_fraction <= 1.0:
            raise ValueError(f"threshold_fraction must lie in (0, 1], got {threshold_fraction!r}")
        if not math.isfinite(collapsed_multiplier) or not 0.0 <= collapsed_multiplier <= 1.0:
            raise ValueError(
                f"collapsed_multiplier must lie in [0, 1], got {collapsed_multiplier!r}"
            )
        self._fill(threshold_fraction, collapsed_multiplier)

    def multiplier(self, share: float) -> float:
        return 1.0 if share >= self.threshold_fraction else self.collapsed_multiplier


ResponseCurve = Union[Proportional, LinearSaturating, Cliff]


class Combiner(Enum):
    BOTTLENECK_MIN = "bottleneck_min"
    PRODUCT = "product"


class ProgressModel(Value):
    """Work output model for one process.

    ``base_rate`` is progress units per epoch at full shares;
    ``response`` maps resource names to their response curves. Resources
    without a curve do not affect progress.
    """

    __slots__ = ("base_rate", "response", "combiner", "_terms")
    base_rate: float
    response: Mapping[str, ResponseCurve]
    combiner: Combiner

    def __init__(
        self,
        base_rate: float,
        # Copied below, so every model holds a map of its own.
        response: Mapping[str, ResponseCurve] = {},
        combiner: Combiner = Combiner.BOTTLENECK_MIN,
    ) -> None:
        if not math.isfinite(base_rate) or base_rate <= 0.0:
            raise ValueError(f"base_rate must be positive, got {base_rate!r}")
        response = dict(response)
        unknown = [r for r in response if r not in RESOURCES]
        if unknown:
            raise ValueError(f"unknown resources in response map: {unknown}")
        self._fill(base_rate, MappingProxyType(response), combiner)
        # (index into RESOURCES, curve.multiplier) per curve, in ``response``
        # order, for ``progress_rate``. Not a field, so equality, hashing
        # and repr ignore it.
        object.__setattr__(
            self, "_terms", tuple([(_INDEX[r], curve.multiplier) for r, curve in response.items()])
        )


_INDEX = {resource: index for index, resource in enumerate(RESOURCES)}
_BOTTLENECK_MIN = Combiner.BOTTLENECK_MIN


def progress_rate(model: ProgressModel, shares: ResourceShares) -> float:
    """Progress units per epoch at the given shares.

    The multipliers fold in ``response`` order. The bottleneck keeps a
    multiplier only when it is below the minimum so far, which is what
    ``min(combined, multiplier)`` returns.
    """
    values = (shares.cpu, shares.memory, shares.network, shares.filesystem)
    combined = 1.0
    if model.combiner is _BOTTLENECK_MIN:
        for index, multiplier in model._terms:
            value = multiplier(values[index])
            if value < combined:
                combined = value
    else:
        for index, multiplier in model._terms:
            combined *= multiplier(values[index])
    return model.base_rate * combined


class ProcessSpec(Value):
    """One simulated process: its id, progress model and verdict source."""

    __slots__ = ("process_id", "model", "source")
    process_id: str
    model: ProgressModel
    source: VerdictSource

    def __init__(self, process_id: str, model: ProgressModel, source: VerdictSource) -> None:
        if not process_id:
            raise ValueError("process id must be non-empty")
        self._fill(process_id, model, source)


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: processes, policies, and epoch framing.

    ``processes`` is held sorted by id, the order both drivers step in.
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
        object.__setattr__(
            self, "processes", tuple(sorted(self.processes, key=lambda spec: spec.process_id))
        )
        if not self.processes:
            raise ValueError("a scenario needs at least one process")
        ids = [p.process_id for p in self.processes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate process ids: {ids}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.measurement_budget < 1:
            raise ValueError(f"measurement budget must be >= 1, got {self.measurement_budget}")
        if not math.isfinite(self.epoch_duration_ms):
            raise ValueError(f"epoch duration must be finite, got {self.epoch_duration_ms!r}")
        if self.epoch_duration_ms <= 0.0:
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


class ScenarioLog(Value):
    """Per-epoch records for every live process, sorted by epoch then id.

    A terminated process stops producing records after its termination
    epoch, so its record count can be smaller than ``epochs``.

    The log indexes its records by process when it is built.
    ``process_ids``, ``for_process`` and ``total_progress`` read that
    index, so a report over every process is linear in records.
    """

    __slots__ = ("epochs", "records", "_by_process")
    epochs: int
    records: tuple[EpochRecord, ...]

    def __init__(self, epochs: int, records: tuple[EpochRecord, ...]) -> None:
        self._fill(epochs, records)
        rows: dict[str, list[EpochRecord]] = {}
        for record in records:
            rows.setdefault(record.process_id, []).append(record)
        index = {process_id: tuple(run) for process_id, run in sorted(rows.items())}
        # Not a field, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_by_process", index)

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
        """Write ``log.csv``: the bytes ``csv_row`` through the CSV writer gives.

        Every cell but the process id is an int, a fixed-point float or
        an enum value, none of which the writer would quote, so each row
        is one ``%`` format of the record. An id that needs quoting is
        swapped for its ``quote_cell`` spelling first. The rows stream
        out as they are spelled.
        """
        quoted = {pid: cell for pid in self._by_process if (cell := quote_cell(pid)) != pid}
        records: Iterable[EpochRecord] = self.records
        if quoted:
            records = (
                r._replace(process_id=quoted[r.process_id]) if r.process_id in quoted else r
                for r in records
            )
        write_lines(destination, LOG_CSV_HEADER, map(_LOG_LINE.__mod__, records))

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        self.write_csv(buffer)
        return buffer.getvalue()


class Baseline(Value):
    """Total progress of every process with the response disabled.

    Answers what ``slowdown`` asks of the log of the unthrottled run:
    its ``epochs`` and each process's ``total_progress``.
    """

    __slots__ = ("epochs", "totals")
    epochs: int
    totals: Mapping[str, float]

    def __init__(self, epochs: int, totals: Mapping[str, float]) -> None:
        self._fill(epochs, MappingProxyType(dict(totals)))

    def total_progress(self, process_id: str) -> float:
        total = self.totals.get(process_id)
        if total is None:
            raise ValueError(f"no records for process {process_id!r}")
        return total


class SlowdownReport(Value):
    """One process's progress with and without the response, and the slowdown between."""

    __slots__ = ("process_id", "progress_with", "progress_without", "slowdown_pct")
    process_id: str
    progress_with: float
    progress_without: float
    slowdown_pct: float

    def __init__(
        self, process_id: str, progress_with: float, progress_without: float, slowdown_pct: float
    ) -> None:
        self._fill(process_id, progress_with, progress_without, slowdown_pct)

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
    other ledger is stepped and its threat delta actuated. The shares
    come back as the very object given unless a share moved, so both
    drivers read what to do from the result alone: a terminated ledger,
    or shares that are not the ones they passed in.
    """
    if ledger.state is _TERMINABLE:
        ledger = resolve_terminable(ledger, verdict)
        if ledger.state is _TERMINATED or shares is DEFAULT_SHARES or shares == DEFAULT_SHARES:
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


class _Run:
    """One process's state while ``run_scenario`` steps it, from a fresh ledger at full shares.

    Progress depends on the shares only, and ``respond`` returns the
    same shares object unless a share moved, so ``rate`` is the rate at
    ``shares`` and is rated again only when that object changes.
    """

    __slots__ = ("spec", "ledger", "shares", "rate", "cumulative")

    def __init__(self, spec: ProcessSpec) -> None:
        self.spec = spec
        self.ledger = ThreatLedger()
        self.shares = DEFAULT_SHARES
        self.rate = progress_rate(spec.model, DEFAULT_SHARES)
        self.cumulative = 0.0


_new_record = tuple.__new__


def run_scenario(scenario: Scenario) -> ScenarioLog:
    """Run the processes epoch by epoch, each epoch in id order.

    That is the order of the log's records and the order ``supervise``
    steps in, so the first failure raised is the earliest epoch's, then
    the lowest id's. Epoch 0, and every epoch with the response off,
    consumes no verdict. A terminated process has no record after that
    epoch.
    """
    records: list[EpochRecord] = []
    append = records.append
    runs = [_Run(spec) for spec in scenario.processes]
    quiet = 1 if scenario.response_enabled else scenario.epochs
    for epoch in range(quiet):
        for run in runs:
            ledger, shares = run.ledger, run.shares
            run.cumulative = cumulative = run.cumulative + run.rate
            fields = (
                epoch, run.spec.process_id, NO_VERDICT,
                ledger.penalty, ledger.compensation, ledger.threat_index, ledger.state._value_,
                shares.cpu, shares.memory, shares.network, shares.filesystem, run.rate, cumulative,
            )
            append(_new_record(EpochRecord, fields))
    for epoch in range(quiet, scenario.epochs):
        terminated = False
        for run in runs:
            spec = run.spec
            try:
                verdict = next_verdict(spec.source, epoch)
            except SourceExhausted as exc:
                raise ScenarioError(f"process {spec.process_id!r}: {exc}") from exc
            ledger, shares = respond(run.ledger, run.shares, verdict, scenario)
            run.ledger = ledger
            state = ledger.state
            if state is _TERMINATED:
                progress = 0.0
                terminated = True
            else:
                if shares is not run.shares:
                    run.shares = shares
                    run.rate = progress_rate(spec.model, shares)
                progress = run.rate
            run.cumulative = cumulative = run.cumulative + progress
            # ``_value_`` is the plain attribute behind the ``value`` property.
            fields = (
                epoch, spec.process_id, verdict._value_,
                ledger.penalty, ledger.compensation, ledger.threat_index, state._value_,
                shares.cpu, shares.memory, shares.network, shares.filesystem, progress, cumulative,
            )
            append(_new_record(EpochRecord, fields))
        if terminated:
            runs = [run for run in runs if run.ledger.state is not _TERMINATED]
    return ScenarioLog(epochs=scenario.epochs, records=tuple(records))


def baseline(scenario: Scenario) -> Baseline:
    """The totals of ``run_scenario(scenario.without_response())``, without its records.

    With the response off a process accrues its rate at the default
    shares every epoch; the rate is added once per epoch, as a run adds
    it, so the totals are equal bit for bit.
    """
    totals = {}
    for spec in scenario.processes:
        rate = progress_rate(spec.model, DEFAULT_SHARES)
        total = 0.0
        for _ in range(scenario.epochs):
            total += rate
        totals[spec.process_id] = total
    return Baseline(epochs=scenario.epochs, totals=totals)


def slowdown(
    with_log: ScenarioLog, without_log: ScenarioLog | Baseline, process_id: str
) -> SlowdownReport:
    """Percent of baseline progress lost to the response.

    ``without_log`` is the log of the run without response or its
    ``baseline``. Both must cover the same number of epochs. The result is
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


def slowdown_reports(
    with_log: ScenarioLog, without_log: ScenarioLog | Baseline
) -> tuple[SlowdownReport, ...]:
    return tuple(
        slowdown(with_log, without_log, process_id) for process_id in with_log.process_ids()
    )


def write_slowdown_csv(
    reports: tuple[SlowdownReport, ...], destination: str | Path | io.TextIOBase
) -> None:
    write_rows(destination, SLOWDOWN_CSV_HEADER, (report.csv_row() for report in reports))
