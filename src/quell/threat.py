"""Per-process threat ledger and its lifecycle state machine.

Each supervised process carries a ledger of three bounded scores:

* penalty        grows on every malicious verdict
* compensation   grows on every benign verdict while the process is suspect
* threat index   running balance: penalties add to it, compensations
                 subtract from it

All three scores are clamped to [0, 100]. The threat index drives the
actuator: its per-epoch delta decides how hard the process is throttled
or how much of its resources are given back.

The lifecycle state tracks where the process sits in the response
pipeline:

    normal       threat index is zero; no restrictions warranted
    suspicious   threat index is positive; resources are being throttled
    terminable   the detector has used up its measurement budget; the
                 next verdicts decide between restore and terminate
    terminated   absorbing; the process is gone

Within the budget-filling phase, ``step_epoch`` consumes one verdict per
epoch. Once the measurement count reaches the budget the ledger enters
the terminable state and ``resolve_terminable`` takes over: a benign
verdict keeps the process alive (the caller restores its resources), a
malicious one terminates it. A process that exits on its own is recorded
through ``mark_completed`` with a distinct exit reason.

The ledger is a frozen value type. Stepping returns a new ledger, so
values can be shared across threads or processes without locks.

Values are validated when they are constructed: a ledger rejects any
score outside [0, 100] (NaN and infinities included) and any negative
count. The steps build only from valid ledgers and bounded policies, so
they do not re-check what a ledger already guarantees; ``assess`` is
the checked form of the same growth rule, for a score that does not
come from a ledger.

``ThreatLedger`` and ``AssessmentPolicy`` are ``__slots__`` classes
over ``quell._value.Value``, which gives them, with no code generated
at import, equality, hashing and a repr over their fields, refused
assignment and deletion, and pickling. The ledger's constructor checks
each field by name, then stores them with ``_fill``. Every epoch builds
a ledger, so ``step_epoch``, ``resolve_terminable`` and
``mark_completed`` build theirs with ``_build_ledger`` instead: one
chained comparison accepts exactly what the constructor accepts, then
the fields are stored on ``object.__new__`` of the ledger's ``draft``,
one plain slot store each, and one ``__class__`` assignment freezes it
as a ``ThreatLedger``, with no type call and no ``__init__`` frame. The
draft sets ``__delattr__`` with ``__setattr__``, because CPython keeps
both in one type slot and overriding only one leaves every store on the
slow path. A field the comparison refuses goes to the constructor,
which raises its message.
The per-epoch functions read enum members through module-level
aliases, because a read through an ``Enum`` class takes its
metaclass's slow ``__getattr__`` path.

About half of all steps are benign verdicts on a normal ledger, whose
threat index stays 0.0. ``step_epoch`` tests each score's range inline:
it sets a threat index equal to zero to 0.0 itself, which is what
``clamp`` returns for it, and calls ``clamp`` only for a score that is
not a float in (0, 100]. So ``clamp`` is only the checked path: the
finite check, then the bound.
"""

from __future__ import annotations

import math
from enum import Enum

from ._value import Value, draft

__all__ = [
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
]

# Upper bound shared by penalty, compensation, and threat index.
SCORE_CEILING = 100.0

# Exit reasons recorded when a ledger reaches the terminated state.
EXIT_BY_DETECTOR = "detector"
EXIT_COMPLETED = "completed"


class Verdict(Enum):
    """Per-epoch detector output for one process."""

    MALICIOUS = "malicious"
    BENIGN = "benign"


class LifecycleState(Enum):
    NORMAL = "normal"
    SUSPICIOUS = "suspicious"
    TERMINABLE = "terminable"
    TERMINATED = "terminated"


class GrowthFamily(Enum):
    INCREMENTAL = "incremental"
    LINEAR = "linear"
    EXPONENTIAL = "exponential"


# Module-level aliases for the members the per-epoch functions read.
_MALICIOUS = Verdict.MALICIOUS
_NORMAL = LifecycleState.NORMAL
_SUSPICIOUS = LifecycleState.SUSPICIOUS
_TERMINABLE = LifecycleState.TERMINABLE
_TERMINATED = LifecycleState.TERMINATED
_INCREMENTAL = GrowthFamily.INCREMENTAL
_LINEAR = GrowthFamily.LINEAR


def clamp(value: float) -> float:
    """Clamp a finite score into [0, 100].

    Non-finite input is a contract violation, not a saturating case:
    every producer of scores in this module is bounded, so NaN or
    infinity means the caller fed garbage in.
    """
    if not math.isfinite(value):
        raise ValueError(f"score must be finite, got {value!r}")
    return max(0.0, min(float(value), SCORE_CEILING))


class AssessmentPolicy(Value):
    """How a penalty or compensation score grows on each matching verdict.

    Three families are supported:

    * incremental:  x -> x + 1
    * linear:       x -> a*x + b      with a >= 1 and b >= 0
    * exponential:  x -> (2**epoch)*x + 1, epoch being the current epoch
                    index (numbering starts at 0)

    Results are clamped by the caller (``assess``, ``step_epoch``), not here.
    """

    __slots__ = ("family", "linear_a", "linear_b")
    family: GrowthFamily
    linear_a: float
    linear_b: float

    def __init__(
        self, family: GrowthFamily = _INCREMENTAL, linear_a: float = 1.0, linear_b: float = 1.0
    ) -> None:
        if family is _LINEAR:
            if not (math.isfinite(linear_a) and math.isfinite(linear_b)):
                raise ValueError("linear growth constants must be finite")
            if linear_a < 1.0 or linear_b < 0.0:
                raise ValueError("linear growth requires a >= 1 and b >= 0")
        self._fill(family, linear_a, linear_b)

    @classmethod
    def incremental(cls) -> "AssessmentPolicy":
        return cls(GrowthFamily.INCREMENTAL)

    @classmethod
    def linear(cls, a: float, b: float) -> "AssessmentPolicy":
        return cls(GrowthFamily.LINEAR, linear_a=a, linear_b=b)

    @classmethod
    def exponential(cls) -> "AssessmentPolicy":
        return cls(GrowthFamily.EXPONENTIAL)

    def grow(self, previous: float, epoch: int) -> float:
        """Raw growth before clamping."""
        family = self.family
        if family is _INCREMENTAL:
            return previous + 1.0
        if family is _LINEAR:
            return self.linear_a * previous + self.linear_b
        try:
            scaled = math.ldexp(previous, epoch)
        except OverflowError:
            # 2**epoch * previous is far beyond the clamp already.
            return SCORE_CEILING
        return scaled + 1.0


def _check_score(value: float, name: str) -> None:
    # The range comparison is false for NaN and both infinities.
    # ``_build_ledger`` inlines the same range for speed.
    if not 0.0 <= value <= SCORE_CEILING:
        raise ValueError(f"{name} must lie in [0, {SCORE_CEILING:g}], got {value!r}")


def _check_epoch(epoch: int) -> None:
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")


def assess(policy: AssessmentPolicy, previous: float, epoch: int) -> float:
    """Grow a penalty or compensation score by one step and clamp it.

    The result never falls below ``previous``: all growth families are
    non-decreasing and the previous value was already within bounds.
    ``step_epoch`` grows ledger scores to the same value but skips these
    checks, which a valid ledger already guarantees.
    """
    _check_score(previous, "previous")
    _check_epoch(epoch)
    return clamp(policy.grow(previous, epoch))


class ThreatLedger(Value):
    """Scoring state for one supervised process.

    ``epoch`` counts consumed verdicts; ``measurements`` counts detector
    measurements toward the budget. They coincide under the default one
    measurement per epoch but may diverge when a scenario samples more.
    """

    __slots__ = (
        "penalty", "compensation", "threat_index", "state", "epoch", "measurements", "exit_reason",
    )
    penalty: float
    compensation: float
    threat_index: float
    state: LifecycleState
    epoch: int
    measurements: int
    exit_reason: str | None

    def __init__(
        self,
        penalty: float = 0.0,
        compensation: float = 0.0,
        threat_index: float = 0.0,
        state: LifecycleState = _NORMAL,
        epoch: int = 0,
        measurements: int = 0,
        exit_reason: str | None = None,
    ) -> None:
        _check_score(penalty, "penalty")
        _check_score(compensation, "compensation")
        _check_score(threat_index, "threat_index")
        if not (epoch >= 0 and measurements >= 0):
            raise ValueError("epoch and measurements must be non-negative")
        self._fill(penalty, compensation, threat_index, state, epoch, measurements, exit_reason)


_new = object.__new__
_ThreatLedgerDraft = draft(ThreatLedger)


def _build_ledger(
    penalty: float,
    compensation: float,
    threat_index: float,
    state: LifecycleState,
    epoch: int,
    measurements: int,
    exit_reason: str | None,
) -> ThreatLedger:
    """``ThreatLedger(...)`` without the type call and ``__init__`` frame.

    One comparison accepts exactly what the constructor accepts; a field
    it refuses goes to the constructor, which names it. The fields go
    into a draft, which the last store makes a ``ThreatLedger``.
    """
    if not (
        0.0 <= penalty <= SCORE_CEILING
        and 0.0 <= compensation <= SCORE_CEILING
        and 0.0 <= threat_index <= SCORE_CEILING
        and epoch >= 0
        and measurements >= 0
    ):
        return ThreatLedger(penalty, compensation, threat_index, state, epoch, measurements, exit_reason)
    ledger = _new(_ThreatLedgerDraft)
    ledger.penalty = penalty
    ledger.compensation = compensation
    ledger.threat_index = threat_index
    ledger.state = state
    ledger.epoch = epoch
    ledger.measurements = measurements
    ledger.exit_reason = exit_reason
    ledger.__class__ = ThreatLedger
    return ledger


def step_epoch(
    ledger: ThreatLedger,
    verdict: Verdict,
    penalty_policy: AssessmentPolicy,
    compensation_policy: AssessmentPolicy,
    measurement_budget: int,
    new_measurements: int = 1,
) -> tuple[ThreatLedger, float]:
    """Consume one verdict during the budget-filling phase.

    Returns the stepped ledger and the threat-index delta for the epoch
    (post-clamp minus pre-step), which is what the actuator consumes.

    Semantics, in order:

    * a malicious verdict always (re)marks the process suspicious, grows
      the penalty, and adds the grown penalty to the threat index;
    * a benign verdict grows the compensation and subtracts it only when
      the process is currently suspicious; in the normal state it is a
      no-op on the scores;
    * the threat index is clamped to [0, 100]; if it lands on zero the
      process returns to the normal state;
    * if the measurement count reaches the budget, the ledger enters the
      terminable state regardless of the verdict.

    Penalty and compensation are never reset by recovery; only clamping
    bounds them. Scores grow as ``assess`` grows them but skip its
    checks, which a valid ledger already guarantees. A zero threat index
    becomes 0.0 without ``clamp``; any other score calls it only once it
    has left (0, 100] or is not a float.
    """
    state = ledger.state
    if state is not _NORMAL and state is not _SUSPICIOUS:
        raise ValueError(f"cannot step a ledger in state {state.value!r}")
    if measurement_budget < 1:
        raise ValueError(f"measurement budget must be >= 1, got {measurement_budget}")
    measurements = ledger.measurements
    if measurements >= measurement_budget:
        raise ValueError("measurement budget already exhausted")
    if new_measurements < 1:
        raise ValueError(f"new_measurements must be >= 1, got {new_measurements}")

    epoch = ledger.epoch + 1
    measurements += new_measurements
    penalty = ledger.penalty
    compensation = ledger.compensation
    previous_threat = ledger.threat_index

    if verdict is _MALICIOUS:
        state = _SUSPICIOUS
        penalty = penalty_policy.grow(penalty, epoch)
        if not 0.0 < penalty <= SCORE_CEILING or penalty.__class__ is not float:
            penalty = clamp(penalty)
        threat_index = previous_threat + penalty
    elif state is _SUSPICIOUS:
        compensation = compensation_policy.grow(compensation, epoch)
        if not 0.0 < compensation <= SCORE_CEILING or compensation.__class__ is not float:
            compensation = clamp(compensation)
        threat_index = previous_threat - compensation
    else:
        threat_index = previous_threat

    if threat_index == 0.0:
        # What ``clamp`` returns for any zero, without the call.
        threat_index = 0.0
        state = _NORMAL
    elif not 0.0 < threat_index <= SCORE_CEILING or threat_index.__class__ is not float:
        threat_index = clamp(threat_index)
        if threat_index == 0.0:
            state = _NORMAL
    if measurements >= measurement_budget:
        state = _TERMINABLE

    stepped = _build_ledger(penalty, compensation, threat_index, state, epoch, measurements, None)
    return stepped, threat_index - previous_threat


def resolve_terminable(ledger: ThreatLedger, verdict: Verdict) -> ThreatLedger:
    """Consume one verdict after the measurement budget has filled.

    Benign keeps the process alive in the terminable state; the caller
    is expected to restore its resources. Malicious terminates it.
    Scores and measurements are left untouched; only the epoch advances.
    """
    state = ledger.state
    if state is not _TERMINABLE:
        raise ValueError(f"cannot resolve a ledger in state {state.value!r}")
    if verdict is _MALICIOUS:
        state, exit_reason = _TERMINATED, EXIT_BY_DETECTOR
    else:
        exit_reason = ledger.exit_reason
    return _build_ledger(
        ledger.penalty, ledger.compensation, ledger.threat_index,
        state, ledger.epoch + 1, ledger.measurements, exit_reason,
    )


def mark_completed(ledger: ThreatLedger) -> ThreatLedger:
    """Record that the process exited on its own.

    Valid from any live state; the terminated state is absorbing.
    """
    if ledger.state is _TERMINATED:
        raise ValueError("terminated is absorbing")
    return _build_ledger(
        ledger.penalty, ledger.compensation, ledger.threat_index,
        _TERMINATED, ledger.epoch, ledger.measurements, EXIT_COMPLETED,
    )
