"""Resource-share arithmetic: throttling, restoration, and fair-share modeling.

Shares are fractions of a process's attach-time resource allotment, one
per controlled resource (cpu, memory, network, filesystem). The actuator
moves targeted shares in response to threat-index deltas:

* a positive delta lowers each targeted share, stopping at a per-resource
  floor so the process is starved but never wedged;
* a negative delta restores shares toward 1.0;
* a delta that moves no targeted share (zero, a throttle at the floor,
  a restore at 1.0) returns the very shares it was given.

Two modes are supported. Additive moves shares by ``throttle_step`` per
unit of delta. Multiplicative scales them by ``(1 - throttle_step)`` per
unit (and ``(1 + throttle_step)`` on restore), which deliberately does
not invert: throttle-then-restore lands below the starting point.

``cfs_timeslice`` and ``weight_for_threat`` model how the share fraction
maps onto a proportional-share scheduler: a process's slice of every
scheduling period is its weight over the sum of weights, so scaling the
weight scales the slice.

Values are validated when they are constructed: shares reject anything
outside (0, 1] (NaN and infinities included), and a policy checks its
step, targets and floors once. ``actuate`` builds only from valid
shares and policies and re-checks just the floor condition it relies on.

``ActuatorPolicy`` and ``SchedulerModel`` are ``__slots__`` classes
over ``quell._value.Value``, which gives them, with no code generated at
import, what the frozen dataclass gave: equality, hashing and a repr
over their fields, refused assignment and deletion, and pickling. Each
constructor validates, then stores the fields through
``object.__setattr__``, as the frozen dataclass's generated one did.

The shares stay a dataclass, because the fake host and the tests copy
them with ``dataclasses.replace``. Every share-changing epoch builds new
shares, so their constructor is written by hand: it validates, then
fills the instance dict field by field, where the generated one sets
each field through ``object.__setattr__``, which costs about twice as
much. Filling the existing dict rather than assigning a new one keeps
the instances' shared-key dicts. ``__eq__`` is written by hand too: it
compares the four floats in field order and stops at the first
difference, where the generated one builds two tuples first;
``dataclass`` still generates the field-tuple ``__hash__``, so equal
shares hash alike.

``actuate`` tests for a zero delta first: about half of all steps
leave the threat index as it was. It computes the move once per call,
one ``**`` or one product, for every target, which is what each target
got before. It reads the actuation mode through a module-level alias,
because a read through an ``Enum`` class takes its metaclass's slow
``__getattr__`` path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping

from ._value import Value

__all__ = [
    "RESOURCES",
    "ResourceShares",
    "DEFAULT_SHARES",
    "ActuationMode",
    "ActuatorPolicy",
    "SchedulerModel",
    "actuate",
    "actuate_reset",
    "cfs_timeslice",
    "weight_for_threat",
]

RESOURCES = ("cpu", "memory", "network", "filesystem")


@dataclass(frozen=True, init=False)
class ResourceShares:
    """Fraction of the attach-time allotment per resource, each in (0, 1]."""

    cpu: float = 1.0
    memory: float = 1.0
    network: float = 1.0
    filesystem: float = 1.0

    def __init__(
        self, cpu: float = 1.0, memory: float = 1.0, network: float = 1.0, filesystem: float = 1.0
    ) -> None:
        # One comparison on the common, valid path; it is false for NaN
        # and both infinities. The loop runs only to name what failed, so
        # each term here must test the same range as the loop below.
        if not (
            0.0 < cpu <= 1.0
            and 0.0 < memory <= 1.0
            and 0.0 < network <= 1.0
            and 0.0 < filesystem <= 1.0
        ):
            for name, value in zip(RESOURCES, (cpu, memory, network, filesystem)):
                if not 0.0 < value <= 1.0:
                    raise ValueError(f"{name} share must lie in (0, 1], got {value!r}")
        fields = self.__dict__
        fields["cpu"] = cpu
        fields["memory"] = memory
        fields["network"] = network
        fields["filesystem"] = filesystem

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.cpu == other.cpu
            and self.memory == other.memory
            and self.network == other.network
            and self.filesystem == other.filesystem
        )

    def get(self, resource: str) -> float:
        if resource not in RESOURCES:
            raise ValueError(f"unknown resource {resource!r}")
        return getattr(self, resource)


DEFAULT_SHARES = ResourceShares()


class ActuationMode(Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


_ADDITIVE = ActuationMode.ADDITIVE


class ActuatorPolicy(Value):
    """How threat-index deltas translate into share movements.

    ``throttle_step`` is the per-unit-of-delta movement: an absolute
    decrement in additive mode, a fall fraction in multiplicative mode.
    Floors keep each resource usable; the memory floor defaults high
    because collapsing memory tends to kill rather than slow a process.
    """

    __slots__ = (
        "throttle_step", "mode", "targets",
        "floor_cpu", "floor_memory", "floor_network", "floor_filesystem", "_target_floors",
    )
    throttle_step: float
    mode: ActuationMode
    targets: tuple[str, ...]
    floor_cpu: float
    floor_memory: float
    floor_network: float
    floor_filesystem: float

    def __init__(
        self,
        throttle_step: float = 0.1,
        mode: ActuationMode = ActuationMode.ADDITIVE,
        targets: tuple[str, ...] = ("cpu",),
        floor_cpu: float = 0.01,
        floor_memory: float = 0.9,
        floor_network: float = 1e-6,
        floor_filesystem: float = 0.01,
    ) -> None:
        if not math.isfinite(throttle_step) or not 0.0 < throttle_step < 1.0:
            raise ValueError(f"throttle_step must lie in (0, 1), got {throttle_step!r}")
        if not targets:
            raise ValueError("at least one target resource is required")
        unknown = [t for t in targets if t not in RESOURCES]
        if unknown:
            raise ValueError(f"unknown target resources: {unknown}")
        # Normalize to canonical order with duplicates dropped.
        seen = set(targets)
        targets = tuple(r for r in RESOURCES if r in seen)
        floors = (floor_cpu, floor_memory, floor_network, floor_filesystem)
        for name, floor in zip(RESOURCES, floors):
            if not math.isfinite(floor) or not 0.0 < floor < 1.0:
                raise ValueError(f"floor_{name} must lie in (0, 1), got {floor!r}")
        self._fill(throttle_step, mode, targets, *floors)
        # (index into RESOURCES, floor) per target, for ``actuate``. Not a
        # field, so equality, hashing and repr ignore it.
        object.__setattr__(
            self,
            "_target_floors",
            tuple((index, floors[index]) for index, r in enumerate(RESOURCES) if r in seen),
        )

    def floor(self, resource: str) -> float:
        if resource not in RESOURCES:
            raise ValueError(f"unknown resource {resource!r}")
        return getattr(self, f"floor_{resource}")


def actuate(shares: ResourceShares, threat_delta: float, policy: ActuatorPolicy) -> ResourceShares:
    """Move every targeted share by one threat-index delta.

    Returns ``shares`` itself when no targeted share moves. Untargeted
    resources are never touched. Targeted shares must already sit at or
    above their policy floor; results stay within [floor, 1.0].
    """
    if threat_delta == 0.0:
        return shares
    if not math.isfinite(threat_delta):
        raise ValueError(f"threat delta must be finite, got {threat_delta!r}")
    # One move for every target, ``share * factor + shift``, exact where a
    # term is 1.0 or 0.0: additive mode shifts by ``-(step * delta)``, the
    # same sum as ``share - step * delta`` and ``share + step * -delta``.
    step = policy.throttle_step
    if policy.mode is _ADDITIVE:
        factor, shift = 1.0, -(step * threat_delta)
    elif threat_delta > 0.0:
        factor, shift = (1.0 - step) ** threat_delta, 0.0
    else:
        factor, shift = (1.0 + step) ** -threat_delta, 0.0
    values = [shares.cpu, shares.memory, shares.network, shares.filesystem]
    moved = False
    for index, floor in policy._target_floors:
        current = values[index]
        if current < floor:
            raise ValueError(
                f"{RESOURCES[index]} share {current!r} is below the policy floor {floor!r}"
            )
        # A throttle never raises a share nor a restore lowers one, so
        # each meets only its own bound.
        share = current * factor + shift
        if share < floor:
            share = floor
        elif share > 1.0:
            share = 1.0
        values[index] = share
        moved = moved or share != current
    return ResourceShares(*values) if moved else shares


def actuate_reset() -> ResourceShares:
    """Restore every resource to the full attach-time allotment."""
    return DEFAULT_SHARES


class SchedulerModel(Value):
    """Proportional-share scheduling period: per-process weights and the
    period length every runnable process shares."""

    __slots__ = ("target_latency_ms", "weights")
    target_latency_ms: float
    weights: Mapping[str, float]

    def __init__(self, target_latency_ms: float, weights: Mapping[str, float]) -> None:
        if not math.isfinite(target_latency_ms) or target_latency_ms <= 0.0:
            raise ValueError("target latency must be positive")
        weights = dict(weights)
        for name, weight in weights.items():
            if not math.isfinite(weight) or weight <= 0.0:
                raise ValueError(f"weight for {name!r} must be positive, got {weight!r}")
        self._fill(target_latency_ms, weights)


def cfs_timeslice(model: SchedulerModel) -> dict[str, float]:
    """Split one scheduling period across processes by relative weight.

    The returned slices sum to the period length (up to rounding).
    """
    if not model.weights:
        raise ValueError("at least one process is required")
    total = sum(model.weights.values())
    return {
        name: model.target_latency_ms * weight / total
        for name, weight in model.weights.items()
    }


def weight_for_threat(
    default_weight: float,
    threat_deltas: Iterable[float],
    throttle_step: float = 0.1,
    weight_floor: float = 1e-6,
) -> float:
    """Scheduler weight after a sequence of threat-index deltas.

    Folds the multiplicative actuator over the deltas starting from the
    full relative weight, respecting the weight floor, then scales the
    default weight by the result. An empty sequence returns the default
    unchanged.
    """
    if not math.isfinite(default_weight) or default_weight <= 0.0:
        raise ValueError(f"default weight must be positive, got {default_weight!r}")
    policy = ActuatorPolicy(
        throttle_step=throttle_step,
        mode=ActuationMode.MULTIPLICATIVE,
        targets=("cpu",),
        floor_cpu=weight_floor,
    )
    shares = DEFAULT_SHARES
    for delta in threat_deltas:
        shares = actuate(shares, delta, policy)
    return default_weight * shares.cpu
