"""Detection-efficacy planning: how many measurements buy a quality target.

A detector's quality rises with the number of measurements it has seen.
Given an ingested quality curve (per-measurement-count F1 and false
positive rate points) and a target, the planner returns the smallest
measurement budget that satisfies the target, interpolating linearly
between curve points and rounding up to a whole measurement. The budget
converts to wall-clock time through the epoch duration.
"""

from __future__ import annotations

import math
from enum import Enum
from pathlib import Path

from ._value import Value
from .csvio import read_rows

__all__ = [
    "CurvePoint",
    "EfficacyCurve",
    "TargetKind",
    "EfficacyTarget",
    "UnreachableTargetError",
    "required_measurements",
    "budget_to_time",
    "load_curve_csv",
    "CURVE_CSV_HEADER",
]

CURVE_CSV_HEADER = ("measurements", "f1", "fpr")

# Crossings within this distance of an integer snap down instead of
# paying one extra measurement for float noise.
_CEIL_GUARD = 1e-9


class UnreachableTargetError(Exception):
    """The target is not satisfied anywhere the curve can promise it."""


class CurvePoint(Value):
    """The detector's F1 and FPR after ``measurements`` measurements."""

    __slots__ = ("measurements", "f1", "fpr")
    measurements: int
    f1: float
    fpr: float

    def __init__(self, measurements: int, f1: float, fpr: float) -> None:
        if measurements < 1:
            raise ValueError(f"measurements must be >= 1, got {measurements}")
        for name, value in (("f1", f1), ("fpr", fpr)):
            if not math.isfinite(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        self._fill(measurements, f1, fpr)


class EfficacyCurve(Value):
    """Quality-versus-measurements curve for one detector.

    Points must be ordered by strictly increasing measurement count and
    there must be at least two of them (a single point cannot be
    interpolated).
    """

    __slots__ = ("points", "detector_name", "epoch_duration_ms")
    points: tuple[CurvePoint, ...]
    detector_name: str
    epoch_duration_ms: float

    def __init__(
        self,
        points: tuple[CurvePoint, ...],
        detector_name: str = "detector",
        epoch_duration_ms: float = 100.0,
    ) -> None:
        points = tuple(points)
        if len(points) < 2:
            raise ValueError("a curve needs at least two points")
        for earlier, later in zip(points, points[1:]):
            if later.measurements <= earlier.measurements:
                raise ValueError("measurement counts must be strictly increasing")
        if not math.isfinite(epoch_duration_ms):
            raise ValueError(f"epoch duration must be finite, got {epoch_duration_ms!r}")
        if epoch_duration_ms <= 0.0:
            raise ValueError("epoch duration must be positive")
        self._fill(points, detector_name, epoch_duration_ms)


class TargetKind(Enum):
    F1_AT_LEAST = "f1_at_least"
    FPR_AT_MOST = "fpr_at_most"


class EfficacyTarget(Value):
    """A detection quality bound: F1 at least, or FPR at most, ``threshold``."""

    __slots__ = ("kind", "threshold")
    kind: TargetKind
    threshold: float

    def __init__(self, kind: TargetKind, threshold: float) -> None:
        if not math.isfinite(threshold) or not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {threshold!r}")
        self._fill(kind, threshold)


def required_measurements(
    curve: EfficacyCurve,
    target: EfficacyTarget,
    *,
    sustained: bool = True,
) -> int:
    """Smallest whole measurement count that satisfies the target.

    With ``sustained`` (the default) the crossing must hold for every
    later curve point, so a dip back below the target on a non-monotone
    curve pushes the answer past the dip. With ``sustained=False`` the
    plain first crossing is returned. Either way the crossing is located
    by linear interpolation inside the bracketing segment and rounded up
    to the next integer; the result always lies between the first and
    last point's measurement counts.
    """
    if target.kind is TargetKind.F1_AT_LEAST:
        metric = lambda p: p.f1  # noqa: E731
        satisfied = lambda v: v >= target.threshold  # noqa: E731
    else:
        metric = lambda p: p.fpr  # noqa: E731
        satisfied = lambda v: v <= target.threshold  # noqa: E731

    points = curve.points
    flags = [satisfied(metric(p)) for p in points]
    if not flags[-1]:
        raise UnreachableTargetError(
            f"{curve.detector_name}: {target.kind.value} {target.threshold:g} is not "
            f"met at the curve's last point ({points[-1].measurements} measurements)"
        )

    if sustained:
        # First index of the trailing run of satisfied points.
        index = len(points) - 1
        while index > 0 and flags[index - 1]:
            index -= 1
    else:
        index = flags.index(True)

    if index == 0:
        return points[0].measurements

    before, after = points[index - 1], points[index]
    value_before, value_after = metric(before), metric(after)
    # before fails and after satisfies, so the segment brackets the
    # threshold and the denominator cannot be zero.
    fraction = (target.threshold - value_before) / (value_after - value_before)
    crossing = before.measurements + fraction * (after.measurements - before.measurements)
    return int(math.ceil(crossing - _CEIL_GUARD))


def budget_to_time(measurement_budget: int, curve: EfficacyCurve) -> float:
    """Seconds of wall clock the budget costs at the curve's epoch rate."""
    if measurement_budget < 1:
        raise ValueError(f"measurement budget must be >= 1, got {measurement_budget}")
    return measurement_budget * curve.epoch_duration_ms / 1000.0


def load_curve_csv(path: str | Path, epoch_duration_ms: float = 100.0) -> EfficacyCurve:
    """Read a curve from CSV with the exact header measurements,f1,fpr.

    The curve is named after the file's stem. An error in the points
    names the file; one in ``epoch_duration_ms`` does not.
    """
    path = Path(path)
    points = []
    for line, row in read_rows(path, CURVE_CSV_HEADER, "curve"):
        try:
            points.append(CurvePoint(measurements=int(row[0]), f1=float(row[1]), fpr=float(row[2])))
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
    try:
        # At the default epoch duration only the points can be at fault.
        curve = EfficacyCurve(tuple(points), detector_name=path.stem)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return EfficacyCurve(curve.points, curve.detector_name, epoch_duration_ms)
