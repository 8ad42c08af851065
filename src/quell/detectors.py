"""Verdict sources that stand in for a runtime detector.

Three kinds are provided, all addressable by epoch so runs can be
replayed or evaluated out of order:

* ``TraceSource``      replays a recorded verdict sequence
* ``StochasticSource`` draws malicious with a fixed probability (the
  true positive rate for a process that really is an attack, the false
  positive rate otherwise)
* ``ThresholdSource``  flags an epoch when the trailing windowed mean of
  a measurement stream exceeds a cutoff

Randomness comes from SplitMix64, keyed by (seed, epoch): the verdict at
epoch ``e`` is a pure function of the seed and ``e``, reproducible
across platforms and languages. Uniform doubles take the top 53 bits of
the 64-bit output.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Union

from .csvio import read_rows
from .threat import Verdict

__all__ = [
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
    "TRACE_CSV_HEADER",
    "STREAM_CSV_HEADER",
]

TRACE_CSV_HEADER = ("epoch", "process", "verdict")
STREAM_CSV_HEADER = ("epoch", "value")

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class SourceExhausted(Exception):
    """A verdict or measurement was requested past the end of a source."""


class GroundTruth(Enum):
    ATTACK = "attack"
    BENIGN = "benign"


def _splitmix64(seed: int, index: int) -> int:
    """The index-th output of a SplitMix64 stream seeded with ``seed``."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _unit_interval(word: int) -> float:
    """Map a 64-bit word onto [0, 1) using its top 53 bits."""
    return (word >> 11) * 2.0**-53


def derive_seed(seed: int, label: str) -> int:
    """Stable sub-seed for a named stream under a run-level seed.

    The label is hashed with FNV-1a and used as a SplitMix64 index, so
    distinct labels get decorrelated sub-seeds deterministically.
    """
    digest = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        digest = ((digest ^ byte) * _FNV_PRIME) & _MASK64
    return _splitmix64(seed & _MASK64, digest)


def _check_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


@dataclass(frozen=True)
class TraceSource:
    """Recorded verdicts, ordered by epoch starting at ``start_epoch``."""

    verdicts: tuple[Verdict, ...]
    start_epoch: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdicts", tuple(self.verdicts))
        if self.start_epoch < 0:
            raise ValueError("start epoch must be non-negative")

    @property
    def end_epoch(self) -> int:
        """Last covered epoch, exclusive."""
        return self.start_epoch + len(self.verdicts)

    def verdict_at(self, epoch: int) -> Verdict:
        index = epoch - self.start_epoch
        if index < 0 or index >= len(self.verdicts):
            raise SourceExhausted(
                f"trace covers epochs [{self.start_epoch}, {self.end_epoch}), requested {epoch}"
            )
        return self.verdicts[index]


@dataclass(frozen=True)
class StochasticSource:
    """Coin-flip detector with a per-epoch malicious probability.

    For a process whose ground truth is an attack the coin comes up
    malicious with the true positive rate; for benign ground truth, with
    the false positive rate. Identical seeds give identical sequences.
    """

    true_positive_rate: float
    false_positive_rate: float
    ground_truth: GroundTruth
    seed: int

    def __post_init__(self) -> None:
        _check_probability(self.true_positive_rate, "true_positive_rate")
        _check_probability(self.false_positive_rate, "false_positive_rate")
        _check_seed(self.seed)

    def verdict_at(self, epoch: int) -> Verdict:
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        if self.ground_truth is GroundTruth.ATTACK:
            probability = self.true_positive_rate
        else:
            probability = self.false_positive_rate
        draw = _unit_interval(_splitmix64(self.seed, epoch))
        return Verdict.MALICIOUS if draw < probability else Verdict.BENIGN


@dataclass(frozen=True)
class ThresholdSource:
    """Flags an epoch when the trailing windowed mean exceeds the cutoff.

    The window covers up to ``window_size`` values ending at the current
    epoch; early epochs use the shorter prefix. The verdict depends only
    on values inside the window.
    """

    window_size: int
    cutoff: float
    values: tuple[float, ...]
    start_epoch: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.window_size < 1:
            raise ValueError(f"window size must be >= 1, got {self.window_size}")
        if self.start_epoch < 0:
            raise ValueError("start epoch must be non-negative")

    def verdict_at(self, epoch: int) -> Verdict:
        index = epoch - self.start_epoch
        if index < 0 or index >= len(self.values):
            raise SourceExhausted(
                f"measurement stream covers epochs [{self.start_epoch}, "
                f"{self.start_epoch + len(self.values)}), requested {epoch}"
            )
        window = self.values[max(0, index - self.window_size + 1) : index + 1]
        return Verdict.MALICIOUS if statistics.fmean(window) > self.cutoff else Verdict.BENIGN


VerdictSource = Union[TraceSource, StochasticSource, ThresholdSource]


def next_verdict(source: VerdictSource, epoch: int) -> Verdict:
    """Verdict for one process at one epoch."""
    return source.verdict_at(epoch)


def _parse_verdict(text: str, where: str) -> Verdict:
    try:
        return Verdict(text.strip())
    except ValueError:
        raise ValueError(f"{where}: verdict must be 'malicious' or 'benign', got {text!r}") from None


def load_trace_csv(path: str | Path) -> dict[str, TraceSource]:
    """Read per-process traces from CSV with the header epoch,process,verdict.

    Each process's rows must form a contiguous epoch range (starting at
    0 or 1; simulation consumes verdicts from epoch 1).
    """
    path = Path(path)
    rows: dict[str, dict[int, Verdict]] = {}
    for where, row in read_rows(path, TRACE_CSV_HEADER, "trace"):
        try:
            epoch = int(row[0])
        except ValueError:
            raise ValueError(f"{where}: epoch must be an integer, got {row[0]!r}") from None
        if epoch < 0:
            raise ValueError(f"{where}: epoch must be non-negative, got {epoch}")
        process = row[1].strip()
        if not process:
            raise ValueError(f"{where}: empty process id")
        per_process = rows.setdefault(process, {})
        if epoch in per_process:
            raise ValueError(f"{where}: duplicate epoch {epoch} for process {process!r}")
        per_process[epoch] = _parse_verdict(row[2], where)
    if not rows:
        raise ValueError(f"{path}: no trace rows")
    sources: dict[str, TraceSource] = {}
    for process, verdicts in rows.items():
        first, last = min(verdicts), max(verdicts)
        if first > 1:
            raise ValueError(
                f"{path}: trace for {process!r} starts at epoch {first}; must start at 0 or 1"
            )
        missing = [e for e in range(first, last + 1) if e not in verdicts]
        if missing:
            raise ValueError(f"{path}: trace for {process!r} is missing epochs {missing}")
        sources[process] = TraceSource(
            tuple(verdicts[e] for e in range(first, last + 1)), start_epoch=first
        )
    return sources


def load_measurement_stream_csv(path: str | Path) -> tuple[float, ...]:
    """Read a measurement stream from CSV with the header epoch,value.

    Epochs must be contiguous and start at 0; the returned tuple is
    indexed by epoch.
    """
    path = Path(path)
    values: dict[int, float] = {}
    for where, row in read_rows(path, STREAM_CSV_HEADER, "stream"):
        try:
            epoch = int(row[0])
            value = float(row[1])
        except ValueError:
            raise ValueError(f"{where}: malformed row {row!r}") from None
        if epoch < 0 or epoch in values:
            raise ValueError(f"{where}: bad or duplicate epoch {epoch}")
        values[epoch] = value
    if not values:
        raise ValueError(f"{path}: no stream rows")
    last = max(values)
    missing = [e for e in range(0, last + 1) if e not in values]
    if missing:
        raise ValueError(f"{path}: stream must start at epoch 0 and be contiguous; missing {missing}")
    return tuple(values[e] for e in range(0, last + 1))
