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
across platforms and languages. A draw is malicious when its top 53
bits ``k``, read as ``k * 2**-53`` in [0, 1), fall below the probability
``p``; ``StochasticSource`` tests ``k < p * 2**53`` instead, the same
test scaled by a power of two, and Python compares an int with a float
exactly.

``load_trace_csv`` and ``load_measurement_stream_csv`` read each file
once. A file inside ``csvio``'s split subset whose rows already run in
order (each process's epochs consecutive from 0 or 1, a stream's epochs
0, 1, 2, ... with finite values) is read from ``csvio.split_columns``
without the ``csv`` module. Every other file, and any doubt along the
way, falls back to ``csvio.read_rows`` over the same decoded text,
which alone reports errors, so the sources and the messages are the
same on either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from pathlib import Path
from typing import Union

from ._value import Value
from .csvio import read_rows, read_text, split_columns
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


# While the largest value's magnitude times the window size stays below
# this (a 16th of the largest float), no partial sum inside ``math.fsum``
# can overflow, so only a stream past it needs each window summed.
_FSUM_SAFE = 2.0**1020

# Module-level aliases read faster than members through an Enum class.
_MALICIOUS = Verdict.MALICIOUS
_BENIGN = Verdict.BENIGN


def _splitmix64(seed: int, index: int) -> int:
    """The index-th output of a SplitMix64 stream seeded with ``seed``."""
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


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


class TraceSource(Value):
    """Recorded verdicts, ordered by epoch starting at ``start_epoch``."""

    __slots__ = ("verdicts", "start_epoch")
    verdicts: tuple[Verdict, ...]
    start_epoch: int

    def __init__(self, verdicts: tuple[Verdict, ...], start_epoch: int = 0) -> None:
        verdicts = tuple(verdicts)
        if start_epoch < 0:
            raise ValueError("start epoch must be non-negative")
        self._fill(verdicts, start_epoch)

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


# A dataclass: tests/test_hot_path.py copies one with ``dataclasses.replace``.
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
        if self.ground_truth is GroundTruth.ATTACK:
            probability = self.true_positive_rate
        else:
            probability = self.false_positive_rate
        # Not a field, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_cutoff", probability * 2.0**53)

    def verdict_at(self, epoch: int) -> Verdict:
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        # ``_splitmix64(self.seed, epoch)``, inlined.
        z = (self.seed + (epoch + 1) * _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return _MALICIOUS if (z ^ (z >> 31)) >> 11 < self._cutoff else _BENIGN


class ThresholdSource(Value):
    """Flags an epoch when the trailing windowed mean exceeds the cutoff.

    ``values[e]`` is the measurement at epoch ``e``. The window covers
    up to ``window_size`` values ending at the current epoch; early
    epochs use the shorter prefix. The verdict depends only on values
    inside the window. A stream on which some window's sum overflows
    is rejected here, not at the epoch that reads it.
    """

    __slots__ = ("window_size", "cutoff", "values")
    window_size: int
    cutoff: float
    values: tuple[float, ...]

    def __init__(self, window_size: int, cutoff: float, values: tuple[float, ...]) -> None:
        values = tuple(values)
        if window_size < 1:
            raise ValueError(f"window size must be >= 1, got {window_size}")
        if not math.isfinite(cutoff):
            raise ValueError(f"cutoff must be finite, got {cutoff!r}")
        if not all(map(math.isfinite, values)):
            raise ValueError("measurement values must be finite")
        if max(map(abs, values), default=0.0) * window_size >= _FSUM_SAFE:
            for epoch in range(1, len(values)):
                try:
                    math.fsum(values[max(0, epoch - window_size + 1) : epoch + 1])
                except OverflowError:
                    raise ValueError(
                        f"the measurement window ending at epoch {epoch} sums beyond the float range"
                    ) from None
        self._fill(window_size, cutoff, values)

    def verdict_at(self, epoch: int) -> Verdict:
        if epoch < 0 or epoch >= len(self.values):
            raise SourceExhausted(
                f"measurement stream covers epochs [0, {len(self.values)}), requested {epoch}"
            )
        window = self.values[max(0, epoch - self.window_size + 1) : epoch + 1]
        return _MALICIOUS if math.fsum(window) / len(window) > self.cutoff else _BENIGN


VerdictSource = Union[TraceSource, StochasticSource, ThresholdSource]


def next_verdict(source: VerdictSource, epoch: int) -> Verdict:
    """Verdict for one process at one epoch."""
    return source.verdict_at(epoch)


_VERDICTS = {verdict.value: verdict for verdict in Verdict}


def _parse_verdict(text: str, path: Path, line: int) -> Verdict:
    verdict = _VERDICTS.get(text.strip())
    if verdict is None:
        raise ValueError(f"{path}:{line}: verdict must be 'malicious' or 'benign', got {text!r}")
    return verdict


def _lean_traces(text: str) -> dict[str, TraceSource] | None:
    """``load_trace_csv``'s result for ``text``, or None if the fallback must read it.

    Each process's rows must come in consecutive epochs from 0 or 1;
    rows of different processes may interleave. Never raises.
    """
    columns = split_columns(text, TRACE_CSV_HEADER)
    if columns is None:
        return None
    epochs, processes, verdicts = columns
    try:
        epochs = list(map(int, epochs))
        verdicts = list(map(_VERDICTS.__getitem__, map(str.strip, verdicts)))
    except (KeyError, ValueError):
        return None
    traces: dict[str, tuple[int, list[Verdict]]] = {}
    start = 0
    for process, block in groupby(map(str.strip, processes)):
        stop = start + len(list(block))
        first, seen = traces.setdefault(process, (epochs[start], []))
        expected = first + len(seen)
        if not process or not 0 <= first <= 1 or (
            epochs[start:stop] != list(range(expected, expected + stop - start))
        ):
            return None
        seen += verdicts[start:stop]
        start = stop
    return {
        process: TraceSource(tuple(seen), start_epoch=first)
        for process, (first, seen) in traces.items()
    }


def _lean_stream(text: str) -> tuple[float, ...] | None:
    """``load_measurement_stream_csv``'s result for ``text``, or None if the fallback must read it."""
    columns = split_columns(text, STREAM_CSV_HEADER)
    if columns is None:
        return None
    epochs, values = columns
    try:
        if list(map(int, epochs)) != list(range(len(epochs))):
            return None
        values = tuple(map(float, values))
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def load_trace_csv(path: str | Path) -> dict[str, TraceSource]:
    """Read per-process traces from CSV with the header epoch,process,verdict.

    Each process's rows must form a contiguous epoch range (starting at
    0 or 1; simulation consumes verdicts from epoch 1).
    """
    path = Path(path)
    decoded = read_text(path)
    lean = None if decoded[1] else _lean_traces(decoded[0])
    if lean is not None:
        return lean
    rows: dict[str, dict[int, Verdict]] = {}
    for line, row in read_rows(path, TRACE_CSV_HEADER, "trace", decoded):
        try:
            epoch = int(row[0])
        except ValueError:
            raise ValueError(f"{path}:{line}: epoch must be an integer, got {row[0]!r}") from None
        if epoch < 0:
            raise ValueError(f"{path}:{line}: epoch must be non-negative, got {epoch}")
        process = row[1].strip()
        if not process:
            raise ValueError(f"{path}:{line}: empty process id")
        per_process = rows.setdefault(process, {})
        if epoch in per_process:
            raise ValueError(f"{path}:{line}: duplicate epoch {epoch} for process {process!r}")
        per_process[epoch] = _parse_verdict(row[2], path, line)
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

    Epochs must be contiguous and start at 0 and every value must be
    finite; the returned tuple is indexed by epoch.
    """
    path = Path(path)
    decoded = read_text(path)
    lean = None if decoded[1] else _lean_stream(decoded[0])
    if lean is not None:
        return lean
    values: dict[int, float] = {}
    for line, row in read_rows(path, STREAM_CSV_HEADER, "stream", decoded):
        try:
            epoch = int(row[0])
            value = float(row[1])
        except ValueError:
            raise ValueError(f"{path}:{line}: malformed row {row!r}") from None
        if epoch < 0 or epoch in values:
            raise ValueError(f"{path}:{line}: bad or duplicate epoch {epoch}")
        if not math.isfinite(value):
            raise ValueError(f"{path}:{line}: value must be finite, got {row[1]!r}")
        values[epoch] = value
    if not values:
        raise ValueError(f"{path}: no stream rows")
    last = max(values)
    missing = [e for e in range(0, last + 1) if e not in values]
    if missing:
        raise ValueError(f"{path}: stream must start at epoch 0 and be contiguous; missing {missing}")
    return tuple(values[e] for e in range(0, last + 1))
