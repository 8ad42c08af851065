"""Seeded scenario generators for the fleet workloads.

Each generator writes a scenario INI (plus the CSV files it references)
into a directory and returns the INI path. The same seed always writes
the same bytes: every random choice comes from one ``random.Random``
seeded with the benchmark seed, and every number is written with a
fixed format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Floors the generated actuator sections use; the output checks compare
# targeted shares against them.
SIM_FLOORS = {"cpu": 0.01, "memory": 0.9, "network": 0.05}
SUPERVISE_FLOORS = {"cpu": 0.02, "filesystem": 0.05}


@dataclass(frozen=True)
class FleetShape:
    processes: int
    epochs: int
    budget: int


# Both fleets are sized so that one operation takes well under a second
# when the host is fast: a run then times a few dozen operations.
# sim_fleet: 150 processes over E=100 with a short budget, so most
# processes become terminable early and are terminated. The slowdown
# report, quadratic in processes, is the largest part from about P=150.
SIM_SHAPE = FleetShape(processes=150, epochs=100, budget=20)
# supervise_fleet: a hundred processes over a long horizon with the
# budget near its end, so most epochs step live ledgers.
SUPERVISE_SHAPE = FleetShape(processes=100, epochs=500, budget=450)

STREAM_FILES = 8


def _header(shape: FleetShape, seed: int) -> list[str]:
    return [
        "[scenario]",
        f"epochs = {shape.epochs}",
        f"measurement_budget = {shape.budget}",
        "epoch_duration_ms = 100",
        f"seed = {seed}",
        "",
    ]


def _dealt(rng: random.Random, count: int, weights: dict[str, int]) -> list[str]:
    """``count`` labels in the given proportions, in a seeded order.

    Fixing the counts and drawing only the order keeps the amount of
    work nearly the same from seed to seed.
    """
    total = sum(weights.values())
    labels = [label for label, weight in weights.items() for _ in range(count * weight // total)]
    labels += [next(iter(weights))] * (count - len(labels))
    rng.shuffle(labels)
    return labels


def _spread(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """``count`` values, one in each of ``count`` equal slices of
    [low, high), in a seeded order.

    Like ``_dealt``, this keeps the amount of work nearly the same from
    seed to seed: how long a process lives depends on these parameters.
    """
    values = [low + (high - low) * (index + rng.random()) / count for index in range(count)]
    rng.shuffle(values)
    return values


def _curves(rng: random.Random, kind: str) -> list[str]:
    """Response curves for one process; ``product`` adds a CPU curve."""
    if kind == "proportional":
        return ["response_cpu = proportional"]
    lines = []
    if kind.startswith("saturating"):
        lines.append(f"response_network = linear_saturating:{rng.uniform(0.2, 0.8):.3f}")
    else:
        lines.append(f"response_memory = cliff:{rng.uniform(0.91, 0.99):.3f}:{rng.uniform(0.1, 0.5):.3f}")
    if kind.endswith("product"):
        lines += ["response_cpu = proportional", "combiner = product"]
    return lines


def write_sim_fleet(directory: Path, seed: int, processes: int | None = None) -> Path:
    """File-backed scenario mixing every detector kind and curve kind.

    Detectors: stochastic attack, stochastic benign with a false positive
    rate, recorded traces, and threshold detectors with a wide window
    over measurement streams. Policies are additive and incremental.
    """
    shape = SIM_SHAPE if processes is None else FleetShape(processes, SIM_SHAPE.epochs, SIM_SHAPE.budget)
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    lines = _header(shape, seed) + [
        "[policies]",
        "penalty_family = incremental",
        "compensation_family = incremental",
        "",
        "[actuator]",
        "mode = additive",
        "throttle_step = 0.1",
        "targets = " + ",".join(SIM_FLOORS),
        *(f"floor_{name} = {value}" for name, value in SIM_FLOORS.items()),
        "",
    ]

    for index, level in enumerate(_spread(rng, STREAM_FILES, 0.2, 0.8)):
        rows = ["epoch,value"]
        for epoch in range(shape.epochs):
            rows.append(f"{epoch},{min(1.0, max(0.0, rng.gauss(level, 0.2))):.4f}")
        (directory / f"stream_{index}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")

    trace_rows = ["epoch,process,verdict"]
    detectors = _dealt(rng, shape.processes, {"attack": 3, "benign": 3, "trace": 2, "threshold": 2})
    curves = _dealt(rng, shape.processes, {
        "proportional": 4, "saturating": 2, "saturating_product": 1, "cliff": 2, "cliff_product": 1,
    })
    count = {kind: detectors.count(kind) for kind in set(detectors)}
    tprs = _spread(rng, count["attack"], 0.6, 0.95)
    fprs = _spread(rng, count["benign"], 0.02, 0.2)
    malicious_shares = _spread(rng, count["trace"], 0.3, 0.9)
    windows = _spread(rng, count["threshold"], 10, 41)
    cutoffs = _spread(rng, count["threshold"], 0.3, 0.7)
    streams = [index % STREAM_FILES for index in range(count["threshold"])]
    rng.shuffle(streams)
    for index, (kind, curve) in enumerate(zip(detectors, curves)):
        pid = f"p{index:04d}"
        lines += [f"[process.{pid}]", f"base_rate = {rng.uniform(1.0, 500.0):.3f}", "unit = units"]
        lines += _curves(rng, curve)
        lines += [f"detector = d{index:04d}", "", f"[detector.d{index:04d}]"]
        if kind == "attack":
            lines += ["kind = stochastic", f"tpr = {tprs.pop():.3f}", "fpr = 0.0",
                      "ground_truth = attack"]
        elif kind == "benign":
            lines += ["kind = stochastic", "tpr = 1.0", f"fpr = {fprs.pop():.3f}",
                      "ground_truth = benign"]
        elif kind == "trace":
            lines += ["kind = trace", "file = traces.csv"]
            malicious = malicious_shares.pop()
            for epoch in range(1, shape.epochs):
                verdict = "malicious" if rng.random() < malicious else "benign"
                trace_rows.append(f"{epoch},{pid},{verdict}")
        else:
            lines += ["kind = threshold", f"window = {int(windows.pop())}",
                      f"cutoff = {cutoffs.pop():.3f}", f"stream = stream_{streams.pop()}.csv"]
        lines.append("")

    (directory / "traces.csv").write_text("\n".join(trace_rows) + "\n", encoding="utf-8")
    path = directory / "sim_fleet.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def write_supervise_fleet(directory: Path, seed: int) -> Path:
    """Stochastic-only scenario with a multiplicative actuator and a
    linear penalty over a long horizon."""
    shape = SUPERVISE_SHAPE
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    lines = _header(shape, seed) + [
        "[policies]",
        "penalty_family = linear",
        "penalty_a = 1.0",
        "penalty_b = 0.5",
        "compensation_family = incremental",
        "",
        "[actuator]",
        "mode = multiplicative",
        "throttle_step = 0.05",
        "targets = " + ",".join(SUPERVISE_FLOORS),
        *(f"floor_{name} = {value}" for name, value in SUPERVISE_FLOORS.items()),
        "",
    ]
    truths = _dealt(rng, shape.processes, {"attack": 1, "benign": 1})
    tprs = _spread(rng, truths.count("attack"), 0.2, 0.6)
    fprs = _spread(rng, truths.count("benign"), 0.05, 0.4)
    for index, truth in enumerate(truths):
        pid = f"s{index:04d}"
        lines += [f"[process.{pid}]", f"base_rate = {rng.uniform(1.0, 500.0):.3f}",
                  "response_cpu = proportional", f"detector = d{index:04d}", "",
                  f"[detector.d{index:04d}]", "kind = stochastic"]
        if truth == "attack":
            lines += [f"tpr = {tprs.pop():.3f}", "fpr = 0.0", "ground_truth = attack"]
        else:
            lines += ["tpr = 1.0", f"fpr = {fprs.pop():.3f}", "ground_truth = benign"]
        lines.append("")
    path = directory / "supervise_fleet.ini"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path
