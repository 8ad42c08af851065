"""Independent reference oracles the tests compare the engine against.

Everything here is written from the published rules directly, with plain
floats and strings, deliberately sharing no code with the package. Where
a test asserts exact float equality the oracle performs the same
arithmetic in the same order the rules prescribe; any drift between the
two transcriptions is a finding, not noise to be tolerated away.
"""

from __future__ import annotations

MALICIOUS = "malicious"
BENIGN = "benign"


def clamp_score(value: float) -> float:
    return max(0.0, min(value, 100.0))


def ledger_trajectory(
    verdicts: list[str], budget: int
) -> list[tuple[float, float, float, str, int, int]]:
    """Brute-force walk of the scoring rules over one verdict sequence.

    Incremental growth for both scores. Returns one tuple per consumed
    verdict: (penalty, compensation, threat, state, epoch, measurements).
    Consumption stops once the process is terminated.
    """
    penalty = compensation = threat = 0.0
    state = "normal"
    epoch = measurements = 0
    rows = []
    for verdict in verdicts:
        if state == "terminated":
            break
        epoch += 1
        if state == "terminable":
            if verdict == MALICIOUS:
                state = "terminated"
            rows.append((penalty, compensation, threat, state, epoch, measurements))
            continue
        measurements += 1
        if verdict == MALICIOUS:
            state = "suspicious"
            penalty = clamp_score(penalty + 1.0)
            threat = clamp_score(threat + penalty)
        elif state == "suspicious":
            compensation = clamp_score(compensation + 1.0)
            threat = clamp_score(threat - compensation)
        if threat == 0.0:
            state = "normal"
        if measurements >= budget:
            state = "terminable"
        rows.append((penalty, compensation, threat, state, epoch, measurements))
    return rows


def additive_share_walk(
    deltas: list[float], step: float = 0.1, floor: float = 0.01
) -> list[float]:
    """Share after each delta under the additive move rule, from 1.0."""
    share = 1.0
    path = []
    for delta in deltas:
        if delta > 0.0:
            share = max(floor, share - step * delta)
        elif delta < 0.0:
            share = min(1.0, share + step * (-delta))
        path.append(share)
    return path


def multiplicative_weight(
    deltas: list[float], step: float = 0.1, floor: float = 1e-6
) -> float:
    """Relative weight after a delta sequence under the multiplicative rule."""
    weight = 1.0
    for delta in deltas:
        if delta > 0.0:
            weight = max(floor, weight * (1.0 - step) ** delta)
        elif delta < 0.0:
            weight = min(1.0, weight * (1.0 + step) ** (-delta))
    return weight


def reference_progress(
    base_rate: float,
    verdicts: list[str],
    budget: int,
    step: float = 0.1,
    floor: float = 0.01,
) -> list[float]:
    """Per-epoch progress of a cpu-proportional process under response.

    Epoch 0 accrues at the full share before any verdict. Each verdict
    then drives the score walk, the additive cpu move, and one accrual
    at the moved share. A terminable process accrues at restored shares
    on benign and accrues zero (and stops) on malicious.
    """
    penalty = compensation = threat = 0.0
    state = "normal"
    measurements = 0
    share = 1.0
    progress = [base_rate * share]
    for verdict in verdicts:
        if state == "terminated":
            break
        if state == "terminable":
            if verdict == MALICIOUS:
                state = "terminated"
                progress.append(0.0)
            else:
                share = 1.0
                progress.append(base_rate * share)
            continue
        measurements += 1
        previous = threat
        if verdict == MALICIOUS:
            state = "suspicious"
            penalty = clamp_score(penalty + 1.0)
            threat = clamp_score(threat + penalty)
        elif state == "suspicious":
            compensation = clamp_score(compensation + 1.0)
            threat = clamp_score(threat - compensation)
        if threat == 0.0:
            state = "normal"
        if measurements >= budget:
            state = "terminable"
        delta = threat - previous
        if delta > 0.0:
            share = max(floor, share - step * delta)
        elif delta < 0.0:
            share = min(1.0, share + step * (-delta))
        progress.append(base_rate * share)
    return progress


def fold_sum(values: list[float]) -> float:
    """Left-to-right accumulation, matching the engine's running total."""
    total = 0.0
    for value in values:
        total += value
    return total


def reference_slowdown(progress_with: float, progress_without: float) -> float:
    return (1.0 - progress_with / progress_without) * 100.0


def uniform_draw(seed: int, epoch: int) -> float:
    """The stochastic detector's draw: SplitMix64 keyed by (seed, epoch),
    its top 53 bits times 2**-53."""
    mask = (1 << 64) - 1
    z = (seed + (epoch + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def float_draw_verdict(seed: int, epoch: int, probability: float) -> str:
    """Malicious when the uniform draw falls below ``probability``."""
    return MALICIOUS if uniform_draw(seed, epoch) < probability else BENIGN


def share_walk(
    shares: dict[str, float],
    deltas: list[float],
    step: float,
    multiplicative: bool,
    floors: dict[str, float],
) -> list[dict[str, float]]:
    """Every share after each delta, each target in ``floors`` moved on its own.

    A positive delta lowers a target by ``step * delta`` (additive) or
    scales it by ``(1 - step) ** delta`` (multiplicative), stopping at its
    floor; a negative one raises it by ``step * -delta`` or scales it by
    ``(1 + step) ** -delta``, stopping at 1.0. Other shares stay as they are.
    """
    shares = dict(shares)
    path = []
    for delta in deltas:
        for resource, floor in floors.items():
            share = shares[resource]
            if delta > 0.0:
                if multiplicative:
                    share = max(floor, share * (1.0 - step) ** delta)
                else:
                    share = max(floor, share - step * delta)
            elif delta < 0.0:
                if multiplicative:
                    share = min(1.0, share * (1.0 + step) ** (-delta))
                else:
                    share = min(1.0, share + step * (-delta))
            shares[resource] = share
        path.append(dict(shares))
    return path
