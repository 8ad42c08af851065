"""Output checks for the benchmark workloads.

Each check returns a list of problems; an empty list means the output
is correct. At the default seed the fleet outputs must also match the
SHA-256 digests in ``digests.json`` byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import replace
from pathlib import Path

from quell.simulation import run_scenario

DIGESTS = Path(__file__).with_name("digests.json")
SHORT = {"cpu": "cpu", "memory": "mem", "network": "net", "filesystem": "fs"}
EPS = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(paths: list[Path], stdout: str = "") -> str:
    """One digest over several output files and the captured stdout."""
    digest = hashlib.sha256(stdout.encode("utf-8"))
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_digests(workload: str, paths: list[Path]) -> list[str]:
    """Compare output files with the digests committed for the default seed."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    actual = {path.name: sha256(path) for path in paths}
    return [
        f"{name}: digest {digest} differs from committed {expected[name]}"
        for name, digest in actual.items()
        if digest != expected[name]
    ]


def _below_floor(values: dict[str, str], floors: dict[str, float]) -> list[str]:
    return [
        f"{resource} share {values[SHORT[resource]]} below floor {floor}"
        for resource, floor in floors.items()
        if float(values[SHORT[resource]]) < floor - EPS
    ]


def check_simulation(out: Path, stdout: str, epochs: int, floors: dict[str, float]) -> list[str]:
    """Invariants of one ``quell simulate`` output directory."""
    problems: list[str] = []
    last: dict[str, dict[str, str]] = {}
    counts: dict[str, int] = {}
    for row in _rows(out / "log.csv"):
        pid = row["process"]
        if pid in last and last[pid]["state"] == "terminated":
            problems.append(f"{pid}: record after termination at epoch {row['epoch']}")
        if row["state"] == "terminated" and float(row["progress"]) != 0.0:
            problems.append(f"{pid}: termination record has progress {row['progress']}")
        problems += [f"{pid} epoch {row['epoch']}: {p}" for p in _below_floor(row, floors)]
        counts[pid] = counts.get(pid, 0) + 1
        last[pid] = row
    problems += [f"{pid}: {n} records for {epochs} epochs" for pid, n in counts.items() if n > epochs]

    reports = _rows(out / "slowdown.csv")
    if sorted(r["process"] for r in reports) != sorted(last):
        problems.append("slowdown.csv does not list exactly the logged processes")
    lines = []
    for report in reports:
        pid = report["process"]
        pct = float(report["slowdown_pct"])
        if not 0.0 <= pct <= 100.0:
            problems.append(f"{pid}: slowdown {pct} outside [0, 100]")
        if pid in last and report["progress_with"] != last[pid]["cumulative"]:
            problems.append(f"{pid}: progress_with {report['progress_with']} is not the logged total")
        lines.append(
            f"{pid}: slowdown {report['slowdown_pct']}% "
            f"(with {report['progress_with']}, without {report['progress_without']})"
        )
    if stdout.splitlines() != lines:
        problems.append("stdout does not match slowdown.csv")
    return problems[:20]


def _parse_shares(args: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in args.split(";"))


def check_supervision(out: Path, epochs: int, floors: dict[str, float]) -> list[str]:
    """Invariants of one supervision's calls.csv and supervision.csv."""
    problems: list[str] = []
    shares: dict[str, str] = {}
    terminated: set[str] = set()
    for number, row in enumerate(_rows(out / "calls.csv")):
        handle, call, args = row["handle"], row["call"], row["args"]
        if int(row["seq"]) != number:
            problems.append(f"call {number}: sequence number {row['seq']}")
        if handle in terminated:
            problems.append(f"{handle}: {call} after terminate")
        if call == "attach":
            shares[handle] = args
        elif call == "apply_shares":
            if handle not in shares:
                problems.append(f"{handle}: apply_shares before attach")
            elif args == shares[handle]:
                problems.append(f"{handle}: redundant apply_shares {args} at call {number}")
            problems += [f"{handle}: {p}" for p in _below_floor(_parse_shares(args), floors)]
            shares[handle] = args
        elif call == "terminate":
            terminated.add(handle)
        else:
            problems.append(f"{handle}: unexpected call {call}")

    for report in _rows(out / "supervision.csv"):
        pid = report["process"]
        if not 1 <= int(report["epochs_run"]) < epochs:
            problems.append(f"{pid}: epochs_run {report['epochs_run']} outside [1, {epochs})")
        if (report["final_state"] == "terminated" and report["exit_reason"] == "detector") != (
            pid in terminated
        ):
            problems.append(f"{pid}: final state {report['final_state']} disagrees with calls.csv")
        final = ";".join(f"{short}={report[short]}" for short in SHORT.values())
        if shares.get(pid) != final:
            problems.append(f"{pid}: final shares {final} are not the last applied {shares.get(pid)}")
    return problems[:20]


def check_differential(scenario, out: Path) -> list[str]:
    """Simulate each process alone and compare with supervision.csv.

    The simulator and the supervisor apply the same policies to the
    same verdicts, so each process must reach the same final state at
    the same epoch with the same shares.
    """
    problems = []
    reports = {row["process"]: row for row in _rows(out / "supervision.csv")}
    for spec in scenario.processes:
        final = run_scenario(replace(scenario, processes=(spec,))).records[-1]
        expected = {
            "final_state": final.state,
            "epochs_run": str(final.epoch),
            **dict(zip(SHORT.values(), final.csv_row()[7:11])),
        }
        report = reports.get(spec.process_id)
        if report is None:
            problems.append(f"{spec.process_id}: missing from supervision.csv")
            continue
        differing = {key: (report[key], value) for key, value in expected.items() if report[key] != value}
        if differing:
            problems.append(f"{spec.process_id}: supervisor vs simulator {differing}")
    return problems[:20]


# The supervised_attack demo's adapter calls: attach, the four-step
# throttle walk, then termination.
SUPERVISED_ATTACK_CALLS = [
    ("attach", "cpu=1.000000;mem=1.000000;net=1.000000;fs=1.000000"),
    *(
        ("apply_shares", f"cpu={cpu};mem=1.000000;net=1.000000;fs=1.000000")
        for cpu in ("0.900000", "0.700000", "0.400000", "0.010000")
    ),
    ("terminate", ""),
]


def check_supervised_attack_calls(out: Path) -> list[str]:
    calls = [(row["call"], row["args"]) for row in _rows(out / "calls.csv")]
    if calls != SUPERVISED_ATTACK_CALLS:
        return [f"calls.csv is {calls}"]
    return []
