"""``simulate`` and ``replay`` outputs stay byte-identical on pinned inputs.

``output_digests.json`` holds the SHA-256 of ``log.csv`` and
``slowdown.csv`` for every bundled scenario run through ``simulate``,
for each bundled trace replayed against the scenarios it covers, and
for the benchmark's ``sim_fleet`` scenario at seeds 2 and 7 (seed 1 is
pinned in ``bench/digests.json``). An edit to the simulator that moves
one byte of either file fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from quell.cli import EXIT_OK, main

HERE = Path(__file__).parent
CONFIGS = HERE.parent / "configs"
DIGESTS = json.loads((HERE / "output_digests.json").read_text(encoding="utf-8"))

# Each run's name in the digest file, and its arguments before ``--out``.
RUNS = {
    "simulate worked_attack": ["simulate", "--scenario", "worked_attack.ini"],
    "simulate benign": ["simulate", "--scenario", "benign.ini"],
    "simulate recovery": ["simulate", "--scenario", "recovery.ini"],
    "simulate supervised_attack": ["simulate", "--scenario", "supervised_attack.ini"],
    "replay recovery": ["replay", "--scenario", "recovery.ini", "--trace", "recovery_trace.csv"],
    "replay worked_attack": ["replay", "--scenario", "worked_attack.ini", "--trace", "attack_trace.csv"],
    "replay supervised_attack": [
        "replay", "--scenario", "supervised_attack.ini", "--trace", "attack_trace.csv",
    ],
}
FLEET_SEEDS = (2, 7)


def test_every_pinned_run_is_listed():
    fleets = {f"sim_fleet seed {seed}" for seed in FLEET_SEEDS}
    assert set(DIGESTS) == set(RUNS) | fleets
    assert {path.name for path in CONFIGS.glob("*.ini")} == {
        argv[2] for argv in RUNS.values() if argv[0] == "simulate"
    }


def check(name, argv, out, capsys):
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    digests = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest()
        for file in ("log.csv", "slowdown.csv")
    }
    assert digests == DIGESTS[name]


@pytest.mark.parametrize("name", list(RUNS))
def test_bundled_run_matches_its_digests(name, tmp_path, capsys):
    argv = [str(CONFIGS / arg) if arg.endswith((".ini", ".csv")) else arg for arg in RUNS[name]]
    check(name, argv, tmp_path / "out", capsys)


@pytest.mark.parametrize("seed", FLEET_SEEDS)
def test_sim_fleet_matches_its_digests(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE.parent / "bench"))
    import fleet

    ini = fleet.write_sim_fleet(tmp_path / "input", seed)
    check(f"sim_fleet seed {seed}", ["simulate", "--scenario", str(ini)], tmp_path / "out", capsys)
