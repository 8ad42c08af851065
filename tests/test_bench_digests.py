"""The fleet workloads' outputs stay byte-identical at the default seed.

``bench/digests.json`` holds the SHA-256 of each output file that the
benchmark's ``sim_fleet`` and ``supervise_fleet`` workloads write at
seed 1. Checking them here makes a hot-path edit that changes one byte
of ``log.csv``, ``slowdown.csv``, ``calls.csv`` or ``supervision.csv``
fail the tests, not only the benchmark.
"""

import csv
from pathlib import Path

from quell.cli import EXIT_OK, main
from quell.config import load_scenario
from quell.hostadapter import FakeHostAdapter
from quell.supervisor import SUPERVISION_CSV_HEADER, supervise

BENCH = Path(__file__).parent.parent / "bench"
SEED = 1


def test_sim_fleet_outputs_match_the_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import fleet

    ini = fleet.write_sim_fleet(tmp_path / "input", SEED)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(ini), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert checks.check_digests("sim_fleet", [out / "log.csv", out / "slowdown.csv"]) == []


def test_supervise_fleet_outputs_match_the_digests(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import fleet

    scenario = load_scenario(fleet.write_supervise_fleet(tmp_path / "input", SEED))
    adapter = FakeHostAdapter()
    reports = supervise(scenario, adapter)
    calls, summary = tmp_path / "calls.csv", tmp_path / "supervision.csv"
    adapter.export_calls_csv(calls)
    with summary.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUPERVISION_CSV_HEADER)
        writer.writerows(report.csv_row() for report in reports)
    assert checks.check_digests("supervise_fleet", [calls, summary]) == []
