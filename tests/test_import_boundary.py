"""Module boundaries inside the package, checked from the source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import quell

PACKAGE = Path(quell.__file__).parent
BENCH = Path(__file__).parent.parent / "bench"


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every module ``path`` imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names


def test_only_csvio_imports_csv():
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py") if "csv" in imported_modules(path)
    )
    assert importers == ["csvio.py"]


def test_no_module_imports_statistics():
    # Its import costs every CLI start a few ms; math.fsum gives the same mean.
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py") if "statistics" in imported_modules(path)
    )
    assert importers == []


def top_level_imports(path: Path) -> set[str]:
    """Top-level names of the modules ``path`` imports at module level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.partition(".")[0])
    return names


def test_no_module_imports_difflib_at_module_level():
    # Its import costs every CLI start 1.5-2 ms; only a near-miss config error needs it.
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py") if "difflib" in top_level_imports(path)
    )
    assert importers == []


def test_the_fleets_load_without_configparser(tmp_path, monkeypatch):
    # Both benchmark fleets are inside the lean INI reader's subset; if either
    # fell back to configparser, their scenario load would pay its parse again.
    monkeypatch.syspath_prepend(str(BENCH))
    import fleet

    inis = [
        fleet.write_sim_fleet(tmp_path / "sim", 1),
        fleet.write_supervise_fleet(tmp_path / "supervise", 1),
    ]
    script = (
        "import sys\n"
        "from quell.config import load_scenario\n"
        "for ini in sys.argv[1:]:\n"
        "    load_scenario(ini)\n"
        "print('configparser' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", script, *map(str, inis)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout == "False\n"


def test_the_bundled_and_fleet_inputs_load_without_the_csv_reader(tmp_path, monkeypatch):
    # Every trace and stream the benchmark and the bundled configs read is
    # inside the split subset; if one fell back to csv.reader, its load
    # would pay the reader and the per-row parse again.
    from quell.config import load_scenario
    from quell.detectors import load_measurement_stream_csv, load_trace_csv

    monkeypatch.syspath_prepend(str(BENCH))
    import fleet

    inis = [
        fleet.write_sim_fleet(tmp_path / "sim", 1),
        fleet.write_supervise_fleet(tmp_path / "supervise", 1),
    ]
    configs = Path(__file__).parent.parent / "configs"
    traces = [configs / "attack_trace.csv", configs / "recovery_trace.csv"]
    traces += [path for ini in inis for path in ini.parent.glob("traces.csv")]
    streams = [path for ini in inis for path in ini.parent.glob("stream_*.csv")]
    assert len(traces) == 3 and streams

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr("csv.reader", no_reader)
    for path in traces:
        assert load_trace_csv(path)
    for path in streams:
        assert load_measurement_stream_csv(path)
    for ini in inis:
        load_scenario(ini)
