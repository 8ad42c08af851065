"""Module boundaries inside the package, checked from the source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_no_module_imports_argparse_at_module_level():
    # Its import, and the locale its first message loads, cost every CLI start
    # about 3 ms; only help and argument errors need it.
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py") if "argparse" in top_level_imports(path)
    )
    assert importers == []


def test_no_module_silences_a_lint_rule():
    # Neither CI nor the dev extras install a linter, so this is the one guard.
    # The two exceptions import names that the benchmark's tracer wraps in the
    # supervisor module, which does not call them itself.
    found = [
        (path.name, line.strip())
        for path in sorted(PACKAGE.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "noqa" in line
    ]
    assert found == [
        ("supervisor.py", "from .actuation import actuate, actuate_reset  # noqa: F401"),
        ("supervisor.py", "from .threat import resolve_terminable, step_epoch  # noqa: F401"),
    ]


def test_only_the_spawn_fixture_starts_a_live_child():
    # A Popen's child outlives the call, so conftest's spawn fixture owns
    # each one and reaps it; subprocess.run waits for its child itself.
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        found += [
            (path.name, ast.get_source_segment(source, node))
            for node in ast.walk(ast.parse(source, filename=str(path)))
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("subprocess.Popen", "Popen")
        ]
    assert found == [("conftest.py", "subprocess.Popen(args, **kwargs)")]


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


# -- what a CLI start loads ------------------------------------------------

CONFIGS = Path(__file__).parent.parent / "configs"
# Modules only supervise needs; any other command that loads one pays its import.
SUPERVISE_ONLY = {"quell.hostadapter", "signal", "logging", "configparser"}


def run_fresh(args: list[str], tmp_path: Path) -> tuple[subprocess.CompletedProcess, set[str]]:
    """A fresh ``python -X importtime`` of ``args``, and the modules imported once ``quell`` was."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    # One line per import, each after the imports it made: "import time: self | total | name".
    names = [
        line.split("|")[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    ]
    return result, set(names[names.index("quell") + 1:]) if "quell" in names else set()


README_COMMANDS = {
    "simulate": ["simulate", "--scenario", str(CONFIGS / "worked_attack.ini"), "--out", "out"],
    "simulate benign": ["simulate", "--scenario", str(CONFIGS / "benign.ini"), "--out", "out"],
    "replay": [
        "replay", "--scenario", str(CONFIGS / "recovery.ini"),
        "--trace", str(CONFIGS / "recovery_trace.csv"), "--out", "out",
    ],
    "plan": ["plan", "--curve", str(CONFIGS / "curve_boosted_trees.csv"), "--f1", "0.9"],
}


@pytest.mark.parametrize("command", README_COMMANDS)
def test_commands_but_supervise_start_without_the_host_or_logging(command, tmp_path):
    result, loaded = run_fresh(["-m", "quell.cli", *README_COMMANDS[command]], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "quell.config" in loaded  # the run's imports were seen
    assert loaded & SUPERVISE_ONLY == set()


def test_verbose_sets_up_logging_but_loads_no_host(tmp_path):
    result, loaded = run_fresh(["-m", "quell.cli", "--verbose", *README_COMMANDS["simulate"]], tmp_path)
    assert result.returncode == 0, result.stderr
    # Run with -m, the CLI module is __main__.
    assert result.stderr.splitlines()[-1].startswith("INFO __main__: wrote ")
    assert "logging" in loaded
    assert loaded & {"quell.hostadapter", "signal", "configparser"} == set()


def test_supervise_loads_the_host_and_still_runs(tmp_path):
    args = ["supervise", "--scenario", str(CONFIGS / "supervised_attack.ini"), "--out", "out",
            "--fake-adapter"]
    result, loaded = run_fresh(["-m", "quell.cli", *args], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "attack: terminated after epoch 16 (detector)\n"
    assert {"quell.hostadapter", "signal", "logging"} <= loaded
    assert (tmp_path / "out" / "calls.csv").exists()


SUPERVISE_FAKE = [
    "supervise", "--scenario", str(CONFIGS / "supervised_attack.ini"), "--out", "out", "--fake-adapter",
]


@pytest.mark.parametrize(
    "args",
    [README_COMMANDS["plan"], README_COMMANDS["simulate"], SUPERVISE_FAKE],
    ids=["plan", "simulate", "supervise"],
)
def test_a_successful_start_loads_no_argparse_or_locale(args, tmp_path):
    result, loaded = run_fresh(["-m", "quell.cli", *args], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "quell.efficacy" in loaded  # the run's imports were seen
    assert loaded & {"argparse", "gettext", "locale"} == set()


def test_help_still_loads_argparse(tmp_path):
    result, loaded = run_fresh(["-m", "quell.cli", "--help"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: quell ")
    assert "argparse" in loaded


def test_supervise_of_a_vanished_pid_still_exits_3(tmp_path, spawn):
    child = spawn([sys.executable, "-c", "pass"])
    child.wait()  # reaped: the pid names no process now
    args = ["supervise", "--scenario", str(CONFIGS / "supervised_attack.ini"), "--out", "out",
            "--pid", str(child.pid)]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-m", "quell.cli", *args], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == f"error: no such process: {child.pid}\n"


# -- the lazy package namespace ----------------------------------------------

SUBMODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def run_script(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_quell_loads_no_submodule():
    script = "import sys\nimport quell\nprint(sorted(m for m in sys.modules if m.startswith('quell.')))\n"
    assert run_script(script) == "[]\n"


def test_every_submodule_resolves_after_a_bare_import():
    script = (
        "import importlib, sys\n"
        "import quell\n"
        "for name in sys.argv[1:]:\n"
        "    assert getattr(quell, name) is importlib.import_module('quell.' + name), name\n"
        "print('ok')\n"
    )
    assert run_script(script, *SUBMODULES) == "ok\n"


def test_every_public_name_resolves_after_a_bare_import():
    script = (
        "import quell\n"
        "names = quell.__all__\n"
        "namespace = {}\n"
        "exec('from quell import *', namespace)\n"
        "assert set(namespace) - {'__builtins__'} == set(names)\n"
        "for name in names:\n"
        "    assert getattr(quell, name) is namespace[name], name\n"
        "assert set(names) <= set(dir(quell))\n"
        "print(len(names))\n"
    )
    assert int(run_script(script)) > 1


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        quell.no_such_name  # noqa: B018
    assert not hasattr(quell, "__wrapped__")
