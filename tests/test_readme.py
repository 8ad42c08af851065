"""The output the README shows under its commands is what they print.

README's ``sh`` blocks show a command's output as ``# `` lines under it.
Each such command runs here through ``main``, from the repository root
and with ``--out`` in a temporary directory, and its stdout must equal
those lines. A command marked ``# Linux only`` is left out.
"""

import shlex
from pathlib import Path

import pytest

from quell.cli import EXIT_OK, main

ROOT = Path(__file__).parent.parent


def shown_outputs() -> list[tuple[list[str], str]]:
    """Each README command that shows output, as its argv and the stdout shown."""
    examples = []
    in_sh, current = False, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif in_sh and line.startswith("quell ") and not line.endswith("# Linux only"):
            current = (shlex.split(line)[1:], [])
            examples.append(current)
        elif in_sh and line.startswith("# ") and current is not None:
            current[1].append(line[2:] + "\n")
        else:
            current = None
    return [(argv, "".join(shown)) for argv, shown in examples if shown]


EXAMPLES = shown_outputs()


def test_the_readme_shows_the_output_of_simulate_plan_and_replay():
    assert [argv[0] for argv, _ in EXAMPLES] == ["simulate", "plan", "replay"]


@pytest.mark.parametrize(("argv", "shown"), EXAMPLES, ids=[argv[0] for argv, _ in EXAMPLES])
def test_a_readme_command_prints_what_the_readme_shows(argv, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    if "--out" in argv:
        argv = [*argv]
        argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == shown
