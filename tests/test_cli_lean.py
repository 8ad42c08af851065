"""The lean argv reader gives what argparse gives, or gives up.

``cli._lean_args`` reads a command line without argparse when it stays
inside a strict shape: leading ``--verbose`` tokens, an exact subcommand
name, then that subcommand's exact option strings, each once, each value
not starting with ``-``. Three things hold it to the fallback: over
generated command lines it returns exactly argparse's namespace or None,
and None wherever argparse prints or exits; every line the command-line
table describes is read lean; and the commands the README and the benchmark
run are read lean, so the fast path cannot go dead unnoticed.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quell import cli

CONFIGS = Path(__file__).parent.parent / "configs"

# Each subcommand's option strings, as its --help lists them.
COMMAND_OPTIONS = {
    "simulate": ["--scenario", "--out", "--seed"],
    "plan": ["--curve", "--f1", "--fpr", "--epoch-ms", "--first-crossing"],
    "replay": ["--scenario", "--trace", "--out", "--seed"],
    "supervise": ["--scenario", "--out", "--seed", "--fake-adapter", "--pid"],
}
COMMANDS = list(COMMAND_OPTIONS)
OPTIONS = sorted({option for options in COMMAND_OPTIONS.values() for option in options})
FLAGS = {"--first-crossing", "--fake-adapter"}
EXCLUSIVE = {"plan": {"--f1", "--fpr"}, "supervise": {"--fake-adapter", "--pid"}}
ABBREVIATIONS = ["--scen", "--o", "--se", "--tr", "--cur", "--f", "--ep", "--first", "--fake", "--pi"]


def comparable(namespace) -> dict[str, str]:
    # Each value by its repr, so a nan read on both paths compares equal.
    return {name: repr(value) for name, value in vars(namespace).items()}


def argparse_args(argv: list[str]) -> dict[str, str] | None:
    """What argparse reads from ``argv``, or None if it printed anything or exited."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            namespace = cli.build_parser().parse_args(argv)
    except SystemExit:
        return None
    return None if printed.getvalue() else comparable(namespace)


def lean_args(argv: list[str]) -> dict[str, str] | None:
    namespace = cli._lean_args(argv)
    return None if namespace is None else comparable(namespace)


# -- generated command lines ---------------------------------------------------

# Values each option's type reads, by the option's kind; then values it may not.
GOOD_VALUES = {
    "str": ["x", "out dir", "a=b", "5", ""],
    "int": ["5", " 7", "1_0", "0"],
    "float": ["0.9", "1e3", "nan", "inf", "5"],
}
KINDS = {"--seed": "int", "--pid": "int", "--f1": "float", "--fpr": "float", "--epoch-ms": "float"}
BAD_VALUES = ["-1", "0x10", "-x", "--out", "1.5"]
values = st.sampled_from(sorted({value for good in GOOD_VALUES.values() for value in good}) + BAD_VALUES)
options = st.sampled_from(OPTIONS + ABBREVIATIONS)
tokens = st.one_of(
    st.sampled_from(COMMANDS + OPTIONS + ABBREVIATIONS + ["-h", "--help", "--", "--verbose", "--verb"]),
    st.builds(lambda option, value: f"{option}={value}", options, values),
    values,
)


@st.composite
def command_lines(draw) -> list[str]:
    """``--verbose`` tokens, a subcommand and most of its options, each flag bare and each
    other option with a value; perhaps with one fault: a stray, repeated or misspelled token."""
    command = draw(st.sampled_from(COMMANDS))
    argv = ["--verbose"] * draw(st.integers(0, 2)) + [command]
    exclusive = EXCLUSIVE.get(command, set())
    for option in draw(st.permutations(COMMAND_OPTIONS[command])):
        # Hypothesis draws 0 more often than other integers: let 0 mean the well-formed choice.
        second_of_group = option in exclusive and exclusive & set(argv)
        if draw(st.integers(0, 7)) != 7 and not (second_of_group and draw(st.integers(0, 3)) != 3):
            argv.append(option)
            if option not in FLAGS:
                good = st.sampled_from(GOOD_VALUES[KINDS.get(option, "str")])
                argv.append(draw(good if draw(st.integers(0, 3)) != 3 else values))
    fault = draw(st.sampled_from(["none", "none", "stray", "repeat", "misspell"]))
    at = draw(st.integers(0, len(argv) - 1))
    if fault == "stray":
        argv.insert(at, draw(tokens))
    elif fault == "repeat":
        argv.insert(at, argv[draw(st.integers(0, len(argv) - 1))])
    elif fault == "misspell":
        argv[at] = draw(tokens)
    return argv


@settings(max_examples=1000)
# Three parts in four near-well-formed, so about a fifth of the lines are read lean.
@given(argv=st.one_of(command_lines(), command_lines(), command_lines(), st.lists(tokens, max_size=8)))
def test_lean_reader_agrees_with_argparse_or_gives_up(argv):
    # Where argparse prints or exits, argparse_args is None, and so must the reader be.
    lean = lean_args(argv)
    if lean is not None:
        assert lean == argparse_args(argv)


@settings(max_examples=300)
@given(data=st.data())
def test_a_line_inside_the_grammar_is_read_lean(data):
    command = data.draw(st.sampled_from(COMMANDS))
    rows = cli._COMMANDS[command][3]
    kinds = {option: kind for option, kind, _, _, _ in rows}
    required = [option for option, _, _, role, _ in rows if role is cli._REQUIRED]
    exclusive = [option for option, _, _, role, _ in rows if role is cli._ONE_OF]
    chosen = list(required)
    if exclusive:
        chosen.append(data.draw(st.sampled_from(exclusive)))
    chosen += [
        option for option in kinds
        if option not in chosen and option not in exclusive and data.draw(st.booleans())
    ]
    chosen = data.draw(st.permutations(chosen))
    argv = ["--verbose"] * data.draw(st.integers(0, 2)) + [command]
    for option in chosen:
        argv.append(option)
        kind = kinds[option]
        if kind is not None:
            argv.append(data.draw(st.sampled_from(GOOD_VALUES[kind.__name__])))
    lean = lean_args(argv)
    assert lean is not None
    assert lean == argparse_args(argv)


# -- fixed command lines ----------------------------------------------------------

BENCHMARK_COMMANDS = [
    ["simulate", "--scenario", f"{CONFIGS}/worked_attack.ini", "--out", "out/worked_attack"],
    ["simulate", "--scenario", f"{CONFIGS}/benign.ini", "--out", "out/benign"],
    ["replay", "--scenario", f"{CONFIGS}/recovery.ini", "--trace", f"{CONFIGS}/recovery_trace.csv",
     "--out", "out/recovery"],
    ["plan", "--curve", f"{CONFIGS}/curve_boosted_trees.csv", "--f1", "0.9"],
    ["supervise", "--scenario", f"{CONFIGS}/supervised_attack.ini", "--out", "out/supervised_attack",
     "--fake-adapter"],
    ["supervise", "--scenario", f"{CONFIGS}/supervised_attack.ini", "--out", "out/pid", "--pid", "4242"],
    ["--verbose", "plan", "--first-crossing", "--epoch-ms", "50", "--fpr", "0.1", "--curve", "c.csv"],
]


@pytest.mark.parametrize(
    "argv",
    BENCHMARK_COMMANDS,
    ids=["simulate", "simulate benign", "replay", "plan", "supervise fake", "supervise pid", "verbose plan"],
)
def test_the_readme_and_benchmark_commands_are_read_lean(argv):
    namespace = cli._lean_args(argv)
    assert namespace is not None
    assert comparable(namespace) == argparse_args(argv)


SIMULATE = ["simulate", "--scenario", "s.ini", "--out", "out"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--verbose"],
        ["-h"],
        ["--help"],
        ["--verbose", "--help"],
        [*SIMULATE, "-h"],
        [*SIMULATE, "--help"],
        ["simulat", "--scenario", "s.ini", "--out", "out"],
        ["nope"],
        ["--verb", *SIMULATE],
        ["simulate", "--scen", "s.ini", "--out", "out"],
        ["simulate", "--scenario=s.ini", "--out", "out"],
        ["simulate", "--", "--scenario", "s.ini", "--out", "out"],
        [*SIMULATE, "--"],
        [*SIMULATE, "extra"],
        [*SIMULATE, "--verbose"],
        [*SIMULATE, "--trace", "t.csv"],
        [*SIMULATE, "--out", "again"],
        [*SIMULATE, "--seed", "-1"],
        [*SIMULATE, "--seed", "x"],
        [*SIMULATE, "--seed", "1.5"],
        [*SIMULATE, "--seed"],
        ["simulate", "--scenario", "--out", "out"],
        ["simulate", "--scenario", "s.ini"],
        ["plan", "--curve", "c.csv"],
        ["plan", "--curve", "c.csv", "--f1", "0.9", "--fpr", "0.1"],
        ["plan", "--curve", "c.csv", "--f1", "0x10"],
        ["plan", "--curve", "c.csv", "--f1", "0.9", "--first-crossing", "yes"],
        ["supervise", "--scenario", "s.ini", "--out", "out"],
        ["supervise", "--scenario", "s.ini", "--out", "out", "--fake-adapter", "--pid", "5"],
    ],
)
def test_each_excluded_form_gives_up(argv):
    assert cli._lean_args(argv) is None


def test_a_declined_line_argparse_accepts_still_runs(tmp_path, capsys):
    # argparse reads "--seed -1" as a value; the scenario loader then rejects it.
    scenario = str(CONFIGS / "worked_attack.ini")
    argv = ["simulate", "--scenario", scenario, "--out", str(tmp_path), "--seed", "-1"]
    assert cli._lean_args(argv) is None
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.endswith("seed must be an unsigned 64-bit integer\n")
