"""Command-line front end.

Subcommands: simulate, plan, replay, supervise. ``replay`` is
``simulate`` with every process's verdicts read from one trace file, so
one handler serves both. Exit codes: 0 on success, 2 for configuration
or parse errors, 3 for runtime scenario errors, 4 when a planning
target is unreachable. Results go to stdout or the output directory;
diagnostics go to stderr.

Only ``supervise`` loads the host adapters, ``signal`` and
``threading``, and only it and ``--verbose`` runs set up ``logging``:
no other run emits a record at the level that shows.

One table, ``_COMMANDS``, declares the command line: ``build_parser``
builds the argparse parser from it, and ``main`` reads a well-formed
command line by it without argparse. That lean reader takes leading
``--verbose`` tokens, an exact subcommand name and that subcommand's
exact option strings, each at most once and each value not starting
with ``-``, converted as argparse would, into argparse's namespace.
Anything else, help included, it declines, and ``main`` falls back to
``build_parser().parse_args``, so argparse alone prints every help
text, usage message and error, and a successful start never imports
``argparse`` (or the ``locale`` its first message loads).
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .config import ConfigError, load_scenario
from .csvio import write_rows
from .efficacy import (
    EfficacyTarget,
    TargetKind,
    UnreachableTargetError,
    budget_to_time,
    load_curve_csv,
    required_measurements,
)
from .simulation import (
    ScenarioError,
    baseline,
    run_scenario,
    slowdown_reports,
    write_slowdown_csv,
)
from .supervisor import SUPERVISION_CSV_HEADER, supervise

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_UNREACHABLE = 4


def _prepare_out(out: str) -> Path:
    directory = Path(out)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def cmd_simulate(args: argparse.Namespace) -> int:
    """``simulate``, and ``replay`` with its ``--trace`` in place of the detectors."""
    scenario = load_scenario(args.scenario, seed_override=args.seed, trace_override=args.trace)
    out_dir = _prepare_out(args.out)
    with_log = run_scenario(scenario)
    reports = slowdown_reports(with_log, baseline(scenario))
    with_log.write_csv(out_dir / "log.csv")
    write_slowdown_csv(reports, out_dir / "slowdown.csv")
    for report in reports:
        print(
            f"{report.process_id}: slowdown {report.slowdown_pct:.6f}% "
            f"(with {report.progress_with:.6f}, without {report.progress_without:.6f})"
        )
    if args.verbose:  # the only level at which the record shows
        import logging

        logging.getLogger(__name__).info("wrote %s and %s", out_dir / "log.csv", out_dir / "slowdown.csv")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    curve = load_curve_csv(args.curve, epoch_duration_ms=args.epoch_ms)
    if args.f1 is not None:
        target = EfficacyTarget(TargetKind.F1_AT_LEAST, args.f1)
    else:
        target = EfficacyTarget(TargetKind.FPR_AT_MOST, args.fpr)
    budget = required_measurements(curve, target, sustained=not args.first_crossing)
    seconds = budget_to_time(budget, curve)
    print(f"required measurements: {budget}")
    print(f"time budget: {seconds:.6f} s ({curve.epoch_duration_ms:g} ms per epoch)")
    return EXIT_OK


def cmd_supervise(args: argparse.Namespace) -> int:
    import logging
    import signal
    import threading

    from .hostadapter import FakeHostAdapter, LinuxSignalAdapter, StaleHandleError

    scenario = load_scenario(args.scenario, seed_override=args.seed)
    if args.fake_adapter:
        adapter, handles, pace_seconds = FakeHostAdapter(), None, 0.0
    else:
        if len(scenario.processes) != 1:
            raise ConfigError("--pid supervision needs exactly one [process.<id>] section")
        adapter = LinuxSignalAdapter()
        try:
            handle = adapter.attach(args.pid)
        except StaleHandleError as exc:  # a process gone before the run is a runtime error
            raise ScenarioError(str(exc)) from None
        handles = {scenario.processes[0].process_id: handle}
        pace_seconds = scenario.epoch_duration_ms / 1000.0
    out_dir = _prepare_out(args.out)

    stop = threading.Event()
    previous_handlers = {}
    for signo in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signo] = signal.signal(signo, lambda *_: stop.set())
        except ValueError:  # not the main thread
            pass
    returned = False
    try:
        reports = supervise(scenario, adapter, handles=handles, pace_seconds=pace_seconds, stop=stop)
        returned = True
    except BaseException as exc:
        reports = getattr(exc, "reports", ())
        raise
    finally:
        for signo, handler in previous_handlers.items():
            signal.signal(signo, handler)
        if isinstance(adapter, LinuxSignalAdapter):
            adapter.close()
            writes = []
        else:
            writes = [(out_dir / "calls.csv", adapter.export_calls_csv)]
        # Also after a failure: the calls made and the states reached so far
        # record what the run did.
        rows = [report.csv_row() for report in reports]
        writes.append(
            (out_dir / "supervision.csv", lambda path: write_rows(path, SUPERVISION_CSV_HEADER, rows))
        )
        for path, write in writes:
            try:
                write(path)
            except OSError as exc:
                if returned:
                    raise
                # Leave the error that stopped the run as the one reported.
                logging.getLogger(__name__).warning("could not write %s: %s", path, exc)

    for report in reports:
        print(
            f"{report.process_id}: {report.final_state} after epoch {report.epochs_run}"
            + (f" ({report.exit_reason})" if report.exit_reason else "")
        )
    return EXIT_OK


# Each subcommand's help text, handler, the defaults it sets beside its
# options, and its options in --help order. An option is its string, value
# type (None for a flag), default, role and help text; its dest is the string
# without the leading dashes and with "_" for "-", as argparse derives it.
# A subcommand's _ONE_OF rows form its required exclusive group, which
# build_parser opens at the first of them.
_REQUIRED, _ONE_OF, _OPTIONAL = "required", "one of the required exclusive group", "optional"
_VERBOSE = ("--verbose", None, False, _OPTIONAL, "log progress to stderr")
_SCENARIO = ("--scenario", str, None, _REQUIRED, "scenario INI file")
_OUT = ("--out", str, None, _REQUIRED, "output directory")
_SEED = ("--seed", int, None, _OPTIONAL, "override the scenario seed")
_COMMANDS = {
    "simulate": (
        "run a scenario and write log.csv + slowdown.csv", cmd_simulate, {"trace": None},
        (_SCENARIO, _OUT, _SEED),
    ),
    "plan": (
        "measurement budget for a detection quality target", cmd_plan, {},
        (
            ("--curve", str, None, _REQUIRED, "efficacy curve CSV"),
            ("--f1", float, None, _ONE_OF, "require F1 at least this value"),
            ("--fpr", float, None, _ONE_OF, "require FPR at most this value"),
            ("--epoch-ms", float, 100.0, _OPTIONAL, "epoch duration in ms"),
            (
                "--first-crossing", None, False, _OPTIONAL,
                "use the plain first crossing instead of the sustained one",
            ),
        ),
    ),
    "replay": (
        "run a scenario with verdicts from a trace file", cmd_simulate, {},
        (
            _SCENARIO,
            ("--trace", str, None, _REQUIRED, "verdict trace CSV (epoch,process,verdict)"),
            _OUT, _SEED,
        ),
    ),
    "supervise": (
        "drive a host adapter epoch by epoch", cmd_supervise, {},
        (
            _SCENARIO, _OUT, _SEED,
            ("--fake-adapter", None, False, _ONE_OF, "supervise scripted fake processes"),
            ("--pid", int, None, _ONE_OF, "supervise one real process (Linux)"),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="quell",
        description="Throttle-first post-detection response: simulate, plan, replay, supervise.",
    )
    _add_option(parser, _VERBOSE)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, defaults, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=help_text)
        group = None
        for row in options:
            if row[3] is _ONE_OF and group is None:
                group = command.add_mutually_exclusive_group(required=True)
            _add_option(group if row[3] is _ONE_OF else command, row)
        command.set_defaults(func=handler, **defaults)
    return parser


def _add_option(container: argparse._ActionsContainer, row: tuple) -> None:
    option, kind, default, role, help_text = row
    kind_args = {"action": "store_true"} if kind is None else {"type": kind}
    container.add_argument(option, default=default, required=role is _REQUIRED, help=help_text, **kind_args)


def _lean_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, or None to leave it to argparse."""
    start = 0
    while start < len(argv) and argv[start] == _VERBOSE[0]:
        start += 1
    if start == len(argv) or argv[start] not in _COMMANDS:
        return None
    command = argv[start]
    _, handler, defaults, options = _COMMANDS[command]
    kinds = {row[0]: row[1] for row in options}
    given = {}
    tokens = iter(argv[start + 1:])
    for option in tokens:
        if option not in kinds or option in given:
            return None
        if kinds[option] is None:
            given[option] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as a dash one is
        if value.startswith("-"):
            return None
        try:
            given[option] = kinds[option](value)
        except ValueError:
            return None
    values = dict(defaults)
    members = chosen = 0
    for option, _, default, role, _ in options:
        if role is _REQUIRED and option not in given:
            return None
        if role is _ONE_OF:
            members += 1
            chosen += option in given
        values[option[2:].replace("-", "_")] = given.get(option, default)
    if members and chosen != 1:
        return None
    return SimpleNamespace(verbose=start > 0, command=command, func=handler, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _lean_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.verbose or args.command == "supervise":
        import logging

        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    try:
        return args.func(args)
    except UnreachableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
