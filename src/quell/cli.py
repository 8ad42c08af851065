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

``main`` reads a well-formed command line without argparse: a lean
reader takes leading ``--verbose`` tokens, an exact subcommand name,
and that subcommand's exact option strings, each at most once and each
value not starting with ``-``, converted with the ``int`` or ``float``
argparse would call. It fills the namespace argparse would. Anything
else, help included, it declines, and ``main`` falls back to
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


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="quell",
        description="Throttle-first post-detection response: simulate, plan, replay, supervise.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run a scenario and write log.csv + slowdown.csv")
    simulate.add_argument("--scenario", required=True, help="scenario INI file")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    simulate.set_defaults(func=cmd_simulate, trace=None)

    plan = commands.add_parser("plan", help="measurement budget for a detection quality target")
    plan.add_argument("--curve", required=True, help="efficacy curve CSV")
    group = plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--f1", type=float, default=None, help="require F1 at least this value")
    group.add_argument("--fpr", type=float, default=None, help="require FPR at most this value")
    plan.add_argument("--epoch-ms", type=float, default=100.0, help="epoch duration in ms")
    plan.add_argument(
        "--first-crossing",
        action="store_true",
        help="use the plain first crossing instead of the sustained one",
    )
    plan.set_defaults(func=cmd_plan)

    replay = commands.add_parser("replay", help="run a scenario with verdicts from a trace file")
    replay.add_argument("--scenario", required=True, help="scenario INI file")
    replay.add_argument("--trace", required=True, help="verdict trace CSV (epoch,process,verdict)")
    replay.add_argument("--out", required=True, help="output directory")
    replay.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    replay.set_defaults(func=cmd_simulate)

    supervise_cmd = commands.add_parser("supervise", help="drive a host adapter epoch by epoch")
    supervise_cmd.add_argument("--scenario", required=True, help="scenario INI file")
    supervise_cmd.add_argument("--out", required=True, help="output directory")
    supervise_cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    adapter_group = supervise_cmd.add_mutually_exclusive_group(required=True)
    adapter_group.add_argument(
        "--fake-adapter", action="store_true", help="supervise scripted fake processes"
    )
    adapter_group.add_argument(
        "--pid", type=int, default=None, help="supervise one real process (Linux)"
    )
    supervise_cmd.set_defaults(func=cmd_supervise)

    return parser


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


# What the lean reader accepts of each subcommand, as build_parser adds it:
# each option string's dest and value type (None for a flag), the options
# it requires, its required exclusive group (one option of it, exactly),
# the defaults argparse sets for the dests not given, and its handler.
_GRAMMAR = {
    "simulate": (
        {"--scenario": ("scenario", str), "--out": ("out", str), "--seed": ("seed", int)},
        ("--scenario", "--out"),
        (),
        {"seed": None, "trace": None},
        cmd_simulate,
    ),
    "plan": (
        {
            "--curve": ("curve", str),
            "--f1": ("f1", float),
            "--fpr": ("fpr", float),
            "--epoch-ms": ("epoch_ms", float),
            "--first-crossing": ("first_crossing", None),
        },
        ("--curve",),
        ("--f1", "--fpr"),
        {"f1": None, "fpr": None, "epoch_ms": 100.0, "first_crossing": False},
        cmd_plan,
    ),
    "replay": (
        {
            "--scenario": ("scenario", str),
            "--trace": ("trace", str),
            "--out": ("out", str),
            "--seed": ("seed", int),
        },
        ("--scenario", "--trace", "--out"),
        (),
        {"seed": None},
        cmd_simulate,
    ),
    "supervise": (
        {
            "--scenario": ("scenario", str),
            "--out": ("out", str),
            "--seed": ("seed", int),
            "--fake-adapter": ("fake_adapter", None),
            "--pid": ("pid", int),
        },
        ("--scenario", "--out"),
        ("--fake-adapter", "--pid"),
        {"seed": None, "fake_adapter": False, "pid": None},
        cmd_supervise,
    ),
}


def _lean_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, or None to leave it to argparse."""
    start = 0
    while start < len(argv) and argv[start] == "--verbose":
        start += 1
    if start == len(argv) or argv[start] not in _GRAMMAR:
        return None
    command = argv[start]
    options, required, exclusive, defaults, handler = _GRAMMAR[command]
    values = dict(defaults)
    seen = set()
    tokens = iter(argv[start + 1:])
    for option in tokens:
        if option not in options or option in seen:
            return None
        seen.add(option)
        dest, kind = options[option]
        if kind is None:
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as a dash one is
        if value.startswith("-"):
            return None
        try:
            values[dest] = kind(value)
        except ValueError:
            return None
    if not seen.issuperset(required):
        return None
    if exclusive and len(seen.intersection(exclusive)) != 1:
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
