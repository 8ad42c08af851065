"""Command-line front end.

Subcommands: simulate, plan, replay, supervise. Exit codes: 0 on
success, 2 for configuration or parse errors, 3 for runtime scenario
errors, 4 when a planning target is unreachable. Results go to stdout
or the output directory; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
from pathlib import Path

from .config import ConfigError, load_scenario
from .csvio import write_rows
from .detectors import SourceExhausted
from .efficacy import (
    EfficacyTarget,
    TargetKind,
    UnreachableTargetError,
    budget_to_time,
    load_curve_csv,
    required_measurements,
)
from .hostadapter import FakeHostAdapter, LinuxSignalAdapter, StaleHandleError
from .simulation import (
    ScenarioError,
    run_scenario,
    slowdown_reports,
    write_slowdown_csv,
)
from .supervisor import SUPERVISION_CSV_HEADER, supervise

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_UNREACHABLE = 4

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
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
    simulate.set_defaults(func=cmd_simulate)

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
    replay.set_defaults(func=cmd_replay)

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


def _run_and_write(scenario, out_dir: Path) -> int:
    with_log = run_scenario(scenario)
    base_log = run_scenario(scenario.without_response())
    reports = slowdown_reports(with_log, base_log)
    with_log.write_csv(out_dir / "log.csv")
    write_slowdown_csv(reports, out_dir / "slowdown.csv")
    for report in reports:
        print(
            f"{report.process_id}: slowdown {report.slowdown_pct:.6f}% "
            f"(with {report.progress_with:.6f}, without {report.progress_without:.6f})"
        )
    logger.info("wrote %s and %s", out_dir / "log.csv", out_dir / "slowdown.csv")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    return _run_and_write(scenario, _prepare_out(args.out))


def cmd_replay(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, seed_override=args.seed, trace_override=args.trace)
    return _run_and_write(scenario, _prepare_out(args.out))


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
    scenario = load_scenario(args.scenario, seed_override=args.seed)
    out_dir = _prepare_out(args.out)
    stop = threading.Event()

    previous_handlers = {}
    for signo in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signo] = signal.signal(signo, lambda *_: stop.set())
        except ValueError:  # not the main thread
            pass
    try:
        if args.fake_adapter:
            adapter = FakeHostAdapter()
            reports = supervise(scenario, adapter, stop=stop)
            adapter.export_calls_csv(out_dir / "calls.csv")
        else:
            if len(scenario.processes) != 1:
                raise ConfigError("--pid supervision needs exactly one [process.<id>] section")
            adapter = LinuxSignalAdapter()
            process_id = scenario.processes[0].process_id
            try:
                handle = adapter.attach(args.pid)
                reports = supervise(
                    scenario,
                    adapter,
                    handles={process_id: handle},
                    pace_seconds=scenario.epoch_duration_ms / 1000.0,
                    stop=stop,
                )
            finally:
                adapter.close()
    finally:
        for signo, handler in previous_handlers.items():
            signal.signal(signo, handler)

    rows = (report.csv_row() for report in reports)
    write_rows(out_dir / "supervision.csv", SUPERVISION_CSV_HEADER, rows)
    for report in reports:
        print(
            f"{report.process_id}: {report.final_state} after epoch {report.epochs_run}"
            + (f" ({report.exit_reason})" if report.exit_reason else "")
        )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    except (ScenarioError, SourceExhausted, StaleHandleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
