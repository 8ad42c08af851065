"""End-to-end and per-layer benchmark for quell.

    python3 bench/run.py --workload sim_fleet --seed 1 --seconds 20 --trace 0

Workloads (closed loops: one client, one process, one thread):

* ``sim_fleet``        ``quell simulate`` in-process through
                       ``quell.cli.main`` on a generated file-backed
                       scenario of 150 processes, E=100.
* ``supervise_fleet``  ``load_scenario`` plus ``supervise`` over a fake
                       host adapter on 100 processes x 500 epochs, then
                       calls.csv and supervision.csv.
* ``cli_configs``      fresh ``python -m quell.cli`` processes running the
                       README commands on the bundled configs, in a
                       seeded order.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the layer functions (see ``tracing.py``) and
reports per-layer numbers, the tracing overhead and, on ``sim_fleet``, a
scaling probe. Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Times are scaled to a reference speed (see
``reference_seconds``). Every operation's output is checked (see
``checks.py``).
The run works in ``bench/_work/`` and removes what it wrote there.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
SPANS = BENCH / "spans"  # traced runs leave the last operation's spans here

if not (SRC / "quell" / "__init__.py").is_file() or not CONFIGS.is_dir():
    sys.exit(f"error: {ROOT} is not a quell checkout (src/quell and configs/ are needed)")
sys.path.insert(0, str(SRC))

import quell.cli  # noqa: E402
import quell.config  # noqa: E402
import quell.hostadapter  # noqa: E402
import quell.simulation  # noqa: E402
import quell.supervisor  # noqa: E402

import checks  # noqa: E402
import fleet  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 1
# Set up at least this often and for at least this long; report the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
PROBE_REPEATS = 2
PROBE_PROCESSES = 100  # the scaling probe runs sim_fleet's generator at this P and 3P
# The reference work, and its time at the speed every timing is scaled to:
# about its mean on a 2-vCPU Xeon VM at 2.0 GHz when the host is fast.
REFERENCE_ITEMS = 8000
REFERENCE_REPEATS = 5
REFERENCE_SECONDS = 0.001
# Traced-run metrics that come from a workload's own probe, not from spans.
PROBE_METRICS = ("cli.interpreter_ms", "cli.import_ms", "simulation.run_scaling_exp",
                 "simulation.report_scaling_exp")


@dataclass
class Run:
    """Timings and check results of one measured pass.

    Timings are kept twice: as wall time and scaled to the reference
    speed (see ``reference_seconds``). The metrics use the scaled ones.
    """

    op_seconds: list[float] = field(default_factory=list)
    wall_seconds: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    process_epochs: int = 0
    fingerprints: list[str] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    after_op: Callable[[], None] | None = None  # called after each timed operation

    def op_done(self, timing: Timing, scale: float) -> None:
        self.wall_seconds.append(timing.seconds)
        self.op_seconds.append(timing.seconds * scale)
        self.epoch_seconds += [seconds * scale for seconds in timing.epochs]
        self.process_epochs += timing.process_epochs
        if self.after_op is not None:
            self.after_op()

    def judge(self, problems: list[str]) -> None:
        """Fail every operation whose output differs from the last one's,
        and all of them when the last output is wrong: equal inputs must
        give byte-identical output."""
        last = self.fingerprints[-1]
        for fingerprint in self.fingerprints:
            if problems or fingerprint != last:
                self.failed += 1
        if any(f != last for f in self.fingerprints):
            problems = problems + ["output changed between operations on the same input"]
        self.problems += problems


@dataclass(frozen=True)
class Timing:
    """Wall time of one operation, its epoch times and its process-epochs."""

    seconds: float
    epochs: tuple[float, ...] = ()
    process_epochs: int = 0


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


_REFERENCE_TABLE = {i: (i * 0.5, str(i)) for i in range(REFERENCE_ITEMS)}


def _reference_work() -> float:
    """Fixed pure-Python work of the kind quell does: dict lookups,
    tuples, floats and strings. It allocates nothing that outlives an
    expression, so it times the host and not the heap quell left."""
    table = _REFERENCE_TABLE
    total = 0.0
    for i in range(REFERENCE_ITEMS):
        half, text = table[i]
        total += half * 1.0001 + len(text)
    return total


def reference_seconds() -> float:
    """Mean time of ``_reference_work`` over a few runs: the host's speed now.

    The host this runs on switches between speeds for seconds to minutes
    at a time, by up to a factor of two, and quell's code slows down
    with the reference work. Each timing is multiplied by
    ``REFERENCE_SECONDS`` over the reference time measured around it, so
    that it reads as if the host had run at one fixed speed.
    """
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        _reference_work()
    return (time.perf_counter() - start) / REFERENCE_REPEATS


def timed(fn: Callable[[], object]) -> float:
    """Time ``fn()`` once, scaled to the reference speed."""
    before = reference_seconds()
    gc.collect()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return elapsed * 2 * REFERENCE_SECONDS / (before + reference_seconds())


def timed_loop(run: Run, seconds: float, op: Callable[[], Timing], round_ops: int = 1) -> None:
    """Run ``op`` until ``seconds`` have passed, at least once, and
    until the operation count is a multiple of ``round_ops``.

    The reference work is timed between operations; each operation is
    scaled by the mean of the reference times before and after it.
    """
    deadline = time.perf_counter() + seconds
    before = reference_seconds()
    count = 0
    while True:
        gc.collect()
        timing = op()
        after = reference_seconds()
        run.op_done(timing, 2 * REFERENCE_SECONDS / (before + after))
        before = after
        count += 1
        if time.perf_counter() >= deadline and count % round_ops == 0:
            return


class EpochClockAdapter(quell.hostadapter.FakeHostAdapter):
    """Fake host that notes the time of the first poll of each epoch.

    ``supervise`` polls every live process once per epoch, so a poll of
    a process already polled since the last mark starts a new epoch.
    """

    def __init__(self) -> None:
        super().__init__()
        self.epoch_starts: list[int] = []
        self._polled: set[str] = set()

    def poll(self, handle):
        if not self.epoch_starts or handle.ident in self._polled:
            self.epoch_starts.append(time.perf_counter_ns())
            self._polled.clear()
        self._polled.add(handle.ident)
        return super().poll(handle)


# -- workloads ------------------------------------------------------------


class SimFleet:
    """``quell simulate`` on a generated fleet, in-process."""

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.out = work / "out"
        self.files = [self.out / "log.csv", self.out / "slowdown.csv"]

    def setup(self) -> None:
        shutil.rmtree(self.work / "input", ignore_errors=True)
        self.ini = fleet.write_sim_fleet(self.work / "input", self.seed)
        scenario = quell.config.load_scenario(self.ini)
        self.epochs = scenario.epochs
        self.process_epochs = len(scenario.processes) * scenario.epochs

    def _simulate(self) -> str:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = quell.cli.main(["simulate", "--scenario", str(self.ini), "--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"quell simulate exited with {code}")
        return stdout.getvalue()

    def measure(self, run: Run, seconds: float) -> None:
        def op() -> Timing:
            start = time.perf_counter()
            self.stdout = self._simulate()
            elapsed = time.perf_counter() - start
            run.fingerprints.append(checks.fingerprint(self.files, self.stdout))
            return Timing(elapsed, (elapsed / self.epochs,), self.process_epochs)

        timed_loop(run, seconds, op)

    measure_layers = measure

    def verify(self, run: Run) -> None:
        problems = checks.check_simulation(self.out, self.stdout, self.epochs, fleet.SIM_FLOORS)
        if self.seed == DEFAULT_SEED:
            problems += checks.check_digests("sim_fleet", self.files)
        run.judge(problems)

    def probes(self) -> dict[str, float]:
        """Exponents of run and report time from P to 3P processes, E fixed."""
        small = PROBE_PROCESSES
        times = {}
        for processes in (small, 3 * small):
            ini = fleet.write_sim_fleet(self.work / f"probe{processes}", self.seed, processes)
            scenario = quell.config.load_scenario(ini)
            run_s, report_s = [], []
            for _ in range(PROBE_REPEATS):
                gc.collect()
                start = time.perf_counter()
                with_log = quell.simulation.run_scenario(scenario)
                run_s.append(time.perf_counter() - start)
                base_log = quell.simulation.run_scenario(scenario.without_response())
                gc.collect()
                start = time.perf_counter()
                quell.simulation.slowdown_reports(with_log, base_log)
                report_s.append(time.perf_counter() - start)
            times[processes] = (statistics.median(run_s), statistics.median(report_s))
        (run_small, report_small), (run_big, report_big) = times[small], times[3 * small]
        return {
            "simulation.run_scaling_exp": math.log(run_big / run_small) / math.log(3),
            "simulation.report_scaling_exp": math.log(report_big / report_small) / math.log(3),
        }


class SuperviseFleet:
    """``load_scenario`` plus ``supervise`` over a fake host adapter."""

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.out = work / "out"
        self.files = [self.out / "calls.csv", self.out / "supervision.csv"]

    def setup(self) -> None:
        shutil.rmtree(self.work / "input", ignore_errors=True)
        self.ini = fleet.write_supervise_fleet(self.work / "input", self.seed)
        self.out.mkdir(parents=True, exist_ok=True)
        self.scenario = quell.config.load_scenario(self.ini)

    def _supervise(self) -> list[int]:
        """One operation; returns the epoch marks, ending with the loop's end."""
        self.scenario = quell.config.load_scenario(self.ini)
        adapter = EpochClockAdapter()
        reports = quell.supervisor.supervise(self.scenario, adapter)
        finished = time.perf_counter_ns()
        adapter.export_calls_csv(self.files[0])
        with self.files[1].open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(quell.supervisor.SUPERVISION_CSV_HEADER)
            for report in reports:
                writer.writerow(report.csv_row())
        return adapter.epoch_starts + [finished]

    def measure(self, run: Run, seconds: float) -> None:
        def op() -> Timing:
            start = time.perf_counter()
            marks = self._supervise()
            elapsed = time.perf_counter() - start
            run.fingerprints.append(checks.fingerprint(self.files))
            epochs = tuple((end - begin) / 1e9 for begin, end in zip(marks, marks[1:]))
            return Timing(elapsed, epochs, len(self.scenario.processes) * self.scenario.epochs)

        timed_loop(run, seconds, op)

    measure_layers = measure

    def verify(self, run: Run) -> None:
        problems = checks.check_supervision(self.out, self.scenario.epochs, fleet.SUPERVISE_FLOORS)
        problems += checks.check_differential(self.scenario, self.out)
        if self.seed == DEFAULT_SEED:
            problems += checks.check_digests("supervise_fleet", self.files)
        run.judge(problems)

    def probes(self) -> dict[str, float]:
        return {}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    stdout: str
    scenario: str | None = None


def cli_commands(out: Path) -> list[Command]:
    """The README commands on the bundled configs, with their stdout."""
    c = CONFIGS
    return [
        Command(
            ("simulate", "--scenario", f"{c}/worked_attack.ini", "--out", f"{out}/worked_attack"),
            "attack: slowdown 79.266667% (with 701.927000, without 3385.500000)\n",
            "worked_attack.ini",
        ),
        Command(
            ("simulate", "--scenario", f"{c}/benign.ini", "--out", f"{out}/benign"),
            "builder: slowdown 0.000000% (with 500.000000, without 500.000000)\n",
            "benign.ini",
        ),
        Command(
            ("replay", "--scenario", f"{c}/recovery.ini", "--trace", f"{c}/recovery_trace.csv",
             "--out", f"{out}/recovery"),
            "worker: slowdown 33.000000% (with 1005.000000, without 1500.000000)\n",
            "recovery.ini",
        ),
        Command(
            ("plan", "--curve", f"{c}/curve_boosted_trees.csv", "--f1", "0.9"),
            "required measurements: 23\ntime budget: 2.300000 s (100 ms per epoch)\n",
        ),
        Command(
            ("supervise", "--scenario", f"{c}/supervised_attack.ini", "--out",
             f"{out}/supervised_attack", "--fake-adapter"),
            "attack: terminated after epoch 16 (detector)\n",
            "supervised_attack.ini",
        ),
    ]


class CliConfigs:
    """Fresh ``python -m quell.cli`` processes on the bundled configs.

    The seed fixes the order of the commands within each pass. Traced
    runs call ``quell.cli.main`` in-process instead, since spans cannot
    be taken inside a child process.
    """

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.rng = work, random.Random(seed)
        paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def setup(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        self.commands = cli_commands(self.work / "out")
        self.process_epochs = {}
        for command in self.commands:
            scenario = quell.config.load_scenario(CONFIGS / command.scenario) if command.scenario else None
            self.process_epochs[command] = len(scenario.processes) * scenario.epochs if scenario else 0
        for command in self.commands:
            self._spawn(command)

    def _spawn(self, command: Command) -> str:
        result = subprocess.run(
            [sys.executable, "-m", "quell.cli", *command.argv],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=60,
        )
        if result.returncode != 0:
            raise RuntimeError(f"quell {command.argv[0]} exited {result.returncode}: {result.stderr}")
        return result.stdout

    def _in_process(self, command: Command) -> str:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = quell.cli.main(list(command.argv))
        if code != 0:
            raise RuntimeError(f"quell {command.argv[0]} exited {code}")
        return stdout.getvalue()

    def _check(self, command: Command, stdout: str) -> list[str]:
        problems = []
        if stdout != command.stdout:
            problems.append(f"quell {command.argv[0]} printed {stdout!r}, expected {command.stdout!r}")
        if command.argv[0] == "supervise":
            problems += checks.check_supervised_attack_calls(Path(command.argv[4]))
        return problems

    def _passes(self, run: Run, seconds: float, invoke) -> None:
        """Whole passes over the commands, each in a seeded order, until
        time is up. Each command is one operation; each pass gives one
        epoch sample, its time over the process-epochs it ran."""
        per_pass = len(self.commands)
        pass_epochs = sum(self.process_epochs.values())
        queue: list[Command] = []

        def one_command() -> Timing:
            if not queue:
                queue.extend(self.commands)
                self.rng.shuffle(queue)
            command = queue.pop()
            start = time.perf_counter()
            try:
                stdout = invoke(command)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                stdout, problems = "", [str(exc)]
            else:
                problems = []
            elapsed = time.perf_counter() - start
            problems = problems or self._check(command, stdout)
            if problems:
                run.failed += 1
                run.problems += problems
            return Timing(elapsed, process_epochs=self.process_epochs[command])

        first = len(run.op_seconds)
        timed_loop(run, seconds, one_command, round_ops=per_pass)
        for start in range(first, len(run.op_seconds), per_pass):
            run.epoch_seconds.append(sum(run.op_seconds[start:start + per_pass]) / pass_epochs)

    def measure(self, run: Run, seconds: float) -> None:
        self._passes(run, seconds, self._spawn)

    def measure_layers(self, run: Run, seconds: float) -> None:
        self._passes(run, seconds, self._in_process)

    def verify(self, run: Run) -> None:
        """Checked per invocation in ``_passes``."""

    def probes(self) -> dict[str, float]:
        """Bare interpreter start and a fresh ``import quell``, in ms."""

        def median_ms(code: str) -> float:
            samples = []
            for _ in range(5):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=60)
                samples.append((time.perf_counter() - start) * 1000)
            return statistics.median(samples)

        interpreter = median_ms("pass")
        return {"cli.interpreter_ms": interpreter, "cli.import_ms": median_ms("import quell") - interpreter}


WORKLOADS = {"sim_fleet": SimFleet, "supervise_fleet": SuperviseFleet, "cli_configs": CliConfigs}


# -- end-to-end and traced runs -------------------------------------------


def end_to_end(name: str, workload, run: Run, seconds: float) -> dict[str, float]:
    setups = []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPEATS or time.perf_counter() < deadline:
        setups.append(timed(workload.setup))
    workload.measure(Run(), 0)  # one untimed warm-up operation (a pass on cli_configs)
    workload.measure(run, seconds)
    # For cli_configs the largest child; otherwise this process.
    who = resource.RUSAGE_CHILDREN if name == "cli_configs" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    workload.verify(run)
    wall = run.wall_seconds
    print(f"samples: {len(run.op_seconds)} operations, {len(run.epoch_seconds)} epochs; "
          f"unscaled wall time per operation: median {statistics.median(wall) * 1e3:.3f} ms, "
          f"p90 {quantile(wall, 0.9) * 1e3:.3f} ms, scale {sum(run.op_seconds) / sum(wall):.3f}")
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
        "throughput_pe_s": run.process_epochs / sum(run.op_seconds),
        "latency_p50_ms": statistics.median(run.op_seconds) * 1e3,
        "latency_p90_ms": quantile(run.op_seconds, 0.9) * 1e3,
        "epoch_p50_us": statistics.median(run.epoch_seconds) * 1e6,
        "epoch_p90_us": quantile(run.epoch_seconds, 0.9) * 1e6,
    }


def layer_metrics(stats: tracing.LayerStats) -> dict[str, float]:
    """Per-layer metrics: times and counts per traced operation, ``_ns``
    and ``_us`` values as means per call."""
    events = stats.events
    actuate_calls = stats.calls["actuation.actuate"]
    apply_calls = stats.calls["hostadapter.apply_shares"]
    return {
        "config.load_scenario_ms": stats.total_ms("config.load_scenario"),
        "config.load_trace_csv_ms": stats.total_ms("config.load_trace_csv"),
        "config.load_stream_csv_ms": stats.total_ms("config.load_stream_csv"),
        "detectors.verdicts": sum(
            stats.calls_per_op(f"detectors.{kind}") for kind in ("stochastic", "threshold", "trace")
        ),
        "detectors.stochastic_ns": stats.mean_ns("detectors.stochastic"),
        "detectors.threshold_ns": stats.mean_ns("detectors.threshold"),
        "detectors.trace_ns": stats.mean_ns("detectors.trace"),
        "threat.step_calls": stats.calls_per_op("threat.step_epoch"),
        "threat.step_ns": stats.mean_ns("threat.step_epoch"),
        "threat.resolve_calls": stats.calls_per_op("threat.resolve_terminable"),
        "threat.terminated": stats.per_op(events["terminated"]),
        "actuation.actuate_calls": stats.calls_per_op("actuation.actuate"),
        "actuation.actuate_ns": stats.mean_ns("actuation.actuate"),
        "actuation.zero_delta_ratio": events["unchanged_shares"] / actuate_calls if actuate_calls else 0.0,
        "simulation.records": stats.per_op(events["records"]),
        "simulation.run_ms": stats.total_ms("simulation.run"),
        "simulation.baseline_ms": stats.total_ms("simulation.baseline"),
        "simulation.run_self_ms": stats.self_ms("simulation.run"),
        "simulation.progress_rate_ns": stats.mean_ns("simulation.progress_rate"),
        "simulation.slowdown_reports_ms": stats.total_ms("simulation.slowdown_reports"),
        "simulation.write_log_ms": stats.total_ms("simulation.write_log"),
        "simulation.write_slowdown_ms": stats.total_ms("simulation.write_slowdown"),
        "supervisor.supervise_ms": stats.total_ms("supervisor.supervise"),
        "supervisor.self_ms": stats.self_ms("supervisor.supervise"),
        "supervisor.epochs": stats.per_op(events["supervised_epochs"]),
        "hostadapter.poll_calls": stats.calls_per_op("hostadapter.poll"),
        "hostadapter.poll_ns": stats.mean_ns("hostadapter.poll"),
        "hostadapter.apply_calls": stats.calls_per_op("hostadapter.apply_shares"),
        "hostadapter.apply_ns": stats.mean_ns("hostadapter.apply_shares"),
        "hostadapter.redundant_apply_ratio": events["redundant_apply"] / apply_calls if apply_calls else 0.0,
        "hostadapter.terminate_calls": stats.calls_per_op("hostadapter.terminate"),
        "hostadapter.export_calls_ms": stats.total_ms("hostadapter.export_calls"),
        "efficacy.load_curve_us": stats.mean_ns("efficacy.load_curve") / 1e3,
        "efficacy.required_measurements_us": stats.mean_ns("efficacy.required_measurements") / 1e3,
        **{
            f"cli.main_ms.{command}": stats.mean_ns(f"cli.main.{command}") / 1e6
            for command in ("simulate", "replay", "plan", "supervise")
        },
    }


def traced(workload, runs: list[Run], seconds: float, spans: Path) -> dict[str, float]:
    """Per-layer numbers from operations run alternately with and without
    tracing for 1.5 x ``seconds``, then the workload's own probes.

    Alternating keeps the traced and untraced medians behind
    ``trace_overhead_ratio`` from drifting apart with the host's speed.
    Layers and probes a workload does not run read 0.
    """
    workload.setup()
    tracer = tracing.Tracer()
    with_trace: list[float] = []
    without: list[float] = []

    def alternate() -> None:
        if tracer.installed:
            tracer.uninstall()
            tracer.end_operation()
            with_trace.append(run.op_seconds[-1])
        else:
            without.append(run.op_seconds[-1])
            tracer.install()

    run = Run(after_op=alternate)
    runs.append(run)
    tracer.install()
    try:
        workload.measure_layers(run, 1.5 * seconds)
        while not without:
            workload.measure_layers(run, 0)
    finally:
        tracer.uninstall()
    workload.verify(run)
    spans.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans)

    metrics = layer_metrics(tracer.stats)
    metrics["trace_overhead_ratio"] = statistics.median(with_trace) / statistics.median(without)
    metrics.update(dict.fromkeys(PROBE_METRICS, 0.0))
    metrics.update(workload.probes())
    ranked = sorted(tracer.stats.self_ns.items(), key=lambda item: -item[1])
    print("self time per operation, largest first:")
    for span_name, self_ns in ranked[:8]:
        print(f"  {span_name:34s} {tracer.stats.per_op(self_ns) / 1e6:12.3f} ms")
    return metrics


UNITS = {"s": "s", "ms": "ms", "us": "us", "ns": "ns", "mb": "MB", "ratio": "ratio", "exp": "ratio"}


def unit(metric: str) -> str:
    """Unit from the name's last ``_`` suffix (``cli.main_ms.plan`` is in ms)."""
    stem = metric.split(".")[1] if "." in metric else metric
    if stem.endswith("_pe_s"):
        return "1/s"
    return UNITS.get(stem.rsplit("_", 1)[-1], "count")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One CPU for this process and the children it starts, so that the
    # reference work and the operations it scales run on the same one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work, args.seed)
    runs: list[Run] = []
    try:
        work.mkdir(parents=True)
        if args.trace:
            metrics = traced(workload, runs, args.seconds, SPANS / f"{args.workload}.csv")
        else:
            runs.append(Run())
            metrics = end_to_end(args.workload, workload, runs[0], args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = sum(len(run.op_seconds) for run in runs)
    failed = sum(run.failed for run in runs)
    problems = [problem for run in runs for problem in run.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} operations={attempted}")
    print(f"  {'error_rate':34s} {failed / attempted:14.6f} ratio")
    for metric, value in metrics.items():
        print(f"  {metric:34s} {value:14.6f} {unit(metric)}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit(metric)} for metric, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
