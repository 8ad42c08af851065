"""Span tracing around quell's layer functions, from outside the package.

``Tracer.install`` replaces each layer function at the module or class
attribute its caller looks it up by (``quell.simulation.step_epoch``,
``quell.cli.slowdown_reports``, ``FakeHostAdapter.poll``, ...) with a
wrapper that records one span per call: a name, a start, an end and the
index of the enclosing span. Private helpers are not wrapped, so their
cost shows as self time of the public function that calls them.

Spans live in flat arrays while an operation runs. ``end_operation``
folds them into per-name totals (inclusive time of outermost calls,
self time, call count) and clears them; the spans of the last operation
stay available for ``write_spans``. Work a wrapper does after its span
closes (counting terminations, unchanged shares, redundant applies)
lands in the parent span's self time.
"""

from __future__ import annotations

import csv
import time
from array import array
from collections import Counter
from pathlib import Path

import quell.cli
import quell.config
import quell.hostadapter
import quell.simulation
import quell.supervisor
from quell.detectors import StochasticSource, ThresholdSource, TraceSource
from quell.threat import LifecycleState

_DETECTOR_SPAN = {
    StochasticSource: "detectors.stochastic",
    ThresholdSource: "detectors.threshold",
    TraceSource: "detectors.trace",
}


class LayerStats:
    """Per-name totals over the operations traced so far."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.events: Counter[str] = Counter()
        self.operations = 0

    def per_op(self, value: float) -> float:
        return value / self.operations if self.operations else 0.0

    def total_ms(self, name: str) -> float:
        return self.per_op(self.total_ns[name]) / 1e6

    def self_ms(self, name: str) -> float:
        return self.per_op(self.self_ns[name]) / 1e6

    def calls_per_op(self, name: str) -> float:
        return self.per_op(self.calls[name])

    def mean_ns(self, name: str) -> float:
        calls = self.calls[name]
        return self.total_ns[name] / calls if calls else 0.0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("H")
        self._parent = array("l")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._last: tuple = ([], [], [], [])
        self._patches: list[tuple[object, str, object]] = []
        self.stats = LayerStats()

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, owner, attr: str, name_of, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name_of(args)`` names the span; a plain string names every
        call alike. ``after(args, result)`` runs once the span closed.
        """
        original = owner.__dict__[attr]
        fixed = self._id(name_of) if isinstance(name_of, str) else None
        span_id = self._id
        names, parents, starts, ends = self._span_name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(fixed if fixed is not None else span_id(name_of(args)))
            parents.append(stack[-1])
            stack.append(index)
            ends.append(0)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        events = self.stats.events

        def detector(args):
            return _DETECTOR_SPAN[type(args[0])]

        def run_kind(args):
            return "simulation.run" if args[0].response_enabled else "simulation.baseline"

        def count_records(args, log):
            events["records"] += len(log.records)

        def count_unchanged(args, shares):
            if shares == args[0]:
                events["unchanged_shares"] += 1

        def count_terminated(args, ledger):
            if ledger.state is LifecycleState.TERMINATED:
                events["terminated"] += 1

        def count_redundant(args, ack):
            if ack.noop:
                events["redundant_apply"] += 1

        def count_epochs(args, reports):
            events["supervised_epochs"] += max((r.epochs_run for r in reports), default=0)

        cli, config, sim, sup = quell.cli, quell.config, quell.simulation, quell.supervisor
        self._wrap(cli, "main", lambda args: "cli.main." + args[0][0])
        for owner in (cli, config):
            self._wrap(owner, "load_scenario", "config.load_scenario")
        self._wrap(config, "load_trace_csv", "config.load_trace_csv")
        self._wrap(config, "load_measurement_stream_csv", "config.load_stream_csv")
        for owner in (sim, sup):
            self._wrap(owner, "next_verdict", detector)
            self._wrap(owner, "step_epoch", "threat.step_epoch")
            self._wrap(owner, "resolve_terminable", "threat.resolve_terminable", count_terminated)
            self._wrap(owner, "actuate", "actuation.actuate", count_unchanged)
            self._wrap(owner, "actuate_reset", "actuation.actuate_reset")
        self._wrap(sup, "mark_completed", "threat.mark_completed")
        self._wrap(sim, "progress_rate", "simulation.progress_rate")
        self._wrap(cli, "run_scenario", run_kind, count_records)
        self._wrap(cli, "slowdown_reports", "simulation.slowdown_reports")
        self._wrap(cli, "write_slowdown_csv", "simulation.write_slowdown")
        self._wrap(sim.ScenarioLog, "write_csv", "simulation.write_log")
        for owner in (cli, sup):
            self._wrap(owner, "supervise", "supervisor.supervise", count_epochs)
        adapter = quell.hostadapter.FakeHostAdapter
        self._wrap(adapter, "poll", "hostadapter.poll")
        self._wrap(adapter, "apply_shares", "hostadapter.apply_shares", count_redundant)
        self._wrap(adapter, "terminate", "hostadapter.terminate")
        self._wrap(adapter, "export_calls_csv", "hostadapter.export_calls")
        self._wrap(cli, "load_curve_csv", "efficacy.load_curve")
        self._wrap(cli, "required_measurements", "efficacy.required_measurements")

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_operation(self) -> None:
        """Fold the current operation's spans into ``stats``."""
        stats = self.stats
        names, parents, starts, ends = self._span_name, self._parent, self._start, self._end
        count = len(starts)
        child_ns = [0] * count
        durations = [ends[i] - starts[i] for i in range(count)]
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                child_ns[parent] += durations[index]
        calls = Counter()
        total = Counter()
        own = Counter()
        for index in range(count):
            name = names[index]
            calls[name] += 1
            own[name] += durations[index] - child_ns[index]
            parent = parents[index]
            if parent < 0 or names[parent] != name:  # outermost of a recursive call
                total[name] += durations[index]
        for name_id in calls:
            name = self.names[name_id]
            stats.calls[name] += calls[name_id]
            stats.total_ns[name] += total[name_id]
            stats.self_ns[name] += own[name_id]
        stats.operations += 1
        self._last = (names[:], parents[:], starts[:], ends[:])
        for column in (names, parents, starts, ends):
            del column[:]

    def write_spans(self, path: Path) -> None:
        """Write the last traced operation's spans as CSV."""
        names, parents, starts, ends = self._last
        origin = min(starts, default=0)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("span", "parent", "name", "start_ns", "end_ns"))
            for index in range(len(starts)):
                writer.writerow(
                    (index, parents[index], self.names[names[index]],
                     starts[index] - origin, ends[index] - origin)
                )
