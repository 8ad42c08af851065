"""Supervision loop: adapter call sequences and final reports."""

import logging
import random
import threading

import pytest

from quell.actuation import DEFAULT_SHARES, RESOURCES, ActuationMode, ActuatorPolicy, ResourceShares
from quell.detectors import GroundTruth, StochasticSource, ThresholdSource, TraceSource
from quell.hostadapter import FakeHostAdapter, format_shares
from quell.simulation import (
    ProcessSpec,
    ProgressModel,
    Proportional,
    Scenario,
    ScenarioError,
    run_scenario,
)
from quell.supervisor import SUPERVISION_CSV_HEADER, SupervisionReport, supervise
from quell.threat import AssessmentPolicy, Verdict

M, B = Verdict.MALICIOUS, Verdict.BENIGN
INC = AssessmentPolicy.incremental()
DEFAULTS = "cpu=1.000000;mem=1.000000;net=1.000000;fs=1.000000"


def cpu_spec(process_id, verdicts):
    model = ProgressModel(base_rate=100.0, response={"cpu": Proportional()})
    return ProcessSpec(process_id, model, TraceSource(tuple(verdicts), start_epoch=1))


def make_scenario(specs, epochs, budget):
    return Scenario(
        processes=tuple(specs),
        measurement_budget=budget,
        penalty_policy=INC,
        compensation_policy=INC,
        actuator=ActuatorPolicy(),
        epochs=epochs,
    )


def call_pairs(adapter):
    return [(c.call, c.args) for c in adapter.calls]


def cpu_of(args):
    return args.split(";")[0].removeprefix("cpu=")


class TestCallSequences:
    def test_sustained_attack_throttles_then_terminates(self):
        adapter = FakeHostAdapter()
        scenario = make_scenario([cpu_spec("attack", [M] * 16)], epochs=17, budget=15)
        reports = supervise(scenario, adapter)
        assert call_pairs(adapter) == [
            ("attach", DEFAULTS),
            ("apply_shares", "cpu=0.900000;mem=1.000000;net=1.000000;fs=1.000000"),
            ("apply_shares", "cpu=0.700000;mem=1.000000;net=1.000000;fs=1.000000"),
            ("apply_shares", "cpu=0.400000;mem=1.000000;net=1.000000;fs=1.000000"),
            ("apply_shares", "cpu=0.010000;mem=1.000000;net=1.000000;fs=1.000000"),
            ("terminate", ""),
        ]
        assert len(reports) == 1
        assert reports[0].process_id == "attack"
        assert reports[0].final_state == "terminated"
        assert reports[0].epochs_run == 16
        assert reports[0].exit_reason == "detector"
        assert f"{reports[0].shares.cpu:.6f}" == "0.010000"

    def test_recovery_releases_the_throttle_without_terminating(self):
        adapter = FakeHostAdapter()
        scenario = make_scenario(
            [cpu_spec("recovery", [M] * 5 + [B] * 12)], epochs=18, budget=18
        )
        reports = supervise(scenario, adapter)
        applies = [cpu_of(args) for call, args in call_pairs(adapter) if call == "apply_shares"]
        assert applies == [
            "0.900000",
            "0.700000",
            "0.400000",
            "0.010000",
            "0.110000",
            "0.310000",
            "0.610000",
            "1.000000",
        ]
        assert not any(call == "terminate" for call, _ in call_pairs(adapter))
        report = reports[0]
        assert (report.final_state, report.epochs_run, report.exit_reason) == ("normal", 17, None)
        assert report.shares == ResourceShares()

    def test_tiny_budget_terminates_after_one_throttle(self):
        adapter = FakeHostAdapter()
        scenario = make_scenario([cpu_spec("flash", [M, M])], epochs=3, budget=1)
        reports = supervise(scenario, adapter)
        assert call_pairs(adapter) == [
            ("attach", DEFAULTS),
            ("apply_shares", "cpu=0.900000;mem=1.000000;net=1.000000;fs=1.000000"),
            ("terminate", ""),
        ]
        assert (reports[0].final_state, reports[0].epochs_run) == ("terminated", 2)
        assert f"{reports[0].shares.cpu:.6f}" == "0.900000"

    def test_quiet_process_is_never_touched(self):
        adapter = FakeHostAdapter()
        scenario = make_scenario([cpu_spec("quiet", [B] * 5)], epochs=6, budget=10)
        reports = supervise(scenario, adapter)
        assert call_pairs(adapter) == [("attach", DEFAULTS)]
        report = reports[0]
        assert (report.final_state, report.epochs_run, report.exit_reason) == ("normal", 5, None)
        assert report.shares == ResourceShares()

    def test_processes_listed_out_of_id_order_are_stepped_in_id_order(self):
        specs = [cpu_spec("z", [M] * 3), cpu_spec("a", [M] * 3)]
        listed, ordered = FakeHostAdapter(), FakeHostAdapter()
        reports = supervise(make_scenario(specs, epochs=4, budget=10), listed)
        assert reports == supervise(make_scenario(specs[::-1], epochs=4, budget=10), ordered)
        assert listed.calls == ordered.calls
        assert [(call.handle, call.call) for call in listed.calls] == [
            ("a", "attach"), ("z", "attach"), *[("a", "apply_shares"), ("z", "apply_shares")] * 3
        ]


class TestLifecycleEdges:
    def test_natural_exit_is_completed_not_terminated_by_us(self):
        adapter = FakeHostAdapter()
        handle = adapter.spawn("worker")
        adapter.script_natural_exit(handle)
        scenario = make_scenario([cpu_spec("worker", [M] * 5)], epochs=6, budget=10)
        reports = supervise(scenario, adapter, handles={"worker": handle})
        report = reports[0]
        assert report.final_state == "terminated"
        assert report.exit_reason == "completed"
        assert report.epochs_run == 1
        assert [c.call for c in adapter.calls] == ["attach"]

    def test_preattached_handles_are_not_respawned(self):
        adapter = FakeHostAdapter()
        pre = adapter.spawn("alpha")
        scenario = make_scenario(
            [cpu_spec("alpha", [B, B]), cpu_spec("beta", [B, B])], epochs=3, budget=9
        )
        reports = supervise(scenario, adapter, handles={"alpha": pre})
        attaches = [c.handle for c in adapter.calls if c.call == "attach"]
        assert attaches == ["alpha", "beta"]
        assert [r.process_id for r in reports] == ["alpha", "beta"]

    def test_preset_stop_event_runs_nothing(self):
        adapter = FakeHostAdapter()
        stop = threading.Event()
        stop.set()
        scenario = make_scenario([cpu_spec("worker", [M] * 5)], epochs=6, budget=10)
        reports = supervise(scenario, adapter, stop=stop)
        report = reports[0]
        assert (report.final_state, report.epochs_run, report.exit_reason) == ("normal", 0, None)
        assert [c.call for c in adapter.calls] == ["attach"]

    def test_unsupported_resources_warn_but_do_not_stop_the_loop(self, caplog):
        adapter = FakeHostAdapter(unsupported=("memory", "network"))
        scenario = make_scenario([cpu_spec("worker", [M] * 3)], epochs=4, budget=10)
        with caplog.at_level(logging.WARNING, logger="quell.supervisor"):
            reports = supervise(scenario, adapter)
        assert "memory, network" in caplog.text
        assert reports[0].epochs_run == 3
        assert f"{reports[0].shares.cpu:.6f}" == "0.400000"

    def test_terminated_process_gets_no_further_calls(self):
        adapter = FakeHostAdapter()
        scenario = make_scenario([cpu_spec("flash", [M, M])], epochs=10, budget=1)
        supervise(scenario, adapter)
        assert [c.call for c in adapter.calls] == ["attach", "apply_shares", "terminate"]

    def test_exit_between_poll_and_apply_is_completed(self):
        class ExitsAfterSecondPoll(FakeHostAdapter):
            """The victim exits just after its second poll reports it alive."""

            polls = 0

            def poll(self, handle):
                alive = super().poll(handle)
                if handle.ident == "victim":
                    self.polls += 1
                    if self.polls == 2:
                        self.script_natural_exit(handle)
                return alive

        adapter = ExitsAfterSecondPoll()
        scenario = make_scenario(
            [cpu_spec("bystander", [M] * 5), cpu_spec("victim", [M] * 5)], epochs=6, budget=10
        )
        bystander, victim = supervise(scenario, adapter)
        assert (victim.final_state, victim.exit_reason, victim.epochs_run) == (
            "terminated", "completed", 2,
        )
        assert f"{victim.shares.cpu:.6f}" == "0.900000"
        assert [c.call for c in adapter.calls if c.handle == "victim"] == ["attach", "apply_shares"]
        assert (bystander.final_state, bystander.epochs_run) == ("suspicious", 5)
        assert [cpu_of(c.args) for c in adapter.calls if c.handle == "bystander"][1:] == [
            "0.900000", "0.700000", "0.400000", "0.010000",
        ]

    def test_exit_between_poll_and_terminate_is_completed(self):
        class ExitsBeforeTheKill(FakeHostAdapter):
            """The process exits just before its terminate lands."""

            def terminate(self, handle):
                self.script_natural_exit(handle)
                return super().terminate(handle)

        adapter = ExitsBeforeTheKill()
        scenario = make_scenario([cpu_spec("attack", [M] * 16)], epochs=17, budget=15)
        (report,) = supervise(scenario, adapter)
        # The host acknowledged a no-op and logged no kill: nothing was terminated by us.
        assert "terminate" not in [c.call for c in adapter.calls]
        assert (report.final_state, report.exit_reason, report.epochs_run) == (
            "terminated", "completed", 16,
        )
        assert f"{report.shares.cpu:.6f}" == "0.010000"


class FourWaysOut(FakeHostAdapter):
    """Fake host on which one process ends by each route in epoch 3.

    ``a_runs`` comes first in id order and never ends, so its poll count
    is the epoch every later call falls in. In epoch 3, ``b_gone`` has
    exited before its poll, ``c_stale`` exits just after its poll, and
    ``d_noop`` exits just before the kill lands.
    """

    def __init__(self):
        super().__init__()
        self.polls = {}
        self.seen = []  # (handle, call, epoch)

    def note(self, handle, call):
        self.seen.append((handle.ident, call, self.polls.get("a_runs", 0)))

    def poll(self, handle):
        self.polls[handle.ident] = self.polls.get(handle.ident, 0) + 1
        self.note(handle, "poll")
        if handle.ident == "b_gone" and self.polls["b_gone"] == 3:
            self.script_natural_exit(handle)
        alive = super().poll(handle)
        if handle.ident == "c_stale" and self.polls["c_stale"] == 3:
            self.script_natural_exit(handle)
        return alive

    def apply_shares(self, handle, shares):
        self.note(handle, "apply_shares")
        return super().apply_shares(handle, shares)

    def terminate(self, handle):
        self.note(handle, "terminate")
        if handle.ident == "d_noop":
            self.script_natural_exit(handle)
        return super().terminate(handle)


class TestFourWaysToFinish:
    def test_each_route_ends_the_calls_in_the_epoch_it_happens(self):
        # Budget 2: epochs 1 and 2 step, epoch 3 resolves. ``c_stale``'s
        # benign resolve restores its throttled shares, an apply that meets
        # a process gone; ``d_noop`` and ``e_kill`` are resolved malicious.
        specs = [
            cpu_spec("a_runs", [M, B, B, B, B]),
            cpu_spec("b_gone", [B] * 5),
            cpu_spec("c_stale", [M, M, B]),
            cpu_spec("d_noop", [M, M, M]),
            cpu_spec("e_kill", [M, M, M]),
        ]
        adapter = FourWaysOut()
        reports = supervise(make_scenario(specs, epochs=6, budget=2), adapter)
        assert [(r.process_id, r.final_state, r.epochs_run, r.exit_reason) for r in reports] == [
            ("a_runs", "terminable", 5, None),
            ("b_gone", "terminated", 3, "completed"),
            ("c_stale", "terminated", 3, "completed"),
            ("d_noop", "terminated", 3, "completed"),
            ("e_kill", "terminated", 3, "detector"),
        ]
        for report in reports:
            assert adapter.polls[report.process_id] == report.epochs_run
            last = max(epoch for ident, _, epoch in adapter.seen if ident == report.process_id)
            assert last == report.epochs_run
        in_epoch_3 = [(ident, call) for ident, call, epoch in adapter.seen if epoch == 3]
        assert in_epoch_3 == [
            ("a_runs", "poll"),
            ("b_gone", "poll"),
            ("c_stale", "poll"),
            ("c_stale", "apply_shares"),
            ("d_noop", "poll"),
            ("d_noop", "terminate"),
            ("e_kill", "poll"),
            ("e_kill", "terminate"),
        ]
        # Only the detector's own kill reached the host's log.
        assert [c.handle for c in adapter.calls if c.call == "terminate"] == ["e_kill"]


class EpochStampedHost(FakeHostAdapter):
    """Fake host that notes the epoch of every apply and terminate call.

    The supervisor polls each live process once per epoch from epoch 1,
    so a process's poll count is the epoch it is in.
    """

    def __init__(self):
        super().__init__()
        self.epoch = {}
        self.epoch_of_call = {}

    def poll(self, handle):
        self.epoch[handle.ident] = self.epoch.get(handle.ident, 0) + 1
        return super().poll(handle)

    def apply_shares(self, handle, shares):
        self.epoch_of_call[len(self.calls)] = self.epoch[handle.ident]
        return super().apply_shares(handle, shares)

    def terminate(self, handle):
        self.epoch_of_call[len(self.calls)] = self.epoch[handle.ident]
        return super().terminate(handle)


def random_scenario(rng):
    epochs = rng.randint(2, 40)

    def source():
        kind = rng.randrange(3)
        if kind == 0:
            malice = rng.random()
            verdicts = [M if rng.random() < malice else B for _ in range(epochs - 1)]
            return TraceSource(tuple(verdicts), start_epoch=1)
        if kind == 1:
            truth = rng.choice(list(GroundTruth))
            return StochasticSource(rng.random(), 0.3 * rng.random(), truth, rng.getrandbits(64))
        values = tuple(rng.random() for _ in range(epochs))
        return ThresholdSource(rng.randint(1, 4), rng.uniform(0.3, 0.7), values)

    def policy():
        return rng.choice(
            [INC, AssessmentPolicy.linear(rng.uniform(1.0, 2.0), rng.uniform(0.0, 2.0)),
             AssessmentPolicy.exponential()]
        )

    model = ProgressModel(base_rate=10.0, response={"cpu": Proportional()})
    specs = [ProcessSpec(f"p{i}", model, source()) for i in range(rng.randint(1, 5))]
    actuator = ActuatorPolicy(
        throttle_step=rng.uniform(0.05, 0.5),
        mode=rng.choice(list(ActuationMode)),
        targets=tuple(rng.sample(RESOURCES, rng.randint(1, len(RESOURCES)))),
    )
    return Scenario(
        processes=tuple(specs),
        measurement_budget=rng.randint(1, 30),
        penalty_policy=policy(),
        compensation_policy=policy(),
        actuator=actuator,
        epochs=epochs,
        measurements_per_epoch=rng.randint(1, 3),
    )


class TestSimulatorDifferential:
    def test_supervisor_makes_the_calls_the_simulator_predicts(self):
        outcomes = set()
        for seed in range(40):
            scenario = random_scenario(random.Random(seed))
            log = run_scenario(scenario)
            adapter = EpochStampedHost()
            reports = {r.process_id: r for r in supervise(scenario, adapter)}
            for process_id in log.process_ids():
                records = log.for_process(process_id)
                expected = []
                shares = DEFAULT_SHARES
                for record in records:
                    now = ResourceShares(record.cpu, record.memory, record.network, record.filesystem)
                    if now != shares:
                        expected.append((record.epoch, "apply_shares", format_shares(now)))
                    shares = now
                last = records[-1]
                if last.state == "terminated":
                    expected.append((last.epoch, "terminate", ""))
                calls = [
                    (adapter.epoch_of_call[c.seq], c.call, c.args)
                    for c in adapter.calls
                    if c.handle == process_id and c.call != "attach"
                ]
                where = f"seed {seed}, {process_id}"
                assert calls == expected, where
                report = reports[process_id]
                assert (report.final_state, report.epochs_run) == (last.state, last.epoch), where
                assert report.shares == shares, where
                outcomes.add(last.state)
        assert {"terminated", "terminable", "suspicious", "normal"} <= outcomes


class RecordingSource:
    """A trace from epoch 1 that records each epoch it is asked for."""

    def __init__(self, verdicts):
        self.trace = TraceSource(tuple(verdicts), start_epoch=1)
        self.asked = []

    def verdict_at(self, epoch):
        self.asked.append(epoch)
        return self.trace.verdict_at(epoch)


class TestDrySource:
    # A trace of n verdicts covers epochs [1, n + 1), so epoch n + 1 finds it dry.
    @pytest.mark.parametrize(
        ("specs", "message"),
        [
            ([cpu_spec("p", [M, B])], "process 'p': trace covers epochs [1, 3), requested 3"),
            (
                [cpu_spec("a", [M, B]), cpu_spec("z", [M])],
                "process 'z': trace covers epochs [1, 2), requested 2",
            ),
            (
                [cpu_spec("z", [M]), cpu_spec("a", [B])],
                "process 'a': trace covers epochs [1, 2), requested 2",
            ),
        ],
        ids=["one", "earliest-epoch-first", "lowest-id-first"],
    )
    def test_both_drivers_raise_the_same_error(self, specs, message):
        scenario = make_scenario(specs, epochs=6, budget=10)
        with pytest.raises(ScenarioError) as simulated:
            run_scenario(scenario)
        with pytest.raises(ScenarioError) as supervised:
            supervise(scenario, FakeHostAdapter())
        assert str(simulated.value) == message
        assert str(supervised.value) == message

    @pytest.mark.parametrize(
        "driver",
        [run_scenario, lambda scenario: supervise(scenario, FakeHostAdapter())],
        ids=["simulate", "supervise"],
    )
    def test_no_process_is_asked_past_the_failing_epoch(self, driver):
        # ``m`` runs dry at epoch 2: ``a`` comes before it and has been
        # asked for epoch 2, ``z`` comes after it and has not.
        a, z = RecordingSource([M] * 5), RecordingSource([M] * 5)
        model = ProgressModel(base_rate=100.0, response={"cpu": Proportional()})
        specs = [ProcessSpec("z", model, z), cpu_spec("m", [M]), ProcessSpec("a", model, a)]
        with pytest.raises(ScenarioError, match="^process 'm': "):
            driver(make_scenario(specs, epochs=6, budget=10))
        assert (a.asked, z.asked) == ([1, 2], [1])


class TestFailedRunReport:
    def test_the_error_carries_the_state_each_process_reached(self):
        # ``p`` runs dry at epoch 3. ``a`` comes before it in the loop and
        # has run epoch 3; ``z`` comes after it and has run epoch 2 only.
        specs = [cpu_spec("a", [M] * 5), cpu_spec("p", [M, B]), cpu_spec("z", [M, M, B, B, B])]
        with pytest.raises(ScenarioError) as failed:
            supervise(make_scenario(specs, epochs=6, budget=10), FakeHostAdapter())
        after_two = supervise(make_scenario(specs, epochs=3, budget=10), FakeHostAdapter())
        after_three = supervise(
            make_scenario([specs[0]], epochs=4, budget=10), FakeHostAdapter()
        )
        p_report = after_two[1]
        assert failed.value.reports == (
            after_three[0],
            SupervisionReport(
                p_report.process_id, p_report.final_state, 3, p_report.exit_reason, p_report.shares
            ),
            after_two[2],
        )

    def test_a_failed_spawn_carries_the_processes_attached_before_it(self):
        class FullHost(FakeHostAdapter):
            def spawn(self, ident):
                if ident == "b":
                    raise OSError("no room for b")
                return super().spawn(ident)

        specs = [cpu_spec("a", [M]), cpu_spec("b", [M])]
        with pytest.raises(OSError) as failed:
            supervise(make_scenario(specs, epochs=2, budget=10), FullHost())
        assert failed.value.reports == (SupervisionReport("a", "normal", 0, None, DEFAULT_SHARES),)

    def test_an_adapter_error_carries_the_reports_too(self):
        class Refusing(FakeHostAdapter):
            def apply_shares(self, handle, shares):
                raise OSError("refused")

        with pytest.raises(OSError) as failed:
            supervise(make_scenario([cpu_spec("p", [M])], epochs=2, budget=10), Refusing())
        (report,) = failed.value.reports
        assert (report.process_id, report.final_state, report.epochs_run) == ("p", "suspicious", 1)
        assert report.shares is DEFAULT_SHARES


class TestReportShape:
    def test_csv_row_with_exit_reason(self):
        report = SupervisionReport(
            process_id="p",
            final_state="terminated",
            epochs_run=16,
            exit_reason="detector",
            shares=ResourceShares(cpu=0.01),
        )
        assert report.csv_row() == (
            "p", "terminated", "16", "detector",
            "0.010000", "1.000000", "1.000000", "1.000000",
        )

    def test_csv_row_without_exit_reason(self):
        report = SupervisionReport(
            process_id="q",
            final_state="normal",
            epochs_run=5,
            exit_reason=None,
            shares=ResourceShares(),
        )
        assert report.csv_row()[3] == ""

    def test_header_matches_row_width(self):
        report = SupervisionReport("p", "normal", 1, None, ResourceShares())
        assert len(SUPERVISION_CSV_HEADER) == len(report.csv_row())


class TestWarnOncePerRun:
    def test_three_unsupported_applies_log_one_warning(self, caplog):
        adapter = FakeHostAdapter(unsupported=("memory", "network"))
        scenario = make_scenario([cpu_spec("worker", [M] * 3)], epochs=4, budget=10)
        with caplog.at_level(logging.WARNING, logger="quell.supervisor"):
            supervise(scenario, adapter)
        assert [c.call for c in adapter.calls].count("apply_shares") == 3
        warnings = [r for r in caplog.records if r.name == "quell.supervisor"]
        assert [r.getMessage() for r in warnings] == [
            "worker: resources not limitable on this host: memory, network"
        ]


class FakeClock:
    """Monotonic time that moves only by work done and sleeps requested."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestDeadlinePacing:
    PACE = 0.1

    def run(self, monkeypatch, verdicts, epochs, budget, work):
        """Supervise one process whose every poll costs the next ``work`` time."""
        clock = FakeClock()
        monkeypatch.setattr("quell.supervisor.time", clock)
        work = iter(work)

        class BusyHost(FakeHostAdapter):
            def poll(self, handle):
                clock.now += next(work)
                return super().poll(handle)

        scenario = make_scenario([cpu_spec("worker", verdicts)], epochs=epochs, budget=budget)
        (report,) = supervise(scenario, BusyHost(), pace_seconds=self.PACE)
        return clock, report

    def test_a_slow_epoch_does_not_delay_the_later_deadlines(self, monkeypatch):
        # Epoch k + 1 starts at 1000.0 + k * 0.1. Epoch 3's work runs past
        # the starts of epochs 4 and 5, which then start at once; epoch 6
        # is back on its deadline.
        work = [0.03, 0.01, 0.25, 0.02, 0.01, 0.01]
        clock, report = self.run(monkeypatch, [B] * 6, epochs=7, budget=10, work=work)
        assert report.epochs_run == 6
        assert clock.sleeps == pytest.approx([0.07, 0.09, 0.02])
        assert clock.now == pytest.approx(1000.51)

    def test_nothing_sleeps_after_the_last_live_process(self, monkeypatch):
        clock, report = self.run(monkeypatch, [M, M], epochs=10, budget=1, work=[0.01] * 2)
        assert (report.final_state, report.epochs_run) == ("terminated", 2)
        assert clock.sleeps == pytest.approx([0.09])
