"""Simulation engine: response curves, scenario runs, and slowdown math."""

import random
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quell.actuation import (
    DEFAULT_SHARES,
    RESOURCES,
    ActuationMode,
    ActuatorPolicy,
    ResourceShares,
    actuate,
)
from quell.config import load_scenario
from quell.detectors import StochasticSource, GroundTruth, TraceSource
from quell.simulation import (
    Cliff,
    Combiner,
    EpochRecord,
    LinearSaturating,
    LOG_CSV_HEADER,
    ProcessSpec,
    ProgressModel,
    Proportional,
    Scenario,
    ScenarioError,
    ScenarioLog,
    SlowdownReport,
    baseline,
    progress_rate,
    respond,
    run_scenario,
    slowdown,
    slowdown_reports,
)
from quell.threat import (
    EXIT_BY_DETECTOR,
    AssessmentPolicy,
    LifecycleState,
    ThreatLedger,
    Verdict,
    step_epoch,
)

from reference import fold_sum, reference_progress, reference_slowdown
from test_actuation import policies, shares_within

M, B = Verdict.MALICIOUS, Verdict.BENIGN
INC = AssessmentPolicy.incremental()

CPU_MODEL = ProgressModel(base_rate=225.7, response={"cpu": Proportional()})


def cpu_scenario(verdicts, epochs, budget, base_rate=225.7, **kwargs):
    spec = ProcessSpec(
        "proc",
        ProgressModel(base_rate=base_rate, response={"cpu": Proportional()}),
        TraceSource(tuple(verdicts), start_epoch=1),
    )
    return Scenario(
        processes=(spec,),
        measurement_budget=budget,
        penalty_policy=INC,
        compensation_policy=INC,
        actuator=ActuatorPolicy(),
        epochs=epochs,
        **kwargs,
    )


class TestResponseCurves:
    def test_proportional_half_share(self):
        shares = ResourceShares(cpu=0.5)
        assert progress_rate(CPU_MODEL, shares) == 112.85

    def test_full_shares_give_base_rate(self):
        model = ProgressModel(
            base_rate=9.5,
            response={
                "cpu": Proportional(),
                "memory": Cliff(0.95, 4e-4),
                "network": LinearSaturating(0.6),
            },
        )
        assert progress_rate(model, ResourceShares()) == 9.5

    def test_cliff_collapse(self):
        model = ProgressModel(base_rate=100.0, response={"memory": Cliff(0.95, 4e-4)})
        assert progress_rate(model, ResourceShares(memory=0.936)) == 100.0 * 4e-4
        assert progress_rate(model, ResourceShares(memory=0.95)) == 100.0

    def test_linear_saturating_headroom(self):
        model = ProgressModel(base_rate=100.0, response={"network": LinearSaturating(0.5)})
        assert progress_rate(model, ResourceShares(network=0.7)) == 100.0
        assert progress_rate(model, ResourceShares(network=0.25)) == 50.0

    def test_bottleneck_combiner_takes_the_minimum(self):
        model = ProgressModel(
            base_rate=100.0,
            response={"cpu": Proportional(), "filesystem": Proportional()},
        )
        shares = ResourceShares(cpu=0.5, filesystem=0.25)
        assert progress_rate(model, shares) == 25.0

    def test_product_combiner_multiplies(self):
        model = ProgressModel(
            base_rate=100.0,
            response={"cpu": Proportional(), "filesystem": Proportional()},
            combiner=Combiner.PRODUCT,
        )
        shares = ResourceShares(cpu=0.5, filesystem=0.5)
        assert progress_rate(model, shares) == 25.0

    def test_unresponsive_resources_are_ignored(self):
        shares = ResourceShares(cpu=1.0, memory=0.95, network=0.3, filesystem=0.2)
        assert progress_rate(CPU_MODEL, shares) == 225.7

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            LinearSaturating(0.0)
        with pytest.raises(ValueError):
            Cliff(1.5, 0.1)
        with pytest.raises(ValueError):
            Cliff(0.95, 1.5)
        with pytest.raises(ValueError):
            ProgressModel(base_rate=0.0)
        with pytest.raises(ValueError):
            ProgressModel(base_rate=1.0, response={"gpu": Proportional()})


class TestScenarioValidation:
    def test_duplicate_process_ids(self):
        spec = ProcessSpec("p", CPU_MODEL, TraceSource((B,), start_epoch=1))
        with pytest.raises(ValueError):
            Scenario(
                processes=(spec, spec),
                measurement_budget=5,
                penalty_policy=INC,
                compensation_policy=INC,
                actuator=ActuatorPolicy(),
                epochs=2,
            )

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            cpu_scenario([B], epochs=0, budget=5)
        with pytest.raises(ValueError):
            cpu_scenario([B], epochs=2, budget=0)
        with pytest.raises(ValueError):
            cpu_scenario([B], epochs=2, budget=5, seed=-1)

    def test_empty_process_id(self):
        with pytest.raises(ValueError):
            ProcessSpec("", CPU_MODEL, TraceSource((B,)))

    def test_no_processes(self):
        with pytest.raises(ValueError) as excinfo:
            Scenario(
                processes=(),
                measurement_budget=5,
                penalty_policy=INC,
                compensation_policy=INC,
                actuator=ActuatorPolicy(),
                epochs=2,
            )
        assert str(excinfo.value) == "a scenario needs at least one process"

    def test_processes_are_held_in_id_order(self):
        specs = [ProcessSpec(pid, CPU_MODEL, TraceSource((B,), start_epoch=1)) for pid in "zab"]
        scenario = Scenario(
            processes=specs,
            measurement_budget=5,
            penalty_policy=INC,
            compensation_policy=INC,
            actuator=ActuatorPolicy(),
            epochs=2,
        )
        assert [spec.process_id for spec in scenario.processes] == ["a", "b", "z"]
        assert replace(scenario, epochs=1).processes == scenario.processes


class TestRunScenario:
    def test_all_malicious_matches_reference(self):
        scenario = cpu_scenario([M] * 14, epochs=15, budget=15)
        log = run_scenario(scenario)
        expected = reference_progress(225.7, ["malicious"] * 14, 15)
        assert [r.progress for r in log.for_process("proc")] == expected
        assert log.total_progress("proc") == fold_sum(expected)

    def test_every_attack_length_matches_reference(self):
        # One epoch of lead-in accrual plus k malicious epochs, for every
        # k up to well past the point the share pins at its floor.
        for k in range(1, 21):
            scenario = cpu_scenario([M] * k, epochs=k + 1, budget=k + 5)
            log = run_scenario(scenario)
            expected = reference_progress(225.7, ["malicious"] * k, k + 5)
            assert [r.progress for r in log.for_process("proc")] == expected
            assert log.total_progress("proc") == fold_sum(expected)

    def test_recovery_matches_reference(self):
        verdicts = [M] * 5 + [B] * 9
        scenario = cpu_scenario(verdicts, epochs=15, budget=15)
        log = run_scenario(scenario)
        expected = reference_progress(225.7, [v.value for v in verdicts], 15)
        assert [r.progress for r in log.for_process("proc")] == expected

    def test_recovery_share_path(self):
        verdicts = [M] * 5 + [B] * 9
        log = run_scenario(cpu_scenario(verdicts, epochs=15, budget=15))
        rounded = [round(r.cpu, 2) for r in log.for_process("proc")]
        assert rounded == [1.0, 0.9, 0.7, 0.4, 0.01, 0.01, 0.11, 0.31, 0.61, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_epoch_zero_is_unthrottled_and_verdict_free(self):
        log = run_scenario(cpu_scenario([M] * 4, epochs=5, budget=10))
        first = log.for_process("proc")[0]
        assert first.verdict == "none"
        assert first.cpu == 1.0
        assert first.progress == 225.7

    def test_benign_only_keeps_default_shares(self):
        spec = ProcessSpec(
            "calm", CPU_MODEL, StochasticSource(1.0, 0.0, GroundTruth.BENIGN, seed=4)
        )
        scenario = Scenario(
            processes=(spec,),
            measurement_budget=100,
            penalty_policy=INC,
            compensation_policy=INC,
            actuator=ActuatorPolicy(),
            epochs=50,
        )
        log = run_scenario(scenario)
        assert all(r.cpu == 1.0 for r in log.records)
        assert all(r.state == "normal" for r in log.records)

    def test_baseline_run_ignores_verdicts_and_shares(self):
        # The trace is far too short for 30 epochs, but the baseline
        # never consults it.
        scenario = cpu_scenario([M] * 4, epochs=30, budget=40).without_response()
        log = run_scenario(scenario)
        rows = log.for_process("proc")
        assert len(rows) == 30
        assert all(r.verdict == "none" for r in rows)
        assert all(r.cpu == 1.0 for r in rows)

    def test_termination_record_is_final_and_empty(self):
        # Budget 2 fills at epoch 2; epoch 3's malicious verdict kills.
        scenario = cpu_scenario([M, M, M, M], epochs=5, budget=2)
        rows = run_scenario(scenario).for_process("proc")
        assert len(rows) == 4
        last = rows[-1]
        assert last.state == "terminated"
        assert last.progress == 0.0
        assert last.cumulative == rows[-2].cumulative

    def test_terminable_benign_restores_defaults(self):
        scenario = cpu_scenario([M, M, B, B], epochs=5, budget=2)
        rows = run_scenario(scenario).for_process("proc")
        assert rows[2].state == "terminable"
        assert rows[3].cpu == 1.0
        assert rows[3].progress == 225.7

    def test_source_exhaustion_is_a_scenario_error(self):
        scenario = cpu_scenario([M] * 3, epochs=10, budget=15)
        with pytest.raises(ScenarioError, match="proc"):
            run_scenario(scenario)

    def test_merged_log_is_sorted_by_epoch_then_id(self):
        zig = ProcessSpec("zig", CPU_MODEL, TraceSource((B, B, B), start_epoch=1))
        alpha = ProcessSpec("alpha", CPU_MODEL, TraceSource((B, B, B), start_epoch=1))
        scenario = Scenario(
            processes=(zig, alpha),
            measurement_budget=10,
            penalty_policy=INC,
            compensation_policy=INC,
            actuator=ActuatorPolicy(),
            epochs=4,
        )
        log = run_scenario(scenario)
        keys = [(r.epoch, r.process_id) for r in log.records]
        assert keys == sorted(keys)
        assert log.process_ids() == ("alpha", "zig")

    def test_floor_pins_the_long_tail(self):
        scenario = cpu_scenario([M] * 29, epochs=30, budget=30)
        rows = run_scenario(scenario).for_process("proc")
        tail = rows[4:]
        assert all(r.cpu == 0.01 for r in tail)
        assert all(r.progress == 225.7 * 0.01 for r in tail)

    def test_throttling_never_helps_epoch_wise(self):
        rng = random.Random(20260819)
        for _ in range(25):
            verdicts = [rng.choice([M, B]) for _ in range(12)]
            scenario = cpu_scenario(verdicts, epochs=13, budget=rng.randint(1, 14))
            with_rows = run_scenario(scenario).for_process("proc")
            base_rows = run_scenario(scenario.without_response()).for_process("proc")
            for with_record, base_record in zip(with_rows, base_rows):
                assert with_record.progress <= base_record.progress + 1e-12


class TestScenarioLog:
    def test_csv_shape_and_formatting(self):
        log = run_scenario(cpu_scenario([M], epochs=2, budget=5))
        text = log.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == ",".join(LOG_CSV_HEADER)
        assert lines[1] == (
            "0,proc,none,0.000000,0.000000,0.000000,normal,"
            "1.000000,1.000000,1.000000,1.000000,225.700000,225.700000"
        )
        assert lines[2] == (
            "1,proc,malicious,1.000000,0.000000,1.000000,suspicious,"
            "0.900000,1.000000,1.000000,1.000000,203.130000,428.830000"
        )
        assert "\r" not in text
        assert text.endswith("\n")

    def test_write_csv_to_path(self, tmp_path):
        log = run_scenario(cpu_scenario([M], epochs=2, budget=5))
        out = tmp_path / "log.csv"
        log.write_csv(out)
        assert out.read_text() == log.to_csv_text()

    def test_byte_identical_reruns(self):
        scenario = cpu_scenario([M] * 9 + [B] * 5, epochs=15, budget=12, seed=99)
        assert run_scenario(scenario).to_csv_text() == run_scenario(scenario).to_csv_text()

    def test_unknown_process_rejected(self):
        log = run_scenario(cpu_scenario([M], epochs=2, budget=5))
        with pytest.raises(ValueError):
            log.for_process("ghost")


def make_log(progresses, process_id="p"):
    records = []
    cumulative = 0.0
    for epoch, progress in enumerate(progresses):
        cumulative += progress
        records.append(
            EpochRecord(
                epoch=epoch,
                process_id=process_id,
                verdict="none",
                penalty=0.0,
                compensation=0.0,
                threat_index=0.0,
                state="normal",
                cpu=1.0,
                memory=1.0,
                network=1.0,
                filesystem=1.0,
                progress=progress,
                cumulative=cumulative,
            )
        )
    return ScenarioLog(epochs=len(progresses), records=tuple(records))


class TestSlowdown:
    def test_identical_logs_mean_zero(self):
        log = make_log([5.0, 5.0])
        assert slowdown(log, log, "p").slowdown_pct == 0.0

    def test_fully_halted_is_one_hundred(self):
        report = slowdown(make_log([0.0, 0.0]), make_log([5.0, 5.0]), "p")
        assert report.slowdown_pct == 100.0

    def test_matches_reference_formula(self):
        report = slowdown(make_log([2.0, 1.0]), make_log([4.0, 4.0]), "p")
        assert report.slowdown_pct == reference_slowdown(3.0, 8.0)

    def test_epoch_mismatch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            slowdown(make_log([1.0]), make_log([1.0, 1.0]), "p")

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            slowdown(make_log([0.0]), make_log([0.0]), "p")

    def test_run_that_outpaces_its_baseline_is_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            slowdown(make_log([2.0, 2.0]), make_log([1.0, 1.0]), "p")
        assert str(excinfo.value) == "throttled run outpaced baseline for 'p' (-100.000000000000%)"

    def test_reports_cover_every_process(self):
        spec_a = ProcessSpec("a", CPU_MODEL, TraceSource((M, M), start_epoch=1))
        spec_b = ProcessSpec("b", CPU_MODEL, TraceSource((B, B), start_epoch=1))
        scenario = Scenario(
            processes=(spec_a, spec_b),
            measurement_budget=10,
            penalty_policy=INC,
            compensation_policy=INC,
            actuator=ActuatorPolicy(),
            epochs=3,
        )
        reports = slowdown_reports(run_scenario(scenario), run_scenario(scenario.without_response()))
        assert [r.process_id for r in reports] == ["a", "b"]
        assert reports[0].slowdown_pct > 0.0
        assert reports[1].slowdown_pct == 0.0


def random_fleet(rng, processes, epochs, budget):
    """Trace-driven processes with random verdicts and curves.

    Ids are drawn so that string order differs from numeric order, and
    a short budget lets some processes terminate before the last epoch.
    """
    curves = (
        {"cpu": Proportional()},
        {"network": LinearSaturating(rng.uniform(0.2, 1.0))},
        {"memory": Cliff(0.95, 4e-4), "cpu": Proportional()},
    )
    ids = rng.sample(range(10 * processes), processes)
    specs = []
    for number in ids:
        malicious_share = rng.random()
        verdicts = tuple(M if rng.random() < malicious_share else B for _ in range(epochs))
        model = ProgressModel(
            base_rate=rng.uniform(1.0, 500.0),
            response=rng.choice(curves),
            combiner=rng.choice(tuple(Combiner)),
        )
        specs.append(ProcessSpec(f"p{number}", model, TraceSource(verdicts, start_epoch=1)))
    return Scenario(
        processes=tuple(specs),
        measurement_budget=budget,
        penalty_policy=INC,
        compensation_policy=INC,
        actuator=ActuatorPolicy(targets=("cpu", "memory", "network")),
        epochs=epochs,
    )


def naive_rows(log, process_id):
    return tuple(r for r in log.records if r.process_id == process_id)


class TestLogIndex:
    """The per-process index agrees with a plain scan of ``records``."""

    def check_against_scan(self, log):
        keys = [(r.epoch, r.process_id) for r in log.records]
        assert keys == sorted(set(keys))
        ids = tuple(sorted({r.process_id for r in log.records}))
        assert log.process_ids() == ids
        for process_id in ids:
            rows = naive_rows(log, process_id)
            assert log.for_process(process_id) == rows
            assert log.total_progress(process_id) == rows[-1].cumulative
        with pytest.raises(ValueError, match="no records for process 'ghost'"):
            log.for_process("ghost")
        with pytest.raises(ValueError, match="no records for process 'ghost'"):
            log.total_progress("ghost")

    def test_random_fleets_match_a_scan(self):
        rng = random.Random(20261018)
        cut_short = 0
        for _ in range(40):
            epochs = rng.randint(2, 14)
            scenario = random_fleet(rng, rng.randint(1, 12), epochs, rng.randint(1, epochs + 2))
            with_log = run_scenario(scenario)
            base_log = run_scenario(scenario.without_response())
            # A log built by hand from the same records indexes alike.
            rebuilt_with = ScenarioLog(with_log.epochs, with_log.records)
            rebuilt_base = ScenarioLog(base_log.epochs, base_log.records)
            for log in (with_log, base_log, rebuilt_with, rebuilt_base):
                self.check_against_scan(log)
            expected = []
            for process_id in sorted(spec.process_id for spec in scenario.processes):
                progress_with = naive_rows(with_log, process_id)[-1].cumulative
                progress_without = naive_rows(base_log, process_id)[-1].cumulative
                value = (1.0 - progress_with / progress_without) * 100.0
                expected.append(
                    SlowdownReport(
                        process_id, progress_with, progress_without, min(100.0, max(0.0, value))
                    )
                )
            assert slowdown_reports(with_log, base_log) == tuple(expected)
            assert slowdown_reports(rebuilt_with, rebuilt_base) == tuple(expected)
            cut_short += sum(
                len(naive_rows(with_log, spec.process_id)) < epochs for spec in scenario.processes
            )
        assert cut_short > 0

    def test_log_equality_ignores_the_index(self):
        log = run_scenario(cpu_scenario([M, M, B], epochs=4, budget=2))
        rebuilt = ScenarioLog(log.epochs, log.records)
        assert log.process_ids() == ("proc",)
        assert rebuilt == log


class CountingRecords(tuple):
    """A records tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestReportIsLinear:
    def report_iterations(self, processes):
        scenario = random_fleet(random.Random(processes), processes, epochs=6, budget=3)
        with_log = ScenarioLog(scenario.epochs, CountingRecords(run_scenario(scenario).records))
        base_log = ScenarioLog(
            scenario.epochs, CountingRecords(run_scenario(scenario.without_response()).records)
        )
        assert len(slowdown_reports(with_log, base_log)) == processes
        return with_log.records.iterations, base_log.records.iterations

    def test_each_log_is_scanned_a_bounded_number_of_times(self):
        small = self.report_iterations(10)
        large = self.report_iterations(200)
        assert small == large
        assert max(large) <= 1


class TestProgressCache:
    """Progress is rated from the shares the record shows, epoch by epoch."""

    TRACES = {
        # Throttled through the budget, then benign verdicts restore the
        # default shares while the ledger stays terminable.
        "restored": [M, M, B, M] + [B] * 7,
        # Throttled, restored once, then terminated.
        "terminated": [M, B, M, M, B, M],
        # Benign throughout: actuation keeps returning the same shares.
        "calm": [B] * 11,
        # Recovers below the budget, so shares rise again before it fills.
        "recovered": [M, B, B, B, B, B, M, B, B, B, B],
    }

    @pytest.mark.parametrize("mode", list(ActuationMode))
    @pytest.mark.parametrize(
        "response",
        [
            {"cpu": Proportional()},
            {"network": LinearSaturating(0.6)},
            {"memory": Cliff(0.95, 4e-4)},
            {"cpu": Proportional(), "memory": Cliff(0.95, 4e-4), "network": LinearSaturating(0.6)},
        ],
        ids=["proportional", "saturating", "cliff", "all"],
    )
    @pytest.mark.parametrize("combiner", list(Combiner))
    def test_progress_matches_the_recorded_shares(self, mode, response, combiner):
        model = ProgressModel(base_rate=225.7, response=response, combiner=combiner)
        specs = tuple(
            ProcessSpec(name, model, TraceSource(tuple(verdicts), start_epoch=1))
            for name, verdicts in self.TRACES.items()
        )
        scenario = Scenario(
            processes=specs,
            measurement_budget=4,
            penalty_policy=INC,
            compensation_policy=INC,
            actuator=ActuatorPolicy(mode=mode, targets=("cpu", "memory", "network")),
            epochs=12,
        )
        log = run_scenario(scenario)
        for record in log.records:
            if record.state == "terminated":
                assert record.progress == 0.0
                continue
            shares = ResourceShares(
                cpu=record.cpu,
                memory=record.memory,
                network=record.network,
                filesystem=record.filesystem,
            )
            assert record.progress == progress_rate(model, shares)
        for process_id in self.TRACES:
            rows = log.for_process(process_id)
            assert [r.cumulative for r in rows] == [
                fold_sum([r.progress for r in rows[: n + 1]]) for n in range(len(rows))
            ]
        restored = log.for_process("restored")
        assert min(r.cpu for r in restored) < 1.0
        assert restored[-1].state == "terminable" and restored[-1].cpu == 1.0
        assert log.for_process("terminated")[-1].state == "terminated"


class TestEpochRecord:
    def test_is_a_plain_tuple_of_its_fields(self):
        record = run_scenario(cpu_scenario([M], epochs=2, budget=5)).records[1]
        assert tuple(record) == (
            1, "proc", "malicious", 1.0, 0.0, 1.0, "suspicious", 0.9, 1.0, 1.0, 1.0, 203.13, 428.83
        )
        assert record == tuple(record)
        assert record._fields == (
            "epoch", "process_id", "verdict", "penalty", "compensation", "threat_index", "state",
            "cpu", "memory", "network", "filesystem", "progress", "cumulative",
        )


TERMINABLE = ThreatLedger(
    penalty=3.0, threat_index=3.0, state=LifecycleState.TERMINABLE, epoch=3, measurements=3
)


class TestRespond:
    def test_malicious_at_terminable_terminates_and_keeps_shares(self):
        shares = ResourceShares(cpu=0.7)
        ledger, out = respond(TERMINABLE, shares, M, cpu_scenario([M], 5, 3))
        assert ledger.state is LifecycleState.TERMINATED
        assert ledger.exit_reason == EXIT_BY_DETECTOR
        assert ledger.epoch == 4
        assert out is shares

    def test_benign_at_terminable_restores_defaults(self):
        ledger, out = respond(TERMINABLE, ResourceShares(cpu=0.7), B, cpu_scenario([M], 5, 3))
        assert ledger.state is LifecycleState.TERMINABLE
        assert (ledger.threat_index, ledger.measurements, ledger.epoch) == (3.0, 3, 4)
        assert out is DEFAULT_SHARES

    @pytest.mark.parametrize("mode", list(ActuationMode))
    def test_live_ledger_is_stepped_then_actuated(self, mode):
        rng = random.Random(f"respond-{mode.value}")
        scenario = replace(
            cpu_scenario([M], 40, 30), actuator=ActuatorPolicy(throttle_step=0.05, mode=mode)
        )
        ledger, shares = ThreatLedger(), DEFAULT_SHARES
        for _ in range(29):
            verdict = rng.choice((M, B))
            expected_ledger, delta = step_epoch(ledger, verdict, INC, INC, 30, 1)
            expected_shares = actuate(shares, delta, scenario.actuator)
            ledger, shares = respond(ledger, shares, verdict, scenario)
            assert ledger == expected_ledger
            assert shares == expected_shares
        assert ledger.state is not LifecycleState.TERMINABLE

    def test_last_measurement_makes_the_ledger_terminable(self):
        scenario = cpu_scenario([M], 5, 2)
        ledger, shares = respond(ThreatLedger(), DEFAULT_SHARES, M, scenario)
        assert ledger.state is LifecycleState.SUSPICIOUS
        ledger, shares = respond(ledger, shares, M, scenario)
        assert ledger.state is LifecycleState.TERMINABLE
        assert ledger.measurements == 2
        assert shares.cpu < 1.0

    @given(data=st.data())
    def test_shares_come_back_as_given_exactly_when_none_moved(self, data):
        actuator = data.draw(policies())
        shares = data.draw(st.one_of(st.builds(ResourceShares), shares_within(actuator)))
        score = st.floats(0.0, 100.0)
        state = data.draw(
            st.sampled_from(
                [LifecycleState.NORMAL, LifecycleState.SUSPICIOUS, LifecycleState.TERMINABLE]
            )
        )
        measurements = data.draw(st.integers(0, 20))
        ledger = ThreatLedger(
            data.draw(score), data.draw(score), data.draw(score), state, measurements, measurements
        )
        growth = st.sampled_from(
            [INC, AssessmentPolicy.linear(1.5, 2.0), AssessmentPolicy.exponential()]
        )
        scenario = replace(
            cpu_scenario([M], 5, measurements + data.draw(st.integers(1, 5))),
            penalty_policy=data.draw(growth),
            compensation_policy=data.draw(growth),
            actuator=actuator,
        )
        _, out = respond(ledger, shares, data.draw(st.sampled_from([M, B])), scenario)
        assert (out is shares) == (out == shares)

    def test_benign_resolve_keeps_shares_already_at_the_defaults(self):
        shares = ResourceShares()
        ledger, out = respond(TERMINABLE, shares, B, cpu_scenario([M], 5, 3))
        assert ledger.state is LifecycleState.TERMINABLE
        assert out is shares

    def test_terminated_ledger_is_rejected(self):
        scenario = cpu_scenario([M], 5, 3)
        ledger, shares = respond(TERMINABLE, DEFAULT_SHARES, M, scenario)
        with pytest.raises(ValueError, match="cannot step"):
            respond(ledger, shares, B, scenario)


CONFIG_FILES = sorted((Path(__file__).parent.parent / "configs").glob("*.ini"))


def random_curve(rng):
    kind = rng.choice((Proportional, LinearSaturating, Cliff))
    if kind is Proportional:
        return Proportional()
    if kind is LinearSaturating:
        return LinearSaturating(rng.uniform(0.01, 1.0))
    return Cliff(rng.uniform(0.01, 1.0), rng.uniform(0.0, 1.0))


def random_unthrottled_scenario(rng):
    """Processes with random curves and rates; the sources are never consulted."""
    specs = []
    for number in range(rng.randint(1, 6)):
        resources = rng.sample(RESOURCES, rng.randint(0, len(RESOURCES)))
        model = ProgressModel(
            base_rate=rng.choice((rng.uniform(1e-3, 10.0), rng.uniform(10.0, 1e4))),
            response={resource: random_curve(rng) for resource in resources},
            combiner=rng.choice(tuple(Combiner)),
        )
        source = StochasticSource(rng.random(), rng.random(), GroundTruth.BENIGN, number)
        specs.append(ProcessSpec(f"p{number}", model, source))
    return Scenario(
        processes=tuple(specs),
        measurement_budget=rng.randint(1, 50),
        penalty_policy=INC,
        compensation_policy=INC,
        actuator=ActuatorPolicy(),
        epochs=rng.randint(1, 200),
    )


class TestBaseline:
    """``baseline`` equals the run without response, bit for bit."""

    def check(self, scenario):
        closed = baseline(scenario)
        base_log = run_scenario(scenario.without_response())
        assert closed.epochs == base_log.epochs == scenario.epochs
        for spec in scenario.processes:
            assert closed.total_progress(spec.process_id) == base_log.total_progress(
                spec.process_id
            )
        messages = []
        for without in (closed, base_log):
            with pytest.raises(ValueError) as excinfo:
                without.total_progress("ghost")
            messages.append(str(excinfo.value))
        assert messages == ["no records for process 'ghost'"] * 2

    def test_random_scenarios(self):
        rng = random.Random(20261018)
        for _ in range(150):
            self.check(random_unthrottled_scenario(rng))

    @pytest.mark.parametrize("ini", CONFIG_FILES, ids=lambda path: path.stem)
    def test_bundled_configs(self, ini):
        scenario = load_scenario(ini)
        self.check(scenario)
        with_log = run_scenario(scenario)
        assert slowdown_reports(with_log, baseline(scenario)) == slowdown_reports(
            with_log, run_scenario(scenario.without_response())
        )

    def test_epoch_mismatch_rejected(self):
        scenario = cpu_scenario([M], epochs=2, budget=5)
        with pytest.raises(ValueError, match="mismatched epoch counts"):
            slowdown(run_scenario(scenario), baseline(replace(scenario, epochs=3)), "proc")


class TestMergeOrder:
    """The log is each process's own run, sorted by epoch, then id."""

    IDS = ("9", "10", "1", "100", "b", "B", "a b", "a")

    def scenario(self, rng, order):
        specs = []
        for process_id in order:
            # Malicious runs of different lengths end at different epochs;
            # a benign run outlives the scenario.
            attack = rng.randint(0, 8)
            verdicts = (M,) * attack + (B,) * (12 - attack) if rng.random() < 0.7 else (B,) * 12
            model = ProgressModel(
                base_rate=rng.uniform(1.0, 100.0), response={"cpu": Proportional()}
            )
            specs.append(ProcessSpec(process_id, model, TraceSource(verdicts, start_epoch=1)))
        return Scenario(
            processes=tuple(specs),
            measurement_budget=rng.randint(1, 4),
            penalty_policy=INC,
            compensation_policy=INC,
            actuator=ActuatorPolicy(),
            epochs=12,
        )

    def check(self, scenario):
        runs = [
            run_scenario(replace(scenario, processes=(spec,))).records
            for spec in scenario.processes
        ]
        expected = sorted(chain(*runs), key=lambda r: (r.epoch, r.process_id))
        assert run_scenario(scenario).records == tuple(expected)
        return {len(run) for run in runs}

    def test_reversed_and_shuffled_ids(self):
        rng = random.Random(7)
        lengths = set()
        for _ in range(30):
            order = list(self.IDS)
            rng.shuffle(order)
            for ids in (order, sorted(order, reverse=True)):
                lengths |= self.check(self.scenario(rng, ids[: rng.randint(1, len(ids))]))
        # Terminated at several epochs, and some outlive the scenario.
        assert len(lengths) > 3 and 12 in lengths
