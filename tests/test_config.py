"""Scenario INI loading: happy paths, overrides, and every rejection."""

import pytest

from quell.actuation import ActuationMode
from quell.config import ConfigError, load_scenario, parse_response_curve
from quell.detectors import (
    GroundTruth,
    StochasticSource,
    ThresholdSource,
    TraceSource,
    derive_seed,
)
from quell.simulation import Cliff, Combiner, LinearSaturating, Proportional, ScenarioError
from quell.threat import GrowthFamily, Verdict

MINIMAL = """\
[scenario]
epochs = 5
measurement_budget = 10

[process.worker]
base_rate = 3.5
response_cpu = proportional
detector = flagger

[detector.flagger]
kind = stochastic
tpr = 1.0
fpr = 0.0
ground_truth = attack
"""


def write_ini(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestWorkedConfigs:
    def test_attack_config_round_trips_every_field(self, configs_dir):
        scenario = load_scenario(configs_dir / "worked_attack.ini")
        assert scenario.epochs == 15
        assert scenario.measurement_budget == 15
        assert scenario.epoch_duration_ms == 100.0
        assert scenario.seed == 11
        assert scenario.measurements_per_epoch == 1
        assert scenario.penalty_policy.family is GrowthFamily.INCREMENTAL
        assert scenario.compensation_policy.family is GrowthFamily.INCREMENTAL
        actuator = scenario.actuator
        assert actuator.mode is ActuationMode.ADDITIVE
        assert actuator.throttle_step == 0.1
        assert actuator.targets == ("cpu",)
        assert actuator.floor_cpu == 0.01
        (spec,) = scenario.processes
        assert spec.process_id == "attack"
        assert spec.model.base_rate == 225.7
        assert spec.model.unit_label == "KB encrypted"
        assert spec.model.combiner is Combiner.BOTTLENECK_MIN
        assert spec.model.response == {"cpu": Proportional()}
        source = spec.source
        assert isinstance(source, StochasticSource)
        assert source.true_positive_rate == 1.0
        assert source.false_positive_rate == 0.0
        assert source.ground_truth is GroundTruth.ATTACK
        assert source.seed == 7

    def test_recovery_config_loads_its_trace(self, configs_dir):
        scenario = load_scenario(configs_dir / "recovery.ini")
        (spec,) = scenario.processes
        assert spec.process_id == "worker"
        source = spec.source
        assert isinstance(source, TraceSource)
        assert source.start_epoch == 1
        assert len(source.verdicts) == 14
        assert source.verdicts[:5] == (Verdict.MALICIOUS,) * 5
        assert source.verdicts[5:] == (Verdict.BENIGN,) * 9

    def test_benign_config_loads(self, configs_dir):
        scenario = load_scenario(configs_dir / "benign.ini")
        assert scenario.epochs == 50
        (spec,) = scenario.processes
        assert spec.process_id == "builder"
        assert spec.source.ground_truth is GroundTruth.BENIGN

    def test_supervised_config_loads(self, configs_dir):
        scenario = load_scenario(configs_dir / "supervised_attack.ini")
        assert scenario.epochs == 17
        assert scenario.measurement_budget == 15
        (spec,) = scenario.processes
        assert isinstance(spec.source, TraceSource)


class TestParseResponseCurve:
    def test_kinds(self):
        assert parse_response_curve("proportional") == Proportional()
        assert parse_response_curve("linear_saturating:0.6") == LinearSaturating(0.6)
        assert parse_response_curve(" cliff : 0.95 : 0.0004 ") == Cliff(0.95, 0.0004)

    @pytest.mark.parametrize(
        "spec",
        [
            "banana",
            "cliff:0.95",
            "linear_saturating",
            "linear_saturating:abc",
            "cliff:2.0:0.5",
            "proportional:1",
        ],
    )
    def test_rejects_malformed_specs(self, spec):
        with pytest.raises(ConfigError):
            parse_response_curve(spec)


class TestDefaultsAndFamilies:
    def test_minimal_config_gets_documented_defaults(self, tmp_path):
        scenario = load_scenario(write_ini(tmp_path, MINIMAL))
        assert scenario.epoch_duration_ms == 100.0
        assert scenario.seed == 0
        assert scenario.measurements_per_epoch == 1
        assert scenario.actuator.mode is ActuationMode.ADDITIVE
        assert scenario.actuator.throttle_step == 0.1
        assert scenario.penalty_policy.family is GrowthFamily.INCREMENTAL

    def test_linear_and_exponential_families(self, tmp_path):
        text = MINIMAL + """
[policies]
penalty_family = linear
penalty_a = 2
penalty_b = 3
compensation_family = exponential
"""
        scenario = load_scenario(write_ini(tmp_path, text))
        assert scenario.penalty_policy.family is GrowthFamily.LINEAR
        assert scenario.penalty_policy.linear_a == 2.0
        assert scenario.penalty_policy.linear_b == 3.0
        assert scenario.compensation_policy.family is GrowthFamily.EXPONENTIAL

    def test_multiplicative_actuator_with_custom_floors(self, tmp_path):
        text = MINIMAL + """
[actuator]
mode = multiplicative
throttle_step = 0.05
targets = cpu, network
floor_network = 0.000001
"""
        scenario = load_scenario(write_ini(tmp_path, text))
        assert scenario.actuator.mode is ActuationMode.MULTIPLICATIVE
        assert scenario.actuator.throttle_step == 0.05
        assert scenario.actuator.targets == ("cpu", "network")
        assert scenario.actuator.floor_network == 1e-6

    def test_processes_sorted_by_id(self, tmp_path):
        text = """\
[scenario]
epochs = 3
measurement_budget = 5

[process.zig]
base_rate = 1.0
detector = flagger

[process.alpha]
base_rate = 1.0
detector = flagger

[detector.flagger]
kind = stochastic
tpr = 1.0
fpr = 0.0
ground_truth = benign
"""
        scenario = load_scenario(write_ini(tmp_path, text))
        assert [s.process_id for s in scenario.processes] == ["alpha", "zig"]


class TestDerivedSeeds:
    def test_detector_without_seed_derives_from_scenario_seed(self, tmp_path):
        text = MINIMAL.replace("measurement_budget = 10", "measurement_budget = 10\nseed = 42")
        scenario = load_scenario(write_ini(tmp_path, text))
        assert scenario.processes[0].source.seed == derive_seed(42, "worker")

    def test_seed_override_feeds_derivation(self, tmp_path):
        path = write_ini(tmp_path, MINIMAL)
        scenario = load_scenario(path, seed_override=987)
        assert scenario.seed == 987
        assert scenario.processes[0].source.seed == derive_seed(987, "worker")

    def test_explicit_detector_seed_survives_override(self, configs_dir):
        scenario = load_scenario(configs_dir / "worked_attack.ini", seed_override=999)
        assert scenario.seed == 999
        assert scenario.processes[0].source.seed == 7


class TestTraceOverride:
    def test_replaces_the_configured_detector(self, configs_dir):
        scenario = load_scenario(
            configs_dir / "worked_attack.ini",
            trace_override=configs_dir / "attack_trace.csv",
        )
        (spec,) = scenario.processes
        assert isinstance(spec.source, TraceSource)
        assert len(spec.source.verdicts) == 16

    def test_missing_process_in_trace(self, configs_dir):
        with pytest.raises(ScenarioError, match="worker"):
            load_scenario(
                configs_dir / "recovery.ini",
                trace_override=configs_dir / "attack_trace.csv",
            )

    def test_short_trace_coverage(self, tmp_path, configs_dir):
        trace = tmp_path / "short.csv"
        rows = ["epoch,process,verdict"] + [f"{e},worker,benign" for e in range(1, 6)]
        trace.write_text("\n".join(rows) + "\n")
        with pytest.raises(ScenarioError, match="covers epochs"):
            load_scenario(configs_dir / "recovery.ini", trace_override=trace)

    def test_malformed_override_trace(self, tmp_path, configs_dir):
        trace = tmp_path / "bad.csv"
        trace.write_text("wrong,header,here\n1,worker,benign\n")
        with pytest.raises(ConfigError):
            load_scenario(configs_dir / "recovery.ini", trace_override=trace)


class TestThresholdDetector:
    def test_threshold_detector_parses_stream(self, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text(
            "epoch,value\n" + "\n".join(f"{e},{v}" for e, v in enumerate([1, 2, 9, 9, 1])) + "\n"
        )
        text = """\
[scenario]
epochs = 4
measurement_budget = 10

[process.worker]
base_rate = 2.0
detector = watcher

[detector.watcher]
kind = threshold
window = 3
cutoff = 5.0
stream = stream.csv
"""
        scenario = load_scenario(write_ini(tmp_path, text))
        source = scenario.processes[0].source
        assert isinstance(source, ThresholdSource)
        assert source.window_size == 3
        assert source.cutoff == 5.0
        assert source.values == (1.0, 2.0, 9.0, 9.0, 1.0)


class TestCoverage:
    """Traces and measurement streams must cover every epoch the run consumes."""

    def test_short_detector_trace_is_rejected(self, short_trace_ini):
        with pytest.raises(ScenarioError, match=r"trace .* covers epochs \[1, 8\)"):
            load_scenario(short_trace_ini)

    @pytest.mark.parametrize("values, ok", [(4, False), (5, True)])
    def test_threshold_stream_needs_a_value_per_epoch(self, tmp_path, values, ok):
        stream = tmp_path / "stream.csv"
        stream.write_text("epoch,value\n" + "".join(f"{e},0.5\n" for e in range(values)))
        ini = write_ini(
            tmp_path,
            MINIMAL.split("[detector.flagger]")[0]
            + "[detector.flagger]\nkind = threshold\nwindow = 2\ncutoff = 0.7\nstream = stream.csv\n",
        )
        if ok:
            assert len(load_scenario(ini).processes[0].source.values) == 5
        else:
            with pytest.raises(ScenarioError, match=r"stream .* covers epochs \[0, 4\)"):
                load_scenario(ini)


class TestRejections:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "absent.ini")

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda t: t.replace("[scenario]\n", "[run]\n"), "missing \\[scenario\\]"),
            (lambda t: t.replace("epochs = 5\n", ""), "epochs"),
            (lambda t: t.replace("measurement_budget = 10\n", ""), "measurement_budget"),
            (lambda t: t.replace("epochs = 5", "epochs = soon"), "not a valid int"),
            (lambda t: t.replace("base_rate = 3.5\n", ""), "base_rate"),
            (lambda t: t.replace("detector = flagger", "detector = ghost"), "missing section"),
            (lambda t: t.replace("kind = stochastic", "kind = oracle"), "kind must be"),
            (lambda t: t.replace("ground_truth = attack", "ground_truth = unsure"), "ground_truth"),
            (lambda t: t.replace("tpr = 1.0\n", ""), "tpr"),
            (lambda t: t.replace("tpr = 1.0", "tpr = 1.7"), "true_positive_rate"),
            (lambda t: t.replace("epochs = 5", "epochs = 0"), "epochs"),
        ],
    )
    def test_malformed_scenarios(self, tmp_path, mutate, message):
        path = write_ini(tmp_path, mutate(MINIMAL))
        with pytest.raises(ConfigError, match=message):
            load_scenario(path)

    def test_no_process_sections(self, tmp_path):
        text = "[scenario]\nepochs = 5\nmeasurement_budget = 10\n"
        with pytest.raises(ConfigError, match="no \\[process"):
            load_scenario(write_ini(tmp_path, text))

    def test_bad_family(self, tmp_path):
        text = MINIMAL + "\n[policies]\npenalty_family = quadratic\n"
        with pytest.raises(ConfigError, match="penalty_family"):
            load_scenario(write_ini(tmp_path, text))

    @pytest.mark.parametrize("section", ["policies", "scenario"])
    def test_family_error_names_the_section_read(self, tmp_path, section):
        policy = "penalty_family = quadratic\n"
        if section == "scenario":
            text = MINIMAL.replace("[scenario]\n", "[scenario]\n" + policy)
        else:
            text = MINIMAL + "\n[policies]\n" + policy
        with pytest.raises(ConfigError) as excinfo:
            load_scenario(write_ini(tmp_path, text))
        assert str(excinfo.value) == (
            f"[{section}] penalty_family must be incremental, linear, or exponential, "
            "got 'quadratic'"
        )

    def test_linear_policy_error_names_the_scenario_section(self, tmp_path):
        policy = "compensation_family = linear\ncompensation_a = -1\n"
        text = MINIMAL.replace("[scenario]\n", "[scenario]\n" + policy)
        with pytest.raises(ConfigError, match=r"^\[scenario\] compensation: "):
            load_scenario(write_ini(tmp_path, text))

    def test_bad_actuator_mode(self, tmp_path):
        text = MINIMAL + "\n[actuator]\nmode = subtractive\n"
        with pytest.raises(ConfigError, match="mode must be"):
            load_scenario(write_ini(tmp_path, text))

    def test_bad_actuator_target(self, tmp_path):
        text = MINIMAL + "\n[actuator]\ntargets = cpu, gpu\n"
        with pytest.raises(ConfigError):
            load_scenario(write_ini(tmp_path, text))

    def test_bad_combiner(self, tmp_path):
        text = MINIMAL.replace(
            "base_rate = 3.5", "base_rate = 3.5\ncombiner = average"
        )
        with pytest.raises(ConfigError, match="combiner"):
            load_scenario(write_ini(tmp_path, text))

    def test_bad_response_curve_in_config(self, tmp_path):
        text = MINIMAL.replace("response_cpu = proportional", "response_cpu = stepwise")
        with pytest.raises(ConfigError, match="response curve"):
            load_scenario(write_ini(tmp_path, text))

    def test_missing_trace_file(self, tmp_path):
        text = MINIMAL.replace(
            "kind = stochastic\ntpr = 1.0\nfpr = 0.0\nground_truth = attack\n",
            "kind = trace\nfile = nowhere.csv\n",
        )
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(write_ini(tmp_path, text))

    def test_trace_detector_missing_this_process(self, tmp_path, configs_dir):
        text = MINIMAL.replace(
            "kind = stochastic\ntpr = 1.0\nfpr = 0.0\nground_truth = attack\n",
            f"kind = trace\nfile = {configs_dir / 'attack_trace.csv'}\n",
        )
        with pytest.raises(ConfigError, match="no rows for process 'worker'"):
            load_scenario(write_ini(tmp_path, text))
