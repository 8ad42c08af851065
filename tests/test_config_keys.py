"""Scenario keys: near misses are errors, unrelated keys are not, and README names them all."""

import difflib
import re
from pathlib import Path

import pytest

from quell import config
from quell.actuation import RESOURCES
from quell.cli import EXIT_CONFIG, main
from quell.config import _TABLE, ConfigError, load_scenario

README = Path(__file__).parent.parent / "README.md"


def worked_attack(configs_dir):
    return (configs_dir / "worked_attack.ini").read_text(encoding="utf-8")


def after_header(text, section, line):
    """``text`` with ``line`` added as the first line of ``[section]``."""
    header = f"[{section}]\n"
    assert header in text
    return text.replace(header, header + line + "\n", 1)


def write(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text, encoding="utf-8")
    return path


NEAR_MISSES = [
    (
        lambda t: t.replace("response_cpu = proportional", "respons_cpu = proportional"),
        "[process.attack] unknown key 'respons_cpu'; did you mean 'response_cpu'?",
    ),
    (
        lambda t: t.replace("throttle_step = 0.1", "throtle_step = 0.5"),
        "[actuator] unknown key 'throtle_step'; did you mean 'throttle_step'?",
    ),
    (
        lambda t: after_header(t, "actuator", "floorcpu = 0.5"),
        "[actuator] unknown key 'floorcpu'; did you mean 'floor_cpu'?",
    ),
    (
        lambda t: after_header(t, "scenario", "measurment_budget = 4"),
        "[scenario] unknown key 'measurment_budget'; did you mean 'measurement_budget'?",
    ),
    (
        lambda t: after_header(t, "scenario", "penalty_famly = linear"),
        "[scenario] unknown key 'penalty_famly'; did you mean 'penalty_family'?",
    ),
    (
        lambda t: after_header(t, "policies", "compensation_family_ = linear"),
        "[policies] unknown key 'compensation_family_'; did you mean 'compensation_family'?",
    ),
    (
        lambda t: after_header(t, "detector.always_flagged", "tprr = 0.5"),
        "[detector.always_flagged] unknown key 'tprr'; did you mean 'tpr'?",
    ),
    (
        lambda t: after_header(t, "detector.always_flagged", "window = 3"),
        "[detector.always_flagged] key 'window' belongs to kind = threshold, not stochastic; "
        "did you mean kind = threshold?",
    ),
    (
        lambda t: after_header(t, "detector.always_flagged", "file = attack_trace.csv"),
        "[detector.always_flagged] key 'file' belongs to kind = trace, not stochastic; "
        "did you mean kind = trace?",
    ),
    (
        lambda t: t.replace("[policies]", "[policys]"),
        "{path}: unknown section [policys]; did you mean [policies]?",
    ),
    (
        lambda t: t.replace("[actuator]", "[Actuator]"),
        "{path}: unknown section [Actuator]; did you mean [actuator]?",
    ),
    (
        lambda t: t + "\n[proces.second]\nbase_rate = 1.0\ndetector = always_flagged\n",
        "{path}: unknown section [proces.second]; did you mean [process.<id>]?",
    ),
    (
        lambda t: t + "\n[process]\nbase_rate = 1.0\n",
        "{path}: unknown section [process]; did you mean [process.<id>]?",
    ),
    (
        lambda t: t + "\n[detectors.extra]\nkind = trace\n",
        "{path}: unknown section [detectors.extra]; did you mean [detector.<name>]?",
    ),
]


@pytest.mark.parametrize("mutate, message", NEAR_MISSES)
def test_near_miss_exits_2_naming_section_and_key(tmp_path, configs_dir, capsys, mutate, message):
    path = write(tmp_path, mutate(worked_attack(configs_dir)))
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == "error: " + message.format(path=path) + "\n"
    assert not out.exists()


def test_misspelled_response_no_longer_makes_a_process_immune(tmp_path, configs_dir):
    text = worked_attack(configs_dir).replace("response_cpu =", "respons_cpu =")
    with pytest.raises(ConfigError, match="did you mean 'response_cpu'"):
        load_scenario(write(tmp_path, text))


UNRELATED = ["note", "rate", "owner", "base", "comment", "description"]
SECTIONS = ["scenario", "policies", "actuator", "process.attack", "detector.always_flagged"]


@pytest.mark.parametrize("section", SECTIONS)
def test_unrelated_keys_are_left_alone(tmp_path, configs_dir, section):
    text = worked_attack(configs_dir)
    expected = load_scenario(write(tmp_path, text))
    for key in UNRELATED:
        text = after_header(text, section, f"{key} = 100% anything")
    assert load_scenario(write(tmp_path, text)) == expected


@pytest.mark.parametrize("name", ["run", "notes", "meta.process", "proc.a", "debug.b"])
def test_unrelated_sections_are_left_alone(tmp_path, configs_dir, name):
    text = worked_attack(configs_dir)
    expected = load_scenario(write(tmp_path, text))
    assert load_scenario(write(tmp_path, text + f"\n[{name}]\nthrotle_step = 1\n")) == expected


@pytest.mark.parametrize("line", ["unit = KB encrypted", "unit = 100%"])
@pytest.mark.parametrize(
    "name, section", [("worked_attack.ini", "process.attack"), ("benign.ini", "process.builder")]
)
def test_a_unit_key_is_ignored(tmp_path, configs_dir, name, section, line):
    # Older scenario files set ``unit``; it is no key quell reads nor a near miss of one.
    text = after_header((configs_dir / name).read_text(encoding="utf-8"), section, line)
    assert load_scenario(write(tmp_path, text)) == load_scenario(configs_dir / name)


def test_an_ignored_key_in_every_process_is_looked_up_once(tmp_path, monkeypatch):
    looked_up = []
    get_close_matches = difflib.get_close_matches

    def counted(word, *args, **kwargs):
        looked_up.append(word)
        return get_close_matches(word, *args, **kwargs)

    monkeypatch.setattr(difflib, "get_close_matches", counted)
    config._near_miss.cache_clear()
    text = "[scenario]\nepochs = 5\nmeasurement_budget = 10\n"
    for index in range(20):
        text += f"\n[process.p{index}]\nbase_rate = 1.0\nnote = x\ndetector = d\n"
    text += "\n[detector.d]\nkind = stochastic\ntpr = 1.0\nfpr = 0.0\nground_truth = attack\n"
    assert len(load_scenario(write(tmp_path, text)).processes) == 20
    assert looked_up == ["note"]


def test_a_default_key_is_exempt_everywhere(tmp_path, configs_dir):
    text = worked_attack(configs_dir)
    expected = load_scenario(write(tmp_path, text))
    text = "[DEFAULT]\nthrotle_step = 0.5\nwindow = 3\ntprr = 1\n\n" + text
    assert load_scenario(write(tmp_path, text)) == expected


STRAY_POLICY_KEYS = [
    (
        lambda t: after_header(
            t, "scenario", "penalty_family = linear\npenalty_a = 2\npenalty_b = 5"
        ),
        "penalty_family",
    ),
    (lambda t: after_header(t, "scenario", "compensation_b = 1"), "compensation_b"),
    # A [scenario] value that overrides [DEFAULT]'s is as ignored as any other.
    (
        lambda t: after_header("[DEFAULT]\npenalty_a = 2\n\n" + t, "scenario", "penalty_a = 3"),
        "penalty_a",
    ),
]


@pytest.mark.parametrize("mutate, key", STRAY_POLICY_KEYS)
def test_a_policy_key_in_scenario_exits_2_when_policies_exists(
    tmp_path, configs_dir, capsys, mutate, key
):
    path = write(tmp_path, mutate(worked_attack(configs_dir)))
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.out == ""
    assert captured.err == (
        f"error: [scenario] policy key {key!r} is ignored when [policies] exists; "
        "move it to [policies]\n"
    )
    assert not out.exists()


def test_a_default_policy_key_is_exempt_in_scenario(tmp_path, configs_dir):
    text = "[DEFAULT]\npenalty_family = incremental\npenalty_a = 2\n\n"
    text += worked_attack(configs_dir)
    assert load_scenario(write(tmp_path, text)) == load_scenario(configs_dir / "worked_attack.ini")


def test_a_referenced_key_is_exempt(tmp_path, configs_dir):
    text = worked_attack(configs_dir).replace(
        "base_rate = 225.7", "base_rat = 225.7\nbase_rate = %(base_rat)s"
    )
    assert load_scenario(write(tmp_path, text)) == load_scenario(configs_dir / "worked_attack.ini")


def test_a_replay_does_not_check_the_detector_it_replaces(tmp_path, configs_dir):
    text = after_header(worked_attack(configs_dir), "detector.always_flagged", "window = 3")
    trace = configs_dir / "attack_trace.csv"
    assert load_scenario(write(tmp_path, text), trace_override=trace) == load_scenario(
        configs_dir / "worked_attack.ini", trace_override=trace
    )


def scenario_files_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Scenario files\n")[1].split("\n## ")[0]


def test_readme_names_exactly_the_keys_of_the_table():
    named = set()
    for name in re.findall(r"\b([a-z][a-z_]*(?:<resource>)?) =", scenario_files_section()):
        named.update(name.replace("<resource>", resource) for resource in RESOURCES)
    assert named == {key for table in _TABLE.values() for key in table}


def test_readme_example_is_the_worked_attack(tmp_path, configs_dir):
    example = scenario_files_section().split("```ini\n")[1].split("```")[0]
    assert load_scenario(write(tmp_path, example)) == load_scenario(
        configs_dir / "worked_attack.ini"
    )


def test_linear_constants_are_read_only_under_the_linear_family(tmp_path, configs_dir):
    text = after_header(worked_attack(configs_dir), "policies", "penalty_a = junk")
    assert load_scenario(write(tmp_path, text)) == load_scenario(configs_dir / "worked_attack.ini")


def test_a_replay_reads_no_detector_key(tmp_path, configs_dir):
    text = worked_attack(configs_dir).replace("detector = always_flagged", "")
    trace = configs_dir / "attack_trace.csv"
    assert load_scenario(write(tmp_path, text), trace_override=trace) == load_scenario(
        configs_dir / "worked_attack.ini", trace_override=trace
    )


def test_a_threshold_stream_is_read_before_its_window(tmp_path):
    text = (
        "[scenario]\nepochs = 5\nmeasurement_budget = 10\n\n"
        "[process.a]\nbase_rate = 2.0\ndetector = d\n\n"
        "[detector.d]\nkind = threshold\nwindow = wide\ncutoff = 1.0\nstream = absent.csv\n"
    )
    with pytest.raises(ConfigError, match=r"^\[detector\.d\] cannot read .*absent\.csv"):
        load_scenario(write(tmp_path, text))
