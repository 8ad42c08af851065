"""The exact message of every single-fault scenario INI.

Each case starts from a valid INI, either ``configs/worked_attack.ini`` or
a small threshold-detector scenario, changes it in one place, and pins
the whole text of the ``ConfigError`` or ``ScenarioError`` it raises.
``{path}`` stands for the INI's path and ``{dir}`` for its directory.
"""

import re

import pytest

from quell.config import ConfigError, load_scenario
from quell.simulation import ScenarioError

THRESHOLD = """\
[scenario]
epochs = 5
measurement_budget = 10

[process.a]
base_rate = 2.0
detector = d

[detector.d]
kind = threshold
stream = stream.csv
window = 3
cutoff = 1.0
"""

STREAM = "epoch,value\n" + "".join(f"{epoch},0.5\n" for epoch in range(6))


def edit(text, section, key, value):
    """``text`` with ``key`` in ``[section]`` set to ``value``, or removed when it is None.

    A key the section does not hold is added right after its header.
    """
    lines = text.splitlines()
    header = lines.index(f"[{section}]")
    end = next(
        (i for i in range(header + 1, len(lines)) if lines[i].startswith("[")), len(lines)
    )
    pattern = re.compile(rf"{re.escape(key)}\s*=")
    for index in range(header + 1, end):
        if pattern.match(lines[index]):
            if value is None:
                del lines[index]
            else:
                lines[index] = f"{key} = {value}"
            break
    else:
        assert value is not None, f"[{section}] has no {key}"
        lines.insert(header + 1, f"{key} = {value}")
    return "\n".join(lines) + "\n"


ATTACK_STOCHASTIC = ("tpr", "fpr", "ground_truth", "seed")

CASES = {
    # A value of the wrong type.
    "bad int": ("attack", [("scenario", "epochs", "soon")],
                "[scenario] epochs = 'soon' is not a valid int"),
    "bad float": ("attack", [("actuator", "throttle_step", "fast")],
                  "[actuator] throttle_step = 'fast' is not a valid float"),
    "bad detector seed": ("attack", [("detector.always_flagged", "seed", "7.5")],
                          "[detector.always_flagged] seed = '7.5' is not a valid int"),
    "bad cutoff": ("threshold", [("detector.d", "cutoff", "high")],
                   "[detector.d] cutoff = 'high' is not a valid float"),
    # Every required key, left out.
    "missing epochs": ("attack", [("scenario", "epochs", None)],
                       "[scenario] is missing required key 'epochs'"),
    "missing budget": ("attack", [("scenario", "measurement_budget", None)],
                       "[scenario] is missing required key 'measurement_budget'"),
    "missing base_rate": ("attack", [("process.attack", "base_rate", None)],
                          "[process.attack] is missing required key 'base_rate'"),
    "missing detector": ("attack", [("process.attack", "detector", None)],
                         "[process.attack] is missing required key 'detector'"),
    "missing kind": ("attack", [("detector.always_flagged", "kind", None)],
                     "[detector.always_flagged] is missing required key 'kind'"),
    "missing tpr": ("attack", [("detector.always_flagged", "tpr", None)],
                    "[detector.always_flagged] is missing required key 'tpr'"),
    "missing fpr": ("attack", [("detector.always_flagged", "fpr", None)],
                    "[detector.always_flagged] is missing required key 'fpr'"),
    "missing ground_truth": ("attack", [("detector.always_flagged", "ground_truth", None)],
                             "[detector.always_flagged] is missing required key 'ground_truth'"),
    "missing file": (
        "attack",
        [("detector.always_flagged", "kind", "trace")]
        + [("detector.always_flagged", key, None) for key in ATTACK_STOCHASTIC],
        "[detector.always_flagged] is missing required key 'file'",
    ),
    "missing stream": ("threshold", [("detector.d", "stream", None)],
                       "[detector.d] is missing required key 'stream'"),
    "missing window": ("threshold", [("detector.d", "window", None)],
                       "[detector.d] is missing required key 'window'"),
    "missing cutoff": ("threshold", [("detector.d", "cutoff", None)],
                       "[detector.d] is missing required key 'cutoff'"),
    # Every choice key, given a value outside its choices.
    "bad family": (
        "attack", [("policies", "penalty_family", "quadratic")],
        "[policies] penalty_family must be incremental, linear, or exponential, got 'quadratic'",
    ),
    "bad family in scenario": (
        "threshold", [("scenario", "compensation_family", "cubic")],
        "[scenario] compensation_family must be incremental, linear, or exponential, got 'cubic'",
    ),
    "bad mode": ("attack", [("actuator", "mode", "subtractive")],
                 "[actuator] mode must be additive or multiplicative, got 'subtractive'"),
    "bad combiner": ("attack", [("process.attack", "combiner", "average")],
                     "[process.attack] combiner must be bottleneck_min or product, got 'average'"),
    "bad ground_truth": (
        "attack", [("detector.always_flagged", "ground_truth", "unsure")],
        "[detector.always_flagged] ground_truth must be attack or benign, got 'unsure'",
    ),
    "bad kind": (
        "threshold", [("detector.d", "kind", "oracle")],
        "[detector.d] kind must be trace, stochastic, or threshold, got 'oracle'",
    ),
    # Every constructor's own check.
    "scenario check": ("attack", [("scenario", "epochs", "0")],
                       "{path}: epochs must be >= 1, got 0"),
    "scenario seed check": ("threshold", [("scenario", "seed", "-1")],
                            "{path}: seed must be an unsigned 64-bit integer"),
    "policy check": (
        "attack",
        [("policies", "penalty_family", "linear"), ("policies", "penalty_a", "0.5")],
        "[policies] penalty: linear growth requires a >= 1 and b >= 0",
    ),
    "policy check in scenario": (
        "threshold",
        [("scenario", "compensation_family", "linear"), ("scenario", "compensation_b", "nan")],
        "[scenario] compensation: linear growth constants must be finite",
    ),
    "actuator check": ("attack", [("actuator", "throttle_step", "1.5")],
                       "[actuator] throttle_step must lie in (0, 1), got 1.5"),
    "actuator target check": ("attack", [("actuator", "targets", "cpu, gpu")],
                              "[actuator] unknown target resources: ['gpu']"),
    "actuator floor check": ("attack", [("actuator", "floor_cpu", "0")],
                             "[actuator] floor_cpu must lie in (0, 1), got 0.0"),
    "process check": ("attack", [("process.attack", "base_rate", "-1")],
                      "[process.attack] base_rate must be positive, got -1.0"),
    "stochastic check": (
        "attack", [("detector.always_flagged", "tpr", "1.7")],
        "[detector.always_flagged] true_positive_rate must lie in [0, 1], got 1.7",
    ),
    "threshold check": ("threshold", [("detector.d", "window", "0")],
                        "[detector.d] window size must be >= 1, got 0"),
    "threshold cutoff check": ("threshold", [("detector.d", "cutoff", "inf")],
                               "[detector.d] cutoff must be finite, got inf"),
    # Interpolation, curves, sections and files.
    "interpolation": (
        "attack", [("process.attack", "base_rate", "%(missing)s")],
        "[process.attack] base_rate: Bad value substitution: option 'base_rate' in section "
        "'process.attack' contains an interpolation key 'missing' which is not a valid "
        "option name. Raw value: '%(missing)s'",
    ),
    "bad curve": (
        "attack", [("process.attack", "response_cpu", "stepwise")],
        "bad response curve 'stepwise'; expected proportional, "
        "linear_saturating:<cap>, or cliff:<threshold>:<collapsed>",
    ),
    "bad curve value": (
        "attack", [("process.attack", "response_cpu", "cliff:2.0:0.5")],
        "bad response curve 'cliff:2.0:0.5': threshold_fraction must lie in (0, 1], got 2.0",
    ),
    "missing detector section": (
        "attack", [("process.attack", "detector", "ghost")],
        "[process.attack] references missing section [detector.ghost]",
    ),
    "duplicate option": (
        "threshold", [("scenario", "epochs", "5\nepochs = 6")],
        "{path}: While reading from '{path}' [line  3]: option 'epochs' in section "
        "'scenario' already exists",
    ),
    "missing stream file": (
        "threshold", [("detector.d", "stream", "absent.csv")],
        "[detector.d] cannot read {dir}/absent.csv: "
        "[Errno 2] No such file or directory: '{dir}/absent.csv'",
    ),
    "trace without the process": (
        "threshold",
        [("detector.d", "kind", "trace"), ("detector.d", "file", "stream.csv")]
        + [("detector.d", key, None) for key in ("stream", "window", "cutoff")],
        "[detector.d] {dir}/stream.csv: expected header 'epoch,process,verdict', "
        "got 'epoch,value'",
    ),
    "zero epoch duration": ("threshold", [("scenario", "epoch_duration_ms", "0")],
                            "{path}: epoch duration must be positive"),
    "zero measurements per epoch": ("threshold", [("scenario", "measurements_per_epoch", "0")],
                                    "{path}: measurements per epoch must be >= 1"),
    "short stream": ("threshold", [("scenario", "epochs", "7")],
                     "measurement stream for process 'a' covers epochs [0, 6) "
                     "but the scenario consumes epochs [1, 7)"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_single_fault_message(tmp_path, configs_dir, name):
    base, edits, expected = CASES[name]
    if base == "attack":
        text = (configs_dir / "worked_attack.ini").read_text(encoding="utf-8")
    else:
        text = THRESHOLD
        (tmp_path / "stream.csv").write_text(STREAM)
    for section, key, value in edits:
        text = edit(text, section, key, value)
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    error = ScenarioError if name == "short stream" else ConfigError
    with pytest.raises(error) as excinfo:
        load_scenario(path)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == expected.format(path=path, dir=tmp_path.resolve())
