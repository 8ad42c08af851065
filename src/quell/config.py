"""Scenario configuration: one INI file describes a whole run.

Sections:

    [scenario]    epochs, measurement_budget, epoch_duration_ms, seed,
                  measurements_per_epoch
    [policies]    penalty_family / compensation_family (incremental,
                  linear, exponential) plus linear constants *_a / *_b
    [actuator]    mode (additive / multiplicative), throttle_step,
                  targets (comma-separated resources), floor_<resource>
    [process.<id>]   base_rate, unit, combiner, response_<resource>,
                  detector (name of a [detector.<name>] section)
    [detector.<name>] kind = trace | stochastic | threshold, plus
                  kind-specific keys (see below)

Response curve specs are compact strings: ``proportional``,
``linear_saturating:<cap_fraction>``, ``cliff:<threshold>:<collapsed>``.

Detector kinds: ``trace`` takes ``file`` (CSV, filtered by the
referencing process id); ``stochastic`` takes ``tpr``, ``fpr``,
``ground_truth`` and an optional ``seed`` (derived from the scenario
seed and process id when absent); ``threshold`` takes ``window``,
``cutoff`` and ``stream`` (CSV). Relative paths resolve against the
config file's directory.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .actuation import RESOURCES, ActuationMode, ActuatorPolicy
from .detectors import (
    GroundTruth,
    StochasticSource,
    ThresholdSource,
    TraceSource,
    VerdictSource,
    derive_seed,
    load_measurement_stream_csv,
    load_trace_csv,
)
from .simulation import (
    Cliff,
    Combiner,
    LinearSaturating,
    ProcessSpec,
    ProgressModel,
    Proportional,
    ResponseCurve,
    Scenario,
    ScenarioError,
)
from .threat import AssessmentPolicy, GrowthFamily

__all__ = ["ConfigError", "load_scenario", "parse_response_curve"]

PROCESS_PREFIX = "process."
DETECTOR_PREFIX = "detector."


class ConfigError(Exception):
    """The scenario file is missing, malformed, or fails validation."""


def parse_response_curve(spec: str) -> ResponseCurve:
    parts = [p.strip() for p in spec.split(":")]
    kind = parts[0]
    try:
        if kind == "proportional" and len(parts) == 1:
            return Proportional()
        if kind == "linear_saturating" and len(parts) == 2:
            return LinearSaturating(cap_fraction=float(parts[1]))
        if kind == "cliff" and len(parts) == 3:
            return Cliff(threshold_fraction=float(parts[1]), collapsed_multiplier=float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad response curve {spec!r}: {exc}") from None
    raise ConfigError(
        f"bad response curve {spec!r}; expected proportional, "
        "linear_saturating:<cap>, or cliff:<threshold>:<collapsed>"
    )


def _get(section: configparser.SectionProxy, key: str, kind, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ConfigError(f"[{section.name}] is missing required key {key!r}")
        return default
    raw = section[key].strip()
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a valid {kind.__name__}") from None


def _policy(section: configparser.SectionProxy, role: str) -> AssessmentPolicy:
    family_name = _get(section, f"{role}_family", str, default="incremental")
    try:
        family = GrowthFamily(family_name)
    except ValueError:
        raise ConfigError(
            f"[{section.name}] {role}_family must be incremental, linear, or exponential, "
            f"got {family_name!r}"
        ) from None
    if family is GrowthFamily.LINEAR:
        a = _get(section, f"{role}_a", float, default=1.0)
        b = _get(section, f"{role}_b", float, default=1.0)
        try:
            return AssessmentPolicy.linear(a, b)
        except ValueError as exc:
            raise ConfigError(f"[{section.name}] {role}: {exc}") from None
    return AssessmentPolicy(family)


def _actuator(parser: configparser.ConfigParser) -> ActuatorPolicy:
    defaults = ActuatorPolicy()
    if not parser.has_section("actuator"):
        return defaults
    section = parser["actuator"]
    mode_name = _get(section, "mode", str, default=defaults.mode.value)
    try:
        mode = ActuationMode(mode_name)
    except ValueError:
        raise ConfigError(f"[actuator] mode must be additive or multiplicative, got {mode_name!r}") from None
    targets_raw = _get(section, "targets", str, default=",".join(defaults.targets))
    targets = tuple(t.strip() for t in targets_raw.split(",") if t.strip())
    floors = {
        name: _get(section, f"floor_{name}", float, default=getattr(defaults, f"floor_{name}"))
        for name in RESOURCES
    }
    try:
        return ActuatorPolicy(
            throttle_step=_get(section, "throttle_step", float, default=defaults.throttle_step),
            mode=mode,
            targets=targets,
            floor_cpu=floors["cpu"],
            floor_memory=floors["memory"],
            floor_network=floors["network"],
            floor_filesystem=floors["filesystem"],
        )
    except ValueError as exc:
        raise ConfigError(f"[actuator] {exc}") from None


def _detector_source(
    parser: configparser.ConfigParser,
    detector_name: str,
    process_id: str,
    base_dir: Path,
    scenario_seed: int,
    trace_cache: dict[Path, dict[str, TraceSource]],
) -> VerdictSource:
    section_name = DETECTOR_PREFIX + detector_name
    if not parser.has_section(section_name):
        raise ConfigError(f"[{PROCESS_PREFIX}{process_id}] references missing section [{section_name}]")
    section = parser[section_name]
    kind = _get(section, "kind", str, required=True)
    if kind == "trace":
        file_name = _get(section, "file", str, required=True)
        path = (base_dir / file_name).resolve()
        if path not in trace_cache:
            try:
                trace_cache[path] = load_trace_csv(path)
            except OSError as exc:
                raise ConfigError(f"[{section_name}] cannot read {path}: {exc}") from None
            except ValueError as exc:
                raise ConfigError(f"[{section_name}] {exc}") from None
        traces = trace_cache[path]
        if process_id not in traces:
            raise ConfigError(f"[{section_name}] trace {path} has no rows for process {process_id!r}")
        return traces[process_id]
    if kind == "stochastic":
        truth_name = _get(section, "ground_truth", str, required=True)
        try:
            truth = GroundTruth(truth_name)
        except ValueError:
            raise ConfigError(
                f"[{section_name}] ground_truth must be attack or benign, got {truth_name!r}"
            ) from None
        seed = _get(section, "seed", int, default=None)
        if seed is None:
            seed = derive_seed(scenario_seed, process_id)
        try:
            return StochasticSource(
                true_positive_rate=_get(section, "tpr", float, required=True),
                false_positive_rate=_get(section, "fpr", float, required=True),
                ground_truth=truth,
                seed=seed,
            )
        except ValueError as exc:
            raise ConfigError(f"[{section_name}] {exc}") from None
    if kind == "threshold":
        stream_name = _get(section, "stream", str, required=True)
        path = (base_dir / stream_name).resolve()
        try:
            values = load_measurement_stream_csv(path)
        except OSError as exc:
            raise ConfigError(f"[{section_name}] cannot read {path}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"[{section_name}] {exc}") from None
        try:
            return ThresholdSource(
                window_size=_get(section, "window", int, required=True),
                cutoff=_get(section, "cutoff", float, required=True),
                values=values,
            )
        except ValueError as exc:
            raise ConfigError(f"[{section_name}] {exc}") from None
    raise ConfigError(f"[{section_name}] kind must be trace, stochastic, or threshold, got {kind!r}")


def _check_coverage(spec: ProcessSpec, epochs: int) -> None:
    """Reject a file-backed source that ends before the run does."""
    source = spec.source
    if isinstance(source, TraceSource):
        kind, end = "trace", source.end_epoch
    elif isinstance(source, ThresholdSource):
        kind, end = "measurement stream", source.start_epoch + len(source.values)
    else:
        return
    if source.start_epoch > 1 or end < epochs:
        raise ScenarioError(
            f"{kind} for process {spec.process_id!r} covers epochs "
            f"[{source.start_epoch}, {end}) but the scenario "
            f"consumes epochs [1, {epochs})"
        )


def load_scenario(
    path: str | Path,
    *,
    seed_override: int | None = None,
    trace_override: str | Path | None = None,
) -> Scenario:
    """Build a scenario from an INI file.

    ``seed_override`` replaces the [scenario] seed before detector seeds
    are derived. ``trace_override`` replaces every process's verdict
    source with rows from one trace CSV (replay mode). Every trace and
    measurement stream must cover the full epoch range; that is checked
    up front, so a short file fails here and not halfway through a run.
    """
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with path.open(encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    if not parser.has_section("scenario"):
        raise ConfigError(f"{path}: missing [scenario] section")
    base_dir = path.parent
    scenario_section = parser["scenario"]
    epochs = _get(scenario_section, "epochs", int, required=True)
    budget = _get(scenario_section, "measurement_budget", int, required=True)
    duration = _get(scenario_section, "epoch_duration_ms", float, default=100.0)
    seed = _get(scenario_section, "seed", int, default=0)
    per_epoch = _get(scenario_section, "measurements_per_epoch", int, default=1)
    if seed_override is not None:
        seed = seed_override

    policies_section = parser["policies"] if parser.has_section("policies") else parser["scenario"]
    penalty_policy = _policy(policies_section, "penalty")
    compensation_policy = _policy(policies_section, "compensation")
    actuator = _actuator(parser)

    override_traces: dict[str, TraceSource] | None = None
    if trace_override is not None:
        try:
            override_traces = load_trace_csv(trace_override)
        except OSError as exc:
            raise ConfigError(f"cannot read trace {trace_override}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    trace_cache: dict[Path, dict[str, TraceSource]] = {}
    specs: list[ProcessSpec] = []
    for section_name in parser.sections():
        if not section_name.startswith(PROCESS_PREFIX):
            continue
        process_id = section_name[len(PROCESS_PREFIX):].strip()
        if not process_id:
            raise ConfigError(f"{path}: empty process id in [{section_name}]")
        section = parser[section_name]
        combiner_name = _get(section, "combiner", str, default=Combiner.BOTTLENECK_MIN.value)
        try:
            combiner = Combiner(combiner_name)
        except ValueError:
            raise ConfigError(
                f"[{section_name}] combiner must be bottleneck_min or product, got {combiner_name!r}"
            ) from None
        response: dict[str, ResponseCurve] = {}
        for resource in RESOURCES:
            curve_spec = _get(section, f"response_{resource}", str, default=None)
            if curve_spec is not None:
                response[resource] = parse_response_curve(curve_spec)
        try:
            model = ProgressModel(
                base_rate=_get(section, "base_rate", float, required=True),
                unit_label=_get(section, "unit", str, default="units"),
                response=response,
                combiner=combiner,
            )
        except ValueError as exc:
            raise ConfigError(f"[{section_name}] {exc}") from None
        if override_traces is not None:
            if process_id not in override_traces:
                raise ScenarioError(
                    f"trace {trace_override} has no rows for process {process_id!r}"
                )
            source: VerdictSource = override_traces[process_id]
        else:
            detector_name = _get(section, "detector", str, required=True)
            source = _detector_source(parser, detector_name, process_id, base_dir, seed, trace_cache)
        specs.append(ProcessSpec(process_id=process_id, model=model, source=source))

    if not specs:
        raise ConfigError(f"{path}: no [process.<id>] sections")
    specs.sort(key=lambda s: s.process_id)

    try:
        scenario = Scenario(
            processes=tuple(specs),
            measurement_budget=budget,
            penalty_policy=penalty_policy,
            compensation_policy=compensation_policy,
            actuator=actuator,
            epochs=epochs,
            epoch_duration_ms=duration,
            seed=seed,
            measurements_per_epoch=per_epoch,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for spec in scenario.processes:
        _check_coverage(spec, scenario.epochs)
    return scenario
