"""Scenario configuration: one INI file describes a whole run.

Sections: ``[scenario]``, ``[policies]`` (optional; without it the policy
keys are read from ``[scenario]``, with it a policy key that ``[scenario]``
sets is an error), ``[actuator]`` (optional), one
``[process.<id>]`` per process, and the ``[detector.<name>]`` sections
the processes name. ``_TABLE`` lists every key each section kind takes,
its type and the constructor argument it sets; a key that is left out
takes that constructor's default, and only ``_REQUIRED`` keys must be
present. A detector's ``kind`` (trace, stochastic or threshold) selects
the rest of its keys. A stochastic detector without a ``seed`` derives
one from the scenario seed and the process id. Other keys and sections
are ignored, unless one is a near miss of a known one (``_check_keys``,
``_check_sections``).

Response curve specs are compact strings: ``proportional``,
``linear_saturating:<cap_fraction>``, ``cliff:<threshold>:<collapsed>``.

Detector files resolve against the config file's directory, and a file
named by several detectors is read once per load. A threshold
``cutoff`` and every stream value must be finite.

Values may use configparser's ``%(key)s`` interpolation from the same
section or ``[DEFAULT]``; ``%%`` is a literal percent. Each section is
read once, raw, and a value is interpolated only when its key is read
and it holds a ``%``, so a stray ``%`` in an unread key is harmless and
a bad one in a read key is a ``ConfigError`` naming section and key.
A parse error and a byte that is not UTF-8 are reported in line order.

A file that needs none of configparser's features is read by a lean
line reader (``_lean_sections``) into the same raw sections configparser
gives. Its subset: blank lines, full-line ``#`` or ``;`` comments,
``[name]`` headers (no ``[DEFAULT]``, none repeated) and ``key = value``
lines whose key holds no ``:`` and does not repeat in its section once
lowercased. No other line starts with whitespace or holds more than one
``#`` or ``;``. One that follows whitespace starts an inline comment,
which is dropped; otherwise it is part of the line. No ``%`` appears in
what is left of a line, and every byte is UTF-8. The lean reader gives
up on any other file, never raising, and configparser reads it as
before; so the fallback is the only source of parse errors,
and each keeps its text and its place in line order.
"""

from __future__ import annotations

import functools
import io
import re
from enum import Enum, EnumMeta
from pathlib import Path
from typing import TYPE_CHECKING

from .actuation import RESOURCES, ActuationMode, ActuatorPolicy
from .csvio import read_text
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

if TYPE_CHECKING:
    import configparser

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


class _DetectorKind(Enum):
    TRACE = "trace"
    STOCHASTIC = "stochastic"
    THRESHOLD = "threshold"


def _resource_list(raw: str) -> tuple[str, ...]:
    return tuple(t.strip() for t in raw.split(",") if t.strip())


# Section kind -> INI key -> (constructor argument, type), each in the
# order its keys are read. ``policies`` keys are read per role, the
# linear constants only under the linear family; a detector's ``kind``
# names the table of its other keys.
_TABLE: dict[str, dict[str, tuple[str, object]]] = {
    "scenario": {
        "epochs": ("epochs", int),
        "measurement_budget": ("measurement_budget", int),
        "epoch_duration_ms": ("epoch_duration_ms", float),
        "seed": ("seed", int),
        "measurements_per_epoch": ("measurements_per_epoch", int),
    },
    "policies": {
        "penalty_family": ("family", GrowthFamily),
        "penalty_a": ("linear_a", float),
        "penalty_b": ("linear_b", float),
        "compensation_family": ("family", GrowthFamily),
        "compensation_a": ("linear_a", float),
        "compensation_b": ("linear_b", float),
    },
    "actuator": {
        "mode": ("mode", ActuationMode),
        "targets": ("targets", _resource_list),
        **{f"floor_{name}": (f"floor_{name}", float) for name in RESOURCES},
        "throttle_step": ("throttle_step", float),
    },
    "process": {
        "combiner": ("combiner", Combiner),
        **{f"response_{name}": (name, parse_response_curve) for name in RESOURCES},
        "base_rate": ("base_rate", float),
        "detector": ("detector", str),
    },
    "detector": {"kind": ("kind", _DetectorKind)},
    "trace": {"file": ("file", str)},
    "stochastic": {
        "ground_truth": ("ground_truth", GroundTruth),
        "seed": ("seed", int),
        "tpr": ("true_positive_rate", float),
        "fpr": ("false_positive_rate", float),
    },
    "threshold": {
        "stream": ("stream", str),
        "window": ("window_size", int),
        "cutoff": ("cutoff", float),
    },
}
_REQUIRED = frozenset({
    "epochs", "measurement_budget", "base_rate", "detector", "kind", "file",
    "ground_truth", "tpr", "fpr", "stream", "window", "cutoff",
})
_MODEL_KEYS = tuple(key for key in _TABLE["process"] if key != "detector")

_DETECTOR_KINDS = tuple(kind.value for kind in _DetectorKind)
# The keys each section kind holds. ``[scenario]`` also holds the
# policies' keys, which are read from it when there is no ``[policies]``.
_KNOWN = {
    "scenario": frozenset(_TABLE["scenario"]) | frozenset(_TABLE["policies"]),
    "policies": frozenset(_TABLE["policies"]),
    "actuator": frozenset(_TABLE["actuator"]),
    "process": frozenset(_TABLE["process"]),
    **{kind: frozenset(_TABLE[kind]) | frozenset(_TABLE["detector"]) for kind in _DETECTOR_KINDS},
}
# Each section kind as the "did you mean" of a near miss spells it.
_SECTIONS = {
    "scenario": "[scenario]",
    "policies": "[policies]",
    "actuator": "[actuator]",
    "process": f"[{PROCESS_PREFIX}<id>]",
    "detector": f"[{DETECTOR_PREFIX}<name>]",
}
# An unknown key or section kind at least this close to a known one
# (``difflib.get_close_matches``) is taken for a typo of it and rejected.
_NEAR_MISS_CUTOFF = 0.8


class _Section:
    """One scenario file section: its name, raw values and the configparser that read them.

    ``raw`` maps each key to its raw value in order: what configparser's
    ``items(name, raw=True)`` gives, ``[DEFAULT]`` keys first. ``parser``
    is None when the lean reader read the file; such a file has no
    ``[DEFAULT]`` and no ``%`` in a value, so it needs no defaults and no
    interpolation.
    """

    __slots__ = ("name", "raw", "parser")

    def __init__(
        self, name: str, raw: dict[str, str], parser: configparser.ConfigParser | None = None
    ) -> None:
        self.name = name
        self.raw = raw
        self.parser = parser


@functools.lru_cache(maxsize=1024)
def _near_miss(word: str, known: frozenset) -> str | None:
    """The word of ``known`` that ``word`` is taken for a typo of, if any.

    Each pair is looked up once per process: an ignored key usually
    repeats in every section of its kind (a fleet gives each process the
    same one), and each ``difflib`` lookup costs about 20 µs.
    ``get_close_matches`` breaks a tie between equally close words by the
    word itself, so the order of ``known`` cannot change a match.
    """
    import difflib  # here, not at the top: the import costs every CLI start 1.5-2 ms

    match = difflib.get_close_matches(word, known, n=1, cutoff=_NEAR_MISS_CUTOFF)
    return match[0] if match else None


def _check_keys(section: _Section, kind: str) -> None:
    """Reject a key of ``section`` that is a near miss of one ``kind`` holds.

    A key of another detector kind is rejected too. Keys from
    ``[DEFAULT]`` and keys a value references are exempt, and any other
    unknown key is left alone.
    """
    known = _KNOWN[kind]
    if known.issuperset(section.raw):
        return
    exempt = set()
    if section.parser is not None:  # a lean-read file has no [DEFAULT] and no % in a value
        exempt.update(section.parser.defaults())
        for value in section.raw.values():
            # configparser's own pattern for a %(name)s reference; its optionxform lowercases
            exempt.update(map(str.lower, re.findall(r"%\(([^)]+)\)s", value)))
    for key in section.raw:
        if key in known or key in exempt:
            continue
        if kind in _DETECTOR_KINDS:
            owner = next((other for other in _DETECTOR_KINDS if key in _TABLE[other]), None)
            if owner is not None:
                raise ConfigError(
                    f"[{section.name}] key {key!r} belongs to kind = {owner}, not {kind}; "
                    f"did you mean kind = {owner}?"
                )
        match = _near_miss(key, known)
        if match is not None:
            raise ConfigError(f"[{section.name}] unknown key {key!r}; did you mean {match!r}?")


def _check_sections(path: Path, sections: dict[str, _Section]) -> None:
    """Reject a section whose kind is a near miss of a known one, or a bare process or detector."""
    for name in sections:
        if name in ("scenario", "policies", "actuator"):
            continue
        if name.startswith((PROCESS_PREFIX, DETECTOR_PREFIX)):
            continue
        match = _near_miss(name.partition(".")[0], frozenset(_SECTIONS))
        if match is not None:
            raise ConfigError(f"{path}: unknown section [{name}]; did you mean {_SECTIONS[match]}?")


def _get(section: _Section, key: str, kind):
    """``key``'s value in ``section`` converted by ``kind``; each error names section and key."""
    raw = section.raw.get(key)
    if raw is None:
        raise ConfigError(f"[{section.name}] is missing required key {key!r}")
    if "%" in raw:
        import configparser  # loaded already: only a file the fallback read holds a %

        try:
            raw = section.parser.get(section.name, key)
        except configparser.InterpolationError as exc:
            raise ConfigError(f"[{section.name}] {key}: {exc}") from None
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError:
        if isinstance(kind, EnumMeta):
            names = [member.value for member in kind]
            choices = ", ".join(names[:-1]) + ("," if len(names) > 2 else "") + " or " + names[-1]
            raise ConfigError(f"[{section.name}] {key} must be {choices}, got {raw!r}") from None
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a valid {kind.__name__}") from None


def _read(section: _Section, table: dict, keys=None) -> dict:
    """Constructor arguments for ``keys`` of ``table`` (all of them by default), in order.

    A key that ``section`` leaves out is left out of the result, so that
    the constructor's default applies; a required one is an error.
    """
    args = {}
    for key in table if keys is None else keys:
        if key in section.raw or key in _REQUIRED:
            arg, kind = table[key]
            args[arg] = _get(section, key, kind)
    return args


def _build(where: str, cls, **args):
    """``cls(**args)``, a ``ValueError`` from it raised as a ``ConfigError`` after ``where``."""
    try:
        return cls(**args)
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _policy(section: _Section, role: str) -> AssessmentPolicy:
    table = _TABLE["policies"]
    args = _read(section, table, (f"{role}_family",))
    if args.get("family") is GrowthFamily.LINEAR:
        args.update(_read(section, table, (f"{role}_a", f"{role}_b")))
    return _build(f"[{section.name}] {role}:", AssessmentPolicy, **args)


class _InputFiles:
    """The files detectors name, each resolved once and read once per load."""

    def __init__(self, base_dir: Path) -> None:
        self.base_dir = base_dir
        self._paths: dict[str, Path] = {}
        self._contents: dict[tuple[object, Path], object] = {}

    def read(self, section_name: str, file_name: str, loader):
        """``(path, loader(path))`` for ``file_name`` relative to the config's directory."""
        path = self._paths.get(file_name)
        if path is None:
            path = self._paths[file_name] = (self.base_dir / file_name).resolve()
        # Keyed by loader too: a file named as a trace and as a stream is read as each.
        key = (loader, path)
        if key not in self._contents:
            try:
                self._contents[key] = loader(path)
            except OSError as exc:
                raise ConfigError(f"[{section_name}] cannot read {path}: {exc}") from None
            except ValueError as exc:
                raise ConfigError(f"[{section_name}] {exc}") from None
        return path, self._contents[key]


def _detector_source(
    sections: dict[str, _Section],
    detector_name: str,
    process_id: str,
    scenario_seed: int,
    files: _InputFiles,
) -> VerdictSource:
    section_name = DETECTOR_PREFIX + detector_name
    section = sections.get(section_name)
    if section is None:
        raise ConfigError(f"[{PROCESS_PREFIX}{process_id}] references missing section [{section_name}]")
    kind = _read(section, _TABLE["detector"])["kind"].value
    _check_keys(section, kind)
    table = _TABLE[kind]
    if kind == "trace":
        path, traces = files.read(section_name, _read(section, table)["file"], load_trace_csv)
        if process_id not in traces:
            raise ConfigError(f"[{section_name}] trace {path} has no rows for process {process_id!r}")
        return traces[process_id]
    if kind == "stochastic":
        args = _read(section, table)
        if "seed" not in args:
            args["seed"] = derive_seed(scenario_seed, process_id)
        return _build(f"[{section_name}]", StochasticSource, **args)
    stream_name = _read(section, table, ("stream",))["stream"]
    _, values = files.read(section_name, stream_name, load_measurement_stream_csv)
    args = _read(section, table, ("window", "cutoff"))
    return _build(f"[{section_name}]", ThresholdSource, values=values, **args)


def _check_coverage(spec: ProcessSpec, epochs: int) -> None:
    """Reject a file-backed source that ends before the run does."""
    source = spec.source
    if isinstance(source, TraceSource):
        kind, start, end = "trace", source.start_epoch, source.end_epoch
    elif isinstance(source, ThresholdSource):
        kind, start, end = "measurement stream", 0, len(source.values)
    else:
        return
    if end < epochs:
        raise ScenarioError(
            f"{kind} for process {spec.process_id!r} covers epochs "
            f"[{start}, {end}) but the scenario "
            f"consumes epochs [1, {epochs})"
        )


def _lean_sections(text: str) -> dict[str, dict[str, str]] | None:
    """``text``'s sections as configparser reads them raw, or None if ``text`` is outside the subset.

    The subset is the module docstring's. Lines split as
    ``io.StringIO(text, newline=None)`` splits them: at LF, CRLF and a
    lone CR only. Every line that passes is one configparser reads the
    same way, so a file that passes gives what the fallback would; any
    other line gives up on the whole file. Never raises.
    """
    sections: dict[str, dict[str, str]] = {}
    section = None
    for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        stripped = line.strip()
        if not stripped:
            continue
        first = line[0]
        if first in "#;":
            continue
        if first.isspace():
            return None  # a continuation line
        if "#" in line or ";" in line:
            if line.count("#") + line.count(";") > 1:
                # configparser takes the first prefix after whitespace in a
                # round-robin scan per prefix, not the first in the line.
                return None
            at = line.find("#") if "#" in line else line.find(";")
            if line[at - 1].isspace():
                stripped = line[:at].strip()  # an inline comment
        if "%" in stripped:
            return None
        if first == "[":
            name = stripped[1:-1]
            if stripped[-1] != "]" or not name or name == "DEFAULT" or name in sections:
                return None
            section = sections[name] = {}
            continue
        key, equals, value = stripped.partition("=")
        key = key.rstrip()
        if not equals or not key or ":" in key or section is None:
            return None
        key = key.lower()
        if key in section:
            return None
        section[key] = value.lstrip()
    return sections


def _read_ini(path: Path, text: str, bad_line: int, bad_byte: str) -> dict[str, _Section]:
    """The scenario file's sections by name, in file order.

    The lean reader reads the file if it can, else configparser does.
    Only the fallback raises: the parse error, or the bad byte, that
    comes first in line order.
    """
    if not bad_line:
        sections = _lean_sections(text)
        if sections is not None:
            return {name: _Section(name, raw) for name, raw in sections.items()}
    import configparser  # here, not at the top: a file inside the lean subset never needs it

    lines = io.StringIO(text, newline=None).readlines()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        # Only the lines before a bad byte, so that an error on one of them is reported first.
        parser.read_file(lines[: bad_line - 1] if bad_line else lines, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if bad_line:
        raise ConfigError(bad_byte)
    return {
        name: _Section(name, dict(parser.items(name, raw=True)), parser) for name in parser.sections()
    }


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
    try:
        text, bad_line, bad_byte = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    sections = _read_ini(path, text, bad_line, bad_byte)
    _check_sections(path, sections)
    if "scenario" not in sections:
        raise ConfigError(f"{path}: missing [scenario] section")
    scenario_section = sections["scenario"]
    _check_keys(scenario_section, "scenario")
    scenario_args = _read(scenario_section, _TABLE["scenario"])
    if seed_override is not None:
        scenario_args["seed"] = seed_override
    # Detector seeds derive from the scenario's, its constructor default included.
    seed = scenario_args.setdefault("seed", Scenario.seed)

    policies_section = scenario_section
    if "policies" in sections:
        policies_section = sections["policies"]
        _check_keys(policies_section, "policies")
        parser = scenario_section.parser
        defaults = parser.defaults() if parser is not None else {}
        for key in _TABLE["policies"]:
            # A [DEFAULT] key shows in every section; only a value [scenario] sets itself is stray.
            if key in scenario_section.raw and scenario_section.raw[key] != defaults.get(key):
                raise ConfigError(
                    f"[scenario] policy key {key!r} is ignored when [policies] exists; "
                    "move it to [policies]"
                )
    penalty_policy = _policy(policies_section, "penalty")
    compensation_policy = _policy(policies_section, "compensation")
    actuator_args = {}
    if "actuator" in sections:
        actuator_section = sections["actuator"]
        _check_keys(actuator_section, "actuator")
        actuator_args = _read(actuator_section, _TABLE["actuator"])
    actuator = _build("[actuator]", ActuatorPolicy, **actuator_args)

    override_traces: dict[str, TraceSource] | None = None
    if trace_override is not None:
        try:
            override_traces = load_trace_csv(trace_override)
        except OSError as exc:
            raise ConfigError(f"cannot read trace {trace_override}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    files = _InputFiles(path.parent)
    process_table = _TABLE["process"]
    specs: list[ProcessSpec] = []
    for section_name, section in sections.items():
        if not section_name.startswith(PROCESS_PREFIX):
            continue
        process_id = section_name[len(PROCESS_PREFIX):].strip()
        if not process_id:
            raise ConfigError(f"{path}: empty process id in [{section_name}]")
        _check_keys(section, "process")
        args = _read(section, process_table, _MODEL_KEYS)
        response = {name: args.pop(name) for name in RESOURCES if name in args}
        model = _build(f"[{section_name}]", ProgressModel, response=response, **args)
        if override_traces is not None:
            if process_id not in override_traces:
                raise ScenarioError(
                    f"trace {trace_override} has no rows for process {process_id!r}"
                )
            source: VerdictSource = override_traces[process_id]
        else:
            detector_name = _read(section, process_table, ("detector",))["detector"]
            source = _detector_source(sections, detector_name, process_id, seed, files)
        specs.append(ProcessSpec(process_id=process_id, model=model, source=source))

    if not specs:
        raise ConfigError(f"{path}: no [process.<id>] sections")

    scenario = _build(
        f"{path}:",
        Scenario,
        processes=tuple(specs),
        penalty_policy=penalty_policy,
        compensation_policy=compensation_policy,
        actuator=actuator,
        **scenario_args,
    )
    for spec in scenario.processes:
        _check_coverage(spec, scenario.epochs)
    return scenario
