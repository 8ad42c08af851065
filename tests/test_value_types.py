"""The value types built on ``quell._value.Value`` behave as the frozen
dataclasses they replace, and only the types a caller copies with
``dataclasses`` stay dataclasses.

``@dataclass`` generates its methods with ``exec`` at import, which every
CLI start pays; ``Value`` gives the same behaviour from one base.
"""

import ast
import copy
import inspect
import pickle
from pathlib import Path

import pytest

import quell
from quell._value import Value
from quell.actuation import RESOURCES, ActuationMode, ActuatorPolicy, SchedulerModel
from quell.detectors import ThresholdSource, TraceSource
from quell.efficacy import CurvePoint, EfficacyCurve, EfficacyTarget, TargetKind
from quell.hostadapter import Ack, CallRecord, ProcessHandle
from quell.simulation import (
    Baseline,
    Cliff,
    Combiner,
    EpochRecord,
    LinearSaturating,
    ProcessSpec,
    ProgressModel,
    Proportional,
    ScenarioLog,
    SlowdownReport,
)
from quell.threat import AssessmentPolicy, GrowthFamily, Verdict

PACKAGE = Path(quell.__file__).parent

# -- which classes are dataclasses ----------------------------------------------

# Each keeps the decorator because a caller copies it with ``dataclasses``;
# a new value type uses ``Value`` instead.
DATACLASSES = {
    # bench/checks.py, Scenario.without_response and tests/test_simulation.py
    # call dataclasses.replace on it.
    ("simulation.py", "Scenario"),
    # tests/test_hot_path.py and tests/test_threat.py use fields, replace,
    # astuple and FrozenInstanceError.
    ("threat.py", "ThreatLedger"),
    # The same tests, and FakeHostAdapter.apply_shares's replace(shares, ...).
    ("actuation.py", "ResourceShares"),
    # tests/test_hot_path.py replaces its ground truth.
    ("detectors.py", "StochasticSource"),
    # tests/test_supervisor.py replaces its epochs_run.
    ("supervisor.py", "SupervisionReport"),
}


def is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def test_only_the_copied_types_are_dataclasses():
    decorated = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list)):
                decorated.add((path.name, node.name))
    assert decorated == DATACLASSES


# -- the converted types ----------------------------------------------------------

CURVE_POINTS = (CurvePoint(1, 0.5, 0.5), CurvePoint(10, 0.9, 0.1))
OTHER_POINTS = (CurvePoint(2, 0.6, 0.4), CurvePoint(5, 0.7, 0.2), CurvePoint(9, 0.8, 0.3))
RECORD = EpochRecord(1, "p", "benign", 0.0, 1.0, 0.0, "normal", 1.0, 1.0, 1.0, 1.0, 2.0, 4.0)

# Field values in order, and for each field another valid value.
SAMPLES = {
    ActuatorPolicy: (
        (0.2, ActuationMode.MULTIPLICATIVE, ("cpu", "network"), 0.05, 0.8, 1e-5, 0.02),
        (0.3, ActuationMode.ADDITIVE, ("memory",), 0.1, 0.95, 1e-3, 0.5),
    ),
    SchedulerModel: ((6.0, {"a": 1.0, "b": 2.0}), (12.0, {"a": 1.0})),
    AssessmentPolicy: ((GrowthFamily.LINEAR, 2.0, 0.5), (GrowthFamily.EXPONENTIAL, 3.0, 1.0)),
    TraceSource: (((Verdict.MALICIOUS, Verdict.BENIGN), 1), ((Verdict.BENIGN,), 0)),
    ThresholdSource: ((3, 0.5, (0.1, 0.9, 0.4)), (2, 0.7, (1.0,))),
    Proportional: ((), ()),
    LinearSaturating: ((0.5,), (0.25,)),
    Cliff: ((0.5, 0.1), (0.75, 0.0)),
    ProgressModel: (
        (2.0, {"cpu": Proportional(), "memory": Cliff(0.5, 0.1)}, Combiner.PRODUCT),
        (3.0, {}, Combiner.BOTTLENECK_MIN),
    ),
    ProcessSpec: (
        ("p", ProgressModel(1.0), TraceSource((Verdict.BENIGN,))),
        ("q", ProgressModel(2.0), TraceSource((Verdict.MALICIOUS,))),
    ),
    ScenarioLog: ((2, (RECORD,)), (3, ())),
    Baseline: ((3, {"p": 3.0}), (4, {"p": 4.0})),
    SlowdownReport: (("p", 1.5, 3.0, 50.0), ("q", 2.0, 4.0, 25.0)),
    CurvePoint: ((10, 0.8, 0.1), (20, 0.9, 0.05)),
    EfficacyCurve: ((CURVE_POINTS, "ann", 50.0), (OTHER_POINTS, "trees", 100.0)),
    EfficacyTarget: ((TargetKind.F1_AT_LEAST, 0.9), (TargetKind.FPR_AT_MOST, 0.1)),
    ProcessHandle: (("42",), ("43",)),
    Ack: ((True, ("memory",)), (False, ())),
    CallRecord: ((3, "p", "apply_shares", "cpu=0.5"), (4, "q", "terminate", "")),
}
CASES = pytest.mark.parametrize(
    ("cls", "values", "others"),
    [(cls, *sample) for cls, sample in SAMPLES.items()],
    ids=[cls.__name__ for cls in SAMPLES],
)


def field_names(cls) -> list[str]:
    return list(cls.__match_args__)


def test_every_value_type_is_sampled():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(Value)) == set(SAMPLES)


@CASES
def test_signature_matches_the_fields(cls, values, others):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == field_names(cls)
    assert {p.kind for p in parameters} <= {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    # Only the log has an instance dict, for its cached index.
    assert hasattr(cls(*values), "__dict__") is (cls is ScenarioLog)


@CASES
def test_positional_and_keyword_construction_agree(cls, values, others):
    names = field_names(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert [getattr(by_position, name) for name in names] == list(values)
    assert [getattr(by_keyword, name) for name in names] == list(values)
    assert by_position == by_keyword


@CASES
def test_fields_are_frozen(cls, values, others):
    value = cls(*values)
    for name, other in zip(field_names(cls), others):
        with pytest.raises(AttributeError):
            setattr(value, name, other)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert [getattr(value, name) for name in field_names(cls)] == list(values)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@CASES
def test_repr_eq_and_hash_are_field_by_field(cls, values, others):
    names = field_names(cls)
    value = cls(*values)
    spelled = ", ".join(f"{name}={field!r}" for name, field in zip(names, values))
    assert repr(value) == f"{cls.__name__}({spelled})"
    # A field holding a dict makes the value unhashable, as it made the dataclass.
    assert hash_or_error(value) == hash_or_error(tuple(values))
    assert value == cls(*values)
    assert not value != cls(*values)
    assert value.__eq__(values) is NotImplemented
    assert value != values
    for index in range(len(names)):
        changed = values[:index] + (others[index],) + values[index + 1 :]
        assert value != cls(*changed)


@CASES
def test_pickle_and_copy_round_trip(cls, values, others):
    value = cls(*values)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == repr(value)


# -- what is not a field ------------------------------------------------------

def test_the_target_floors_are_not_a_field():
    values, _ = SAMPLES[ActuatorPolicy]
    policy = ActuatorPolicy(*values)
    assert policy._target_floors == ((0, 0.05), (2, 1e-5))
    assert "_target_floors" not in repr(policy)
    assert hash(policy) == hash(values)
    # Rebuilt, not copied, by pickle.
    assert pickle.loads(pickle.dumps(policy))._target_floors == policy._target_floors


def test_targets_are_held_in_resource_order_once():
    policy = ActuatorPolicy(targets=("filesystem", "cpu", "filesystem"))
    assert policy.targets == ("cpu", "filesystem")
    assert policy == ActuatorPolicy(targets=("cpu", "filesystem"))
    assert [RESOURCES[index] for index, _ in policy._target_floors] == ["cpu", "filesystem"]


def test_each_default_response_is_a_fresh_dict():
    first, second = ProgressModel(base_rate=1.0), ProgressModel(base_rate=1.0)
    assert first.response == {} and type(first.response) is dict
    assert first.response is not second.response
    first.response["cpu"] = Proportional()
    assert ProgressModel(base_rate=1.0).response == {}


def test_a_given_response_is_copied():
    response = {"cpu": Proportional()}
    model = ProgressModel(1.0, response)
    assert model.response == response and model.response is not response


@pytest.mark.parametrize(
    ("build", "attribute"),
    [
        (lambda items: EfficacyCurve(items), "points"),
        (lambda items: TraceSource([Verdict.BENIGN] * len(items)), "verdicts"),
        (lambda items: ThresholdSource(1, 0.5, [0.0] * len(items)), "values"),
    ],
    ids=["curve points", "trace verdicts", "stream values"],
)
def test_sequences_are_held_as_tuples(build, attribute):
    value = build(list(CURVE_POINTS))
    assert type(getattr(value, attribute)) is tuple


def test_the_log_index_is_built_once_on_first_use():
    records = (RECORD, RECORD._replace(process_id="a"), RECORD._replace(epoch=2, cumulative=6.0))
    log = ScenarioLog(2, records)
    assert vars(log) == {}
    assert log.process_ids() == ("a", "p")
    index = vars(log)["_by_process"]
    assert log.for_process("p") == (records[0], records[2])
    assert log.total_progress("p") == 6.0
    assert vars(log)["_by_process"] is index
    # The index is no field: a log that built it equals one that did not.
    assert log == ScenarioLog(2, records) and repr(log) == repr(ScenarioLog(2, records))
    assert "_by_process" not in vars(copy.copy(log))
