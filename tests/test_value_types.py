"""The value types built on ``quell._value.Value`` behave as the frozen
dataclasses they replace, and only ``Scenario``, which a caller copies
with ``dataclasses``, stays a dataclass.

``@dataclass`` generates its methods with ``exec`` at import, which every
CLI start pays; ``Value`` gives the same behaviour from one base.
"""

import ast
import copy
import inspect
import pickle
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quell
from quell import actuation, threat
from quell._value import Value
from quell.actuation import (
    RESOURCES,
    ActuationMode,
    ActuatorPolicy,
    ResourceShares,
    SchedulerModel,
)
from quell.detectors import GroundTruth, StochasticSource, ThresholdSource, TraceSource
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
from quell.supervisor import SupervisionReport
from quell.threat import AssessmentPolicy, GrowthFamily, LifecycleState, ThreatLedger, Verdict

PACKAGE = Path(quell.__file__).parent

# -- which classes are dataclasses ----------------------------------------------

# ``bench/checks.py`` copies a ``Scenario`` with ``dataclasses.replace``,
# so it keeps the decorator; every other value type uses ``Value``.
DATACLASSES = {("simulation.py", "Scenario")}


def parsed_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (isinstance(target, ast.Name) and target.id == "dataclass") or (
        isinstance(target, ast.Attribute) and target.attr == "dataclass"
    )


def test_only_the_copied_types_are_dataclasses():
    decorated = set()
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass_decorator, node.decorator_list)):
                decorated.add((name, node.name))
    assert decorated == DATACLASSES


def imports_dataclasses(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"


def test_only_the_scenario_module_imports_dataclasses():
    importing = {
        name for name, tree in parsed_modules() if any(map(imports_dataclasses, ast.walk(tree)))
    }
    assert importing == {name for name, _ in DATACLASSES}


# -- the converted types ----------------------------------------------------------

CURVE_POINTS = (CurvePoint(1, 0.5, 0.5), CurvePoint(10, 0.9, 0.1))
OTHER_POINTS = (CurvePoint(2, 0.6, 0.4), CurvePoint(5, 0.7, 0.2), CurvePoint(9, 0.8, 0.3))
RECORD = EpochRecord(1, "p", "benign", 0.0, 1.0, 0.0, "normal", 1.0, 1.0, 1.0, 1.0, 2.0, 4.0)

# Field values in order, and for each field another valid value.
LEDGER_VALUES = (12.5, 3.0, 9.5, LifecycleState.SUSPICIOUS, 7, 8, None)
LEDGER_OTHERS = (0.0, 4.0, 100.0, LifecycleState.TERMINATED, 8, 9, "detector")
SHARES_VALUES = (0.5, 0.9, 0.25, 0.75)
SHARES_OTHERS = (1.0, 0.5, 1e-6, 0.01)
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
    ThreatLedger: (LEDGER_VALUES, LEDGER_OTHERS),
    ResourceShares: (SHARES_VALUES, SHARES_OTHERS),
    StochasticSource: (
        (0.9, 0.1, GroundTruth.ATTACK, 5),
        (0.8, 0.2, GroundTruth.BENIGN, 2**64 - 1),
    ),
    SupervisionReport: (
        ("p", "terminated", 5, "detector", ResourceShares(0.5)),
        ("q", "normal", 6, None, ResourceShares()),
    ),
}
CASES = pytest.mark.parametrize(
    ("cls", "values", "others"),
    [(cls, *sample) for cls, sample in SAMPLES.items()],
    ids=[cls.__name__ for cls in SAMPLES],
)


def field_names(cls) -> list[str]:
    return list(cls.__match_args__)


# The drafts the per-epoch builders store into, each with the public type
# it becomes. ``tests/test_value_builders.py`` checks that none escapes.
DRAFTS = {threat._ThreatLedgerDraft: ThreatLedger, actuation._ResourceSharesDraft: ResourceShares}


def test_every_value_type_is_sampled():
    # A subclass is sampled, or it is the draft of a sampled type: a direct
    # subclass that adds no slots.
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = set(subclasses(Value))
    assert found - set(DRAFTS) == set(SAMPLES)
    assert set(DRAFTS) <= found
    for sub, public in DRAFTS.items():
        assert public in SAMPLES
        assert sub.__bases__ == (public,)
        assert sub.__dict__["__slots__"] == ()


@CASES
def test_signature_matches_the_fields(cls, values, others):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == field_names(cls)
    assert {p.kind for p in parameters} <= {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert not hasattr(cls(*values), "__dict__")


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
    # A field holding a map makes the value unhashable, as a dict made the dataclass.
    assert hash_or_error(value) == hash_or_error(value._astuple())
    assert type(hash_or_error(value)) is type(hash_or_error(tuple(values)))
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


@CASES
def test_a_copy_with_one_field_changed_keeps_the_others(cls, values, others):
    names = field_names(cls)
    value = cls(*values)
    for index, name in enumerate(names):
        changed = cls(**{**dict(zip(names, value._astuple())), name: others[index]})
        assert type(changed) is cls
        assert changed._astuple() == (*values[:index], others[index], *values[index + 1 :])


# -- the ledger and the shares, built on every epoch ------------------------------

@pytest.mark.parametrize(
    ("cls", "defaults"),
    [
        (ThreatLedger, (0.0, 0.0, 0.0, LifecycleState.NORMAL, 0, 0, None)),
        (ResourceShares, (1.0, 1.0, 1.0, 1.0)),
    ],
    ids=["ledger", "shares"],
)
def test_every_field_has_its_default(cls, defaults):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(p.default for p in parameters) == defaults
    assert cls()._astuple() == defaults


def test_a_copy_through_the_constructor_still_validates():
    for cls, name, bad, message in [
        (ThreatLedger, "penalty", -1.0, r"penalty must lie in \[0, 100\]"),
        (ResourceShares, "memory", 0.0, r"memory share must lie in \(0, 1\]"),
    ]:
        fields = dict(zip(field_names(cls), cls()._astuple()))
        with pytest.raises(ValueError, match=message):
            cls(**{**fields, name: bad})


share = st.floats(0.0, 1.0, exclude_min=True)
four_shares = st.lists(share, min_size=4, max_size=4)


@given(four_shares, four_shares, st.lists(st.booleans(), min_size=4, max_size=4))
@example([0.5, 0.9, 0.25, 0.75], [0.5, 0.9, 0.25, 0.5], [False] * 4)
@example([0.5, 0.9, 0.25, 0.75], [1.0, 1.0, 1.0, 1.0], [True] * 4)
def test_shares_eq_and_hash_follow_the_field_tuples(first, second, kept):
    # ``b`` is built separately, taking each field from ``first`` where
    # ``kept`` says so and from ``second`` elsewhere.
    a = ResourceShares(*first)
    b = ResourceShares(*(f if keep else s for f, s, keep in zip(first, second, kept)))
    same = a._astuple() == b._astuple()
    assert (a == b) is same
    assert (a != b) is not same
    if a == b:
        assert hash(a) == hash(b)


def test_shares_leave_other_classes_to_the_other_operand():
    shares = ResourceShares()
    assert shares.__eq__(None) is NotImplemented
    assert shares.__eq__(shares._astuple()) is NotImplemented
    assert shares != shares._astuple()
    assert shares != None  # noqa: E711


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


def test_targets_may_come_from_any_iterable():
    targets = ("network", "cpu")
    assert ActuatorPolicy(targets=iter(targets)) == ActuatorPolicy(targets=targets)
    assert ActuatorPolicy(targets=iter(("cpu",)))._target_floors == ((0, 0.01),)
    with pytest.raises(ValueError, match="at least one target resource is required"):
        ActuatorPolicy(targets=iter(()))


@CASES
def test_container_fields_are_read_only(cls, values, others):
    value = cls(*values)
    for copied in (value, pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        for name in field_names(cls):
            field = getattr(copied, name)
            assert not isinstance(field, (dict, list, set, bytearray)), name
            if isinstance(field, MappingProxyType):
                with pytest.raises(TypeError):
                    field["cpu"] = 1.0
                with pytest.raises(TypeError):
                    del field[next(iter(field), "cpu")]


def test_a_checked_map_cannot_be_changed_after_the_check():
    model = SchedulerModel(target_latency_ms=10.0, weights={"a": 1.0})
    with pytest.raises(TypeError):
        model.weights["b"] = -5.0
    with pytest.raises(TypeError):
        ProgressModel(1.0).response["gpu"] = Proportional()
    assert model.weights == {"a": 1.0}


@pytest.mark.parametrize(
    ("build", "given"),
    [
        (lambda given: ProgressModel(1.0, given).response, {"cpu": Proportional()}),
        (lambda given: SchedulerModel(10.0, given).weights, {"a": 1.0}),
        (lambda given: Baseline(3, given).totals, {"p": 3.0}),
    ],
    ids=["response", "weights", "totals"],
)
def test_a_given_map_is_copied(build, given):
    held = build(given)
    expected = dict(given)
    given.clear()
    assert held == expected and type(held) is MappingProxyType


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


def test_the_log_index_is_built_with_the_log():
    records = (RECORD, RECORD._replace(process_id="a"), RECORD._replace(epoch=2, cumulative=6.0))
    log = ScenarioLog(2, records)
    index = log._by_process
    assert index == {"a": (records[1],), "p": (records[0], records[2])}
    assert log.process_ids() == ("a", "p")
    assert log.for_process("p") == (records[0], records[2])
    assert log.total_progress("p") == 6.0
    assert log._by_process is index
    # The index is no field: equality and repr read the fields alone.
    other = ScenarioLog(2, records)
    object.__setattr__(other, "_by_process", {})
    assert log == other and repr(log) == repr(other)
    # A copy is rebuilt through the constructor, with an index of its own.
    twin = copy.copy(log)
    assert twin._by_process == index and twin._by_process is not index
