"""The per-epoch fast paths behave exactly like the code they stand for.

``ThreatLedger`` and ``ResourceShares`` have hand-written constructors,
``clamp`` returns early for a score already in range, and the per-epoch
functions read enum members through module-level aliases. These tests
hold each shortcut to the plain form it replaces.
"""

import dataclasses
import dis
import inspect
import math
import types

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quell import actuation, detectors, simulation, supervisor, threat
from quell.actuation import ResourceShares
from quell.threat import LifecycleState, ThreatLedger, clamp

# -- hand-written constructors -------------------------------------------------

# Field values in order, and for each field another valid value.
LEDGER_VALUES = (12.5, 3.0, 9.5, LifecycleState.SUSPICIOUS, 7, 8, None)
LEDGER_OTHERS = (0.0, 4.0, 100.0, LifecycleState.TERMINATED, 8, 9, "detector")
SHARES_VALUES = (0.5, 0.9, 0.25, 0.75)
SHARES_OTHERS = (1.0, 0.5, 1e-6, 0.01)
CASES = pytest.mark.parametrize(
    ("cls", "values", "others"),
    [(ThreatLedger, LEDGER_VALUES, LEDGER_OTHERS), (ResourceShares, SHARES_VALUES, SHARES_OTHERS)],
    ids=["ledger", "shares"],
)


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls", [ThreatLedger, ResourceShares])
def test_signature_matches_the_fields(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == [
        (f.name, f.default) for f in dataclasses.fields(cls)
    ]
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@CASES
def test_positional_and_keyword_construction_agree(cls, values, others):
    names = field_names(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert [getattr(by_position, name) for name in names] == list(values)
    assert [getattr(by_keyword, name) for name in names] == list(values)
    # The instance dict holds exactly the fields, in field order.
    assert list(vars(by_position).items()) == list(zip(names, values))
    assert list(vars(by_keyword).items()) == list(zip(names, values))


@CASES
def test_fields_are_frozen(cls, values, others):
    value = cls(*values)
    for name, other in zip(field_names(cls), others):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1


@CASES
def test_repr_eq_and_hash_are_field_by_field(cls, values, others):
    names = field_names(cls)
    value = cls(*values)
    spelled = ", ".join(f"{name}={field!r}" for name, field in zip(names, values))
    assert repr(value) == f"{cls.__name__}({spelled})"
    assert hash(value) == hash(tuple(values))
    assert value == cls(*values)
    assert not value != cls(*values)
    for index in range(len(names)):
        changed = values[:index] + (others[index],) + values[index + 1 :]
        assert value != cls(*changed)


@CASES
def test_replace_changes_only_the_named_field(cls, values, others):
    names = field_names(cls)
    value = cls(*values)
    for index, name in enumerate(names):
        replaced = dataclasses.replace(value, **{name: others[index]})
        assert type(replaced) is cls
        assert [getattr(replaced, n) for n in names] == [
            *values[:index], others[index], *values[index + 1 :]
        ]


def test_replace_still_validates():
    with pytest.raises(ValueError, match=r"penalty must lie in \[0, 100\]"):
        dataclasses.replace(ThreatLedger(), penalty=-1.0)
    with pytest.raises(ValueError, match=r"memory share must lie in \(0, 1\]"):
        dataclasses.replace(ResourceShares(), memory=0.0)


# -- clamp -------------------------------------------------------------------

SUBNORMAL = 5e-324
finite = st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    min_value=-(2**1000), max_value=2**1000
)


@given(finite)
@example(-0.0)
@example(0.0)
@example(100.0)
@example(math.nextafter(100.0, math.inf))
@example(math.nextafter(0.0, math.inf))
@example(SUBNORMAL)
@example(-SUBNORMAL)
@example(2.2250738585072014e-308)
@example(0)
@example(100)
@example(101)
@example(-1)
@example(True)
def test_clamp_is_bit_identical_to_min_max(value):
    got = clamp(value)
    want = max(0.0, min(float(value), 100.0))
    assert type(got) is float
    assert got.hex() == want.hex()
    assert math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
def test_clamp_still_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="score must be finite"):
        clamp(bad)


# -- no enum class lookups on the per-epoch path ------------------------------

ENUM_CLASSES = {"LifecycleState", "Verdict", "GrowthFamily", "ActuationMode", "GroundTruth"}

HOT_PATH = [
    threat.clamp,
    threat.step_epoch,
    threat.resolve_terminable,
    threat.AssessmentPolicy.grow,
    threat.ThreatLedger.__init__,
    actuation._move,
    actuation.actuate,
    actuation.ResourceShares.__init__,
    detectors.StochasticSource.verdict_at,
    detectors.ThresholdSource.verdict_at,
    detectors.TraceSource.verdict_at,
    simulation.respond,
    simulation._run_process,
    supervisor.supervise,
]


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


@pytest.mark.parametrize("function", HOT_PATH, ids=lambda f: f.__qualname__)
def test_no_enum_class_is_read_per_epoch(function):
    # ``Enum`` classes answer attribute reads through their metaclass's
    # slow ``__getattr__`` path, so the per-epoch code reads aliases.
    named = {name for code in code_objects(function.__code__) for name in code.co_names}
    assert not named & ENUM_CLASSES


def test_records_read_member_values_directly():
    # ``value`` is a property on every member; ``_value_`` is the plain
    # attribute it returns.
    assert "value" not in simulation._run_process.__code__.co_names


# -- the supervisor applies on identity -----------------------------------------


def test_supervise_compares_nothing_by_value():
    # ``respond`` hands back the shares it was given unless one moved, so
    # the loop applies on ``is not`` alone and never calls ``__eq__``.
    compared = [
        instruction.argval
        for code in code_objects(supervisor.supervise.__code__)
        for instruction in dis.get_instructions(code)
        if instruction.opname == "COMPARE_OP" and instruction.argval in ("==", "!=")
    ]
    assert compared == []
