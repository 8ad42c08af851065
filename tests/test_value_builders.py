"""The per-epoch steps build values without their constructors, and
what they build is what the constructors would have built.

``step_epoch``, ``resolve_terminable`` and ``mark_completed`` build their
ledger with ``threat._build_ledger``, and ``actuate`` its moved shares
with ``actuation._build_shares``: behind the constructor's range check,
each stores the fields into ``object.__new__`` of a ``draft`` of the
type with plain slot stores, then assigns the public type to its
``__class__``. A value built that way must be indistinguishable from a
constructor-built copy of its fields: the same type, equality, hash,
repr, refusals and pickling. A field out of range must raise the
constructor's own message, and no draft instance may ever reach a
caller, which the whole runs of both drivers check.
"""

import copy
import dis
import gc
import itertools
import math
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quell import actuation, simulation, supervisor, threat
from quell._value import Value
from quell.actuation import RESOURCES, ActuationMode, ActuatorPolicy, ResourceShares, actuate
from quell.threat import (
    AssessmentPolicy,
    LifecycleState,
    ThreatLedger,
    Verdict,
    mark_completed,
    resolve_terminable,
    step_epoch,
)


DRAFTS = (threat._ThreatLedgerDraft, actuation._ResourceSharesDraft)


def refusals(value):
    """The message of each refused assignment and deletion on ``value``."""
    messages = []
    for name in (*value.__match_args__, "__class__", "other"):
        for act in (lambda: setattr(value, name, 1.0), lambda: delattr(value, name)):
            with pytest.raises(AttributeError) as raised:
                act()
            messages.append(str(raised.value))
    return messages


def assert_built_like_the_constructor(value):
    cls = type(value)
    assert cls is ThreatLedger or cls is ResourceShares
    built = cls(*value._astuple())
    assert value == built and built == value
    assert hash(value) == hash(built)
    assert repr(value) == repr(built)
    assert refusals(value) == refusals(built)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == repr(value)
        assert hash(twin) == hash(value)


def message(build, *fields):
    with pytest.raises(ValueError) as raised:
        build(*fields)
    return str(raised.value)


# -- ledgers ---------------------------------------------------------------------

scores = st.sampled_from([0, -0.0, 0.0, 1, 100, 100.0, 5e-324]) | st.floats(0.0, 100.0)
growth = st.sampled_from(
    [AssessmentPolicy.incremental(), AssessmentPolicy.exponential()]
) | st.builds(AssessmentPolicy.linear, st.floats(1.0, 5.0), st.floats(0.0, 5.0))
live_states = st.sampled_from(
    [LifecycleState.NORMAL, LifecycleState.SUSPICIOUS, LifecycleState.TERMINABLE]
)
ledgers = st.builds(
    ThreatLedger,
    scores,
    scores,
    scores,
    live_states,
    st.integers(0, 2000),
    st.integers(0, 500),
    st.sampled_from([None, "detector"]),
)


@given(
    ledgers,
    st.sampled_from(Verdict),
    growth,
    growth,
    st.integers(1, 50),
    st.integers(1, 3),
)
@example(ThreatLedger(), Verdict.BENIGN, AssessmentPolicy(), AssessmentPolicy(), 1, 1)
@example(
    ThreatLedger(threat_index=-0.0), Verdict.BENIGN, AssessmentPolicy(), AssessmentPolicy(), 5, 1
)
@example(
    ThreatLedger(2.0, 0.0, 3.0, LifecycleState.SUSPICIOUS),
    Verdict.BENIGN,
    AssessmentPolicy(),
    AssessmentPolicy.linear(1.0, 3.0),
    5,
    1,
)
def test_every_step_builds_a_ledger_like_the_constructor(
    ledger, verdict, penalty_policy, compensation_policy, headroom, new
):
    if ledger.state is LifecycleState.TERMINABLE:
        built = [resolve_terminable(ledger, verdict)]
    else:
        budget = ledger.measurements + headroom
        built = [step_epoch(ledger, verdict, penalty_policy, compensation_policy, budget, new)[0]]
    built.append(mark_completed(ledger))
    for value in built:
        assert_built_like_the_constructor(value)


ledger_fields = st.tuples(
    scores, scores, scores, st.sampled_from(LifecycleState), st.integers(0, 10**6),
    st.integers(0, 10**6), st.sampled_from([None, "detector", "completed"]),
)


@given(ledger_fields)
def test_the_ledger_builder_gives_what_the_constructor_gives(fields):
    value = threat._build_ledger(*fields)
    assert type(value) is ThreatLedger
    assert value == ThreatLedger(*fields)
    assert_built_like_the_constructor(value)


BAD_SCORES = [math.nan, math.inf, -math.inf, -1.0, -5e-324, 100.5, math.nextafter(100.0, math.inf)]
BAD_COUNTS = [-1, -(10**6), math.nan]


@given(ledger_fields, st.integers(0, 4), st.data())
def test_the_ledger_builder_raises_the_constructor_message(fields, index, data):
    bad = data.draw(st.sampled_from(BAD_SCORES if index < 3 else BAD_COUNTS))
    slot = index if index < 3 else index + 1  # skip the state
    fields = fields[:slot] + (bad,) + fields[slot + 1 :]
    assert message(threat._build_ledger, *fields) == message(ThreatLedger, *fields)


# -- shares ----------------------------------------------------------------------

TARGET_SETS = [
    targets for size in range(1, len(RESOURCES) + 1) for targets in itertools.combinations(RESOURCES, size)
]
floors = st.floats(1e-6, 0.99)
deltas = st.sampled_from([0.0, -0.0, 1.0, -1.0, 100.0, -100.0, 5e-324]) | st.floats(-100.0, 100.0)


@st.composite
def moves(draw, targets):
    policy = ActuatorPolicy(
        throttle_step=draw(st.floats(0.01, 0.99)),
        mode=draw(st.sampled_from(ActuationMode)),
        targets=targets,
        **{f"floor_{r}": draw(floors) for r in RESOURCES},
    )
    shares = ResourceShares(
        *[
            draw(st.floats(policy.floor(r) if r in targets else 0.0, 1.0, exclude_min=r not in targets))
            for r in RESOURCES
        ]
    )
    return shares, draw(deltas), policy


@pytest.mark.parametrize("targets", TARGET_SETS, ids="+".join)
@given(data=st.data())
def test_actuate_builds_shares_like_the_constructor(targets, data):
    shares, delta, policy = data.draw(moves(targets))
    moved = actuate(shares, delta, policy)
    assert_built_like_the_constructor(moved)
    for resource in RESOURCES:
        if resource not in targets:
            assert moved.get(resource) == shares.get(resource)


share = st.sampled_from([1, 1.0, 5e-324]) | st.floats(0.0, 1.0, exclude_min=True)
BAD_SHARES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, math.nextafter(1.0, math.inf), 2]


@given(st.tuples(share, share, share, share))
def test_the_shares_builder_gives_what_the_constructor_gives(fields):
    value = actuation._build_shares(*fields)
    assert type(value) is ResourceShares
    assert value == ResourceShares(*fields)
    assert_built_like_the_constructor(value)


@given(st.tuples(share, share, share, share), st.integers(0, 3), st.sampled_from(BAD_SHARES))
def test_the_shares_builder_raises_the_constructor_message(fields, index, bad):
    fields = fields[:index] + (bad,) + fields[index + 1 :]
    assert message(actuation._build_shares, *fields) == message(ResourceShares, *fields)


# -- the drafts ------------------------------------------------------------------


@pytest.mark.parametrize(
    ("builder", "cls"),
    [(threat._build_ledger, ThreatLedger), (actuation._build_shares, ResourceShares)],
    ids=["ledger", "shares"],
)
def test_the_builders_store_each_field_once_and_call_no_setter(builder, cls):
    code = builder.__code__
    module = vars(threat if cls is ThreatLedger else actuation)
    # No slot setter, bound or unpacked: every store is a plain store.
    assert "_setters" not in code.co_names
    assert not [name for name in code.co_names if type(module.get(name)).__name__ == "method-wrapper"]
    stores = [i.argval for i in dis.get_instructions(code) if i.opname == "STORE_ATTR"]
    assert stores == [*cls.__match_args__, "__class__"]


@pytest.mark.parametrize("draft", DRAFTS, ids=lambda draft: draft.__name__)
def test_a_draft_stores_plainly(draft):
    # Both, or CPython's shared set/delete slot keeps every store slow.
    assert draft.__setattr__ is object.__setattr__
    assert draft.__delattr__ is object.__delattr__


def draft_instances(*roots):
    """Every draft instance reachable from ``roots`` through values and containers."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, type) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in DRAFTS:
            found.append(obj)
        if isinstance(obj, (Value, tuple, list, dict)):
            stack.extend(gc.get_referents(obj))
    return found


def recording(function, results):
    def record(*args):
        result = function(*args)
        results.append(result)
        return result

    return record


def test_no_draft_leaves_a_supervised_fleet(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    import fleet

    from quell.config import load_scenario
    from quell.hostadapter import FakeHostAdapter

    results = []
    monkeypatch.setattr(supervisor, "respond", recording(supervisor.respond, results))
    monkeypatch.setattr(supervisor, "mark_completed", recording(supervisor.mark_completed, results))
    scenario = load_scenario(fleet.write_supervise_fleet(tmp_path, 1))
    reports = supervisor.supervise(scenario, FakeHostAdapter())
    assert len(results) > 45_000
    assert draft_instances(reports, results) == []


def test_no_draft_leaves_either_driver_on_the_differential_scenarios(monkeypatch):
    from test_supervisor import EpochStampedHost, random_scenario

    results = []
    record = recording(simulation.respond, results)
    for module in (simulation, supervisor):
        monkeypatch.setattr(module, "respond", record)
    logs = []
    for seed in range(40):
        scenario = random_scenario(random.Random(seed))
        logs.append(simulation.run_scenario(scenario))
        logs.append(supervisor.supervise(scenario, EpochStampedHost()))
    assert {type(ledger) for ledger, _ in results} == {ThreatLedger}
    assert {type(shares) for _, shares in results} == {ResourceShares}
    assert draft_instances(logs, results) == []
