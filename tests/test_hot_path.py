"""The per-epoch fast paths behave exactly like the code they stand for.

``clamp`` returns early for a zero and for a score already in range,
``step_epoch`` calls ``clamp`` only for a score that is not a float in
(0, 100] and is not a zero threat index, ``actuate`` computes one move
per call for all its targets, ``progress_rate`` folds terms each model
computes once, ``StochasticSource`` compares the draw's
top 53 bits with a cutoff computed once, the per-epoch functions read
enum members through module-level aliases, the fake host keeps a
compact call log and spells its CSV rows as f-strings, and ``log.csv``
spells each row as one ``%`` format. These tests hold each shortcut to the plain form it replaces.
The builders the steps use instead of the ledger's and the shares'
constructors are held to those constructors in
``tests/test_value_builders.py``, and the shares' early-exit ``__eq__``
to the value-type contract in ``tests/test_value_types.py``.
"""

import copy
import dis
import io
import itertools
import math
import pickle
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quell import actuation, detectors, simulation, supervisor, threat
from quell.actuation import RESOURCES, ActuationMode, ActuatorPolicy, ResourceShares
from quell.csvio import quote_cell, write_rows
from quell.detectors import GroundTruth, StochasticSource
from quell.hostadapter import (
    CALLS_CSV_HEADER,
    Ack,
    CallRecord,
    FakeHostAdapter,
    ProcessHandle,
    StaleHandleError,
    format_shares,
)
from quell.simulation import (
    LOG_CSV_HEADER,
    Cliff,
    Combiner,
    EpochRecord,
    LinearSaturating,
    ProgressModel,
    Proportional,
    ScenarioLog,
)
from quell.threat import AssessmentPolicy, LifecycleState, ThreatLedger, Verdict, clamp, step_epoch
from reference import float_draw_verdict, share_walk, uniform_draw

# Field values in order, and for each field another valid value; the
# shares the fake host's log is driven with are built from these.
SHARES_VALUES = (0.5, 0.9, 0.25, 0.75)
SHARES_OTHERS = (1.0, 0.5, 1e-6, 0.01)
share = st.floats(0.0, 1.0, exclude_min=True)


def share_tuple(shares):
    return tuple(getattr(shares, resource) for resource in RESOURCES)


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


# -- step_epoch calls clamp only outside (0, 100] -------------------------------

# Scores a ledger accepts: ints, both zeros, the ends of the range, and
# values between; grown, some leave the range and some stay ints.
scores = (
    st.sampled_from([0, -0.0, 0.0, 1, 7, 99, 100, 100.0, 0.5, SUBNORMAL])
    | st.integers(0, 100)
    | st.floats(0.0, 100.0)
)
growth = st.sampled_from(
    [AssessmentPolicy.incremental(), AssessmentPolicy.exponential()]
) | st.builds(
    AssessmentPolicy.linear,
    st.integers(1, 5) | st.floats(1.0, 5.0),
    st.integers(0, 5) | st.floats(0.0, 5.0),
)


def step_clamping_every_score(ledger, verdict, penalty_policy, compensation_policy, budget, new):
    """``step_epoch`` in its plain form: every grown score and the threat go through ``clamp``."""
    epoch, measurements = ledger.epoch + 1, ledger.measurements + new
    penalty, compensation, previous, state = (
        ledger.penalty, ledger.compensation, ledger.threat_index, ledger.state
    )
    if verdict is Verdict.MALICIOUS:
        state = LifecycleState.SUSPICIOUS
        penalty = clamp(penalty_policy.grow(penalty, epoch))
        raw = previous + penalty
    elif state is LifecycleState.SUSPICIOUS:
        compensation = clamp(compensation_policy.grow(compensation, epoch))
        raw = previous - compensation
    else:
        raw = previous
    threat_index = clamp(raw)
    if threat_index == 0.0:
        state = LifecycleState.NORMAL
    if measurements >= budget:
        state = LifecycleState.TERMINABLE
    stepped = ThreatLedger(penalty, compensation, threat_index, state, epoch, measurements)
    return stepped, threat_index - previous


def spelled(value):
    # ``repr`` tells 5 from 5.0 and 0.0 from -0.0, and is exact for floats.
    return type(value), repr(value)


@given(
    scores,
    scores,
    scores,
    st.sampled_from([LifecycleState.NORMAL, LifecycleState.SUSPICIOUS]),
    st.integers(0, 2000),
    st.integers(0, 50),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(Verdict),
    growth,
    growth,
)
@example(0, 0, 0, LifecycleState.NORMAL, 0, 0, 1, 1, Verdict.BENIGN, *[AssessmentPolicy()] * 2)
@example(0, 0, 5, LifecycleState.NORMAL, 0, 0, 1, 1, Verdict.BENIGN, *[AssessmentPolicy()] * 2)
@example(
    -0.0, -0.0, -0.0, LifecycleState.NORMAL, 0, 0, 1, 1, Verdict.BENIGN, *[AssessmentPolicy()] * 2
)
@example(
    -0.0, -0.0, -0.0, LifecycleState.SUSPICIOUS, 0, 0, 1, 1, Verdict.BENIGN,
    *[AssessmentPolicy.linear(1, 0)] * 2,
)
@example(
    3, 2, 5, LifecycleState.SUSPICIOUS, 4, 4, 1, 1, Verdict.MALICIOUS,
    *[AssessmentPolicy.linear(2, 1)] * 2,
)
@example(
    3, 2, 5, LifecycleState.SUSPICIOUS, 4, 4, 1, 1, Verdict.BENIGN,
    *[AssessmentPolicy.linear(1, 0)] * 2,
)
def test_step_epoch_matches_clamping_every_score(
    penalty, compensation, threat_index, state, epoch, measurements, room, new, verdict,
    penalty_policy, compensation_policy,
):
    ledger = ThreatLedger(penalty, compensation, threat_index, state, epoch, measurements)
    args = (ledger, verdict, penalty_policy, compensation_policy, measurements + room, new)
    got, got_delta = step_epoch(*args)
    want, want_delta = step_clamping_every_score(*args)
    assert [spelled(value) for value in got._astuple()] == [
        spelled(value) for value in want._astuple()
    ]
    assert spelled(got_delta) == spelled(want_delta)


# -- one move per actuate call --------------------------------------------------

unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
# Mostly deltas small enough that a share lands between its bounds.
deltas = st.floats(-3.0, 3.0) | st.floats(-1000.0, 1000.0) | st.sampled_from(
    [0.0, -0.0, SUBNORMAL, -SUBNORMAL, 1.0, -1.0, 100.0, -100.0, 1e-300, -1e-300]
)


@given(st.data())
def test_actuate_matches_the_per_target_walk(data):
    multiplicative = data.draw(st.booleans(), label="multiplicative")
    step = data.draw(unit_open, label="step")
    targets = data.draw(st.sets(st.sampled_from(RESOURCES), min_size=1), label="targets")
    floors = {resource: data.draw(unit_open, label=f"floor_{resource}") for resource in RESOURCES}
    start = {
        resource: data.draw(st.floats(floors[resource], 1.0) if resource in targets else share)
        for resource in RESOURCES
    }
    walk = data.draw(st.lists(deltas, max_size=30), label="deltas")
    policy = ActuatorPolicy(
        step,
        ActuationMode.MULTIPLICATIVE if multiplicative else ActuationMode.ADDITIVE,
        tuple(targets),
        **{f"floor_{resource}": floor for resource, floor in floors.items()},
    )
    targeted = {resource: floors[resource] for resource in RESOURCES if resource in targets}
    expected = share_walk(start, walk, step, multiplicative, targeted)
    shares = ResourceShares(**start)
    for delta, want in zip(walk, expected):
        moved = actuation.actuate(shares, delta, policy)
        assert [getattr(moved, r).hex() for r in RESOURCES] == [want[r].hex() for r in RESOURCES]
        assert (moved is shares) is (share_tuple(moved) == share_tuple(shares))
        shares = moved


# -- progress folds precomputed terms ---------------------------------------------


def plain_progress_rate(model, shares):
    """``progress_rate`` in its plain form: ``shares.get`` and ``min`` per curve."""
    combined = 1.0
    if model.combiner is Combiner.BOTTLENECK_MIN:
        for resource, curve in model.response.items():
            combined = min(combined, curve.multiplier(shares.get(resource)))
    else:
        for resource, curve in model.response.items():
            combined *= curve.multiplier(shares.get(resource))
    return model.base_rate * combined


# Every subset of the resources, in every order.
RESPONSE_ORDERS = [
    order for size in range(len(RESOURCES) + 1) for order in itertools.permutations(RESOURCES, size)
]
curves = st.one_of(
    st.just(Proportional()),
    st.builds(LinearSaturating, share),
    # ``min`` returns an int collapsed multiplier as it is, so the fold must too.
    st.builds(Cliff, share, st.sampled_from([0, 1, 0.0, 0.5]) | st.floats(0.0, 1.0)),
)
rate_shares = st.builds(
    ResourceShares, *[st.sampled_from([1.0, 0.5, SUBNORMAL]) | share for _ in RESOURCES]
)


@pytest.mark.parametrize("order", RESPONSE_ORDERS, ids=lambda order: "-".join(order) or "none")
@given(
    st.sampled_from(Combiner),
    st.floats(1e-3, 1e4) | st.sampled_from([SUBNORMAL, 1e300]),
    st.lists(curves, min_size=len(RESOURCES), max_size=len(RESOURCES)),
    rate_shares,
)
@settings(max_examples=25)
def test_progress_rate_matches_the_plain_loop(order, combiner, base_rate, drawn, shares):
    model = ProgressModel(base_rate, dict(zip(order, drawn)), combiner)
    assert [index for index, _ in model._terms] == [RESOURCES.index(r) for r in order]
    assert repr(simulation.progress_rate(model, shares)) == repr(plain_progress_rate(model, shares))


def test_the_terms_are_not_a_field():
    response = {"memory": Cliff(0.5, 0), "cpu": Proportional()}
    first = ProgressModel(2.0, response, Combiner.PRODUCT)
    second = ProgressModel(2.0, response, Combiner.PRODUCT)
    # Equal models with different terms still compare and print alike.
    object.__setattr__(second, "_terms", ())
    assert first == second
    # Hashing reads the fields alone, and the response map is not hashable.
    for model in (first, second):
        with pytest.raises(TypeError, match="unhashable type: 'mappingproxy'"):
            hash(model)
    assert repr(first) == repr(second) and "_terms" not in repr(first)
    assert ProgressModel.__match_args__ == ("base_rate", "response", "combiner")
    # Rebuilt from the fields, not copied, by pickle and copy.
    for twin in (pickle.loads(pickle.dumps(second)), copy.copy(second), copy.deepcopy(second)):
        assert twin == first
        assert [index for index, _ in twin._terms] == [1, 0]
        assert [method.__self__ for _, method in twin._terms] == list(twin.response.values())


# -- stochastic verdicts compare the draw's bits with a cutoff ------------------

probabilities = st.floats(0.0, 1.0) | st.sampled_from(
    [0.0, 1.0, SUBNORMAL, 2.2250738585072014e-308, 2.0**-53, math.nextafter(1.0, 0.0)]
)
seeds = st.integers(0, 2**64 - 1)


def source_for(probability, seed, truth=GroundTruth.ATTACK):
    """A source whose ground truth picks ``probability``; the other rate is a decoy."""
    if truth is GroundTruth.ATTACK:
        return StochasticSource(probability, 0.5, truth, seed)
    return StochasticSource(0.5, probability, truth, seed)


@given(
    seeds,
    st.lists(st.integers(0, 2**40), min_size=1, max_size=20),
    probabilities,
    st.sampled_from(GroundTruth),
)
def test_verdict_matches_the_float_draw(seed, epochs, probability, truth):
    source = source_for(probability, seed, truth)
    for epoch in epochs:
        want = float_draw_verdict(seed, epoch, probability)
        assert source.verdict_at(epoch).value == want


@given(seeds, st.integers(0, 2**40))
def test_a_probability_equal_to_the_draw_and_its_neighbours(seed, epoch):
    draw = uniform_draw(seed, epoch)
    for probability in (math.nextafter(draw, 0.0), draw, math.nextafter(draw, 1.0)):
        got = source_for(probability, seed).verdict_at(epoch)
        assert got.value == float_draw_verdict(seed, epoch, probability)
        assert (got is Verdict.MALICIOUS) is (probability > draw)


@given(st.integers(0, 2**53 - 1), probabilities)
@example(0, 0.0)
@example(0, SUBNORMAL)
@example(1, SUBNORMAL)
@example(1, 2.0**-53)
@example(1, math.nextafter(2.0**-53, 1.0))
@example(2**53 - 1, 1.0)
@example(2**53 - 1, math.nextafter(1.0, 0.0))
def test_the_cutoff_is_the_draw_scaled_by_a_power_of_two(bits, probability):
    # Python compares an int with a float exactly, and both products are exact.
    assert (bits < probability * 2.0**53) is (bits * 2.0**-53 < probability)


def test_the_cutoff_is_not_a_field():
    first = StochasticSource(0.3, 0.1, GroundTruth.ATTACK, 5)
    second = StochasticSource(0.3, 0.1, GroundTruth.ATTACK, 5)
    assert first == second and hash(first) == hash(second)
    assert "_cutoff" not in repr(first)
    assert StochasticSource(0.3, 0.1, GroundTruth.BENIGN, 5)._cutoff == 0.1 * 2.0**53
    # Rebuilt, not copied, by pickle and copy.
    for twin in (pickle.loads(pickle.dumps(first)), copy.copy(first)):
        assert twin._cutoff == 0.3 * 2.0**53


# -- no enum class lookups on the per-epoch path ------------------------------

ENUM_CLASSES = {
    "LifecycleState", "Verdict", "GrowthFamily", "ActuationMode", "GroundTruth", "Combiner",
}

HOT_PATH = [
    threat.clamp,
    threat.step_epoch,
    threat.resolve_terminable,
    threat.AssessmentPolicy.grow,
    threat._build_ledger,
    actuation.actuate,
    actuation._build_shares,
    detectors.StochasticSource.verdict_at,
    detectors.ThresholdSource.verdict_at,
    detectors.TraceSource.verdict_at,
    simulation.progress_rate,
    simulation.respond,
    simulation.run_scenario,
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
    assert "value" not in simulation.run_scenario.__code__.co_names


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


# -- the fake host's compact call log ---------------------------------------------

# Identifiers that the CSV writer must quote, next to one it need not.
IDENTS = ("worker", "a,b", 'say "hi"', "two\nlines", " padded ")
# Shares drawn from SHARES_VALUES or from a field-by-field variant of it
# often equal, or differ in one field only from, shares drawn before.
VARIANTS = [SHARES_VALUES] + [
    SHARES_VALUES[:index] + (other,) + SHARES_VALUES[index + 1 :]
    for index, other in enumerate(SHARES_OTHERS)
]
shares_values = st.sampled_from(VARIANTS).map(lambda values: ResourceShares(*values)) | st.builds(
    ResourceShares, *[share for _ in RESOURCES]
)
# Every identifier but the last is spawned before the scripted steps.
steps = st.lists(
    st.tuples(
        st.sampled_from(("apply", "apply", "apply", "spawn", "terminate", "exit")),
        st.sampled_from(IDENTS + ("ghost",)),
        shares_values,
    ),
    min_size=10,
    max_size=60,
)


class EagerHost:
    """Reference for ``FakeHostAdapter``: a ``CallRecord`` built and its
    args formatted on every call, and a new ``Ack`` for every answer."""

    def __init__(self, unsupported):
        self.unsupported = tuple(r for r in RESOURCES if r in unsupported)
        self.calls, self.requested, self.shares, self.alive = [], [], {}, {}

    def log(self, ident, call, shares):
        args = "" if shares is None else format_shares(shares)
        self.calls.append(CallRecord(len(self.calls), ident, call, args))
        self.requested.append(shares)

    def step(self, kind, ident, shares):
        if kind == "spawn":
            if ident in self.shares:
                raise ValueError(ident)
            self.shares[ident], self.alive[ident] = ResourceShares(), True
            self.log(ident, "attach", ResourceShares())
            return None
        if ident not in self.shares:
            raise StaleHandleError(ident)
        if kind == "exit":
            self.alive[ident] = False
            return None
        if kind == "terminate":
            if not self.alive[ident]:
                return Ack(noop=True)
            self.alive[ident] = False
            self.log(ident, "terminate", None)
            return Ack()
        if not self.alive[ident]:
            raise StaleHandleError(ident)
        self.log(ident, "apply_shares", shares)
        current = self.shares[ident]
        effective = ResourceShares(
            **{r: getattr(current if r in self.unsupported else shares, r) for r in RESOURCES}
        )
        noop = share_tuple(effective) == share_tuple(current)
        self.shares[ident] = effective
        return Ack(noop=noop, unsupported=self.unsupported)


def run_step(host, kind, ident, shares):
    handle = ProcessHandle(ident)
    try:
        if kind == "spawn":
            return host.spawn(ident), None
        if kind == "exit":
            return host.script_natural_exit(handle), None
        if kind == "terminate":
            return host.terminate(handle), None
        return host.apply_shares(handle, shares), None
    except (StaleHandleError, ValueError) as exc:
        return None, type(exc)


@given(st.sets(st.sampled_from(RESOURCES)), steps)
def test_compact_log_matches_the_eager_one(unsupported, script):
    adapter = FakeHostAdapter(unsupported=tuple(unsupported))
    eager = EagerHost(unsupported)
    for kind, ident, shares in [("spawn", ident, None) for ident in IDENTS] + script:
        answer, raised = run_step(adapter, kind, ident, shares)
        try:
            want = eager.step(kind, ident, shares)
        except (StaleHandleError, ValueError) as exc:
            assert raised is type(exc)
            continue
        assert raised is None
        if kind in ("apply", "terminate"):
            assert answer == want

    calls = adapter.calls
    assert calls == eager.calls
    assert adapter.calls is not calls

    exported, rewritten = io.StringIO(), io.StringIO()
    adapter.export_calls_csv(exported)
    write_rows(rewritten, CALLS_CSV_HEADER, [c.csv_row() for c in calls])
    assert exported.getvalue() == rewritten.getvalue()

    # Equal shares, however often built, share one args string.
    by_value = {}
    for record, shares in zip(calls, eager.requested):
        if shares is not None:
            assert by_value.setdefault(share_tuple(shares), record.args) is record.args


@given(st.builds(ResourceShares, *[share for _ in RESOURCES]))
@example(ResourceShares(1e-300, 0.5, 1.0, 5e-7))
def test_shares_cells_need_no_quoting(shares):
    # ``export_calls_csv`` spells each row as one f-string on this promise.
    cell = format_shares(shares)
    assert quote_cell(cell) == cell


def test_fake_apply_builds_no_record_and_no_ack():
    named = {
        name
        for function in (FakeHostAdapter.apply_shares, FakeHostAdapter._format)
        for code in code_objects(function.__code__)
        for name in code.co_names
    }
    assert not named & {"CallRecord", "Ack"}


# -- log.csv rows as one % format -------------------------------------------------

signed = st.sampled_from(
    [0.0, -0.0, 1e-7, -1e-7, 5e-7, -5e-7, 0.5, 1.0, 100.0, 1234.5678905]
) | st.floats(-1e6, 1e6)
records = st.builds(
    EpochRecord,
    st.integers(0, 10**6),
    st.sampled_from(IDENTS),
    st.sampled_from(["none", "malicious", "benign"]),
    signed,
    signed,
    signed,
    st.sampled_from([state.value for state in LifecycleState]),
    *[signed] * 6,
)


@given(st.lists(records, max_size=40))
@example([EpochRecord(3, ident, "benign", *[-0.0] * 3, "normal", *[-0.0] * 6) for ident in IDENTS])
@example([EpochRecord(0, "worker", "none", *[0.0] * 3, "normal", *[-0.0] * 6)] * 2)
def test_log_lines_match_the_csv_writer(rows):
    log = ScenarioLog(epochs=1, records=tuple(rows))
    spelled_log, written = io.StringIO(), io.StringIO()
    log.write_csv(spelled_log)
    write_rows(written, LOG_CSV_HEADER, [record.csv_row() for record in rows])
    assert spelled_log.getvalue() == written.getvalue()
