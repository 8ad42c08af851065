"""Threat ledger: score arithmetic, clamping, and the lifecycle machine."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quell.threat import (
    SCORE_CEILING,
    AssessmentPolicy,
    GrowthFamily,
    LifecycleState,
    ThreatLedger,
    Verdict,
    assess,
    clamp,
    mark_completed,
    resolve_terminable,
    step_epoch,
)

from reference import ledger_trajectory

INC = AssessmentPolicy.incremental()


def walk(verdicts, budget, penalty_policy=INC, compensation_policy=INC):
    """Drive a fresh ledger through the full protocol, one verdict each."""
    ledger = ThreatLedger()
    trail = []
    for verdict in verdicts:
        if ledger.state is LifecycleState.TERMINATED:
            break
        if ledger.state is LifecycleState.TERMINABLE:
            ledger = resolve_terminable(ledger, verdict)
        else:
            ledger, _ = step_epoch(ledger, verdict, penalty_policy, compensation_policy, budget)
        trail.append(ledger)
    return trail


class TestClamp:
    def test_upper(self):
        assert clamp(150) == 100.0

    def test_lower(self):
        assert clamp(-3) == 0.0

    def test_identity_inside_range(self):
        assert clamp(42.5) == 42.5

    def test_idempotent(self):
        for value in (-7.0, 0.0, 55.5, 100.0, 240.0):
            assert clamp(clamp(value)) == clamp(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            clamp(bad)


class TestAssessmentPolicy:
    def test_incremental(self):
        assert INC.grow(0.0, 5) == 1.0
        assert INC.grow(7.5, 0) == 8.5

    def test_linear(self):
        policy = AssessmentPolicy.linear(2.0, 1.0)
        assert policy.grow(3.0, 9) == 7.0

    def test_exponential_uses_epoch(self):
        policy = AssessmentPolicy.exponential()
        assert policy.grow(1.0, 3) == 9.0
        assert policy.grow(0.0, 10) == 1.0

    def test_exponential_overflow_saturates(self):
        policy = AssessmentPolicy.exponential()
        assert policy.grow(1.0, 100_000) == SCORE_CEILING

    @pytest.mark.parametrize("a,b", [(0.5, 1.0), (1.0, -0.1), (math.nan, 0.0)])
    def test_bad_linear_constants_rejected(self, a, b):
        with pytest.raises(ValueError):
            AssessmentPolicy.linear(a, b)


class TestAssess:
    def test_penalty_from_zero(self):
        assert assess(INC, 0.0, 1) == 1.0

    def test_penalty_clamps_at_ceiling(self):
        assert assess(INC, 100.0, 1) == 100.0

    def test_compensation_from_zero(self):
        assert assess(INC, 0.0, 1) == 1.0

    def test_compensation_clamps(self):
        assert assess(INC, 99.5, 1) == 100.0

    def test_linear_example(self):
        assert assess(AssessmentPolicy.linear(2.0, 1.0), 3.0, 1) == 7.0

    @pytest.mark.parametrize("prev", [-1.0, 101.0, math.nan])
    def test_out_of_range_previous_rejected(self, prev):
        with pytest.raises(ValueError):
            assess(INC, prev, 1)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            assess(INC, 0.0, -1)

    @given(
        prev=st.floats(min_value=0.0, max_value=100.0),
        epoch=st.integers(min_value=0, max_value=50),
        policy=st.sampled_from(
            [INC, AssessmentPolicy.linear(1.5, 0.0), AssessmentPolicy.exponential()]
        ),
    )
    def test_growth_never_shrinks(self, prev, epoch, policy):
        grown = assess(policy, prev, epoch)
        assert prev <= grown <= SCORE_CEILING


class TestStepEpoch:
    def test_first_malicious_verdict(self):
        ledger, delta = step_epoch(ThreatLedger(), Verdict.MALICIOUS, INC, INC, 10)
        assert ledger.penalty == 1.0
        assert ledger.threat_index == 1.0
        assert ledger.state is LifecycleState.SUSPICIOUS
        assert (ledger.epoch, ledger.measurements) == (1, 1)
        assert delta == 1.0

    def test_four_malicious_verdicts_triangular_sum(self):
        trail = walk([Verdict.MALICIOUS] * 4, budget=10)
        assert trail[-1].penalty == 4.0
        assert trail[-1].threat_index == 10.0

    def test_benign_compensates_back_to_normal(self):
        suspect, _ = step_epoch(ThreatLedger(), Verdict.MALICIOUS, INC, INC, 10)
        cleared, delta = step_epoch(suspect, Verdict.BENIGN, INC, INC, 10)
        assert cleared.compensation == 1.0
        assert cleared.threat_index == 0.0
        assert cleared.state is LifecycleState.NORMAL
        assert delta == -1.0

    def test_benign_in_normal_state_only_counts(self):
        ledger, delta = step_epoch(ThreatLedger(), Verdict.BENIGN, INC, INC, 10)
        assert delta == 0.0
        assert ledger.compensation == 0.0
        assert ledger.penalty == 0.0
        assert ledger.state is LifecycleState.NORMAL
        assert (ledger.epoch, ledger.measurements) == (1, 1)

    def test_budget_fill_enters_terminable(self):
        ledger, _ = step_epoch(ThreatLedger(), Verdict.BENIGN, INC, INC, 1)
        assert ledger.state is LifecycleState.TERMINABLE

    def test_scores_survive_recovery(self):
        # Recovery clears the threat index, never the history behind it.
        trail = walk([Verdict.MALICIOUS, Verdict.BENIGN, Verdict.MALICIOUS], budget=10)
        assert trail[-1].penalty == 2.0
        assert trail[-1].compensation == 1.0
        assert trail[-1].threat_index == 2.0

    def test_multi_measurement_epochs(self):
        ledger, _ = step_epoch(ThreatLedger(), Verdict.BENIGN, INC, INC, 10, new_measurements=4)
        assert ledger.measurements == 4
        assert ledger.epoch == 1

    def test_stepping_terminable_rejected(self):
        ledger, _ = step_epoch(ThreatLedger(), Verdict.BENIGN, INC, INC, 1)
        with pytest.raises(ValueError):
            step_epoch(ledger, Verdict.BENIGN, INC, INC, 1)

    def test_bad_budget_and_counts_rejected(self):
        with pytest.raises(ValueError):
            step_epoch(ThreatLedger(), Verdict.BENIGN, INC, INC, 0)
        with pytest.raises(ValueError):
            step_epoch(ThreatLedger(), Verdict.BENIGN, INC, INC, 5, new_measurements=0)
        with pytest.raises(ValueError):
            step_epoch(ThreatLedger(measurements=5), Verdict.BENIGN, INC, INC, 5)


class TestResolveTerminable:
    def fill(self):
        ledger, _ = step_epoch(ThreatLedger(), Verdict.MALICIOUS, INC, INC, 1)
        return ledger

    def test_malicious_terminates(self):
        done = resolve_terminable(self.fill(), Verdict.MALICIOUS)
        assert done.state is LifecycleState.TERMINATED
        assert done.exit_reason == "detector"

    def test_benign_keeps_waiting(self):
        kept = resolve_terminable(self.fill(), Verdict.BENIGN)
        assert kept.state is LifecycleState.TERMINABLE
        assert kept.epoch == self.fill().epoch + 1
        assert kept.measurements == self.fill().measurements

    @pytest.mark.parametrize("exit_reason", [None, "earlier"])
    def test_every_field_but_epoch_state_and_exit_is_kept(self, exit_reason):
        fields = dict(
            penalty=7.5,
            compensation=2.25,
            threat_index=5.25,
            state=LifecycleState.TERMINABLE,
            epoch=9,
            measurements=12,
            exit_reason=exit_reason,
        )
        ledger = ThreatLedger(**fields)
        assert resolve_terminable(ledger, Verdict.BENIGN) == ThreatLedger(**{**fields, "epoch": 10})
        assert resolve_terminable(ledger, Verdict.MALICIOUS) == ThreatLedger(
            **{**fields, "epoch": 10, "state": LifecycleState.TERMINATED, "exit_reason": "detector"}
        )
        assert mark_completed(ledger) == ThreatLedger(
            **{**fields, "state": LifecycleState.TERMINATED, "exit_reason": "completed"}
        )

    def test_wrong_state_rejected(self):
        with pytest.raises(ValueError):
            resolve_terminable(ThreatLedger(), Verdict.MALICIOUS)
        done = resolve_terminable(self.fill(), Verdict.MALICIOUS)
        with pytest.raises(ValueError):
            resolve_terminable(done, Verdict.BENIGN)


class TestMarkCompleted:
    def test_from_each_live_state(self):
        for state in (LifecycleState.NORMAL, LifecycleState.SUSPICIOUS, LifecycleState.TERMINABLE):
            threat = 1.0 if state is not LifecycleState.NORMAL else 0.0
            ledger = ThreatLedger(penalty=threat, threat_index=threat, state=state)
            done = mark_completed(ledger)
            assert done.state is LifecycleState.TERMINATED
            assert done.exit_reason == "completed"

    def test_terminated_is_absorbing(self):
        done = mark_completed(ThreatLedger())
        with pytest.raises(ValueError):
            mark_completed(done)


class TestLedgerValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"penalty": -1.0},
            {"compensation": 101.0},
            {"threat_index": math.nan},
            {"epoch": -1},
            {"measurements": -2},
        ],
    )
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(ValueError):
            ThreatLedger(**kwargs)

    @pytest.mark.parametrize("field", ["penalty", "compensation", "threat_index"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1, 100.1])
    def test_each_score_names_itself(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 100\], got "):
            ThreatLedger(**{field: value})

    @given(
        field=st.sampled_from(["penalty", "compensation", "threat_index"]),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, SCORE_CEILING, math.nextafter(SCORE_CEILING, math.inf)]),
        ),
    )
    def test_fast_and_named_checks_agree(self, field, value):
        # Accepted exactly on [0, 100]; anything else is named by field.
        if 0.0 <= value <= SCORE_CEILING:
            assert getattr(ThreatLedger(**{field: value}), field) == value
        else:
            with pytest.raises(ValueError, match=rf"^{field} must lie in"):
                ThreatLedger(**{field: value})

    @pytest.mark.parametrize("field", ["epoch", "measurements"])
    def test_negative_counts_rejected(self, field):
        with pytest.raises(ValueError, match="^epoch and measurements must be non-negative$"):
            ThreatLedger(**{field: -1})

    def test_first_bad_field_is_named(self):
        with pytest.raises(ValueError, match="^compensation "):
            ThreatLedger(compensation=math.inf, threat_index=-1.0, epoch=-1)
        with pytest.raises(ValueError, match="^threat_index "):
            ThreatLedger(threat_index=-1.0, measurements=-1)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_assess_rejects_infinite_previous(self, value):
        with pytest.raises(ValueError, match="^previous must lie in"):
            assess(INC, value, 1)


# State transitions step_epoch and resolve_terminable may produce.
ALLOWED_EDGES = {
    (LifecycleState.NORMAL, LifecycleState.NORMAL),
    (LifecycleState.NORMAL, LifecycleState.SUSPICIOUS),
    (LifecycleState.NORMAL, LifecycleState.TERMINABLE),
    (LifecycleState.SUSPICIOUS, LifecycleState.SUSPICIOUS),
    (LifecycleState.SUSPICIOUS, LifecycleState.NORMAL),
    (LifecycleState.SUSPICIOUS, LifecycleState.TERMINABLE),
    (LifecycleState.TERMINABLE, LifecycleState.TERMINABLE),
    (LifecycleState.TERMINABLE, LifecycleState.TERMINATED),
}

policies = st.sampled_from(
    [
        INC,
        AssessmentPolicy.linear(1.0, 2.0),
        AssessmentPolicy.linear(2.0, 0.5),
        AssessmentPolicy.exponential(),
    ]
)
verdict_lists = st.lists(st.sampled_from([Verdict.MALICIOUS, Verdict.BENIGN]), min_size=1, max_size=14)


class TestProperties:
    @given(verdicts=verdict_lists, budget=st.integers(min_value=1, max_value=12), penalty_policy=policies, compensation_policy=policies)
    def test_bounds_and_edges(self, verdicts, budget, penalty_policy, compensation_policy):
        previous = ThreatLedger()
        for ledger in walk(verdicts, budget, penalty_policy, compensation_policy):
            assert 0.0 <= ledger.penalty <= SCORE_CEILING
            assert 0.0 <= ledger.compensation <= SCORE_CEILING
            assert 0.0 <= ledger.threat_index <= SCORE_CEILING
            assert ledger.epoch >= previous.epoch
            assert ledger.measurements >= previous.measurements
            if ledger.state is LifecycleState.NORMAL:
                assert ledger.threat_index == 0.0
            if ledger.state is LifecycleState.TERMINABLE:
                assert ledger.measurements >= budget
            assert (previous.state, ledger.state) in ALLOWED_EDGES
            previous = ledger

    @given(length=st.integers(min_value=1, max_value=14))
    def test_all_malicious_threat_is_non_decreasing(self, length):
        trail = walk([Verdict.MALICIOUS] * length, budget=100)
        threats = [ledger.threat_index for ledger in trail]
        assert threats == sorted(threats)

    @given(length=st.integers(min_value=1, max_value=14))
    def test_benign_only_never_leaves_normal(self, length):
        for ledger in walk([Verdict.BENIGN] * length, budget=100):
            assert ledger.state is LifecycleState.NORMAL
            assert ledger.threat_index == 0.0
            assert ledger.compensation == 0.0

    @given(verdicts=verdict_lists, budget=st.integers(min_value=1, max_value=12))
    def test_matches_reference_interpreter(self, verdicts, budget):
        got = [
            (l.penalty, l.compensation, l.threat_index, l.state.value, l.epoch, l.measurements)
            for l in walk(verdicts, budget)
        ]
        want = ledger_trajectory([v.value for v in verdicts], budget)
        assert got == want
