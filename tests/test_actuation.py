"""Actuation: share moves, floors, resets, and scheduler arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quell.actuation import (
    DEFAULT_SHARES,
    RESOURCES,
    ActuationMode,
    ActuatorPolicy,
    ResourceShares,
    SchedulerModel,
    actuate,
    actuate_reset,
    cfs_timeslice,
    weight_for_threat,
)

from reference import additive_share_walk, multiplicative_weight

ADDITIVE = ActuatorPolicy()
MULTIPLICATIVE = ActuatorPolicy(mode=ActuationMode.MULTIPLICATIVE)

# Valid actuation inputs, with the edges where no share moves drawn often:
# shares at their floor or at 1.0, a zero delta, a delta too small to move.
unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
one_delta = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
    st.floats(-100.0, 100.0),
)


@st.composite
def policies(draw):
    return ActuatorPolicy(
        throttle_step=draw(unit_open),
        mode=draw(st.sampled_from(ActuationMode)),
        targets=tuple(draw(st.lists(st.sampled_from(RESOURCES), min_size=1, unique=True))),
        **{f"floor_{name}": draw(unit_open) for name in RESOURCES},
    )


@st.composite
def shares_within(draw, policy):
    values = {}
    for name in RESOURCES:
        low = policy.floor(name) if name in policy.targets else 5e-324
        values[name] = draw(st.one_of(st.sampled_from([low, 1.0]), st.floats(low, 1.0)))
    return ResourceShares(**values)


class TestResourceShares:
    def test_defaults_are_all_ones(self):
        assert [DEFAULT_SHARES.get(name) for name in RESOURCES] == [1.0] * len(RESOURCES)

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.0001, math.nan])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError):
            ResourceShares(network=value)

    @pytest.mark.parametrize("resource", RESOURCES)
    @pytest.mark.parametrize("value", [0.0, 1.1, math.nan, math.inf, -math.inf])
    def test_each_share_names_itself(self, resource, value):
        with pytest.raises(ValueError, match=rf"^{resource} share must lie in \(0, 1\], got "):
            ResourceShares(**{resource: value})

    @given(
        resource=st.sampled_from(RESOURCES),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([-0.0, 5e-324, 1.0, math.nextafter(1.0, math.inf)]),
        ),
    )
    def test_fast_and_named_checks_agree(self, resource, value):
        # Accepted exactly on (0, 1]; anything else is named by resource.
        if 0.0 < value <= 1.0:
            assert ResourceShares(**{resource: value}).get(resource) == value
        else:
            with pytest.raises(ValueError, match=rf"^{resource} share must lie in"):
                ResourceShares(**{resource: value})

    def test_get_and_unknown_resource(self):
        shares = ResourceShares(cpu=0.25)
        assert shares.get("cpu") == 0.25
        with pytest.raises(ValueError):
            shares.get("gpu")


class TestActuatorPolicy:
    def test_target_normalization(self):
        policy = ActuatorPolicy(targets=("filesystem", "cpu", "cpu"))
        assert policy.targets == ("cpu", "filesystem")

    @pytest.mark.parametrize("step", [0.0, 1.0, -0.2, math.nan])
    def test_step_bounds(self, step):
        with pytest.raises(ValueError):
            ActuatorPolicy(throttle_step=step)

    def test_targets_required_and_known(self):
        with pytest.raises(ValueError):
            ActuatorPolicy(targets=())
        with pytest.raises(ValueError):
            ActuatorPolicy(targets=("gpu",))

    @pytest.mark.parametrize("floor", [0.0, 1.0, math.inf])
    def test_floor_bounds(self, floor):
        with pytest.raises(ValueError):
            ActuatorPolicy(floor_memory=floor)

    def test_floor_lookup(self):
        assert ADDITIVE.floor("cpu") == 0.01
        assert ADDITIVE.floor("memory") == 0.9
        with pytest.raises(ValueError):
            ADDITIVE.floor("gpu")


class TestActuate:
    def test_multiplicative_single_unit_drop(self):
        moved = actuate(DEFAULT_SHARES, 1.0, MULTIPLICATIVE)
        assert moved.cpu == 0.9
        assert moved.memory == 1.0

    @pytest.mark.parametrize(
        ("shares", "delta", "policy"),
        [
            (ResourceShares(cpu=0.37), 0.0, ADDITIVE),
            (ResourceShares(cpu=0.01), 2.0, ADDITIVE),
            (ResourceShares(cpu=0.01), 2.0, MULTIPLICATIVE),
            (ResourceShares(memory=0.5), -1.0, ADDITIVE),
            (ResourceShares(memory=0.5), -1.0, MULTIPLICATIVE),
        ],
        ids=["zero-delta", "throttle-at-floor", "multiplicative-throttle-at-floor",
             "restore-at-full", "multiplicative-restore-at-full"],
    )
    def test_zero_delta_is_identity(self, shares, delta, policy):
        # A delta that moves no targeted share hands back the very object.
        assert actuate(shares, delta, policy) is shares

    @given(data=st.data())
    def test_identity_exactly_when_no_share_moves(self, data):
        policy = data.draw(policies())
        shares = data.draw(shares_within(policy))
        delta = data.draw(one_delta)
        moved = actuate(shares, delta, policy)
        assert (moved is shares) == (moved == shares)

    def test_additive_floor_clamp(self):
        shares = ResourceShares(cpu=0.04)
        moved = actuate(shares, 5.0, ADDITIVE)
        assert moved.cpu == 0.01

    def test_restore_clamps_at_full_share(self):
        shares = ResourceShares(cpu=0.95)
        moved = actuate(shares, -3.0, ADDITIVE)
        assert moved.cpu == 1.0

    def test_untargeted_resources_untouched(self):
        shares = ResourceShares(cpu=0.5, memory=0.95, network=0.5, filesystem=0.5)
        moved = actuate(shares, 2.0, ADDITIVE)
        assert (moved.memory, moved.network, moved.filesystem) == (0.95, 0.5, 0.5)

    def test_share_below_floor_rejected(self):
        policy = ActuatorPolicy(floor_cpu=0.5)
        with pytest.raises(ValueError):
            actuate(ResourceShares(cpu=0.25), 1.0, policy)

    @pytest.mark.parametrize("resource", RESOURCES)
    def test_below_floor_names_the_resource(self, resource):
        policy = ActuatorPolicy(targets=(resource,), **{f"floor_{resource}": 0.95})
        message = rf"^{resource} share 0.5 is below the policy floor 0.95$"
        with pytest.raises(ValueError, match=message):
            actuate(ResourceShares(**{resource: 0.5}), 1.0, policy)

    def test_each_target_moves_to_its_own_floor(self):
        policy = ActuatorPolicy(targets=RESOURCES, floor_network=0.3, floor_filesystem=0.6)
        moved = actuate(DEFAULT_SHARES, 100.0, policy)
        assert [moved.get(r) for r in RESOURCES] == [policy.floor(r) for r in RESOURCES]

    def test_precomputed_floors_leave_equality_alone(self):
        forward = ActuatorPolicy(targets=RESOURCES, floor_network=0.3)
        backward = ActuatorPolicy(targets=tuple(reversed(RESOURCES)), floor_network=0.3)
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert "_target_floors" not in repr(forward)

    def test_non_finite_delta_rejected(self):
        with pytest.raises(ValueError):
            actuate(DEFAULT_SHARES, math.nan, ADDITIVE)

    def test_multi_resource_targets(self):
        policy = ActuatorPolicy(targets=("cpu", "filesystem"))
        moved = actuate(DEFAULT_SHARES, 1.0, policy)
        assert moved.cpu == 0.9
        assert moved.filesystem == 0.9
        assert moved.memory == 1.0

    def test_additive_walk_matches_reference(self):
        deltas = [1.0, 2.0, 3.0, 4.0, 5.0, -1.0, -2.0, -3.0, -4.0, -5.0]
        shares = DEFAULT_SHARES
        path = []
        for delta in deltas:
            shares = actuate(shares, delta, ADDITIVE)
            path.append(shares.cpu)
        assert path == additive_share_walk(deltas)


class TestInverseBehavior:
    def test_multiplicative_throttle_restore_lands_low(self):
        # 0.9 then 1.1 of that: deliberately not an inverse pair.
        down = actuate(DEFAULT_SHARES, 1.0, MULTIPLICATIVE)
        back = actuate(down, -1.0, MULTIPLICATIVE)
        assert abs(back.cpu - 0.99) < 1e-12
        assert back.cpu < 1.0

    def test_additive_throttle_restore_is_exact(self):
        down = actuate(DEFAULT_SHARES, 1.0, ADDITIVE)
        back = actuate(down, -1.0, ADDITIVE)
        assert back.cpu == 1.0

    def test_additive_round_trips_from_full_share(self):
        for delta in (1.0, 2.0, 3.0, 4.5):
            down = actuate(DEFAULT_SHARES, delta, ADDITIVE)
            back = actuate(down, -delta, ADDITIVE)
            assert back.cpu == 1.0

    @given(
        start=st.floats(min_value=0.3, max_value=1.0),
        delta=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_additive_round_trip_mid_range(self, start, delta):
        # Away from both clamps the restore error is pure float noise.
        shares = ResourceShares(cpu=start)
        down = actuate(shares, delta, ADDITIVE)
        if down.cpu == 0.01 or down.cpu - 0.1 * delta < 0.0:
            return
        back = actuate(down, -delta, ADDITIVE)
        if back.cpu == 1.0:
            return
        assert abs(back.cpu - start) < 1e-12


class TestActuateReset:
    def test_restores_everything(self):
        assert actuate_reset() == DEFAULT_SHARES

    def test_idempotent(self):
        # The same object every time, so callers that cache by identity
        # see one reset as no change.
        assert actuate_reset() is actuate_reset()


class TestCfsTimeslice:
    def test_equal_weights_split_evenly(self):
        model = SchedulerModel(20.0, {"a": 1.0, "b": 1.0})
        assert cfs_timeslice(model) == {"a": 10.0, "b": 10.0}

    def test_weighted_split(self):
        model = SchedulerModel(20.0, {"heavy": 3.0, "light": 1.0})
        slices = cfs_timeslice(model)
        assert slices["heavy"] == 15.0
        assert slices["light"] == 5.0

    def test_single_process_gets_the_whole_period(self):
        model = SchedulerModel(24.0, {"only": 7.3})
        assert cfs_timeslice(model) == {"only": 24.0}

    def test_empty_and_non_positive_rejected(self):
        with pytest.raises(ValueError):
            cfs_timeslice(SchedulerModel(20.0, {}))
        with pytest.raises(ValueError):
            SchedulerModel(20.0, {"a": 0.0})
        with pytest.raises(ValueError):
            SchedulerModel(-1.0, {"a": 1.0})

    @given(
        weights=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8),
        latency=st.floats(min_value=0.1, max_value=1000.0),
    )
    def test_conservation(self, weights, latency):
        model = SchedulerModel(latency, {f"p{i}": w for i, w in enumerate(weights)})
        slices = cfs_timeslice(model)
        assert math.isclose(sum(slices.values()), latency, rel_tol=1e-9)
        assert all(value > 0.0 for value in slices.values())


class TestWeightForThreat:
    def test_empty_deltas_keep_default(self):
        assert weight_for_threat(1024.0, []) == 1024.0

    def test_two_drops_compound(self):
        assert weight_for_threat(1.0, [1.0, 1.0]) == 0.81

    def test_drop_then_restore_is_not_inverse(self):
        weight = weight_for_threat(1.0, [1.0, -1.0])
        assert abs(weight - 0.99) < 1e-12

    def test_matches_reference_fold(self):
        deltas = [1.0, 2.0, -1.0, 4.0, -3.0, 10.0]
        assert weight_for_threat(5.0, deltas) == 5.0 * multiplicative_weight(deltas)

    def test_floor_respected(self):
        weight = weight_for_threat(100.0, [50.0] * 10, weight_floor=1e-6)
        assert weight == 100.0 * 1e-6

    def test_bad_default_rejected(self):
        with pytest.raises(ValueError):
            weight_for_threat(0.0, [1.0])


share_floats = st.floats(min_value=1e-6, max_value=1.0)
deltas = st.lists(st.floats(min_value=-30.0, max_value=30.0), max_size=10)
modes = st.sampled_from([ActuationMode.ADDITIVE, ActuationMode.MULTIPLICATIVE])


class TestProperties:
    @given(
        deltas=deltas,
        mode=modes,
        step=st.floats(min_value=0.01, max_value=0.9),
        floor=st.floats(min_value=0.001, max_value=0.5),
    )
    def test_shares_stay_within_bounds(self, deltas, mode, step, floor):
        policy = ActuatorPolicy(
            throttle_step=step, mode=mode, targets=("cpu", "network"), floor_cpu=floor, floor_network=floor
        )
        shares = DEFAULT_SHARES
        for delta in deltas:
            shares = actuate(shares, delta, policy)
            assert floor <= shares.cpu <= 1.0
            assert floor <= shares.network <= 1.0
            assert shares.memory == 1.0
            assert shares.filesystem == 1.0

    @given(walk=deltas, delta=st.floats(min_value=0.001, max_value=30.0), mode=modes)
    def test_positive_delta_never_raises_shares(self, walk, delta, mode):
        policy = ActuatorPolicy(mode=mode)
        shares = DEFAULT_SHARES
        for step_delta in walk:
            shares = actuate(shares, step_delta, policy)
        moved = actuate(shares, delta, policy)
        assert moved.cpu <= shares.cpu

    @given(walk=deltas, delta=st.floats(min_value=0.001, max_value=30.0), mode=modes)
    def test_negative_delta_never_lowers_shares(self, walk, delta, mode):
        policy = ActuatorPolicy(mode=mode)
        shares = DEFAULT_SHARES
        for step_delta in walk:
            shares = actuate(shares, step_delta, policy)
        moved = actuate(shares, -delta, policy)
        assert moved.cpu >= shares.cpu
