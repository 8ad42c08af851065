"""Efficacy planning: crossing search, interpolation, and curve ingestion."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quell.efficacy import (
    CURVE_CSV_HEADER,
    CurvePoint,
    EfficacyCurve,
    EfficacyTarget,
    TargetKind,
    UnreachableTargetError,
    budget_to_time,
    load_curve_csv,
    required_measurements,
)

BOOSTED_TREES = EfficacyCurve(
    (
        CurvePoint(1, 0.55, 0.45),
        CurvePoint(5, 0.70, 0.30),
        CurvePoint(10, 0.80, 0.22),
        CurvePoint(20, 0.88, 0.15),
        CurvePoint(23, 0.90, 0.12),
        CurvePoint(50, 0.93, 0.10),
        CurvePoint(75, 0.95, 0.08),
    ),
    detector_name="boosted-trees",
)

SMALL_ANN = EfficacyCurve(
    (CurvePoint(5, 0.70, 0.30), CurvePoint(75, 0.80, 0.10)),
    detector_name="small-ann",
)

# Crosses 0.9 early, dips back below it, then recovers for good.
DIPPING = EfficacyCurve(
    (
        CurvePoint(1, 0.50, 0.50),
        CurvePoint(5, 0.92, 0.30),
        CurvePoint(10, 0.85, 0.20),
        CurvePoint(20, 0.95, 0.10),
        CurvePoint(30, 0.96, 0.05),
    ),
    detector_name="dipping",
)


def f1_target(threshold: float) -> EfficacyTarget:
    return EfficacyTarget(TargetKind.F1_AT_LEAST, threshold)


def fpr_target(threshold: float) -> EfficacyTarget:
    return EfficacyTarget(TargetKind.FPR_AT_MOST, threshold)


class TestCurveValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            EfficacyCurve((CurvePoint(5, 0.5, 0.5),))

    def test_measurements_strictly_increasing(self):
        with pytest.raises(ValueError):
            EfficacyCurve((CurvePoint(5, 0.5, 0.5), CurvePoint(5, 0.6, 0.4)))

    def test_point_validation(self):
        with pytest.raises(ValueError):
            CurvePoint(0, 0.5, 0.5)
        with pytest.raises(ValueError):
            CurvePoint(1, 1.5, 0.5)
        with pytest.raises(ValueError):
            CurvePoint(1, 0.5, -0.1)

    def test_epoch_duration_positive(self):
        with pytest.raises(ValueError):
            EfficacyCurve(SMALL_ANN.points, epoch_duration_ms=0.0)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            f1_target(1.2)


class TestRequiredMeasurements:
    def test_f1_floor_at_anchor_point(self):
        assert required_measurements(BOOSTED_TREES, f1_target(0.9)) == 23

    def test_fpr_ceiling(self):
        assert required_measurements(BOOSTED_TREES, fpr_target(0.10)) == 50

    def test_first_point_already_satisfies(self):
        assert required_measurements(BOOSTED_TREES, f1_target(0.5)) == 1
        assert required_measurements(BOOSTED_TREES, fpr_target(0.45)) == 1

    def test_two_point_interpolation(self):
        assert required_measurements(SMALL_ANN, f1_target(0.75)) == 40

    def test_interpolation_against_numpy(self):
        # The crossing point itself comes from an off-the-shelf
        # interpolation routine; these curves are monotone so the plain
        # inverse lookup applies.
        for threshold in (0.6, 0.75, 0.78):
            counts = np.array([p.measurements for p in SMALL_ANN.points], dtype=float)
            values = np.array([p.f1 for p in SMALL_ANN.points])
            crossing = float(np.interp(threshold, values, counts))
            expected = math.ceil(crossing - 1e-9)
            assert required_measurements(SMALL_ANN, f1_target(threshold)) == expected

    def test_sustained_skips_transient_crossings(self):
        assert required_measurements(DIPPING, f1_target(0.9)) == 15

    def test_first_crossing_mode_takes_the_dip(self):
        assert required_measurements(DIPPING, f1_target(0.9), sustained=False) == 5

    def test_unreachable_target(self):
        with pytest.raises(UnreachableTargetError):
            required_measurements(BOOSTED_TREES, f1_target(0.99))
        with pytest.raises(UnreachableTargetError):
            required_measurements(BOOSTED_TREES, fpr_target(0.01))

    @given(threshold=st.floats(min_value=0.0, max_value=0.95))
    def test_result_is_bracketed(self, threshold):
        budget = required_measurements(BOOSTED_TREES, f1_target(threshold))
        assert BOOSTED_TREES.points[0].measurements <= budget
        assert budget <= BOOSTED_TREES.points[-1].measurements

    @given(
        low=st.floats(min_value=0.0, max_value=0.95),
        high=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_tightening_the_target_never_shrinks_the_budget(self, low, high):
        if low > high:
            low, high = high, low
        loose = required_measurements(BOOSTED_TREES, f1_target(low))
        tight = required_measurements(BOOSTED_TREES, f1_target(high))
        assert tight >= loose


class TestBudgetToTime:
    def test_anchor_budget(self):
        assert budget_to_time(23, BOOSTED_TREES) == 2.3

    def test_single_measurement(self):
        assert budget_to_time(1, BOOSTED_TREES) == 0.1

    def test_exact_arithmetic_for_larger_budgets(self):
        assert budget_to_time(75, BOOSTED_TREES) == 7.5

    def test_respects_epoch_duration(self):
        curve = EfficacyCurve(SMALL_ANN.points, epoch_duration_ms=250.0)
        assert budget_to_time(4, curve) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            budget_to_time(0, BOOSTED_TREES)


class TestLoadCurveCsv:
    def test_loads_fixture(self, configs_dir):
        curve = load_curve_csv(configs_dir / "curve_boosted_trees.csv")
        assert curve.detector_name == "curve_boosted_trees"
        assert curve.points == BOOSTED_TREES.points
        assert curve.epoch_duration_ms == 100.0

    def test_header_is_exact(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("measurements,f1score,fpr\n1,0.5,0.5\n5,0.9,0.1\n")
        with pytest.raises(ValueError, match="header"):
            load_curve_csv(bad)

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_curve_csv(empty)

    def test_wrong_field_count(self, tmp_path):
        bad = tmp_path / "fields.csv"
        bad.write_text(",".join(CURVE_CSV_HEADER) + "\n1,0.5\n")
        with pytest.raises(ValueError, match="3 fields"):
            load_curve_csv(bad)

    def test_non_numeric_row(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text(",".join(CURVE_CSV_HEADER) + "\n1,high,0.5\n")
        with pytest.raises(ValueError):
            load_curve_csv(bad)

    def test_blank_lines_skipped(self, tmp_path):
        good = tmp_path / "blank.csv"
        good.write_text(",".join(CURVE_CSV_HEADER) + "\n1,0.5,0.5\n\n5,0.9,0.1\n")
        assert len(load_curve_csv(good).points) == 2
