"""Verdict sources: replay, seeded coin flips, and windowed thresholds."""

import statistics

import pytest
from hypothesis import example
from hypothesis import given
from hypothesis import strategies as st

from quell.detectors import (
    GroundTruth,
    SourceExhausted,
    StochasticSource,
    ThresholdSource,
    TraceSource,
    derive_seed,
    load_measurement_stream_csv,
    load_trace_csv,
    next_verdict,
)
from quell.threat import Verdict

M, B = Verdict.MALICIOUS, Verdict.BENIGN


class TestTraceSource:
    def test_direct_lookup(self):
        source = TraceSource((M, B, M))
        assert next_verdict(source, 1) is B
        assert next_verdict(source, 0) is M
        assert next_verdict(source, 2) is M

    def test_start_epoch_offset(self):
        source = TraceSource((M, B), start_epoch=1)
        assert source.verdict_at(1) is M
        assert source.verdict_at(2) is B
        assert source.end_epoch == 3

    def test_out_of_coverage(self):
        source = TraceSource((M,), start_epoch=1)
        with pytest.raises(SourceExhausted):
            source.verdict_at(0)
        with pytest.raises(SourceExhausted):
            source.verdict_at(2)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            TraceSource((M,), start_epoch=-1)


class TestStochasticSource:
    def test_zero_fpr_is_always_benign(self):
        source = StochasticSource(1.0, 0.0, GroundTruth.BENIGN, seed=3)
        assert all(source.verdict_at(epoch) is B for epoch in range(500))

    def test_full_tpr_attack_is_always_malicious(self):
        source = StochasticSource(1.0, 0.25, GroundTruth.ATTACK, seed=3)
        assert all(source.verdict_at(epoch) is M for epoch in range(500))

    def test_ground_truth_selects_the_rate(self):
        benign = StochasticSource(1.0, 0.0, GroundTruth.BENIGN, seed=9)
        attack = StochasticSource(1.0, 0.0, GroundTruth.ATTACK, seed=9)
        assert benign.verdict_at(0) is B
        assert attack.verdict_at(0) is M

    def test_same_seed_same_sequence(self):
        first = StochasticSource(0.8, 0.3, GroundTruth.BENIGN, seed=77)
        second = StochasticSource(0.8, 0.3, GroundTruth.BENIGN, seed=77)
        sequence = [first.verdict_at(epoch) for epoch in range(64)]
        assert sequence == [second.verdict_at(epoch) for epoch in range(64)]

    def test_different_seeds_diverge(self):
        first = StochasticSource(1.0, 0.5, GroundTruth.BENIGN, seed=1)
        second = StochasticSource(1.0, 0.5, GroundTruth.BENIGN, seed=2)
        assert any(
            first.verdict_at(epoch) is not second.verdict_at(epoch) for epoch in range(64)
        )

    def test_random_access_matches_sequential(self):
        source = StochasticSource(1.0, 0.5, GroundTruth.BENIGN, seed=5)
        forward = [source.verdict_at(epoch) for epoch in range(32)]
        backward = [source.verdict_at(epoch) for epoch in reversed(range(32))]
        assert forward == list(reversed(backward))

    def test_empirical_rate_tracks_fpr(self):
        source = StochasticSource(1.0, 0.2, GroundTruth.BENIGN, seed=11)
        fraction = sum(source.verdict_at(e) is M for e in range(2000)) / 2000
        assert abs(fraction - 0.2) < 0.03

    def test_validation(self):
        with pytest.raises(ValueError):
            StochasticSource(1.5, 0.0, GroundTruth.BENIGN, seed=0)
        with pytest.raises(ValueError):
            StochasticSource(1.0, -0.1, GroundTruth.BENIGN, seed=0)
        with pytest.raises(ValueError):
            StochasticSource(1.0, 0.0, GroundTruth.BENIGN, seed=-1)
        with pytest.raises(ValueError):
            StochasticSource(1.0, 0.0, GroundTruth.BENIGN, seed=1 << 64)
        source = StochasticSource(1.0, 0.0, GroundTruth.BENIGN, seed=0)
        with pytest.raises(ValueError):
            source.verdict_at(-1)


class TestThresholdSource:
    def test_windowed_mean_crossing(self):
        source = ThresholdSource(window_size=2, cutoff=5.0, values=(0.0, 4.0, 8.0, 1.0))
        assert source.verdict_at(0) is B  # mean 0.0
        assert source.verdict_at(1) is B  # mean 2.0
        assert source.verdict_at(2) is M  # mean 6.0
        assert source.verdict_at(3) is B  # mean 4.5

    def test_prefix_window_for_early_epochs(self):
        source = ThresholdSource(window_size=4, cutoff=1.0, values=(3.0, 0.0, 0.0))
        assert source.verdict_at(0) is M
        assert source.verdict_at(1) is M  # mean 1.5
        assert source.verdict_at(2) is B  # mean 1.0, not above the cutoff

    def test_window_purity(self):
        # Values that fell out of the window cannot change the verdict.
        tail = (2.0, 9.0, 4.0)
        low_head = ThresholdSource(2, 5.0, (0.0, 0.0) + tail)
        high_head = ThresholdSource(2, 5.0, (99.0, 99.0) + tail)
        for epoch in (3, 4):
            assert low_head.verdict_at(epoch) is high_head.verdict_at(epoch)

    def test_exhaustion_and_validation(self):
        source = ThresholdSource(2, 5.0, (1.0,))
        with pytest.raises(SourceExhausted):
            source.verdict_at(1)
        with pytest.raises(ValueError):
            ThresholdSource(0, 5.0, (1.0,))

    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match="cutoff must be finite"):
            ThresholdSource(2, cutoff, (1.0, 2.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            ThresholdSource(2, 5.0, (1.0, bad, 2.0))

    def test_window_sum_overflow_rejected(self):
        with pytest.raises(ValueError, match="^the measurement window ending at epoch 3 sums"):
            ThresholdSource(2, 0.0, (1e308, -1e308, 1e308, 1e308))

    def test_huge_values_whose_window_sums_fit_are_kept(self):
        source = ThresholdSource(2, 0.0, (1e308, -1e308, 1e308, 0.0))
        assert [source.verdict_at(epoch) for epoch in range(4)] == [M, B, B, M]

    @given(
        values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20),
        window=st.integers(1, 8),
        cutoff=st.floats(-1e300, 1e300),
    )
    # A plain left-to-right sum loses the 1.0 here and gets the verdict wrong.
    @example(values=[1e16, 1.0, -1e16], window=3, cutoff=0.0)
    def test_verdicts_match_the_statistics_mean(self, values, window, cutoff):
        source = ThresholdSource(window, cutoff, tuple(values))
        for epoch in range(len(values)):
            mean = statistics.fmean(values[max(0, epoch - window + 1) : epoch + 1])
            assert source.verdict_at(epoch) is (M if mean > cutoff else B)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "worker") == derive_seed(42, "worker")

    def test_labels_decorrelate(self):
        assert derive_seed(42, "worker") != derive_seed(42, "attack")

    def test_seeds_decorrelate(self):
        assert derive_seed(1, "worker") != derive_seed(2, "worker")

    @given(seed=st.integers(min_value=0, max_value=(1 << 64) - 1), label=st.text(max_size=20))
    def test_result_is_64_bit(self, seed, label):
        assert 0 <= derive_seed(seed, label) < 1 << 64


class TestLoadTraceCsv:
    def test_loads_fixture(self, configs_dir):
        traces = load_trace_csv(configs_dir / "recovery_trace.csv")
        worker = traces["worker"]
        assert worker.start_epoch == 1
        assert len(worker.verdicts) == 14
        assert worker.verdicts[:5] == (M,) * 5
        assert worker.verdicts[5:] == (B,) * 9

    def test_multiple_processes(self, tmp_path):
        trace = tmp_path / "multi.csv"
        trace.write_text(
            "epoch,process,verdict\n"
            "1,a,malicious\n1,b,benign\n2,a,benign\n2,b,benign\n"
        )
        traces = load_trace_csv(trace)
        assert set(traces) == {"a", "b"}
        assert traces["a"].verdicts == (M, B)

    def test_header_mismatch(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,proc,verdict\n1,a,benign\n")
        with pytest.raises(ValueError, match="header"):
            load_trace_csv(bad)

    def test_duplicate_epoch(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("epoch,process,verdict\n1,a,benign\n1,a,malicious\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_trace_csv(bad)

    def test_gap_in_epochs(self, tmp_path):
        bad = tmp_path / "gap.csv"
        bad.write_text("epoch,process,verdict\n1,a,benign\n3,a,benign\n")
        with pytest.raises(ValueError, match="missing"):
            load_trace_csv(bad)

    def test_late_start_rejected(self, tmp_path):
        bad = tmp_path / "late.csv"
        bad.write_text("epoch,process,verdict\n2,a,benign\n3,a,benign\n")
        with pytest.raises(ValueError, match="start"):
            load_trace_csv(bad)

    def test_bad_verdict_word(self, tmp_path):
        bad = tmp_path / "word.csv"
        bad.write_text("epoch,process,verdict\n1,a,sus\n")
        with pytest.raises(ValueError, match="verdict"):
            load_trace_csv(bad)

    def test_empty_trace(self, tmp_path):
        bad = tmp_path / "rows.csv"
        bad.write_text("epoch,process,verdict\n")
        with pytest.raises(ValueError, match="no trace rows"):
            load_trace_csv(bad)


class TestLoadMeasurementStreamCsv:
    def test_loads_contiguous_stream(self, tmp_path):
        stream = tmp_path / "stream.csv"
        stream.write_text("epoch,value\n0,1.5\n1,2.5\n2,3.5\n")
        assert load_measurement_stream_csv(stream) == (1.5, 2.5, 3.5)

    def test_must_start_at_zero(self, tmp_path):
        bad = tmp_path / "late.csv"
        bad.write_text("epoch,value\n1,1.0\n2,2.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_measurement_stream_csv(bad)

    def test_header_mismatch(self, tmp_path):
        bad = tmp_path / "hdr.csv"
        bad.write_text("epoch,reading\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_measurement_stream_csv(bad)

    def test_malformed_value(self, tmp_path):
        bad = tmp_path / "val.csv"
        bad.write_text("epoch,value\n0,fast\n")
        with pytest.raises(ValueError, match="malformed"):
            load_measurement_stream_csv(bad)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", " Infinity ", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, text):
        bad = tmp_path / "nonfinite.csv"
        bad.write_text(f"epoch,value\n0,1.0\n1,{text}\n")
        with pytest.raises(ValueError, match=rf"^{bad}:3: value must be finite, got '{text}'$"):
            load_measurement_stream_csv(bad)
