"""Calibration, scoring, and event assembly.

Several tests use a "blind" model — every weight zero — whose output is
identically zero, making each window's reconstruction error exactly the
mean square of its normalized values. That turns threshold arithmetic
into hand arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import IDENT_NORM
from hivewatch.data import NormalizationParams, SensorColumn, SensorTrace, sample_period
from hivewatch.detector import (
    CalibrationStats,
    DetectionEvent,
    Threshold,
    TraceScores,
    calibrate,
    detect,
    format_summary,
    lower_quantile,
    read_events,
    read_threshold,
    score_trace,
    window_errors,
    write_events,
    write_threshold,
)
from hivewatch.errors import EmptyValidation, LengthMismatch
from hivewatch.nn import init_model, model_parameters


def blind_model(window_size=4, norm=IDENT_NORM):
    """Model that reconstructs every window as zeros."""
    model = init_model(2, 1, window_size, seed=0, norm=norm)
    for p in model_parameters(model).values():
        p[...] = 0.0
    return model


def const_window(value, w=4):
    return np.full(w, float(value))


def minute_trace(values, sensor="temp_core"):
    values = np.asarray(values, dtype=np.float64)
    return SensorTrace(
        hive_id="hive",
        columns=[SensorColumn(sensor, "°C")],
        timestamps=60 * np.arange(len(values), dtype=np.int64),
        values=values[None, :],
    )


class TestLowerQuantile:
    def test_max_by_default(self):
        assert lower_quantile(np.array([0.1, 0.4, 0.2]), 1.0) == pytest.approx(0.4)

    def test_median_uses_lower_order_statistic(self):
        assert lower_quantile(np.array([0.3, 0.1, 0.2]), 0.5) == pytest.approx(0.2)

    def test_small_quantile_takes_first(self):
        assert lower_quantile(np.array([5.0, 1.0, 3.0]), 0.01) == pytest.approx(1.0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            lower_quantile(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            lower_quantile(np.array([1.0]), 1.5)


class TestCalibrate:
    def errors_windows(self, errors, w=4):
        """Constant windows whose blind-model errors are exactly `errors`."""
        return np.column_stack([const_window(np.sqrt(e), w) for e in errors])

    def test_max_times_margin(self):
        """Errors {0.1, 0.2, 0.4} at quantile 1.0 give alpha 0.42."""
        threshold = calibrate(blind_model(), self.errors_windows([0.1, 0.2, 0.4]))
        assert threshold.alpha == pytest.approx(0.42)
        assert threshold.method == "max_validation"
        assert threshold.calibration_stats.max_val_error == pytest.approx(0.4)

    def test_constant_errors(self):
        threshold = calibrate(blind_model(), self.errors_windows([0.2, 0.2, 0.2]))
        assert threshold.alpha == pytest.approx(0.21)

    def test_median_quantile(self):
        threshold = calibrate(
            blind_model(), self.errors_windows([0.1, 0.2, 0.3]), quantile=0.5
        )
        assert threshold.alpha == pytest.approx(0.21)
        assert threshold.method == "quantile"
        assert threshold.calibration_stats.quantile_used == pytest.approx(0.5)

    def test_holdout_reported_not_applied(self):
        """Holdout exceedances are counted; alpha is untouched by them."""
        val = self.errors_windows([0.1, 0.2])
        holdout = self.errors_windows([0.05, 0.5, 9.0])
        with_h = calibrate(blind_model(), val, holdout_windows=holdout)
        without = calibrate(blind_model(), val)
        assert with_h.alpha == without.alpha == pytest.approx(0.21)
        assert with_h.calibration_stats.holdout_exceedances == 2
        assert without.calibration_stats.holdout_exceedances is None

    def test_no_validation_windows(self):
        with pytest.raises(EmptyValidation):
            calibrate(blind_model(), np.empty((4, 0)))

    def test_all_zero_errors_rejected(self):
        with pytest.raises(EmptyValidation):
            calibrate(blind_model(), np.column_stack([const_window(0.0)] * 3))

    def test_validation_never_scores_at_alpha(self):
        """The 1.05 margin keeps every calibration window strictly below."""
        rng = np.random.default_rng(0)
        windows = np.column_stack([rng.normal(0, 1, 4) for _ in range(50)])
        model = blind_model()
        threshold = calibrate(model, windows)
        assert (window_errors(model, windows) < threshold.alpha).all()


class TestWindowErrors:
    def test_one_score_per_column(self):
        """A (T, n) matrix gets n scores; its transpose is refused, not
        scored as T windows of length n."""
        X = np.arange(28.0).reshape(4, 7) / 28.0
        errors = window_errors(blind_model(window_size=4), X)
        np.testing.assert_allclose(errors, np.mean(X**2, axis=0), rtol=1e-15)
        with pytest.raises(LengthMismatch):
            window_errors(blind_model(window_size=4), X.T)


class TestThresholdType:
    def test_positive_alpha_required(self):
        with pytest.raises(ValueError):
            Threshold(alpha=0.0)

    def test_finite_alpha_required(self):
        with pytest.raises(ValueError):
            Threshold(alpha=float("inf"))

    @pytest.mark.parametrize("max_val_error, quantile_used", [(float("inf"), 1.0), (0.1, 1.5)])
    def test_stats_in_range_required(self, max_val_error, quantile_used):
        """Stats `write_threshold` could only write as non-JSON `Infinity`,
        or a quantile `calibrate` never uses, are refused."""
        with pytest.raises(ValueError):
            CalibrationStats(max_val_error=max_val_error, quantile_used=quantile_used)

    def test_method_vocabulary(self):
        with pytest.raises(ValueError):
            Threshold(alpha=1.0, method="magic")
        Threshold(alpha=1.0, method="manual")


class TestDetectionEventType:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DetectionEvent(start_ts=100, end_ts=50, peak_ts=60, peak_score=1.0, method="AE")
        with pytest.raises(ValueError):
            DetectionEvent(start_ts=0, end_ts=50, peak_ts=60, peak_score=1.0, method="AE")

    def test_vocabulary(self):
        with pytest.raises(ValueError):
            DetectionEvent(start_ts=0, end_ts=60, peak_ts=30, peak_score=1.0, method="XX")
        with pytest.raises(ValueError):
            DetectionEvent(
                start_ts=0, end_ts=60, peak_ts=30, peak_score=1.0, method="AE",
                class_hint="odd",
            )


class TestScoreTrace:
    def test_short_trace_empty(self):
        model = blind_model(window_size=60)
        scores = score_trace(model, minute_trace(np.full(30, 34.5)), "temp_core")
        assert len(scores.errors) == 0
        assert scores.gaps == []

    def test_one_score_per_window(self):
        model = blind_model(window_size=4)
        scores = score_trace(model, minute_trace(np.zeros(10)), "temp_core")
        assert len(scores.errors) == 7
        np.testing.assert_array_equal(scores.start_ts, 60 * np.arange(7))
        assert np.all(np.diff(scores.start_ts) > 0)

    def test_blind_model_error_is_mean_square(self):
        model = blind_model(window_size=4)
        vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        scores = score_trace(model, minute_trace(vals), "temp_core")
        np.testing.assert_allclose(
            scores.errors, [np.mean(vals[:4] ** 2), np.mean(vals[1:] ** 2)]
        )

    def test_missing_minute_drops_windows_and_reports_gap(self):
        vals = np.full(20, 1.0)
        vals[10] = np.nan
        scores = score_trace(blind_model(4), minute_trace(vals), "temp_core")
        # runs of 10 and 9 readings -> 7 + 6 windows
        assert len(scores.errors) == 13
        assert scores.gaps == [(600, 660)]
        covered = set()
        for s in scores.start_ts:
            covered.update(range(int(s), int(s) + 240, 60))
        assert 600 not in covered

    def test_timestamp_jump_reported_as_gap(self):
        ts = 60 * np.arange(12, dtype=np.int64)
        ts[6:] += 600
        trace = SensorTrace(
            hive_id="h",
            columns=[SensorColumn("temp_core", "°C")],
            timestamps=ts,
            values=np.ones((1, 12)),
        )
        scores = score_trace(blind_model(4), trace, "temp_core")
        assert scores.gaps == [(360, 960)]

    def test_model_norm_used_when_params_omitted(self):
        model = blind_model(4, norm=NormalizationParams(mean=1.0, std=2.0))
        scores = score_trace(model, minute_trace(np.full(4, 3.0)), "temp_core")
        np.testing.assert_allclose(scores.errors, [1.0])  # ((3-1)/2)^2


def blank_runs_plus_jumps(trace, sensor):
    """Gaps as two scans once gave them: runs of blank cells, then the
    timestamp jumps, sorted and merged where they touch."""
    col = trace.sensor(sensor)
    ts = trace.timestamps.tolist()
    period = sample_period(trace) or 60
    spans, a = [], None
    for i in range(len(ts) + 1):
        blank = i < len(ts) and np.isnan(col[i])
        if blank and a is None:
            a = i
        elif not blank and a is not None:
            spans.append((ts[a], ts[i - 1] + period))
            a = None
    spans += [(ts[i] + period, ts[i + 1]) for i in range(len(ts) - 1) if ts[i + 1] - ts[i] != period]
    merged = []
    for a, b in sorted(spans):
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


def one_sensor(ts, vals):
    return SensorTrace("h", [SensorColumn("temp_core", "°C")], np.array(ts, dtype=np.int64),
                       np.array([vals], dtype=np.float64))


@st.composite
def gap_traces(draw):
    """0-60 readings, a smallest step of 60 or 120 s with jumps of two and
    three steps and an hour, any share of blank cells (at either end
    too), and infinite cells."""
    n = draw(st.integers(0, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([60, 120]))
    jumps = rng.choice([2 * step, 3 * step, 3600], n)
    steps = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.4])), jumps, step)
    vals = rng.normal(34.5, 1.0, n)
    vals[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = np.nan
    vals[rng.random(n) < 0.05] = np.inf
    if n and draw(st.booleans()):
        vals[0] = vals[-1] = np.nan
    return one_sensor(86400 * 400 + np.cumsum(steps), vals)


@given(trace=gap_traces())
@example(trace=one_sensor([], []))
@example(trace=one_sensor([0], [np.nan]))
@example(trace=one_sensor([0], [np.inf]))
@settings(max_examples=200, deadline=None)
def test_gaps_are_blank_runs_plus_timestamp_jumps(trace) -> None:
    scores = score_trace(blind_model(4), trace, "temp_core")
    assert scores.gaps == blank_runs_plus_jumps(trace, "temp_core")


def synthetic_scores(errors, gaps=(), period=60, window_size=4, trace_values=None):
    """Hand-built TraceScores over consecutive minute-start windows."""
    errors = np.asarray(errors, dtype=np.float64)
    n = len(errors)
    if trace_values is None:
        trace_values = np.full(n + window_size, 34.5)
    trace = minute_trace(trace_values)
    return TraceScores(
        trace=trace,
        sensor="temp_core",
        window_size=window_size,
        period_s=period,
        start_ts=60 * np.arange(n, dtype=np.int64),
        errors=errors,
        gaps=list(gaps),
    )


class TestDetect:
    def test_no_hits_no_events(self):
        scores = synthetic_scores([0.1, 0.2, 0.1])
        assert detect(scores, Threshold(alpha=0.5)) == []

    def test_hit_at_alpha_counts(self):
        """The comparison is >=: an error exactly at alpha fires."""
        scores = synthetic_scores([0.1, 0.5, 0.1])
        events = detect(scores, Threshold(alpha=0.5))
        assert len(events) == 1

    def test_consecutive_hits_merge_to_one(self):
        scores = synthetic_scores([1.0] * 61)
        events = detect(scores, Threshold(alpha=0.5))
        assert len(events) == 1
        assert events[0].start_ts == 0
        assert events[0].end_ts == 60 * 60 + 240  # last start + window span

    def test_clusters_beyond_merge_gap_stay_separate(self):
        errors = np.full(40, 0.01)
        errors[[0, 1, 2]] = 1.0
        errors[[33, 34]] = 2.0  # starts 33 min away: > 10 min gap, no overlap
        events = detect(synthetic_scores(errors), Threshold(alpha=0.5), merge_gap=600)
        assert len(events) == 2
        assert events[0].peak_score == pytest.approx(1.0)
        assert events[1].peak_score == pytest.approx(2.0)

    def test_peak_at_center_of_worst_window(self):
        errors = np.full(10, 0.01)
        errors[4] = 3.0
        errors[5] = 7.0
        events = detect(synthetic_scores(errors, window_size=4), Threshold(alpha=1.0))
        assert events[0].peak_ts == 5 * 60 + 120  # worst start + half span
        assert events[0].peak_score == pytest.approx(7.0)

    def test_peak_tie_earliest_window(self):
        errors = np.full(10, 0.01)
        errors[[3, 6]] = 5.0
        events = detect(synthetic_scores(errors, window_size=4), Threshold(alpha=1.0))
        assert events[0].peak_ts == 3 * 60 + 120

    def test_gap_becomes_event(self):
        scores = synthetic_scores([0.1, 0.1], gaps=[(600, 900)])
        events = detect(scores, Threshold(alpha=0.5))
        assert len(events) == 1
        e = events[0]
        assert (e.start_ts, e.end_ts) == (600, 900)
        assert e.class_hint == "data-gap"
        assert np.isinf(e.peak_score)

    def test_class_hints_from_raw_temperature(self):
        hot = synthetic_scores([5.0], trace_values=np.full(5, 36.0))
        cold = synthetic_scores([5.0], trace_values=np.full(5, 30.0))
        mild = synthetic_scores([5.0], trace_values=np.full(5, 34.4))
        assert detect(hot, Threshold(alpha=1.0))[0].class_hint == "swarm-like"
        assert detect(cold, Threshold(alpha=1.0))[0].class_hint == "low-temperature"
        assert detect(mild, Threshold(alpha=1.0))[0].class_hint == "unknown"

    def test_events_disjoint_ordered_and_supported(self):
        """Random score profiles: events never overlap, arrive sorted, and
        each carries a peak at or above alpha."""
        rng = np.random.default_rng(9)
        for _ in range(30):
            errors = rng.exponential(0.3, size=200)
            scores = synthetic_scores(errors, window_size=6)
            alpha = float(rng.uniform(0.2, 1.5))
            events = detect(scores, Threshold(alpha=alpha), merge_gap=300)
            for a, b in zip(events, events[1:]):
                assert a.end_ts <= b.start_ts
            assert events == sorted(events, key=lambda e: e.start_ts)
            for e in events:
                assert e.peak_score >= alpha

    def test_raising_alpha_never_adds_events(self):
        """Two well-separated error bumps: sweeping alpha upward can only
        shrink or drop events, never split them."""
        t = np.arange(300, dtype=np.float64)
        errors = (
            0.05
            + 2.0 * np.exp(-0.5 * ((t - 70) / 6.0) ** 2)
            + 3.0 * np.exp(-0.5 * ((t - 220) / 9.0) ** 2)
        )
        scores = synthetic_scores(errors, window_size=6)
        counts = [
            len(detect(scores, Threshold(alpha=a), merge_gap=600))
            for a in np.linspace(0.06, 3.5, 40)
        ]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert counts[0] >= 1


class TestWindowPositionRobustness:
    def test_anomaly_found_at_every_offset(self):
        """A 3-minute spike is hit by at least one window wherever it sits
        relative to the stride grid."""
        model = blind_model(window_size=60, norm=NormalizationParams(34.5, 1.0))
        for offset in range(60):
            vals = np.full(240, 34.5)
            start = 90 + offset
            vals[start : start + 3] = 40.0
            scores = score_trace(model, minute_trace(vals), "temp_core")
            events = detect(scores, Threshold(alpha=0.4))
            spike = (start * 60, (start + 3) * 60)
            assert any(
                e.start_ts < spike[1] and e.end_ts > spike[0] for e in events
            ), f"missed spike at offset {offset}"


class TestEventFiles:
    def events(self):
        return [
            DetectionEvent(0, 600, 300, 1.25, "AE", "swarm-like"),
            DetectionEvent(3600, 4200, 3900, float("inf"), "AE", "data-gap"),
            DetectionEvent(7200, 7500, 7320, 36.5, "RBA", "swarm-like"),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "events.csv"
        write_events(p, self.events())
        assert read_events(p) == self.events()

    def test_header_checked(self, tmp_path):
        p = tmp_path / "events.csv"
        p.write_text("nope\n", encoding="utf-8")
        with pytest.raises(Exception):
            read_events(p)

    def test_summary_mentions_events(self):
        text = format_summary(self.events())
        assert "RBA" in text and "swarm-like" in text and "gap" in text
        assert format_summary([]).startswith("no events")


class TestThresholdFile:
    """Threshold JSON round trip."""

    def test_round_trip_with_stats(self, tmp_path):
        thr = Threshold(
            alpha=0.0123,
            method="quantile",
            calibration_stats=CalibrationStats(
                max_val_error=0.0117, quantile_used=0.99, holdout_exceedances=4
            ),
        )
        p = tmp_path / "threshold.json"
        write_threshold(p, thr)
        assert read_threshold(p) == thr

    def test_round_trip_manual(self, tmp_path):
        thr = Threshold(alpha=0.5)
        p = tmp_path / "threshold.json"
        write_threshold(p, thr)
        assert read_threshold(p) == thr

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "threshold.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(Exception):
            read_threshold(p)
        p.write_text('{"alpha": 1.0}', encoding="utf-8")
        with pytest.raises(Exception):
            read_threshold(p)
