"""Tests for ingestion, labeling, splits, and windowing."""

from __future__ import annotations

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivewatch.analysis import SynthConfig, generate
from hivewatch.data import (
    DayLabel,
    NormalizationParams,
    SensorColumn,
    SensorTrace,
    auto_label_days,
    build_splits,
    fit_normalization,
    ingest,
    make_windows,
    missing_spans,
    read_labels,
    read_splits,
    sample_period,
    write_labels,
    write_splits,
    write_trace,
)
from hivewatch.errors import (
    DegenerateStd,
    EmptyDataset,
    MalformedHeader,
    NonMonotonicTimestamps,
    NoNormalDays,
    UnknownSensor,
)


def minute_trace(values, start_ts=0, hive_id="hive", sensor="temp_core"):
    """One-sensor trace sampled every 60 s."""
    values = np.asarray(values, dtype=np.float64)
    ts = start_ts + 60 * np.arange(len(values), dtype=np.int64)
    return SensorTrace(
        hive_id=hive_id,
        columns=[SensorColumn(sensor, "°C")],
        timestamps=ts,
        values=values[None, :],
    )


class TestSensorTrace:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            SensorTrace(
                hive_id="h",
                columns=[SensorColumn("a", "°C")],
                timestamps=np.array([0, 60]),
                values=np.zeros((1, 3)),
            )

    def test_non_increasing_timestamps_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SensorTrace(
                hive_id="h",
                columns=[SensorColumn("a", "°C")],
                timestamps=np.array([0, 60, 60]),
                values=np.zeros((1, 3)),
            )

    def test_unknown_sensor(self):
        trace = minute_trace([1.0, 2.0])
        with pytest.raises(UnknownSensor):
            trace.sensor("nope")

    def test_day_helpers(self):
        """Readings 30 s before and after midnight land on different days."""
        trace = SensorTrace(
            hive_id="h",
            columns=[SensorColumn("a", "°C")],
            timestamps=np.array([86400 - 30, 86400 + 30]),
            values=np.zeros((1, 2)),
        )
        assert trace.days() == [date(1970, 1, 1), date(1970, 1, 2)]
        # A positive UTC offset shifts the boundary: one hour east of UTC,
        # 22:59:30 UTC is still the first day and 23:59:30 UTC the next.
        east = SensorTrace(
            hive_id="h",
            columns=[SensorColumn("a", "°C")],
            timestamps=np.array([86400 - 3600 - 30, 86400 - 30]),
            values=np.zeros((1, 2)),
            utc_offset_s=3600,
        )
        assert east.days() == [date(1970, 1, 1), date(1970, 1, 2)]

    def test_sample_period(self):
        assert sample_period(minute_trace([1, 2, 3])) == 60
        assert sample_period(minute_trace([1])) == 0


class TestIngest:
    def write(self, tmp_path, text, name="hive.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_basic_csv(self, tmp_path):
        p = self.write(
            tmp_path,
            "timestamp,temp_core,weight\n"
            "1970-01-01T00:00:00+00:00,34.5,50.0\n"
            "1970-01-01T00:01:00+00:00,34.6,\n"
            "120,34.7,50.2\n",
        )
        trace = ingest(p)
        assert trace.hive_id == "hive"
        assert trace.sensor_names == ["temp_core", "weight"]
        np.testing.assert_array_equal(trace.timestamps, [0, 60, 120])
        np.testing.assert_allclose(trace.sensor("temp_core"), [34.5, 34.6, 34.7])
        assert np.isnan(trace.sensor("weight")[1])
        assert trace.columns[1].unit == "kg"

    def test_utc_offset_from_first_row(self, tmp_path):
        p = self.write(
            tmp_path,
            "timestamp,t\n"
            "1970-01-01T02:00:00+02:00,1.0\n"
            "1970-01-01T02:01:00+02:00,2.0\n",
        )
        trace = ingest(p)
        np.testing.assert_array_equal(trace.timestamps, [0, 60])
        assert trace.utc_offset_s == 7200

    def test_duplicate_timestamps_last_wins(self, tmp_path):
        p = self.write(tmp_path, "timestamp,t\n0,1.0\n60,2.0\n60,9.0\n120,3.0\n")
        trace = ingest(p)
        np.testing.assert_array_equal(trace.timestamps, [0, 60, 120])
        np.testing.assert_allclose(trace.sensor("t"), [1.0, 9.0, 3.0])
        assert trace.metadata["duplicate_rows"] == 1

    def test_few_out_of_order_rows_sorted(self, tmp_path):
        rows = [f"{60 * i},{float(i)}" for i in range(1000)]
        rows[500], rows[501] = rows[501], rows[500]
        p = self.write(tmp_path, "timestamp,t\n" + "\n".join(rows) + "\n")
        trace = ingest(p)
        assert np.all(np.diff(trace.timestamps) > 0)
        np.testing.assert_allclose(trace.sensor("t"), np.arange(1000.0))
        assert trace.metadata["out_of_order_rows"] == 1

    def test_many_out_of_order_rows_rejected(self, tmp_path):
        rows = [f"{60 * i},1.0" for i in range(10)][::-1]
        p = self.write(tmp_path, "timestamp,t\n" + "\n".join(rows) + "\n")
        with pytest.raises(NonMonotonicTimestamps):
            ingest(p)

    def test_bad_header(self, tmp_path):
        with pytest.raises(MalformedHeader):
            ingest(self.write(tmp_path, "time,t\n0,1.0\n"))
        with pytest.raises(MalformedHeader):
            ingest(self.write(tmp_path, "timestamp\n0\n", name="h2.csv"))

    def test_unparseable_cells(self, tmp_path):
        p = self.write(
            tmp_path,
            "timestamp,t\n0,1.0\nnot-a-time,2.0\n60,oops\n\n120,3.0\n",
        )
        trace = ingest(p)
        np.testing.assert_array_equal(trace.timestamps, [0, 60, 120])
        assert np.isnan(trace.sensor("t")[1])
        assert trace.metadata["dropped_rows"] == 1

    def test_write_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        vals = rng.normal(34.5, 1.0, size=50)
        vals[7] = np.nan
        trace = minute_trace(vals)
        p = tmp_path / "out.csv"
        write_trace(p, trace)
        back = ingest(p)
        np.testing.assert_array_equal(back.timestamps, trace.timestamps)
        np.testing.assert_array_equal(back.sensor("temp_core"), vals)


class TestAutoLabel:
    def day_values(self, fill=34.5, n=1440):
        return np.full(n, fill)

    def test_excursion_day_flagged(self):
        """15 min at 5.5 °C above base crosses the 3 °C band for >= 10 min."""
        day0 = self.day_values()
        day1 = self.day_values()
        day1[700:715] = 40.0
        trace = minute_trace(np.concatenate([day0, day1]))
        labels = auto_label_days(trace, "temp_core")
        assert [l.label for l in labels] == ["normal", "anomalous"]
        assert labels[0].day == date(1970, 1, 1)
        assert all(l.source == "auto" for l in labels)

    def test_short_excursion_stays_normal(self):
        day = self.day_values()
        day[700:709] = 40.0  # 9 min < 10 min threshold
        labels = auto_label_days(minute_trace(day), "temp_core")
        assert labels[0].label == "normal"

    def test_mostly_missing_day_flagged(self):
        day = self.day_values()
        day[: int(1440 * 0.25)] = np.nan
        labels = auto_label_days(minute_trace(day), "temp_core")
        assert labels[0].label == "anomalous"

    def test_deleted_rows_count_like_blank_cells(self):
        """A 23-hour outage on day 2 of a 4-day trace makes that day
        anomalous whether the logger wrote blank cells or no rows."""
        trace, _ = generate(SynthConfig(days=4, seed=3))
        outage = slice(2 * 1440 + 30, 2 * 1440 + 30 + 23 * 60)
        blank = trace.values.copy()
        blank[:, outage] = np.nan
        keep = np.ones(len(trace), dtype=bool)
        keep[outage] = False
        forms = [
            SensorTrace("h", trace.columns, trace.timestamps, blank),
            SensorTrace("h", trace.columns, trace.timestamps[keep], trace.values[:, keep]),
        ]
        labels = [[l.label for l in auto_label_days(t, "temp_core")] for t in forms]
        assert labels[0] == labels[1] == ["normal", "normal", "anomalous", "normal"]

    def test_hours_outside_the_trace_not_missing(self):
        """A trace that starts at 06:00 and ends at 18:00 is not charged
        for the hours before its first stamp or after its last."""
        day = self.day_values(n=720)
        assert auto_label_days(minute_trace(day, start_ts=6 * 3600), "temp_core")[0].label == "normal"
        day[:180] = np.nan  # 3 of its 12 hours: 25%
        assert auto_label_days(minute_trace(day, start_ts=6 * 3600), "temp_core")[0].label == "anomalous"

    def test_day_taken_under_the_utc_offset(self):
        """With a +02:00 offset the local day starts at 22:00 UTC: deleting
        local 00:00-06:00 of day 1 charges day 1, not day 0."""
        ts = 60 * np.arange(3 * 1440, dtype=np.int64) - 7200
        keep = (ts < 86400 - 7200) | (ts >= 86400 - 7200 + 6 * 3600)
        trace = SensorTrace(
            "h", [SensorColumn("temp_core", "°C")], ts[keep],
            np.full((1, int(keep.sum())), 34.5), utc_offset_s=7200,
        )
        labels = auto_label_days(trace, "temp_core")
        assert [l.day for l in labels] == [date(1970, 1, 1), date(1970, 1, 2), date(1970, 1, 3)]
        assert [l.label for l in labels] == ["normal", "anomalous", "normal"]

    def test_cumulative_minutes_not_consecutive(self):
        """Two separated 5-min dips together reach the 10-min threshold."""
        day = self.day_values()
        day[100:105] = 28.0
        day[900:905] = 28.0
        labels = auto_label_days(minute_trace(day), "temp_core")
        assert labels[0].label == "anomalous"


class TestBuildSplits:
    def labels(self, n_normal, n_anom=0):
        out = [
            DayLabel(date.fromordinal(date(2021, 6, 1).toordinal() + i), "normal")
            for i in range(n_normal)
        ]
        out += [
            DayLabel(date.fromordinal(date(2021, 7, 1).toordinal() + i), "anomalous")
            for i in range(n_anom)
        ]
        return out

    def test_chronological_ninety_ten(self):
        splits = build_splits(self.labels(10), validation_fraction=0.1)
        assert len(splits.training) == 9
        assert len(splits.validation) == 1
        assert max(splits.training) < min(splits.validation)

    def test_anomalous_days_held_out(self):
        splits = build_splits(self.labels(5, n_anom=2))
        assert len(splits.holdout) == 2
        assert splits.holdout.isdisjoint(splits.training | splits.validation)

    def test_tiny_sets_keep_both_splits_nonempty(self):
        splits = build_splits(self.labels(2), validation_fraction=0.1)
        assert len(splits.training) == 1 and len(splits.validation) == 1

    def test_no_normal_days(self):
        with pytest.raises(NoNormalDays):
            build_splits(self.labels(0, n_anom=3))

    def test_one_normal_day(self):
        """One normal day cannot fill both splits; the error says so."""
        with pytest.raises(NoNormalDays, match="need 2 normal-labeled days .*, have 1"):
            build_splits(self.labels(1, n_anom=1))

    def test_coverage_and_disjointness(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            frac = float(rng.uniform(0.05, 0.5))
            splits = build_splits(self.labels(n), validation_fraction=frac)
            assert splits.training.isdisjoint(splits.validation)
            assert len(splits.training) + len(splits.validation) == n


class TestNormalization:
    def test_population_std_oracle(self):
        """Hand-checked on {34, 35, 36}: mean 35, std sqrt(2/3)."""
        trace = minute_trace([34.0, 35.0, 36.0])
        params = fit_normalization(trace, "temp_core", {date(1970, 1, 1)})
        assert params.mean == pytest.approx(35.0)
        assert params.std == pytest.approx(0.816496580927726, abs=1e-15)

    def test_only_selected_days_used(self):
        rng = np.random.default_rng(42)
        day0 = rng.normal(30.0, 1.0, size=1440)
        day1 = rng.normal(40.0, 1.0, size=1440)
        trace = minute_trace(np.concatenate([day0, day1]))
        params = fit_normalization(trace, "temp_core", {date(1970, 1, 2)})
        assert params.mean == pytest.approx(float(np.mean(day1)), abs=1e-12)
        assert params.std == pytest.approx(float(np.std(day1)), abs=1e-12)

    def test_missing_values_excluded(self):
        vals = np.array([34.0, np.nan, 36.0])
        params = fit_normalization(minute_trace(vals), "temp_core", {date(1970, 1, 1)})
        assert params.mean == pytest.approx(35.0)
        assert params.std == pytest.approx(1.0)

    def test_fewer_than_two_readings(self):
        trace = minute_trace([34.0, np.nan, 36.0])
        with pytest.raises(EmptyDataset):
            fit_normalization(trace, "temp_core", {date(1970, 1, 2)})
        with pytest.raises(EmptyDataset):
            fit_normalization(minute_trace([34.0, np.nan]), "temp_core", {date(1970, 1, 1)})

    def test_degenerate_std(self):
        with pytest.raises(DegenerateStd):
            fit_normalization(
                minute_trace(np.full(100, 34.5)), "temp_core", {date(1970, 1, 1)}
            )

    @given(
        st.lists(
            st.floats(min_value=-500, max_value=500),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, vals):
        arr = np.asarray(vals)
        if np.std(arr) < 1e-6:
            return
        params = NormalizationParams(float(np.mean(arr)), float(np.std(arr)))
        np.testing.assert_allclose(
            params.denormalize(params.normalize(arr)), arr, atol=1e-12
        )

    def test_normalize_oracle(self):
        params = NormalizationParams(mean=35.0, std=2.0)
        np.testing.assert_allclose(params.normalize([39.0, 31.0]), [2.0, -2.0])


class TestMakeWindows:
    def test_every_consecutive_window(self):
        """Stride 1 over n contiguous readings yields n - w + 1 windows."""
        trace = minute_trace(np.arange(10.0))
        wins = make_windows(trace, "temp_core", {date(1970, 1, 1)}, window_size=4)
        assert len(wins) == 7
        np.testing.assert_allclose(wins.matrix[:, 0], [0, 1, 2, 3])
        np.testing.assert_allclose(wins.matrix[:, 6], [6, 7, 8, 9])
        assert wins.start_ts[2] == 120

    @given(n=st.integers(2, 200), w=st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_window_count_formula(self, n, w):
        if w > n:
            return
        trace = minute_trace(np.arange(float(n)))
        wins = make_windows(trace, "temp_core", {date(1970, 1, 1)}, window_size=w)
        assert len(wins) == n - w + 1

    def test_stride(self):
        trace = minute_trace(np.arange(10.0))
        wins = make_windows(
            trace, "temp_core", {date(1970, 1, 1)}, window_size=4, stride=3
        )
        assert wins.start_ts.tolist() == [0, 180, 360]

    def test_windows_skip_missing_readings(self):
        vals = np.arange(12.0)
        vals[5] = np.nan
        trace = minute_trace(vals)
        wins = make_windows(trace, "temp_core", {date(1970, 1, 1)}, window_size=3)
        # runs of length 5 and 6 -> 3 + 4 windows, none containing index 5
        assert len(wins) == 7
        assert np.isfinite(wins.matrix).all()

    def test_windows_skip_timestamp_gaps(self):
        ts = np.array([0, 60, 120, 300, 360, 420, 480], dtype=np.int64)
        trace = SensorTrace(
            hive_id="h",
            columns=[SensorColumn("t", "°C")],
            timestamps=ts,
            values=np.arange(7.0)[None, :],
        )
        wins = make_windows(trace, "t", {date(1970, 1, 1)}, window_size=3)
        # runs of length 3 and 4 -> 1 + 2 windows
        assert wins.start_ts.tolist() == [0, 300, 360]

    def test_day_selection_restricts_windows(self):
        trace = minute_trace(np.arange(2880.0))
        wins = make_windows(trace, "temp_core", {date(1970, 1, 2)}, window_size=60)
        assert len(wins) == 1440 - 60 + 1
        assert wins.start_ts.min() == 86400

    def test_adjacent_selected_days_share_windows(self):
        """Contiguous readings across midnight stay windowable when both
        days are selected."""
        trace = minute_trace(np.arange(2880.0))
        days = {date(1970, 1, 1), date(1970, 1, 2)}
        wins = make_windows(trace, "temp_core", days, window_size=60)
        assert len(wins) == 2880 - 60 + 1

    def test_normalized_windows(self):
        trace = minute_trace([34.0, 35.0, 36.0])
        params = NormalizationParams(mean=35.0, std=1.0)
        wins = make_windows(
            trace, "temp_core", {date(1970, 1, 1)}, window_size=3, params=params
        )
        np.testing.assert_allclose(wins.matrix[:, 0], [-1.0, 0.0, 1.0])


class TestMissingSpans:
    def test_oracle(self):
        vals = np.array([1.0, np.nan, np.nan, 4.0, 5.0, np.nan])
        spans = missing_spans(minute_trace(vals), "temp_core")
        assert spans == [(60, 180), (300, 360)]

    def test_no_missing(self):
        assert missing_spans(minute_trace([1.0, 2.0]), "temp_core") == []

    def test_timestamp_jump_merges_with_missing_readings(self):
        """Rows the logger never wrote are a gap too, one span with the
        blank readings that touch it; an infinite reading is not missing."""
        ts = np.array([0, 60, 120, 600, 660, 720, 780], dtype=np.int64)
        vals = np.array([1.0, 2.0, np.nan, np.nan, 5.0, np.inf, 7.0])
        trace = SensorTrace("h", [SensorColumn("t", "°C")], ts, vals[None, :])
        assert missing_spans(trace, "t") == [(120, 660)]
        vals[2] = 3.0
        assert missing_spans(trace, "t") == [(180, 660)]


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = [
            DayLabel(date(2021, 6, 2), "anomalous"),
            DayLabel(date(2021, 6, 1), "normal"),
        ]
        p = tmp_path / "labels.csv"
        write_labels(p, labels)
        back = read_labels(p)
        assert [(l.day, l.label) for l in back] == [
            (date(2021, 6, 1), "normal"),
            (date(2021, 6, 2), "anomalous"),
        ]
        assert all(l.source == "manual" for l in back)

    def test_bad_rows_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("date,label\n2021-06-01\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            read_labels(p)
        p.write_text("2021-13-99,normal\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            read_labels(p)

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("2021-06-01,weird\n", encoding="utf-8")
        with pytest.raises(MalformedHeader):
            read_labels(p)


class TestSplitFiles:
    def test_round_trip(self, tmp_path):
        from hivewatch.data import SplitSet

        splits = SplitSet(
            training={date(2021, 6, 1), date(2021, 6, 2)},
            validation={date(2021, 6, 3)},
            holdout={date(2021, 6, 9)},
        )
        p = tmp_path / "splits.txt"
        write_splits(p, splits)
        back = read_splits(p)
        assert back.training == splits.training
        assert back.validation == splits.validation
        assert back.holdout == splits.holdout
