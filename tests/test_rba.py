"""Rule-based detector against a brute-force oracle and hand-traced cases."""

from __future__ import annotations

import numpy as np
import pytest

from hivewatch.data import SensorColumn, SensorTrace
from hivewatch.errors import UnknownSensor, UnsupportedSampling
from hivewatch.rba import RbaConfig, rba_detect


def minute_trace(values, start_ts=0, timestamps=None):
    values = np.asarray(values, dtype=np.float64)
    if timestamps is None:
        timestamps = start_ts + 60 * np.arange(len(values), dtype=np.int64)
    return SensorTrace(
        hive_id="hive",
        columns=[SensorColumn("temp_core", "°C")],
        timestamps=timestamps,
        values=values[None, :],
    )


def brute_force_rba(trace, sensor, config):
    """Independent oracle: walk every index, expand maximal runs by
    explicit neighbor checks, filter by duration, earliest-max peak."""
    ts = trace.timestamps
    vals = trace.sensor(sensor)
    n = len(ts)
    limit = config.base_temp + config.band

    def above(k):
        return 0 <= k < n and np.isfinite(vals[k]) and vals[k] > limit

    def adjacent(k):  # readings k and k+1 are consecutive minutes
        return ts[k + 1] - ts[k] == 60

    events = []
    for i in range(n):
        if not above(i):
            continue
        if above(i - 1) and adjacent(i - 1):
            continue  # not the start of a maximal run
        j = i
        while above(j + 1) and adjacent(j):
            j += 1
        length = j - i + 1
        if config.min_duration <= length <= config.max_duration:
            seg = vals[i : j + 1]
            peak = i + min(m for m in range(length) if seg[m] == seg.max())
            events.append((int(ts[i]), int(ts[j]) + 60, int(ts[peak]), float(vals[peak])))
    return events


def as_tuples(events):
    return [(e.start_ts, e.end_ts, e.peak_ts, e.peak_score) for e in events]


class TestHandTracedCases:
    def test_constant_baseline_silent(self):
        assert rba_detect(minute_trace(np.full(120, 34.5)), "temp_core") == []

    def test_ten_minute_spike_peak_position(self):
        """10 min at 36.0 with one 36.5 peak in minute 4 of the run."""
        vals = np.full(60, 34.5)
        vals[20:30] = 36.0
        vals[24] = 36.5
        events = rba_detect(minute_trace(vals), "temp_core")
        assert len(events) == 1
        e = events[0]
        assert e.start_ts == 20 * 60
        assert e.end_ts == 30 * 60
        assert e.peak_ts == 24 * 60
        assert e.peak_score == pytest.approx(36.5)
        assert e.method == "RBA"

    def test_too_long_excursion_ignored(self):
        vals = np.full(60, 34.5)
        vals[10:40] = 36.0  # 30 min > 20
        assert rba_detect(minute_trace(vals), "temp_core") == []

    @pytest.mark.parametrize(
        "length,expected", [(1, 0), (2, 1), (20, 1), (21, 0)]
    )
    def test_duration_bounds_inclusive(self, length, expected):
        vals = np.full(60, 34.5)
        vals[10 : 10 + length] = 36.0
        assert len(rba_detect(minute_trace(vals), "temp_core")) == expected

    def test_threshold_is_strict(self):
        """Exactly base + band never fires; infinitesimally above does."""
        vals = np.full(30, 34.5)
        vals[5:10] = 35.5
        assert rba_detect(minute_trace(vals), "temp_core") == []
        vals[5:10] = 35.5 + 1e-9
        assert len(rba_detect(minute_trace(vals), "temp_core")) == 1

    def test_peak_tie_earliest(self):
        vals = np.full(30, 34.5)
        vals[10:15] = 36.0  # five-way tie
        events = rba_detect(minute_trace(vals), "temp_core")
        assert events[0].peak_ts == 10 * 60

    def test_missing_reading_splits_run(self):
        vals = np.full(40, 34.5)
        vals[10:20] = 36.0
        vals[14] = np.nan
        events = rba_detect(minute_trace(vals), "temp_core")
        assert [(e.start_ts // 60, e.end_ts // 60) for e in events] == [(10, 14), (15, 20)]

    def test_timestamp_jump_splits_run(self):
        ts = 60 * np.arange(20, dtype=np.int64)
        ts[10:] += 300  # five-minute hole in the record
        events = rba_detect(minute_trace(np.full(20, 36.0), timestamps=ts), "temp_core")
        assert [(e.start_ts, e.end_ts) for e in events] == [
            (0, 10 * 60),
            (int(ts[10]), int(ts[19]) + 60),
        ]

    def test_unknown_sensor(self):
        with pytest.raises(UnknownSensor):
            rba_detect(minute_trace([34.5, 34.5]), "nope")

    def test_non_minute_resolution_rejected(self):
        trace = SensorTrace(
            hive_id="h",
            columns=[SensorColumn("temp_core", "°C")],
            timestamps=np.array([0, 10, 20]),
            values=np.full((1, 3), 36.0),
        )
        with pytest.raises(UnsupportedSampling, match="per minute"):
            rba_detect(trace, "temp_core")


class TestConfig:
    def test_defaults_match_domain(self):
        config = RbaConfig()
        assert config.base_temp == pytest.approx(34.5)
        assert config.band == pytest.approx(1.0)
        assert (config.min_duration, config.max_duration) == (2, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            RbaConfig(band=0.0)
        with pytest.raises(ValueError):
            RbaConfig(min_duration=0)
        with pytest.raises(ValueError):
            RbaConfig(min_duration=5, max_duration=4)


def random_day(rng):
    """One synthetic day mixing noise crossings, spikes, missing data, and
    dropped rows."""
    n = 1440
    vals = 34.5 + rng.normal(0.0, 0.4, n)
    for _ in range(int(rng.integers(0, 6))):
        start = int(rng.integers(0, n - 40))
        length = int(rng.integers(1, 35))
        vals[start : start + length] += rng.uniform(0.5, 3.0)
    for _ in range(int(rng.integers(0, 4))):
        g = int(rng.integers(0, n - 5))
        vals[g : g + int(rng.integers(1, 5))] = np.nan
    ts = 60 * np.arange(n, dtype=np.int64)
    if rng.random() < 0.5:  # drop a contiguous block of rows entirely
        cut = int(rng.integers(0, n - 30))
        keep = np.ones(n, dtype=bool)
        keep[cut : cut + int(rng.integers(1, 30))] = False
        ts, vals = ts[keep], vals[keep]
    return minute_trace(vals, timestamps=ts)


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_days(self):
        """Exact event-set equality against the independent enumeration."""
        rng = np.random.default_rng(42)
        config = RbaConfig()
        for _ in range(60):
            trace = random_day(rng)
            assert as_tuples(rba_detect(trace, "temp_core", config)) == brute_force_rba(
                trace, "temp_core", config
            )

    def test_shift_invariance(self):
        """Adding c to readings and base alike changes only the scores."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            trace = random_day(rng)
            c = float(rng.uniform(-5, 5))
            shifted = minute_trace(trace.sensor("temp_core") + c, timestamps=trace.timestamps)
            base = rba_detect(trace, "temp_core")
            moved = rba_detect(shifted, "temp_core", RbaConfig(base_temp=34.5 + c))
            assert [(e.start_ts, e.end_ts, e.peak_ts) for e in base] == [
                (e.start_ts, e.end_ts, e.peak_ts) for e in moved
            ]
            for a, b in zip(base, moved):
                assert b.peak_score == pytest.approx(a.peak_score + c)

    def test_event_durations_inside_bounds(self):
        rng = np.random.default_rng(3)
        config = RbaConfig()
        for _ in range(20):
            for e in rba_detect(random_day(rng), "temp_core", config):
                minutes = (e.end_ts - e.start_ts) // 60
                assert config.min_duration <= minutes <= config.max_duration
