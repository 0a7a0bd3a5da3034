"""Tests for the pairwise Pearson correlation matrix."""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest

from hivewatch.analysis import CorrelationMatrix, pearson_matrix, write_correlation
from hivewatch.data import SensorColumn, SensorTrace
from hivewatch.errors import UnknownSensor

DAY0 = date(2021, 6, 1)


def make_trace(values: np.ndarray, names=None) -> SensorTrace:
    """Minute-spaced trace starting at midnight of DAY0."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n_cols, n = values.shape
    names = names or [f"s{i}" for i in range(n_cols)]
    epoch0 = (DAY0 - date(1970, 1, 1)).days * 86400
    return SensorTrace(
        hive_id="corr-test",
        columns=[SensorColumn(name, "°C") for name in names],
        timestamps=epoch0 + 60 * np.arange(n, dtype=np.int64),
        values=values,
    )


def days_spanning(n_readings: int) -> list[date]:
    n_days = (n_readings * 60 + 86399) // 86400
    return [DAY0 + timedelta(days=i) for i in range(n_days)]


def brute_force_pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Textbook two-pass Pearson r over pairwise-complete values."""
    keep = np.isfinite(a) & np.isfinite(b)
    a, b = a[keep], b[keep]
    ma, mb = a.mean(), b.mean()
    num = float(np.sum((a - ma) * (b - mb)))
    den = math.sqrt(float(np.sum((a - ma) ** 2)) * float(np.sum((b - mb) ** 2)))
    return num / den


class TestPearsonMatrix:
    def test_diagonal_is_exactly_one(self) -> None:
        """A sensor correlated with itself is exactly 1, not 1-epsilon."""
        rng = np.random.default_rng(42)
        vals = rng.normal(20.0, 3.0, size=(3, 500))
        m = pearson_matrix(make_trace(vals), ["s0", "s1", "s2"], days_spanning(500))
        np.testing.assert_array_equal(np.diag(m.values), np.ones(3))

    def test_perfect_anticorrelation(self) -> None:
        x = np.linspace(0.0, 5.0, 200)
        m = pearson_matrix(make_trace(np.stack([x, -x])), ["s0", "s1"], days_spanning(200))
        assert m.r("s0", "s1") == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_pass_reference(self) -> None:
        """Every off-diagonal entry agrees with a from-scratch two-pass
        computation to 1e-10, including with missing readings."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(50, 400))
            vals = rng.normal(0.0, 1.0, size=(4, n))
            vals[0] += 0.5 * vals[1]  # some real structure
            holes = rng.random(size=vals.shape) < 0.1
            vals[holes] = np.nan
            m = pearson_matrix(
                make_trace(vals), ["s0", "s1", "s2", "s3"], days_spanning(n)
            )
            for i in range(4):
                for j in range(i + 1, 4):
                    expected = brute_force_pearson(vals[i], vals[j])
                    assert m.values[i, j] == pytest.approx(expected, abs=1e-10)

    def test_exactly_symmetric(self) -> None:
        rng = np.random.default_rng(42)
        vals = rng.normal(0.0, 1.0, size=(5, 300))
        vals[rng.random(size=vals.shape) < 0.2] = np.nan
        m = pearson_matrix(
            make_trace(vals), [f"s{i}" for i in range(5)], days_spanning(300)
        )
        np.testing.assert_array_equal(m.values, m.values.T)

    def test_constant_sensor_is_undefined(self) -> None:
        """Zero variance gives NaN everywhere the constant sensor is
        involved, including its own diagonal entry."""
        rng = np.random.default_rng(42)
        vals = np.stack([np.full(100, 34.5), rng.normal(0.0, 1.0, 100)])
        m = pearson_matrix(make_trace(vals), ["s0", "s1"], days_spanning(100))
        assert np.isnan(m.r("s0", "s1"))
        assert np.isnan(m.r("s0", "s0"))
        assert m.r("s1", "s1") == 1.0

    def test_short_overlap_is_undefined(self) -> None:
        """Fewer than two timestamps where both sensors report leaves the
        pair undefined."""
        a = np.array([1.0, 2.0, np.nan, np.nan, 3.0])
        b = np.array([np.nan, 7.0, 1.0, 2.0, np.nan])
        m = pearson_matrix(make_trace(np.stack([a, b])), ["s0", "s1"], days_spanning(5))
        assert np.isnan(m.r("s0", "s1"))
        assert m.r("s0", "s0") == 1.0

    def test_overlap_excludes_rows_missing_either_sensor(self) -> None:
        """r uses only rows where both sensors report: hand-checkable case
        where the shared rows are perfectly correlated but the full
        columns are not."""
        a = np.array([1.0, 2.0, 3.0, 9.0, np.nan])
        b = np.array([2.0, 4.0, 6.0, np.nan, 5.0])
        m = pearson_matrix(make_trace(np.stack([a, b])), ["s0", "s1"], days_spanning(5))
        assert m.r("s0", "s1") == pytest.approx(1.0, abs=1e-12)

    def test_day_selection_restricts_rows(self) -> None:
        """Only readings on the requested days enter the computation: the
        pair is anticorrelated on day 0 and correlated on day 1."""
        per_day = 1440
        x = np.linspace(0.0, 1.0, per_day)
        a = np.concatenate([x, x])
        b = np.concatenate([-x, x])
        trace = make_trace(np.stack([a, b]))
        m0 = pearson_matrix(trace, ["s0", "s1"], [DAY0])
        m1 = pearson_matrix(trace, ["s0", "s1"], [DAY0 + timedelta(days=1)])
        assert m0.r("s0", "s1") == pytest.approx(-1.0, abs=1e-12)
        assert m1.r("s0", "s1") == pytest.approx(1.0, abs=1e-12)

    def test_clipped_to_unit_interval(self) -> None:
        rng = np.random.default_rng(42)
        vals = rng.normal(0.0, 1.0, size=(3, 250))
        m = pearson_matrix(make_trace(vals), ["s0", "s1", "s2"], days_spanning(250))
        finite = m.values[np.isfinite(m.values)]
        assert np.all(finite <= 1.0) and np.all(finite >= -1.0)

    def test_unknown_sensor_rejected(self) -> None:
        trace = make_trace(np.zeros((2, 10)))
        with pytest.raises(UnknownSensor):
            pearson_matrix(trace, ["s0", "nope"], days_spanning(10))

    def test_needs_two_sensors(self) -> None:
        trace = make_trace(np.zeros((2, 10)))
        with pytest.raises(ValueError):
            pearson_matrix(trace, ["s0"], days_spanning(10))


class TestCorrelationMatrixType:
    def test_shape_validated(self) -> None:
        with pytest.raises(ValueError):
            CorrelationMatrix(sensors=["a", "b"], values=np.zeros((3, 3)))


class TestWriteCorrelation:
    def test_round_trippable_layout(self, tmp_path) -> None:
        """Header row and column carry sensor names; undefined entries are
        empty cells; defined entries parse back to the same float."""
        values = np.array([[1.0, 0.25], [0.25, np.nan]])
        m = CorrelationMatrix(sensors=["core", "outside"], values=values)
        path = tmp_path / "corr.csv"
        write_correlation(path, m)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sensor,core,outside"
        assert lines[1].split(",") == ["core", "1.0", "0.25"]
        row2 = lines[2].split(",")
        assert row2[0] == "outside"
        assert float(row2[1]) == 0.25
        assert row2[2] == ""
