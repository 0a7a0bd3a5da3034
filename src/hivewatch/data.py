"""Sensor file ingestion, resampling, day labeling, splits, and windowing.

Traces are kept as numpy arrays: one int64 vector of epoch-second
timestamps (strictly increasing) and one float64 matrix of readings with
NaN marking missing values. Calendar days are derived from the timestamps
plus the UTC offset declared in the source file.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateStd,
    EmptyDataset,
    EmptyTrace,
    FileUnreadable,
    MalformedHeader,
    NonMonotonicTimestamps,
    NoNormalDays,
    UnknownSensor,
)

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_SECONDS_PER_DAY = 86400

#: Fraction of out-of-order rows tolerated (sorted silently) before ingest fails.
MAX_UNSORTED_FRACTION = 0.01


def day_of(ts: int, utc_offset_s: int = 0) -> date:
    """Calendar day containing epoch second `ts`, in the declared offset."""
    return date.fromordinal(_EPOCH_ORDINAL + (int(ts) + utc_offset_s) // _SECONDS_PER_DAY)


def _day_numbers(timestamps: np.ndarray, utc_offset_s: int) -> np.ndarray:
    return (timestamps + utc_offset_s) // _SECONDS_PER_DAY


def _day_number(day: date) -> int:
    return day.toordinal() - _EPOCH_ORDINAL


@dataclass(frozen=True)
class SensorColumn:
    name: str
    unit: str


@dataclass
class SensorTrace:
    """Timestamped multi-sensor readings for one hive.

    `values` has shape (len(columns), len(timestamps)); NaN means the
    reading is missing. Timestamps are UTC epoch seconds and strictly
    increasing; `utc_offset_s` is the offset declared by the source file,
    used only to decide day boundaries.
    """

    hive_id: str
    columns: list[SensorColumn]
    timestamps: np.ndarray
    values: np.ndarray
    utc_offset_s: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=np.float64))
        if self.values.shape != (len(self.columns), len(self.timestamps)):
            raise ValueError(
                f"values shape {self.values.shape} inconsistent with "
                f"{len(self.columns)} columns x {len(self.timestamps)} timestamps"
            )
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def sensor_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, sensor: str) -> int:
        for i, col in enumerate(self.columns):
            if col.name == sensor:
                return i
        raise UnknownSensor(f"sensor {sensor!r} not in {self.sensor_names}")

    def sensor(self, sensor: str) -> np.ndarray:
        """Readings of one sensor (a view, NaN = missing)."""
        return self.values[self.column_index(sensor)]

    def day_numbers(self) -> np.ndarray:
        """Epoch day index of each reading, honoring the declared offset."""
        return _day_numbers(self.timestamps, self.utc_offset_s)

    def days(self) -> list[date]:
        """Distinct calendar days present, ascending."""
        nums = np.unique(self.day_numbers())
        return [date.fromordinal(_EPOCH_ORDINAL + int(n)) for n in nums]


def sample_period(trace: SensorTrace) -> int:
    """Smallest positive timestamp step, in seconds (0 for traces of length < 2)."""
    if len(trace) < 2:
        return 0
    return int(np.diff(trace.timestamps).min())


@dataclass(frozen=True)
class NormalizationParams:
    """z-score parameters, fit on the training split and reused everywhere."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        if not self.std > 0:
            raise ValueError("std must be positive")

    def normalize(self, v):
        return (np.asarray(v, dtype=np.float64) - self.mean) / self.std

    def denormalize(self, v):
        return np.asarray(v, dtype=np.float64) * self.std + self.mean


@dataclass
class Window:
    """Fixed-length gap-free subsequence, the autoencoder's input unit."""

    start_ts: int
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("window needs a 1-d value sequence of length >= 2")
        if not np.isfinite(self.values).all():
            raise ValueError("window must not contain missing values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DayLabel:
    day: date
    label: str  # "normal" | "anomalous"
    source: str = "manual"  # "manual" | "auto"

    def __post_init__(self) -> None:
        if self.label not in ("normal", "anomalous"):
            raise ValueError(f"label must be normal/anomalous, got {self.label!r}")


@dataclass
class SplitSet:
    """Day-level partition: train/validate on normal days of the source hive,
    hold out its anomalous days, test on other hives' anomalous days."""

    training: set
    validation: set
    holdout: set
    test: dict

    def __post_init__(self) -> None:
        if self.training & self.validation:
            raise ValueError("training and validation days overlap")


# ---------------------------------------------------------------------------
# Ingestion


@dataclass(frozen=True)
class IngestFormat:
    """Delimited-text layout: header `timestamp,<sensor>...`, ISO-8601 or
    epoch-second timestamps, empty cell = missing reading."""

    delimiter: str = ","


def _unit_for(name: str) -> str:
    return "kg" if "weight" in name.lower() else "°C"


def _parse_timestamp(cell: str) -> tuple[int, int] | None:
    """Parse one timestamp cell, returning (epoch_s, utc_offset_s) or None."""
    s = cell.strip()
    if not s:
        return None
    try:
        return int(round(float(s))), 0
    except ValueError:
        pass
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(s)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
        offset = 0
    else:
        offset = int(dt.utcoffset().total_seconds())
    return int(round(dt.timestamp())), offset


def ingest(path, fmt: IngestFormat | None = None, hive_id: str | None = None) -> SensorTrace:
    """Read a delimited sensor file into a trace.

    Without `fmt`, the delimiter comes from the header line: tab if it
    holds one, comma otherwise, so both layouts `write_trace` produces
    read back.

    Unparseable value cells become missing readings; rows whose timestamp
    cannot be parsed are dropped and counted. Out-of-order rows are sorted
    silently while they stay under ``MAX_UNSORTED_FRACTION``; duplicate
    timestamps collapse to the last occurrence. Counts of all repairs land
    in ``trace.metadata``.
    """
    path = Path(path)
    try:
        fh = path.open("r", newline="", encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot open {path}: {exc}") from exc
    with fh:
        first = fh.readline()
        if fmt is None:
            fmt = IngestFormat(delimiter="\t" if "\t" in first else ",")
        try:
            header = next(csv.reader([first], delimiter=fmt.delimiter))
        except csv.Error as exc:
            raise MalformedHeader(f"{path}: empty or unreadable header") from exc
        reader = csv.reader(fh, delimiter=fmt.delimiter)
        if not header or header[0].strip().lower() != "timestamp":
            raise MalformedHeader(f"{path}: first header column must be 'timestamp'")
        names = [c.strip() for c in header[1:]]
        if not names or any(not n for n in names):
            raise MalformedHeader(f"{path}: need at least one named sensor column")

        n_cols = len(names)
        ts_list: list[int] = []
        rows: list[list[float]] = []
        offset: int | None = None
        dropped = ragged = 0
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            parsed = _parse_timestamp(row[0])
            if parsed is None:
                dropped += 1
                continue
            ts, row_offset = parsed
            if offset is None:
                offset = row_offset
            if len(row) - 1 != n_cols:
                ragged += 1
            vals = []
            for j in range(n_cols):
                cell = row[j + 1].strip() if j + 1 < len(row) else ""
                try:
                    vals.append(float(cell))
                except ValueError:
                    vals.append(math.nan)
            ts_list.append(ts)
            rows.append(vals)

    ts = np.asarray(ts_list, dtype=np.int64)
    vals = (
        np.asarray(rows, dtype=np.float64).T
        if rows
        else np.empty((n_cols, 0), dtype=np.float64)
    )

    out_of_order = int(np.sum(np.diff(ts) < 0)) if len(ts) > 1 else 0
    if len(ts) and out_of_order / len(ts) > MAX_UNSORTED_FRACTION:
        raise NonMonotonicTimestamps(
            f"{path}: {out_of_order} of {len(ts)} rows out of order"
        )
    if out_of_order:
        order = np.argsort(ts, kind="stable")
        ts, vals = ts[order], vals[:, order]

    duplicates = 0
    if len(ts) > 1:
        keep = np.r_[ts[1:] != ts[:-1], True]  # last occurrence wins
        duplicates = int(len(ts) - keep.sum())
        if duplicates:
            ts, vals = ts[keep], vals[:, keep]

    return SensorTrace(
        hive_id=hive_id or path.stem,
        columns=[SensorColumn(n, _unit_for(n)) for n in names],
        timestamps=ts,
        values=vals,
        utc_offset_s=offset or 0,
        metadata={
            "source": str(path),
            "out_of_order_rows": out_of_order,
            "duplicate_rows": duplicates,
            "dropped_rows": dropped,
            "ragged_rows": ragged,
        },
    )


def write_trace(path, trace: SensorTrace, fmt: IngestFormat = IngestFormat()) -> None:
    """Write a trace in the ingest format (ISO-8601 timestamps, empty = missing)."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=fmt.delimiter)
        writer.writerow(["timestamp"] + trace.sensor_names)
        tz = timezone.utc
        for i, ts in enumerate(trace.timestamps):
            stamp = datetime.fromtimestamp(int(ts), tz).isoformat()
            row = [stamp]
            for c in range(len(trace.columns)):
                v = trace.values[c, i]
                row.append("" if math.isnan(v) else repr(float(v)))
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Resampling


def resample(trace: SensorTrace, period_s: int) -> SensorTrace:
    """Bucket-mean resampling onto a regular grid of `period_s` seconds.

    Each output reading is the mean of the inputs in [t, t + period);
    empty buckets come out missing. Requires period >= the native
    sampling period.
    """
    if len(trace) == 0:
        raise EmptyTrace("cannot resample an empty trace")
    period_s = int(period_s)
    if period_s <= 0:
        raise ValueError("period must be positive")
    native = sample_period(trace)
    if native and period_s < native:
        raise ValueError(f"period {period_s}s below native sampling period {native}s")

    first = int(trace.timestamps[0]) // period_s
    last = int(trace.timestamps[-1]) // period_s
    n_buckets = last - first + 1
    bucket = (trace.timestamps // period_s - first).astype(np.intp)

    out = np.full((len(trace.columns), n_buckets), np.nan)
    for c in range(len(trace.columns)):
        col = trace.values[c]
        present = np.isfinite(col)
        counts = np.bincount(bucket[present], minlength=n_buckets)
        sums = np.bincount(bucket[present], weights=col[present], minlength=n_buckets)
        nonzero = counts > 0
        out[c, nonzero] = sums[nonzero] / counts[nonzero]

    return SensorTrace(
        hive_id=trace.hive_id,
        columns=list(trace.columns),
        timestamps=(np.arange(first, last + 1, dtype=np.int64) * period_s),
        values=out,
        utc_offset_s=trace.utc_offset_s,
        metadata={**trace.metadata, "resample_period_s": period_s},
    )


# ---------------------------------------------------------------------------
# Day labeling and splits

#: Core temperature a healthy colony holds, degrees Celsius.
BROOD_TEMP_C = 34.5


def auto_label_days(
    trace: SensorTrace,
    sensor: str,
    band: float = 3.0,
    min_excess_minutes: int = 10,
    base_temp: float = BROOD_TEMP_C,
    max_missing_fraction: float = 0.2,
) -> list[DayLabel]:
    """Label each day normal or anomalous from one sensor's readings.

    A day is anomalous when readings sit more than `band` away from
    `base_temp` for at least `min_excess_minutes` cumulative minutes, or
    when more than `max_missing_fraction` of its readings are missing
    (sensor-anomaly class).
    """
    if not band > 0:
        raise ValueError("band must be positive")
    col = trace.sensor(sensor)
    if len(trace) == 0:
        return []
    period = sample_period(trace) or 60
    minutes_per_reading = period / 60.0

    day_nums = trace.day_numbers()
    labels = []
    for num in np.unique(day_nums):
        mask = day_nums == num
        vals = col[mask]
        missing = np.isnan(vals)
        if missing.mean() > max_missing_fraction:
            anomalous = True
        else:
            excess = np.abs(vals[~missing] - base_temp) > band
            anomalous = excess.sum() * minutes_per_reading >= min_excess_minutes
        labels.append(
            DayLabel(
                day=date.fromordinal(_EPOCH_ORDINAL + int(num)),
                label="anomalous" if anomalous else "normal",
                source="auto",
            )
        )
    return labels


def build_splits(
    labels: list[DayLabel],
    other_hives: dict[str, list[DayLabel]] | None = None,
    validation_fraction: float = 0.1,
) -> SplitSet:
    """Chronological split of normal days into training/validation, plus
    holdout (source-hive anomalous days) and test (other hives')."""
    if not 0 < validation_fraction < 1:
        raise ValueError("validation_fraction must be in (0, 1)")
    normal = sorted(l.day for l in labels if l.label == "normal")
    if not normal:
        raise NoNormalDays("no normal-labeled days to train on")
    n = len(normal)
    n_train = int(math.floor(n * (1.0 - validation_fraction)))
    if n >= 2:
        n_train = min(max(n_train, 1), n - 1)
    return SplitSet(
        training=set(normal[:n_train]),
        validation=set(normal[n_train:]),
        holdout={l.day for l in labels if l.label == "anomalous"},
        test={
            hive: {l.day for l in hive_labels if l.label == "anomalous"}
            for hive, hive_labels in (other_hives or {}).items()
        },
    )


# ---------------------------------------------------------------------------
# Normalization and windows


def fit_normalization(trace: SensorTrace, sensor: str, days: set) -> NormalizationParams:
    """Population mean/std of one sensor over the given days (non-missing only)."""
    col = trace.sensor(sensor)
    wanted = {_day_number(d) for d in days}
    mask = np.isin(trace.day_numbers(), sorted(wanted)) & np.isfinite(col)
    vals = col[mask]
    if len(vals) < 2:
        raise EmptyDataset(f"need at least 2 readings in the given days, have {len(vals)}")
    std = float(np.std(vals))
    if std < 1e-9:
        raise DegenerateStd(f"sensor {sensor!r} is constant over the given days")
    return NormalizationParams(mean=float(np.mean(vals)), std=std)


def _contiguous_runs(trace: SensorTrace, eligible: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [a, b) index runs that are eligible and gap-free in time."""
    n = len(trace)
    if n == 0 or not eligible.any():
        return []
    period = sample_period(trace)
    breaks = np.zeros(n, dtype=bool)
    breaks[0] = True
    if n > 1:
        steps = np.diff(trace.timestamps)
        breaks[1:] = steps != period
    runs = []
    a = None
    for i in range(n):
        if eligible[i] and (a is not None) and not breaks[i]:
            continue
        if a is not None:
            runs.append((a, i))
            a = None
        if eligible[i]:
            a = i
    if a is not None:
        runs.append((a, n))
    return runs


def make_windows(
    trace: SensorTrace,
    sensor: str,
    days: set,
    window_size: int = 60,
    stride: int = 1,
    params: NormalizationParams | None = None,
) -> list[Window]:
    """All windows of `window_size` consecutive readings within `days`.

    Windows never span a missing reading, a timestamp gap, or a day
    outside `days`; stride 1 yields every possible window. When `params`
    is given each window is z-score normalized with it.
    """
    if window_size < 2:
        raise ValueError("window_size must be >= 2")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    col = trace.sensor(sensor)
    if len(trace) == 0:
        return []
    wanted = {_day_number(d) for d in days}
    eligible = np.isfinite(col) & np.isin(trace.day_numbers(), sorted(wanted))

    windows = []
    for a, b in _contiguous_runs(trace, eligible):
        for off in range(a, b - window_size + 1, stride):
            vals = col[off : off + window_size]
            if params is not None:
                vals = params.normalize(vals)
            else:
                vals = vals.copy()
            windows.append(
                Window(
                    start_ts=int(trace.timestamps[off]),
                    values=vals,
                    normalized=params is not None,
                )
            )
    return windows


def missing_spans(trace: SensorTrace, sensor: str) -> list[tuple[int, int]]:
    """Half-open [start, end) spans of missing readings, for gap reporting."""
    col = trace.sensor(sensor)
    n = len(trace)
    if n == 0:
        return []
    period = sample_period(trace) or 60
    missing = np.isnan(col)
    spans = []
    a = None
    for i in range(n):
        if missing[i] and a is None:
            a = i
        elif not missing[i] and a is not None:
            spans.append((int(trace.timestamps[a]), int(trace.timestamps[i - 1]) + period))
            a = None
    if a is not None:
        spans.append((int(trace.timestamps[a]), int(trace.timestamps[n - 1]) + period))
    return spans


# ---------------------------------------------------------------------------
# Label and split files


def read_labels(path) -> list[DayLabel]:
    """Read a `date,label` file (YYYY-MM-DD, normal|anomalous), header optional."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot open {path}: {exc}") from exc
    labels = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if lineno == 1 and parts[0].lower() == "date":
            continue
        if len(parts) != 2:
            raise MalformedHeader(f"{path}:{lineno}: expected 'date,label'")
        try:
            day = date.fromisoformat(parts[0])
        except ValueError as exc:
            raise MalformedHeader(f"{path}:{lineno}: bad date {parts[0]!r}") from exc
        labels.append(DayLabel(day=day, label=parts[1], source="manual"))
    return labels


def write_labels(path, labels: list[DayLabel]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("date,label\n")
        for l in sorted(labels, key=lambda l: l.day):
            fh.write(f"{l.day.isoformat()},{l.label}\n")


def write_splits(path, splits: SplitSet) -> None:
    """Serialize a split as `key=comma-separated sorted dates` lines."""

    def fmt(days):
        return ",".join(d.isoformat() for d in sorted(days))

    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"training={fmt(splits.training)}\n")
        fh.write(f"validation={fmt(splits.validation)}\n")
        fh.write(f"holdout={fmt(splits.holdout)}\n")
        for hive in sorted(splits.test):
            fh.write(f"test.{hive}={fmt(splits.test[hive])}\n")


def read_splits(path) -> SplitSet:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot open {path}: {exc}") from exc
    fields = {"training": set(), "validation": set(), "holdout": set()}
    test: dict[str, set] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, rest = line.partition("=")
        days = {date.fromisoformat(p) for p in rest.split(",") if p}
        if key.startswith("test."):
            test[key[len("test."):]] = days
        elif key in fields:
            fields[key] = days
        else:
            raise MalformedHeader(f"{path}: unknown split key {key!r}")
    return SplitSet(test=test, **fields)
