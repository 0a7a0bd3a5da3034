"""Sensor file ingestion, day labeling, splits, and windowing.

Traces are kept as numpy arrays: one int64 vector of epoch-second
timestamps (strictly increasing) and one float64 matrix of readings with
NaN marking missing values. Calendar days are derived from the timestamps
plus the UTC offset declared in the source file.

`ingest` reads a clean file in blocks of columns and hands anything it
would have to repair to a row-by-row parser; both give the same arrays.
`make_windows` returns a `WindowSet`: every window of a sensor as the
columns of one matrix, ready for the model, with no per-window objects.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateStd,
    EmptyDataset,
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
        return (self.timestamps + self.utc_offset_s) // _SECONDS_PER_DAY

    def day_mask(self, days) -> np.ndarray:
        """True for each reading whose calendar day is in `days`."""
        return np.isin(self.day_numbers(), sorted({_day_number(d) for d in days}))

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


@dataclass(eq=False)
class WindowSet:
    """Windows of one sensor as one matrix, the way the model consumes them.

    `matrix` is C-contiguous float64 with shape (window_size, n), one
    window per column; `start_ts[j]` is the epoch second of column j's
    first reading.
    """

    matrix: np.ndarray
    start_ts: np.ndarray

    def __len__(self) -> int:
        return self.matrix.shape[1]


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
    """Day-level partition: train/validate on normal days, hold out the
    anomalous days."""

    training: set
    validation: set
    holdout: set

    def __post_init__(self) -> None:
        if self.training & self.validation:
            raise ValueError("training and validation days overlap")


# ---------------------------------------------------------------------------
# Ingestion


def _unit_for(name: str) -> str:
    return "kg" if "weight" in name.lower() else "°C"


#: UTC epoch seconds of the first and last second of years 1 to 9999,
#: the stamps `datetime` can hold and the event files can write back.
_FIRST_TS = (date(1, 1, 1).toordinal() - _EPOCH_ORDINAL) * _SECONDS_PER_DAY
_LAST_TS = (date(9999, 12, 31).toordinal() + 1 - _EPOCH_ORDINAL) * _SECONDS_PER_DAY - 1


def _parse_timestamp(cell: str) -> tuple[int, int] | None:
    """Parse one timestamp cell, returning (epoch_s, utc_offset_s), or None
    when it is no stamp or falls outside years 1 to 9999 UTC."""
    s = cell.strip()
    if not s:
        return None
    try:
        ts, offset = int(round(float(s))), 0
    except (ValueError, OverflowError):  # not a number, or NaN or infinite
        if s.endswith(("Z", "z")):
            s = s[:-1] + "+00:00"
        try:
            dt = datetime.fromisoformat(s)
        except ValueError:
            return None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ts, offset = int(round(dt.timestamp())), int(dt.utcoffset().total_seconds())
    return (ts, offset) if _FIRST_TS <= ts <= _LAST_TS else None


#: Lines per block of the columnar ingest and write paths. Fixed: it
#: bounds how many cells exist as Python strings at once. Splitting or
#: formatting a whole 15-column file at once left tens of thousands of
#: them resident and raised the process's peak memory.
_BLOCK_LINES = 1024

#: The one UTC-offset suffix the columnar path accepts, as `datetime`
#: reads it: sign, hours 00-23, minutes 00-59.
_OFFSET_SUFFIX = re.compile(r"[+-](?:[01]\d|2[0-3]):[0-5]\d")

#: Byte layout of a stamp's first 19 characters; "0" marks a digit.
_STAMP_HEAD = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
_HEAD_DIGIT = _STAMP_HEAD == ord("0")

_YEAR_ONE = np.datetime64("0001-01-01T00:00:00", "s")


def _parse_rows(fh, delimiter: str, n_cols: int):
    """Row-by-row parse of the body: the path that repairs.

    Returns (timestamps, values, utc_offset_s, dropped, ragged); the
    offset is the first parsed row's.
    """
    ts_list: list[int] = []
    rows: list[list[float]] = []
    offset: int | None = None
    dropped = ragged = 0
    for row in csv.reader(fh, delimiter=delimiter):
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
    return ts, vals, offset or 0, dropped, ragged


def _parse_block(lines: list[str], delimiter: str, n_cols: int, selected: list[int],
                 suffix: str | None):
    """Columnar parse of one block, or None unless the row parser would
    read it the same way with nothing to repair.

    Only the value columns at the indices `selected` are parsed; every
    line's cell count, quotes and stamp are checked all the same.
    Accepted: no quote character, exactly `n_cols + 1` cells per line (a
    blank line has one), and every stamp 25 ASCII characters of the form
    `YYYY-MM-DDTHH:MM:SS` plus the one offset `suffix` (the block's own
    when None). NumPy parses the first 19 characters; it rejects
    out-of-range fields, and a digit in every digit place with a year
    >= 1 means each parsed stamp formats back to its own text. That
    rules out what NumPy reads and `datetime` does not (`+021-...`, year
    0) and the other way round (a space for the `T`). Returns (suffix,
    local epoch seconds, values).
    """
    if '"' in "".join(lines):
        return None
    rows = [line.rstrip("\r\n").split(delimiter) for line in lines]
    if set(map(len, rows)) != {n_cols + 1}:
        return None
    stamps, *cells = zip(*rows)
    block_suffix = stamps[0][19:]
    if set(map(len, stamps)) != {25} or block_suffix != (suffix or block_suffix):
        return None
    try:
        raw = "".join(stamps).encode("ascii")
    except UnicodeEncodeError:
        return None
    codes = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 25)
    head = codes[:, :19]
    if not (
        _OFFSET_SUFFIX.fullmatch(block_suffix)
        and (codes[:, 19:] == codes[0, 19:]).all()
        and np.where(_HEAD_DIGIT, head - ord("0") < 10, head == _STAMP_HEAD).all()
    ):
        return None
    try:
        local = np.frombuffer(raw, dtype="S25").astype("S19").astype("datetime64[s]")
        vals = np.array(
            [[float(c) if c else math.nan for c in cells[j]] for j in selected],
            dtype=np.float64,
        ).reshape(len(selected), len(lines))
    except ValueError:
        return None
    if local.min() < _YEAR_ONE:
        return None
    return block_suffix, local.astype(np.int64), vals


def _parse_blocks(fh, delimiter: str, n_cols: int, selected: list[int]):
    """Block-columnar parse of the body, or None as soon as one block needs
    the row parser: mixed offsets, other stamp forms, unparseable cells in
    the `selected` columns, quoted cells, blank or ragged lines, out-of-order
    or duplicate rows, stamps outside years 1 to 9999 UTC.

    Returns what `_parse_rows` does for the `selected` columns, with no rows
    dropped or ragged.
    """
    suffix = None
    ts_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    while lines := list(itertools.islice(fh, _BLOCK_LINES)):
        block = _parse_block(lines, delimiter, n_cols, selected, suffix)
        if block is None:
            return None
        suffix, local, vals = block
        ts_parts.append(local)
        val_parts.append(vals)
    if not ts_parts:
        return np.empty(0, np.int64), np.empty((len(selected), 0)), 0, 0, 0
    offset = int(suffix[0] + "1") * (3600 * int(suffix[1:3]) + 60 * int(suffix[4:6]))
    ts = np.concatenate(ts_parts) - offset
    if not ((np.diff(ts) > 0).all() and _FIRST_TS <= ts[0] and ts[-1] <= _LAST_TS):
        return None
    return ts, np.concatenate(val_parts, axis=1), offset, 0, 0


def ingest(path, sensors=None) -> SensorTrace:
    """Read a delimited sensor file into a trace named after the file.

    The layout is a header `timestamp,<sensor>...`, ISO-8601 or
    epoch-second timestamps, and an empty cell for a missing reading.
    The delimiter comes from the header line: tab if that holds one,
    comma otherwise, so both layouts `write_trace` produces read back.

    `sensors` names the value columns to read; the trace holds those
    columns in file order (every column of a duplicated name), or every
    column when it is None. A name not in the header raises
    `UnknownSensor`.

    The body is first read in blocks of 1 024 lines, each split into
    columns: NumPy parses the stamps and `float` each cell of the columns
    read. That path takes only files the row parser would read
    identically and with nothing to repair: ISO stamps with one shared
    UTC offset, strictly increasing, every row complete and unquoted.
    Cells of the columns not read are never parsed, so a bad one sends no
    file to the row parser.
    Any other file is read again from the top by the row parser, which is
    the only path that repairs: unparseable value cells become missing
    readings; rows whose timestamp cannot be parsed, or falls outside
    years 1 to 9999 UTC, are dropped and counted; out-of-order rows are
    sorted silently while they stay under ``MAX_UNSORTED_FRACTION``;
    duplicate timestamps collapse to the last occurrence. Both paths give
    the same arrays bit for bit. Counts of all repairs, and which path
    ran (``parser``: ``"block"`` or ``"row"``), land in
    ``trace.metadata``. A file that is not UTF-8, or that the
    row parser cannot split into cells (a quote left open until a cell
    outgrows `csv`'s field limit), raises `FileUnreadable`.
    """
    path = Path(path)
    try:
        fh = path.open("r", newline="", encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            first = fh.readline()
            delimiter = "\t" if "\t" in first else ","
            try:
                header = next(csv.reader([first], delimiter=delimiter))
            except csv.Error as exc:
                raise MalformedHeader(f"{path}: empty or unreadable header") from exc
            if not header or header[0].strip().lower() != "timestamp":
                raise MalformedHeader(f"{path}: first header column must be 'timestamp'")
            names = [c.strip() for c in header[1:]]
            if not names or any(not n for n in names):
                raise MalformedHeader(f"{path}: need at least one named sensor column")
            for name in sensors or ():
                if name not in names:
                    raise UnknownSensor(f"sensor {name!r} not in {names}")
            selected = [j for j, n in enumerate(names) if sensors is None or n in sensors]

            parser = "block"
            parsed = _parse_blocks(fh, delimiter, len(names), selected)
            if parsed is None:
                parser = "row"
                fh.seek(0)
                fh.readline()
                ts, vals, *repairs = _parse_rows(fh, delimiter, len(names))
                parsed = (ts, vals[selected], *repairs)
    except UnicodeDecodeError as exc:
        raise FileUnreadable(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # a quote left open runs past the field limit
        raise FileUnreadable(f"{path}: not a delimited table ({exc})") from exc
    ts, vals, offset, dropped, ragged = parsed

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
        hive_id=path.stem,
        columns=[SensorColumn(names[j], _unit_for(names[j])) for j in selected],
        timestamps=ts,
        values=vals,
        utc_offset_s=offset,
        metadata={
            "source": str(path),
            "parser": parser,
            "rows": len(ts),
            "out_of_order_rows": out_of_order,
            "duplicate_rows": duplicates,
            "dropped_rows": dropped,
            "ragged_rows": ragged,
        },
    )


def write_trace(path, trace: SensorTrace, delimiter: str = ",") -> None:
    """Write a trace in the ingest format: ISO-8601 UTC timestamps, each
    reading as `repr` of the float, empty cell = missing.

    Rows are formatted in blocks of 1 024, so only one block's cells exist
    as strings at a time, and each block is joined and written at once by
    C loops: the bytes a row-by-row `csv.writer` wrote. Every "nan" in a
    block is a missing reading, since no stamp or other float `repr`
    holds one. Only the header can need quoting (a sensor name holding
    the delimiter or a quote), so it alone goes through `csv.writer`: no
    stamp or float `repr` holds a comma or a tab, the two delimiters
    `ingest` reads and the only ones taken here.
    """
    if delimiter not in (",", "\t"):
        raise ValueError(f"delimiter must be ',' or '\\t', not {delimiter!r}")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["timestamp"] + trace.sensor_names)
        for a in range(0, len(trace), _BLOCK_LINES):
            rows = slice(a, a + _BLOCK_LINES)
            local = trace.timestamps[rows].astype("datetime64[s]")
            stamps = [s + "+00:00" for s in np.datetime_as_string(local, unit="s").tolist()]
            columns = [map(repr, col) for col in trace.values[:, rows].tolist()]
            lines = map(delimiter.join, zip(stamps, *columns))
            fh.write("\r\n".join(lines).replace("nan", "") + "\r\n")


# ---------------------------------------------------------------------------
# Day labeling and splits

#: Core temperature a healthy colony holds, degrees Celsius.
BROOD_TEMP_C = 34.5

#: `auto_label_days`: distance from `BROOD_TEMP_C` that counts as an
#: excursion (degrees Celsius), the cumulative excursion minutes that make
#: a day anomalous, and the share of the day without readings above which
#: it is anomalous.
LABEL_BAND_C = 3.0
LABEL_MIN_EXCESS_MINUTES = 10
LABEL_MAX_MISSING_FRACTION = 0.2


def auto_label_days(trace: SensorTrace, sensor: str) -> list[DayLabel]:
    """Label each day normal or anomalous from one sensor's readings.

    A day is anomalous when readings sit more than `LABEL_BAND_C` away
    from `BROOD_TEMP_C` for at least `LABEL_MIN_EXCESS_MINUTES` cumulative
    minutes, or when `missing_spans` cover more than
    `LABEL_MAX_MISSING_FRACTION` of it (sensor-anomaly class). Blank
    cells and rows the logger never wrote count alike. The day is taken
    under the trace's UTC offset and clipped to the time the trace spans,
    its first stamp to one period past its last, so a trace that starts
    or ends mid-day is not charged for the hours outside it.
    """
    col = trace.sensor(sensor)
    if len(trace) == 0:
        return []
    period = sample_period(trace) or 60
    minutes_per_reading = period / 60.0
    gaps = np.array(missing_spans(trace, sensor), dtype=np.int64).reshape(-1, 2)
    first, end = int(trace.timestamps[0]), int(trace.timestamps[-1]) + period

    day_nums = trace.day_numbers()
    labels = []
    for num in np.unique(day_nums):
        midnight = int(num) * _SECONDS_PER_DAY - trace.utc_offset_s
        lo, hi = max(midnight, first), min(midnight + _SECONDS_PER_DAY, end)
        missing = np.sum(np.clip(gaps[:, 1], lo, hi) - np.clip(gaps[:, 0], lo, hi))
        if missing / (hi - lo) > LABEL_MAX_MISSING_FRACTION:
            anomalous = True
        else:
            vals = col[day_nums == num]
            excess = np.abs(vals[~np.isnan(vals)] - BROOD_TEMP_C) > LABEL_BAND_C
            anomalous = excess.sum() * minutes_per_reading >= LABEL_MIN_EXCESS_MINUTES
        labels.append(
            DayLabel(
                day=date.fromordinal(_EPOCH_ORDINAL + int(num)),
                label="anomalous" if anomalous else "normal",
                source="auto",
            )
        )
    return labels


def build_splits(labels: list[DayLabel], validation_fraction: float = 0.1) -> SplitSet:
    """Chronological split of normal days into training/validation, plus
    the anomalous days as holdout."""
    if not 0 < validation_fraction < 1:
        raise ValueError("validation_fraction must be in (0, 1)")
    normal = sorted(l.day for l in labels if l.label == "normal")
    n = len(normal)
    if n < 2:
        raise NoNormalDays(
            f"need 2 normal-labeled days (one to train on, one to validate on), have {n}"
        )
    n_train = min(max(int(math.floor(n * (1.0 - validation_fraction))), 1), n - 1)
    return SplitSet(
        training=set(normal[:n_train]),
        validation=set(normal[n_train:]),
        holdout={l.day for l in labels if l.label == "anomalous"},
    )


# ---------------------------------------------------------------------------
# Normalization and windows


def fit_normalization(trace: SensorTrace, sensor: str, days: set) -> NormalizationParams:
    """Population mean/std of one sensor over the given days (non-missing only)."""
    col = trace.sensor(sensor)
    mask = trace.day_mask(days) & np.isfinite(col)
    vals = col[mask]
    if len(vals) < 2:
        raise EmptyDataset(f"need at least 2 readings in the given days, have {len(vals)}")
    # Readings near the float64 limit overflow the square (or the sum);
    # the check below reports that, so NumPy's warning is not wanted.
    with np.errstate(over="ignore"):
        std = float(np.std(vals))
        mean = float(np.mean(vals))
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DegenerateStd(
            f"sensor {sensor!r} overflows float64 over the given days (mean {mean:g}, std {std:g})"
        )
    if std < 1e-9:
        raise DegenerateStd(f"sensor {sensor!r} is constant over the given days")
    return NormalizationParams(mean=mean, std=std)


def _runs(mask: np.ndarray, linked: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends of the maximal [a, b) runs of True in `mask`. With
    `linked` (length n - 1), readings i and i + 1 share a run only where
    linked[i] holds."""
    link = mask[:-1] & mask[1:]
    if linked is not None:
        link &= linked
    starts = np.flatnonzero(mask & np.r_[True, ~link])
    ends = np.flatnonzero(mask & np.r_[~link, True]) + 1
    return starts, ends


def _contiguous_runs(trace: SensorTrace, eligible: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [a, b) index runs that are eligible and gap-free in time."""
    steady = np.diff(trace.timestamps) == sample_period(trace)
    starts, ends = _runs(np.asarray(eligible, dtype=bool), steady)
    return list(zip(starts.tolist(), ends.tolist()))


def make_windows(
    trace: SensorTrace,
    sensor: str,
    days: set,
    window_size: int = 60,
    stride: int = 1,
    params: NormalizationParams | None = None,
) -> WindowSet:
    """All windows of `window_size` consecutive readings within `days`.

    Windows never span a missing reading, a timestamp gap, or a day
    outside `days`; stride 1 yields every possible window, and each run
    of eligible readings starts its own stride. When `params` is given
    the column is z-scored with it, element by element, before the
    windows are cut. Each run's windows are a strided view of the column
    (`sliding_window_view`), copied once into the set's matrix.
    """
    if window_size < 2:
        raise ValueError("window_size must be >= 2")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    col = trace.sensor(sensor)
    eligible = np.isfinite(col) & trace.day_mask(days)
    if params is not None:
        # A reading z-scored past the float range becomes inf, which
        # scoring reports as a non-finite error.
        with np.errstate(over="ignore"):
            col = params.normalize(col)

    views, starts = [], []
    for a, b in _contiguous_runs(trace, eligible):
        if b - a >= window_size:
            views.append(sliding_window_view(col[a:b], window_size)[::stride])
            starts.append(np.arange(a, b - window_size + 1, stride))
    matrix = np.empty((window_size, sum(len(v) for v in views)))
    j = 0
    for view in views:
        matrix[:, j : j + len(view)] = view.T
        j += len(view)
    offsets = np.concatenate(starts) if starts else np.empty(0, dtype=np.intp)
    return WindowSet(matrix, trace.timestamps[offsets])


def missing_spans(trace: SensorTrace, sensor: str) -> list[tuple[int, int]]:
    """Half-open [start, end) spans that no reading of `sensor` covers:
    runs of missing readings and timestamp jumps, merged where they touch.

    A present reading (any value but NaN) covers one period from its
    stamp, the period being `sample_period` (60 s for fewer than two
    readings). The spans are what lies between the covered runs, from
    the first stamp to one period past the last.
    """
    ts = trace.timestamps
    if len(ts) == 0:
        return []
    period = sample_period(trace) or 60
    a, b = _runs(~np.isnan(trace.sensor(sensor)), np.diff(ts) == period)
    starts = np.r_[ts[0], ts[b - 1] + period]
    ends = np.r_[ts[a], ts[-1] + period]
    keep = starts < ends
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


# ---------------------------------------------------------------------------
# Label and split files


def _read_text(path: Path) -> str:
    """The whole of a small side file (labels, splits, events, threshold)
    as UTF-8 text; a file that cannot be opened or is not UTF-8 raises
    `FileUnreadable`."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileUnreadable(f"{path}: not UTF-8 text ({exc.reason})") from exc


def read_labels(path) -> list[DayLabel]:
    """Read a `date,label` file (YYYY-MM-DD, normal|anomalous), header optional."""
    path = Path(path)
    text = _read_text(path)
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
        try:
            labels.append(DayLabel(day=day, label=parts[1], source="manual"))
        except ValueError as exc:
            raise MalformedHeader(f"{path}:{lineno}: {exc}") from exc
    return labels


def write_labels(path, labels: list[DayLabel]) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("date,label\n")
        for l in sorted(labels, key=lambda l: l.day):
            fh.write(f"{l.day.isoformat()},{l.label}\n")


def format_splits(splits: SplitSet) -> str:
    """A split as `key=comma-separated sorted dates` lines, the text
    `write_splits` writes."""

    def fmt(days):
        return ",".join(d.isoformat() for d in sorted(days))

    return (
        f"training={fmt(splits.training)}\n"
        f"validation={fmt(splits.validation)}\n"
        f"holdout={fmt(splits.holdout)}\n"
    )


def write_splits(path, splits: SplitSet) -> None:
    """Write `format_splits(splits)` as UTF-8, each line ended by "\\n"."""
    Path(path).write_text(format_splits(splits), encoding="utf-8", newline="")


def read_splits(path) -> SplitSet:
    """Read a file `write_splits` wrote. A bad date or key, or training and
    validation days that overlap, raise `MalformedHeader`."""
    path = Path(path)
    text = _read_text(path)
    fields = {"training": set(), "validation": set(), "holdout": set()}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or "=" not in line:
            continue
        key, _, rest = line.partition("=")
        try:
            days = {date.fromisoformat(p) for p in rest.split(",") if p}
        except ValueError as exc:
            raise MalformedHeader(f"{path}:{lineno}: bad date in {key!r}: {exc}") from exc
        if key not in fields:
            raise MalformedHeader(f"{path}:{lineno}: unknown split key {key!r}")
        fields[key] = days
    try:
        return SplitSet(**fields)
    except ValueError as exc:
        raise MalformedHeader(f"{path}: {exc}") from exc
