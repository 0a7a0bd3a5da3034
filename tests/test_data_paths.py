"""The NumPy paths of `hivewatch.data` against the row-by-row references.

`ingest` reads clean files in blocks of columns and falls back to the row
parser for anything it would have to repair; both must give the same
trace bit for bit. Windows come as one matrix; they must be the windows a
brute-force enumeration finds. `write_trace` is pinned to golden bytes and
to the row-by-row `csv.writer` it replaced.
"""

from __future__ import annotations

import csv
import math
from datetime import date, datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivewatch import data
from hivewatch.data import (
    NormalizationParams,
    SensorColumn,
    SensorTrace,
    WindowSet,
    ingest,
    make_windows,
    missing_spans,
    write_trace,
)

T0 = 1_622_505_600  # 2021-06-01T00:00:00Z
BLOCK = data._BLOCK_LINES


def row_ingest(path, **kwargs):
    """`ingest` with the block path switched off: the row parser's trace."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(data, "_parse_blocks", lambda *a: None)
        return ingest(path, **kwargs)


def assert_same_trace(got, want) -> None:
    assert got.hive_id == want.hive_id
    assert got.columns == want.columns
    assert got.utc_offset_s == want.utc_offset_s
    assert got.timestamps.dtype == want.timestamps.dtype == np.int64
    np.testing.assert_array_equal(got.timestamps, want.timestamps)
    assert got.values.shape == want.values.shape
    assert np.array_equal(np.isnan(got.values), np.isnan(want.values))
    present = ~np.isnan(want.values)
    assert np.array_equal(got.values[present].view(np.uint64),
                          want.values[present].view(np.uint64))
    drop = {"parser"}
    assert {k: v for k, v in got.metadata.items() if k not in drop} == {
        k: v for k, v in want.metadata.items() if k not in drop
    }


def iso(ts: int, suffix: str = "+00:00") -> str:
    sign = -1 if suffix[0] == "-" else 1
    offset = sign * (3600 * int(suffix[1:3]) + 60 * int(suffix[4:6]))
    local = np.datetime64(int(ts) + offset, "s")
    return np.datetime_as_string(local, unit="s") + suffix


def trace_text(rows, names=("t",), delimiter=",", newline="\r\n") -> str:
    header = delimiter.join(["timestamp", *names])
    return newline.join([header, *(delimiter.join(r) for r in rows)]) + newline


def clean_rows(n, n_cols=1, rng=None, suffix="+00:00"):
    rng = rng or np.random.default_rng(0)
    vals = rng.normal(34.5, 3.0, size=(n, n_cols))
    return [[iso(T0 + 60 * i, suffix)] + [repr(float(v)) for v in vals[i]] for i in range(n)]


# ---------------------------------------------------------------------------
# Ingest: block path against the row parser


@st.composite
def clean_files(draw):
    n_rows = draw(st.integers(1, 3000))
    n_cols = draw(st.integers(1, 15))
    delimiter = draw(st.sampled_from([",", "\t"]))
    suffix = draw(st.sampled_from(["+00:00", "+02:00", "-05:30", "-00:00"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    vals = rng.normal(0.0, 10.0, size=(n_rows, n_cols))
    kinds = rng.integers(0, 6, size=vals.shape)
    vals[kinds == 1] = np.round(vals[kinds == 1])  # integral: "34.0"
    vals[kinds == 2] *= 1e-300
    vals[kinds == 3] = np.nan
    steps = rng.integers(1, 4, size=n_rows) * 60  # gaps are not repairs
    stamps = T0 + np.cumsum(steps)
    rows = [
        [iso(int(stamps[i]), suffix)]
        + ["" if math.isnan(v) else repr(v) for v in vals[i].tolist()]
        for i in range(n_rows)
    ]
    names = [f"s{j}" for j in range(n_cols)]
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    return trace_text(rows, names, delimiter, newline)


@given(text=clean_files())
@settings(max_examples=40, deadline=None)
def test_block_path_matches_row_parser(tmp_path_factory, text) -> None:
    path = tmp_path_factory.mktemp("ingest") / "hive.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = ingest(path)
    assert got.metadata["parser"] == "block"
    want = row_ingest(path)
    assert want.metadata["parser"] == "row"
    assert_same_trace(got, want)


def test_offset_file_reads_as_blocks(tmp_path) -> None:
    """One shared `+02:00` suffix is subtracted once; the day boundaries
    keep the declared offset."""
    p = tmp_path / "h.csv"
    p.write_text(trace_text(clean_rows(2 * BLOCK + 5, suffix="+02:00")), encoding="utf-8")
    got = ingest(p)
    assert got.metadata["parser"] == "block"
    assert got.utc_offset_s == 7200 and got.timestamps[0] == T0
    assert_same_trace(got, row_ingest(p))


def test_empty_body(tmp_path) -> None:
    p = tmp_path / "h.csv"
    p.write_text("timestamp,a,b\n", encoding="utf-8")
    got = ingest(p)
    assert got.metadata["parser"] == "block" and len(got) == 0
    assert_same_trace(got, row_ingest(p))


def _at(rows, i, cell):
    rows = [list(r) for r in rows]
    rows[i][0] = cell
    return rows


def _fallback_cases():
    """(name, rows) for every trigger of the row parser; 2 100 rows put
    block boundaries after rows 1 024 and 2 048."""
    base = clean_rows(2100, n_cols=2)
    b = BLOCK
    swapped = [list(r) for r in base]
    swapped[b - 1], swapped[b] = swapped[b], swapped[b - 1]
    swapped_inside = [list(r) for r in base]
    swapped_inside[10], swapped_inside[11] = swapped_inside[11], swapped_inside[10]
    return {
        "ragged": [r if i != b + 7 else r[:-1] for i, r in enumerate(base)],
        "long": [r if i != 5 else r + ["1.0"] for i, r in enumerate(base)],
        "quoted": [r if i != b + 3 else [r[0], '"35.5"', r[2]] for i, r in enumerate(base)],
        "blank": base[: b + 2] + [[]] + base[b + 2 :],
        "unparseable value": [r if i != 3 else [r[0], "oops", r[2]] for i, r in enumerate(base)],
        "spaced value": [r if i != 3 else [r[0], " ", r[2]] for i, r in enumerate(base)],
        "offset changes at a boundary": base[:b] + [
            [iso(T0 + 60 * i, "+01:00"), *r[1:]] for i, r in enumerate(base) if i >= b
        ],
        "mixed offsets in a block": _at(base, b + 1, iso(T0 + 60 * (b + 1), "+01:00")),
        "one row's offset differs": _at(base, 40, base[40][0][:19] + "+01:00"),
        "offset out of range": [[r[0][:19] + "+24:00", *r[1:]] for r in base],
        "offset without colon": [[r[0][:19] + "+00-00", *r[1:]] for r in base],
        "epoch row": _at(base, b + 10, str(T0 + 60 * (b + 10))),
        "signed year": _at(base, 2000, "+" + base[2000][0][1:]),
        "year zero": _at(base, 0, "0000" + base[0][0][4:]),
        "space separator": _at(base, 40, base[40][0].replace("T", " ")),
        "zulu": _at(base, 40, base[40][0][:19] + "Z"),
        "unparseable stamp": _at(base, 40, "not-a-time"),
        "two stamps in one cell": _at(_at(base, 40, base[40][0] + base[41][0]), 41, ""),
        "non-ascii digit": _at(base, 40, base[40][0].replace("1", "\u0661")),
        "duplicate across boundary": base[:b] + [base[b - 1]] + base[b:],
        "duplicate inside a block": base[:100] + [base[99]] + base[100:],
        "out of order across boundary": swapped,
        "out of order inside a block": swapped_inside,
    }


@pytest.mark.parametrize("case", sorted(_fallback_cases()))
@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_fallback_matches_row_parser(tmp_path, case, delimiter) -> None:
    rows = _fallback_cases()[case]
    p = tmp_path / "h.csv"
    p.write_text(trace_text(rows, ("a", "b"), delimiter), encoding="utf-8")
    got = ingest(p)
    assert got.metadata["parser"] == "row"
    assert_same_trace(got, row_ingest(p))


def test_fallback_keeps_repair_counts(tmp_path) -> None:
    cases = _fallback_cases()
    expected = {
        "ragged": ("ragged_rows", 1),
        "duplicate across boundary": ("duplicate_rows", 1),
        "out of order across boundary": ("out_of_order_rows", 1),
        "unparseable stamp": ("dropped_rows", 1),
    }
    for i, (case, (key, count)) in enumerate(expected.items()):
        p = tmp_path / f"h{i}.csv"
        p.write_text(trace_text(cases[case], ("a", "b")), encoding="utf-8")
        assert ingest(p).metadata[key] == count, case


def test_non_utf8_is_unreadable(tmp_path) -> None:
    p = tmp_path / "h.csv"
    p.write_bytes(b"timestamp,t\n0,1.0\n60,\xff\xfe\n")
    with pytest.raises(data.FileUnreadable, match="UTF-8"):
        ingest(p)


def test_quote_left_open_is_unreadable(tmp_path) -> None:
    """A stray quote turns the rest of a long file into one cell, larger
    than `csv` accepts: a data error, not an internal one."""
    rows = clean_rows(4000, n_cols=2)
    rows[10][1] = '"' + rows[10][1]
    p = tmp_path / "h.csv"
    p.write_text(trace_text(rows, ("a", "b")), encoding="utf-8")
    with pytest.raises(data.FileUnreadable, match="not a delimited table"):
        ingest(p)


@pytest.mark.parametrize("stamp", ["1e999", "-1e999", "9" * 25, "0001-01-01T00:00:00+14:00",
                                   "9999-12-31T23:59:59-14:00"])
def test_stamp_outside_years_1_to_9999_is_dropped(tmp_path, stamp) -> None:
    rows = _at(clean_rows(50), 20, stamp)
    p = tmp_path / "h.csv"
    p.write_text(trace_text(rows), encoding="utf-8")
    got = ingest(p)
    assert got.metadata["dropped_rows"] == 1 and len(got) == 49
    assert got.metadata["parser"] == "row"


# ---------------------------------------------------------------------------
# Ingest of selected columns against the full ingest


def restrict(trace: SensorTrace, names) -> SensorTrace:
    """`trace` with only the columns named in `names`, in file order."""
    keep = [j for j, c in enumerate(trace.columns) if c.name in names]
    return SensorTrace(trace.hive_id, [trace.columns[j] for j in keep], trace.timestamps,
                       trace.values[keep], trace.utc_offset_s, trace.metadata)


def assert_selection_matches(path, names) -> SensorTrace:
    """Selected columns equal the full ingest's and the row parser's."""
    got = ingest(path, names)
    assert_same_trace(got, restrict(ingest(path), names))
    assert_same_trace(got, row_ingest(path, sensors=names))
    return got


@given(text=clean_files(), picks=st.data())
@settings(max_examples=40, deadline=None)
def test_selected_columns_of_clean_file(tmp_path_factory, text, picks) -> None:
    path = tmp_path_factory.mktemp("ingest") / "hive.csv"
    path.write_text(text, encoding="utf-8", newline="")
    header = text.split("\n", 1)[0].strip()
    names = header.split("\t" if "\t" in header else ",")[1:]
    subset = picks.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    assert assert_selection_matches(path, subset).metadata["parser"] == "block"


@pytest.mark.parametrize("case", sorted(_fallback_cases()))
def test_selected_columns_of_repaired_file(tmp_path, case) -> None:
    p = tmp_path / "h.csv"
    p.write_text(trace_text(_fallback_cases()[case], ("a", "b")), encoding="utf-8")
    for names in (["a"], ["b"]):
        assert_selection_matches(p, names)


def test_bad_cell_in_unread_column_reads_as_blocks(tmp_path) -> None:
    """The only visible effect of reading fewer columns: a defect confined
    to a column no one reads no longer sends the file to the row parser."""
    p = tmp_path / "h.csv"
    p.write_text(trace_text(_fallback_cases()["unparseable value"], ("a", "b")),
                 encoding="utf-8")
    assert ingest(p, ["b"]).metadata["parser"] == "block"
    assert ingest(p, ["a"]).metadata["parser"] == ingest(p).metadata["parser"] == "row"


def test_duplicated_name_selects_every_such_column(tmp_path) -> None:
    p = tmp_path / "h.csv"
    p.write_text(trace_text(clean_rows(30, n_cols=3), ("a", "b", "a")), encoding="utf-8")
    assert assert_selection_matches(p, ["a"]).sensor_names == ["a", "a"]


def test_unknown_name_lists_the_header(tmp_path) -> None:
    p = tmp_path / "h.csv"
    p.write_text(trace_text(clean_rows(3, n_cols=2), ("a", "b")), encoding="utf-8")
    with pytest.raises(data.UnknownSensor, match=r"^sensor 'c' not in \['a', 'b'\]$"):
        ingest(p, ["a", "c"])


# ---------------------------------------------------------------------------
# write_trace


def _golden_trace() -> SensorTrace:
    return SensorTrace(
        hive_id="h",
        columns=[SensorColumn("temp_core", "°C"), SensorColumn("weight", "kg")],
        timestamps=np.array([T0, T0 + 60, T0 + 86400 + 59], dtype=np.int64),
        values=np.array([[34.5, np.nan, -1.25], [1e-300, 50.0, 0.1]]),
    )


@pytest.mark.parametrize("delimiter", [",", "\t"])
def test_write_trace_golden_bytes(tmp_path, delimiter) -> None:
    p = tmp_path / "out"
    write_trace(p, _golden_trace(), delimiter)
    d = delimiter
    assert p.read_bytes() == (
        f"timestamp{d}temp_core{d}weight\r\n"
        f"2021-06-01T00:00:00+00:00{d}34.5{d}1e-300\r\n"
        f"2021-06-01T00:01:00+00:00{d}{d}50.0\r\n"
        f"2021-06-02T00:00:59+00:00{d}-1.25{d}0.1\r\n"
    ).encode("utf-8")
    back = ingest(p)
    assert back.metadata["parser"] == "block"
    np.testing.assert_array_equal(back.timestamps, _golden_trace().timestamps)
    np.testing.assert_array_equal(back.values, _golden_trace().values)


def reference_write_trace(path, trace: SensorTrace, delimiter: str) -> None:
    """The row-by-row writer `write_trace` replaced: `csv.writer` over each
    row's `datetime` stamp and the `repr` of each reading."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["timestamp"] + trace.sensor_names)
        for ts, row in zip(trace.timestamps.tolist(), trace.values.T.tolist()):
            stamp = datetime.fromtimestamp(ts, timezone.utc).isoformat()
            writer.writerow([stamp] + ["" if v != v else repr(v) for v in row])


#: Readings whose `repr` is an edge case: missing, infinite, signed zero,
#: the smallest subnormal, and the exponent switches at 1e16 and 1e-5.
EDGE_READINGS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]


def edge_trace(n: int, delimiter: str) -> SensorTrace:
    """`n` one-minute rows: the edge readings cycled through one column,
    random finite bit patterns in another, and a third of those missing in
    the last, whose name holds the delimiter and a quote."""
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2**64, size=(3, n), dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64).copy()
    values[~np.isfinite(values)] = 0.1
    values[0] = np.resize(EDGE_READINGS, n)
    values[2, ::3] = np.nan
    names = ["edge", "bits", f'odd{delimiter}"name']
    return SensorTrace(
        hive_id="h",
        columns=[SensorColumn(name, "°C") for name in names],
        timestamps=T0 + 60 * np.arange(n, dtype=np.int64),
        values=values,
    )


@pytest.mark.parametrize("delimiter", [",", "\t"])
@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_write_trace_matches_row_writer(tmp_path, n, delimiter) -> None:
    trace = edge_trace(n, delimiter)
    write_trace(tmp_path / "fast", trace, delimiter)
    reference_write_trace(tmp_path / "ref", trace, delimiter)
    assert (tmp_path / "fast").read_bytes() == (tmp_path / "ref").read_bytes()

    back = ingest(tmp_path / "fast")
    assert back.sensor_names == trace.sensor_names
    np.testing.assert_array_equal(back.timestamps, trace.timestamps)
    missing = np.isnan(trace.values)
    np.testing.assert_array_equal(np.isnan(back.values), missing)
    np.testing.assert_array_equal(
        back.values.view(np.uint64)[~missing], trace.values.view(np.uint64)[~missing]
    )


@pytest.mark.parametrize("delimiter", [";", ", ", ".", ""])
def test_write_trace_refuses_other_delimiters(tmp_path, delimiter) -> None:
    with pytest.raises(ValueError, match="delimiter"):
        write_trace(tmp_path / "out", _golden_trace(), delimiter)
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# Windows and runs against loop references


def loop_runs(trace, eligible):
    """The reading-by-reading run scan the vectorized version replaced."""
    n = len(trace)
    if n == 0 or not eligible.any():
        return []
    period = data.sample_period(trace)
    breaks = np.zeros(n, dtype=bool)
    breaks[0] = True
    breaks[1:] = np.diff(trace.timestamps) != period
    runs, a = [], None
    for i in range(n):
        if eligible[i] and a is not None and not breaks[i]:
            continue
        if a is not None:
            runs.append((a, i))
            a = None
        if eligible[i]:
            a = i
    if a is not None:
        runs.append((a, n))
    return runs


def loop_missing_spans(trace, sensor):
    """A walk over the trace's time: each present reading covers one period
    from its stamp, and every stretch the walk crosses uncovered, up to one
    period past the last stamp, is a span."""
    ts = trace.timestamps.tolist()
    if not ts:
        return []
    period = data.sample_period(trace) or 60
    spans, covered_to = [], ts[0]
    for stamp, value in zip(ts, trace.sensor(sensor).tolist()):
        if math.isnan(value):
            continue
        if stamp > covered_to:
            spans.append((covered_to, stamp))
        covered_to = stamp + period
    if ts[-1] + period > covered_to:
        spans.append((covered_to, ts[-1] + period))
    return spans


def brute_windows(trace, sensor, days, w, stride, params):
    """Every start whose w readings are present, on selected days and one
    period apart, kept when its distance from its run's start is a
    multiple of the stride."""
    col = trace.sensor(sensor)
    ts = trace.timestamps
    period = data.sample_period(trace)
    wanted = {(d - date(1970, 1, 1)).days for d in days}
    ok = [bool(np.isfinite(col[i])) and int(ts[i]) // 86400 in wanted for i in range(len(ts))]

    def linked(i):  # readings i - 1 and i sit in one run
        return i > 0 and ok[i - 1] and ok[i] and ts[i] - ts[i - 1] == period

    starts, values = [], []
    for i in range(len(ts) - w + 1):
        if not all(ok[i : i + w]) or not all(linked(k) for k in range(i + 1, i + w)):
            continue
        run_start = i
        while linked(run_start):
            run_start -= 1
        if (i - run_start) % stride == 0:
            starts.append(int(ts[i]))
            seg = col[i : i + w]
            values.append((seg - params.mean) / params.std if params else seg.copy())
    return starts, values


@st.composite
def gappy_traces(draw):
    n = draw(st.integers(0, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    vals = rng.normal(34.5, 1.0, n)
    vals[rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.2]))] = np.nan
    steps = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.02, 0.1])), 180, 60)
    ts = 86400 - 3600 * 3 + np.cumsum(steps).astype(np.int64)  # spans midnights
    trace = SensorTrace("h", [SensorColumn("t", "°C")], ts, vals[None, :])
    all_days = trace.days()
    days = set(draw(st.lists(st.sampled_from(all_days), unique=True))) if all_days else set()
    return trace, days


@given(
    case=gappy_traces(),
    w=st.integers(2, 40),
    stride=st.integers(1, 7),
    normalize=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_window_set_matches_brute_force(case, w, stride, normalize) -> None:
    trace, days = case
    params = NormalizationParams(34.0, 1.5) if normalize else None
    ws = make_windows(trace, "t", days, w, stride, params)
    starts, values = brute_windows(trace, "t", days, w, stride, params)
    assert isinstance(ws, WindowSet) and len(ws) == len(starts)
    assert bool(ws) == bool(starts) and ws.matrix.dtype == np.float64
    assert ws.matrix.shape == (w, len(starts)) and ws.matrix.flags.c_contiguous
    assert ws.start_ts.dtype == np.int64 and ws.start_ts.tolist() == starts
    want = np.array(values).T if values else np.empty((w, 0))
    assert np.array_equal(ws.matrix.view(np.uint64), want.view(np.uint64))


@given(case=gappy_traces())
@settings(max_examples=150, deadline=None)
def test_runs_and_missing_spans_match_loops(case) -> None:
    trace, days = case
    col = trace.sensor("t")
    rng = np.random.default_rng(len(trace))
    for eligible in (np.isfinite(col), rng.random(len(trace)) < 0.7):
        assert data._contiguous_runs(trace, eligible) == loop_runs(trace, eligible)
    assert missing_spans(trace, "t") == loop_missing_spans(trace, "t")
