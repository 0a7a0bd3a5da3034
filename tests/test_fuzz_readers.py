"""Mutated side files through the command line: exit 0 or 3, never worse.

Each small-file reader gets a valid file that one command accepts, then
Hypothesis mutates its bytes: truncation, byte flips, inserted non-UTF-8
bytes or delimiters, and a date, stamp or number swapped for an
out-of-range one. The README's exit-code contract must hold for every
case: the command exits 0, or 3 with exactly one `error:` line, and never
prints a traceback. A threshold `detect` accepts must also write back as
strict JSON.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivewatch.cli import main
from hivewatch.data import (
    DayLabel,
    NormalizationParams,
    SensorColumn,
    SensorTrace,
    SplitSet,
    write_labels,
    write_splits,
    write_trace,
)
from hivewatch.detector import (
    CalibrationStats,
    DetectionEvent,
    Threshold,
    read_threshold,
    write_events,
    write_threshold,
)
from hivewatch.nn import init_model, save_model

#: Examples per reader: fixed, and drawn from a fixed seed, so the suite
#: runs the same cases in the same time on every run.
EXAMPLES = 100

T0 = 1_622_585_000  # 2021-06-01T22:03:20Z: the trace spans one midnight
DAY1, DAY2 = date(2021, 6, 1), date(2021, 6, 2)

DATES = ["0001-01-01", "9999-12-31", "0000-01-01", "10000-01-01", "2021-02-30", "2021-13-01"]
NUMBERS = ["0", "-1", "1e999", "-1e999", "1e-400", "NaN", "Infinity", "1" + "0" * 400]
STAMPS = [
    "0001-01-01T00:00:00+14:00",
    "9999-12-31T23:59:59-14:00",
    "2021-06-01T24:00:00+00:00",
    "2021-06-01T00:00:00+24:00",
]

#: Reader name -> (pattern of a value, out-of-range values to put there).
FIELDS = {
    "events": (r"\d{4}-\d\d-\d\dT[^,\n]*", STAMPS),
    "labels": (r"\d{4}-\d\d-\d\d", DATES),
    "threshold": (r"-?\d[\d.]*(?:[eE][+-]?\d+)?", NUMBERS),
    "splits": (r"\d{4}-\d\d-\d\d", DATES),
}

INSERTS = [b"\xff", b"\xfe\xff", b"\xc3", b"\x00", b",", b",,", b"=", b"\t", b"\n", b'"']

def mutations(reader: str, raw: bytes):
    """Lists of one to three mutations of `raw`, a valid `reader` file."""
    pattern, values = FIELDS[reader]
    n_fields = len(re.findall(pattern, raw.decode("utf-8")))
    one = st.one_of(
        st.tuples(st.just("truncate"), st.floats(0, 1)),
        st.tuples(st.just("flip"), st.floats(0, 1), st.integers(1, 255)),
        st.tuples(st.just("insert"), st.floats(0, 1), st.sampled_from(INSERTS)),
        st.tuples(st.just("field"), st.integers(0, n_fields - 1), st.sampled_from(values)),
    )
    return st.lists(one, min_size=1, max_size=3)


def mutate(raw: bytes, reader: str, mutations) -> bytes:
    for kind, where, *what in mutations:
        if kind == "field":
            text = raw.decode("utf-8", errors="surrogateescape")
            fields = list(re.finditer(FIELDS[reader][0], text))
            if fields:
                m = fields[where % len(fields)]
                text = text[: m.start()] + what[0] + text[m.end() :]
            raw = text.encode("utf-8", errors="surrogateescape")
            continue
        k = int(where * len(raw))
        if kind == "truncate":
            raw = raw[:k]
        elif kind == "flip" and raw:
            k = min(k, len(raw) - 1)
            raw = raw[:k] + bytes([raw[k] ^ what[0]]) + raw[k + 1 :]
        elif kind == "insert":
            raw = raw[:k] + what[0] + raw[k:]
    return raw


def write_inputs(root: Path) -> dict[str, Path]:
    """A 200-minute, two-sensor trace across one midnight, a tiny
    checkpoint, and one valid file for each reader."""
    n = 200
    rng = np.random.default_rng(0)
    minutes = np.arange(n)
    values = np.vstack([
        34.5 + 0.2 * np.sin(minutes / 30.0) + rng.normal(0.0, 0.05, n),
        18.0 + 2.0 * np.cos(minutes / 50.0) + rng.normal(0.0, 0.3, n),
    ])
    trace = SensorTrace(
        "hive",
        [SensorColumn("temp_core", "°C"), SensorColumn("temp_outside", "°C")],
        T0 + 60 * minutes,
        values,
    )
    paths = {name: root / name for name in
             ("trace.csv", "model.bin", "events", "labels", "threshold", "splits")}
    write_trace(paths["trace.csv"], trace)
    save_model(paths["model.bin"],
               init_model(2, 1, window_size=10, seed=0, norm=NormalizationParams(34.5, 0.2)))
    write_events(paths["events"], [
        DetectionEvent(T0 + 600, T0 + 1800, T0 + 1200, 1.5, "truth", "swarm"),
        DetectionEvent(T0 + 7200, T0 + 7800, T0 + 7500, float("inf"), "truth", "opening"),
    ])
    write_labels(paths["labels"], [DayLabel(DAY1, "normal"), DayLabel(DAY2, "normal")])
    write_threshold(paths["threshold"], Threshold(
        alpha=0.75,
        method="quantile",
        calibration_stats=CalibrationStats(
            max_val_error=0.5, quantile_used=0.99, holdout_exceedances=3
        ),
    ))
    write_splits(paths["splits"], SplitSet(
        training={DAY1}, validation={DAY2}, holdout={DAY1}, test={"other": {DAY2}},
    ))
    return paths


def argv_for(reader: str, inputs: dict[str, Path], side: Path, out: Path) -> list[str]:
    trace = ["--input", str(inputs["trace.csv"]), "--sensor", "temp_core"]
    checkpoint = ["--checkpoint", str(inputs["model.bin"])]
    return {
        "events": ["report", "--truth", str(side)],
        "labels": ["corr", *trace, "--labels", str(side)],
        "threshold": ["detect", *trace, *checkpoint, "--threshold", str(side)],
        "splits": ["calibrate", *trace, *checkpoint, "--splits", str(side)],
    }[reader] + ["--out-dir", str(out)]


def reject_constant(name: str):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, Path]:
    return write_inputs(tmp_path_factory.mktemp("fuzz_inputs"))


@pytest.mark.parametrize("reader", sorted(FIELDS))
def test_mutated_file_exits_zero_or_three(inputs, reader, tmp_path) -> None:
    raw = inputs[reader].read_bytes()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv_for(reader, inputs, inputs[reader], tmp_path / "valid")) == 0

    @given(mutations=mutations(reader, raw))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    def check(mutations) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            side = Path(tmp) / inputs[reader].name
            side.write_bytes(mutate(raw, reader, mutations))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv_for(reader, inputs, side, Path(tmp) / "out"))
            printed = out.getvalue() + err.getvalue()
            assert "Traceback" not in printed
            assert code in (0, 3), err.getvalue()
            if code:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: data: "), lines
            elif reader == "threshold":
                write_threshold(Path(tmp) / "again.json", read_threshold(side))
                json.loads((Path(tmp) / "again.json").read_text(encoding="utf-8"),
                           parse_constant=reject_constant)

    check()
