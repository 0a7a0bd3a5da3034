"""Mutated side files and checkpoints through the command line.

Each small-file reader gets a valid file that one command accepts, then
Hypothesis mutates its bytes: truncation, byte flips, inserted non-UTF-8
bytes or delimiters, and a date, stamp or number swapped for an
out-of-range one. The README's exit-code contract must hold for every
case: the command exits 0, or 3 with exactly one `error:` line, and never
prints a traceback. A threshold `detect` accepts must also write back as
strict JSON.

Checkpoints get mutations that each leave no valid model: a broken magic
or header length, a header field removed or given a wrong type or an
out-of-range value, and array data truncated, extended or made
non-finite. `detect` and `calibrate` must refuse every one as a data
error, exit 3 with exactly one `error: data:` line, warnings included.

Traces, comma- and tab-separated, are truncated mid-line, get binary
bytes, rows with another UTC offset, quoted cells holding the delimiter,
and stamps or readings swapped for out-of-range ones. `detect`, `rba`,
`calibrate`, `corr`, `train` and `search` must exit 0, 2 or 3, a
non-zero exit with exactly one `error:` line, and never print a
traceback. `train` and `search` fit tiny models for one epoch; when they
fail they leave no file behind, and when they succeed they print no
warning and every checkpoint they write loads and calibrates.
"""

from __future__ import annotations

import io
import json
import math
import re
import struct
import tempfile
import warnings
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
from hivewatch.nn import init_model, load_model, save_model
from hivewatch.nn.checkpoint import MAGIC

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
             ("trace.csv", "trace.tsv", "model.bin", "events", "labels", "threshold", "splits")}
    write_trace(paths["trace.csv"], trace)
    write_trace(paths["trace.tsv"], trace, "\t")
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
        training={DAY1}, validation={DAY2}, holdout={DAY1},
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


# ---------------------------------------------------------------------------
# Checkpoints

#: Header field (a path into the JSON header) -> values that make it
#: invalid; None as a value is JSON null, `DELETE` removes the field.
#: No value is valid for the field it replaces, alone or with others.
DELETE = object()
BIG = 2**64
HEADER_FIELDS = {
    ("version",): [DELETE, "v2", None, 1],
    ("hyper",): [DELETE, None, [], "hyper"],
    ("hyper", "hidden_size"): [DELETE, None, True, "2", 2.0, 1, 3, 65, -1, BIG],
    ("hyper", "n_layers"): [DELETE, None, True, "1", 1.0, 0, 2, 5, BIG],
    ("hyper", "window_size"): [DELETE, None, True, "10", 10.0, 1, 0, -1],
    ("hyper", "seed"): [DELETE, None, True, "0", 0.5],
    ("norm",): [DELETE, None, [], "norm", 1, {}],
    ("norm", "mean"): [DELETE, None, True, "34.5", math.nan, math.inf, 1e308, 10**400],
    ("norm", "std"): [DELETE, None, 0, -0.2, math.nan, math.inf, 1e-320, 10**400],
    ("arrays",): [DELETE, None, [], {}, "arrays"],
    ("arrays", 0, "name"): [DELETE, None, 1, "", "encoder.9.W"],
    ("arrays", 0, "shape"): [DELETE, None, "8", [], [-1], [1.0], [0], [1, 1, 1], [9, 1],
                             [2**62, 2**62], [BIG]],
    ("split",): [None, 1, True, [], "", "0" * 63, "0" * 65, "A" * 64, "g" * 64],
}
#: Array entries a name or shape mutation may hit (the tiny model has eight).
N_ARRAYS = 8


def split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    (length,) = struct.unpack_from("<I", raw, len(MAGIC))
    start = len(MAGIC) + 4
    return json.loads(raw[start : start + length]), raw[start + length :]


def join_checkpoint(header: dict, body: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<I", len(blob)) + blob + body


def checkpoint_mutations(raw: bytes):
    """One to three header-field mutations, or one byte-level mutation."""
    _, body = split_checkpoint(raw)
    length = len(raw) - len(body) - len(MAGIC) - 4
    field = st.sampled_from(sorted(HEADER_FIELDS, key=str)).flatmap(
        lambda path: st.tuples(
            st.just("field"),
            st.just(path),
            st.integers(0, N_ARRAYS - 1),
            st.sampled_from(range(len(HEADER_FIELDS[path]))),
        )
    )
    byte = st.one_of(
        st.tuples(st.just("magic"), st.integers(0, len(MAGIC) - 1), st.integers(1, 255)),
        st.tuples(st.just("length"), st.sampled_from(
            [0, 1, length - 1, length + 1, len(raw), 2**32 - 1])),
        st.tuples(st.just("truncate"), st.integers(0, len(raw) - 1)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("non-finite"), st.integers(0, len(body) // 8 - 1),
                  st.sampled_from([math.nan, math.inf, -math.inf])),
    )
    return st.one_of(st.lists(field, min_size=1, max_size=3), byte.map(lambda m: [m]))


def set_field(header: dict, path: tuple, value) -> None:
    """Set the field at `path`, or remove it for `DELETE`. A path that an
    earlier mutation removed or retyped is left alone."""
    *parents, last = path
    node = header
    try:
        for key in parents:
            node = node[key]
        if value is DELETE:
            del node[last]
        else:
            node[last] = value
    except (KeyError, IndexError, TypeError):
        pass


def mutate_checkpoint(raw: bytes, mutations) -> bytes:
    """`raw`, a valid checkpoint, with `checkpoint_mutations`' draw applied."""
    header, body = split_checkpoint(raw)
    for kind, *how in mutations:
        if kind == "field":
            path, entry, choice = how
            value = HEADER_FIELDS[path][choice]
            set_field(header, tuple(entry if key == 0 else key for key in path), value)
            continue
        raw = join_checkpoint(header, body)
        if kind == "magic":
            k, flip = how
            return raw[:k] + bytes([raw[k] ^ flip]) + raw[k + 1 :]
        if kind == "length":
            return raw[: len(MAGIC)] + struct.pack("<I", how[0]) + raw[len(MAGIC) + 4 :]
        if kind == "truncate":
            return raw[: how[0]]
        if kind == "extend":
            return raw + how[0]
        k, value = how  # non-finite
        start = len(raw) - len(body) + 8 * k
        return raw[:start] + struct.pack("<d", value) + raw[start + 8 :]
    return join_checkpoint(header, body)


def checkpoint_argv(command: str, inputs: dict[str, Path], model: Path, out: Path) -> list[str]:
    side = {"detect": ["--threshold", str(inputs["threshold"])],
            "calibrate": ["--splits", str(inputs["splits"])]}[command]
    return [command, "--input", str(inputs["trace.csv"]), "--sensor", "temp_core",
            "--checkpoint", str(model), *side, "--out-dir", str(out)]


def assert_checkpoint_refused(command: str, inputs: dict[str, Path], data: bytes) -> None:
    """Run `command` on a checkpoint holding `data`: exit 3, one
    `error: data:` line, no traceback, and no warning (one would print its
    own lines to stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.bin"
        model.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(checkpoint_argv(command, inputs, model, Path(tmp) / "out"))
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert code == 3, (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: data: "), lines


@pytest.mark.parametrize("command", ["detect", "calibrate"])
def test_every_header_field_value_refused(inputs, command, tmp_path) -> None:
    """Each value of `HEADER_FIELDS` on its own, on the first and last
    array entry where the field is an array's."""
    raw = inputs["model.bin"].read_bytes()
    assert mutate_checkpoint(raw, []) == raw
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(checkpoint_argv(command, inputs, inputs["model.bin"], tmp_path / "ok")) == 0
    for path, values in HEADER_FIELDS.items():
        for entry in (0, N_ARRAYS - 1) if path[0] == "arrays" and len(path) > 1 else (0,):
            for choice in range(len(values)):
                mutation = ("field", path, entry, choice)
                try:
                    assert_checkpoint_refused(command, inputs, mutate_checkpoint(raw, [mutation]))
                except AssertionError as exc:
                    raise AssertionError(f"{path}[{entry}] = {values[choice]!r}: {exc}") from exc


@pytest.mark.parametrize("command", ["detect", "calibrate"])
def test_mutated_checkpoint_exits_two_or_three(inputs, command) -> None:
    raw = inputs["model.bin"].read_bytes()

    @given(mutations=checkpoint_mutations(raw))
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
    def check(mutations) -> None:
        assert_checkpoint_refused(command, inputs, mutate_checkpoint(raw, mutations))

    check()


# ---------------------------------------------------------------------------
# Traces

#: Examples per (command, delimiter): fixed and drawn from a fixed seed.
TRACE_EXAMPLES = 40

#: UTC offsets a mutated row may declare; "" leaves the stamp naive.
OFFSETS = ["+01:00", "-05:30", "+14:00", "-14:00", "Z", ""]
#: Stamps and readings out of every range a command reads.
TRACE_STAMPS = [*STAMPS, str(T0), "-1", "1e999", "-1e999", "nan", "9" * 25, "2021-06-01"]
READINGS = [*NUMBERS, "-0", "34.5e", "0x22"]


def trace_mutations(raw: bytes):
    """Lists of one to three trace mutations; `where` picks a body line or
    a byte position of `raw`."""
    line = st.integers(0, raw.count(b"\n"))
    one = st.one_of(
        st.tuples(st.just("truncate"), st.floats(0, 1)),
        st.tuples(st.just("binary"), st.floats(0, 1), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("offset"), line, st.sampled_from(OFFSETS), st.booleans()),
        st.tuples(st.just("quote"), line, st.integers(0, 3)),
        st.tuples(st.just("stamp"), line, st.sampled_from(TRACE_STAMPS)),
        st.tuples(st.just("reading"), line, st.integers(0, 3), st.sampled_from(READINGS)),
    )
    return st.lists(one, min_size=1, max_size=3)


def mutate_trace(raw: bytes, delimiter: str, mutations) -> bytes:
    """`raw`, a valid trace, with `trace_mutations`' draw applied in order."""
    for kind, where, *what in mutations:
        if kind == "truncate":
            raw = raw[: int(where * len(raw))]
            continue
        if kind == "binary":
            k = int(where * len(raw))
            raw = raw[:k] + what[0] + raw[k:]
            continue
        lines = raw.decode("utf-8", errors="surrogateescape").split("\n")
        rows = range(1, len(lines)) if kind == "offset" and what[1] else [where]
        for i in rows:
            if not 1 <= i < len(lines) or not lines[i].strip():
                continue
            end = "\r" if lines[i].endswith("\r") else ""
            cells = lines[i][: len(lines[i]) - len(end)].split(delimiter)
            if kind == "offset":
                cells[0] = cells[0][:19] + what[0]
            elif kind == "stamp":
                cells[0] = what[0]
            elif len(cells) > 1:
                j = 1 + what[0] % (len(cells) - 1)
                cells[j] = f'"{cells[j]}{delimiter}1"' if kind == "quote" else what[1]
            lines[i] = delimiter.join(cells) + end
        raw = "\n".join(lines).encode("utf-8", errors="surrogateescape")
    return raw


#: The commands that train on a trace, with the tiny model shapes they
#: train here for one epoch each.
TRAINING_SHAPES = {
    "train": ["--hs", "2"],
    "search": ["--hs-range", "2:2", "--layers-range", "1:2", "--trials", "2"],
}


def trace_argv(command: str, inputs: dict[str, Path], trace: Path, out: Path) -> list[str]:
    side = {
        "detect": ["--sensor", "temp_core", "--checkpoint", str(inputs["model.bin"]),
                   "--threshold", str(inputs["threshold"])],
        "rba": ["--sensor", "temp_core"],
        "calibrate": ["--sensor", "temp_core", "--checkpoint", str(inputs["model.bin"]),
                      "--splits", str(inputs["splits"])],
        "corr": ["--labels", str(inputs["labels"])],
        **{trainer: ["--sensor", "temp_core", *shape, "--max-epochs", "1"]
           for trainer, shape in TRAINING_SHAPES.items()},
    }[command]
    return [command, "--input", str(trace), *side, "--out-dir", str(out)]


def assert_trained_or_wrote_nothing(code: int, err: str, trace: Path, out_dir: Path) -> None:
    """A training command that failed left no file in `out_dir`. One that
    succeeded printed nothing to stderr, and each checkpoint it wrote
    loads and calibrates on its trace with the split written beside it."""
    if code:
        assert not out_dir.exists() or not list(out_dir.iterdir())
        return
    assert err == ""
    models = sorted(out_dir.glob("*.bin"))
    assert models
    for model in models:
        load_model(model)
        cal_err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(cal_err):
            code = main(["calibrate", "--input", str(trace), "--sensor", "temp_core",
                         "--checkpoint", str(model), "--splits", str(out_dir / "splits.txt"),
                         "--out-dir", str(out_dir / "calibrated")])
        assert code == 0, (model.name, cal_err.getvalue())


def assert_exit_contract(command: str, inputs: dict[str, Path], name: str, data: bytes) -> None:
    """Run `command` on a trace holding `data`: exit 0, 2 or 3, a non-zero
    exit with exactly one `error:` line, and no traceback. A training
    command must also pass `assert_trained_or_wrote_nothing`."""
    with tempfile.TemporaryDirectory() as tmp:
        trace = Path(tmp) / name
        trace.write_bytes(data)
        out_dir = Path(tmp) / "out"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(trace_argv(command, inputs, trace, out_dir))
        assert "Traceback" not in out.getvalue() + err.getvalue()
        assert code in (0, 2, 3), err.getvalue()
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        if command in TRAINING_SHAPES:
            assert_trained_or_wrote_nothing(code, err.getvalue(), trace, out_dir)


#: Commands that read a trace; the training ones only take Hypothesis's
#: draws, which keeps their share of the suite to a few seconds.
READING_COMMANDS = ["detect", "rba", "calibrate", "corr"]
TRACE_COMMANDS = [*READING_COMMANDS, *TRAINING_SHAPES]


@pytest.mark.parametrize("name", ["trace.csv", "trace.tsv"])
@pytest.mark.parametrize("command", READING_COMMANDS)
def test_every_trace_value_keeps_exit_contract(inputs, command, name) -> None:
    """Each offset, stamp and reading of the lists above, and a quoted
    cell, alone on the first, a middle and the last row."""
    raw = inputs[name].read_bytes()
    delimiter = "\t" if name.endswith("tsv") else ","
    singles = (
        [("offset", suffix, rest) for suffix in OFFSETS for rest in (False, True)]
        + [("quote", col) for col in (0, 1)]
        + [("stamp", stamp) for stamp in TRACE_STAMPS]
        + [("reading", 0, value) for value in READINGS]
    )
    for row in (1, 100, raw.count(b"\n") - 1):
        for kind, *what in singles:
            mutation = (kind, row, *what)
            data = mutate_trace(raw, delimiter, [mutation])
            try:
                assert_exit_contract(command, inputs, name, data)
            except AssertionError as exc:
                raise AssertionError(f"{mutation}: {exc}") from exc


@pytest.mark.parametrize("name", ["trace.csv", "trace.tsv"])
@pytest.mark.parametrize("command", TRACE_COMMANDS)
def test_mutated_trace_keeps_exit_contract(inputs, command, name, tmp_path) -> None:
    raw = inputs[name].read_bytes()
    delimiter = "\t" if name.endswith("tsv") else ","
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(trace_argv(command, inputs, inputs[name], tmp_path / "valid")) == 0

    @given(mutations=trace_mutations(raw))
    @settings(max_examples=TRACE_EXAMPLES, deadline=None, derandomize=True, database=None)
    def check(mutations) -> None:
        assert_exit_contract(command, inputs, name, mutate_trace(raw, delimiter, mutations))

    check()
