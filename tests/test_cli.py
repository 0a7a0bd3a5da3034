"""End-to-end tests for the command-line interface.

Commands run in-process through main(); every stage's files feed the
next stage the same way a shell pipeline would use them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hivewatch
from hivewatch.cli import COMMANDS, build_parser, main
from hivewatch.data import ingest, make_windows, read_labels, read_splits
from hivewatch.detector import (
    DetectionEvent,
    read_events,
    read_threshold,
    write_events,
)
from hivewatch.nn import load_model, model_parameters, save_model
from hivewatch.nn.checkpoint import MAGIC


def run(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Synthetic week -> trained model -> threshold, shared by the tests."""
    root = tmp_path_factory.mktemp("pipeline")
    synth = root / "synth"
    assert run(
        "synth", "--days", "6", "--seed", "5",
        "--anomaly", "4:swarm:600", "--anomaly", "5:opening:300",
        "--out-dir", str(synth),
    ) == 0
    trace = synth / "trace.csv"
    train = root / "train"
    assert run(
        "train", "--input", str(trace), "--sensor", "temp_core",
        "--labels", str(synth / "labels.csv"),
        "--window-size", "30", "--hs", "4", "--layers", "1",
        "--max-epochs", "2", "--batch-size", "256", "--seed", "1",
        "--out-dir", str(train),
    ) == 0
    cal = root / "cal"
    assert run(
        "calibrate", "--checkpoint", str(train / "model.bin"),
        "--input", str(trace), "--sensor", "temp_core",
        "--splits", str(train / "splits.txt"), "--out-dir", str(cal),
    ) == 0
    return root


class TestSynth:
    def test_outputs_and_manifest(self, tmp_path) -> None:
        """synth writes trace, truth, labels, and a manifest whose digests
        match the files on disk."""
        out = tmp_path / "s"
        assert run("synth", "--days", "2", "--seed", "3",
                   "--anomaly", "1:swarm:700", "--out-dir", str(out)) == 0
        assert (out / "trace.csv").exists()
        truth = read_events(out / "truth_events.csv")
        assert [e.class_hint for e in truth] == ["swarm"]
        labels = {l.day.isoformat(): l.label for l in read_labels(out / "labels.csv")}
        assert labels == {"2021-06-01": "normal", "2021-06-02": "anomalous"}
        manifest = json.loads((out / "synth_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["parameters"]["seed"] == 3
        assert sorted(manifest["outputs"]) == [
            "labels.csv", "trace.csv", "truth_events.csv",
        ]

    def test_deterministic_across_runs(self, tmp_path) -> None:
        for sub in ("a", "b"):
            assert run("synth", "--days", "2", "--seed", "9",
                       "--anomaly", "0:opening:100",
                       "--out-dir", str(tmp_path / sub)) == 0
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_malformed_anomaly_flag(self, tmp_path) -> None:
        assert run("synth", "--days", "2", "--anomaly", "1-swarm-700",
                   "--out-dir", str(tmp_path / "s")) == 2

    def test_inconsistent_schedule_is_data_error(self, tmp_path) -> None:
        assert run("synth", "--days", "2", "--anomaly", "5:swarm:700",
                   "--out-dir", str(tmp_path / "s")) == 3

    def test_tsv_format(self, tmp_path) -> None:
        out = tmp_path / "s"
        assert run("synth", "--days", "1", "--format", "tsv",
                   "--out-dir", str(out)) == 0
        header = (out / "trace.tsv").read_text().splitlines()[0]
        assert "\t" in header

    def test_tsv_trace_reads_back(self, tmp_path) -> None:
        """Commands read the tab layout synth writes, with the same result
        as its comma twin."""
        for fmt in ("csv", "tsv"):
            assert run("synth", "--days", "2", "--seed", "4", "--format", fmt,
                       "--anomaly", "1:swarm:600", "--out-dir", str(tmp_path / fmt)) == 0
            assert run("rba", "--input", str(tmp_path / fmt / f"trace.{fmt}"),
                       "--out-dir", str(tmp_path / f"rba-{fmt}")) == 0
        csv_events = (tmp_path / "rba-csv" / "rba_events.csv").read_bytes()
        assert csv_events == (tmp_path / "rba-tsv" / "rba_events.csv").read_bytes()
        assert len(read_events(tmp_path / "rba-csv" / "rba_events.csv")) == 1


class TestTrain:
    def test_checkpoint_and_history(self, pipeline) -> None:
        model = load_model(pipeline / "train" / "model.bin")
        assert model.window_size == 30
        assert model.hidden_size == 4
        assert model.norm is not None
        splits = (pipeline / "train" / "splits.txt").read_bytes()
        assert model.split == hashlib.sha256(splits).hexdigest()
        lines = (pipeline / "train" / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) >= 2

    def test_splits_exclude_anomalous_days(self, pipeline) -> None:
        text = (pipeline / "train" / "splits.txt").read_text()
        assert "2021-06-05" not in text.split("holdout")[0]
        assert "2021-06-05" in text

    def test_manifest_digests_inputs(self, pipeline) -> None:
        manifest = json.loads((pipeline / "train" / "train_manifest.json").read_text())
        assert any(p.endswith("trace.csv") for p in manifest["inputs"])
        assert all(len(d) == 64 for d in manifest["inputs"].values())

    def test_overflowing_normalization_is_data_error(self, pipeline, tmp_path, capsys) -> None:
        """One training-day reading near the float64 limit overflows the
        std: `train` refuses the data (exit 3) with one line, no NumPy
        warning and no checkpoint, where it wrote a model that
        `calibrate` refused."""
        lines = (pipeline / "synth" / "trace.csv").read_text().splitlines()
        assert lines[0].split(",")[1] == "temp_core"
        row = lines[1].split(",")
        row[1] = "1e300"
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        out = tmp_path / "t"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                "train", "--input", str(trace), "--sensor", "temp_core",
                "--labels", str(pipeline / "synth" / "labels.csv"),
                "--window-size", "30", "--hs", "2", "--max-epochs", "1",
                "--out-dir", str(out),
            )
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: DegenerateStd"), err
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "model.bin").exists()

    @pytest.mark.parametrize("source", ["labels", "one-reading"])
    def test_one_normal_day_is_data_error(self, tmp_path, capsys, source) -> None:
        """Labels with one normal day, and a trace of one reading (one
        auto-labelled day), leave nothing to validate on: exit 3 with a
        line that says two normal days are needed, and no checkpoint."""
        synth = tmp_path / "s"
        assert run("synth", "--days", "2", "--seed", "4",
                   "--anomaly", "1:sensor-failure:600", "--out-dir", str(synth)) == 0
        if source == "labels":
            argv = ["--input", str(synth / "trace.csv"), "--labels", str(synth / "labels.csv")]
        else:
            one = tmp_path / "one.csv"
            one.write_text("".join((synth / "trace.csv").read_text().splitlines(True)[:2]))
            argv = ["--input", str(one)]
        capsys.readouterr()
        out = tmp_path / "t"
        assert run("train", *argv, "--sensor", "temp_core", "--out-dir", str(out)) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: data: NoNormalDays: need 2 normal-labeled days "
                       "(one to train on, one to validate on), have 1"]
        assert not (out / "model.bin").exists()

    @pytest.mark.parametrize("command", ["train", "search"])
    def test_diverging_run_is_usage_error(self, tmp_path, capsys, command) -> None:
        """A learning rate of 1e300 makes the second batch's loss
        non-finite: the command stops there with exit 2 and one line,
        no NumPy warning and no file in `--out-dir`, where `train` exited
        0 and wrote the untrained weights, and `search` left its split
        files behind."""
        assert run("synth", "--days", "4", "--seed", "3", "--out-dir", str(tmp_path / "s")) == 0
        capsys.readouterr()
        out = tmp_path / "t"
        shape = (["--hs", "8"] if command == "train"
                 else ["--hs-range", "8:8", "--layers-range", "1:1", "--trials", "1"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(
                command, "--input", str(tmp_path / "s" / "trace.csv"), "--sensor", "temp_core",
                *shape, "--batch-size", "256", "--max-epochs", "2", "--lr", "1e300",
                "--out-dir", str(out),
            )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: usage: TrainingDiverged: "), err
        assert "epoch 1 batch 2 loss is" in err[0]
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists() or not list(out.iterdir())


class TestSearch:
    def test_report_and_checkpoints(self, pipeline, tmp_path) -> None:
        out = tmp_path / "search"
        assert run(
            "search", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core",
            "--labels", str(pipeline / "synth" / "labels.csv"),
            "--window-size", "30", "--hs-range", "2:3", "--layers-range", "1:1",
            "--trials", "2", "--max-epochs", "1", "--batch-size", "512",
            "--out-dir", str(out),
        ) == 0
        lines = (out / "search_report.csv").read_text().splitlines()
        assert lines[0] == "hs,n,best_val_loss,epochs_run,model_path"
        assert len(lines) == 3  # grid is only two cells
        best = lines[1].split(",")
        assert load_model(out / best[4]).hidden_size == int(best[0])

    def test_report_bytes_do_not_depend_on_out_dir(self, pipeline, tmp_path, monkeypatch) -> None:
        """The report names each checkpoint relative to itself, so the same
        search into a relative and an absolute directory writes the same
        report bytes."""
        monkeypatch.chdir(tmp_path)
        reports = []
        for out in ("relative", str(tmp_path / "absolute")):
            assert run(
                "search", "--input", str(pipeline / "synth" / "trace.csv"),
                "--sensor", "temp_core",
                "--labels", str(pipeline / "synth" / "labels.csv"),
                "--window-size", "30", "--hs-range", "2:2", "--layers-range", "1:1",
                "--trials", "1", "--max-epochs", "1", "--batch-size", "512",
                "--out-dir", out,
            ) == 0
            reports.append((Path(out) / "search_report.csv").read_bytes())
        assert reports[0] == reports[1]
        assert reports[0].splitlines()[1].endswith(b",model_hs2_n1.bin")

    def test_writes_train_split(self, pipeline, tmp_path) -> None:
        """For the flags `train` took, `search` writes the same split and
        labels files, byte for byte."""
        out = tmp_path / "search"
        assert run(
            "search", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core",
            "--labels", str(pipeline / "synth" / "labels.csv"),
            "--window-size", "30", "--hs-range", "4:4", "--layers-range", "1:1",
            "--trials", "1", "--max-epochs", "1", "--batch-size", "256", "--seed", "1",
            "--out-dir", str(out),
        ) == 0
        for name in ("splits.txt", "labels_used.csv"):
            assert (out / name).read_bytes() == (pipeline / "train" / name).read_bytes()
        manifest = json.loads((out / "search_manifest.json").read_text())
        assert {"splits.txt", "labels_used.csv"} <= set(manifest["outputs"])

    def test_best_checkpoint_calibrates_and_detects(self, pipeline, tmp_path) -> None:
        """The best checkpoint a search writes carries its training
        normalization, and the search writes the split it trained on, so
        calibrate and detect read them like train's."""
        trace = str(pipeline / "synth" / "trace.csv")
        labels = str(pipeline / "synth" / "labels.csv")
        out = tmp_path / "search"
        assert run(
            "search", "--input", trace, "--sensor", "temp_core", "--labels", labels,
            "--window-size", "30", "--hs-range", "2:2", "--layers-range", "1:1",
            "--trials", "1", "--max-epochs", "1", "--batch-size", "512",
            "--out-dir", str(out),
        ) == 0
        best = out / (out / "search_report.csv").read_text().splitlines()[1].split(",")[4]
        assert run(
            "calibrate", "--checkpoint", str(best), "--input", trace, "--sensor", "temp_core",
            "--splits", str(out / "splits.txt"), "--out-dir", str(tmp_path / "cal"),
        ) == 0
        assert run(
            "detect", "--checkpoint", str(best), "--input", trace, "--sensor", "temp_core",
            "--threshold", str(tmp_path / "cal" / "threshold.json"),
            "--out-dir", str(tmp_path / "det"),
        ) == 0

    def test_bad_range_is_usage_error(self, pipeline, tmp_path) -> None:
        assert run(
            "search", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core", "--hs-range", "banana",
            "--out-dir", str(tmp_path / "s"),
        ) == 2


class TestCalibrate:
    def test_threshold_from_validation_maximum(self, pipeline) -> None:
        thr = read_threshold(pipeline / "cal" / "threshold.json")
        assert thr.alpha > 0
        assert thr.method == "max_validation"
        assert thr.calibration_stats.quantile_used == 1.0
        assert thr.calibration_stats.holdout_exceedances is not None

    def test_quantile_below_one(self, pipeline, tmp_path) -> None:
        out = tmp_path / "cal9"
        assert run(
            "calibrate", "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core",
            "--splits", str(pipeline / "train" / "splits.txt"),
            "--quantile", "0.9", "--out-dir", str(out),
        ) == 0
        thr = read_threshold(out / "threshold.json")
        assert thr.method == "quantile"

    def test_hashes_each_input_once(self, pipeline, tmp_path, monkeypatch) -> None:
        """The split file's digest, taken for the checkpoint check, is the
        one the manifest records: no input is hashed twice."""
        hashed = []
        real = hivewatch.cli._sha256

        def counting(path):
            hashed.append(str(path))
            return real(path)

        monkeypatch.setattr(hivewatch.cli, "_sha256", counting)
        splits = pipeline / "train" / "splits.txt"
        out = tmp_path / "cal-once"
        assert run(
            "calibrate", "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--input", str(pipeline / "synth" / "trace.csv"), "--sensor", "temp_core",
            "--splits", str(splits), "--out-dir", str(out),
        ) == 0
        assert sorted(hashed) == sorted(set(hashed)) and str(splits) in hashed
        manifest = json.loads((out / "calibrate_manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"][str(splits)] == hashlib.sha256(splits.read_bytes()).hexdigest()

    def test_manual_alpha_needs_no_model(self, tmp_path) -> None:
        out = tmp_path / "manual"
        assert run("calibrate", "--alpha", "0.75", "--out-dir", str(out)) == 0
        thr = read_threshold(out / "threshold.json")
        assert thr.alpha == 0.75 and thr.method == "manual"

    def test_missing_inputs_is_usage_error(self, tmp_path) -> None:
        assert run("calibrate", "--out-dir", str(tmp_path / "c")) == 2

    def test_needs_splits(self, pipeline, tmp_path, capsys) -> None:
        """Calibration reads its validation days only from the split file
        training wrote."""
        out = tmp_path / "cal"
        assert run(
            "calibrate", "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--input", str(pipeline / "synth" / "trace.csv"), "--out-dir", str(out),
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: usage:"), err
        assert not out.exists()

    def test_split_of_another_run_is_data_error(self, pipeline, tmp_path, capsys) -> None:
        """The checkpoint records the split it was trained on: another
        `train` run's split, whose validation days include this model's
        training days, is refused."""
        other = tmp_path / "other"
        assert run(
            "train", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core", "--labels", str(pipeline / "synth" / "labels.csv"),
            "--window-size", "30", "--hs", "4", "--max-epochs", "1", "--batch-size", "256",
            "--val-fraction", "0.5", "--out-dir", str(other),
        ) == 0
        capsys.readouterr()
        ours = read_splits(pipeline / "train" / "splits.txt")
        assert read_splits(other / "splits.txt").validation & ours.training
        out = tmp_path / "cal"
        assert run(
            "calibrate", "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--input", str(pipeline / "synth" / "trace.csv"), "--sensor", "temp_core",
            "--splits", str(other / "splits.txt"), "--out-dir", str(out),
        ) == 3
        one_data_error(capsys, "SplitMismatch")
        assert not out.exists()

    def test_checkpoint_without_split_is_not_checked(self, pipeline, tmp_path) -> None:
        """A checkpoint that records no split, as `save_model` writes one
        for a model trained outside `train` and `search`, calibrates."""
        bare = tmp_path / "bare.bin"
        rewrite_header(pipeline / "train" / "model.bin", bare, without("split"))
        assert load_model(bare).split is None
        assert run(
            "calibrate", "--checkpoint", str(bare),
            "--input", str(pipeline / "synth" / "trace.csv"), "--sensor", "temp_core",
            "--splits", str(pipeline / "train" / "splits.txt"),
            "--out-dir", str(tmp_path / "cal"),
        ) == 0
        assert (tmp_path / "cal" / "threshold.json").read_bytes() == (
            pipeline / "cal" / "threshold.json"
        ).read_bytes()

    def test_data_error_writes_nothing(self, pipeline, tmp_path, capsys) -> None:
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a checkpoint")
        out = tmp_path / "cal"
        assert run(
            "calibrate", "--checkpoint", str(bad),
            "--input", str(pipeline / "synth" / "trace.csv"),
            "--splits", str(pipeline / "train" / "splits.txt"), "--out-dir", str(out),
        ) == 3
        assert capsys.readouterr().err.startswith("error: data: CheckpointError")
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, error",
        [
            (b"training=2021-06-01\nvalidation=2021-13-01\n",
             "MalformedHeader: {path}:2: bad date"),
            (b"training=2021-06-01,2021-06-02\nvalidation=2021-06-02\n",
             "MalformedHeader: {path}: training and validation days overlap"),
            (b"training=2021-06-01\nvalidation=\xff\xfe\n",
             "FileUnreadable: {path}: not UTF-8 text"),
            (b"training=2021-06-01\nvalidation=2021-06-02\nholdout=\ntest.h2=2021-06-03\n",
             "MalformedHeader: {path}:4: unknown split key 'test.h2'"),
        ],
        ids=["bad-date", "overlap", "not-utf8", "test-population"],
    )
    def test_bad_split_file_is_data_error(self, pipeline, tmp_path, capsys, body, error):
        splits = tmp_path / "splits.txt"
        splits.write_bytes(body)
        out = tmp_path / "cal"
        assert run(
            "calibrate", "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--input", str(pipeline / "synth" / "trace.csv"),
            "--splits", str(splits), "--out-dir", str(out),
        ) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: data: " + error.format(path=splits))
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


class TestDetect:
    def test_events_written_and_summarized(self, pipeline, tmp_path, capsys) -> None:
        out = tmp_path / "det"
        assert run(
            "detect", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core",
            "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--threshold", str(pipeline / "cal" / "threshold.json"),
            "--out-dir", str(out),
        ) == 0
        events = read_events(out / "ae_events.csv")
        assert all(e.method == "AE" for e in events)
        assert "events at" in capsys.readouterr().out

    def test_manifest_counts_what_the_events_show(self, pipeline, tmp_path) -> None:
        """On a trace with a sensor failure and 31 deleted rows, the
        manifest's `run` counts equal those recomputed from the event
        file: a gap event is one with an infinite peak score."""
        assert run("synth", "--days", "2", "--seed", "4",
                   "--anomaly", "1:sensor-failure:600", "--out-dir", str(tmp_path / "s")) == 0
        lines = (tmp_path / "s" / "trace.csv").read_text().splitlines(keepends=True)
        trace = tmp_path / "cut.csv"
        trace.write_text("".join(lines[:200] + lines[231:]))
        out = tmp_path / "det"
        with redirect_stdout(io.StringIO()):
            assert run("detect", "--input", str(trace), "--sensor", "temp_core",
                       "--checkpoint", str(pipeline / "train" / "model.bin"),
                       "--threshold", str(pipeline / "cal" / "threshold.json"),
                       "--out-dir", str(out)) == 0
        found = json.loads((out / "detect_manifest.json").read_text())["run"]
        events = read_events(out / "ae_events.csv")
        gaps = [e for e in events if e.peak_score == float("inf")]
        assert found["gap_spans"] == len(gaps) >= 2
        assert found["gap_seconds"] == sum(e.end_ts - e.start_ts for e in gaps)
        assert found["events"] == dict(Counter(e.class_hint for e in events))
        cut = ingest(trace, ["temp_core"])
        assert found["windows_scored"] == len(make_windows(cut, "temp_core", set(cut.days()), 30))

    def test_window_size_mismatch_writes_nothing(self, pipeline, tmp_path) -> None:
        """The window size is the checkpoint's; detect takes no flag for it."""
        out = tmp_path / "det"
        with pytest.raises(SystemExit) as exc:
            run(
                "detect", "--input", str(pipeline / "synth" / "trace.csv"),
                "--sensor", "temp_core",
                "--checkpoint", str(pipeline / "train" / "model.bin"),
                "--alpha", "0.5", "--window-size", "99", "--out-dir", str(out),
            )
        assert exc.value.code == 2
        assert not out.exists()

    def test_needs_threshold_or_alpha(self, pipeline, tmp_path) -> None:
        assert run(
            "detect", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core",
            "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--out-dir", str(tmp_path / "det"),
        ) == 2


def rewrite_header(src, dst, mutate) -> None:
    """Copy a checkpoint, passing its JSON header through `mutate`."""
    raw = src.read_bytes()
    start = len(MAGIC) + 4
    (length,) = struct.unpack_from("<I", raw, len(MAGIC))
    blob = json.dumps(mutate(json.loads(raw[start : start + length]))).encode()
    dst.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + raw[start + length :])


def without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def with_hyper(**fields):
    return lambda doc: {**doc, "hyper": {**doc["hyper"], **fields}}


def with_first_array(**fields):
    return lambda doc: {**doc, "arrays": [{**doc["arrays"][0], **fields}, *doc["arrays"][1:]]}


class TestBadCheckpoint:
    """Malformed or diverged checkpoints are data errors: exit 3 and one
    `error: data:` line, never a traceback or a silent "no events"."""

    @pytest.mark.parametrize(
        "mutate",
        [
            without("hyper"),
            without("arrays"),
            lambda doc: [doc],
            lambda doc: {**doc, "hyper": [4, 1]},
            with_hyper(hidden_size="4"),
            with_hyper(n_layers=None),
            with_hyper(window_size=True),
            with_hyper(n_layers=0),
            with_first_array(shape=None),
            with_first_array(shape=[-16, 1]),
            lambda doc: {**doc, "arrays": [{"shape": a["shape"]} for a in doc["arrays"]]},
            lambda doc: {**doc, "norm": {"mean": 34.5}},
            lambda doc: {**doc, "norm": {"mean": 34.5, "std": 0.0}},
        ],
        ids=[
            "no-hyper", "no-arrays", "header-list", "hyper-list", "hs-string",
            "layers-null", "window-bool", "zero-layers", "shape-null",
            "shape-negative", "array-unnamed", "norm-no-std", "norm-zero-std",
        ],
    )
    def test_header_fields_checked(self, pipeline, tmp_path, capsys, mutate) -> None:
        bad = tmp_path / "bad.bin"
        rewrite_header(pipeline / "train" / "model.bin", bad, mutate)
        assert run(
            "detect", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core", "--checkpoint", str(bad),
            "--alpha", "0.5", "--out-dir", str(tmp_path / "det"),
        ) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: CheckpointError")

    @pytest.mark.parametrize("mutate", [without("norm"), lambda doc: {**doc, "norm": None}],
                             ids=["no-norm", "norm-null"])
    @pytest.mark.parametrize("command", ["detect", "calibrate"])
    def test_missing_norm_is_data_error(self, pipeline, tmp_path, capsys, command, mutate):
        """A checkpoint always carries its normalization; one without it is
        a bad file, not a bad command line."""
        bad = tmp_path / "bad.bin"
        rewrite_header(pipeline / "train" / "model.bin", bad, mutate)
        side = (["--alpha", "0.5"] if command == "detect"
                else ["--splits", str(pipeline / "train" / "splits.txt")])
        assert run(
            command, "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core", "--checkpoint", str(bad), *side,
            "--out-dir", str(tmp_path / "out"),
        ) == 3
        one_data_error(capsys, "CheckpointError")
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def diverged(self, pipeline, tmp_path):
        """The trained model with every weight scaled to about 1e300:
        still finite, so it loads, but its reconstructions overflow."""
        model = load_model(pipeline / "train" / "model.bin")
        for arr in model_parameters(model).values():
            arr *= 1e300
        path = tmp_path / "diverged.bin"
        save_model(path, model)
        return path

    @pytest.mark.parametrize("command", ["detect", "calibrate"])
    def test_non_finite_scores_rejected(self, pipeline, diverged, tmp_path, capsys, command):
        argv = [command, "--input", str(pipeline / "synth" / "trace.csv"),
                "--sensor", "temp_core", "--checkpoint", str(diverged),
                "--out-dir", str(tmp_path / "out")]
        if command == "detect":
            argv += ["--alpha", "0.5"]
        else:
            argv += ["--splits", str(pipeline / "train" / "splits.txt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "non-finite reconstruction error" in err[0]
        assert not (tmp_path / "out" / "ae_events.csv").exists()


class TestBlasThreads:
    @pytest.mark.parametrize("preset", [None, "4"])
    def test_import_pins_blas_threads_unless_set(self, preset) -> None:
        """A fresh process that imports hivewatch runs one BLAS thread
        unless the user chose a count; theirs is kept."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
        src = str(Path(hivewatch.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import os, hivewatch, numpy; tasks = '/proc/self/task'; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'], "
                 "len(os.listdir(tasks)) if os.path.isdir(tasks) else 1)")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        blas, omp, threads = done.stdout.split()
        assert blas == omp == (preset or "1")
        if preset is None:
            assert threads == "1"  # OpenBLAS started no threads of its own

    def test_detect_bytes_do_not_depend_on_blas_threads(self, pipeline, tmp_path) -> None:
        """`python -m hivewatch.cli detect` with its default of one BLAS
        thread, and with two, writes the events an in-process run writes,
        byte for byte."""
        argv = ["detect", "--input", str(pipeline / "synth" / "trace.csv"),
                "--sensor", "temp_core",
                "--checkpoint", str(pipeline / "train" / "model.bin"),
                "--threshold", str(pipeline / "cal" / "threshold.json")]
        assert run(*argv, "--out-dir", str(tmp_path / "in")) == 0
        src = str(Path(hivewatch.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for name, blas_threads in (("default", {}), ("two", {"OPENBLAS_NUM_THREADS": "2",
                                                              "OMP_NUM_THREADS": "2"})):
            done = subprocess.run(
                [sys.executable, "-m", "hivewatch.cli", *argv, "--out-dir", str(tmp_path / name)],
                env={**env, **blas_threads}, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            assert (tmp_path / name / "ae_events.csv").read_bytes() == (
                tmp_path / "in" / "ae_events.csv"
            ).read_bytes()


class TestRba:
    def test_finds_generated_swarm(self, pipeline, tmp_path) -> None:
        """Rule detection on generator output overlaps the generator's
        own ground-truth swarm interval."""
        out = tmp_path / "rba"
        assert run(
            "rba", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core", "--out-dir", str(out),
        ) == 0
        events = read_events(out / "rba_events.csv")
        truth = read_events(pipeline / "synth" / "truth_events.csv")
        swarms = [e for e in truth if e.class_hint == "swarm"]
        assert len(events) == len(swarms) == 1
        assert events[0].start_ts < swarms[0].end_ts
        assert events[0].end_ts > swarms[0].start_ts
        found = json.loads((out / "rba_manifest.json").read_text())["run"]
        assert found == {"events": {events[0].class_hint: 1}}

    def test_missing_input_is_data_error(self, tmp_path) -> None:
        assert run("rba", "--input", str(tmp_path / "nope.csv"),
                   "--sensor", "temp_core", "--out-dir", str(tmp_path / "r")) == 3

    def test_five_minute_trace_is_data_error(self, tmp_path, capsys) -> None:
        trace = tmp_path / "coarse.csv"
        trace.write_text(
            "timestamp,temp_core\n" + "".join(f"{300 * i},34.5\n" for i in range(50)),
            encoding="utf-8",
        )
        out = tmp_path / "r"
        assert run("rba", "--input", str(trace), "--out-dir", str(out)) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: UnsupportedSampling")
        assert "Traceback" not in captured.out + captured.err
        assert not out.exists()


    def test_non_utf8_trace_is_data_error(self, tmp_path, capsys) -> None:
        trace = tmp_path / "bytes.csv"
        trace.write_bytes(b"timestamp,temp_core\n0,34.5\n60,\xff\xfe\n")
        out = tmp_path / "r"
        assert run("rba", "--input", str(trace), "--out-dir", str(out)) == 3
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: FileUnreadable")
        assert "Traceback" not in captured.out + captured.err

    def test_manifest_reports_ingest(self, tmp_path) -> None:
        """A clean file is read by the block parser with nothing repaired; a
        duplicate timestamp sends it through the row parser, which counts it."""
        rows = [f"2021-06-01T00:{m:02d}:00+00:00,34.5" for m in range(10)]
        for name, body in (("clean", rows), ("dup", rows[:5] + rows[4:])):
            trace = tmp_path / f"{name}.csv"
            trace.write_text("timestamp,temp_core\n" + "\n".join(body) + "\n")
            out = tmp_path / name
            assert run("rba", "--input", str(trace), "--out-dir", str(out)) == 0
            report = json.loads((out / "rba_manifest.json").read_text())["ingest"]
            assert report["rows"] == 10
            assert report["parser"] == ("block" if name == "clean" else "row")
            assert report["duplicate_rows"] == (name == "dup")
            assert report["dropped_rows"] == report["ragged_rows"] == 0
            assert report["out_of_order_rows"] == 0


class TestUnknownLabel:
    """A label file naming a class other than normal/anomalous is bad data."""

    @pytest.fixture
    def weird_labels(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("date,label\n2021-06-01,weird\n", encoding="utf-8")
        return p

    def check(self, capsys) -> None:
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: data: MalformedHeader")
        assert "weird" in err[0] and "Traceback" not in captured.out + captured.err

    def test_train(self, pipeline, weird_labels, tmp_path, capsys) -> None:
        assert run(
            "train", "--input", str(pipeline / "synth" / "trace.csv"),
            "--labels", str(weird_labels), "--max-epochs", "1",
            "--out-dir", str(tmp_path / "t"),
        ) == 3
        self.check(capsys)

    def test_corr(self, pipeline, weird_labels, tmp_path, capsys) -> None:
        assert run(
            "corr", "--input", str(pipeline / "synth" / "trace.csv"),
            "--labels", str(weird_labels), "--out-dir", str(tmp_path / "c"),
        ) == 3
        self.check(capsys)


def one_data_error(capsys, kind: str) -> str:
    """The one stderr line of a data error of `kind`, with no traceback."""
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: data: {kind}"), err
    assert "Traceback" not in captured.out + captured.err
    return err[0]


class TestSideFiles:
    """Label, event and threshold files that are not UTF-8 text or hold
    values the program cannot use are data errors (exit 3)."""

    def test_report_truth_not_utf8(self, tmp_path, capsys) -> None:
        truth = tmp_path / "truth.csv"
        truth.write_bytes(b"start,end,peak,peak_score,method,class_hint\n\xff\xfe\n")
        assert run("report", "--truth", str(truth), "--out-dir", str(tmp_path / "r")) == 3
        one_data_error(capsys, "FileUnreadable")

    def test_corr_labels_not_utf8(self, pipeline, tmp_path, capsys) -> None:
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"date,label\n2021-06-01,normal\xff\n")
        assert run(
            "corr", "--input", str(pipeline / "synth" / "trace.csv"),
            "--labels", str(labels), "--out-dir", str(tmp_path / "c"),
        ) == 3
        one_data_error(capsys, "FileUnreadable")

    def detect(self, pipeline, tmp_path, threshold) -> int:
        return run(
            "detect", "--input", str(pipeline / "synth" / "trace.csv"),
            "--sensor", "temp_core",
            "--checkpoint", str(pipeline / "train" / "model.bin"),
            "--threshold", str(threshold), "--out-dir", str(tmp_path / "det"),
        )

    def test_detect_threshold_not_utf8(self, pipeline, tmp_path, capsys) -> None:
        threshold = tmp_path / "threshold.json"
        threshold.write_bytes(b'{"alpha": 0.5\xff}')
        assert self.detect(pipeline, tmp_path, threshold) == 3
        one_data_error(capsys, "FileUnreadable")

    @pytest.mark.parametrize(
        "alpha, exceedances",
        [("Infinity", "null"), ("1" + "0" * 400, "null"), ("0.5", "1e999")],
        ids=["alpha-infinity", "alpha-400-digits", "exceedances-1e999"],
    )
    def test_detect_threshold_out_of_range(
        self, pipeline, tmp_path, capsys, alpha, exceedances
    ) -> None:
        threshold = tmp_path / "threshold.json"
        threshold.write_text(
            f'{{"alpha": {alpha}, "method": "quantile", "calibration_stats": '
            f'{{"max_val_error": 0.1, "quantile_used": 1.0, '
            f'"holdout_exceedances": {exceedances}}}}}',
            encoding="utf-8",
        )
        assert self.detect(pipeline, tmp_path, threshold) == 3
        one_data_error(capsys, "MalformedHeader")
        assert not (tmp_path / "det").exists()

    def test_calibrate_infinite_alpha_is_usage_error(self, tmp_path, capsys) -> None:
        out = tmp_path / "cal"
        assert run("calibrate", "--alpha", "inf", "--out-dir", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: usage:")
        assert not (out / "threshold.json").exists()

    def test_report_stamp_outside_years_1_to_9999(self, tmp_path, capsys) -> None:
        truth = tmp_path / "truth.csv"
        truth.write_text(
            "start,end,peak,peak_score,method,class_hint\n"
            "0001-01-01T00:00:00+14:00,2021-06-01T01:00:00+00:00,"
            "2021-06-01T00:30:00+00:00,1.0,truth,swarm\n",
            encoding="utf-8",
        )
        assert run("report", "--truth", str(truth), "--out-dir", str(tmp_path / "r")) == 3
        assert f"{truth}:2:" in one_data_error(capsys, "MalformedHeader")


class TestCorr:
    def test_explicit_day_list(self, pipeline, tmp_path) -> None:
        out = tmp_path / "corr"
        assert run(
            "corr", "--input", str(pipeline / "synth" / "trace.csv"),
            "--days", "2021-06-01,2021-06-02", "--out-dir", str(out),
        ) == 0
        lines = (out / "correlation_normal-days.csv").read_text().splitlines()
        assert lines[0] == "sensor,temp_core,temp_outside"

    def test_labels_pick_population(self, pipeline, tmp_path) -> None:
        out = tmp_path / "corr"
        assert run(
            "corr", "--input", str(pipeline / "synth" / "trace.csv"),
            "--labels", str(pipeline / "synth" / "labels.csv"),
            "--population", "anomalous-days", "--out-dir", str(out),
        ) == 0
        assert (out / "correlation_anomalous-days.csv").exists()

    def test_needs_day_source(self, pipeline, tmp_path) -> None:
        assert run(
            "corr", "--input", str(pipeline / "synth" / "trace.csv"),
            "--out-dir", str(tmp_path / "c"),
        ) == 2


class TestReport:
    @staticmethod
    def _event(start_min: int, end_min: int, method: str, hint: str) -> DetectionEvent:
        return DetectionEvent(
            start_ts=start_min * 60,
            end_ts=end_min * 60,
            peak_ts=(start_min + end_min) * 30,
            peak_score=1.0,
            method=method,
            class_hint=hint,
        )

    def test_overlap_marks_detections(self, tmp_path) -> None:
        """A truth row says yes for a method iff one of its events
        overlaps within the tolerance."""
        truth = [
            self._event(100, 120, "truth", "swarm"),
            self._event(500, 540, "truth", "opening"),
        ]
        ae = [self._event(95, 110, "AE", "swarm-like")]
        rba = [self._event(700, 710, "RBA", "swarm-like")]
        write_events(tmp_path / "truth.csv", truth)
        write_events(tmp_path / "ae.csv", ae)
        write_events(tmp_path / "rba.csv", rba)
        out = tmp_path / "rep"
        assert run(
            "report", "--truth", str(tmp_path / "truth.csv"),
            "--ae-events", str(tmp_path / "ae.csv"),
            "--rba-events", str(tmp_path / "rba.csv"),
            "--window-size", "10", "--period", "60", "--out-dir", str(out),
        ) == 0
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "start,end,class_hint,rba,ae"
        assert lines[1].endswith("swarm,no,yes")
        assert lines[2].endswith("opening,no,no")

    def test_tolerance_widens_matching(self, tmp_path) -> None:
        """An event 30 minutes away matches only once the tolerance
        covers the distance."""
        truth = [self._event(100, 120, "truth", "swarm")]
        ae = [self._event(150, 160, "AE", "swarm-like")]
        write_events(tmp_path / "truth.csv", truth)
        write_events(tmp_path / "ae.csv", ae)
        for window, expected in [(10, "no"), (40, "yes")]:
            out = tmp_path / f"rep{window}"
            assert run(
                "report", "--truth", str(tmp_path / "truth.csv"),
                "--ae-events", str(tmp_path / "ae.csv"),
                "--window-size", str(window), "--period", "60",
                "--out-dir", str(out),
            ) == 0
            assert (out / "report.csv").read_text().splitlines()[1].endswith(expected)

    def test_rba_file_as_reference(self, tmp_path) -> None:
        rba = [self._event(100, 110, "RBA", "swarm-like")]
        write_events(tmp_path / "rba.csv", rba)
        out = tmp_path / "rep"
        assert run(
            "report", "--rba-events", str(tmp_path / "rba.csv"),
            "--out-dir", str(out),
        ) == 0
        assert len((out / "report.csv").read_text().splitlines()) == 2

    def test_needs_reference(self, tmp_path) -> None:
        assert run("report", "--out-dir", str(tmp_path / "rep")) == 2

    @pytest.mark.parametrize("flag", ["--window-size", "--period"])
    def test_negative_tolerance_is_usage_error(self, tmp_path, capsys, flag) -> None:
        """A negative tolerance would narrow every match; it is refused
        with exit 2 and no report, while 0 is allowed."""
        truth = [self._event(100, 120, "truth", "swarm")]
        write_events(tmp_path / "truth.csv", truth)
        out = tmp_path / "rep"
        assert run("report", "--truth", str(tmp_path / "truth.csv"),
                   flag, "-3", "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage: report needs") and flag in err
        assert not (out / "report.csv").exists()
        assert run("report", "--truth", str(tmp_path / "truth.csv"),
                   flag, "0", "--out-dir", str(out)) == 0
        assert (out / "report.csv").read_text().splitlines()[1].endswith("swarm,no,no")

    def test_stamps_without_offset_read_as_utc(self, tmp_path, monkeypatch) -> None:
        """A truth stamp with no offset is UTC, as in `ingest`, whatever
        the machine's time zone."""
        truth, ae = tmp_path / "truth.csv", tmp_path / "ae.csv"
        header = "start,end,peak,peak_score,method,class_hint\n"
        truth.write_text(
            header + "2021-06-01T10:00:00,2021-06-01T10:20:00,2021-06-01T10:10:00,1.0,truth,swarm\n",
            encoding="utf-8",
        )
        ae.write_text(
            header + "2021-06-01T10:05:00+00:00,2021-06-01T10:15:00+00:00,"
            "2021-06-01T10:10:00+00:00,2.0,AE,swarm-like\n",
            encoding="utf-8",
        )
        reports = {}
        try:
            for zone, offset in (("UTC", 0), ("Asia/Tokyo", 9 * 3600)):
                monkeypatch.setenv("TZ", zone)
                time.tzset()
                assert time.localtime(0).tm_gmtoff == offset
                out = tmp_path / zone.replace("/", "-")
                assert run(
                    "report", "--truth", str(truth), "--ae-events", str(ae),
                    "--window-size", "10", "--period", "60", "--out-dir", str(out),
                ) == 0
                reports[zone] = (out / "report.csv").read_bytes()
        finally:
            monkeypatch.undo()
            time.tzset()
        assert reports["Asia/Tokyo"] == reports["UTC"]
        assert reports["UTC"].splitlines()[1] == (
            b"2021-06-01T10:00:00+00:00,2021-06-01T10:20:00+00:00,swarm,no,yes"
        )


class TestParser:
    def test_unexpected_exception_is_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("hivewatch.cli.ingest", broken)
        assert run("rba", "--input", str(tmp_path / "t.csv"),
                   "--out-dir", str(tmp_path / "r")) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: internal: RuntimeError: boom\n"
        assert "Traceback" not in captured.out

    def test_unknown_command_exits_two(self) -> None:
        with pytest.raises(SystemExit) as exc:
            run("explode", "--out-dir", "/tmp/x")
        assert exc.value.code == 2

    def test_version_flag(self, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "hivewatch" in capsys.readouterr().out


def parser_output(parse, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a parse that exits, as for help and
    usage errors."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


#: A flag of each command with a `type=` or `choices=` to violate.
TYPED_FLAG = {"synth": "--days", "train": "--hs", "search": "--trials",
              "calibrate": "--quantile", "detect": "--stride", "rba": "--band",
              "corr": "--population", "report": "--period"}


def parser_cases():
    cases = [[], ["--help"], ["--version"], ["nosuch"], ["nosuch", "--help"], ["--", "rba"]]
    for name, *_ in COMMANDS:
        cases += [
            [name, "--help"],
            [name],  # a required flag missing
            [name, "--out-dir", "o", TYPED_FLAG[name], "x"],
            [name, "--out-dir", "o", "--nosuch"],  # reported by the top-level parser
        ]
    return cases


class TestParserOutput:
    """`main` builds only the invoked command's parser; what it prints
    must be what the parser with every command prints."""

    @pytest.mark.parametrize("argv", parser_cases(), ids=" ".join)
    def test_same_bytes_as_full_parser(self, argv) -> None:
        got = parser_output(main, argv)
        assert got == parser_output(build_parser().parse_args, argv)
        code, out, err = got
        assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))

    @pytest.mark.parametrize("argv, built", [(["rba", "--help"], "rba"),
                                             (["report", "-h"], "report"),
                                             (["--help"], None), (["nosuch"], None)])
    def test_builds_only_the_invoked_command(self, monkeypatch, argv, built) -> None:
        calls = []
        monkeypatch.setattr("hivewatch.cli.build_parser",
                            lambda command=None: calls.append(command) or build_parser(command))
        parser_output(main, argv)
        assert calls == [built]

    def test_long_option_abbreviations(self, tmp_path) -> None:
        """The README walkthrough passes `report --ae` and `--rba`."""
        write_events(tmp_path / "events.csv", [DetectionEvent(0, 600, 300, 1.0, "AE", "swarm")])
        events = str(tmp_path / "events.csv")
        out = tmp_path / "rep"
        with redirect_stdout(io.StringIO()):
            assert run("report", "--truth", events, "--ae", events, "--rba", events,
                       "--out-dir", str(out)) == 0
        manifest = json.loads((out / "report_manifest.json").read_text())
        parameters = manifest["parameters"]
        assert parameters["ae_events"] == parameters["rba_events"] == events
        assert manifest["run"] == {"unmatched_ae": 0, "unmatched_rba": 0}
        assert not {"unmatched_ae", "unmatched_rba"} & set(parameters)
