"""Shared fixtures: the full synthetic pipeline, run end to end twice.

The pipeline mirrors real usage through the command line: generate a
month of data with scheduled anomalies, train on its normal days,
calibrate a threshold, run both detectors, and compare them against
ground truth. Two independent runs with the same seeds support the
reproducibility checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import hivewatch.nn.model as nn_model
from hivewatch.cli import main
from hivewatch.data import NormalizationParams

#: The normalization of test models that score already z-scored windows.
IDENT_NORM = NormalizationParams(0.0, 1.0)


def use_worker(monkeypatch, on: bool) -> None:
    """Run later scoring and training calls with a fresh worker process,
    on any machine, or with none, as on one CPU."""
    nn_model._stop_worker()
    monkeypatch.setattr(nn_model, "_worker_lost", False)
    monkeypatch.setattr(nn_model, "_may_fork", lambda: on)


@pytest.fixture(params=["worker", "alone"])
def worker_mode(request, monkeypatch):
    """Each test twice: with the worker process and without it. The
    worker is stopped after the test."""
    use_worker(monkeypatch, request.param == "worker")
    yield request.param
    nn_model._stop_worker()


E2E_SEED = 42
E2E_MAX_EPOCHS = 6
E2E_WINDOW = 60
E2E_SCHEDULE = (
    "25:swarm:600",
    "26:opening:840",
    "27:varroa-treatment:1200",
    "28:swarm:300",
    "29:sensor-failure:700",
)

#: Everything a pipeline run writes, relative to its root (manifests are
#: excluded: they record absolute paths, which differ between runs).
E2E_ARTIFACTS = (
    "synth/trace.csv",
    "synth/truth_events.csv",
    "synth/labels.csv",
    "train/model.bin",
    "train/history.csv",
    "train/splits.txt",
    "train/labels_used.csv",
    "cal/threshold.json",
    "det/ae_events.csv",
    "rba/rba_events.csv",
    "rep/report.csv",
    "held/trace.csv",
    "held_det/ae_events.csv",
)


def run_e2e_pipeline(root: Path) -> None:
    """synth -> train -> calibrate -> detect -> rba -> report, plus a
    held-out anomaly-free day scored with the same model and threshold."""
    seed = str(E2E_SEED)
    synth = root / "synth"
    schedule_flags = [flag for a in E2E_SCHEDULE for flag in ("--anomaly", a)]
    assert main(["synth", "--days", "30", "--seed", seed,
                 *schedule_flags, "--out-dir", str(synth)]) == 0
    trace = str(synth / "trace.csv")
    train = root / "train"
    assert main(["train", "--input", trace, "--sensor", "temp_core",
                 "--labels", str(synth / "labels.csv"),
                 "--window-size", str(E2E_WINDOW), "--hs", "16", "--layers", "1",
                 "--max-epochs", str(E2E_MAX_EPOCHS), "--batch-size", "256",
                 "--seed", seed, "--out-dir", str(train)]) == 0
    cal = root / "cal"
    assert main(["calibrate", "--checkpoint", str(train / "model.bin"),
                 "--input", trace, "--sensor", "temp_core",
                 "--splits", str(train / "splits.txt"),
                 "--quantile", "1.0", "--out-dir", str(cal)]) == 0
    assert main(["detect", "--input", trace, "--sensor", "temp_core",
                 "--checkpoint", str(train / "model.bin"),
                 "--threshold", str(cal / "threshold.json"),
                 "--out-dir", str(root / "det")]) == 0
    assert main(["rba", "--input", trace, "--sensor", "temp_core",
                 "--out-dir", str(root / "rba")]) == 0
    assert main(["report", "--truth", str(synth / "truth_events.csv"),
                 "--ae-events", str(root / "det" / "ae_events.csv"),
                 "--rba-events", str(root / "rba" / "rba_events.csv"),
                 "--window-size", str(E2E_WINDOW), "--period", "60",
                 "--out-dir", str(root / "rep")]) == 0
    held = root / "held"
    assert main(["synth", "--days", "1", "--seed", str(E2E_SEED + 1000),
                 "--out-dir", str(held)]) == 0
    assert main(["detect", "--input", str(held / "trace.csv"),
                 "--sensor", "temp_core",
                 "--checkpoint", str(train / "model.bin"),
                 "--threshold", str(cal / "threshold.json"),
                 "--out-dir", str(root / "held_det")]) == 0


@dataclass(frozen=True)
class PipelineRun:
    root: Path
    seconds: float


@pytest.fixture(scope="session")
def e2e_runs(tmp_path_factory) -> list[PipelineRun]:
    """The full pipeline executed twice with identical seeds."""
    runs = []
    for name in ("first", "second"):
        root = tmp_path_factory.mktemp(f"e2e_{name}")
        start = time.monotonic()
        run_e2e_pipeline(root)
        runs.append(PipelineRun(root=root, seconds=time.monotonic() - start))
    return runs
