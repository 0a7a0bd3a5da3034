"""Anomaly detection for beehive sensor streams.

Reconstruction-error detection with an LSTM autoencoder trained on normal
days, a rule-based temperature-spike baseline, synthetic trace generation,
and correlation analysis, all behind one `hivewatch` command.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread unless the user chose otherwise. Scoring and training
# share their work with a worker process on a second CPU, and at these
# matrix sizes BLAS threads only compete with it. OpenBLAS reads the variables once, when NumPy first
# loads, so they are set before the first import below reaches NumPy.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
#: Whether NumPy's BLAS runs one thread: the worker process of `nn.model`
#: starts only then, since two processes whose BLAS threads spin on two
#: CPUs are slower than one. False when NumPy loaded before this module
#: while the variables were not both 1, or when the user set another
#: value.
ONE_BLAS_THREAD = "numpy" not in sys.modules or all(os.environ.get(v) == "1" for v in _BLAS_VARS)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
ONE_BLAS_THREAD = ONE_BLAS_THREAD and all(os.environ[v] == "1" for v in _BLAS_VARS)

__version__ = "0.1.0"

from .data import (
    BROOD_TEMP_C,
    DayLabel,
    NormalizationParams,
    SensorColumn,
    SensorTrace,
    SplitSet,
    WindowSet,
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
from .detector import (
    CalibrationStats,
    DetectionEvent,
    Threshold,
    TraceScores,
    calibrate,
    detect,
    format_summary,
    read_events,
    read_threshold,
    score_trace,
    window_errors,
    write_events,
    write_threshold,
)
from .errors import DATA_ERRORS, HivewatchError, UsageError
from .nn import (
    AutoencoderModel,
    TrainConfig,
    TrainResult,
    evaluate,
    init_model,
    load_model,
    save_model,
    train,
)
from .rba import RbaConfig, rba_detect
from .search import SearchSpace, TrialResult, random_search, write_search_report

__all__ = [
    "AutoencoderModel",
    "BROOD_TEMP_C",
    "CalibrationStats",
    "DATA_ERRORS",
    "DayLabel",
    "DetectionEvent",
    "HivewatchError",
    "NormalizationParams",
    "RbaConfig",
    "SearchSpace",
    "SensorColumn",
    "SensorTrace",
    "SplitSet",
    "Threshold",
    "TraceScores",
    "TrainConfig",
    "TrainResult",
    "TrialResult",
    "UsageError",
    "WindowSet",
    "__version__",
    "auto_label_days",
    "build_splits",
    "calibrate",
    "detect",
    "evaluate",
    "fit_normalization",
    "format_summary",
    "ingest",
    "init_model",
    "load_model",
    "make_windows",
    "missing_spans",
    "random_search",
    "rba_detect",
    "read_events",
    "read_labels",
    "read_splits",
    "read_threshold",
    "sample_period",
    "save_model",
    "score_trace",
    "train",
    "window_errors",
    "write_events",
    "write_labels",
    "write_search_report",
    "write_splits",
    "write_threshold",
    "write_trace",
]
