"""Threshold calibration, trace scoring, and event assembly.

A trained autoencoder scores every constructible window by reconstruction
error; windows at or above the threshold alpha are hits; nearby hits merge
into events. Spans the sensor never covered become data-gap events, since
silence is itself a sensor anomaly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import (
    BROOD_TEMP_C,
    SensorTrace,
    _FIRST_TS,
    _LAST_TS,
    _read_text,
    make_windows,
    missing_spans,
    sample_period,
)
from .errors import CheckpointError, EmptyValidation, MalformedHeader
from .nn.model import AutoencoderModel, reconstruction_errors

#: Multiplier applied on top of the calibration quantile.
SAFETY_MARGIN = 1.05

#: Default merge distance between hit-window start times, seconds.
DEFAULT_MERGE_GAP_S = 600

EVENT_METHODS = ("AE", "RBA", "truth")
CLASS_HINTS = (
    "swarm-like",
    "low-temperature",
    "data-gap",
    "unknown",
    # ground-truth classes used by the synthetic generator
    "swarm",
    "opening",
    "varroa-treatment",
    "sensor-failure",
)


@dataclass(frozen=True)
class CalibrationStats:
    max_val_error: float
    quantile_used: float
    holdout_exceedances: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.max_val_error < math.inf:
            raise ValueError(f"max_val_error must be finite, got {self.max_val_error!r}")
        if not 0 < self.quantile_used <= 1:
            raise ValueError(f"quantile_used must be in (0, 1], got {self.quantile_used!r}")


@dataclass(frozen=True)
class Threshold:
    """Anomaly threshold in reconstruction-error units (z-scored space)."""

    alpha: float
    method: str = "manual"  # "manual" | "quantile" | "max_validation"
    calibration_stats: CalibrationStats | None = None

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if self.method not in ("manual", "quantile", "max_validation"):
            raise ValueError(f"unknown threshold method {self.method!r}")


@dataclass(frozen=True)
class DetectionEvent:
    """One detected anomaly; timestamps are epoch seconds, end exclusive."""

    start_ts: int
    end_ts: int
    peak_ts: int
    peak_score: float
    method: str  # "AE" | "RBA"
    class_hint: str = "unknown"

    def __post_init__(self) -> None:
        if not self.start_ts <= self.peak_ts <= self.end_ts:
            raise ValueError("need start_ts <= peak_ts <= end_ts")
        if self.method not in EVENT_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.class_hint not in CLASS_HINTS:
            raise ValueError(f"unknown class hint {self.class_hint!r}")


def lower_quantile(values: np.ndarray, q: float) -> float:
    """Order statistic at ceil(q*n): deterministic, no interpolation."""
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile must be in (0, 1]")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    k = math.ceil(q * len(ordered))
    return float(ordered[k - 1])


def window_errors(model: AutoencoderModel, X: np.ndarray) -> np.ndarray:
    """Reconstruction error (mean squared, z-scored space) of each column
    of a (T, n) window matrix, from `nn.model.reconstruction_errors`, the
    path validation also uses.

    Raises CheckpointError when an error is not finite: a NaN compares
    false against every threshold, so a diverged model, or a
    normalization that z-scores readings past the float range, would
    otherwise report no events.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = reconstruction_errors(model, X)
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise CheckpointError(
            f"non-finite reconstruction error on {bad} of {len(out)} windows; "
            "the model's weights have diverged or its normalization overflows"
        )
    return out


def calibrate(
    model: AutoencoderModel,
    validation_windows: np.ndarray,
    holdout_windows: np.ndarray | None = None,
    quantile: float = 1.0,
) -> Threshold:
    """Set alpha from normal validation windows, a (T, n) matrix.

    alpha = (`quantile`-quantile of validation errors) * 1.05. Holdout
    windows, when given and not empty, are only counted against the
    result — exceedances are reported for the operator, never
    auto-applied.
    """
    if validation_windows.shape[1] == 0:
        raise EmptyValidation("cannot calibrate without validation windows")
    errors = window_errors(model, validation_windows)
    base = lower_quantile(errors, quantile)
    alpha = base * SAFETY_MARGIN
    if not alpha > 0:
        raise EmptyValidation(
            "validation reconstruction errors are all zero; threshold undefined"
        )
    exceedances = None
    if holdout_windows is not None and holdout_windows.shape[1] > 0:
        exceedances = int(np.sum(window_errors(model, holdout_windows) >= alpha))
    return Threshold(
        alpha=alpha,
        method="max_validation" if quantile == 1.0 else "quantile",
        calibration_stats=CalibrationStats(
            max_val_error=float(errors.max()),
            quantile_used=quantile,
            holdout_exceedances=exceedances,
        ),
    )


@dataclass
class TraceScores:
    """Scores for every constructible window of one trace, plus data gaps."""

    trace: SensorTrace
    sensor: str
    window_size: int
    period_s: int
    start_ts: np.ndarray  # (n,) int64, ascending
    errors: np.ndarray  # (n,) float64
    gaps: list  # [(start, end)] spans never covered by readings

    @property
    def window_seconds(self) -> int:
        return self.window_size * self.period_s


def score_trace(
    model: AutoencoderModel,
    trace: SensorTrace,
    sensor: str,
    stride: int = 1,
) -> TraceScores:
    """Reconstruction error for every window the trace can supply, each
    z-scored with the model's own normalization, `model.norm`.

    Windows holding a missing or non-finite reading, or spanning a
    timestamp jump, are skipped. `gaps` is `missing_spans(trace, sensor)`,
    every span no reading covers, so silence is never silently ignored.
    """
    period = sample_period(trace) or 60
    windows = make_windows(
        trace,
        sensor,
        days=set(trace.days()),
        window_size=model.window_size,
        stride=stride,
        params=model.norm,
    )
    errors = window_errors(model, windows.matrix)
    return TraceScores(
        trace=trace,
        sensor=sensor,
        window_size=model.window_size,
        period_s=period,
        start_ts=windows.start_ts,
        errors=errors,
        gaps=missing_spans(trace, sensor),
    )


def _classify(scores: TraceScores, start: int, end: int) -> str:
    """Advisory label from raw readings inside the event interval."""
    period = scores.period_s
    for a, b in scores.gaps:
        if a <= end + period and b >= start - period:
            return "data-gap"
    trace = scores.trace
    col = trace.sensor(scores.sensor)
    mask = (trace.timestamps >= start) & (trace.timestamps < end) & np.isfinite(col)
    if not mask.any():
        return "unknown"
    mean = float(np.mean(col[mask]))
    if mean > BROOD_TEMP_C:
        return "swarm-like"
    if mean < BROOD_TEMP_C - 1.0:
        return "low-temperature"
    return "unknown"


def detect(
    scores: TraceScores,
    threshold: Threshold,
    merge_gap: int = DEFAULT_MERGE_GAP_S,
) -> list[DetectionEvent]:
    """Merge threshold hits into events; emit data gaps as events too.

    Hit windows chain into one event while the next hit starts within
    `merge_gap` seconds of the previous hit or overlaps it in time. The
    event interval is the union of member window spans; the peak sits at
    the center of the worst window (earliest on ties).
    """
    span = scores.window_seconds
    hits = scores.errors >= threshold.alpha
    events: list[DetectionEvent] = []

    cluster: list[int] | None = None  # [first_start, last_start, best_idx]
    hit_idx = np.nonzero(hits)[0]

    def close(cl) -> DetectionEvent:
        first, last, best = cl
        start, end = int(first), int(last) + span
        peak_start = int(scores.start_ts[best])
        return DetectionEvent(
            start_ts=start,
            end_ts=end,
            peak_ts=peak_start + span // 2,
            peak_score=float(scores.errors[best]),
            method="AE",
            class_hint=_classify(scores, start, end),
        )

    for i in hit_idx:
        s = int(scores.start_ts[i])
        if cluster is not None and (s - cluster[1] <= merge_gap or s < cluster[1] + span):
            cluster[1] = s
            if scores.errors[i] > scores.errors[cluster[2]]:
                cluster[2] = int(i)
        else:
            if cluster is not None:
                events.append(close(cluster))
            cluster = [s, s, int(i)]
    if cluster is not None:
        events.append(close(cluster))

    for a, b in scores.gaps:
        events.append(
            DetectionEvent(
                start_ts=a,
                end_ts=b,
                peak_ts=(a + b) // 2,
                peak_score=float("inf"),
                method="AE",
                class_hint="data-gap",
            )
        )
    events.sort(key=lambda e: (e.start_ts, e.end_ts))
    return events


# ---------------------------------------------------------------------------
# Report files


def _iso(ts: int) -> str:
    return datetime.fromtimestamp(int(ts), timezone.utc).isoformat()


def _from_iso(s: str) -> int:
    """Epoch seconds of an ISO-8601 stamp, read as UTC when it has no
    offset (as `ingest` reads it); ValueError unless `_iso` can write the
    instant back (years 1 to 9999 in UTC)."""
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    ts = int(dt.timestamp())
    if not _FIRST_TS <= ts <= _LAST_TS:
        raise ValueError(f"stamp {s!r} falls outside years 1-9999 in UTC")
    return ts


def write_events(path, events: list[DetectionEvent]) -> None:
    """Delimited event table: start,end,peak,peak_score,method,class_hint."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("start,end,peak,peak_score,method,class_hint\n")
        for e in events:
            fh.write(
                f"{_iso(e.start_ts)},{_iso(e.end_ts)},{_iso(e.peak_ts)},"
                f"{e.peak_score!r},{e.method},{e.class_hint}\n"
            )


def read_events(path) -> list[DetectionEvent]:
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != "start,end,peak,peak_score,method,class_hint":
        raise MalformedHeader(f"{path}: not an event table")
    events = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise MalformedHeader(f"{path}:{lineno}: expected 6 columns")
        try:
            events.append(
                DetectionEvent(
                    start_ts=_from_iso(parts[0]),
                    end_ts=_from_iso(parts[1]),
                    peak_ts=_from_iso(parts[2]),
                    peak_score=float(parts[3]),
                    method=parts[4],
                    class_hint=parts[5],
                )
            )
        except ValueError as exc:
            raise MalformedHeader(f"{path}:{lineno}: {exc}") from exc
    return events


def write_threshold(path, threshold: Threshold) -> None:
    """Threshold as a small JSON document with stable key order."""
    stats = threshold.calibration_stats
    doc = {
        "alpha": threshold.alpha,
        "method": threshold.method,
        "calibration_stats": None
        if stats is None
        else {
            "max_val_error": stats.max_val_error,
            "quantile_used": stats.quantile_used,
            "holdout_exceedances": stats.holdout_exceedances,
        },
    }
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_threshold(path) -> Threshold:
    path = Path(path)
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise MalformedHeader(f"{path}: not a threshold file: {exc}") from exc
    try:
        stats = doc["calibration_stats"]
        return Threshold(
            alpha=float(doc["alpha"]),
            method=str(doc["method"]),
            calibration_stats=None
            if stats is None
            else CalibrationStats(
                max_val_error=float(stats["max_val_error"]),
                quantile_used=float(stats["quantile_used"]),
                holdout_exceedances=None
                if stats["holdout_exceedances"] is None
                else int(stats["holdout_exceedances"]),
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedHeader(f"{path}: not a threshold file: {exc}") from exc


def format_summary(events: list[DetectionEvent]) -> str:
    """Human-readable event listing, one line per event."""
    if not events:
        return "no events detected\n"
    lines = []
    for e in events:
        minutes = (e.end_ts - e.start_ts) / 60.0
        score = "gap" if math.isinf(e.peak_score) else f"score {e.peak_score:.4g}"
        lines.append(
            f"{_iso(e.peak_ts)}  {e.method:3s} {e.class_hint:15s} "
            f"{minutes:6.1f} min  {score}"
        )
    return "\n".join(lines) + "\n"
