"""Pairwise Pearson correlation between sensors over selected days."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..data import SensorTrace
from ..errors import EmptyDataset

@dataclass
class CorrelationMatrix:
    """Symmetric sensor-by-sensor Pearson matrix; NaN marks undefined
    entries (fewer than two overlapping readings, or a constant series)."""

    sensors: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        k = len(self.sensors)
        if self.values.shape != (k, k):
            raise ValueError(f"matrix shape {self.values.shape} for {k} sensors")

    def r(self, a: str, b: str) -> float:
        return float(self.values[self.sensors.index(a), self.sensors.index(b)])


def pearson_matrix(trace: SensorTrace, sensors: list[str], days) -> CorrelationMatrix:
    """Pearson r for every sensor pair, using only timestamps in `days`
    where both readings are present. Constant overlaps stay undefined
    rather than being forced to zero. Days that hold no reading of any
    of the sensors raise `EmptyDataset`.
    """
    if len(sensors) < 2:
        raise ValueError("need at least two sensors to correlate")
    cols = [trace.sensor(s) for s in sensors]  # raises UnknownSensor
    day_mask = trace.day_mask(days)
    if not any((day_mask & np.isfinite(c)).any() for c in cols):
        raise EmptyDataset(f"the selected days hold no reading of the {len(sensors)} sensors")

    k = len(sensors)
    values = np.full((k, k), np.nan)
    for i in range(k):
        a_full = cols[i]
        for j in range(i, k):
            both = day_mask & np.isfinite(a_full) & np.isfinite(cols[j])
            if both.sum() < 2:
                continue
            a, b = a_full[both], cols[j][both]
            if np.std(a) < 1e-12 or np.std(b) < 1e-12:
                continue
            if i == j:
                values[i, i] = 1.0
                continue
            r = float(np.corrcoef(a, b)[0, 1])
            values[i, j] = values[j, i] = min(1.0, max(-1.0, r))
    return CorrelationMatrix(sensors=list(sensors), values=values)


def write_correlation(path, matrix: CorrelationMatrix) -> None:
    """Delimited matrix with sensor-name header row and column; undefined
    entries are written as empty cells."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("sensor," + ",".join(matrix.sensors) + "\n")
        for i, name in enumerate(matrix.sensors):
            cells = [
                "" if np.isnan(v) else repr(float(v)) for v in matrix.values[i]
            ]
            fh.write(name + "," + ",".join(cells) + "\n")
