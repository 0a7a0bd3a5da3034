"""Rule-based swarm detection on brood temperature.

A colony holds roughly 34.5 °C in the brood nest; swarming shows up as a
short temperature spike. This detector reports every maximal run of
minutes strictly above base + band whose length falls inside a duration
band, with the peak at the run's hottest minute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BROOD_TEMP_C, SensorTrace, sample_period, _contiguous_runs
from .detector import DetectionEvent
from .errors import UnsupportedSampling


@dataclass(frozen=True)
class RbaConfig:
    base_temp: float = BROOD_TEMP_C
    band: float = 1.0
    min_duration: int = 2  # minutes, inclusive
    max_duration: int = 20  # minutes, inclusive

    def __post_init__(self) -> None:
        if not self.band > 0:
            raise ValueError("band must be positive")
        if not 0 < self.min_duration <= self.max_duration:
            raise ValueError("need 0 < min_duration <= max_duration")


def rba_detect(
    trace: SensorTrace,
    sensor: str,
    config: RbaConfig = RbaConfig(),
) -> list[DetectionEvent]:
    """Events for every excursion of 2..20 consecutive minutes above band.

    The trace must carry one reading per minute. A reading at exactly
    base + band does not count as above; missing readings and timestamp
    jumps split runs. The peak is the earliest maximum of the run.
    """
    period = sample_period(trace)
    if len(trace) > 1 and period != 60:
        raise UnsupportedSampling(
            f"rule-based detection needs one reading per minute, trace has {period}s steps"
        )
    col = trace.sensor(sensor)
    above = np.isfinite(col) & (col > config.base_temp + config.band)

    events = []
    for a, b in _contiguous_runs(trace, above):
        minutes = b - a
        if not config.min_duration <= minutes <= config.max_duration:
            continue
        peak = a + int(np.argmax(col[a:b]))  # argmax: earliest max wins
        events.append(
            DetectionEvent(
                start_ts=int(trace.timestamps[a]),
                end_ts=int(trace.timestamps[b - 1]) + 60,
                peak_ts=int(trace.timestamps[peak]),
                peak_score=float(col[peak]),
                method="RBA",
                class_hint="swarm-like",
            )
        )
    return events
