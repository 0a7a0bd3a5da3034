"""Cross-sensor analysis and synthetic trace generation."""

from __future__ import annotations

from .correlation import CorrelationMatrix, pearson_matrix, write_correlation
from .synthetic import (
    ANOMALY_CLASSES,
    LAYOUTS,
    SPAN_MINUTES,
    SynthConfig,
    ambient_curve,
    core_curve,
    generate,
)

__all__ = [
    "ANOMALY_CLASSES",
    "CorrelationMatrix",
    "LAYOUTS",
    "SPAN_MINUTES",
    "SynthConfig",
    "ambient_curve",
    "core_curve",
    "generate",
    "pearson_matrix",
    "write_correlation",
]
