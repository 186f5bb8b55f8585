"""Composable streaming anomaly detection over evolving reference groups."""

from .detector import (
    DETECTOR_GRID,
    Detector,
    DetectorConfig,
    ScoreRecord,
    StreamPoint,
    build_detector,
    named_config,
)
from .errors import ConfigError, DataError, DegenerateGroupError

__version__ = "0.1.0"

__all__ = [
    "DETECTOR_GRID",
    "Detector",
    "DetectorConfig",
    "ScoreRecord",
    "StreamPoint",
    "build_detector",
    "named_config",
    "ConfigError",
    "DataError",
    "DegenerateGroupError",
    "__version__",
]
