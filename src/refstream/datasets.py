"""Corpus loading: CSV streams, inline or sidecar ground truth.

Input files are header-bearing CSVs with columns (timestamp, value) or
(timestamp, value, is_anomaly). Timestamps are either integers or
ISO-8601 datetimes; both are mapped to the ordinal index 1..T. Sidecar
labels are a single JSON document mapping dataset names to lists of
anomaly timestamps.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .detector import StreamPoint, probation_length
from .errors import DataError
from .evaluation import make_windows
from .representation import FeatureReplay, feature_tape

MIN_LENGTH = 20


@dataclass
class DatasetBundle:
    """One loaded time series with ground truth and derived windows."""

    name: str
    values: np.ndarray
    raw_timestamps: list[str]
    anomalies: set[int]  # ordinal indices, 1-based
    windows: list[tuple[int, int]] = field(default_factory=list)
    probationary_fraction: float = 0.15
    # representation key -> feature tape, filled by ``replay``
    _tapes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_points(self) -> int:
        return len(self.values)

    @property
    def probation_len(self) -> int:
        return probation_length(self.probationary_fraction, self.n_points)

    def points(self) -> list[StreamPoint]:
        return [StreamPoint(i + 1, float(v)) for i, v in enumerate(self.values)]

    def replay(self, representation) -> FeatureReplay:
        """A replay of ``representation``'s features over this series.

        The first call for a representation ``key`` computes its tape by
        pushing every value through ``representation``, which must be
        fresh; later calls with the same key replay that tape and leave
        ``representation`` unused.
        """
        values = memoryview(self.values)  # Python floats, with no copy for each replay
        tape = self._tapes.get(representation.key)
        if tape is None:
            tape = self._tapes[representation.key] = feature_tape(representation, values)
        return FeatureReplay(values, tape)


@contextmanager
def open_input(path):
    """Open an input file as UTF-8 text, with line endings kept as written.

    A directory, or bytes that are not UTF-8, is a DataError naming the
    path; a missing file stays a FileNotFoundError.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except IsADirectoryError:
        raise DataError(f"cannot read {path}: it is a directory") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def read_json(path):
    """The JSON document in an input file; text that is not JSON is a DataError naming it."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: not JSON ({exc})") from None


def _parse_timestamp(path, lineno: int, token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(token)
    except ValueError:
        raise DataError(f"{path}:{lineno}: unparseable timestamp {token!r}") from None


def load_label_file(path) -> dict[str, list]:
    """JSON sidecar: dataset name -> list of anomaly timestamps."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise DataError(f"{path}: label file must be a JSON object")
    for name, marks in data.items():
        if not isinstance(marks, list):
            raise DataError(f"{path}: labels of {name!r} must be a list of timestamps, "
                            f"got {type(marks).__name__}")
    return data


def _labels_for(name: str, labels: dict[str, list]) -> list | None:
    stem = Path(name).stem
    for key in (name, Path(name).name, stem):
        if key in labels:
            return labels[key]
    for key, value in labels.items():
        if Path(key).stem == stem:
            return value
    return None


def load_csv(
    path,
    labels: dict[str, list] | None = None,
    probationary_fraction: float = 0.15,
) -> DatasetBundle:
    """Load and validate one dataset file."""
    path = Path(path)
    values: list[float] = []
    raw_ts: list[str] = []
    anomalies: set[int] = set()
    prev = None
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        has_label_col = len(header) >= 3
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise DataError(f"{path}:{lineno}: expected at least 2 columns")
            ts = _parse_timestamp(path, lineno, row[0])
            try:
                if prev is not None and ts <= prev:
                    raise DataError(f"{path}:{lineno}: non-monotone timestamp {row[0]!r}")
            except TypeError:  # an integer and a datetime, or a naive and an aware datetime
                raise DataError(f"{path}:{lineno}: timestamp {row[0]!r} mixes formats with "
                                f"{raw_ts[-1]!r}") from None
            prev = ts
            try:
                value = float(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: unparseable value {row[1]!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value {row[1]!r}")
            raw_ts.append(row[0].strip())
            values.append(value)
            if has_label_col and len(row) >= 3 and row[2].strip():
                flag = row[2].strip()
                if flag not in ("0", "1"):
                    raise DataError(f"{path}:{lineno}: is_anomaly must be 0 or 1, got {flag!r}")
                if flag == "1":
                    anomalies.add(len(values))
    if len(values) < MIN_LENGTH:
        raise DataError(f"{path}: need at least {MIN_LENGTH} rows, found {len(values)}")

    if labels is not None:
        marks = _labels_for(str(path), labels)
        if marks is not None:
            index = {ts: i + 1 for i, ts in enumerate(raw_ts)}
            for mark in marks:
                ordinal = _resolve_label(path, str(mark), index)
                anomalies.add(ordinal)

    bundle = DatasetBundle(
        name=path.stem,
        values=np.asarray(values, dtype=float),
        raw_timestamps=raw_ts,
        anomalies=anomalies,
        probationary_fraction=probationary_fraction,
    )
    bundle.windows = make_windows(bundle.n_points, sorted(anomalies))
    return bundle


def _resolve_label(path, mark: str, index: dict[str, int]) -> int:
    mark = mark.strip()
    if mark in index:
        return index[mark]
    # NAB labels carry fractional seconds that the data files omit
    trimmed = mark.split(".")[0]
    if trimmed in index:
        return index[trimmed]
    raise DataError(f"{path}: label timestamp {mark!r} not present in the series")


def write_csv(path, values, anomalies=None, timestamps=None):
    """Write a dataset in the supported input format (used by experiments)."""
    path = Path(path)
    marks = set(anomalies or ())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if anomalies is None:
            writer.writerow(["timestamp", "value"])
            for i, v in enumerate(values, start=1):
                writer.writerow([timestamps[i - 1] if timestamps else i, repr(float(v))])
        else:
            writer.writerow(["timestamp", "value", "is_anomaly"])
            for i, v in enumerate(values, start=1):
                ts = timestamps[i - 1] if timestamps else i
                writer.writerow([ts, repr(float(v)), 1 if i in marks else 0])
    return path
