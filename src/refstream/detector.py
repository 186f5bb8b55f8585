"""Detector pipeline: representation -> strategy -> measure -> scorer.

A detector consumes stream points one at a time. During the probationary
prefix it only learns; at the probation boundary it seeds the scorer with
leave-one-out nonconformity scores of the reference group; afterwards each
point is scored first and learned second, so the anomaly-aware reservoir
sees the score emitted for the same timestamp. The strategy reports the
arrivals it admits and evicts, and the detector hands its own feature to
the measure's ``insert``. After every group update the stored reference
scores are refreshed against the new group, either incrementally or by
full recomputation; a step that admits and evicts nothing keeps the
stored scores, which are then still exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, DegenerateGroupError
from .learning import (
    AnomalyAwareReservoir,
    FixedReference,
    LandmarkWindow,
    SlidingWindow,
    UniformReservoir,
)
from .nonconformity import ClusterModel, FrequencyMeasure, NeighborIndex
from .representation import SAX_ALPHABET, MeanStdFeatures, SaxFeatures
from .scoring import AnomalyScorer

STRATEGIES = ("fr", "lw", "sw", "ures", "ares")
MEASURES = ("nn", "den", "cc", "freq")

DETECTOR_GRID = tuple(f"{ls}-{ncm}" for ls in STRATEGIES for ncm in MEASURES)


class StreamPoint(NamedTuple):
    """One raw observation: a strictly increasing time index and a value."""

    timestamp: int
    value: float


class ScoreRecord(NamedTuple):
    """Per-timestamp scoring chain emitted after the probationary period."""

    timestamp: int
    nonconformity: float
    p_value: float
    ks_significance: float
    final_score: float
    flagged: bool


@dataclass(frozen=True)
class DetectorConfig:
    """Full parameterisation of one detector.

    ``measure`` also picks the representation: SAX words for ``freq``,
    (mean, std) vectors otherwise. An unset ``rep_window`` defaults to 16
    values for SAX words and 10 for (mean, std); unset ``window``,
    ``ks_window`` and ``probation_len`` default to the probationary length
    derived from the stream size.
    """

    rep_window: int | None = None  # N for (mean, std), n for SAX
    sax_segments: int = 4
    sax_alphabet: int = 5
    strategy: str = "sw"
    window: int | None = None  # w
    landmark: int = 0
    decay: float = 0.96
    measure: str = "nn"
    k: int = 10
    n_clusters: int = 5
    recompute_factor: float = 0.25
    ks_window: int | None = None
    test_period: int = 1
    threshold: float = 0.9
    probationary_fraction: float = 0.15
    probation_len: int | None = None
    seed: int = 0
    refresh: str = "incremental"

    def _rep_window(self) -> int:
        """``rep_window``, or the representation's default when it is unset."""
        if self.rep_window is not None:
            return self.rep_window
        return 16 if self.measure == "freq" else 10

    def validate(self):
        """The one check of detector parameters, which every part a Detector builds assumes."""
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.measure not in MEASURES:
            raise ConfigError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        rep_window = self._rep_window()
        if rep_window < 1:
            raise ConfigError(f"rep_window must be >= 1, got {rep_window}")
        if self.measure == "freq":
            if not 2 <= self.sax_alphabet <= len(SAX_ALPHABET):
                raise ConfigError(
                    f"sax_alphabet must be in [2, {len(SAX_ALPHABET)}], got {self.sax_alphabet}"
                )
            if self.sax_segments < 1 or rep_window % self.sax_segments:
                raise ConfigError(
                    f"rep_window {rep_window} must be divisible by sax_segments {self.sax_segments}"
                )
        # resolving sets window and ks_window to p, so p comes first
        if self.probation_len is not None and self.probation_len < 1:
            raise ConfigError(f"probation_len must be >= 1, got {self.probation_len}")
        if self.window is not None and self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.landmark < 0:
            raise ConfigError(f"landmark must be >= 0, got {self.landmark}")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.n_clusters < 1:
            raise ConfigError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.recompute_factor <= 0:
            raise ConfigError(f"recompute_factor must be > 0, got {self.recompute_factor}")
        if self.ks_window is not None and self.ks_window < 1:
            raise ConfigError(f"ks_window must be >= 1, got {self.ks_window}")
        if self.test_period < 1:
            raise ConfigError(f"test_period must be >= 1, got {self.test_period}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        if not 0.0 < self.probationary_fraction < 1.0:
            raise ConfigError(
                f"probationary_fraction must be in (0, 1), got {self.probationary_fraction}"
            )
        # lw admits only points after the landmark, so a landmark at or past
        # the probation boundary leaves no group to seed the scorer with
        p = self.probation_len
        if self.strategy == "lw" and p is not None and self.landmark >= p:
            raise ConfigError(
                f"landmark {self.landmark} must be below probation_len {p}"
            )
        if self.refresh not in ("incremental", "exact"):
            raise ConfigError(f"refresh must be 'incremental' or 'exact', got {self.refresh!r}")

    def resolve(self, n_points: int | None = None) -> "DetectorConfig":
        """Fill in the unset defaults (representation window, p, w = p, K-S window = p)."""
        p = self.probation_len
        if p is None:
            if n_points is None:
                raise ConfigError("probation_len unset and stream length unknown")
            p = probation_length(self.probationary_fraction, n_points)
        window = self.window if self.window is not None else p
        ks_window = self.ks_window if self.ks_window is not None else p
        return replace(self, rep_window=self._rep_window(), probation_len=p, window=window,
                       ks_window=ks_window)


def probation_length(fraction: float, n_points: int) -> int:
    """Points in the probationary prefix of a stream of ``n_points``: at least one."""
    points = fraction * n_points  # not finite for a fraction that validate rejects
    return max(1, math.floor(points)) if math.isfinite(points) else 1


def named_config(name: str, **overrides) -> DetectorConfig:
    """Config for one of the 20 grid detectors, e.g. 'ares-freq'; ``overrides`` set the rest."""
    try:
        strategy, measure = name.lower().split("-")
    except ValueError:
        raise ConfigError(f"detector name must look like 'sw-nn', got {name!r}") from None
    if strategy not in STRATEGIES or measure not in MEASURES:
        raise ConfigError(f"unknown detector {name!r}; choose from {DETECTOR_GRID}")
    return DetectorConfig(strategy=strategy, measure=measure, **overrides)


class Detector:
    """Single-threaded stateful detector over one stream."""

    def __init__(self, config: DetectorConfig):
        config.validate()
        if None in (config.rep_window, config.probation_len, config.window, config.ks_window):
            raise ConfigError("config not resolved; call config.resolve(n_points) first")
        self.config = config
        self.probation_len = config.probation_len
        ss = np.random.SeedSequence(config.seed)
        strategy_rng, measure_rng = (np.random.default_rng(c) for c in ss.spawn(2))

        if config.measure == "freq":
            self.representation = SaxFeatures(
                config.rep_window, config.sax_segments, config.sax_alphabet
            )
        else:
            self.representation = MeanStdFeatures(config.rep_window)

        if config.strategy == "fr":
            self.strategy = FixedReference(config.probation_len)
        elif config.strategy == "lw":
            self.strategy = LandmarkWindow(config.landmark)
        elif config.strategy == "sw":
            self.strategy = SlidingWindow(config.window)
        elif config.strategy == "ures":
            self.strategy = UniformReservoir(config.window, strategy_rng)
        else:
            self.strategy = AnomalyAwareReservoir(config.window, config.decay, strategy_rng)

        if config.measure == "nn":
            self.measure = NeighborIndex(config.k, mode="distance")
        elif config.measure == "den":
            self.measure = NeighborIndex(config.k, mode="density")
        elif config.measure == "cc":
            self.measure = ClusterModel(config.n_clusters, config.recompute_factor, measure_rng)
        else:
            self.measure = FrequencyMeasure()

        self.scorer = AnomalyScorer(config.ks_window, config.test_period)
        self._last_t: int | None = None
        self._probation_features = 0  # features the strategy saw during probation

    @property
    def group_size(self) -> int:
        return len(self.strategy)

    def _apply_update(self, feature, added, removed):
        if removed is not None:
            self.measure.remove(removed)
        if added is not None:
            self.measure.insert(added, feature)

    def _reference_scores(self) -> np.ndarray:
        if self.config.refresh == "exact":
            return self.measure.recompute_member_scores()
        return self.measure.member_scores()

    def _bootstrap(self):
        scores = self._reference_scores()
        if scores.size < 2 or not np.isfinite(scores).all():
            c, n, seen = self.config, self.group_size, self._probation_features
            if seen < 2:
                why = (f"only {seen} features reached it in probation_len={c.probation_len} "
                       f"points, as the first takes rep_window={c.rep_window} values; "
                       "lengthen the probation or shrink rep_window")
            elif c.measure in ("nn", "den") and n <= c.k:
                why = (f"{c.measure} needs more than k={c.k} members; lengthen the probation "
                       "or shrink k")
            else:
                why = f"the {c.strategy} strategy kept {n} of {seen} features; the scorer needs 2"
            raise DegenerateGroupError(f"reference group of size {n} cannot seed the scorer: {why}")
        self.scorer.bootstrap(scores)

    def process(self, point: StreamPoint) -> ScoreRecord | None:
        t, value = int(point[0]), float(point[1])
        if not math.isfinite(value):
            raise DataError(f"non-finite value at t={t}")
        if self._last_t is not None and t <= self._last_t:
            raise DataError(f"non-monotone timestamp {t} after {self._last_t}")
        self._last_t = t

        feature = self.representation.push(value)
        if feature is None:
            return None

        if t <= self.probation_len:
            self._probation_features += 1
            added, removed = self.strategy.update(feature, t, 0.0)
            self._apply_update(feature, added, removed)
            if t == self.probation_len:
                self._bootstrap()
            return None

        if not self.scorer.bootstrapped:
            # representation warmed up after the boundary; seed late
            self._bootstrap()

        a_t = self.measure.score(feature)
        pv, significance, final = self.scorer.step(a_t)
        record = ScoreRecord(t, a_t, pv, significance, final, final >= self.config.threshold)

        added, removed = self.strategy.update(feature, t, final)
        if added is not None or removed is not None:
            self._apply_update(feature, added, removed)
            self.scorer.set_reference_scores(self._reference_scores())
        return record

    def run(self, points: Iterable[StreamPoint]) -> list[ScoreRecord]:
        """Fold process() over a stream, annotating errors with the timestamp."""
        records = []
        for point in points:
            try:
                record = self.process(point)
            except (ConfigError, DataError, DegenerateGroupError) as exc:
                raise type(exc)(f"at t={point[0]}: {exc}") from exc
            if record is not None:
                records.append(record)
        return records


def build_detector(config: DetectorConfig, n_points: int | None = None) -> Detector:
    """Resolve size-dependent defaults and build the detector, which validates the result."""
    return Detector(config.resolve(n_points))
