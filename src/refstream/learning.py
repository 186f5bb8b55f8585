"""Reference-group maintenance policies.

Every strategy decides from ``(t, score)`` whether the current point joins
the group and which member it displaces, and reports both as arrivals:
``update`` returns ``(t or None, evicted arrival or None)``. Strategies
keep no features; the measure's store is the group's only copy. The
``feature`` argument of ``update`` is unused and stays so that callers and
wrappers of ``update`` keep one positional shape. The reservoir strategies
own their RNG; an update is the only operation that consumes randomness.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

_NO_ARRIVAL = np.iinfo(np.int64).max


def ares_weight(score: float, decay: float) -> float:
    """Admission weight exp(-decay * score); high scores get low weight."""
    if score < 0:
        raise ValueError(f"anomaly score must be >= 0, got {score}")
    return math.exp(-decay * score)


class FixedReference:
    """Static group: admits every point of probation, frozen afterwards."""

    def __init__(self, probation_len: int):
        self.probation_len = probation_len
        self.size = 0

    def __len__(self):
        return self.size

    def update(self, feature, t: int, score: float = 0.0):
        if t > self.probation_len:
            return None, None
        self.size += 1
        return t, None


class LandmarkWindow:
    """Keeps everything observed after the landmark; never evicts."""

    def __init__(self, landmark: int = 0):
        self.landmark = landmark
        self.size = 0

    def __len__(self):
        return self.size

    def update(self, feature, t: int, score: float = 0.0):
        if t <= self.landmark:
            return None, None
        self.size += 1
        return t, None


class SlidingWindow:
    """Keeps exactly the ``window`` most recent arrivals."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.arrivals: deque[int] = deque()

    def __len__(self):
        return len(self.arrivals)

    def update(self, feature, t: int, score: float = 0.0):
        evicted = self.arrivals.popleft() if len(self.arrivals) == self.window else None
        self.arrivals.append(t)
        return t, evicted


class UniformReservoir:
    """Classic single-pass reservoir sampling.

    Fills the reservoir with the first ``window`` arrivals, then replaces a
    uniformly chosen member with probability window / arrivals_seen.
    """

    def __init__(self, window: int, rng: np.random.Generator):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.rng = rng
        self.arrivals: list[int] = []
        self.seen = 0

    def __len__(self):
        return len(self.arrivals)

    def update(self, feature, t: int, score: float = 0.0):
        self.seen += 1
        if len(self.arrivals) < self.window:
            self.arrivals.append(t)
            return t, None
        if self.rng.random() < self.window / self.seen:
            idx = int(self.rng.integers(self.window))
            evicted = self.arrivals[idx]
            self.arrivals[idx] = t
            return t, evicted
        return None, None


class AnomalyAwareReservoir:
    """Reservoir sampling biased against anomalous samples.

    Each arrival draws priority u ** (1 / exp(-decay * score)) with
    u ~ Uniform(0, 1), so high anomaly scores push priorities toward zero.
    Once the reservoir is full, an arrival replaces the oldest member whose
    priority is strictly below its own; with no such candidate it is
    discarded. Ties keep the incumbent. The first ``size`` entries of
    ``_priorities`` and ``_arrivals`` hold the members.
    """

    def __init__(self, window: int, decay: float, rng: np.random.Generator):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if not 0 < decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.window = window
        self.decay = decay
        self.rng = rng
        self.size = 0
        self._priorities = np.empty(window, dtype=float)
        self._arrivals = np.full(window, _NO_ARRIVAL, dtype=np.int64)

    def __len__(self):
        return self.size

    def _draw_priority(self, score: float) -> float:
        u = self.rng.random()
        while u == 0.0:  # keep u in the open interval (0, 1)
            u = self.rng.random()
        return u ** (1.0 / ares_weight(score, self.decay))

    def update(self, feature, t: int, score: float = 0.0):
        p_t = self._draw_priority(score)
        if self.size < self.window:
            self._priorities[self.size] = p_t
            self._arrivals[self.size] = t
            self.size += 1
            return t, None
        candidates = self._priorities < p_t
        if not candidates.any():
            return None, None
        idx = int(np.where(candidates, self._arrivals, _NO_ARRIVAL).argmin())
        evicted = int(self._arrivals[idx])
        self._priorities[idx] = p_t
        self._arrivals[idx] = t
        return t, evicted
