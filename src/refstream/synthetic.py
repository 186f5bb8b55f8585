"""Synthetic labelled streams for experiments, benchmarks and the acceptance suite."""

from __future__ import annotations

import numpy as np


def benchmark_stream(n: int, seed: int, kind: str = "drift"):
    """A labelled stream in the style of the public streaming benchmarks.

    Returns (values, anomaly_timestamps). Kinds:
      drift      slow level drift with spike anomalies
      regime     abrupt regime changes; the change points are the anomalies
      periodic   seasonal signal with amplitude-burst anomalies
      noisy      heavy noise with clustered level anomalies
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    anomalies: set[int] = set()
    p = int(0.15 * n)
    span = max(10, n // 70)
    # spikes repeat with one fixed per-dataset signature, spaced so earlier
    # occurrences are still inside window-sized reference groups
    spikes = max(3, n // 400)

    def mark(pos: int):
        anomalies.update(range(pos + 1, min(n, pos + span) + 1))

    if kind == "drift":
        base = 0.006 * t + 0.6 * np.sin(2 * np.pi * t / 170.0)
        values = base + rng.normal(0.0, 0.35, size=n)
        magnitude = rng.choice([-1.0, 1.0]) * rng.uniform(4.5, 6.0)
        for pos in _anomaly_positions(rng, n, p, count=spikes):
            values[pos : pos + span] += magnitude
            mark(pos)
    elif kind == "regime":
        values = rng.normal(0.0, 0.4, size=n)
        level = 0.0
        for pos in _anomaly_positions(rng, n, p, count=max(2, n // 1000)):
            level += rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 5.0)
            values[pos:] = rng.normal(level, 0.4, size=n - pos)
            mark(pos)
    elif kind == "periodic":
        # seasonal level with slowly breathing variance
        sigma = 0.3 * (1.0 + 0.8 * np.sin(2 * np.pi * t / 410.0))
        values = 2.0 * np.sin(2 * np.pi * t / 80.0) + rng.normal(0.0, 1.0, size=n) * sigma
        magnitude = rng.uniform(2.5, 3.5)
        for pos in _anomaly_positions(rng, n, p, count=spikes):
            values[pos : pos + span] *= magnitude
            mark(pos)
    elif kind == "noisy":
        # scattered unlabeled contamination sits in every evolving reference
        # group; neighbour-based measures lose contrast on it
        values = rng.normal(0.0, 1.0, size=n)
        scatter = rng.choice(n, size=max(10, n // 30), replace=False)
        values[scatter] += rng.choice([-1, 1], size=len(scatter)) * rng.uniform(
            2.5, 4.5, size=len(scatter)
        )
        magnitude = rng.uniform(5.5, 7.0)
        for pos in _anomaly_positions(rng, n, p, count=spikes):
            values[pos : pos + span] += magnitude
            mark(pos)
    else:
        raise ValueError(f"unknown stream kind {kind!r}")
    return values, sorted(anomalies)


def _anomaly_positions(rng, n: int, probation: int, count: int) -> list[int]:
    """Anomaly onsets in the scored region, past the early settling stretch."""
    lo = probation + max(20, n // 5)
    hi = n - max(20, n // 20)
    spacing = max(1, (hi - lo) // max(1, count))
    return sorted(
        int(lo + i * spacing + rng.integers(0, max(1, spacing // 2))) for i in range(count)
    )
