"""Metrics over detector output and dataset descriptors.

ROC-AUC is computed rank-based with tie correction (equal scores count
half). NAB-style scoring rewards the earliest detection inside each
anomaly window through a scaled sigmoid, penalises detections outside
windows with a positional decay saturating at the false-positive weight,
and charges missed windows in full; raw scores are normalised so a perfect
detector maps to 1 and the null detector to 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NabProfile:
    tp_weight: float
    fp_weight: float
    fn_weight: float


NAB_PROFILES = {
    "standard": NabProfile(1.0, 0.11, 1.0),
    "reward_low_fp": NabProfile(1.0, 0.22, 1.0),
    "reward_low_fn": NabProfile(1.0, 0.11, 2.0),
}


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of x, tied values sharing the mean of their ranks.

    The ``average`` method of ``scipy.stats.rankdata``: a tie group whose
    ordinal ranks start at r and has c members ranks r + (c - 1) / 2, which
    is exact in floating point. Any NaN makes every rank NaN.
    """
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x)
    y = x[order]
    first = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])  # start of each tie group
    counts = np.diff(np.append(first, y.size))
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks


def roc_auc(anomaly_scores, nominal_scores) -> float | None:
    """Probability that a random (anomaly, nominal) pair is ordered correctly.

    Returns None when either class is empty (metric undefined, not zero).
    """
    a = np.asarray(anomaly_scores, dtype=float)
    n = np.asarray(nominal_scores, dtype=float)
    if a.size == 0 or n.size == 0:
        return None
    ranks = _average_ranks(np.concatenate([a, n]))
    rank_sum = ranks[: a.size].sum()
    return float((rank_sum - a.size * (a.size + 1) / 2.0) / (a.size * n.size))


def make_windows(n_points: int, anomalies) -> list[tuple[int, int]]:
    """Anomaly windows centered on the true anomalies.

    Window width is 10% of the dataset length divided by the number of
    anomalies (at least 1); windows are clipped to [1, n_points] and
    overlapping windows are merged.
    """
    marks = sorted(set(int(a) for a in anomalies))
    if not marks:
        return []
    width = max(1, math.floor(0.1 * n_points / len(marks)))
    half = width / 2.0
    raw = [
        (max(1, math.ceil(t - half)), min(n_points, math.floor(t + half)))
        for t in marks
    ]
    merged = [raw[0]]
    for lo, hi in raw[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def scaled_sigmoid(y: float) -> float:
    """Positional weight: 1 at y=-1 (window start), 0 at y=0, -1 at y=1."""
    return (2.0 / (1.0 + math.exp(5.0 * y)) - 1.0) / (2.0 / (1.0 + math.exp(-5.0)) - 1.0)


def nab_score(
    flags, windows, n_points: int, profile: NabProfile = NAB_PROFILES["standard"]
) -> float:
    """Raw NAB score of a sorted list of flagged timestamps.

    Only the earliest flag inside a window counts (a true positive weighted
    by how early it lands); later flags in the same window are ignored.
    Flags outside every window are false positives whose penalty grows with
    the distance past the previous window's right edge, saturating at the
    full fp weight one window-width out; flags before the first window
    measure from the dataset start. Unflagged windows are false negatives.
    """
    score = 0.0
    claimed = [False] * len(windows)
    starts = [lo for lo, _ in windows]
    for t in sorted(flags):
        idx = bisect.bisect_right(starts, t) - 1
        if idx >= 0 and windows[idx][0] <= t <= windows[idx][1]:
            if not claimed[idx]:
                claimed[idx] = True
                lo, hi = windows[idx]
                y = -1.0 if hi == lo else (t - hi) / (hi - lo)
                score += profile.tp_weight * scaled_sigmoid(y)
            continue
        if idx >= 0:
            ref_hi = windows[idx][1]
            width = max(1, windows[idx][1] - windows[idx][0])
        elif windows:
            ref_hi = 1
            width = max(1, windows[0][1] - windows[0][0])
        else:
            score -= profile.fp_weight
            continue
        y = min((t - ref_hi) / width, 1.0)  # sigmoid(1) == -1: full penalty
        score += profile.fp_weight * scaled_sigmoid(y)
    score -= profile.fn_weight * (len(windows) - sum(claimed))
    return score


def normalize_nab(
    raw: float, n_windows: int, profile: NabProfile = NAB_PROFILES["standard"]
) -> float | None:
    """Scale a raw score so the perfect detector is 1 and the null detector 0."""
    if n_windows < 1:
        return None
    perfect = n_windows * profile.tp_weight
    null = -n_windows * profile.fn_weight
    return (raw - null) / (perfect - null)


def relative_performance(method_scores, other_scores) -> float:
    """Range-normalised mean score difference of one method versus the rest."""
    mine = np.asarray(method_scores, dtype=float)
    others = np.asarray(other_scores, dtype=float)
    if mine.size == 0 or others.size == 0:
        raise ValueError("both score lists must be nonempty")
    pool = np.concatenate([mine, others])
    spread = pool.max() - pool.min()
    if spread == 0.0:
        return 0.0
    diffs = np.array([(s - others).sum() for s in mine])
    return float((diffs / spread).mean())


def delta_performance(rels_first, rels_second) -> float | None:
    """Mean relative performance in the first group minus the second."""
    a = np.asarray(rels_first, dtype=float)
    b = np.asarray(rels_second, dtype=float)
    if a.size == 0 or b.size == 0:
        return None
    return float(a.mean() - b.mean())


def clusteredness(normal_variance: float, anomaly_variance: float) -> float | None:
    """log(sigma_n^2 / sigma_a^2); positive means clustered anomalies."""
    if normal_variance <= 0 or anomaly_variance <= 0:
        return None
    return math.log(normal_variance / anomaly_variance)


def anomaly_clusteredness(values, anomalies) -> tuple[float | None, str | None]:
    """Clusteredness nc of a series' anomalies and the anomaly type it implies.

    ``anomalies`` holds 1-based ordinals into ``values``. nc compares the
    sample variance of the normal values with that of the anomalous ones;
    it needs two of each and positive variances, else nc and the type are
    None. Positive nc means clustered anomalies, otherwise scattered.
    """
    nc = None
    if len(anomalies) >= 2 and len(values) - len(anomalies) >= 2:
        marks = np.array(sorted(anomalies)) - 1
        nc = clusteredness(float(np.var(np.delete(values, marks), ddof=1)),
                           float(np.var(values[marks], ddof=1)))
    return nc, None if nc is None else ("clustered" if nc > 0 else "scattered")


def difficulty(anomaly_scores_per_run) -> float | None:
    """Mean anomaly-timestamp score pooled across detector runs, in run order.

    Low means the anomalies stand out, i.e. the dataset is easy; the report
    layer presents 1 - mean as a readable difficulty. None with no scores.
    """
    pooled = [s for scores in anomaly_scores_per_run for s in scores]
    return float(np.mean(pooled)) if pooled else None


def diversity(metric_per_run) -> float | None:
    """Population standard deviation of the runs' metric values; None below two values."""
    values = [v for v in metric_per_run if v is not None]
    return float(np.std(values)) if len(values) >= 2 else None
