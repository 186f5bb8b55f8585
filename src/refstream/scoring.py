"""Conformal anomaly scoring.

Nonconformity scores are converted to conformal p-values against the
reference group's scores, the recent p-values are tested for uniformity
with a sliding one-sample Kolmogorov-Smirnov test, and the resulting
significance levels are unified into final scores in [0, 1] via
log-inversion, running-moment normalisation and Gaussian scaling.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateGroupError

SIGNIFICANCE_FLOOR = 1e-300


def loo_p_values(reference_scores) -> np.ndarray:
    """Leave-one-out p-value of each reference score against the others."""
    ref = np.asarray(reference_scores, dtype=float)
    m = ref.size
    if m < 2:
        raise DegenerateGroupError(f"need at least 2 reference scores, have {m}")
    srt = np.sort(ref)
    at_least = m - np.searchsorted(srt, ref, side="left")  # includes self
    return (at_least - 1) / (m - 1)


def _ecdf_steps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF just after (i/n) and just before ((i-1)/n) each of n sorted points."""
    i = np.arange(1, n + 1)
    return i / n, (i - 1) / n


def _sup_distance(p_sorted: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> float:
    return float(max(np.maximum.reduce(upper - p_sorted), np.maximum.reduce(p_sorted - lower), 0.0))


def ks_significance(d: float, n: int) -> float:
    """Two-sided significance of a one-sample K-S statistic.

    Uses the asymptotic Kolmogorov series with the finite-sample corrected
    argument (sqrt(n) + 0.12 + 0.11/sqrt(n)) * d, summed until terms drop
    below 1e-10, clamped to [0, 1]. Arguments small enough that the
    survival value is 1 within 1e-10 short-circuit to 1.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    rn = math.sqrt(n)
    lam = (rn + 0.12 + 0.11 / rn) * d
    if lam < 0.1:
        return 1.0
    total = 0.0
    sign = 1.0
    k = 1
    while True:
        term = math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
        k += 1
    return min(1.0, max(0.0, 2.0 * total))


@dataclass
class UnifierState:
    """Running moments of regularised scores (Welford recurrence)."""

    count: int = 0
    mean: float = 0.0
    _m2: float = field(default=0.0, repr=False)

    @property
    def std(self) -> float:
        return math.sqrt(self._m2 / self.count) if self.count else 0.0

    def update(self, reg: float):
        self.count += 1
        delta = reg - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (reg - self.mean)

    def scale(self, reg: float) -> float:
        """Gaussian scaling of one regularised score against the moments."""
        std = self.std
        if std == 0.0:
            return 0.0
        return max(0.0, math.erf((reg - self.mean) / (std * math.sqrt(2.0))))


def regularize(significance: float) -> float:
    return -math.log(max(significance, SIGNIFICANCE_FLOOR))


def unify(significance: float, state: UnifierState) -> float:
    """Fold one K-S significance into the state and return the final score."""
    reg = regularize(significance)
    state.update(reg)
    return state.scale(reg)


def _finite_scores(reference_scores) -> np.ndarray:
    ref = np.asarray(reference_scores, dtype=float)
    # inf and NaN propagate through a sum, so a finite sum proves every
    # entry finite in one call; only a non-finite one (which may be an
    # overflow of finite entries) needs the elementwise test
    if not math.isfinite(np.add.reduce(ref)) and not np.isfinite(ref).all():
        raise DegenerateGroupError("reference scores are not finite")
    return ref


class AnomalyScorer:
    """Streaming scorer: p-value, sliding K-S test, unification.

    Must be bootstrapped once with the reference group's leave-one-out
    nonconformity scores; those seed both the conformal reference set and
    the p-value window. The K-S test runs every ``test_period`` steps and
    the last significance is held in between.

    The window is kept in arrival order in ``window``, and sorted twice:
    in a list, ``_sorted_list``, and in a float64 array, ``_sorted``. Each
    step updates both by one removal and one insertion instead of
    re-sorting. ``bisect`` on the list finds the two positions, since a
    search of a window of Python floats costs less than one numpy call;
    the array is there so the K-S statistic needs no sort and no
    conversion. It is the middle third of one buffer of length 3n laid out
    as ``[upper steps | window ascending | lower steps]``. For a full
    window, subtracting the buffer's last 2n entries from its first 2n
    gives ``upper - sorted`` followed by ``sorted - lower`` in one numpy
    call into a preallocated array, and ``argmax`` finds their maximum (a
    method call, which costs less than the ufunc reduction at these
    sizes). Each entry is the same single subtraction ``_sup_distance``
    makes and the maximum is exact, so the statistic is bitwise its.

    The p-value counts the reference scores at least a_t. The first step
    after the reference changes counts them in one numpy pass. A reference
    still in force at the next step is sorted once, into a list, and from
    then on the count is its size less ``bisect_left``: the same integer,
    since the reference holds no NaN, and a NaN a_t, which no score is at
    least, keeps the numpy count. ``sw`` and ``lw`` change the reference
    at every step and so always count; ``fr``, and the reservoirs between
    admissions, bisect.
    """

    def __init__(self, ks_window: int, test_period: int = 1):
        self.ks_window = ks_window
        self.test_period = test_period
        self.window: deque[float] = deque(maxlen=ks_window)
        n = ks_window
        buf = np.empty(3 * n)
        buf[:n], buf[2 * n :] = _ecdf_steps(n)
        self._sorted = buf[n : 2 * n]  # the window's values, ascending, in [:len(window)]
        self._sorted_list: list[float] = []  # the same values, ascending
        self._hi, self._lo = buf[: 2 * n], buf[n:]
        self._gaps = np.empty(2 * n)
        self.unifier = UnifierState()
        self._reference: np.ndarray | None = None
        self._ranked: list | None = None  # the reference ascending, from its second step
        self._unused = True  # no step has used the reference yet
        self._steps = 0
        self._held_significance = 1.0
        self._bootstrapped = False

    @property
    def bootstrapped(self) -> bool:
        return self._bootstrapped

    def bootstrap(self, reference_scores):
        """Seed the scorer with the first reference group's scores."""
        ref = _finite_scores(reference_scores)
        self.window.extend(loo_p_values(ref).tolist())
        self._sorted_list = sorted(self.window)
        self._sorted[: len(self.window)] = self._sorted_list
        self._set_reference(ref)
        self._bootstrapped = True

    def set_reference_scores(self, reference_scores):
        """Replace the reference set, which must be nonempty and finite.

        A NaN entry would never count as >= a_t and so bias every p-value.
        """
        ref = _finite_scores(reference_scores)
        if ref.size == 0:
            raise DegenerateGroupError("reference score set is empty")
        self._set_reference(ref)

    def _set_reference(self, ref: np.ndarray):
        self._reference = ref
        self._ranked = None
        self._unused = True

    def _slide(self, pv: float):
        """Append pv to the window, evicting the oldest value once it is full.

        ``bisect`` on the list mirror finds both positions, as
        ``searchsorted`` on the buffer would (the same comparisons of the
        same values). On a full window the entries of the buffer between
        them move one place towards the evicted one's. Equal values are
        equal bits (p-values are never -0.0 or NaN), so any sorted order of
        the same values is this one.
        """
        srt, ranked = self._sorted, self._sorted_list
        n = len(self.window)
        if n == self.ks_window:
            gap = bisect_left(ranked, self.window[0])
            pos = bisect_right(ranked, pv)
            del ranked[gap]
            if pos > gap:  # the evicted value is at most pv
                pos -= 1
                srt[gap:pos] = srt[gap + 1 : pos + 1]
            else:
                srt[pos + 1 : gap + 1] = srt[pos:gap]
        else:
            pos = bisect_right(ranked, pv)
            srt[pos + 1 : n + 1] = srt[pos:n]
        srt[pos] = pv
        ranked.insert(pos, pv)
        self.window.append(pv)

    def step(self, a_t: float) -> tuple[float, float, float]:
        """Score one nonconformity value; returns (p_value, significance, final)."""
        if not self._bootstrapped:
            raise DegenerateGroupError("scorer used before bootstrap")
        ref, ranked = self._reference, self._ranked
        if ranked is None and not self._unused:  # in force for a second step: sort it once
            ranked = self._ranked = np.sort(ref).tolist()
        self._unused = False
        if ranked is None or a_t != a_t:  # no score is at least NaN; bisect would count all
            pv = np.count_nonzero(ref >= a_t) / ref.size
        else:
            pv = (ref.size - bisect_left(ranked, a_t)) / ref.size
        self._slide(pv)
        if self._steps % self.test_period == 0:
            n = len(self.window)
            if n == self.ks_window:
                gaps = np.subtract(self._hi, self._lo, out=self._gaps)
                d = max(gaps.item(gaps.argmax()), 0.0)
            else:
                d = _sup_distance(self._sorted[:n], *_ecdf_steps(n))
            self._held_significance = ks_significance(d, n)
        self._steps += 1
        final = unify(self._held_significance, self.unifier)
        return pv, self._held_significance, final
