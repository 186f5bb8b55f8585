"""Feature extraction from the raw stream.

Two representations are provided: a rolling (mean, std) pair over the last
N observations, and SAX words (z-normalise, piecewise-aggregate, quantise
against equiprobable standard-normal breakpoints) over the last n
observations.

A representation's features depend only on its constructor arguments
(its ``key``) and the values pushed, so the 20 grid detectors need only
two feature sequences per dataset: (mean, std) with N = 10 for 15 of them
and SAX words for the 5 frequency detectors. A serial grid computes the
features once per (dataset, representation): ``feature_tape`` pushes the
dataset's values through the first job's own representation, and every
job on that dataset with the same key gets a ``FeatureReplay`` of the tape
in place of its representation. The tape comes from the same push code,
so replayed features are bitwise the computed ones. A parallel grid fills
no tape in the parent; each job computes its own in its worker.

Both keep the last n values in one window buffer: a Python list of length
2n in which each value is written at i and at i + n (i cycling through
0..n-1). The last n values in arrival order are then always the contiguous
slice that ends at i + n.

Means and standard deviations follow the arithmetic of numpy's
``mean``/``std`` (one pairwise sum, a division, then the squared deviations
summed the same way and ``math.sqrt``, correctly rounded like ``np.sqrt``),
but in Python floats. The pipeline's windows are 10 values for (mean, std)
and 16 for SAX; at those sizes numpy's per-call cost, not the arithmetic,
sets the price of a step, and the handful of numpy calls a window took
cost more than the whole computation done one float at a time. Every sum
goes through one kernel, ``_pairwise_sum``, which is numpy's float64
``add.reduce`` written out: fewer than 8 values summed in order, up to 128
values in 8 interleaved accumulators combined as
``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` with the remainder added in order,
and longer runs split in two at a multiple of 8. Numpy adds that sum to
the reduction's identity, 0.0, which turns an all-(-0.0) total into +0.0,
so the kernel does too. Python evaluates every float operation on its own,
with IEEE rounding and never fused, so every feature is bitwise numpy's;
``paa`` and ``symbolize`` keep the numpy forms, which the tests compare
against.

The kernel's cost grows with the window, about 0.1 us per value for
(mean, std) and 0.2 us for SAX, where numpy's barely moves. Per push,
best of 20 interleaved passes on a shared 2-core VM, Python against the
numpy form it replaced: (mean, std) 4.9 against 7.1 us at 10 values, 9.0
against 7.7 at 32, 10.2 against 4.9 at 64, 17.1 against 4.3 at 128 and
29.8 against 4.4 at 256; SAX with 4 segments 7.1 against 12.8 us at 16
values, 17.5 against 12.3 at 64 and 29.9 against 11.9 at 128. Long
windows are therefore slower. There is one path all the same: no
workload the benchmark runs has a long window, so a size switch would be
a second path that nothing measures.

The SAX breakpoints are standard-normal quantiles from ``_ndtri``, a
pure-Python port of the Cephes ``ndtri`` that ``scipy.special.ndtri`` wraps.
It keeps Cephes' coefficient tables, its Horner order and its branch
points, and Python evaluates float arithmetic one IEEE operation at a time
(never contracted into fused multiply-adds), so every breakpoint is bitwise
scipy's without importing scipy, which would cost most of the package's
import time and memory.
"""

from __future__ import annotations

import math
import string
from bisect import bisect_right
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

SAX_ALPHABET = string.ascii_lowercase

# Cephes ndtri: rational approximations in y - 1/2 for the central region
# and in 1 / sqrt(-2 log y) for the two tails. The denominators are monic;
# their leading 1.0 is written out here, where Cephes leaves it implicit
# (its p1evl starts from x + q[0], which equals 1.0 * x + q[0] exactly)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coefs) -> float:
    """Polynomial in x, highest power first, by Horner's rule."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF (Cephes ``ndtri``)."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, upper = y0, y0 > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def breakpoints(alphabet_size: int) -> np.ndarray:
    """Cut points splitting the standard normal into equiprobable regions.

    Returns the ``alphabet_size - 1`` quantiles at i/alphabet_size, strictly
    increasing and symmetric about zero.
    """
    if alphabet_size < 2:
        raise ConfigError(f"alphabet_size must be >= 2, got {alphabet_size}")
    probs = np.arange(1, alphabet_size) / alphabet_size
    return np.array([_ndtri(p) for p in probs.tolist()])


def _pairwise_sum(values, lo: int, n: int) -> float:
    """Sum of ``values[lo : lo + n]`` (floats), bitwise numpy's float64 ``add.reduce``.

    Adding the identity at every level of the split, not only at the top,
    changes only the sign of an exactly-zero partial sum, which the final
    addition turns into +0.0 either way.
    """
    if n < 8:
        res = -0.0
        for v in values[lo : lo + n]:
            res += v
    elif n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for v in values[end : lo + n]:
            res += v
    else:
        half = n // 2
        half -= half % 8
        res = _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)
    return 0.0 + res


def _moments(x: list) -> tuple[float, list, float]:
    """Mean, deviations from it, and population standard deviation of x (floats)."""
    n = len(x)
    mean = _pairwise_sum(x, 0, n) / n
    d = [v - mean for v in x]
    return mean, d, math.sqrt(_pairwise_sum([e * e for e in d], 0, n) / n)


def meanstd_transform(values) -> np.ndarray:
    """Mean and population standard deviation of a full window."""
    mean, _, std = _moments(np.asarray(values, dtype=float).tolist())
    return np.array((mean, std))


def paa(values, segments: int) -> np.ndarray:
    """Piecewise aggregate approximation: means of equal-sized segments."""
    arr = np.asarray(values, dtype=float)
    if arr.size % segments:
        raise ConfigError(
            f"window length {arr.size} is not divisible by {segments} segments"
        )
    return np.add.reduce(arr.reshape(segments, -1), axis=1) / (arr.size // segments)


def symbolize(paa_values, alphabet_size: int, cuts: np.ndarray | None = None) -> str:
    """Map PAA segment means to letters via equiprobable breakpoints."""
    if cuts is None:
        cuts = breakpoints(alphabet_size)
    idx = np.searchsorted(cuts, np.asarray(paa_values, dtype=float), side="right")
    return "".join([SAX_ALPHABET[i] for i in idx.tolist()])


def sax_transform(
    values, segments: int, alphabet_size: int, cuts: np.ndarray | None = None
) -> str:
    """SAX word for one subsequence.

    A zero-variance subsequence cannot be z-normalised; every segment then
    maps to the middle symbol (lower middle for even alphabets). A length
    not divisible by ``segments`` is rejected either way.
    """
    x = np.asarray(values, dtype=float).tolist()
    if len(x) % segments:
        raise ConfigError(f"window length {len(x)} is not divisible by {segments} segments")
    if cuts is None:
        cuts = breakpoints(alphabet_size)
    return _sax_word(x, segments, alphabet_size, cuts.tolist())


def _sax_word(x: list, segments: int, alphabet_size: int, cuts: list) -> str:
    """``sax_transform`` of a checked list of floats, with the cuts as a list."""
    n = len(x)
    _, d, sd = _moments(x)
    # every value equals the first, as ``(x == x[0]).all()``; count also
    # matches the first value's own object, so a NaN is ruled out first
    x0 = x[0]
    if sd == 0.0 or (x0 == x0 and x.count(x0) == n):
        mid = (alphabet_size + 1) // 2 - 1
        return SAX_ALPHABET[mid] * segments
    z = [e / sd for e in d]
    size = n // segments
    return "".join([SAX_ALPHABET[bisect_right(cuts, _pairwise_sum(z, lo, size) / size)]
                    for lo in range(0, n, size)])


class _Window:
    """The last n pushed values, readable as one contiguous slice.

    Each value is written at i and i + n of a 2n list, so after the write
    ``buf[i + 1 : i + 1 + n]`` holds the last n values, oldest first.
    """

    def __init__(self, n: int):
        self.n = n
        self._buf = [0.0] * (2 * n)
        self._count = 0

    def push(self, value: float) -> list | None:
        """Store value; return the full window (a list) or None until n values arrived."""
        n = self.n
        i = self._count % n
        self._buf[i] = self._buf[i + n] = float(value)
        self._count += 1
        if self._count < n:
            return None
        return self._buf[i + 1 : i + 1 + n]

    def __len__(self) -> int:
        return min(self._count, self.n)


class MeanStdFeatures:
    """Streaming rolling-window (mean, std) features.

    Consumes one value per step and emits a feature once the FIFO buffer
    holds ``window`` values; before that it returns None (not warm).
    """

    def __init__(self, window: int):
        if window < 1:
            raise ConfigError(f"representation window must be >= 1, got {window}")
        self.window = window
        self.key = ("meanstd", window)
        self._buf = _Window(window)

    def push(self, value: float) -> np.ndarray | None:
        x = self._buf.push(value)
        if x is None:
            return None
        mean, _, std = _moments(x)
        return np.array((mean, std))

    def buffer_len(self) -> int:
        return len(self._buf)


class SaxFeatures:
    """Streaming SAX words over overlapping subsequences of the last n values."""

    def __init__(self, window: int, segments: int, alphabet_size: int):
        if window < 1:
            raise ConfigError(f"representation window must be >= 1, got {window}")
        if segments < 1 or window % segments:
            raise ConfigError(
                f"window {window} must be divisible by segments {segments}"
            )
        if not 2 <= alphabet_size <= len(SAX_ALPHABET):
            raise ConfigError(
                f"alphabet_size must be in [2, {len(SAX_ALPHABET)}], got {alphabet_size}"
            )
        self.window = window
        self.segments = segments
        self.alphabet_size = alphabet_size
        self.key = ("sax", window, segments, alphabet_size)
        self._cuts = breakpoints(alphabet_size).tolist()
        self._buf = _Window(window)

    def push(self, value: float) -> str | None:
        x = self._buf.push(value)
        if x is None:
            return None
        return _sax_word(x, self.segments, self.alphabet_size, self._cuts)

    def buffer_len(self) -> int:
        return len(self._buf)


def feature_tape(representation, values: Sequence[float]) -> tuple[int, np.ndarray | list]:
    """Every feature a fresh ``representation`` gives over ``values``.

    Returns the number of warm-up pushes (which give None) and the features
    after them: (mean, std) features as one read-only (n, 2) float64 array,
    SAX words as a list, so that every replay can share them.
    """
    features = [representation.push(v) for v in values]
    start = min(representation.window - 1, len(features))
    rows = features[start:]
    if isinstance(representation, MeanStdFeatures):
        rows = np.array(rows, dtype=float).reshape(-1, 2)
        rows.setflags(write=False)
    return start, rows


class FeatureReplay:
    """A representation that returns the features of a tape instead of computing them.

    ``push(value)`` returns the tape's next feature, None through warm-up.
    It raises DataError if ``value`` is not the value the tape was computed
    from at that position, so a misaligned tape never feeds a detector.
    """

    def __init__(self, values: Sequence[float], tape: tuple[int, np.ndarray | list]):
        self._values = values
        self._start, self._rows = tape
        self._i = 0

    def push(self, value: float) -> np.ndarray | str | None:
        i = self._i
        if i >= len(self._values) or value != self._values[i]:
            raise DataError(f"value {value!r} at position {i} is not the value its "
                            "feature tape was computed from")
        self._i = i + 1
        return None if i < self._start else self._rows[i - self._start]
