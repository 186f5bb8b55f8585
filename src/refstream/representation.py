"""Feature extraction from the raw stream.

Two representations are provided: a rolling (mean, std) pair over the last
N observations, and SAX words (z-normalise, piecewise-aggregate, quantise
against equiprobable standard-normal breakpoints) over the last n
observations.

Both keep the last n values in one window buffer: a float64 array of length
2n in which each value is written at i and at i + n (i cycling through
0..n-1). The last n values in arrival order are then always the contiguous
slice that ends at i + n, so a step reads them without a copy. The
transforms compute means and standard deviations with the arithmetic of
numpy's ``mean``/``std`` (one pairwise sum, a division, then the squared
deviations summed the same way) without the per-call cost of their Python
wrappers, so every feature is bitwise numpy's.
"""

from __future__ import annotations

import string

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError

SAX_ALPHABET = string.ascii_lowercase


def breakpoints(alphabet_size: int) -> np.ndarray:
    """Cut points splitting the standard normal into equiprobable regions.

    Returns the ``alphabet_size - 1`` quantiles at i/alphabet_size, strictly
    increasing and symmetric about zero.
    """
    if alphabet_size < 2:
        raise ConfigError(f"alphabet_size must be >= 2, got {alphabet_size}")
    return ndtri(np.arange(1, alphabet_size) / alphabet_size)


def _mean_and_deviations(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Mean, deviations from it, and population standard deviation of x."""
    n = x.size
    mean = x.sum() / n
    d = x - mean
    return mean, d, np.sqrt((d * d).sum() / n)


def meanstd_transform(values) -> np.ndarray:
    """Mean and population standard deviation of a full window."""
    mean, _, std = _mean_and_deviations(np.asarray(values, dtype=float))
    return np.array([mean, std])


def paa(values, segments: int) -> np.ndarray:
    """Piecewise aggregate approximation: means of equal-sized segments."""
    arr = np.asarray(values, dtype=float)
    if arr.size % segments:
        raise ConfigError(
            f"window length {arr.size} is not divisible by {segments} segments"
        )
    return arr.reshape(segments, -1).sum(axis=1) / (arr.size // segments)


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
    maps to the middle symbol (lower middle for even alphabets).
    """
    x = np.asarray(values, dtype=float)
    _, d, sd = _mean_and_deviations(x)
    if sd == 0.0 or (x == x[0]).all():
        mid = (alphabet_size + 1) // 2 - 1
        return SAX_ALPHABET[mid] * segments
    return symbolize(paa(d / sd, segments), alphabet_size, cuts)


class _Window:
    """The last n pushed values, readable as one contiguous slice.

    Each value is written at i and i + n of a 2n buffer, so after the write
    ``buf[i + 1 : i + 1 + n]`` holds the last n values, oldest first.
    """

    def __init__(self, n: int):
        self.n = n
        self._buf = np.zeros(2 * n)
        self._count = 0

    def push(self, value: float) -> np.ndarray | None:
        """Store value; return the full window (a view) or None until n values arrived."""
        n = self.n
        i = self._count % n
        self._buf[i] = self._buf[i + n] = value
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
        self._buf = _Window(window)

    def push(self, value: float) -> np.ndarray | None:
        x = self._buf.push(value)
        if x is None:
            return None
        return meanstd_transform(x)

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
        self._cuts = breakpoints(alphabet_size)
        self._buf = _Window(window)

    def push(self, value: float) -> str | None:
        x = self._buf.push(value)
        if x is None:
            return None
        return sax_transform(x, self.segments, self.alphabet_size, self._cuts)

    def buffer_len(self) -> int:
        return len(self._buf)
