"""Univariate signal plumbing: page matrices, length fitting, smoothing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FIT_STRATEGIES",
    "TimeSeries",
    "PageMatrix",
    "to_page_matrix",
    "from_page_matrix",
    "smooth",
]

FIT_STRATEGIES = ("truncate", "pad_edge", "overlap")


@dataclass(frozen=True)
class TimeSeries:
    """An ordered sequence of finite real samples."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("a time series must be 1-d")
        if not np.all(np.isfinite(values)):
            raise ValueError("time series contains non-finite samples")
        values = np.array(values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class PageMatrix:
    """An m x n restacking of a signal plus what is needed to invert it.

    Rows are consecutive length-n chunks of the fitted signal, laid out
    row-major: entry (i, j) is fitted sample n*i + j (0-based).
    """

    data: np.ndarray
    original_length: int
    fit_strategy: str

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("page matrix must be 2-d")
        if self.fit_strategy not in FIT_STRATEGIES:
            raise ValueError(f"unknown fit strategy {self.fit_strategy!r}")
        if self.original_length < 1:
            raise ValueError("original_length must be positive")
        data = np.array(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def to_page_matrix(series: TimeSeries, m: int, strategy: str = "truncate") -> PageMatrix:
    """Reshape a signal into an m-row page matrix.

    The column count is n = round(N/m) (half-up). When m does not divide
    N the strategy resolves the mismatch:

    - ``truncate``: drop trailing samples (n is lowered to floor(N/m)
      when rounding would overshoot, so m*n <= N always holds);
    - ``pad_edge``: repeat the final sample into any slots past the end;
    - ``overlap``: let the last row re-read preceding samples so the
      signal tail is covered without fabricating values.

    With pad_edge/overlap and m*n < N the trailing samples are dropped,
    matching the rounding rule.

    Raises:
        ValueError: if m < 2, the series is shorter than 2*m, or the
            strategy is unknown.
    """
    if strategy not in FIT_STRATEGIES:
        raise ValueError(f"unknown fit strategy {strategy!r}")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    values = series.values
    big_n = values.shape[0]
    if big_n < 2 * m:
        raise ValueError(f"series of length {big_n} too short for m={m} (need >= {2 * m})")

    n = _round_half_up(big_n / m)
    slots = m * n
    if strategy == "truncate" and slots > big_n:
        n = big_n // m
        slots = m * n

    if slots <= big_n:
        data = values[:slots].reshape(m, n)
    elif strategy == "pad_edge":
        fitted = np.concatenate([values, np.full(slots - big_n, values[-1])])
        data = fitted.reshape(m, n)
    else:  # overlap: last row re-reads the final n samples of the signal
        if slots - big_n > n:
            raise ValueError(
                f"overlap cannot absorb {slots - big_n} extra slots in a single "
                f"row of length {n}; use pad_edge"
            )
        data = np.empty((m, n))
        data[: m - 1] = values[: n * (m - 1)].reshape(m - 1, n)
        data[m - 1] = values[big_n - n :]
    return PageMatrix(data, big_n, strategy)


def from_page_matrix(pm: PageMatrix) -> TimeSeries:
    """Invert the page-matrix reshape, undoing the fit strategy.

    Row-major unstacking restores the fitted signal; padded slots are
    re-truncated to the original length, and an overlapped last row is
    stitched back over the tail it re-read.
    """
    flat = pm.data.reshape(-1)
    slots = flat.shape[0]
    big_n = pm.original_length
    if slots <= big_n:
        # with slots < N every strategy kept the leading samples only
        return TimeSeries(flat)
    if pm.fit_strategy == "overlap":
        n = pm.n
        out = np.empty(big_n)
        out[: n * (pm.m - 1)] = flat[: n * (pm.m - 1)]
        out[big_n - n :] = flat[slots - n :]
        return TimeSeries(out)
    return TimeSeries(flat[:big_n])


def smooth(series: TimeSeries, window: int) -> TimeSeries:
    """Centered moving average with shrinking windows at the edges.

    Output length equals input length; window = 1 is the identity.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window == 1:
        return series
    values = series.values
    length = values.shape[0]
    left = window // 2
    right = window - 1 - left
    csum = np.concatenate([[0.0], np.cumsum(values)])
    idx = np.arange(length)
    lo = np.maximum(idx - left, 0)
    hi = np.minimum(idx + right + 1, length)
    out = (csum[hi] - csum[lo]) / (hi - lo)
    return TimeSeries(out)
