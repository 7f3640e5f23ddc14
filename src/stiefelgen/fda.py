"""Functional data analysis: modified band depth and functional boxplots.

Depth orders an ensemble of curves by centrality; the boxplot reports
the deepest curve as the median, pointwise envelopes of the deepest
p-fraction of curves, whisker-style fences and the curves escaping
them. The band order is fixed at pairs (J = 2), the standard modified
band depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stiefel import _built, _freeze, _read_only

__all__ = [
    "FunctionalEnsemble",
    "FunctionalBoxplot",
    "mbd",
    "functional_boxplot",
]

_MBD_BLOCK = 64  # time points per sort in mbd: sorting all of them at once takes 7x the ensemble's bytes


@dataclass(frozen=True)
class FunctionalEnsemble:
    """K curves sampled on a common grid of T domain points (rows = curves)."""

    curves: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "curves", _freeze(self.curves, 2, "curve matrix", np.float64))
        if self.curves.shape[0] < 1:
            raise ValueError("ensemble is empty")

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]

    @property
    def n_points(self) -> int:
        return self.curves.shape[1]


@dataclass(frozen=True)
class FunctionalBoxplot:
    """Summary statistics of a curve ensemble.

    central_envelopes maps each requested proportion p to the pointwise
    (lower, upper) envelope of the ceil(p*K) deepest curves; the fences
    are the 50% envelope expanded by fence_factor times its width.
    """

    median_index: int
    central_envelopes: dict
    fences: tuple
    outlier_indices: list
    depths: np.ndarray = field(repr=False)


def mbd(ens: FunctionalEnsemble) -> np.ndarray:
    """Modified band depth of every curve in the ensemble.

    For curve c the depth is the average over all unordered pairs
    {i < j} of the fraction of domain points where
    min(y_i, y_j) <= y_c <= max(y_i, y_j), boundaries inclusive and the
    curve's own pairs included. Values lie in [0, 1]; a curve inside
    every band (e.g. either curve of a two-curve ensemble) has depth 1.
    Time points are sorted 64 at a time; a run of tied values (-0.0 and 0.0
    tie) shares its counts below and above, so depths are exact int64 counts.

    Raises:
        ValueError: for fewer than 2 curves (no band exists).
    """
    curves = ens.curves
    k, t = curves.shape
    if k < 2:
        raise ValueError(f"band depth needs at least 2 curves, got {k}")
    n_pairs = k * (k - 1) // 2

    # a value misses the bands of pairs drawn wholly below or above it; a run ends where the next starts
    missed = np.zeros(k, dtype=np.int64)
    rank = np.arange(k)[:, None]
    for block in np.split(curves, range(_MBD_BLOCK, t, _MBD_BLOCK), axis=1):
        order = np.argsort(block, axis=0)
        ranked = np.take_along_axis(block, order, axis=0)
        starts = np.insert(ranked[1:] != ranked[:-1], 0, True, axis=0)
        below = np.maximum.accumulate(np.where(starts, rank, 0), axis=0)
        above = k - 1 - np.minimum.accumulate(np.where(np.roll(starts, -1, axis=0), rank, k)[::-1], 0)[::-1]
        pairs = np.empty_like(order)
        np.put_along_axis(pairs, order, below * (below - 1) // 2 + above * (above - 1) // 2, axis=0)
        missed += pairs.sum(axis=1)
    return (t * n_pairs - missed) / (t * n_pairs)


def functional_boxplot(
    ens: FunctionalEnsemble,
    proportions=(0.5,),
    fence_factor: float = 1.5,
) -> FunctionalBoxplot:
    """Build a functional boxplot from an ensemble.

    The median is the deepest curve (ties broken toward the lowest
    index); each proportion p yields the pointwise min/max envelope over
    the ceil(p*K) deepest curves; fences inflate the 50% envelope by
    fence_factor times its pointwise width; outliers are the curves
    leaving the fences anywhere.
    """
    if not (np.isfinite(fence_factor) and fence_factor >= 0.0):
        raise ValueError(f"fence_factor must be finite and >= 0, got {fence_factor}")
    proportions = tuple(proportions)
    if not proportions:
        raise ValueError("need at least one proportion")
    for i, p in enumerate(proportions):
        if not 0.0 < p <= 1.0 or p in proportions[:i]:
            raise ValueError(f"proportions must be distinct and lie in (0, 1], got {p} in {list(proportions)}")

    curves = ens.curves
    k, t = curves.shape
    depths = mbd(ens)
    # stable sort on -depth keeps the lowest index first among ties
    order = np.argsort(-depths, kind="stable")
    median_index = int(order[0])

    def envelope(p: float):
        # 64 points at a time as in mbd, never one alone: numpy reduces one column in another order
        take = order[: int(np.ceil(p * k))]
        subs = (block[take] for block in np.split(curves, range(_MBD_BLOCK, t - 1, _MBD_BLOCK), axis=1))
        lo, hi = zip(*((sub.min(axis=0), sub.max(axis=0)) for sub in subs))
        return _read_only(np.concatenate(lo)), _read_only(np.concatenate(hi))

    envelopes = {p: envelope(p) for p in proportions}
    lo50, hi50 = envelopes[0.5] if 0.5 in envelopes else envelope(0.5)
    width = hi50 - lo50
    fences = (_read_only(lo50 - fence_factor * width), _read_only(hi50 + fence_factor * width))
    outside = (curves < fences[0]).any(axis=1) | (curves > fences[1]).any(axis=1)  # one k x t mask at a time
    outlier_indices = [int(i) for i in np.nonzero(outside)[0]]
    return _built(FunctionalBoxplot, median_index, envelopes, fences, outlier_indices, depths)
