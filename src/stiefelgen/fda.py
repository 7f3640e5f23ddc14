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

__all__ = [
    "FunctionalEnsemble",
    "FunctionalBoxplot",
    "mbd",
    "functional_boxplot",
]


@dataclass(frozen=True)
class FunctionalEnsemble:
    """K curves sampled on a common grid of T domain points (rows = curves)."""

    curves: np.ndarray

    def __post_init__(self) -> None:
        curves = np.asarray(self.curves, dtype=np.float64)
        if curves.ndim != 2:
            raise ValueError("curves must be a K x T matrix")
        if curves.shape[0] < 1:
            raise ValueError("ensemble is empty")
        if not np.all(np.isfinite(curves)):
            raise ValueError("curves contain non-finite values")
        curves = np.array(curves)
        curves.setflags(write=False)
        object.__setattr__(self, "curves", curves)

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

    Raises:
        ValueError: for fewer than 2 curves (no band exists).
    """
    curves = ens.curves
    k, t = curves.shape
    if k < 2:
        raise ValueError(f"band depth needs at least 2 curves, got {k}")
    n_pairs = k * (k - 1) // 2

    # Per column, count how many curves sit strictly below / above each
    # value; pairs that fail to contain the value are exactly those
    # drawn entirely from one side. Ties are inclusive by construction.
    # The counts are integers, so their int64 total is exact in any order.
    total = np.zeros(k, dtype=np.int64)
    for col in range(t):
        vals = curves[:, col]
        order = np.sort(vals)
        below = np.searchsorted(order, vals, side="left")
        above = k - np.searchsorted(order, vals, side="right")
        total += n_pairs - below * (below - 1) // 2 - above * (above - 1) // 2
    return total / (t * n_pairs)


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
    for p in proportions:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"proportions must lie in (0, 1], got {p}")

    curves = ens.curves
    k = curves.shape[0]
    depths = mbd(ens)
    # stable sort on -depth keeps the lowest index first among ties
    order = np.argsort(-depths, kind="stable")
    median_index = int(order[0])

    def envelope(p: float):
        take = order[: int(np.ceil(p * k))]
        sub = curves[take]
        return sub.min(axis=0), sub.max(axis=0)

    envelopes = {p: envelope(p) for p in proportions}
    lo50, hi50 = envelopes[0.5] if 0.5 in envelopes else envelope(0.5)
    width = hi50 - lo50
    fences = (lo50 - fence_factor * width, hi50 + fence_factor * width)
    outside = (curves < fences[0]) | (curves > fences[1])
    outlier_indices = [int(i) for i in np.nonzero(outside.any(axis=1))[0]]
    return FunctionalBoxplot(
        median_index=median_index,
        central_envelopes=envelopes,
        fences=fences,
        outlier_indices=outlier_indices,
        depths=depths,
    )
