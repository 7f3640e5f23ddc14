"""Signal generation by geodesic perturbation of SVD factors.

The pipeline: reshape a signal into a page matrix, factor it as
U1 S V1*, move U1 and V1 independently along random geodesics of their
orthogonal groups (scaled against the injectivity radius by beta_u and
beta_v), reconstruct U2 S V2* and reshape back. The singular values are
never touched, so the energy assigned to each dyad of the expansion is
invariant; only the basis representation moves.

Both factors are perturbed on their full orthogonal groups by default;
rank-d mode retracts only the leading d columns and keeps the residual
dyads untouched (in that mode the reconstruction's singular values are
no longer exactly the stored ones, since the perturbed leading dyads
lose orthogonality against the untouched tail).

Every draw reads the Generator its caller passes; batch_generate spawns
one child per row from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fda import FunctionalEnsemble
from .signal import PageMatrix, TimeSeries, from_page_matrix, smooth, to_page_matrix
from .stiefel import (
    MetricParams,
    StiefelPoint,
    _action_columns,
    _built,
    _takes_action,
    geodesic,
    normalize_and_scale,
    random_tangent,
)

# bench/tracer.py wraps this name here; the retraction goes through geodesic.
from .stiefel import exp_map  # noqa: F401

__all__ = [
    "AugmentConfig",
    "stiefelgen_matrix",
    "stiefelgen_series",
    "geodesic_path",
    "batch_generate",
    "ambient_perturb",
]


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs of one generation run.

    beta_u and beta_v scale the column-space and row-space perturbations
    independently (a single beta is just beta_u == beta_v). alpha picks
    the metric between Euclidean (-1/2) and canonical (0); above about
    0.26 a beta = 1 draw on a small square factor can leave the
    retraction's injective range, so it is rejected. rank, when set,
    restricts the perturbation to the leading d columns of each factor.
    """

    beta_u: float = 0.0
    beta_v: float = 0.0
    alpha: float = 0.0
    smooth_len: int = 1
    rank: int | None = None

    def __post_init__(self) -> None:
        for name in ("beta_u", "beta_v"):
            b = getattr(self, name)
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {b}")
        if self.smooth_len < 1:
            raise ValueError("smooth_len must be >= 1")
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be a positive integer")
        # a NaN alpha fails this comparison too
        if not -0.5 <= self.alpha <= 0.0:
            raise ValueError(f"alpha must lie in [-0.5, 0], got {self.alpha}")

    @property
    def metric(self) -> MetricParams:
        return MetricParams(self.alpha)


def _factor_path(
    factor, beta: float, metric: MetricParams, rng: np.random.Generator, cols: int, steps: int = 1
) -> list:
    """Sample, scale and retract one factor: its leading cols columns at t = 1/steps, ..., 1.

    A plain L x k block (the long side of an action page) moves as exp(A) X in
    the ambient frame; a point goes through geodesic, whose t = 1 point is exp_map's.
    """
    if not isinstance(factor, StiefelPoint):
        return _action_columns(factor, beta, metric, rng, steps)
    d = normalize_and_scale(factor, random_tangent(factor, rng), beta, metric)
    return [geodesic(factor, d, step / steps, metric).matrix[:, :cols] for step in range(1, steps + 1)]


class _Factorization:
    """SVD of one input matrix, computed once and shared by all of its draws.

    u and v are the factors that move; their leading `cols` columns enter
    the reconstruction (cols = k = min(m, n) in full-rank mode, rank
    otherwise, with the remaining dyads added back untouched). In
    full-rank mode a long side L with _takes_action(L, k) is held as its
    plain L x k block and moved in the ambient frame, so the thin SVD
    suffices. Every other factor is a point: the full square factor in
    full-rank mode, its leading `rank` columns otherwise. The factors are
    orthonormal by construction, so only the input is checked.
    """

    def __init__(self, mat: np.ndarray, rank: int | None) -> None:
        mat = np.asarray(mat)
        if mat.ndim != 2 or min(mat.shape) < 2:
            raise ValueError(f"need a matrix with min(m, n) >= 2, got shape {mat.shape}")
        # the SVD may return non-finite factors, or not return, for an infinite entry
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix has non-finite entries")
        k = min(mat.shape)
        if rank is not None and rank >= k:
            raise ValueError(f"rank must be < min(m, n) = {k}, got {rank}")
        action = rank is None and _takes_action(max(mat.shape), k)
        self.u1, self.sigma, self.v1h = np.linalg.svd(mat, full_matrices=not action)
        v1 = self.v1h.conj().T
        self.cols = k if rank is None else rank
        # only the thin SVD of an action page leaves a non-square factor, its long side;
        # [:, :None] keeps every column
        self.u, self.v = (
            f if f.shape[0] > f.shape[1] else _built(StiefelPoint, f[:, :rank]) for f in (self.u1, v1)
        )

    def path(self, cfg: AugmentConfig, rng: np.random.Generator, steps: int = 1) -> list:
        """Reconstructions along one draw at t = 1/steps, ..., 1; U's tangent is sampled first, then V's."""
        d, k = self.cols, self.sigma.shape[0]
        u_path = _factor_path(self.u, cfg.beta_u, cfg.metric, rng, d, steps)
        v_path = _factor_path(self.v, cfg.beta_v, cfg.metric, rng, d, steps)
        path = [(u_t * self.sigma[:d]) @ v_t.conj().T for u_t, v_t in zip(u_path, v_path)]
        if d < k:
            residual = (self.u1[:, d:k] * self.sigma[d:]) @ self.v1h[d:k, :]
            path = [generated + residual for generated in path]
        return path


def _unpage(generated: np.ndarray, pm: PageMatrix, smooth_len: int) -> TimeSeries:
    """Inverse page reshape of a generated matrix, then the moving average."""
    return smooth(from_page_matrix(PageMatrix(generated, pm.original_length, pm.fit_strategy)), smooth_len)


def stiefelgen_matrix(
    mat: np.ndarray,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Perturb a matrix by moving its SVD factors along random geodesics.

    Returns the generated matrix, the t = 1 point of the one-step path
    geodesic_path walks from the same generator state. Tangents are
    always sampled for U first and V second, regardless of the beta
    values, so runs with the same seed share directions across different
    beta settings. In full-rank mode only the leading k = min(m, n)
    columns of each retracted factor are formed, and the output's
    singular values equal the input's to within 1e-8. When the long side
    L has L >= 128 and k <= L/16, its k singular vectors X move as
    exp(A) X, drawn in Krylov coordinates of A from X; that has the law
    of V exp(skew(V* G)) E_k on the full factor V, so only the thin SVD
    is taken and no L x L matrix is formed.

    Raises:
        ValueError: for inputs smaller than 2 x 2, non-finite entries or
            rank >= min(m, n).
        numpy.linalg.LinAlgError: if the SVD fails to converge.
    """
    return _Factorization(mat, cfg.rank).path(cfg, rng)[0]


def stiefelgen_series(
    series: TimeSeries,
    m: int,
    cfg: AugmentConfig,
    rng: np.random.Generator,
    strategy: str = "pad_edge",
) -> TimeSeries:
    """End-to-end generation for a univariate signal.

    Page-matrix reshape, factor perturbation, inverse reshape, then a
    moving average of width cfg.smooth_len. The output length equals the
    input length whenever the fitted page covers the signal (always true
    when m divides the length); the rounding rule may otherwise drop a
    short tail.
    """
    pm = to_page_matrix(series, m, strategy)
    return _unpage(stiefelgen_matrix(pm.data, cfg, rng), pm, cfg.smooth_len)


def geodesic_path(
    mat: np.ndarray,
    cfg: AugmentConfig,
    steps: int,
    rng: np.random.Generator,
) -> list:
    """Reconstructions along one shared geodesic, at t = 0, 1/steps, ..., 1.

    A single (tangent_u, tangent_v) pair is sampled, so the path
    interpolates one realization: element 0 is a copy of the input and
    element `steps` is the one-shot stiefelgen_matrix output for the
    same generator state (bitwise when both factors go through exp_map,
    to rounding when a factor takes the exponential's action). In rank
    mode every element after the first carries the untouched residual
    dyads.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return [np.array(mat)] + _Factorization(mat, cfg.rank).path(cfg, rng, steps)


def batch_generate(
    series: TimeSeries,
    count: int,
    m: int,
    cfg: AugmentConfig,
    rng: np.random.Generator,
    strategy: str = "pad_edge",
) -> FunctionalEnsemble:
    """Ensemble of independent draws, one row per generated signal.

    The series is paged and factored once; each draw then only perturbs,
    reconstructs, reshapes and smooths. Row k equals stiefelgen_series
    on the k-th of the `count` child generators spawned from rng, so a
    fresh default_rng(seed) gives the same ensemble every time. The
    same Generator passed a second time spawns new children, and so a
    different ensemble.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pm = to_page_matrix(series, m, strategy)
    fac = _Factorization(pm.data, cfg.rank)
    rows = [_unpage(fac.path(cfg, child)[0], pm, cfg.smooth_len).values for child in rng.spawn(count)]
    return FunctionalEnsemble(np.vstack(rows))


def ambient_perturb(
    mat: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Baseline comparator: jitter the SVD factors off the manifold.

    Adds i.i.d. N(0, sigma^2) noise to the k = min(m, n) leading columns
    of U1 and V1, the ones that enter the output, with no retraction, and
    reconstructs. The noise is drawn as an m x k array, then an n x k one,
    so the stream differs from v0.1's, which drew noise for the full
    m x m and n x n factors. The perturbed factors are generally not
    orthonormal and the output's singular values are not preserved;
    provided for comparison studies only.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    mat = np.asarray(mat)
    # as in _Factorization: the SVD may not return for an infinite entry
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    u1, s, v1h = np.linalg.svd(mat, full_matrices=False)
    v1 = v1h.conj().T
    u_noisy = u1 + sigma * rng.standard_normal(u1.shape)
    v_noisy = v1 + sigma * rng.standard_normal(v1.shape)
    return (u_noisy * s) @ v_noisy.conj().T
