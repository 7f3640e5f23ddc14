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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fda import FunctionalEnsemble
from .signal import PageMatrix, TimeSeries, from_page_matrix, smooth, to_page_matrix
from .stiefel import (
    MetricParams,
    StiefelPoint,
    _built,
    _geodesic_columns,
    _random_skew,
    _takes_action,
    geodesic,
    normalize_and_scale,
    random_tangent,
)

# bench/tracer.py wraps this name here; the retraction goes through geodesic.
from .stiefel import exp_map  # noqa: F401

__all__ = [
    "AugmentConfig",
    "AugmentResult",
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
    independently (a single beta is just beta_u == beta_v). rank, when
    set, restricts the perturbation to the leading d columns of each
    factor.
    """

    beta_u: float = 0.0
    beta_v: float = 0.0
    alpha: float = 0.0
    smooth_len: int = 1
    rank: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("beta_u", "beta_v"):
            b = getattr(self, name)
            if not 0.0 <= b <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {b}")
        if self.smooth_len < 1:
            raise ValueError("smooth_len must be >= 1")
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be a positive integer")
        MetricParams(self.alpha)  # reject alpha = -1 up front

    @property
    def metric(self) -> MetricParams:
        return MetricParams(self.alpha)


@dataclass(frozen=True)
class AugmentResult:
    """A generated matrix plus the factorization it came from.

    factors holds (U1, sigma, V1) of the input. In full-rank mode the
    singular values of `generated` equal sigma to within 1e-8.
    """

    generated: np.ndarray
    factors: tuple


def _factor_path(
    point: StiefelPoint,
    beta: float,
    metric: MetricParams,
    rng: np.random.Generator,
    cols: int,
    steps: int = 1,
) -> list:
    """Sample, scale and retract one factor: its leading cols columns at t = 1/steps, ..., 1.

    A large square factor of which few columns are used is drawn as its
    skew generator and retracted through the exponential's action on
    those columns; every other factor goes through geodesic, whose
    t = 1 point is exp_map's.
    """
    if _takes_action(point, cols):
        a = _random_skew(point, beta, metric, rng)
        return _geodesic_columns(point, a, cols, steps)
    d = normalize_and_scale(point, random_tangent(point, rng), beta, metric)
    return [
        geodesic(point, d, step / steps, metric).matrix[:, :cols] for step in range(1, steps + 1)
    ]


class _Factorization:
    """SVD of one input matrix, computed once and shared by all of its draws.

    u and v are the factor points that move: the full square factors in
    full-rank mode, their leading `rank` columns otherwise. They are
    orthonormal by construction, so only the input is checked.
    The leading `cols` columns of each moved factor enter the
    reconstruction (cols = min(m, n) in full-rank mode, rank otherwise);
    in rank mode the remaining dyads are added back untouched.
    """

    def __init__(self, mat: np.ndarray, rank: int | None) -> None:
        mat = np.asarray(mat)
        if mat.ndim != 2 or min(mat.shape) < 2:
            raise ValueError(f"need a matrix with min(m, n) >= 2, got shape {mat.shape}")
        # the SVD may return non-finite factors, or not return, for an infinite entry
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix has non-finite entries")
        if rank is not None and rank >= min(mat.shape):
            raise ValueError(f"rank must be < min(m, n) = {min(mat.shape)}, got {rank}")
        self.u1, self.sigma, self.v1h = np.linalg.svd(mat, full_matrices=True)
        self.v1 = self.v1h.conj().T
        self.cols = self.sigma.shape[0] if rank is None else rank
        # [:, :None] keeps every column
        self.u = _built(StiefelPoint, self.u1[:, :rank])
        self.v = _built(StiefelPoint, self.v1[:, :rank])

    def draw(self, cfg: AugmentConfig, rng: np.random.Generator) -> AugmentResult:
        """One perturbed reconstruction; tangents are sampled for U first, then V."""
        d, k = self.cols, self.sigma.shape[0]
        u2 = _factor_path(self.u, cfg.beta_u, cfg.metric, rng, d)[0]
        v2 = _factor_path(self.v, cfg.beta_v, cfg.metric, rng, d)[0]
        generated = (u2 * self.sigma[:d]) @ v2.conj().T
        if d < k:
            generated = generated + (self.u1[:, d:k] * self.sigma[d:]) @ self.v1h[d:k, :]
        return AugmentResult(generated, (self.u1, self.sigma, self.v1))


def _unpage(generated: np.ndarray, pm: PageMatrix, series: TimeSeries, smooth_len: int) -> TimeSeries:
    """Inverse page reshape of a generated matrix, then the moving average."""
    out = from_page_matrix(PageMatrix(generated, pm.original_length, pm.fit_strategy))
    return smooth(TimeSeries(out.values, series.sample_interval), smooth_len)


def stiefelgen_matrix(
    mat: np.ndarray,
    cfg: AugmentConfig,
    rng: np.random.Generator,
) -> AugmentResult:
    """Perturb a matrix by moving its SVD factors along random geodesics.

    Tangents are always sampled for U first and V second, regardless of
    the beta values, so runs with the same seed share directions across
    different beta settings. In full-rank mode only the leading
    min(m, n) columns of each retracted factor are formed.

    Raises:
        ValueError: for inputs smaller than 2 x 2, non-finite entries or
            rank >= min(m, n).
        numpy.linalg.LinAlgError: if the SVD fails to converge.
    """
    return _Factorization(mat, cfg.rank).draw(cfg, rng)


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
    return _unpage(stiefelgen_matrix(pm.data, cfg, rng).generated, pm, series, cfg.smooth_len)


def geodesic_path(
    mat: np.ndarray,
    cfg: AugmentConfig,
    steps: int,
    rng: np.random.Generator,
) -> list:
    """Reconstructions along one shared geodesic, at t = 0, 1/steps, ..., 1.

    A single (tangent_u, tangent_v) pair is sampled, so the path
    interpolates one realization: element 0 is the input itself and
    element `steps` is the one-shot stiefelgen_matrix output for the
    same generator state (bitwise when both factors go through exp_map,
    to rounding when a factor takes the exponential's action).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if cfg.rank is not None:
        raise ValueError("geodesic paths support full-rank mode only")
    fac = _Factorization(mat, None)
    u_path = _factor_path(fac.u, cfg.beta_u, cfg.metric, rng, fac.cols, steps)
    v_path = _factor_path(fac.v, cfg.beta_v, cfg.metric, rng, fac.cols, steps)
    path = [np.array(mat)]
    path += [(u_t * fac.sigma) @ v_t.conj().T for u_t, v_t in zip(u_path, v_path)]
    return path


def batch_generate(
    series: TimeSeries,
    count: int,
    m: int,
    cfg: AugmentConfig,
    strategy: str = "pad_edge",
) -> FunctionalEnsemble:
    """Ensemble of independent draws, one row per generated signal.

    The series is paged and factored once; each draw then only perturbs,
    reconstructs, reshapes and smooths. Draw k uses the k-th stream
    spawned from cfg.seed, so row k equals stiefelgen_series on that
    stream and the ensemble is reproducible.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pm = to_page_matrix(series, m, strategy)
    fac = _Factorization(pm.data, cfg.rank)
    rows = [
        _unpage(fac.draw(cfg, np.random.default_rng(seq)).generated, pm, series, cfg.smooth_len).values
        for seq in np.random.SeedSequence(cfg.seed).spawn(count)
    ]
    return FunctionalEnsemble(np.vstack(rows))


def ambient_perturb(
    mat: np.ndarray,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Baseline comparator: jitter the SVD factors off the manifold.

    Adds i.i.d. N(0, sigma^2) noise to U1 and V1 with no retraction and
    reconstructs. The perturbed factors are generally not orthonormal
    and the output's singular values are not preserved; provided for
    comparison studies only.
    """
    if not np.isfinite(sigma) or sigma < 0:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    mat = np.asarray(mat)
    # as in _Factorization: the SVD may not return for an infinite entry
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    u1, s, v1h = np.linalg.svd(mat, full_matrices=True)
    v1 = v1h.conj().T
    u_noisy = u1 + sigma * rng.standard_normal(u1.shape)
    v_noisy = v1 + sigma * rng.standard_normal(v1.shape)
    k = s.shape[0]
    return (u_noisy[:, :k] * s) @ v_noisy[:, :k].conj().T
