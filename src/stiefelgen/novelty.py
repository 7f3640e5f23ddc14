"""Synthetic multi-sensor novelty-detection case study.

A toy bridge produces repeated multi-sensor observations of the same
sinusoidal response with noise and a bias. Stacked observations are
projected with PCA, a one-class boundary is trained on the projections,
and geodesic perturbations of the raw observations are tracked through
the projection to study the boundary's robustness and to search for
adversarial candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import AugmentConfig, geodesic_path
from .stiefel import _built, _check_integer, _check_real, _freeze

__all__ = [
    "SensorDataset",
    "ProjectedSpace",
    "OneClassModel",
    "generate_shm_dataset",
    "fit_pca",
    "fit_one_class",
    "perturb_and_track",
    "norm_change_ranking",
    "adversarial_candidate",
]

#: KKT gap at which the one-class dual counts as solved.
KKT_TOL = 1e-6

#: Sweeps after which fit_one_class gives up on the dual.
MAX_SWEEPS = 100_000

#: Sampling rate (Hz), record length (s) and noise mean (the bias term) of generate_shm_dataset.
RATE_HZ, DURATION_S, NOISE_MEAN = 50.0, 9.0, 1.0

#: Dimensions fit_pca keeps; the CLI's points header names two.
PCA_DIMS = 2


@dataclass(frozen=True)
class SensorDataset:
    """Stacked sensor observations: array of shape (count, sensors, samples)."""

    observations: np.ndarray
    sample_rate: float
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "observations", _freeze(self.observations, 3, "sensor data", np.float64))
        expected = int(round(self.sample_rate * self.duration))
        if self.samples != expected:
            raise ValueError(f"samples per observation ({self.samples}) != rate * duration ({expected})")

    @property
    def count(self) -> int:
        return self.observations.shape[0]

    @property
    def sensors(self) -> int:
        return self.observations.shape[1]

    @property
    def samples(self) -> int:
        return self.observations.shape[2]


def sensor_response(t: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One sensor trace: 4 sin(6 pi t^0.5) + sin(15 pi t) + noise."""
    return 4.0 * np.sin(6.0 * np.pi * np.sqrt(t)) + np.sin(15.0 * np.pi * t) + noise


def generate_shm_dataset(
    sensors: int = 5,
    obs_count: int = 50,
    *,
    rng: np.random.Generator,
    noise_std: float = 0.5,
) -> SensorDataset:
    """Synthetic bridge dataset, sampled at RATE_HZ for DURATION_S seconds.

    Every sensor row of every observation is an independent draw of the
    sinusoidal response plus Gaussian noise (mean NOISE_MEAN, the bias
    term; std = noise_std, 0 for the deterministic variant). Time runs
    uniformly over [0, DURATION_S).
    """
    _check_integer(sensors, "sensors", 1)
    _check_integer(obs_count, "obs_count", 1)
    _check_real(noise_std, "noise_std", 0, np.inf, "[)")
    samples = int(round(RATE_HZ * DURATION_S))
    t = np.arange(samples) / RATE_HZ
    noise = NOISE_MEAN + noise_std * rng.standard_normal((obs_count, sensors, samples))
    obs = sensor_response(t[None, None, :], noise)
    return SensorDataset(obs, RATE_HZ, DURATION_S)


@dataclass(frozen=True)
class ProjectedSpace:
    """Mean, orthonormal basis and projected training points of a PCA fit."""

    mean: np.ndarray
    basis: np.ndarray
    points: np.ndarray

    def project(self, observation: np.ndarray) -> np.ndarray:
        """Project one observation matrix (or flat feature vector)."""
        flat = np.asarray(observation, dtype=np.float64).reshape(-1)
        return (flat - self.mean) @ self.basis

    def reconstruct(self, point: np.ndarray) -> np.ndarray:
        """Feature vector of a projected point (inverse on the subspace)."""
        return self.mean + self.basis @ np.asarray(point, dtype=np.float64)


def fit_pca(dataset: SensorDataset) -> ProjectedSpace:
    """PCA_DIMS-dimensional PCA projection, one flattened sensors x samples observation per data point.

    Raises:
        ValueError: if there are not more than PCA_DIMS points or the
            centered data has rank below PCA_DIMS.
    """
    rows = dataset.observations.reshape(dataset.count, -1)
    if rows.shape[0] <= PCA_DIMS:
        raise ValueError(f"need more than {PCA_DIMS} data points, got {rows.shape[0]}")
    mean = rows.mean(axis=0)
    centered = rows - mean
    _, s, vh = np.linalg.svd(centered, full_matrices=False)
    if s[PCA_DIMS - 1] <= max(centered.shape) * np.finfo(float).eps * s[0]:
        raise ValueError(f"data rank is below the {PCA_DIMS} PCA components")
    basis = vh[:PCA_DIMS].T
    return _built(ProjectedSpace, mean, basis, centered @ basis)


@dataclass(frozen=True)
class OneClassModel:
    """Trained nu-parameterized one-class boundary with an RBF kernel."""

    kernel_gamma: float
    nu: float
    support_coefficients: np.ndarray
    offset: float
    training_points: np.ndarray

    def decision(self, x) -> np.ndarray:
        """Signed boundary distance; negative values are flagged as novel."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        d2 = ((x[:, None, :] - self.training_points[None, :, :]) ** 2).sum(axis=2)
        k = np.exp(-self.kernel_gamma * d2)
        return k @ self.support_coefficients - self.offset


def fit_one_class(points: np.ndarray, nu: float = 0.1, gamma: float = 1e-3) -> OneClassModel:
    """Train the nu-one-class dual by pairwise coordinate ascent.

    Solves min 1/2 a^T K a subject to 0 <= a_i <= 1/(nu K), sum a = 1
    with the RBF kernel exp(-gamma ||x - y||^2), updating the maximal
    violating pair per sweep until the KKT gap drops below KKT_TOL. The
    offset is the averaged decision value over unbounded support
    vectors, so those sit on the boundary.

    Raises:
        ValueError: for invalid nu/gamma, fewer than 2 points or non-finite
            points.
        RuntimeError: if the KKT gap has not closed after MAX_SWEEPS sweeps.
    """
    _check_real(nu, "nu", 0, 1, "(]")
    _check_real(gamma, "gamma", 0, np.inf, "()")
    points = _freeze(points, 2, "training points", np.float64)
    k = points.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 training points, got {k}")
    cap = 1.0 / (nu * k)

    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    kernel = np.exp(-gamma * d2)

    # feasible start: spread mass uniformly (respects the cap since
    # 1/k <= 1/(nu k) for nu <= 1)
    alpha = np.full(k, 1.0 / k)
    grad = kernel @ alpha

    converged = False
    for _ in range(MAX_SWEEPS):
        up_vals = np.where(alpha < cap - 1e-14, grad, np.inf)
        down_vals = np.where(alpha > 1e-14, grad, -np.inf)
        i = int(np.argmin(up_vals))
        j = int(np.argmax(down_vals))
        gap = down_vals[j] - up_vals[i]
        if gap < KKT_TOL:
            converged = True
            break
        curvature = kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j]
        step = gap / max(curvature, 1e-12)
        step = min(step, cap - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        grad += step * (kernel[:, i] - kernel[:, j])
    if not converged:
        raise RuntimeError(f"one-class dual did not converge within {MAX_SWEEPS} sweeps")

    unbounded = (alpha > 1e-8) & (alpha < cap - 1e-8)
    if np.any(unbounded):
        offset = float(grad[unbounded].mean())
    else:
        # no free vector: any offset between the at-cap and at-zero
        # gradient bounds satisfies KKT; take the midpoint (or the one
        # available bound)
        at_cap = grad[alpha >= cap - 1e-8]
        at_zero = grad[alpha <= 1e-8]
        lo = at_cap.max() if at_cap.size else -np.inf
        hi = at_zero.min() if at_zero.size else np.inf
        if np.isfinite(lo) and np.isfinite(hi):
            offset = float((lo + hi) / 2.0)
        else:
            offset = float(lo if np.isfinite(lo) else hi)
    return _built(OneClassModel, gamma, nu, alpha, offset, points)


def perturb_and_track(
    dataset: SensorDataset,
    obs_index: int,
    beta: float,
    pca: ProjectedSpace,
    model: OneClassModel,
    rng: np.random.Generator,
    steps: int = 20,
    alpha: float = 0.0,
):
    """Follow one observation's geodesic through the projection.

    The stacked sensors x samples matrix is perturbed directly (no page
    reshape is needed, the stacking already fixed the shape); each of
    the steps + 1 reconstructions is projected and scored. Returns
    (path of projected points, decision values, crossing), where
    crossing is the first step index with a negative decision, or None.
    """
    _check_integer(obs_index, "obs_index", 0, dataset.count)
    cfg = AugmentConfig(beta_u=beta, beta_v=beta, alpha=alpha)
    matrices = geodesic_path(dataset.observations[obs_index], cfg, steps, rng)
    path = [pca.project(mat) for mat in matrices]
    decisions = [float(model.decision(p)[0]) for p in path]
    crossing = next((i for i, d in enumerate(decisions) if d < 0), None)
    return path, decisions, crossing


def norm_change_ranking(before: np.ndarray, after: np.ndarray) -> list:
    """Pairs (index, ||after_i - before_i||_2) sorted ascending by norm.

    Ties keep index order (stable sort).

    Raises:
        ValueError: on length mismatch.
    """
    before = np.atleast_2d(np.asarray(before, dtype=np.float64))
    after = np.atleast_2d(np.asarray(after, dtype=np.float64))
    if before.shape != after.shape:
        raise ValueError(f"shape mismatch: {before.shape} vs {after.shape}")
    norms = np.linalg.norm(after - before, axis=1)
    order = np.argsort(norms, kind="stable")
    return [(int(i), float(norms[i])) for i in order]


def adversarial_candidate(ranking, percentile: float = 85.0):
    """First ranked point strictly above the nearest-rank percentile.

    The percentile value is the ceil(p/100 * n)-th smallest norm change;
    the returned value is the data index stored at the first rank whose
    norm strictly exceeds it, or None when no entry does (e.g. all
    norms equal).

    Raises:
        ValueError: for an empty ranking or percentile outside (0, 100).
    """
    if not ranking:
        raise ValueError("ranking is empty")
    _check_real(percentile, "percentile", 0, 100, "()")
    norms = [norm for _, norm in ranking]
    rank = int(np.ceil(percentile / 100.0 * len(norms)))
    threshold = norms[rank - 1]
    for index, norm in ranking:
        if norm > threshold:
            return index
    return None
