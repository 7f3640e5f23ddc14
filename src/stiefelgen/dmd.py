"""Dynamic mode decomposition with optional manifold-perturbed factors.

Snapshots x_k are regressed over locally linear dynamics
x_{k+1} = A x_k through the SVD of the first snapshot block; the small
matrix S = U_r* X2 V_r inv(Sigma_r) is similar to A, so its eigenpairs
give the continuous rates and spatial modes of the system. Replacing
U_r and V_r by Stiefel-retracted perturbations before forming S
perturbs the recovered dynamics themselves, which yields forecast
ensembles carrying epistemic uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import _factor_path
from .fda import FunctionalEnsemble
from .stiefel import CANONICAL, StiefelPoint, _built

# bench/tracer.py wraps these names in this module; the perturbation itself
# goes through augment._factor_path.
from .stiefel import exp_map, normalize_and_scale, random_tangent  # noqa: F401

__all__ = [
    "SnapshotMatrix",
    "DmdModel",
    "fit_dmd",
    "perturbed_fit",
    "forecast",
    "ensemble_forecast",
    "slice_ensemble",
    "synth_spatiotemporal",
]

#: Condition-number ceiling on the truncated singular values.
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class SnapshotMatrix:
    """Complex M x N data with columns as uniformly spaced time snapshots."""

    data: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.complex128)
        if data.ndim != 2:
            raise ValueError("snapshot data must be 2-d")
        if data.shape[1] < 3:
            raise ValueError(f"need at least 3 snapshots, got {data.shape[1]}")
        if not np.all(np.isfinite(data)):
            raise ValueError("snapshot data contains non-finite entries")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        data = np.array(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n_space(self) -> int:
        return self.data.shape[0]

    @property
    def n_time(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DmdModel:
    """Rank-r fit of linear snapshot dynamics.

    modes (M x r), discrete eigenvalues mu_j, continuous rates
    omega_j = log(mu_j)/dt (principal branch) and the amplitudes fitted
    against the first snapshot.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray
    omegas: np.ndarray
    amplitudes: np.ndarray
    rank: int
    dt: float


def _truncate(snaps: SnapshotMatrix, rank: int) -> tuple:
    """Rank-r truncated SVD (U_r, Sigma_r, V_r) of the first snapshot block.

    U_r and V_r are StiefelPoints, orthonormal by construction.

    Raises:
        ValueError: for an out-of-range rank or a condition above MAX_CONDITION.
    """
    m, n = snaps.data.shape
    if not 1 <= rank <= min(m, n - 1):
        raise ValueError(f"rank must lie in [1, {min(m, n - 1)}], got {rank}")
    u, s, vh = np.linalg.svd(snaps.data[:, :-1], full_matrices=False)
    s_r = s[:rank]
    if s_r[-1] <= 0 or s_r[0] / s_r[-1] > MAX_CONDITION:
        raise ValueError(
            f"truncated singular values are ill-conditioned (condition "
            f"{s_r[0] / max(s_r[-1], np.finfo(float).tiny):.2e})"
        )
    return _built(StiefelPoint, u[:, :rank]), s_r, _built(StiefelPoint, vh[:rank, :].conj().T)


def _assemble(snaps: SnapshotMatrix, u_r: np.ndarray, s_r: np.ndarray, v_r: np.ndarray) -> DmdModel:
    """The model whose reduced operator is S = U_r* X2 V_r inv(Sigma_r)."""
    data = snaps.data
    core = data[:, 1:] @ (v_r / s_r)
    s_tilde = u_r.conj().T @ core
    mu, w = np.linalg.eig(s_tilde)
    if np.any(mu == 0):
        raise ValueError(
            "the reduced operator has a zero eigenvalue, whose rate log(0)/dt is undefined"
        )
    modes = core @ w
    return DmdModel(
        modes=modes,
        eigenvalues=mu,
        omegas=np.log(mu) / snaps.dt,
        amplitudes=np.linalg.pinv(modes) @ data[:, 0],
        rank=s_r.shape[0],
        dt=snaps.dt,
    )


def _perturbed_model(snaps: SnapshotMatrix, factors: tuple, beta: float, rng) -> DmdModel:
    """Assemble from (U_r, Sigma_r, V_r) with U_r, then V_r, retracted along random canonical geodesics."""
    u_pt, s_r, v_pt = factors
    u_r = _factor_path(u_pt, beta, CANONICAL, rng, u_pt.n)[0]
    v_r = _factor_path(v_pt, beta, CANONICAL, rng, v_pt.n)[0]
    return _assemble(snaps, u_r, s_r, v_r)


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")


def fit_dmd(snaps: SnapshotMatrix, rank: int) -> DmdModel:
    """Fit rank-r linear snapshot dynamics.

    Uses exact modes (X2 V_r inv(Sigma_r) W), which reproduce the
    snapshots of rank-exact data without an extra projection.

    Raises:
        ValueError: for an out-of-range rank, an ill-conditioned
            truncation (condition above 1e12) or a zero eigenvalue.
    """
    u_r, s_r, v_r = _truncate(snaps, rank)
    return _assemble(snaps, u_r.matrix, s_r, v_r.matrix)


def perturbed_fit(
    snaps: SnapshotMatrix,
    rank: int,
    beta: float,
    rng: np.random.Generator,
) -> DmdModel:
    """Fit with the truncated factors moved along random unitary geodesics.

    U_r and V_r are replaced by exponential retractions at scale beta,
    under the canonical metric, on the complex Stiefel manifold before
    the similarity transform is formed. beta = 0 reproduces fit_dmd
    bitwise (the pipeline is shared), while the perturbed factors stay
    orthonormal for any beta.
    """
    _check_beta(beta)
    return _perturbed_model(snaps, _truncate(snaps, rank), beta, rng)


def forecast(model: DmdModel, times) -> np.ndarray:
    """Complex M x len(times) prediction: Phi diag(exp(omega t)) b per column."""
    times = np.asarray(times, dtype=np.float64)
    dynamics = np.exp(np.outer(model.omegas, times)) * model.amplitudes[:, None]
    return model.modes @ dynamics


def ensemble_forecast(
    snaps: SnapshotMatrix,
    rank: int,
    beta: float,
    count: int,
    times,
    rng: np.random.Generator,
) -> np.ndarray:
    """Real parts of `count` independently perturbed forecasts.

    Returns an array of shape (count, M, len(times)); member k equals
    perturbed_fit on the k-th child stream spawned from rng, so the
    ensemble is deterministic per seed. The truncated SVD is computed
    once and shared by all members. Use slice_ensemble to view one
    spatial location as a FunctionalEnsemble.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _check_beta(beta)
    factors = _truncate(snaps, rank)
    times = np.asarray(times, dtype=np.float64)
    out = np.empty((count, snaps.n_space, times.shape[0]))
    for member, child in enumerate(rng.spawn(count)):
        model = _perturbed_model(snaps, factors, beta, child)
        out[member] = forecast(model, times).real
    return out


def slice_ensemble(forecasts: np.ndarray, spatial_index: int) -> FunctionalEnsemble:
    """Ensemble of one spatial location's trajectories across members."""
    return FunctionalEnsemble(forecasts[:, spatial_index, :])


def synth_spatiotemporal(x_grid, t_grid) -> SnapshotMatrix:
    """Two mixed travelling structures over the complex domain.

    f(x, t) = sech(x + 3) exp(2.3i t) + 2 sech(x) tanh(x) exp(2.8i t),
    evaluated exactly on the grid. The result has numerical rank 2, with
    continuous frequencies 2.3 and 2.8.

    Raises:
        ValueError: for empty grids or a non-uniform time grid.
    """
    x = np.asarray(x_grid, dtype=np.float64)
    t = np.asarray(t_grid, dtype=np.float64)
    if x.size == 0 or t.size < 3:
        raise ValueError("need a nonempty spatial grid and at least 3 time points")
    steps = np.diff(t)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniformly spaced")
    mode1 = 1.0 / np.cosh(x + 3.0)
    mode2 = 2.0 / np.cosh(x) * np.tanh(x)
    data = np.outer(mode1, np.exp(2.3j * t)) + np.outer(mode2, np.exp(2.8j * t))
    return SnapshotMatrix(data, float(steps[0]))
