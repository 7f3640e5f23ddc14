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

from .fda import FunctionalEnsemble
from .stiefel import StiefelPoint, _built, _check_integer, _check_real, _freeze
from .stiefel import exp_map, normalize_and_scale, random_tangent

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

#: The sketched truncation's fixed test-matrix seed, extra columns and residual bound against sigma_r.
_SKETCH_SEED, _SKETCH_OVERSAMPLE, _SKETCH_TOL = 20110317, 10, 1e-10


@dataclass(frozen=True)
class SnapshotMatrix:
    """Complex M x N data with columns as uniformly spaced time snapshots."""

    data: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _freeze(self.data, 2, "snapshot data", np.complex128))
        if self.n_time < 3:
            raise ValueError(f"need at least 3 snapshots, got {self.n_time}")
        _check_real(self.dt, "dt", 0, np.inf, "()")

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
    """Rank-r truncated SVD (U_r, Sigma_r, V_r) of the first snapshot block X1.

    Q = orth(X1 Omega) sketches X1 for a fixed Gaussian Omega of rank + 10 columns, at most n - 1,
    that never reads a caller's Generator (Halko, Martinsson & Tropp, SIAM Review 53, 2011). The
    SVD of B = Q* X1 is kept if ||X1 - Q B||_F is at most 1e-10 sigma_r, else the full thin SVD of
    X1 is taken. On both, each u_j's largest-modulus entry is made real and positive and v_j turned
    by the same phase, so X1, and the output up to rounding, do not depend on the route. U_r and V_r
    are StiefelPoints, orthonormal by construction.

    Raises:
        ValueError: for a non-integer or out-of-range rank, or a condition above MAX_CONDITION.
    """
    m, n = snaps.data.shape
    _check_integer(rank, "rank", 1, min(m, n - 1) + 1)
    x1 = snaps.data[:, :-1]
    omega = np.random.default_rng(_SKETCH_SEED).standard_normal((n - 1, min(rank + _SKETCH_OVERSAMPLE, n - 1)))
    q = np.linalg.qr(x1 @ omega)[0]
    b = q.conj().T @ x1
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    if np.linalg.norm(x1 - q @ b) <= _SKETCH_TOL * s[rank - 1]:
        u = q @ u
    else:
        u, s, vh = np.linalg.svd(x1, full_matrices=False)
    s_r = s[:rank]
    if s_r[-1] <= 0 or s_r[0] / s_r[-1] > MAX_CONDITION:
        raise ValueError(
            f"truncated singular values are ill-conditioned (condition "
            f"{s_r[0] / max(s_r[-1], np.finfo(float).tiny):.2e})"
        )
    u_r, v_r = u[:, :rank], vh[:rank, :].conj().T
    peak = u_r[np.abs(u_r).argmax(axis=0), np.arange(rank)]
    phase = peak.conj() / np.abs(peak)
    return _built(StiefelPoint, u_r * phase), s_r, _built(StiefelPoint, v_r * phase)


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
    amplitudes = np.linalg.pinv(modes) @ data[:, 0]
    return _built(DmdModel, modes, mu, np.log(mu) / snaps.dt, amplitudes, s_r.shape[0], snaps.dt)


def _perturbed_model(snaps: SnapshotMatrix, factors: tuple, beta: float, rng) -> DmdModel:
    """Assemble from (U_r, Sigma_r, V_r) with U_r, then V_r, retracted along random canonical geodesics."""
    u_pt, s_r, v_pt = factors
    u_r = exp_map(u_pt, normalize_and_scale(u_pt, random_tangent(u_pt, rng), beta)).matrix
    v_r = exp_map(v_pt, normalize_and_scale(v_pt, random_tangent(v_pt, rng), beta)).matrix
    return _assemble(snaps, u_r, s_r, v_r)


def fit_dmd(snaps: SnapshotMatrix, rank: int) -> DmdModel:
    """Fit rank-r linear snapshot dynamics.

    Uses exact modes (X2 V_r inv(Sigma_r) W), which reproduce the snapshots of rank-exact
    data without an extra projection, on a certified sketched truncation (_truncate).

    Raises:
        ValueError: for a non-integer or out-of-range rank, an ill-conditioned
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
    _check_real(beta, "beta", 0, 1)
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
    spatial_index=None,
) -> np.ndarray:
    """Real parts of `count` independently perturbed forecasts.

    Returns an array of shape (count, M, len(times)); member k equals perturbed_fit on the
    k-th child stream spawned from rng, so the ensemble is deterministic per seed. The
    truncated SVD, a certified sketch that never reads rng (_truncate), is computed once,
    after every argument check, and shared by all members, which batch_generate's row loop
    makes (_fork.fill_rows). An int spatial_index returns the (count, len(times)) slice at
    that location alone, bitwise, without holding the full array: use it when one location
    is read, and slice_ensemble on the full array when several are.
    """
    _check_integer(count, "count", 1)
    _check_real(beta, "beta", 0, 1)
    if spatial_index is not None:
        _check_integer(spatial_index, "spatial_index", 0, snaps.n_space)
    factors = _truncate(snaps, rank)
    times = np.asarray(times, dtype=np.float64)
    loc = slice(None) if spatial_index is None else spatial_index  # no name keeps a member's M x T field
    shape = (count, snaps.n_space, len(times)) if spatial_index is None else (count, len(times))
    from ._fork import fill_rows  # imported on first use, so that `import stiefelgen` does no more work
    return fill_rows(shape, rng, lambda _, g: forecast(_perturbed_model(snaps, factors, beta, g), times).real[loc])


def slice_ensemble(forecasts: np.ndarray, spatial_index: int) -> FunctionalEnsemble:
    """Ensemble of one spatial location's trajectories across members.

    Raises ValueError, as ensemble_forecast does, for a non-3-d array or an index outside [0, M).
    """
    if forecasts.ndim != 3:
        raise ValueError(f"forecasts must be 3-d (count, M, T), got shape {forecasts.shape}")
    _check_integer(spatial_index, "spatial_index", 0, forecasts.shape[1])
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
