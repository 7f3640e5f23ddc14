"""Riemannian machinery on the Stiefel manifold St(m, n).

St(m, n) is the set of m x n matrices with orthonormal columns,
U* U = I_n (conjugate transpose for the complex/unitary case). It
collapses to the hypersphere at n = 1 and to the orthogonal group at
m = n. This module provides the operations needed to perturb such
matrices without leaving the manifold:

- tangent-space projection and random tangent sampling,
- the alpha-family of inner products (alpha = 0 is the canonical
  metric with weight I - 1/2 UU*, alpha = -1/2 the Euclidean one),
- normalization of tangents against the injectivity radius 0.89*pi,
- the exponential retraction (closed form via matrix exponentials of
  skew matrices) and geodesics.

All operations are pure functions of their inputs plus an explicitly
passed RNG; the value types are immutable after construction and safe
to share across threads. Parallel callers must use independent RNG
streams.

The 0.89*pi bound is a tight lower bound for the canonical metric; it
is reused verbatim for every alpha, which is a documented gap rather
than an established fact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "ORTH_TOL",
    "TANGENT_TOL",
    "INJECTIVITY_RADIUS",
    "MetricParams",
    "CANONICAL",
    "EUCLIDEAN",
    "StiefelPoint",
    "TangentVector",
    "project_to_tangent",
    "random_tangent",
    "inner_product",
    "tangent_norm",
    "normalize_and_scale",
    "matrix_exp",
    "exp_map",
    "geodesic",
]

#: Frobenius tolerance for U*U = I membership checks (100x double headroom
#: for m, n up to ~1000).
ORTH_TOL = 1e-8

#: Frobenius tolerance for the tangency condition delta*U + U*delta = 0.
TANGENT_TOL = 1e-10

#: Tight global lower bound on the injectivity radius of St(m, n).
INJECTIVITY_RADIUS = 0.89 * np.pi


def _conj_t(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    if not np.issubdtype(out.dtype, np.complexfloating):
        out = out.astype(np.float64, copy=False)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MetricParams:
    """Parameter of the alpha-metric family.

    alpha = 0 gives the canonical metric (weight I - 1/2 UU*),
    alpha = -1/2 the Euclidean metric inherited from the ambient space.
    alpha = -1 is degenerate and rejected.
    """

    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.alpha == -1.0:
            raise ValueError("alpha = -1 does not define a metric")

    @property
    def weight_coefficient(self) -> float:
        """Coefficient c in the weight I - c UU*."""
        a = self.alpha
        return (2.0 * a + 1.0) / (2.0 * (a + 1.0))


CANONICAL = MetricParams(0.0)
EUCLIDEAN = MetricParams(-0.5)


@dataclass(frozen=True)
class StiefelPoint:
    """An m x n matrix with orthonormal columns (real or complex).

    Construction validates m >= n and ||U*U - I||_F < ORTH_TOL; the
    stored array is read-only.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix)
        if mat.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={mat.ndim}")
        m, n = mat.shape
        if n < 1 or m < n:
            raise ValueError(f"need m >= n >= 1, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix has non-finite entries")
        mat = _freeze(mat)
        gram_defect = _conj_t(mat) @ mat - np.eye(n)
        if np.linalg.norm(gram_defect) >= ORTH_TOL:
            raise ValueError(
                "columns are not orthonormal: ||U*U - I||_F = "
                f"{np.linalg.norm(gram_defect):.3e} >= {ORTH_TOL:g}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.matrix)


@dataclass(frozen=True)
class TangentVector:
    """A direction delta anchored at a Stiefel point.

    Validates the tangency condition delta*U + U*delta = 0 within
    TANGENT_TOL, i.e. U*delta is skew-(Hermitian).
    """

    delta: np.ndarray
    base: StiefelPoint

    def __post_init__(self) -> None:
        delta = np.asarray(self.delta)
        if delta.shape != self.base.matrix.shape:
            raise ValueError(
                f"delta shape {delta.shape} != base shape {self.base.matrix.shape}"
            )
        delta = _freeze(delta)
        u = self.base.matrix
        defect = _conj_t(delta) @ u + _conj_t(u) @ delta
        if np.linalg.norm(defect) >= TANGENT_TOL:
            raise ValueError(
                "not a tangent vector: ||delta*U + U*delta||_F = "
                f"{np.linalg.norm(defect):.3e} >= {TANGENT_TOL:g}"
            )
        object.__setattr__(self, "delta", delta)

    def scaled(self, t: float) -> "TangentVector":
        """The tangent t * delta at the same base."""
        return TangentVector(t * self.delta, self.base)


def project_to_tangent(base: StiefelPoint, ambient: np.ndarray) -> TangentVector:
    """Orthogonally project an ambient matrix onto the tangent space at base.

    Returns delta = ambient - U sym(U* ambient) with sym(X) = (X + X*)/2.
    The projection is idempotent and maps base.matrix itself to zero.

    Raises:
        ValueError: if ambient does not match the base's shape.
    """
    ambient = np.asarray(ambient)
    u = base.matrix
    if ambient.shape != u.shape:
        raise ValueError(f"ambient shape {ambient.shape} != base shape {u.shape}")
    uta = _conj_t(u) @ ambient
    sym = (uta + _conj_t(uta)) / 2.0
    return TangentVector(ambient - u @ sym, base)


def random_tangent(base: StiefelPoint, rng: np.random.Generator) -> TangentVector:
    """Sample a random tangent at base.

    Draws i.i.d. standard-normal entries (independent normals on the real
    and imaginary parts for complex bases) and projects onto the tangent
    space. Deterministic given the generator state.
    """
    return project_to_tangent(base, _standard_normal(base, rng))


def _standard_normal(base: StiefelPoint, rng: np.random.Generator) -> np.ndarray:
    shape = base.matrix.shape
    if base.is_complex:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _check_anchor(base: StiefelPoint, d: TangentVector) -> None:
    if d.base is not base and not np.array_equal(d.base.matrix, base.matrix):
        raise ValueError("tangent vector is anchored at a different base point")


def inner_product(
    base: StiefelPoint,
    d1: TangentVector,
    d2: TangentVector,
    metric: MetricParams = CANONICAL,
) -> float:
    """Alpha-metric inner product Re tr(d1* (I - c UU*) d2) at base.

    c = (2*alpha + 1) / (2*(alpha + 1)); c = 1/2 recovers the canonical
    metric and c = 0 (alpha = -1/2) the plain trace product. Positive
    definite on tangents for alpha > -1.
    """
    _check_anchor(base, d1)
    _check_anchor(base, d2)
    a, b = d1.delta, d2.delta
    val = np.sum(a.conj() * b)
    c = metric.weight_coefficient
    if c != 0.0:
        u = base.matrix
        ua = _conj_t(u) @ a
        ub = ua if d2 is d1 else _conj_t(u) @ b
        val -= c * np.sum(ua.conj() * ub)
    return float(np.real(val))


def tangent_norm(
    base: StiefelPoint, d: TangentVector, metric: MetricParams = CANONICAL
) -> float:
    """Norm induced by the alpha-metric."""
    return float(np.sqrt(max(inner_product(base, d, d, metric), 0.0)))


def normalize_and_scale(
    base: StiefelPoint,
    d: TangentVector,
    beta: float,
    metric: MetricParams = CANONICAL,
) -> TangentVector:
    """Rescale d so its metric norm is beta times the injectivity radius.

    beta = 0 returns the zero tangent; beta = 1 lands on the
    0.89*pi boundary.

    Raises:
        ValueError: if beta is outside [0, 1], or if d is (numerically)
            zero while beta > 0.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    _check_anchor(base, d)
    if beta == 0.0:
        return TangentVector(np.zeros_like(d.delta), base)
    norm = tangent_norm(base, d, metric)
    if norm == 0.0:
        raise ValueError("cannot scale a zero tangent vector to a positive radius")
    return TangentVector(d.delta * (beta * INJECTIVITY_RADIUS / norm), base)


def matrix_exp(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix.

    Delegates to scipy's Pade scaling-and-squaring. For skew-(Hermitian)
    input the result is orthogonal/unitary to well below 1e-10.

    Raises:
        ValueError: for non-square or non-finite input.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ValueError("matrix has non-finite entries")
    if s.shape[0] == 0:
        return np.zeros_like(s)
    return expm(s)


#: The exponential's action pays off only for few columns of a large
#: factor. With single-threaded OpenBLAS on a 2-vCPU x86-64 VM, the action
#: on cols <= m/16 columns of an m >= 128 skew matrix took 0.1-0.8x the
#: time of the dense m x m exponential (one time point; less along a
#: path), while on small or wide slices it took up to 15x as long.
_ACTION_MIN_DIM = 128
_ACTION_COL_RATIO = 16


def _takes_action(base: StiefelPoint, cols: int) -> bool:
    """Whether the leading cols columns of base's retraction come from _geodesic_columns.

    True only for a square base with m >= 128 and cols <= m/16; every
    other retraction is cheaper through the dense exponential of exp_map.
    """
    m, n = base.matrix.shape
    return m == n and m >= _ACTION_MIN_DIM and _ACTION_COL_RATIO * cols <= m


def _random_skew(
    base: StiefelPoint, beta: float, metric: MetricParams, rng: np.random.Generator
) -> np.ndarray:
    """A = U* delta of normalize_and_scale(base, random_tangent(base, rng), beta, metric), square base.

    Draws the same normals G as random_tangent, so the generator's stream
    is unchanged. At a square base the projected tangent has
    U* delta = skew(U* G) and alpha-norm sqrt(1 - c) ||A||_F (Edelman,
    Arias & Smith, SIAM J. Matrix Anal. Appl. 20, 1998), so neither the
    ambient projection nor a tangent check is formed. Equal to the
    replay up to rounding; raises as normalize_and_scale does.
    """
    g = _standard_normal(base, rng)
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if beta == 0.0:
        return np.zeros_like(g)
    x = _conj_t(base.matrix) @ g
    a = (x - _conj_t(x)) / 2.0
    norm = np.sqrt(max(1.0 - metric.weight_coefficient, 0.0)) * np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("cannot scale a zero tangent vector to a positive radius")
    return a * (beta * INJECTIVITY_RADIUS / norm)


def _geodesic_columns(base: StiefelPoint, a: np.ndarray, cols: int, steps: int = 1) -> list:
    """Leading columns of U exp_m(t A) for a skew(-Hermitian) generator A on a square base.

    Returns one StiefelPoint of shape m x cols per t = 1/steps, 2/steps,
    ..., 1, from a single call to scipy's expm_multiply (the
    action-of-the-exponential algorithm of Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 2011) that evaluates exp_m(t A) I[:, :cols] on the whole
    grid. With A = U* delta, equal to exp_map's square route up to rounding.
    """
    u = base.matrix
    if not np.any(a):
        return [StiefelPoint(u[:, :cols])] * steps
    # imported here, not at module load, where it added ~30 ms to every CLI start
    from scipy.sparse.linalg import expm_multiply

    grid = expm_multiply(
        a, np.eye(u.shape[0], cols), start=0.0, stop=1.0, num=steps + 1, endpoint=True
    )
    return [StiefelPoint(u @ e) for e in grid[1:]]


def exp_map(
    base: StiefelPoint,
    d: TangentVector,
    metric: MetricParams = CANONICAL,
) -> StiefelPoint:
    """Exponential retraction: endpoint of the alpha-geodesic leaving base with velocity d.

    With A = U*d the closed form is

        exp_m(-(2a+1)/(a+1) U A U* + d U* - U d*) . U . exp_m(a/(a+1) A)

    evaluated in one of two algebraically identical forms: a square base
    reduces to U exp_m(A); for m > n the first factor acts on U through
    the invariant subspace spanned by [U | Q], where Q and R come from
    one QR of [U | K] with K = d - U A the normal component, giving an
    (n + p) x (n + p) exponential with p = min(n, m - n) (Zimmermann &
    Hueper, arXiv 2103.12046). Both forms multiply exponentials of skew
    matrices onto U, so the result is orthonormal by construction.

    A tangent whose metric norm exceeds the injectivity radius is
    accepted with a warning (the exploration of the full radius is
    deliberate), not rejected.
    """
    _check_anchor(base, d)
    u = base.matrix
    m, n = u.shape
    delta = d.delta
    if not np.any(delta):
        return base

    norm = tangent_norm(base, d, metric)
    if norm > INJECTIVITY_RADIUS * (1.0 + 1e-9):
        warnings.warn(
            f"tangent norm {norm:.4f} exceeds the injectivity radius "
            f"{INJECTIVITY_RADIUS:.4f}; the retraction may not be injective",
            RuntimeWarning,
            stacklevel=2,
        )

    alpha = metric.alpha
    a_skew = _conj_t(u) @ delta
    mu = alpha / (alpha + 1.0)

    if m == n:
        # Orthogonal/unitary group: every alpha-geodesic is the
        # one-parameter subgroup U exp_m(A).
        return StiefelPoint(u @ matrix_exp(a_skew))

    c = (2.0 * alpha + 1.0) / (alpha + 1.0)
    # Householder keeps q[:, n:] orthogonal to U even for a rank-deficient K,
    # and U* K = 0 leaves the dropped r[:n, n:] at rounding level
    q, r = np.linalg.qr(np.hstack([u, delta - u @ a_skew]))
    q, r = q[:, n:], r[n:, n:]
    p = r.shape[0]
    block = np.zeros((n + p, n + p), dtype=np.result_type(a_skew, r))
    block[:n, :n] = (2.0 - c) * a_skew
    block[:n, n:] = -_conj_t(r)
    block[n:, :n] = r
    e = matrix_exp(block)[:, :n]
    out = u @ e[:n, :] + q @ e[n:, :]
    if mu != 0.0:
        out = out @ matrix_exp(mu * a_skew)
    return StiefelPoint(out)


def geodesic(
    base: StiefelPoint,
    d: TangentVector,
    t: float,
    metric: MetricParams = CANONICAL,
) -> StiefelPoint:
    """Point gamma(t) on the geodesic with gamma(0) = base, gamma(1) = exp_map(base, d).

    Values of t outside [0, 1] are accepted with a warning.
    """
    if not 0.0 <= t <= 1.0:
        warnings.warn(
            f"geodesic parameter t={t} outside [0, 1]", RuntimeWarning, stacklevel=2
        )
    if t == 0.0:
        return base
    if t == 1.0:
        return exp_map(base, d, metric)
    return exp_map(base, d.scaled(t), metric)
