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


def _built(cls, *fields):
    """A cls value frozen as the public constructor freezes it, but not checked.

    Only for values derived from checked data: SVD factors, retractions, rescaled tangents.
    """
    out = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(out, name, _freeze(value) if isinstance(value, np.ndarray) else value)
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
        defect = np.linalg.norm(_conj_t(mat) @ mat - np.eye(n))
        if defect >= ORTH_TOL:
            raise ValueError(
                f"columns are not orthonormal: ||U*U - I||_F = {defect:.3e} >= {ORTH_TOL:g}"
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
    TANGENT_TOL, i.e. that X = U*delta is skew-(Hermitian); since
    delta*U = X*, the defect is ||X + X*||_F from the one product X.
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
        x = _conj_t(self.base.matrix) @ delta
        defect = np.linalg.norm(x + _conj_t(x))
        # `not <` also rejects a NaN defect
        if not defect < TANGENT_TOL:
            raise ValueError(
                f"not a tangent vector: ||delta*U + U*delta||_F = {defect:.3e} >= {TANGENT_TOL:g}"
            )
        object.__setattr__(self, "delta", delta)

    def scaled(self, t: float) -> "TangentVector":
        """The tangent t * delta at the same base."""
        return _built(TangentVector, t * self.delta, self.base)


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
        return _built(TangentVector, np.zeros_like(d.delta), base)
    norm = tangent_norm(base, d, metric)
    if norm == 0.0:
        raise ValueError("cannot scale a zero tangent vector to a positive radius")
    return _built(TangentVector, d.delta * (beta * INJECTIVITY_RADIUS / norm), base)


#: theta_m, the largest norm at which the degree-m Pade approximant to exp has
#: backward error below unit roundoff, and its numerator coefficients b_0, ..., b_m
#: (Higham, SIAM J. Matrix Anal. Appl. 26, 2005, Tables 2.3 and 2.2).
_PADE = {
    3: (1.495585217958292e-2, np.array([120.0, 60.0, 12.0, 1.0])),
    5: (2.539398330063230e-1, np.array([30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0])),
    7: (9.504178996162932e-1,
        np.array([17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0])),
    9: (2.097847961257068, np.array([17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                                     30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0])),
    13: (5.371920351148152, np.array([64764752532480000.0, 32382376266240000.0,
                                      7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                                      10559470521600.0, 670442572800.0, 33522128640.0,
                                      1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])),
}


def matrix_exp(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix.

    Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    2005): the lowest degree 3, 5, 7 or 9 whose theta_m covers A, else
    degree 13 on A / 2^s followed by s squarings. The backward error
    involves only even powers of A of order 2m and up, so A is measured
    by max(||A^4||^(1/4), ||A^6||^(1/6)), from the Frobenius norms of
    powers the approximant forms anyway (Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 31, 2009, without their correction for strongly
    non-normal input). For a skew A this sits near the spectral radius,
    often far below ||A||. For skew-(Hermitian) input the result is
    orthogonal/unitary to well below 1e-10.

    Raises:
        ValueError: for non-square or non-finite input.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("matrix has non-finite entries")
    n = s.shape[0]
    if n == 0:
        return np.zeros_like(s)
    # even powers I, A^2, A^4, A^6, and A^8 for degree 9
    pw = np.empty((5, n, n), dtype=np.result_type(s, 1.0))
    pw[0] = 0.0
    pw[0].flat[:: n + 1] = 1.0
    np.matmul(s, s, out=pw[1])
    np.matmul(pw[1], pw[1], out=pw[2])
    np.matmul(pw[2], pw[1], out=pw[3])
    # every even k >= 4 is 4i + 6j, so max(d4, d6) bounds ||A^k||^(1/k) for all of them
    eta = max(np.linalg.norm(pw[2]) ** (1 / 4), np.linalg.norm(pw[3]) ** (1 / 6))
    m = next((m for m in (3, 5, 7, 9) if eta <= _PADE[m][0]), 13)
    scale = 0
    if m == 9:
        np.matmul(pw[2], pw[2], out=pw[4])
    elif m == 13:
        scale = max(0, int(np.ceil(np.log2(eta / _PADE[13][0]))))
        if scale:
            s = s / 2.0**scale
            pw[1:4] *= 0.25 ** (scale * np.arange(1.0, 4.0))[:, None, None]
    b = _PADE[m][1]
    k = 4 if m == 13 else m // 2 + 1
    low = pw[:k].reshape(k, -1)
    u = (b[1::2][:k] @ low).reshape(n, n)
    v = (b[0::2][:k] @ low).reshape(n, n)
    if m == 13:
        high = pw[1:4].reshape(3, -1)
        u += pw[3] @ (b[9::2] @ high).reshape(n, n)
        v += pw[3] @ (b[8::2] @ high).reshape(n, n)
    u = s @ u
    e = np.linalg.solve(v - u, v + u)
    for _ in range(scale):
        e = e @ e
    return e


#: The exponential's action pays off only for few columns of a large
#: factor. With single-threaded OpenBLAS on a 2-vCPU x86-64 VM (numpy 2.4.6,
#: beta = 1 canonical draws), _geodesic_columns on up to m/8 columns took
#: this share of the time of U @ matrix_exp(A) at one time point: 1.5-2x at
#: m = 32, about 1x at m = 48, 0.6-0.7x at m = 64, 0.1-0.3x at m = 96 to 128
#: and 0.02-0.24x at m = 450. Along a 20-step path it took 0.6-1.05x at
#: m = 32 and 0.01-0.14x from m = 96 on. The crossover thus sits near
#: m = 64, below the cut kept here; none of the bench workloads has a
#: square factor between 50 and 128.
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
    replay up to rounding. beta must already lie in [0, 1] (the callers'
    configs check it); a zero draw raises as in normalize_and_scale.
    """
    g = _standard_normal(base, rng)
    if beta == 0.0:
        return np.zeros_like(g)
    x = _conj_t(base.matrix) @ g
    a = (x - _conj_t(x)) / 2.0
    norm = np.sqrt(max(1.0 - metric.weight_coefficient, 0.0)) * np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("cannot scale a zero tangent vector to a positive radius")
    return a * (beta * INJECTIVITY_RADIUS / norm)


#: Float64 unit roundoff, where the Taylor action stops, and its cap on terms per
#: substep: for a generator of 2-norm r the j-th term is at most r^j / j! of the
#: block, below unit roundoff by j = 33 even at r = 3 sqrt(2).
_UNIT_ROUNDOFF = 2.0**-53
_TAYLOR_TERMS = 60
#: Largest 2-norm bound of one substep's generator. A larger one means fewer substeps
#: but more terms each; cancellation in a series on a generator of 2-norm r costs at
#: most e^r unit roundoffs.
_TAYLOR_RADIUS = 3.0


def _geodesic_columns(base: StiefelPoint, a: np.ndarray, cols: int, steps: int = 1) -> list:
    """Leading columns of U exp_m(t A) for a skew(-Hermitian) generator A on a square base.

    Returns one m x cols array per t = 1/steps, 2/steps, ..., 1. Each
    step applies exp_m(A/steps) to the m x cols block I[:, :cols] through
    truncated Taylor series, so only m x m by m x cols products are
    formed (the action of the exponential, Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 2011, with a norm bound in place of their estimator). A
    step is split into substeps whose generator's 2-norm stays within
    _TAYLOR_RADIUS, and each series stops once a term falls below unit
    roundoff relative to the sum. With A = U* delta, equal to exp_map's
    square route up to rounding.
    """
    u = base.matrix
    if not np.any(a):
        return [u[:, :cols]] * steps
    # ||A||_F / sqrt(2) bounds ||A||_2 of a real skew A, whose eigenvalues pair as +-i lambda;
    # a complex one may reach sqrt(2) times that, which only costs a few more terms
    sub = int(np.ceil(np.linalg.norm(a) / np.sqrt(2.0) / (steps * _TAYLOR_RADIUS)))
    h = a / (steps * sub)
    block = np.eye(u.shape[0], cols, dtype=a.dtype)
    out = []
    for _ in range(steps):
        for _ in range(sub):
            term = block
            for j in range(1, _TAYLOR_TERMS + 1):
                term = h @ term
                term *= 1.0 / j
                block += term
                if np.linalg.norm(term) <= _UNIT_ROUNDOFF * np.linalg.norm(block):
                    break
        out.append(u @ block)
    return out


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
        return _built(StiefelPoint, u @ matrix_exp(a_skew))

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
    return _built(StiefelPoint, out)


def geodesic(
    base: StiefelPoint,
    d: TangentVector,
    t: float,
    metric: MetricParams = CANONICAL,
) -> StiefelPoint:
    """Point gamma(t) on the geodesic with gamma(0) = base, gamma(1) = exp_map(base, d).

    Values of t outside [0, 1] are accepted with a warning. t = 0 returns
    base itself; at t = 1 the scaled tangent is bitwise d, so the point
    is bitwise exp_map(base, d).
    """
    if not 0.0 <= t <= 1.0:
        warnings.warn(
            f"geodesic parameter t={t} outside [0, 1]", RuntimeWarning, stacklevel=2
        )
    return exp_map(base, d.scaled(t), metric)
