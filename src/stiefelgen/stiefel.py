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
streams, as batch, shm-demo and dmd-ensemble do when they fork a child.

The 0.89*pi bound is a tight lower bound for the canonical metric; it
is reused verbatim for every alpha, which is a documented gap rather
than an established fact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

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

#: Frobenius tolerance for the tangency condition delta*U + U*delta = 0,
#: relative to max(1, ||delta||_F).
TANGENT_TOL = 1e-10

#: Tight global lower bound on the injectivity radius of St(m, n).
INJECTIVITY_RADIUS = 0.89 * np.pi


def _conj_t(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, read-only, as complex or float64: only a real array of another dtype is cast, which copies."""
    a = a.astype(a.dtype if np.iscomplexobj(a) else np.float64, copy=False)
    a.setflags(write=False)
    return a


def _checked(out: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """out itself, held to the array rule of every value type (ndim dimensions, finite entries)."""
    if out.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-d, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} has non-finite entries")
    return out


def _freeze(value, ndim: int, what: str, dtype=None) -> np.ndarray:
    """A read-only, _checked copy of value in dtype (by default float64, or complex if it is)."""
    return _checked(_read_only(np.array(value, dtype=dtype)), ndim, what)


def _built(cls, *fields):
    """A cls value that takes over its arrays, frozen in place but neither copied nor checked.

    Only for arrays the package derived from checked data, or _checked and held nowhere else, that no code
    writes to afterwards: SVD factors, retractions, rescaled tangents, generated ensembles, fits, parsed CSV.
    """
    out = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(out, name, _read_only(value) if isinstance(value, np.ndarray) else value)
    return out


@dataclass(frozen=True)
class MetricParams:
    """Parameter of the alpha-metric family.

    alpha = 0 gives the canonical metric (weight I - 1/2 UU*),
    alpha = -1/2 the Euclidean metric inherited from the ambient space.
    alpha = -1 is degenerate, and below it c > 1 makes the form indefinite,
    so alpha must exceed -1.
    """

    alpha: float = 0.0

    def __post_init__(self) -> None:
        # a NaN alpha fails this comparison too
        if not -1.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and > -1, got {self.alpha}")

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
        mat = _freeze(self.matrix, 2, "matrix")
        m, n = mat.shape
        if n < 1 or m < n:
            raise ValueError(f"need m >= n >= 1, got shape {mat.shape}")
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

    Validates the tangency condition delta*U + U*delta = 0, i.e. that
    X = U*delta is skew-(Hermitian); since delta*U = X*, the defect is
    ||X + X*||_F from the one product X. The condition is homogeneous in
    delta and the defect's rounding grows with it, so the defect must lie
    below TANGENT_TOL * max(1, ||delta||_F): absolute for tangents of
    norm up to 1, relative beyond.
    """

    delta: np.ndarray
    base: StiefelPoint

    def __post_init__(self) -> None:
        delta = _freeze(self.delta, 2, "tangent vector")
        if delta.shape != self.base.matrix.shape:
            raise ValueError(
                f"delta shape {delta.shape} != base shape {self.base.matrix.shape}"
            )
        x = _conj_t(self.base.matrix) @ delta
        defect = np.linalg.norm(x + _conj_t(x))
        # `not <` also rejects a NaN defect; the norm is taken only past the absolute bound
        if not (defect < TANGENT_TOL or defect < TANGENT_TOL * np.linalg.norm(delta)):
            raise ValueError(
                f"not a tangent vector: ||delta*U + U*delta||_F = {defect:.3e} "
                f">= {TANGENT_TOL:g} * max(1, ||delta||_F)"
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
    return project_to_tangent(base, _standard_normal(base.matrix.shape, base.is_complex, rng))


def _standard_normal(shape: tuple, complex_field: bool, rng: np.random.Generator) -> np.ndarray:
    if complex_field:
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
    ua = _conj_t(base.matrix) @ d1.delta
    ub = ua if d2 is d1 else _conj_t(base.matrix) @ d2.delta
    return _weighted_inner(d1.delta, d2.delta, metric.weight_coefficient, ua, ub)


def _weighted_inner(a: np.ndarray, b: np.ndarray, c: float, ua, ub) -> float:
    """Re tr(a* (I - c UU*) b) from the products ua = U*a and ub = U*b."""
    return float(np.real(np.sum(a.conj() * b) - c * np.sum(ua.conj() * ub)))


def tangent_norm(
    base: StiefelPoint, d: TangentVector, metric: MetricParams = CANONICAL
) -> float:
    """Norm induced by the alpha-metric."""
    return float(np.sqrt(max(inner_product(base, d, d, metric), 0.0)))


def _check_beta(beta: float, name: str = "beta") -> None:
    """The range rule of every step scale, a share beta of the injectivity radius: [0, 1], so NaN fails."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {beta}")


def _check_integer(value, name: str, low: int, high: int | None = None) -> None:
    """The rule of every size and index, checked before any work: a (numpy) integer, not a bool, in [low, high)."""
    not_integer = isinstance(value, bool) or not isinstance(value, Integral)
    if not_integer or value < low or (high is not None and value >= high):
        span = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {span}, got {value}")


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
    _check_beta(beta)
    _check_anchor(base, d)
    if beta == 0.0:
        return _built(TangentVector, np.zeros_like(d.delta), base)
    norm = tangent_norm(base, d, metric)
    if norm == 0.0:
        raise ValueError("cannot scale a zero tangent vector to a positive radius")
    return _built(TangentVector, d.delta * (beta * INJECTIVITY_RADIUS / norm), base)


#: theta_7, the largest norm at which the degree-7 Pade approximant to exp has backward
#: error below unit roundoff, and its numerator coefficients b_0, ..., b_7 (Higham, SIAM
#: J. Matrix Anal. Appl. 26, 2005, Tables 2.3 and 2.2).
_PADE = (9.504178996162932e-1,
         np.array([17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0]))


def matrix_exp(s: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix.

    Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    2005) with one approximant, degree 7, on A / 2^s followed by s
    squarings: s = 0 if eta <= theta_7, else ceil(log2(eta / theta_7)).
    The backward error involves only even powers of A of order 14 and up,
    so A is measured by eta = max(||A^4||^(1/4), ||A^6||^(1/6)) (Al-Mohy
    & Higham, SIAM J. Matrix Anal. Appl. 31, 2009, without their
    correction for strongly non-normal input), and degree 7 is the
    approximant built from exactly the I, A^2, A^4 and A^6 that this
    estimate forms. For a skew A, eta sits near the spectral radius,
    often far below ||A||. For skew-(Hermitian) input the result is
    orthogonal/unitary to well below 1e-10.

    Raises:
        ValueError: for non-square or non-finite input, or powers that overflow.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("matrix has non-finite entries")
    n = s.shape[0]
    # even powers I, A^2, A^4, A^6
    pw = np.empty((4, n, n), dtype=np.result_type(s, 1.0))
    pw[0] = 0.0
    pw[0].flat[:: n + 1] = 1.0
    np.matmul(s, s, out=pw[1])
    np.matmul(pw[1], pw[1], out=pw[2])
    np.matmul(pw[2], pw[1], out=pw[3])
    # every even k >= 4 is 4i + 6j, so max(d4, d6) bounds ||A^k||^(1/k) for all of them
    eta = max(np.linalg.norm(pw[2]) ** (1 / 4), np.linalg.norm(pw[3]) ** (1 / 6))
    if not np.isfinite(eta):
        raise ValueError("powers of the matrix overflow")
    theta, b = _PADE
    # s only past theta_7: log2(0) raises under np.errstate(divide="raise")
    scale = 0 if eta <= theta else int(np.ceil(np.log2(eta / theta)))
    if scale:
        s = s / 2.0**scale
        pw[1:] *= 0.25 ** (scale * np.arange(1.0, 4.0))[:, None, None]
    low = pw.reshape(4, n * n)
    u = s @ (b[1::2] @ low).reshape(n, n)
    v = (b[0::2] @ low).reshape(n, n)
    e = np.linalg.solve(v - u, v + u)
    for _ in range(scale):
        e = e @ e
    return e


#: The exponential's action pays off only for few columns of a large factor.
#: With single-threaded OpenBLAS on a 2-vCPU x86-64 VM (numpy 2.4.6, one-step
#: beta = 1 canonical draws, medians of 12 interleaved blocks), _action_columns
#: took this share of the dense draw's time (random_tangent, normalize_and_scale,
#: geodesic), rising with the columns: 0.52-1.60x at m = 64 (1-4 columns),
#: 0.18-1.39x at m = 96 (1-6), and below m/16 columns 0.09-1.12x at m = 128,
#: 0.04-0.91x at m = 200, 0.02-0.75x at m = 300 and 0.03-0.48x at m = 450. At
#: m/16 columns it took 1.13-1.16x (128), 1.03-1.04x (200), 0.85x (300) and
#: 0.68-0.70x (450): 15-18 blocks are kept at every shape, so there the kept
#: corner is (nearly) the whole generator.
_ACTION_MIN_DIM = 128
_ACTION_COL_RATIO = 16


def _takes_action(dim: int, cols: int) -> bool:
    """Whether a dim x dim factor of which the leading cols columns are used takes the action route.

    True only for dim >= 128 and cols <= dim/16. Such a factor is held as
    those columns X and moved by _action_columns, which draws exp(t A) X
    in Krylov coordinates from X and exponentiates only their kept corner;
    every other factor goes through exp_map's dense exponential.
    """
    return dim >= _ACTION_MIN_DIM and _ACTION_COL_RATIO * cols <= dim


#: Float64 unit roundoff: _krylov_coordinates keeps Krylov blocks until the
#: bound on the neglected tail of exp(t T) E_k falls below it.
_UNIT_ROUNDOFF = 2.0**-53


def _krylov_coordinates(
    dim: int, cols: int, complex_field: bool, beta: float, metric: MetricParams, rng: np.random.Generator
) -> tuple:
    """Block-tridiagonal Krylov coordinates of a random skew generator, and how many blocks to keep.

    For dim x dim normals G and an orthonormal dim x k X, the block
    Householder reduction of G - G* from X is M T M* with M = [X, W, ...]
    unitary. T is block tridiagonal with independent blocks (as in Dumitriu
    & Edelman's tridiagonal models, J. Math. Phys. 43, 2002): D_j = g - g*
    on the diagonal and, below it, R_j, the R factor of a (dim - jk) x k
    Gaussian with the entry variance of G - G*, whose row i holds a chi
    with dim - jk - i degrees of freedom (twice that over the complex
    field) on the diagonal and normals right of it. The draw is D, then
    those normals, then the chi-squares.

    Returns (diag, sub, blocks): the nb = ceil(dim/k) blocks D_j and the
    nb - 1 blocks R_j, zero-padded to k x k where the last block is
    shorter, scaled to alpha-norm sqrt(1 - c) ||T||_F = beta * 0.89 pi as
    normalize_and_scale would at a square base; and the least d <= nb with
    rho^d / d! below unit roundoff, where rho, the largest block-row sum of
    block 2-norms of T at beta = 1, bounds ||T||_2. Dropping the blocks
    past the d-th moves exp(t T) E_k by at most ||R_d|| rho^(d-1) / d!
    <= rho^d / d! for t in [0, 1]. Neither blocks nor the stream depends
    on beta; a zero norm raises as in normalize_and_scale.
    """
    k = cols
    nb = -(-dim // k)
    g = _standard_normal((nb, k, k), complex_field, rng)
    diag = g - g.conj().transpose(0, 2, 1)
    above = _standard_normal((nb - 1, k * (k - 1) // 2), complex_field, rng)
    # rows left below block j, one per row i of R_j, j = 1, ..., nb - 1
    rows = dim - k * np.arange(1, nb)[:, None] - np.arange(k)
    live = rows > 0
    sub = np.zeros_like(diag[1:])
    sub[(slice(None), *np.triu_indices(k, 1))] = above
    chi = np.zeros(rows.shape)
    chi[live] = np.sqrt(rng.chisquare((2 if complex_field else 1) * rows[live]))
    sub[:, np.arange(k), np.arange(k)] = chi
    sub[~live] = 0.0
    # G - G* has entry variance 2 (per part over the complex field), g has 1
    sub *= np.sqrt(2.0)
    last = dim - (nb - 1) * k
    diag[-1, last:] = 0.0
    diag[-1, :, last:] = 0.0
    fro2 = np.linalg.norm(diag) ** 2 + 2.0 * np.linalg.norm(sub) ** 2
    norm = np.sqrt(max(1.0 - metric.weight_coefficient, 0.0) * fro2)
    if norm == 0.0:
        raise ValueError("cannot scale a zero tangent vector to a positive radius")
    scale = INJECTIVITY_RADIUS / norm
    # block 2-norms from the largest eigenvalue of each B* B, clipped so that a zero block gives 0
    both = np.concatenate([diag, sub])
    gram_max = np.linalg.eigvalsh(both.conj().transpose(0, 2, 1) @ both)[:, -1]
    row_sums, sub_norms = np.split(np.sqrt(np.maximum(gram_max, 0.0)), [nb])
    row_sums[1:] += sub_norms
    row_sums[:-1] += sub_norms
    rho = scale * row_sums.max()
    term, blocks = 1.0, 0
    while term > _UNIT_ROUNDOFF and blocks < nb:
        blocks += 1
        term *= rho / blocks
    diag *= beta * scale
    sub *= beta * scale
    return diag, sub, blocks


def _block_tridiagonal(diag: np.ndarray, sub: np.ndarray, size: int) -> np.ndarray:
    """The leading size x size corner of the skew matrix with blocks diag, sub below and -sub* above."""
    nb, k, _ = diag.shape
    t = np.zeros((nb, k, nb, k), dtype=diag.dtype)
    j = np.arange(nb)
    t[j, :, j, :] = diag
    t[j[1:], :, j[:-1], :] = sub[: nb - 1]
    t[j[:-1], :, j[1:], :] = -sub[: nb - 1].conj().transpose(0, 2, 1)
    return t.reshape(nb * k, nb * k)[:size, :size]


def _projected_normals(x: np.ndarray, width: int, rng: np.random.Generator) -> np.ndarray:
    """P = (I - X X*) N for an L x width Gaussian N."""
    n = _standard_normal((x.shape[0], width), np.iscomplexobj(x), rng)
    return n - x @ (_conj_t(x) @ n)


def _action_columns(
    x: np.ndarray, beta: float, metric: MetricParams, rng: np.random.Generator, steps: int = 1
) -> list:
    """exp(t A) X drawn in Krylov coordinates, for a random skew A of alpha-norm beta * 0.89 pi.

    Returns one L x k array per t = 1/steps, ..., 1. At a square base V,
    random_tangent's V exp(skew(V* G)) has the law of exp(A) V for A the
    scaled G - G*, since V* G has the law of G. With A = M T M*
    (_krylov_coordinates), exp(t A) X = M exp(t T) E_k, and by the
    reduction's invariance the frame W past X is Haar in the complement of
    X and independent of T. So only T and the columns of W that the kept
    blocks reach are drawn, and X c1 + W c2 is returned for [c1; c2] =
    exp(t T_d) E_k, one matrix_exp on the kept corner and one solve per t as
    in geodesic, so t = 1 is bitwise the one-step draw. W is never formed:
    W is the Q factor of the projected normals P = W R whose R has a positive
    diagonal (Mezzadri, Notices AMS 54, 2007), so W c2 = P (R^-1 c2). If W's
    w = size - k columns have 2 w <= L - k, R = cholesky(P* P)*, cheap and
    safe as cond(P) stays near 6. Wider frames take R from one Householder
    QR of P, rows phase-fixed: when every block is kept P is square in the
    complement of X, cond(P) has a heavy tail and Cholesky can fail. The
    stream advances alike for every beta; beta = 0 returns X.
    """
    dim, k = x.shape
    diag, sub, blocks = _krylov_coordinates(dim, k, np.iscomplexobj(x), beta, metric, rng)
    size = min(blocks * k, dim)
    p = _projected_normals(x, size - k, rng)
    if beta == 0.0:
        return [x] * steps
    if 2 * (size - k) <= dim - k:
        r = _conj_t(np.linalg.cholesky(_conj_t(p) @ p))
    else:
        r = np.linalg.qr(p, mode="r")
        d = np.diagonal(r)
        r = r * (np.abs(d) / d)[:, None]
    t = _block_tridiagonal(diag[:blocks], sub, size)
    cols = [matrix_exp(step / steps * t)[:, :k] for step in range(1, steps + 1)]
    return [x @ c[:k] + p @ np.linalg.solve(r, c[k:]) for c in cols]


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
    one QR of [U | K] with K = d - U A the normal component, giving the
    exponential of [[A/(a+1), -R*], [R, 0]], of size n + p with
    p = min(n, m - n) (Zimmermann & Hueper, arXiv 2103.12046). Both forms
    multiply exponentials of skew matrices onto U, so the result is
    orthonormal by construction.

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

    alpha = metric.alpha
    a_skew = _conj_t(u) @ delta
    # the metric norm from the one product a_skew, as tangent_norm takes it
    norm = np.sqrt(max(_weighted_inner(delta, delta, metric.weight_coefficient, a_skew, a_skew), 0.0))
    if norm > INJECTIVITY_RADIUS * (1.0 + 1e-9):
        warnings.warn(
            f"tangent norm {norm:.4f} exceeds the injectivity radius "
            f"{INJECTIVITY_RADIUS:.4f}; the retraction may not be injective",
            RuntimeWarning,
            stacklevel=2,
        )

    mu = alpha / (alpha + 1.0)

    if m == n:
        # Orthogonal/unitary group: every alpha-geodesic is the
        # one-parameter subgroup U exp_m(A).
        return _built(StiefelPoint, u @ matrix_exp(a_skew))

    # Householder keeps q[:, n:] orthogonal to U even for a rank-deficient K,
    # and U* K = 0 leaves the dropped r[:n, n:] at rounding level
    q, r = np.linalg.qr(np.hstack([u, delta - u @ a_skew]))
    q, r = q[:, n:], r[n:, n:]
    p = r.shape[0]
    block = np.zeros((n + p, n + p), dtype=np.result_type(a_skew, r))
    block[:n, :n] = a_skew / (alpha + 1.0)
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
