"""Hypersphere geometry: the degenerate St(m, 1) case.

A unit vector is a one-column Stiefel point, so a 1-D signal can be
perturbed along great circles in closed form at O(m) cost, with the
signal magnitude playing the role of the single singular value. The
injectivity radius here is pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import TimeSeries, smooth
from .stiefel import _check_integer, _freeze

__all__ = [
    "SPHERE_NORM_TOL",
    "SpherePoint",
    "SphereTangent",
    "sphere_random_tangent",
    "sphere_geodesic",
    "sphere_gen",
]

SPHERE_NORM_TOL = 1e-10

#: Default cap on the sampled tangent norm (pi/6 of a great circle).
DEFAULT_BOUNDARY = np.pi / 6

#: Default moving-average window applied to generated signals.
DEFAULT_SMOOTH_LEN = 20


@dataclass(frozen=True)
class SpherePoint:
    """A unit-norm vector in R^m."""

    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _freeze(self.p, 1, "point", np.float64))
        if abs(np.linalg.norm(self.p) - 1.0) >= SPHERE_NORM_TOL:
            raise ValueError(f"not unit norm: ||p|| = {np.linalg.norm(self.p):.12f}")


@dataclass(frozen=True)
class SphereTangent:
    """A velocity vector orthogonal to its base point."""

    v: np.ndarray
    base: SpherePoint

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", _freeze(self.v, 1, "tangent", np.float64))
        if self.v.shape != self.base.p.shape:
            raise ValueError("tangent shape does not match base point")
        if abs(float(np.dot(self.base.p, self.v))) >= SPHERE_NORM_TOL:
            raise ValueError(f"not tangent: <p, v> = {np.dot(self.base.p, self.v):.3e}")


def sphere_random_tangent(
    base: SpherePoint,
    boundary: float = DEFAULT_BOUNDARY,
    *,
    rng: np.random.Generator,
) -> SphereTangent:
    """Random tangent at base with norm capped at boundary.

    A standard-normal vector is projected via v - <p, v> p and rescaled
    onto the boundary only if its norm exceeds it.
    """
    # a NaN boundary fails this comparison too
    if not boundary > 0:
        raise ValueError(f"boundary must be positive, got {boundary}")
    p = base.p
    v = rng.standard_normal(p.shape[0])
    v = v - np.dot(p, v) * p
    norm = np.linalg.norm(v)
    if norm > boundary:
        v = v * (boundary / norm)
    return SphereTangent(v, base)


def sphere_geodesic(base: SpherePoint, v, t: float = 1.0) -> SpherePoint:
    """Great-circle point gamma(t) = p cos(||v|| t) + (v/||v||) sin(||v|| t).

    v may be a SphereTangent or a raw velocity vector (the formula is
    well defined either way); v = 0 returns the base point.
    """
    vec = v.v if isinstance(v, SphereTangent) else np.asarray(v, dtype=np.float64)
    p = base.p
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        return base
    angle = norm * t
    return SpherePoint(p * np.cos(angle) + (vec / norm) * np.sin(angle))


def sphere_gen(
    signal,
    t: float = 1.0,
    boundary: float = DEFAULT_BOUNDARY,
    smooth_len: int = DEFAULT_SMOOTH_LEN,
    *,
    rng: np.random.Generator,
) -> TimeSeries:
    """Generate a new signal by following a great circle from the input.

    The signal is normalized to unit norm (sigma = ||signal||_2 is the
    1-D singular value), a bounded random tangent is sampled, the great
    circle is followed to time t, the result is rescaled by sigma and
    finally smoothed with a moving average of width smooth_len.
    t = 0 with smooth_len = 1 reproduces the input.

    Raises:
        ValueError: for a non-finite t, a smooth_len that is not an integer >= 1,
            or signals shorter than 2 samples or identically zero.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    _check_integer(smooth_len, "smooth_len", 1)
    series = signal if isinstance(signal, TimeSeries) else TimeSeries(np.asarray(signal, dtype=np.float64))
    values = series.values
    if values.shape[0] < 2:
        raise ValueError("signal must have at least 2 samples")
    sigma = float(np.linalg.norm(values))
    if sigma == 0.0:
        raise ValueError("cannot perturb an identically zero signal")
    base = SpherePoint(values / sigma)
    tangent = sphere_random_tangent(base, boundary, rng=rng)
    moved = sphere_geodesic(base, tangent, t)
    return smooth(TimeSeries(sigma * moved.p), smooth_len)
