"""Shared helpers for the test suite."""

import numpy as np
import pytest

from stiefelgen import stiefel
from stiefelgen.stiefel import StiefelPoint


def _positive_q(a: np.ndarray) -> np.ndarray:
    """The Q factor of a = Q R with the phases fixed so that R has a positive diagonal."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def random_stiefel(m: int, n: int, rng: np.random.Generator, complex_field: bool = False) -> StiefelPoint:
    """Random point on St(m, n) via QR of a Gaussian matrix."""
    if complex_field:
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    else:
        a = rng.standard_normal((m, n))
    return StiefelPoint(_positive_q(a))


def formed_frame(x: np.ndarray, width: int, rng: np.random.Generator) -> np.ndarray:
    """The Haar frame W past the columns of x that stiefel._action_columns applies implicitly, formed.

    The phase-fixed Q factor of the projected normals P = (I - X X*) N = W R drawn from the
    same stream (Mezzadri, Notices AMS 54, 2007).
    """
    return _positive_q(stiefel._projected_normals(x, width, rng))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
