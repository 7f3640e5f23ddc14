"""Tests for the Stiefel manifold operations."""

import numpy as np
import pytest
import scipy.linalg

from conftest import random_stiefel
from stiefelgen import augment, stiefel
from stiefelgen.stiefel import (
    CANONICAL,
    EUCLIDEAN,
    INJECTIVITY_RADIUS,
    MetricParams,
    StiefelPoint,
    TangentVector,
    exp_map,
    geodesic,
    inner_product,
    matrix_exp,
    normalize_and_scale,
    project_to_tangent,
    random_tangent,
    tangent_norm,
)


def taylor_expm(s: np.ndarray, terms: int = 60) -> np.ndarray:
    """Truncated Taylor oracle with input scaling-and-squaring.

    Independent of the production path: scale s by 2^-k until the norm
    is small, sum the series, square back.
    """
    norm = np.linalg.norm(s)
    k = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    a = s / (2.0**k)
    out = np.eye(s.shape[0], dtype=s.dtype)
    term = np.eye(s.shape[0], dtype=s.dtype)
    for j in range(1, terms + 1):
        term = term @ a / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


class TestTypes:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            StiefelPoint(np.ones((4, 2)))

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError, match="m >= n"):
            StiefelPoint(np.eye(2, 3))

    def test_rejects_non_finite(self):
        bad = np.eye(3, 2)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            StiefelPoint(bad)

    def test_tangent_rejects_non_tangent(self, rng):
        pt = random_stiefel(5, 2, rng)
        with pytest.raises(ValueError, match="tangent"):
            TangentVector(np.ones((5, 2)), pt)
        # U*delta = [[0, i], [-i, 0]] is Hermitian: X + X^T vanishes, X + X* does not
        cpt = random_stiefel(5, 2, rng, True)
        with pytest.raises(ValueError, match="tangent"):
            TangentVector(cpt.matrix @ np.array([[0, 1j], [-1j, 0]]), cpt)

    def test_tangent_rejects_non_finite(self, rng):
        pt = random_stiefel(5, 2, rng)
        with pytest.raises(ValueError, match="tangent"):
            TangentVector(np.full((5, 2), np.nan), pt)

    def test_tangent_rejects_shape_mismatch(self, rng):
        pt = random_stiefel(5, 2, rng)
        with pytest.raises(ValueError, match="shape"):
            TangentVector(np.zeros((4, 2)), pt)

    def test_metric_rejects_alpha_minus_one(self):
        with pytest.raises(ValueError):
            MetricParams(-1.0)

    def test_point_is_immutable(self, rng):
        pt = random_stiefel(4, 2, rng)
        with pytest.raises(ValueError):
            pt.matrix[0, 0] = 2.0


class TestProjectToTangent:
    def test_idempotent(self, rng):
        pt = random_stiefel(7, 3, rng)
        first = project_to_tangent(pt, rng.standard_normal((7, 3)))
        second = project_to_tangent(pt, first.delta)
        assert np.abs(second.delta - first.delta).max() < 1e-12

    def test_base_matrix_maps_to_zero(self, rng):
        pt = random_stiefel(6, 4, rng)
        assert np.abs(project_to_tangent(pt, pt.matrix).delta).max() < 1e-14

    def test_tangency_condition(self):
        rng = np.random.default_rng(7)
        pt = random_stiefel(6, 3, rng)
        d = project_to_tangent(pt, rng.standard_normal((6, 3)))
        defect = d.delta.T @ pt.matrix + pt.matrix.T @ d.delta
        assert np.linalg.norm(defect) < 1e-10

    def test_shape_mismatch(self, rng):
        pt = random_stiefel(6, 3, rng)
        with pytest.raises(ValueError, match="shape"):
            project_to_tangent(pt, np.zeros((5, 3)))


class TestRandomTangent:
    def test_deterministic_per_seed(self, rng):
        pt = random_stiefel(6, 3, rng)
        d1 = random_tangent(pt, np.random.default_rng(99))
        d2 = random_tangent(pt, np.random.default_rng(99))
        assert np.array_equal(d1.delta, d2.delta)

    @pytest.mark.parametrize("m,n,complex_field", [(6, 3, False), (5, 5, False), (7, 2, True)])
    def test_satisfies_invariant(self, m, n, complex_field):
        rng = np.random.default_rng(3)
        pt = random_stiefel(m, n, rng, complex_field)
        d = random_tangent(pt, rng)
        defect = d.delta.conj().T @ pt.matrix + pt.matrix.conj().T @ d.delta
        assert np.linalg.norm(defect) < 1e-10

    def test_orthogonal_group_skew_zero_diagonal(self):
        rng = np.random.default_rng(11)
        pt = random_stiefel(4, 4, rng)
        d = random_tangent(pt, rng)
        a = pt.matrix.T @ d.delta
        assert np.all(np.abs(np.diag(a)) < 1e-14)
        assert np.all(np.abs(a + a.T) < 1e-13)

    def test_parameterization_with_skew_and_arbitrary_term(self):
        # U A + (I - U U*) T is tangent for skew A and any T
        rng = np.random.default_rng(21)
        for m, n in [(6, 3), (9, 4), (5, 5)]:
            u = random_stiefel(m, n, rng).matrix
            raw = rng.standard_normal((n, n))
            a = raw - raw.T
            t = rng.standard_normal((m, n))
            delta = u @ a + (np.eye(m) - u @ u.T) @ t
            defect = delta.T @ u + u.T @ delta
            assert np.linalg.norm(defect) < 1e-12


class TestInnerProduct:
    def test_euclidean_alpha_equals_trace_product(self, rng):
        pt = random_stiefel(8, 3, rng)
        d1 = random_tangent(pt, rng)
        d2 = random_tangent(pt, rng)
        got = inner_product(pt, d1, d2, EUCLIDEAN)
        want = float(np.trace(d1.delta.T @ d2.delta))
        assert abs(got - want) < 1e-12

    def test_canonical_on_square_base_is_half_trace(self, rng):
        pt = random_stiefel(5, 5, rng)
        d1 = random_tangent(pt, rng)
        d2 = random_tangent(pt, rng)
        got = inner_product(pt, d1, d2, CANONICAL)
        want = 0.5 * float(np.trace(d1.delta.T @ d2.delta))
        assert abs(got - want) < 1e-12

    def test_canonical_on_sphere_case(self, rng):
        # The half weighting acts on the A-component U*d of a tangent.
        # A real sphere tangent has A = 0 by skew-symmetry, so its
        # canonical product equals the full trace product (this is what
        # keeps the n=1 norm consistent with great-circle arc length);
        # a complex phase-direction tangent is pure A-component, so
        # there the half factor shows up exactly.
        pt = random_stiefel(9, 1, rng)
        d1 = random_tangent(pt, rng)
        d2 = random_tangent(pt, rng)
        got = inner_product(pt, d1, d2, CANONICAL)
        want = float(np.trace(d1.delta.T @ d2.delta))
        assert abs(got - want) < 1e-12

        cpt = random_stiefel(9, 1, rng, complex_field=True)
        phase = TangentVector(1.7j * cpt.matrix, cpt)
        got = inner_product(cpt, phase, phase, CANONICAL)
        want = 0.5 * float(np.real(np.trace(phase.delta.conj().T @ phase.delta)))
        assert abs(got - want) < 1e-12

    def test_symmetric_and_bilinear(self, rng):
        pt = random_stiefel(7, 3, rng)
        d1 = random_tangent(pt, rng)
        d2 = random_tangent(pt, rng)
        assert inner_product(pt, d1, d2) == pytest.approx(inner_product(pt, d2, d1), abs=1e-14)
        scaled = TangentVector(2.5 * d1.delta, pt)
        assert inner_product(pt, scaled, d2) == pytest.approx(
            2.5 * inner_product(pt, d1, d2), rel=1e-12
        )

    def test_positive_on_nonzero_tangents(self, rng):
        for alpha in (-0.9, -0.5, 0.0, 1.0, 5.0):
            pt = random_stiefel(6, 3, rng)
            d = random_tangent(pt, rng)
            assert inner_product(pt, d, d, MetricParams(alpha)) > 0

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0])
    def test_norm_is_root_of_self_product_bitwise(self, rng, alpha):
        pt = random_stiefel(9, 4, rng, complex_field=True)
        d = random_tangent(pt, rng)
        metric = MetricParams(alpha)
        assert tangent_norm(pt, d, metric) == np.sqrt(inner_product(pt, d, d, metric))

    def test_anchor_mismatch_raises(self, rng):
        pt1 = random_stiefel(6, 3, rng)
        pt2 = random_stiefel(6, 3, rng)
        d1 = random_tangent(pt1, rng)
        d2 = random_tangent(pt2, rng)
        with pytest.raises(ValueError, match="base"):
            inner_product(pt1, d1, d2)


class TestNormalizeAndScale:
    def test_beta_zero_gives_zero_tangent(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 0.0)
        assert not np.any(d.delta)

    def test_beta_one_hits_injectivity_radius(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 1.0)
        assert tangent_norm(pt, d) == pytest.approx(0.89 * np.pi, abs=1e-10)
        assert tangent_norm(pt, d) == pytest.approx(2.7960, abs=1e-3)

    @pytest.mark.parametrize("beta", [0.25, 0.4, 0.5, 1.0])
    def test_norm_scales_linearly(self, beta, rng):
        pt = random_stiefel(10, 4, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), beta)
        assert abs(tangent_norm(pt, d) - beta * INJECTIVITY_RADIUS) < 1e-10

    def test_beta_point_four_is_0356_pi(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 0.4)
        assert tangent_norm(pt, d) == pytest.approx(0.356 * np.pi, abs=1e-10)

    def test_out_of_range_beta(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = random_tangent(pt, rng)
        with pytest.raises(ValueError, match="beta"):
            normalize_and_scale(pt, d, 1.5)
        with pytest.raises(ValueError, match="beta"):
            normalize_and_scale(pt, d, -0.1)

    def test_zero_tangent_with_positive_beta(self, rng):
        pt = random_stiefel(6, 3, rng)
        zero = TangentVector(np.zeros((6, 3)), pt)
        with pytest.raises(ValueError, match="zero tangent"):
            normalize_and_scale(pt, zero, 0.5)


class TestMatrixExp:
    def test_exp_of_zero_is_identity(self):
        assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))

    def test_planar_rotation(self):
        theta = np.pi / 3
        s = np.array([[0.0, theta], [-theta, 0.0]])
        want = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        assert np.abs(matrix_exp(s) - want).max() < 1e-14

    def test_against_taylor_oracle(self):
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((5, 5))
        s = raw - raw.T
        assert np.abs(matrix_exp(s) - taylor_expm(s)).max() < 1e-12

    def test_complex_skew_hermitian_against_oracle(self):
        rng = np.random.default_rng(18)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        s = raw - raw.conj().T
        assert np.abs(matrix_exp(s) - taylor_expm(s)).max() < 1e-12

    def test_skew_input_gives_orthogonal_output(self):
        rng = np.random.default_rng(19)
        raw = rng.standard_normal((6, 6))
        s = raw - raw.T
        e = matrix_exp(s)
        assert np.linalg.norm(e.T @ e - np.eye(6)) < 1e-10

    def test_rejects_non_finite(self):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            matrix_exp(bad)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exp(np.zeros((3, 4)))


def _skew_with_one_norm(n: int, complex_field: bool, one_norm: float, rng) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    if complex_field:
        raw = raw + 1j * rng.standard_normal((n, n))
    s = (raw - raw.conj().T) / 2.0
    return s * (one_norm / np.abs(s).sum(axis=0).max())


class TestMatrixExpOracle:
    """The in-package Pade kernel against scipy.linalg.expm."""

    THETAS = [theta for theta, _ in stiefel._PADE.values()]
    # 1-norms just below and above each theta_m, then up to 50, where squaring runs
    NORMS = [t * f for t in THETAS for f in (0.99, 1.01)] + [12.0, 50.0]

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_planar_rotation_at_each_degree_boundary(self, theta, side):
        # for [[0, w], [-w, 0]], ||A^4||_F^(1/4) = 2^(1/8) w is the norm the degree is chosen by
        w = side * theta / 2.0 ** (1 / 8)
        want = np.array([[np.cos(w), np.sin(w)], [-np.sin(w), np.cos(w)]])
        assert np.abs(matrix_exp(np.array([[0.0, w], [-w, 0.0]])) - want).max() < 1e-15

    # a real 1 x 1 skew matrix is zero, which test_exp_of_zero_is_identity covers
    @pytest.mark.parametrize("n, complex_field", [(1, True)] + [
        (n, c) for n in (2, 4, 5, 40, 50, 128, 450) for c in (False, True)
    ])
    def test_skew_input(self, n, complex_field):
        rng = np.random.default_rng(n)
        for norm in self.NORMS:
            s = _skew_with_one_norm(n, complex_field, norm, rng)
            got, want = matrix_exp(s), scipy.linalg.expm(s)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), norm
            assert np.linalg.norm(got.conj().T @ got - np.eye(n)) < 1e-10, norm

    @pytest.mark.parametrize("scale", [0.01, 1.0, 5.0, 30.0])
    def test_general_non_normal_input(self, scale):
        rng = np.random.default_rng(30)
        s = scale * (rng.standard_normal((30, 30)) / np.sqrt(30) + np.triu(rng.standard_normal((30, 30)), 1))
        got, want = matrix_exp(s), scipy.linalg.expm(s)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_integer_input_gives_floats(self):
        s = np.array([[0, 1], [-1, 0]])
        assert np.abs(matrix_exp(s) - scipy.linalg.expm(s.astype(float))).max() < 1e-15

    def test_empty_matrix(self):
        assert matrix_exp(np.zeros((0, 0))).shape == (0, 0)


class TestExpMap:
    def test_zero_tangent_returns_base(self, rng):
        pt = random_stiefel(6, 3, rng)
        zero = TangentVector(np.zeros((6, 3)), pt)
        assert exp_map(pt, zero) is pt

    def test_identity_base_planar_rotation(self):
        theta = 0.7
        pt = StiefelPoint(np.eye(2))
        d = TangentVector(np.array([[0.0, theta], [-theta, 0.0]]), pt)
        got = exp_map(pt, d, CANONICAL)
        want = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
        assert np.abs(got.matrix - want).max() < 1e-13

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_matches_geodesic_ode_oracle(self, alpha):
        # RK4 shooting of the auto-parallelism equation, step 1e-4.
        # canonical: Y'' = -Y'Y'^T Y - Y((Y^T Y')^2 + Y'^T Y')
        # euclidean: Y'' = -Y (Y'^T Y')
        rng = np.random.default_rng(42)
        metric = MetricParams(alpha)
        pt = random_stiefel(8, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 0.1, metric)
        end = exp_map(pt, d, metric)

        if alpha == 0.0:
            def acc(y, v):
                return -v @ v.T @ y - y @ ((y.T @ v) @ (y.T @ v) + v.T @ v)
        else:
            def acc(y, v):
                return -y @ (v.T @ v)

        y, v = pt.matrix.copy(), d.delta.copy()
        h = 1e-4
        for _ in range(10_000):
            k1y, k1v = v, acc(y, v)
            k2y, k2v = v + 0.5 * h * k1v, acc(y + 0.5 * h * k1y, v + 0.5 * h * k1v)
            k3y, k3v = v + 0.5 * h * k2v, acc(y + 0.5 * h * k2y, v + 0.5 * h * k2v)
            k4y, k4v = v + h * k3v, acc(y + h * k3y, v + h * k3v)
            y = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
            v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        assert np.abs(y - end.matrix).max() < 1e-6

    def test_reduced_and_dense_paths_agree(self):
        # every m > n takes the block form, m >= 2n and n < m < 2n alike;
        # rebuild the dense m x m form from the same definition and compare
        rng = np.random.default_rng(31)
        cases = [(shape, complex_field, alpha) for shape in [(9, 3), (6, 5), (7, 4)]
                 for complex_field in (False, True) for alpha in (0.0, -0.5, 1.5)]
        for shape, complex_field, alpha in cases:
            metric = MetricParams(alpha)
            pt = random_stiefel(*shape, rng, complex_field)
            d = normalize_and_scale(pt, random_tangent(pt, rng), 0.6, metric)
            got = exp_map(pt, d, metric)

            u, delta = pt.matrix, d.delta
            uh, dh = u.conj().T, delta.conj().T
            a = uh @ delta
            c = (2.0 * alpha + 1.0) / (alpha + 1.0)
            s = -c * (u @ a) @ uh + delta @ uh - u @ dh
            dense = taylor_expm(s) @ u @ taylor_expm(alpha / (alpha + 1.0) * a)
            assert np.abs(got.matrix - dense).max() < 1e-11

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_orthonormality_randomized(self, complex_field):
        rng = np.random.default_rng(5)
        shapes = [(4, 2), (10, 4), (12, 12), (6, 5)]
        for trial in range(30):
            m, n = shapes[trial % len(shapes)]
            alpha = [-0.5, 0.0, 2.0][trial % 3]
            beta = [0.1, 0.5, 1.0][trial % 3]
            pt = random_stiefel(m, n, rng, complex_field)
            metric = MetricParams(alpha)
            d = normalize_and_scale(pt, random_tangent(pt, rng), beta, metric)
            out = exp_map(pt, d, metric).matrix
            defect = out.conj().T @ out - np.eye(n)
            assert np.linalg.norm(defect) < 1e-8

    def test_warns_beyond_injectivity_radius(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 1.0)
        big = TangentVector(1.5 * d.delta, pt)
        with pytest.warns(RuntimeWarning, match="injectivity"):
            exp_map(pt, big)

    def test_no_warning_at_exactly_the_radius(self, rng):
        # beta = 1 deliberately explores the full radius and must not warn
        import warnings

        pt = random_stiefel(6, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exp_map(pt, d)

    def test_degenerate_normal_component_falls_back_to_dense(self, rng):
        # a pure U A tangent has a zero normal component K, and a rank-1 K
        # with a zero first column leaves the QR's leading pivot at rounding
        # level; the block form built from the QR of [U | K] must match the
        # dense form for both
        pt = random_stiefel(8, 3, rng)
        u = pt.matrix
        raw = rng.standard_normal((3, 3))
        a = raw - raw.T
        normal = rng.standard_normal(8)
        normal -= u @ (u.T @ normal)
        weights = np.array([0.0, *rng.standard_normal(2)])
        # Frobenius norm 0.5 keeps the tangent inside the injectivity radius
        rank_one = 0.5 * np.outer(normal / np.linalg.norm(normal), weights / np.linalg.norm(weights))
        for k in (np.zeros((8, 3)), rank_one):
            d = TangentVector(u @ a + k, pt)
            for alpha in (0.0, -0.5, 2.0):
                metric = MetricParams(alpha)
                out = exp_map(pt, d, metric).matrix
                c = (2 * alpha + 1) / (alpha + 1)
                s = -c * (u @ a) @ u.T + d.delta @ u.T - u @ d.delta.T
                want = taylor_expm(s) @ u @ taylor_expm(alpha / (alpha + 1) * a)
                assert np.abs(out - want).max() < 1e-11


def identity_replay(dim, complex_field, beta, metric, rng):
    """The scaled tangent of the public sample -> project -> scale steps at the dim x dim identity.

    At U = I the tangent is its own generator U* delta = skew(G), so this replays _random_skew.
    """
    eye = StiefelPoint(np.eye(dim, dtype=complex if complex_field else float))
    return eye, normalize_and_scale(eye, random_tangent(eye, rng), beta, metric)


class TestGeodesicColumns:
    """The ambient-frame column retraction exp(tA) X against the dense scipy.linalg.expm route."""

    # 24 x 24 with 16 columns lies on the dense side of the switch, 300 x 300 with 5 on the action side
    @pytest.mark.parametrize("m, cols", [(24, 16), (300, 5)])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("steps", [1, 20])
    def test_matches_dense_expm_oracle(self, m, cols, complex_field, steps):
        # steps=20 is the 21-point grid t = 0, 1/20, ..., 1 (t = 0 is not returned)
        rng = np.random.default_rng(m + cols)
        pt = random_stiefel(m, m, rng, complex_field)
        x = pt.matrix[:, :cols]
        a = stiefel._random_skew(m, complex_field, 1.0, CANONICAL, rng)
        got = stiefel._geodesic_columns(x, a, steps)
        assert len(got) == steps
        for step, point in enumerate(got, start=1):
            want = scipy.linalg.expm(step / steps * a) @ x
            assert point.shape == (m, cols)
            assert np.abs(point - want).max() < 1e-12
            assert np.linalg.norm(point.conj().T @ point - np.eye(cols)) < 1e-8
        # the same columns as exp_map's square route for the tangent V (V* A V)
        d = TangentVector(pt.matrix @ (pt.matrix.conj().T @ a @ pt.matrix), pt)
        assert np.abs(got[-1] - exp_map(pt, d).matrix[:, :cols]).max() < 1e-12

    # a cols x m page's V is m x m with cols used columns; a thin m x n factor with n < m
    # is the leading n columns of a rank-n run on an m x 2n page
    @pytest.mark.parametrize(
        "m, n, cols, action",
        [(24, 24, 16, False), (300, 300, 5, True), (100, 100, 5, False), (300, 300, 40, False),
         (128, 128, 8, True), (128, 128, 9, False), (300, 5, 5, False)],
    )
    def test_switch_depends_only_on_shape(self, m, n, cols, action):
        page = np.random.default_rng(3).standard_normal((cols, m) if m == n else (m, 2 * n))
        fac = augment._Factorization(page, None if m == n else n)
        factor = fac.v if m == n else fac.u
        assert isinstance(factor, np.ndarray) is action
        assert np.shape(getattr(factor, "matrix", factor)) == (m, cols if action else n)
        if m == n:
            assert stiefel._takes_action(m, cols) is action

    # beta = 1 draws: ||A||_F is 2.8, 4.0 and 7.9 at alpha = -0.5, 0 and 3
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 3.0])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("steps", [1, 20])
    def test_taylor_action_at_drawn_norms(self, alpha, complex_field, steps):
        rng = np.random.default_rng(450)
        x = random_stiefel(450, 5, rng, complex_field).matrix
        metric = MetricParams(alpha)
        a = stiefel._random_skew(450, complex_field, 1.0, metric, rng)
        want_fro = INJECTIVITY_RADIUS / np.sqrt(1.0 - metric.weight_coefficient)
        assert abs(np.linalg.norm(a) - want_fro) < 1e-12
        got = stiefel._geodesic_columns(x, a, steps)
        assert len(got) == steps
        for step in sorted({1, (steps + 1) // 2, steps}):
            want = scipy.linalg.expm(step / steps * a) @ x
            assert np.abs(got[step - 1] - want).max() < 1e-12
            assert np.linalg.norm(got[step - 1].conj().T @ got[step - 1] - np.eye(5)) < 1e-10

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("steps", [1, 20])
    def test_taylor_action_at_largest_spectral_radius(self, complex_field, steps):
        # drawn generators have ||A||_2 far below ||A||_F / sqrt(2); a plane rotation reaches it,
        # and a complex rank-one generator reaches ||A||_F
        rng = np.random.default_rng(451)
        x = random_stiefel(450, 5, rng, complex_field).matrix
        q = random_stiefel(450, 2, rng, complex_field).matrix
        if complex_field:
            a = 7.9j * np.outer(q[:, 0], q[:, 0].conj())
        else:
            a = 7.9 / np.sqrt(2.0) * (np.outer(q[:, 0], q[:, 1]) - np.outer(q[:, 1], q[:, 0]))
        got = stiefel._geodesic_columns(x, a, steps)
        for step in sorted({1, (steps + 1) // 2, steps}):
            want = scipy.linalg.expm(step / steps * a) @ x
            assert np.abs(got[step - 1] - want).max() < 1e-12

    def test_zero_tangent_returns_base_columns(self, rng):
        x = random_stiefel(300, 5, rng).matrix
        for point in stiefel._geodesic_columns(x, np.zeros((300, 300)), 4):
            assert np.array_equal(point, x)


class TestRandomSkew:
    """The ambient skew draw against the public sample -> project -> scale replay at the identity."""

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5])
    @pytest.mark.parametrize("beta", [0.3, 1.0])
    def test_matches_public_replay(self, complex_field, alpha, beta):
        metric = MetricParams(alpha)
        rng, replay_rng = np.random.default_rng(17), np.random.default_rng(17)
        a = stiefel._random_skew(40, complex_field, beta, metric, rng)
        eye, d = identity_replay(40, complex_field, beta, metric, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        assert np.array_equal(a, -a.conj().T)
        assert np.abs(a - d.delta).max() < 1e-12
        assert abs(tangent_norm(eye, TangentVector(a, eye), metric) - beta * INJECTIVITY_RADIUS) < 1e-12
        # carried to any square base V as V (V* A V), the norm is the same
        pt = random_stiefel(40, 40, np.random.default_rng(5), complex_field)
        moved = TangentVector(pt.matrix @ (pt.matrix.conj().T @ a @ pt.matrix), pt)
        assert abs(tangent_norm(pt, moved, metric) - beta * INJECTIVITY_RADIUS) < 1e-12

    def test_beta_zero_is_zero_and_keeps_the_stream(self):
        rng, replay_rng = np.random.default_rng(8), np.random.default_rng(8)
        a = stiefel._random_skew(300, False, 0.0, CANONICAL, rng)
        identity_replay(300, False, 0.0, CANONICAL, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        assert not np.any(a)
        x = random_stiefel(300, 5, np.random.default_rng(6)).matrix
        for point in stiefel._geodesic_columns(x, a, 3):
            assert np.array_equal(point, x)

    def test_raises_as_normalize_and_scale(self, rng):
        pt = random_stiefel(6, 6, rng)
        # alpha < -1 gives c > 1, where the metric norm of every U A tangent clips to zero
        with pytest.raises(ValueError, match="zero tangent"):
            normalize_and_scale(pt, random_tangent(pt, rng), 0.5, MetricParams(-2.0))
        with pytest.raises(ValueError, match="zero tangent"):
            stiefel._random_skew(6, False, 0.5, MetricParams(-2.0), rng)


class TestSquareFactorLogarithm:
    """At beta = 1 the principal logarithm of U* U2 recovers the drawn generator A = U* delta.

    The square factors are those of the acceptance pages 4 x 2, 10 x 4, 50 x 40 and 20 x 20.
    logm returns the generator whose eigen-angles lie in (-pi, pi), so A is recovered exactly
    when the retraction stays injective along the draw.
    """

    @pytest.mark.parametrize("dim", [2, 4, 10, 20, 40, 50])
    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_logm_recovers_generator_below_pi(self, dim, alpha, complex_field):
        rng = np.random.default_rng(1000 + dim)
        metric = MetricParams(alpha)
        past_pi = 0
        for _ in range(100 if dim <= 4 else 10):
            u = random_stiefel(dim, dim, rng, complex_field)
            d = normalize_and_scale(u, random_tangent(u, rng), 1.0, metric)
            a = u.matrix.conj().T @ d.delta
            log = scipy.linalg.logm(u.matrix.conj().T @ exp_map(u, d, metric).matrix)
            if np.abs(np.linalg.eigvals(a)).max() < np.pi:
                assert np.abs(log - a).max() < 1e-12
            else:
                # the endpoint is reached by a shorter generator, so beta no longer orders by distance
                past_pi += 1
                assert np.linalg.norm(log) < np.linalg.norm(a)
        # ||A||_F = 0.89 pi / sqrt(1 - c). A real skew A has ||A||_2 <= ||A||_F / sqrt(2) < pi for
        # every alpha <= 0; a complex one only ||A||_2 <= ||A||_F, below pi for alpha < -0.37. The
        # counterexamples sit on complex 2 x 2 and 4 x 4 factors (46 and 82 of 100 2 x 2 draws
        # at alpha -0.25 and 0); from 10 x 10 on the largest eigen-angle stays below 0.9 pi
        assert (past_pi > 0) == (complex_field and alpha > -0.5 and dim <= 4)


class TestGeodesic:
    def test_t_zero_is_base(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = random_tangent(pt, rng)
        assert geodesic(pt, d, 0.0) is pt

    def test_t_one_matches_exp_map(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 0.5)
        a = geodesic(pt, d, 1.0)
        b = exp_map(pt, d)
        assert np.array_equal(a.matrix, b.matrix)

    def test_interior_points_stay_on_manifold(self):
        rng = np.random.default_rng(8)
        pt = random_stiefel(10, 4, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 0.9)
        for t in np.arange(0.1, 1.0, 0.1):
            out = geodesic(pt, d, float(t)).matrix
            assert np.linalg.norm(out.T @ out - np.eye(4)) < 1e-8

    def test_warns_outside_unit_interval(self, rng):
        pt = random_stiefel(6, 3, rng)
        d = normalize_and_scale(pt, random_tangent(pt, rng), 0.2)
        with pytest.warns(RuntimeWarning, match="outside"):
            geodesic(pt, d, 1.5)


class TestTrustedValues:
    """Values the package builds without a check pass the public checking constructors."""

    # square, block with p = n, block with p = m - n < n
    @pytest.mark.parametrize("m, n", [(6, 6), (9, 3), (7, 4)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_scaled_tangents_and_retractions_recheck(self, m, n, complex_field):
        rng = np.random.default_rng(10 * m + n)
        pt = random_stiefel(m, n, rng, complex_field)
        for metric in (CANONICAL, EUCLIDEAN):
            for beta in (0.0, 0.5, 1.0):
                d = normalize_and_scale(pt, random_tangent(pt, rng), beta, metric)
                TangentVector(d.delta, pt)
                StiefelPoint(exp_map(pt, d, metric).matrix)
                for t in (0.25, 0.5, 0.75):
                    TangentVector(d.scaled(t).delta, pt)
                    StiefelPoint(geodesic(pt, d, t, metric).matrix)
