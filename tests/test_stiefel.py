"""Tests for the Stiefel manifold operations."""

import copy
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from conftest import formed_frame, random_stiefel
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
        # alpha = -1 is degenerate; below it c > 1 and the form is indefinite
        for alpha in (-1.0, -1.5, -2.0):
            with pytest.raises(ValueError, match="> -1"):
                MetricParams(alpha)

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

    # the rounding defect of a projection grows with the ambient's norm: 3.9e-9 for 1e5 * G on 50 x 50
    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
    @pytest.mark.parametrize("m, n, complex_field", [(50, 50, False), (60, 7, False), (40, 40, True)])
    def test_projection_passes_at_large_scale(self, scale, m, n, complex_field):
        rng = np.random.default_rng(m + n)
        pt = random_stiefel(m, n, rng, complex_field)
        g = rng.standard_normal((m, n))
        if complex_field:
            g = g + 1j * rng.standard_normal((m, n))
        d = project_to_tangent(pt, scale * g)
        x = pt.matrix.conj().T @ d.delta
        assert np.linalg.norm(x + x.conj().T) < 1e-10 * np.linalg.norm(d.delta)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e5, 1e8])
    @pytest.mark.parametrize("m, n", [(50, 50), (60, 7)])
    def test_symmetric_direction_rejected_at_every_scale(self, scale, m, n):
        # U S with S symmetric is normal to the tangent space: its defect is 2 ||U S||_F
        rng = np.random.default_rng(m * n)
        pt = random_stiefel(m, n, rng)
        s = rng.standard_normal((n, n))
        with pytest.raises(ValueError, match="not a tangent vector"):
            TangentVector(scale * pt.matrix @ (s + s.T), pt)

    def test_defect_bound_is_absolute_up_to_unit_norm(self):
        # one normal defect of 1.5e-10 on a tangent of norm 0.5 and of norm 100
        rng = np.random.default_rng(8)
        pt = random_stiefel(9, 4, rng)
        d = random_tangent(pt, rng).delta
        d = d / np.linalg.norm(d)
        normal = pt.matrix @ np.eye(4) * (1.5e-10 / 4.0)
        with pytest.raises(ValueError, match="not a tangent vector"):
            TangentVector(0.5 * d + normal, pt)
        TangentVector(100.0 * d + normal, pt)

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


class TestSquareTangent:
    """A square factor draws through random_tangent -> normalize_and_scale -> exp_map, as a thin one does.

    The oracle replays the public steps on an (n + 3) x n page, whose U and V are both square
    points on the dense route; the generated matrix and the generator's end state must match bitwise.
    """

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("n", [2, 5, 40, 50])
    @pytest.mark.parametrize("alpha", [-0.5, -0.25, 0.0])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_matches_public_route(self, complex_field, n, alpha, beta):
        r = np.random.default_rng(n)
        mat = r.standard_normal((n + 3, n))
        if complex_field:
            mat = mat + 1j * r.standard_normal((n + 3, n))
        cfg = augment.AugmentConfig(beta_u=beta, beta_v=beta, alpha=alpha)
        rng, public_rng = np.random.default_rng(7), np.random.default_rng(7)
        out = augment.stiefelgen_matrix(mat, cfg, rng)
        u1, s, v1h = np.linalg.svd(mat)
        moved = []
        for pt in (StiefelPoint(u1), StiefelPoint(v1h.conj().T)):
            d = normalize_and_scale(pt, random_tangent(pt, public_rng), beta, cfg.metric)
            moved.append(exp_map(pt, d, cfg.metric).matrix[:, :n])
        assert rng.bit_generator.state == public_rng.bit_generator.state
        assert np.array_equal(out, (moved[0] * s) @ moved[1].conj().T)


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

    def test_rejects_finite_input_whose_powers_overflow(self):
        # ||A^6||_F overflows, so eta is inf; numpy's overflow warnings are silenced to reach the check
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
            matrix_exp(np.array([[0.0, 1e26], [-1e26, 0.0]]))


def _skew_with_one_norm(n: int, complex_field: bool, one_norm: float, rng) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    if complex_field:
        raw = raw + 1j * rng.standard_normal((n, n))
    s = (raw - raw.conj().T) / 2.0
    return s * (one_norm / np.abs(s).sum(axis=0).max())


class TestMatrixExpOracle:
    """The in-package Pade kernel against scipy.linalg.expm."""

    # theta_m of the Pade degrees 3, 5, 7, 9 and 13 (Higham 2005, Table 2.3), written out rather than
    # read from stiefel._PADE so the sweep covers every classic degree boundary, whichever the kernel uses
    THETAS = [1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1, 2.097847961257068,
              5.371920351148152]
    # 1-norms just below and above each theta_m, then up to 50, where squaring runs
    NORMS = [t * f for t in THETAS for f in (0.99, 1.01)] + [12.0, 50.0]

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_planar_rotation_at_each_degree_boundary(self, theta, side):
        # for [[0, w], [-w, 0]], ||A^4||_F^(1/4) = 2^(1/8) w is the eta the kernel measures A by
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

    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("eta", [1.5, 3.0, 6.0, 40.0])
    def test_past_theta_7_squares_the_degree_7_result(self, n, complex_field, eta):
        # one approximant: past theta_7, exp(A) is exp(A / 2^s) squared s times with
        # s = ceil(log2(eta / theta_7)), bit for bit, as scaling by a power of 2 is exact;
        # no eta here lies near a power of 2 times theta_7, so rounding cannot move s
        s = _skew_with_one_norm(n, complex_field, 1.0, np.random.default_rng(n))
        powers = [np.linalg.matrix_power(s, k) for k in (4, 6)]
        s *= eta / max(np.linalg.norm(a) ** (1 / k) for a, k in zip(powers, (4, 6)))
        squarings = math.ceil(math.log2(eta / self.THETAS[2]))
        want = matrix_exp(s / 2.0**squarings)
        for _ in range(squarings):
            want = want @ want
        assert np.array_equal(matrix_exp(s), want)


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


class TestGeodesicColumns:
    """Which factors move as their used columns exp(tA) X and which through the dense exponential."""

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


def krylov_replay(dim, k, complex_field, rng):
    """The unscaled dim x dim T of _krylov_coordinates, rebuilt block by block in its draw order."""
    nb = -(-dim // k)
    dtype = complex if complex_field else float

    def normals(shape):
        if complex_field:
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return rng.standard_normal(shape)

    g = normals((nb, k, k))
    above = normals((nb - 1, k * (k - 1) // 2))
    dof = [dim - j * k - i for j in range(1, nb) for i in range(k) if dim - j * k - i > 0]
    chi = iter(np.sqrt(rng.chisquare((2 if complex_field else 1) * np.array(dof))))
    t = np.zeros((dim, dim), dtype=dtype)
    for j in range(nb):
        lo, hi = j * k, min(dim, (j + 1) * k)
        t[lo:hi, lo:hi] = (g[j] - g[j].conj().T)[: hi - lo, : hi - lo]
        if j == 0:
            continue
        # R_j: the R factor of a (dim - jk) x k Gaussian with the entry variance 2 of G - G*
        r = np.zeros((k, k), dtype=dtype)
        r[np.triu_indices(k, 1)] = above[j - 1]
        for i in range(hi - lo):
            r[i, i] = next(chi)
        r = np.sqrt(2.0) * r[: hi - lo]
        t[lo:hi, lo - k : lo] = r
        t[lo - k : lo, lo:hi] = -r.conj().T
    return t


class TestRandomSkew:
    """The action route's skew generator, drawn as block-tridiagonal Krylov coordinates T."""

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 0.5])
    @pytest.mark.parametrize("beta", [0.3, 1.0])
    def test_matches_public_replay(self, complex_field, alpha, beta):
        # 40 = 13 * 3 + 1: the last block has one row
        dim, k = 40, 3
        metric = MetricParams(alpha)
        rng, replay_rng = np.random.default_rng(17), np.random.default_rng(17)
        diag, sub, blocks = stiefel._krylov_coordinates(dim, k, complex_field, beta, metric, rng)
        raw = krylov_replay(dim, k, complex_field, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        t = stiefel._block_tridiagonal(diag, sub, dim)
        assert np.array_equal(t, -t.conj().T)
        scale = INJECTIVITY_RADIUS / (np.sqrt(1.0 - metric.weight_coefficient) * np.linalg.norm(raw))
        assert np.abs(t - beta * scale * raw).max() < 1e-12
        # carried by any unitary M to A = M T M*, at the identity and at a random square base V as
        # the tangent V (V* A V), the alpha-norm is beta * 0.89 pi
        frame = random_stiefel(dim, dim, np.random.default_rng(4), complex_field).matrix
        a = frame @ t @ frame.conj().T
        eye = StiefelPoint(np.eye(dim, dtype=a.dtype))
        assert abs(tangent_norm(eye, TangentVector(a, eye), metric) - beta * INJECTIVITY_RADIUS) < 1e-12
        pt = random_stiefel(dim, dim, np.random.default_rng(5), complex_field)
        moved = TangentVector(pt.matrix @ (pt.matrix.conj().T @ a @ pt.matrix), pt)
        assert abs(tangent_norm(pt, moved, metric) - beta * INJECTIVITY_RADIUS) < 1e-12
        # the kept blocks do not depend on beta, and bound the neglected tail at beta = 1
        at_one = stiefel._krylov_coordinates(dim, k, complex_field, 1.0, metric, np.random.default_rng(17))
        assert at_one[2] == blocks
        rho = np.linalg.norm(scale * raw, 2)
        assert blocks == -(-dim // k) or rho**blocks / math.factorial(blocks) <= 2.0**-53

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_blocks_have_the_law_of_a_reduced_gaussian(self, complex_field):
        # D_0 = X* A X, R_1 from the positive-diagonal QR of (I - X X*) A X and D_1 = X_1* A X_1
        # for A = G - G*, against the sampler's blocks, both over ||A||_F = ||T||_F
        dim, k, draws = 40, 3, 2000
        rng = np.random.default_rng(71)
        x = random_stiefel(dim, k, rng, complex_field).matrix
        reduced, drawn = np.empty((4, draws)), np.empty((4, draws))
        for i in range(draws):
            g = rng.standard_normal((dim, dim))
            if complex_field:
                g = g + 1j * rng.standard_normal((dim, dim))
            a = g - g.conj().T
            q, r = np.linalg.qr(a @ x - x @ (x.conj().T @ a @ x))
            phase = np.diagonal(r) / np.abs(np.diagonal(r))
            q, r = q * phase, r * phase.conj()[:, None]
            d0, d1 = x.conj().T @ a @ x, q.conj().T @ a @ q
            reduced[:, i] = np.real([d0[1, 0], r[0, 0], r[0, 1], d1[2, 1]]) / np.linalg.norm(a)
            diag, sub, _ = stiefel._krylov_coordinates(dim, k, complex_field, 1.0, CANONICAL, rng)
            t_norm = np.sqrt(np.linalg.norm(diag) ** 2 + 2.0 * np.linalg.norm(sub) ** 2)
            drawn[:, i] = np.real([diag[0, 1, 0], sub[0, 0, 0], sub[0, 0, 1], diag[1, 2, 1]]) / t_norm
        for want, got in zip(reduced, drawn):
            assert scipy.stats.ks_2samp(want, got).pvalue > 1e-3

    def test_beta_zero_is_zero_and_keeps_the_stream(self):
        x = random_stiefel(300, 5, np.random.default_rng(6)).matrix
        rng, replay_rng = np.random.default_rng(8), np.random.default_rng(8)
        out = stiefel._action_columns(x, 0.0, CANONICAL, rng, 3)
        stiefel._action_columns(x, 1.0, CANONICAL, replay_rng, 3)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        assert len(out) == 3 and all(point is x for point in out)
        diag, sub, _ = stiefel._krylov_coordinates(300, 5, False, 0.0, CANONICAL, np.random.default_rng(8))
        assert not np.any(diag) and not np.any(sub)

    def test_raises_as_normalize_and_scale(self, rng):
        pt = random_stiefel(6, 6, rng)
        x = random_stiefel(160, 4, rng).matrix
        # every normal and chi-square is zero, so both routes draw the zero generator
        with pytest.raises(ValueError, match="zero tangent"):
            normalize_and_scale(pt, random_tangent(pt, ZeroDraws()), 0.5)
        with pytest.raises(ValueError, match="zero tangent"):
            stiefel._action_columns(x, 0.5, CANONICAL, ZeroDraws())

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_kept_blocks_are_the_least_that_bound_the_tail(self, complex_field):
        # rho from the SVD 2-norms of the returned blocks at beta = 1; 450 x 5 keeps 14 (real) or 15 of 90
        rng = np.random.default_rng(4)
        diag, sub, blocks = stiefel._krylov_coordinates(450, 5, complex_field, 1.0, CANONICAL, rng)
        row_sums, sub_norms = np.linalg.norm(diag, 2, axis=(1, 2)), np.linalg.norm(sub, 2, axis=(1, 2))
        row_sums[1:] += sub_norms
        row_sums[:-1] += sub_norms
        rho = row_sums.max()
        assert 1 < blocks < 90
        assert rho**blocks / math.factorial(blocks) <= 2.0**-53 < rho ** (blocks - 1) / math.factorial(blocks - 1)


class CountingGenerator:
    """A Generator stand-in that counts the real normals and chi-squares drawn through it."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, shape):
        self.drawn += math.prod(shape)
        return self.rng.standard_normal(shape)

    def chisquare(self, df):
        self.drawn += np.size(df)
        return self.rng.chisquare(df)


class ZeroDraws:
    """A Generator stand-in whose every normal and chi-square is zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)

    def chisquare(self, df):
        return np.zeros(np.shape(df))


class TestKrylovDraw:
    """exp(t A) X drawn in Krylov coordinates against scipy.linalg.expm of the completed generator."""

    # 300 = 42 * 7 + 6 leaves a short last block; alpha = 0, beta = 1 is the largest admissible norm.
    # 128 x 8 and 160 x 10 keep every block, a frame too wide for Cholesky, so R comes from Householder QR.
    @pytest.mark.parametrize("dim, k", [(160, 4), (300, 7), (450, 5), (128, 8), (160, 10)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matches_expm_of_completed_generator(self, dim, k, complex_field):
        x = random_stiefel(dim, k, np.random.default_rng(dim + k), complex_field).matrix
        rng, replay_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = stiefel._action_columns(x, 1.0, CANONICAL, rng, 20)
        diag, sub, blocks = stiefel._krylov_coordinates(dim, k, complex_field, 1.0, CANONICAL, replay_rng)
        w = formed_frame(x, min(blocks * k, dim) - k, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        assert (2 * w.shape[1] > dim - k) == ((dim, k) in [(128, 8), (160, 10)])
        frame = np.hstack([x, w])
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(frame.shape[1])) < 1e-12
        # M = [X, W, W'] with any unitary completion W'; T holds every block, the dropped ones too
        m = np.hstack([frame, scipy.linalg.null_space(frame.conj().T)])
        a = m @ stiefel._block_tridiagonal(diag, sub, dim) @ m.conj().T
        assert abs(np.linalg.norm(a) / np.sqrt(2.0) - INJECTIVITY_RADIUS) < 1e-12
        assert len(got) == 20
        for step, point in enumerate(got, start=1):
            assert np.abs(point - scipy.linalg.expm(step / 20 * a) @ x).max() < 1e-12
            assert np.linalg.norm(point.conj().T @ point - np.eye(k)) < 1e-8

    # 450 x 5 and 200 x 6 take R from cholesky(P* P), the whole-corner 128 x 8 and 160 x 10 from Householder QR
    @pytest.mark.parametrize("dim, k", [(450, 5), (200, 6), (128, 8), (160, 10)])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_frame_applied_implicitly_equals_the_formed_frame(self, dim, k, complex_field):
        # P (R^-1 c2) against W c2 with W the formed phase-fixed Q of P, same normals
        x = random_stiefel(dim, k, np.random.default_rng(dim + k), complex_field).matrix
        rng, replay_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = stiefel._action_columns(x, 1.0, CANONICAL, rng, 3)
        diag, sub, blocks = stiefel._krylov_coordinates(dim, k, complex_field, 1.0, CANONICAL, replay_rng)
        width = min(blocks * k, dim) - k
        w = formed_frame(x, width, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        t = stiefel._block_tridiagonal(diag[:blocks], sub, width + k)
        for step, point in enumerate(got, start=1):
            c = stiefel.matrix_exp(step / 3 * t)[:, :k]
            assert np.abs(point - (x @ c[:k] + w @ c[k:])).max() < 1e-13

    def test_square_frame_takes_householder_r_where_cholesky_breaks_down(self):
        # 128 x 8 keeps every block, so P = (I - X X*) N is square in the complement of X, and its condition
        # number has a heavy tail: 2.3e8 at this seed, one in about 160 000, where cond(P)^2 exceeds 1 / u
        # and cholesky(P* P) raises. R from the Householder QR of P still gives an orthonormal point.
        dim, k, seed = 128, 8, 156248
        x = random_stiefel(dim, k, np.random.default_rng(dim + k)).matrix
        rng, replay_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        (point,) = stiefel._action_columns(x, 1.0, CANONICAL, rng)
        diag, sub, blocks = stiefel._krylov_coordinates(dim, k, False, 1.0, CANONICAL, replay_rng)
        assert blocks * k == dim
        p = stiefel._projected_normals(x, dim - k, copy.deepcopy(replay_rng))
        assert np.linalg.cond(p) > 1e8
        assert np.linalg.norm(point.T @ point - np.eye(k)) < 1e-12
        w = formed_frame(x, dim - k, replay_rng)
        c = stiefel.matrix_exp(stiefel._block_tridiagonal(diag, sub, dim))[:, :k]
        assert np.abs(point - (x @ c[:k] + w @ c[k:])).max() < 1e-13

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("steps", [1, 20])
    def test_draws_below_a_quarter_of_the_dense_normals(self, complex_field, steps):
        # the 450 x 5 block of a 5 x 450 page; the dense draw took 450^2 normals per field part
        x = random_stiefel(450, 5, np.random.default_rng(9), complex_field).matrix
        counting = CountingGenerator(np.random.default_rng(10))
        stiefel._action_columns(x, 1.0, CANONICAL, counting, steps)
        parts = 2 if complex_field else 1
        assert 0 < counting.drawn < parts * 450**2 / 4

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_formed_frame_is_the_positive_qr_of_the_projected_gaussian(self, complex_field):
        x = random_stiefel(200, 6, np.random.default_rng(12), complex_field).matrix
        rng, replay_rng = np.random.default_rng(13), np.random.default_rng(13)
        w = formed_frame(x, 30, rng)
        n = replay_rng.standard_normal((200, 30))
        if complex_field:
            n = n + 1j * replay_rng.standard_normal((200, 30))
        assert w.shape == (200, 30)
        assert np.abs(x.conj().T @ w).max() < 1e-13
        assert np.linalg.norm(w.conj().T @ w - np.eye(30)) < 1e-13
        # (I - X X*) N = W R with R upper triangular and a real positive diagonal (Mezzadri's fix)
        r = w.conj().T @ (n - x @ (x.conj().T @ n))
        assert np.abs(np.tril(r, -1)).max() < 1e-12
        assert np.abs(np.diagonal(r).imag).max() < 1e-12 and np.diagonal(r).real.min() > 0


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


def stiefel_log(u0, u1, tol=1e-13, max_iter=2000):
    """Canonical-metric Riemannian logarithm on St(m, n): the tangent at u0 whose exp_map is u1.

    Zimmermann's algebraic Stiefel logarithm (SIAM J. Matrix Anal. Appl. 38, 2017) with the
    Sylvester-enhanced update of Zimmermann & Hueper (arXiv 2103.12046). With M = u0* u1 and
    u1 - u0 M = Q N, it rotates the completion [X; Y] of the unitary V = [M X; N Y] until logm(V)
    has a zero lower-right block C; then logm(V) = [A -B*; B 0] and the tangent is u0 A + Q B.
    The completion starts where a geodesic with A = 0 would put it: with N = P S W*, at
    Y = P W* M* W P*, so the iteration starts in the basin of the drawn geodesic. Returns None
    when it does not converge.
    """
    n = u0.shape[1]
    m = u0.conj().T @ u1
    q, nmat = np.linalg.qr(u1 - u0 @ m)
    mn = np.vstack([m, nmat])
    comp = scipy.linalg.null_space(mn.conj().T)
    p, _, wh = np.linalg.svd(nmat)
    target = p @ wh @ m.conj().T @ wh.conj().T @ p.conj().T
    left, _, right = np.linalg.svd(comp[n:].conj().T @ target)
    v = np.hstack([mn, comp @ left @ right])
    for _ in range(max_iter):
        log = scipy.linalg.logm(v)
        if not np.iscomplexobj(u0):
            # a real V with an eigenvalue -1 has no real logarithm
            if np.abs(np.imag(log)).max() > 1e-10:
                return None
            log = log.real
        b, c = log[n:, :n], log[n:, n:]
        c = (c - c.conj().T) / 2.0
        if np.linalg.norm(c) < tol:
            return u0 @ log[:n, :n] + q @ b
        s = b @ b.conj().T / 12.0 - 0.5 * np.eye(n)
        g = scipy.linalg.solve_sylvester(s, s, c)
        v[:, n:] = v[:, n:] @ scipy.linalg.expm((g - g.conj().T) / 2.0)
    return None


class TestThinFactorLogarithm:
    """The canonical-metric logarithm of a thin factor's retraction recovers the scaled tangent.

    The factors are those of the forecast workload's complex 400 x 2 and 199 x 2 DMD factors and
    of a rank-3 run on a real 24 x 16 page. A draw that does not round-trip must be a shorter
    geodesic to the same endpoint: a counterexample to the 0.89 pi radius, not a failed log.
    """

    @pytest.mark.parametrize(
        "shape, complex_field, draws",
        [((400, 2), True, 6), ((199, 2), True, 6), ((24, 3), False, 10)],
        ids=["400x2-complex", "199x2-complex", "24x3-rank"],
    )
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_log_recovers_scaled_tangent(self, shape, complex_field, draws, beta):
        rng = np.random.default_rng(2000 + shape[0])
        if complex_field:
            points = [random_stiefel(*shape, rng, True) for _ in range(draws)]
        else:
            page = np.sin(np.linspace(0, 8, 24 * 16)).reshape(24, 16) + 1.5
            points = [augment._Factorization(page, 3).u] * draws
        shorter = 0
        for u in points:
            d = normalize_and_scale(u, random_tangent(u, rng), beta, CANONICAL)
            end = exp_map(u, d).matrix
            log = stiefel_log(u.matrix, end)
            assert log is not None
            if np.abs(log - d.delta).max() < 1e-10:
                continue
            # another geodesic reaches the same endpoint, and it is shorter
            found = TangentVector(log, u)
            assert np.abs(exp_map(u, found).matrix - end).max() < 1e-12
            assert tangent_norm(u, found) < tangent_norm(u, d)
            shorter += 1
        # complex factors carry a U(n) phase: a tangent u A whose skew-Hermitian A puts its norm
        # into one eigen-angle closes after length pi sqrt(2), so beta = 1 draws pass the cut locus
        # (4 of 6 400 x 2 and 5 of 6 199 x 2 draws here, by geodesics of 0.886-0.890 pi against
        # 0.89 pi); real factors and beta = 0.5 round-trip
        assert (shorter > 0) == (complex_field and beta == 1.0)


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
