"""Tests for the multi-sensor novelty workflow."""

import numpy as np
import pytest

from stiefelgen import novelty
from stiefelgen.novelty import (
    adversarial_candidate,
    fit_one_class,
    fit_pca,
    generate_shm_dataset,
    norm_change_ranking,
    perturb_and_track,
    sensor_response,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_shm_dataset(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def pca(dataset):
    return fit_pca(dataset)


@pytest.fixture(scope="module")
def model(pca):
    return fit_one_class(pca.points, nu=0.1, gamma=1e-3)


class TestDataset:
    def test_default_shape(self, dataset):
        assert dataset.observations.shape == (50, 5, 450)
        assert dataset.sample_rate == 50.0
        assert dataset.duration == 9.0

    def test_noiseless_value_at_time_zero(self):
        ds = generate_shm_dataset(
            obs_count=2, rng=np.random.default_rng(1), noise_std=0.0
        )
        # both sinusoids vanish at t=0, leaving only the unit bias
        assert np.abs(ds.observations[:, :, 0] - 1.0).max() < 1e-14

    def test_response_model(self):
        t = np.array([0.25])
        got = sensor_response(t, np.zeros(1))
        want = 4.0 * np.sin(6.0 * np.pi * 0.5) + np.sin(15.0 * np.pi * 0.25)
        assert abs(got[0] - want) < 1e-14

    def test_deterministic(self):
        a = generate_shm_dataset(rng=np.random.default_rng(5))
        b = generate_shm_dataset(rng=np.random.default_rng(5))
        assert np.array_equal(a.observations, b.observations)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            generate_shm_dataset(sensors=0, rng=np.random.default_rng(0))


class TestPca:
    def test_mean_projects_to_origin(self, dataset, pca):
        mean_obs = dataset.observations.mean(axis=0)
        assert np.abs(pca.project(mean_obs)).max() < 1e-8

    def test_reproject_is_identity_on_subspace(self, pca):
        p = np.array([3.2, -1.4])
        assert np.abs(pca.project(pca.reconstruct(p)) - p).max() < 1e-10

    def test_basis_orthonormal(self, pca):
        gram = pca.basis.T @ pca.basis
        assert np.linalg.norm(gram - np.eye(2)) < 1e-10

    def test_points_have_positive_variance(self, pca):
        assert np.var(pca.points, axis=0).min() > 0

    def test_rank_error_on_degenerate_data(self):
        ds = generate_shm_dataset(obs_count=5, rng=np.random.default_rng(2), noise_std=0.0)
        # identical observations: centered matrix is zero
        with pytest.raises(ValueError, match="rank"):
            fit_pca(ds)


class TestOneClass:
    def test_coefficients_sum_to_one(self, model):
        assert abs(model.support_coefficients.sum() - 1.0) < 1e-8

    def test_coefficients_within_box(self, model):
        cap = 1.0 / (0.1 * model.training_points.shape[0])
        assert model.support_coefficients.min() >= -1e-12
        assert model.support_coefficients.max() <= cap + 1e-12

    def test_nu_property_on_default_projection(self, pca, model):
        k = pca.points.shape[0]
        frac = float(np.mean(model.decision(pca.points) < 0))
        assert 0.1 - 2.0 / k <= frac <= 0.1 + 2.0 / k

    def test_unbounded_support_vectors_sit_on_boundary(self, pca, model):
        cap = 1.0 / (0.1 * pca.points.shape[0])
        alpha = model.support_coefficients
        unbounded = (alpha > 1e-8) & (alpha < cap - 1e-8)
        assert np.any(unbounded)
        dec = model.decision(pca.points[unbounded])
        assert np.abs(dec).max() < 1e-4

    def test_kkt_optimality(self, pca, model):
        # convex QP: KKT residual below tolerance certifies the optimum.
        # grad_i = (K alpha)_i must satisfy: >= rho - tol where alpha_i
        # can grow, <= rho + tol where alpha_i can shrink.
        pts = pca.points
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        kernel = np.exp(-model.kernel_gamma * d2)
        grad = kernel @ model.support_coefficients
        cap = 1.0 / (model.nu * pts.shape[0])
        alpha = model.support_coefficients
        up = grad[alpha < cap - 1e-10].min()
        down = grad[alpha > 1e-10].max()
        assert down - up < 1e-6

    def test_rejects_bad_nu(self, pca):
        with pytest.raises(ValueError, match="nu"):
            fit_one_class(pca.points, nu=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        # one bad entry among 50 points used to give offset = inf and a NaN decision everywhere
        pts = np.random.default_rng(2).standard_normal((50, 3))
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_one_class(pts)

    @pytest.mark.parametrize("shape", [(5,), (1, 3), (2, 2, 2)])
    def test_rejects_too_few_or_misshapen_points(self, shape):
        with pytest.raises(ValueError, match="need at least 2 training points"):
            fit_one_class(np.zeros(shape))

    def test_raises_when_the_sweeps_run_out(self, pca, monkeypatch):
        monkeypatch.setattr(novelty, "MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="within 1 sweeps"):
            fit_one_class(pca.points, nu=0.1, gamma=1e-3)

    def test_nu_one_uniform_solution(self, rng):
        pts = rng.standard_normal((10, 2))
        model = fit_one_class(pts, nu=1.0, gamma=0.5)
        assert np.abs(model.support_coefficients - 0.1).max() < 1e-12


class TestPerturbAndTrack:
    def test_beta_zero_path_is_constant(self, dataset, pca, model):
        path, decisions, crossing = perturb_and_track(
            dataset, 0, 0.0, pca, model, np.random.default_rng(3), steps=5
        )
        assert len(path) == 6
        for p in path[1:]:
            assert np.abs(p - path[0]).max() < 1e-8
        if decisions[0] >= 0:
            assert crossing is None

    def test_full_perturbation_path_shape(self, dataset, pca, model):
        path, decisions, crossing = perturb_and_track(
            dataset, 3, 1.0, pca, model, np.random.default_rng(4), steps=20
        )
        assert len(path) == 21 and len(decisions) == 21
        # step 0 projects the untouched observation
        want = pca.project(dataset.observations[3])
        assert np.array_equal(path[0], want)

    def test_crossing_matches_first_negative_decision(self, dataset, pca):
        # linear stand-in decision function with an analytically known
        # first-negative step
        class Linear:
            def decision(self, x):
                return np.atleast_2d(x)[:, :1].sum(axis=1) - 2.0

        path, decisions, crossing = perturb_and_track(
            dataset, 1, 1.0, pca, Linear(), np.random.default_rng(5), steps=10
        )
        negatives = [i for i, d in enumerate(decisions) if d < 0]
        assert crossing == (negatives[0] if negatives else None)

    def test_invalid_index(self, dataset, pca, model):
        with pytest.raises(ValueError, match="obs_index"):
            perturb_and_track(dataset, 50, 0.5, pca, model, np.random.default_rng(0))


class TestRanking:
    def test_identical_points_all_zero(self):
        pts = np.arange(12.0).reshape(4, 3)
        ranking = norm_change_ranking(pts, pts)
        assert [i for i, _ in ranking] == [0, 1, 2, 3]
        assert all(n == 0.0 for _, n in ranking)

    def test_hand_built_order(self):
        before = np.zeros((3, 2))
        after = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        ranking = norm_change_ranking(before, after)
        assert [i for i, _ in ranking] == [1, 2, 0]

    def test_sorted_non_decreasing_and_complete(self, rng):
        before = rng.standard_normal((30, 2))
        after = before + rng.standard_normal((30, 2))
        ranking = norm_change_ranking(before, after)
        norms = [n for _, n in ranking]
        assert all(a <= b for a, b in zip(norms, norms[1:]))
        # every index appears exactly once
        assert sorted(i for i, _ in ranking) == list(range(30))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            norm_change_ranking(np.zeros((3, 2)), np.zeros((4, 2)))


class TestAdversarialCandidate:
    def test_fifty_distinct_entries(self):
        # nearest-rank: ceil(0.85 * 50) = 43 -> threshold at sorted rank
        # 42 (0-based); the first strictly above sits at rank 43
        rng = np.random.default_rng(6)
        norms = np.sort(rng.uniform(0, 10, 50))
        ranking = [(int(i), float(v)) for i, v in enumerate(norms)]
        got = adversarial_candidate(ranking, 85)
        assert got == ranking[43][0]

    def test_all_equal_returns_none(self):
        ranking = [(i, 1.0) for i in range(10)]
        assert adversarial_candidate(ranking, 85) is None

    def test_percentile_fifty_on_one_to_ten(self):
        # values 1..10: threshold = 5, first strictly above is 6
        ranking = [(i, float(i + 1)) for i in range(10)]
        assert adversarial_candidate(ranking, 50) == 5

    def test_empty_ranking(self):
        with pytest.raises(ValueError, match="empty"):
            adversarial_candidate([], 85)

    def test_percentile_range(self):
        with pytest.raises(ValueError, match="percentile"):
            adversarial_candidate([(0, 1.0)], 100)
