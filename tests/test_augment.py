"""Tests for the generation pipeline."""

import copy
import functools
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from conftest import formed_frame
from stiefelgen import augment, stiefel
from stiefelgen.augment import (
    AugmentConfig,
    ambient_perturb,
    batch_generate,
    geodesic_path,
    stiefelgen_matrix,
    stiefelgen_series,
)
from stiefelgen.dmd import ensemble_forecast, fit_dmd, perturbed_fit, slice_ensemble, synth_spatiotemporal
from stiefelgen.novelty import fit_one_class, fit_pca, generate_shm_dataset, perturb_and_track
from stiefelgen.signal import TimeSeries, smooth, to_page_matrix
from stiefelgen.sphere import sphere_gen
from stiefelgen.stiefel import (
    CANONICAL,
    INJECTIVITY_RADIUS,
    StiefelPoint,
    TangentVector,
    exp_map,
    geodesic,
    normalize_and_scale,
    random_tangent,
    tangent_norm,
)


def steam_like(n=2000):
    """Deterministic mildly noisy mixed-sine fixture."""
    t = np.arange(n) * 0.01
    drift = 0.3 * np.sin(0.05 * t)
    noise = np.random.default_rng(2024).standard_normal(n) * 0.1
    return TimeSeries(5.0 + np.sin(1.7 * t) + 0.5 * np.sin(6.1 * t) + drift + noise)


def sine_matrix(m=24, n=16):
    t = np.linspace(0, 8, m * n)
    return np.sin(t).reshape(m, n) + 1.5


def input_factors(mat, thin=False):
    """The input's (U1, sigma, V1), k = min(m, n) columns per side, from the SVD the program takes.

    Action pages take the thin SVD, every other page the full one; the leading columns of the
    two may differ in rounding, so a bitwise replay must pick the same one.
    """
    u1, s, v1h = np.linalg.svd(mat, full_matrices=not thin)
    k = s.shape[0]
    return u1[:, :k], s, v1h.conj().T[:, :k]


class TestStiefelgenMatrix:
    def test_beta_zero_is_identity(self, rng):
        mat = sine_matrix()
        out = stiefelgen_matrix(mat, AugmentConfig(), rng)
        assert np.abs(out - mat).max() < 1e-10

    def test_float32_page_comes_back_float64(self, rng):
        # the SVD of a float32 page is float32; handing its factors over casts them, as the constructors do.
        # A diagonal page has exactly orthonormal float32 factors, which the float64 tangency check accepts.
        page = np.vstack([np.diag([4.0, 3.0, 2.0]), np.zeros((2, 3))]).astype(np.float32)
        out = stiefelgen_matrix(page, AugmentConfig(), rng)
        assert out.dtype == np.float64 and np.array_equal(out, page)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    @pytest.mark.parametrize("shape", [(24, 16), (5, 450)])
    def test_single_precision_sine_page_draws_as_its_double_cast(self, shape, dtype):
        # a single-precision SVD gives factors orthonormal to about 1e-6 only, far outside the tangency check;
        # the page is cast first, so its draws are those of the double page (5 x 450 takes the action route)
        mat = sine_matrix(*shape)
        page = (mat + 1j * mat[::-1] if dtype == np.complex64 else mat).astype(dtype)
        double = np.result_type(page, np.float64)
        cfg = AugmentConfig(beta_u=0.5, beta_v=0.5)
        want = stiefelgen_matrix(page.astype(double), cfg, np.random.default_rng(3))
        assert np.array_equal(stiefelgen_matrix(page, cfg, np.random.default_rng(3)), want)
        path = geodesic_path(page, cfg, 2, np.random.default_rng(3))
        assert np.array_equal(path[-1], want) and np.array_equal(path[0], page)
        assert [p.dtype for p in path] == [double] * 3

    @pytest.mark.parametrize("shape", [(6, 4), (10, 10), (4, 9)])
    def test_singular_values_preserved(self, shape, rng):
        mat = np.random.default_rng(7).standard_normal(shape)
        cfg = AugmentConfig(beta_u=0.7, beta_v=0.4)
        out = stiefelgen_matrix(mat, cfg, rng)
        got = np.linalg.svd(out, compute_uv=False)
        want = np.linalg.svd(mat, compute_uv=False)
        assert np.abs(np.sort(got) - np.sort(want)).max() < 1e-8

    def test_complex_input_preserves_singular_values(self, rng):
        r = np.random.default_rng(8)
        mat = r.standard_normal((7, 5)) + 1j * r.standard_normal((7, 5))
        out = stiefelgen_matrix(mat, AugmentConfig(beta_u=0.5, beta_v=0.5), rng)
        got = np.linalg.svd(out, compute_uv=False)
        want = np.linalg.svd(mat, compute_uv=False)
        assert np.abs(got - want).max() < 1e-8

    def test_u_only_leaves_v_untouched(self, rng):
        mat = sine_matrix()
        cfg = AugmentConfig(beta_u=0.4, beta_v=0.0)
        replay_rng = copy.deepcopy(rng)
        out = stiefelgen_matrix(mat, cfg, rng)
        u1, s, v1 = input_factors(mat)
        k = s.shape[0]
        # the V direction collapsed to zero, so the reconstruction uses V1
        # bitwise: replaying the public U retraction reproduces it exactly
        (u_pt, du), (_, dv) = factor_replay(mat, cfg, replay_rng)
        assert not np.any(dv.delta)
        u2 = exp_map(u_pt, du).matrix
        want = (u2[:, :k] * s) @ v1[:, :k].T
        assert np.array_equal(out, want)
        # V-basis quantities are untouched up to rounding
        assert np.abs(out.T @ out - mat.T @ mat).max() < 1e-8

    def test_v_only_leaves_u_untouched(self, rng):
        mat = sine_matrix()
        cfg = AugmentConfig(beta_u=0.0, beta_v=0.4)
        replay_rng = copy.deepcopy(rng)
        out = stiefelgen_matrix(mat, cfg, rng)
        (_, du), _ = factor_replay(mat, cfg, replay_rng)
        assert not np.any(du.delta)
        assert np.abs(out @ out.T - mat @ mat.T).max() < 1e-8

    def test_zero_beta_factor_is_bitwise_base(self, rng):
        # the V direction collapses to zero, the retraction short-circuits
        mat = sine_matrix()
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.0)
        replay_rng = copy.deepcopy(rng)
        out = stiefelgen_matrix(mat, cfg, rng)
        u1, s, v1 = input_factors(mat)
        k = s.shape[0]
        (u_pt, du), (v_pt, dv) = factor_replay(mat, cfg, replay_rng)
        assert not np.any(dv.delta)
        assert exp_map(v_pt, dv) is v_pt
        u2 = exp_map(u_pt, du).matrix
        assert np.array_equal(out, (u2[:, :k] * s) @ v1[:, :k].T)

    def test_deterministic(self):
        mat = sine_matrix()
        cfg = AugmentConfig(beta_u=0.6, beta_v=0.6)
        a = stiefelgen_matrix(mat, cfg, np.random.default_rng(5))
        b = stiefelgen_matrix(mat, cfg, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_rank_mode_keeps_residual_dyads(self, rng):
        mat = sine_matrix(12, 8)
        cfg = AugmentConfig(beta_u=0.5, beta_v=0.5, rank=2)
        out = stiefelgen_matrix(mat, cfg, rng)
        u1, s, v1 = input_factors(mat)
        k = s.shape[0]
        residual_in = (u1[:, 2:k] * s[2:]) @ v1[:, 2:k].T
        # subtracting the perturbed leading part must recover the
        # untouched tail exactly
        perturbed_lead = out - residual_in
        # the perturbed leading part has the leading singular values
        got = np.linalg.svd(perturbed_lead, compute_uv=False)
        assert np.abs(got[:2] - s[:2]).max() < 1e-8

    def test_rank_must_be_below_min_dim(self, rng):
        with pytest.raises(ValueError, match="rank"):
            stiefelgen_matrix(sine_matrix(6, 4), AugmentConfig(rank=4), rng)

    def test_rejects_tiny_matrix(self, rng):
        with pytest.raises(ValueError, match="min"):
            stiefelgen_matrix(np.ones((1, 5)), AugmentConfig(), rng)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="beta_u"):
            AugmentConfig(beta_u=1.2)
        with pytest.raises(ValueError, match="smooth"):
            AugmentConfig(smooth_len=0)
        for alpha in (-1.0, -0.51, 0.5, np.nan):
            with pytest.raises(ValueError, match="alpha"):
                AugmentConfig(alpha=alpha)


def beta_callers():
    """Each entry point that takes a step scale, as (name in its message, call with that scale)."""
    base = StiefelPoint(np.eye(4, 2))
    tangent = random_tangent(base, np.random.default_rng(0))
    snaps = synth_spatiotemporal(np.linspace(-10.0, 10.0, 30), np.linspace(0.0, 4.0 * np.pi, 20))
    return {
        "AugmentConfig(beta_u)": ("beta_u", lambda beta, rng: AugmentConfig(beta_u=beta)),
        "AugmentConfig(beta_v)": ("beta_v", lambda beta, rng: AugmentConfig(beta_v=beta)),
        "normalize_and_scale": ("beta", lambda beta, rng: normalize_and_scale(base, tangent, beta)),
        "perturbed_fit": ("beta", lambda beta, rng: perturbed_fit(snaps, 2, beta, rng)),
        "ensemble_forecast": ("beta", lambda beta, rng: ensemble_forecast(snaps, 2, beta, 3, [0.0, 1.0], rng)),
    }


@pytest.mark.parametrize("beta", [-0.1, 1.5, np.nan])
@pytest.mark.parametrize("caller", sorted(beta_callers()))
def test_one_beta_rule_and_message_everywhere(caller, beta):
    name, call = beta_callers()[caller]
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError) as err:
        call(beta, rng)
    assert str(err.value) == f"{name} must lie in [0, 1], got {beta}"
    # rejected before any member's child stream is spawned, so before a child process is forked
    assert rng.bit_generator.seed_seq.n_children_spawned == 0


def test_a_config_builds_its_metric_once():
    cfg = AugmentConfig(alpha=-0.25)
    assert cfg.metric is cfg.metric and cfg.metric.alpha == -0.25


@functools.cache
def integer_args():
    """Every size and index argument, as caller -> (name, low, high or None, call with a value and a Generator).

    Each call passes for the numpy integer low; the rule is an integer in [low, high).
    """
    snaps = synth_spatiotemporal(np.linspace(-10.0, 10.0, 30), np.linspace(0.0, 4.0 * np.pi, 20))  # DMD rank < 20
    series, cfg, t = TimeSeries(np.arange(40.0)), AugmentConfig(), [0.0]
    shm = generate_shm_dataset(2, 4, rng=np.random.default_rng(0))
    pca = fit_pca(shm)
    model = fit_one_class(pca.points)
    return {
        "smooth(window)": ("window", 1, None, lambda v, rng: smooth(series, v)),
        "to_page_matrix(m)": ("m", 2, None, lambda v, rng: to_page_matrix(series, v)),
        "AugmentConfig(smooth_len)": ("smooth_len", 1, None, lambda v, rng: AugmentConfig(smooth_len=v)),
        "AugmentConfig(rank)": ("rank", 1, None, lambda v, rng: AugmentConfig(rank=v)),
        "_Factorization(rank)": ("rank", 1, 16, lambda v, rng: augment._Factorization(sine_matrix(), v)),
        "geodesic_path(steps)": ("steps", 1, None, lambda v, rng: geodesic_path(sine_matrix(), cfg, v, rng)),
        "batch_generate(count)": ("count", 1, None, lambda v, rng: batch_generate(series, v, 4, cfg, rng)),
        "sphere_gen(smooth_len)": ("smooth_len", 1, None, lambda v, rng: sphere_gen(series, smooth_len=v, rng=rng)),
        "fit_dmd(rank)": ("rank", 1, 20, lambda v, rng: fit_dmd(snaps, v)),
        "perturbed_fit(rank)": ("rank", 1, 20, lambda v, rng: perturbed_fit(snaps, v, 0.2, rng)),
        "ensemble_forecast(rank)": ("rank", 1, 20, lambda v, rng: ensemble_forecast(snaps, v, 0.2, 3, t, rng)),
        "ensemble_forecast(count)": ("count", 1, None, lambda v, rng: ensemble_forecast(snaps, 2, 0.2, v, t, rng)),
        "ensemble_forecast(spatial_index)": (
            "spatial_index", 0, 30, lambda v, rng: ensemble_forecast(snaps, 2, 0.2, 3, t, rng, spatial_index=v)
        ),
        "slice_ensemble(spatial_index)": (
            "spatial_index", 0, 30, lambda v, rng: slice_ensemble(np.zeros((3, 30, 1)), v)
        ),
        "generate_shm_dataset(sensors)": ("sensors", 1, None, lambda v, rng: generate_shm_dataset(v, 4, rng=rng)),
        "generate_shm_dataset(obs_count)": ("obs_count", 1, None, lambda v, rng: generate_shm_dataset(2, v, rng=rng)),
        "perturb_and_track(obs_index)": (
            "obs_index", 0, 4, lambda v, rng: perturb_and_track(shm, v, 0.2, pca, model, rng, steps=1)
        ),
    }


def integer_message(name, low, high, value):
    span = f">= {low}" if high is None else f"in [{low}, {high})"
    return f"{name} must be an integer {span}, got {value}"


@pytest.mark.parametrize("size", [2.0, 2.5])
@pytest.mark.parametrize("name", sorted({name for name, *_ in integer_args().values()}))
def test_a_non_integral_size_is_rejected_by_name(name, size):
    for _, low, high, call in (entry for entry in integer_args().values() if entry[0] == name):
        call(np.int64(low), np.random.default_rng(0))
        with pytest.raises(ValueError) as err:
            call(size, np.random.default_rng(0))
        assert str(err.value) == integer_message(name, low, high, size)


def assert_rejected_before_any_work(caller, value, monkeypatch):
    """The one message, raised with no factorization and no draw from, or spawn of, the caller's Generator."""
    name, low, high, call = integer_args()[caller]

    def factor(*args, **kwargs):
        raise AssertionError("the input was factored before its sizes were checked")

    monkeypatch.setattr(np.linalg, "svd", factor)
    monkeypatch.setattr(np.linalg, "qr", factor)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError) as err:
        call(value, rng)
    assert str(err.value) == integer_message(name, low, high, value)
    assert rng.bit_generator.state == state and rng.bit_generator.seed_seq.n_children_spawned == 0


@pytest.mark.parametrize("size", [2.0, 2.5, True])
@pytest.mark.parametrize("caller", sorted(integer_args()))
def test_a_non_integral_size_is_rejected_before_factoring(caller, size, monkeypatch):
    assert_rejected_before_any_work(caller, size, monkeypatch)


@pytest.mark.parametrize(
    "caller, value",
    [
        (caller, end)
        for caller, (_, low, high, _) in sorted(integer_args().items())
        for end in (low - 1, high)
        if end is not None
    ],
)
def test_an_out_of_range_size_is_rejected(caller, value, monkeypatch):
    assert_rejected_before_any_work(caller, value, monkeypatch)


class TestSeedingAcrossBeta:
    """U, then V, is sampled regardless of the beta values, so the Generator ends in one state."""

    PAGES = {
        "dense-24x16": (sine_matrix(), None),
        "action-5x300": (np.random.default_rng(31).standard_normal((5, 300)), None),
        "rank-3": (sine_matrix(), 3),
    }

    @pytest.mark.parametrize("page", list(PAGES))
    def test_generator_state_does_not_depend_on_beta(self, page):
        mat, rank = self.PAGES[page]
        states = []
        for beta_u, beta_v in itertools.product([0.0, 0.3, 1.0], repeat=2):
            cfg = AugmentConfig(beta_u=beta_u, beta_v=beta_v, rank=rank)
            rng = np.random.default_rng(19)
            stiefelgen_matrix(mat, cfg, rng)
            states.append(rng.bit_generator.state)
            rng = np.random.default_rng(19)
            geodesic_path(mat, cfg, 4, rng)
            states.append(rng.bit_generator.state)
        assert all(state == states[0] for state in states)

    def test_zero_beta_action_block_is_bitwise(self):
        mat = self.PAGES["action-5x300"][0]
        fac = augment._Factorization(mat, None)
        assert fac.v.shape == (300, 5)
        for steps in (1, 4):
            points = augment._factor_path(fac.v, 0.0, CANONICAL, np.random.default_rng(20), fac.cols, steps)
            assert len(points) == steps and all(np.array_equal(point, fac.v) for point in points)
        out = stiefelgen_matrix(mat, AugmentConfig(), np.random.default_rng(20))
        u1, s, v1 = input_factors(mat, thin=True)
        assert np.array_equal(out, (u1 * s) @ v1.conj().T)


class TestStiefelgenSeries:
    def test_identity_at_beta_zero(self):
        series = steam_like()
        out = stiefelgen_series(series, 50, AugmentConfig(), np.random.default_rng(0))
        assert len(out) == 2000
        assert np.abs(out.values - series.values).max() < 1e-10

    def test_moderate_perturbation_config(self):
        # 2000 samples, m=50 -> 50x40 page, beta 0.4, smoothing 5
        series = steam_like()
        cfg = AugmentConfig(beta_u=0.4, beta_v=0.4, smooth_len=5)
        out = stiefelgen_series(series, 50, cfg, np.random.default_rng(1))
        assert len(out) == 2000

    def test_pre_smoothing_singular_values_preserved(self):
        series = steam_like()
        cfg = AugmentConfig(beta_u=0.4, beta_v=0.4, smooth_len=1)
        out = stiefelgen_series(series, 50, cfg, np.random.default_rng(1))
        got = np.linalg.svd(to_page_matrix(out, 50).data, compute_uv=False)
        want = np.linalg.svd(to_page_matrix(series, 50).data, compute_uv=False)
        assert np.abs(got - want).max() < 1e-8

    def test_larger_beta_spreads_residuals_more(self):
        # seeded regression: same directions, larger step
        series = steam_like()
        moderate = stiefelgen_series(
            series, 50, AugmentConfig(beta_u=0.4, beta_v=0.4, smooth_len=5), np.random.default_rng(3)
        )
        outlier = stiefelgen_series(
            series, 50, AugmentConfig(beta_u=0.9, beta_v=0.9, smooth_len=9), np.random.default_rng(3)
        )
        var_moderate = np.var(moderate.values - series.values)
        var_outlier = np.var(outlier.values - series.values)
        assert var_outlier > var_moderate

    def test_length_preserved_with_padding(self):
        series = TimeSeries(np.sin(np.arange(103) * 0.2))
        out = stiefelgen_series(series, 10, AugmentConfig(beta_u=0.1, beta_v=0.1), np.random.default_rng(4))
        # n = round(103/10) = 10 -> 100 slots... padding engages only
        # above; rounding dropped the 3-sample tail here
        assert len(out) == 100

    def test_padding_engages_and_restores_length(self):
        # n = round(106/10) = 11 -> 110 slots, 4 padded, cut back to 106
        series = TimeSeries(np.sin(np.arange(106) * 0.2))
        out = stiefelgen_series(series, 10, AugmentConfig(), np.random.default_rng(4))
        assert len(out) == 106
        assert np.abs(out.values - series.values).max() < 1e-10

    def test_truncate_strategy_end_to_end(self):
        series = TimeSeries(np.sin(np.arange(103) * 0.2))
        out = stiefelgen_series(
            series, 10, AugmentConfig(), np.random.default_rng(4), strategy="truncate"
        )
        assert len(out) == 100
        assert np.abs(out.values - series.values[:100]).max() < 1e-10


class TestGeodesicPath:
    def test_first_element_is_input_exactly(self, rng):
        mat = sine_matrix()
        path = geodesic_path(mat, AugmentConfig(beta_u=0.8, beta_v=0.8), 10, rng)
        assert np.array_equal(path[0], mat)
        assert len(path) == 11

    def test_endpoint_matches_one_shot(self):
        mat = sine_matrix()
        cfg = AugmentConfig(beta_u=0.8, beta_v=0.8)
        path = geodesic_path(mat, cfg, 10, np.random.default_rng(9))
        one_shot = stiefelgen_matrix(mat, cfg, np.random.default_rng(9))
        assert np.abs(path[-1] - one_shot).max() < 1e-10

    def test_singular_values_along_path(self, rng):
        mat = sine_matrix()
        want = np.linalg.svd(mat, compute_uv=False)
        for step in geodesic_path(mat, AugmentConfig(beta_u=1.0, beta_v=1.0), 10, rng):
            got = np.linalg.svd(step, compute_uv=False)
            assert np.abs(got - want).max() < 1e-8

    def test_wide_page_takes_action_route(self, monkeypatch):
        # a 5 x 300 page: V is 300 x 300 of which 5 columns are used, so only the 5 x 5 U factor
        # and the kept Krylov corner of V's generator reach the exponential, never a 300 x 300 one
        exp_shapes = []
        kernel = stiefel.matrix_exp

        def recording_exp(s):
            exp_shapes.append(s.shape)
            return kernel(s)

        monkeypatch.setattr(stiefel, "matrix_exp", recording_exp)
        cfg = AugmentConfig(beta_u=1.0, beta_v=1.0)
        # the real and the complex page
        for complex_field in (False, True):
            exp_shapes.clear()
            mat = wide_page(complex_field)
            want = np.linalg.svd(mat, compute_uv=False)
            one_shot = stiefelgen_matrix(mat, cfg, np.random.default_rng(23))
            assert np.abs(np.linalg.svd(one_shot, compute_uv=False) - want).max() < 1e-8
            path = geodesic_path(mat, cfg, 20, np.random.default_rng(23))
            assert len(path) == 21 and np.array_equal(path[0], mat)
            for step in path[1:]:
                assert np.abs(np.linalg.svd(step, compute_uv=False) - want).max() < 1e-8
            assert np.array_equal(path[-1], one_shot)
            corners = set(exp_shapes) - {(5, 5)}
            assert (5, 5) in exp_shapes and len(corners) == 1
            ((side, width),) = corners
            assert side == width and 5 < side < 300

    def test_dense_page_path_endpoint_is_one_shot_bitwise(self):
        # both factors of a 24 x 16 page stay on the dense exponential
        mat = sine_matrix()
        cfg = AugmentConfig(beta_u=0.8, beta_v=0.8)
        path = geodesic_path(mat, cfg, 10, np.random.default_rng(9))
        one_shot = stiefelgen_matrix(mat, cfg, np.random.default_rng(9))
        assert np.array_equal(path[-1], one_shot)

    def test_rank_mode_path_ends_on_the_one_shot_draw_bitwise(self):
        # both moved factors are thin 24 x 3 and 16 x 3 points; every step adds the untouched tail
        mat = sine_matrix()
        cfg = AugmentConfig(beta_u=0.8, beta_v=0.6, rank=3)
        path = geodesic_path(mat, cfg, 10, np.random.default_rng(9))
        one_shot = stiefelgen_matrix(mat, cfg, np.random.default_rng(9))
        assert len(path) == 11
        assert np.array_equal(path[0], mat)
        assert np.array_equal(path[-1], one_shot)
        assert not np.array_equal(path[5], mat)

    def test_rejects_zero_steps(self, rng):
        with pytest.raises(ValueError, match="steps"):
            geodesic_path(sine_matrix(), AugmentConfig(), 0, rng)


def wide_page(complex_field):
    r = np.random.default_rng(31)
    mat = r.standard_normal((5, 300))
    return mat + 1j * r.standard_normal((5, 300)) if complex_field else mat


def public_tangent(pt, beta, metric, rng):
    """A factor's scaled tangent through the public steps random_tangent -> normalize_and_scale."""
    return normalize_and_scale(pt, random_tangent(pt, rng), beta, metric)


def factor_replay(mat, cfg, rng):
    """Factor points and scaled tangents of mat, U then V, each through the public steps."""
    u1, _, v1h = np.linalg.svd(mat, full_matrices=True)
    points = StiefelPoint(u1), StiefelPoint(v1h.conj().T)
    betas = cfg.beta_u, cfg.beta_v
    return [(p, public_tangent(p, b, cfg.metric, rng)) for p, b in zip(points, betas)]


def ambient_replay(factors, cfg, rng):
    """A wide action page's draw, U then V, as factor points and scaled tangents.

    U is square and its tangent is drawn through the public steps. V's draw is replayed in
    its order: the Krylov coordinates T of the generator from the thin V1 (every block, the
    dropped ones too), then the frame W past V1. The generator A = M T M* on a unitary completion
    M = [V1, W, W'] is carried to a square completion V of V1 as the tangent V (V* A V), whose
    exp_map is V exp(V* A V) = exp(A) V.
    """
    u1, _, v1 = factors
    u_pt = StiefelPoint(u1)
    du = public_tangent(u_pt, cfg.beta_u, cfg.metric, rng)
    dim, k = v1.shape
    diag, sub, blocks = stiefel._krylov_coordinates(dim, k, np.iscomplexobj(v1), cfg.beta_v, cfg.metric, rng)
    frame = np.hstack([v1, formed_frame(v1, min(blocks * k, dim) - k, rng)])
    m = np.hstack([frame, scipy.linalg.null_space(frame.conj().T)])
    a = m @ stiefel._block_tridiagonal(diag, sub, dim) @ m.conj().T
    v = np.hstack([v1, scipy.linalg.null_space(v1.conj().T)])
    v_pt = StiefelPoint(v)
    return (u_pt, du), (v_pt, TangentVector(v @ (v.conj().T @ a @ v), v_pt))


class TestWidePageSkewDraw:
    """On a 5 x 300 page V's 5 columns move in the ambient frame; the public replay is the oracle."""

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, -0.5, -0.25])
    def test_matrix_matches_public_replay(self, complex_field, alpha):
        mat = wide_page(complex_field)
        cfg = AugmentConfig(beta_u=0.7, beta_v=1.0, alpha=alpha)
        rng, replay_rng = np.random.default_rng(41), np.random.default_rng(41)
        out = stiefelgen_matrix(mat, cfg, rng)
        factors = input_factors(mat, thin=True)
        fac = augment._Factorization(mat, None)
        assert [f.shape for f in (fac.u.matrix, fac.v)] == [(5, 5), (300, 5)]
        (u_pt, du), (v_pt, dv) = ambient_replay(factors, cfg, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        assert abs(tangent_norm(v_pt, dv, cfg.metric) - INJECTIVITY_RADIUS) < 1e-12
        u2 = exp_map(u_pt, du, cfg.metric).matrix
        v2 = exp_map(v_pt, dv, cfg.metric).matrix[:, :5]
        assert np.abs(out - (u2 * factors[1]) @ v2.conj().T).max() < 1e-12
        want = np.linalg.svd(mat, compute_uv=False)
        assert np.abs(np.linalg.svd(out, compute_uv=False) - want).max() < 1e-8

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("alpha", [0.0, -0.5, -0.25])
    @pytest.mark.parametrize("steps", [1, 20])
    def test_path_matches_public_replay(self, complex_field, alpha, steps):
        mat = wide_page(complex_field)
        cfg = AugmentConfig(beta_u=0.9, beta_v=0.6, alpha=alpha)
        rng, replay_rng = np.random.default_rng(43), np.random.default_rng(43)
        path = geodesic_path(mat, cfg, steps, rng)
        factors = input_factors(mat, thin=True)
        (u_pt, du), (v_pt, dv) = ambient_replay(factors, cfg, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        for step in sorted({steps // 2, steps} - {0}):
            u_t = geodesic(u_pt, du, step / steps, cfg.metric).matrix
            v_t = geodesic(v_pt, dv, step / steps, cfg.metric).matrix[:, :5]
            assert np.abs(path[step] - (u_t * factors[1]) @ v_t.conj().T).max() < 1e-12

    def test_zero_beta_gives_base_columns_bitwise(self):
        mat = wide_page(False)
        cfg = AugmentConfig(beta_u=0.5, beta_v=0.0)
        rng, replay_rng = np.random.default_rng(47), np.random.default_rng(47)
        out = stiefelgen_matrix(mat, cfg, rng)
        u1, s, v1 = input_factors(mat, thin=True)
        (u_pt, du), (_, dv) = ambient_replay((u1, s, v1), cfg, replay_rng)
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        assert not np.any(dv.delta)
        u2 = exp_map(u_pt, du).matrix
        assert np.array_equal(out, (u2 * s) @ v1.conj().T)


class TestAmbientDrawLaw:
    """The Krylov-coordinate draw has the law of the public route, on a 4 x 128 action page.

    At alpha = -0.5 the kept frame is narrow and R comes from Cholesky; at alpha = -0.25 and 0
    it is wide and R comes from the phase-fixed QR, so both sources of R are tested.

    Four statistics of V's moved columns V2: the inner product of the first with the first
    singular vector, the change ||generated - input||_F, the first column's component along
    w, the first coordinate axis projected off the four singular vectors, and ||V1* V2||_F.
    Only the frame W past V1 reaches w, and QR ties W's unfixed phases to the coordinate
    axes; ||V1* V2||_F weighs the sub-diagonal blocks, which move V1 out of its span,
    against the diagonal ones, which turn it within.
    """

    DRAWS = 1000
    # field, alpha and the (public, new) seeds, each fixed before its first run
    CASES = [
        (False, -0.25, 62, 63),
        (False, -0.5, 64, 65),
        (False, 0.0, 66, 67),
        (True, -0.5, 68, 69),
        (True, 0.0, 70, 71),
    ]

    def test_two_sample_ks_against_public_route(self):
        for complex_field, alpha, old_seed, new_seed in self.CASES:
            r = np.random.default_rng(61)
            mat = r.standard_normal((4, 128))
            if complex_field:
                mat = mat + 1j * r.standard_normal((4, 128))
            cfg = AugmentConfig(beta_u=0.0, beta_v=1.0, alpha=alpha)
            u1, s, vh = np.linalg.svd(mat, full_matrices=True)
            v = vh.conj().T
            v1, v_pt = v[:, :4], StiefelPoint(v)
            w = -v1 @ v1[0].conj()
            w[0] += 1.0
            w /= np.linalg.norm(w)

            def stats(v2):
                change = np.linalg.norm((u1 * s) @ v2.conj().T - mat)
                first = v2[:, 0]
                overlap = np.linalg.norm(v1.conj().T @ v2)
                return np.real(v1[:, 0].conj() @ first), change, np.real(w.conj() @ first), overlap

            old_rng, new_rng = np.random.default_rng(old_seed), np.random.default_rng(new_seed)
            old, new = np.empty((4, self.DRAWS)), np.empty((4, self.DRAWS))
            for i in range(self.DRAWS):
                d = normalize_and_scale(v_pt, random_tangent(v_pt, old_rng), cfg.beta_v, cfg.metric)
                old[:, i] = stats(exp_map(v_pt, d, cfg.metric).matrix[:, :4])
                generated = stiefelgen_matrix(mat, cfg, new_rng)
                new[:, i] = stats(np.linalg.solve(u1 * s, generated).conj().T)
            for old_stat, new_stat in zip(old, new):
                assert scipy.stats.ks_2samp(old_stat, new_stat).pvalue > 1e-3, (complex_field, alpha)


class TestTrustedFactors:
    """The SVD factor points are built unchecked; they must pass the public checks."""

    # wide, tall, square, and a 5 x 300 page whose V moves as its 300 x 5 block in full-rank mode
    @pytest.mark.parametrize("shape, rank", [((5, 9), 2), ((9, 5), 2), ((6, 6), 3), ((5, 300), 2)])
    @pytest.mark.parametrize("full_rank", [True, False])
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_factor_points_recheck(self, shape, rank, full_rank, complex_field):
        r = np.random.default_rng(sum(shape))
        mat = r.standard_normal(shape)
        if complex_field:
            mat = mat + 1j * r.standard_normal(shape)
        fac = augment._Factorization(mat, None if full_rank else rank)
        for factor in (fac.u, fac.v):
            # the long factor of a full-rank 5 x 300 page is held as its plain 300 x 5 block
            point = StiefelPoint(factor if isinstance(factor, np.ndarray) else factor.matrix)
            d = normalize_and_scale(point, random_tangent(point, r), 0.8)
            TangentVector(d.delta, point)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_rank_mode_holds_no_long_square_factor(self, complex_field):
        # rank mode reads the leading `rank` columns of each factor, so the 450 x 450 V is never formed
        mat = np.random.default_rng(7).standard_normal((5, 450))
        if complex_field:
            mat = mat + 1j * np.random.default_rng(8).standard_normal((5, 450))
        fac = augment._Factorization(mat, 2)
        held = [getattr(value, "matrix", value) for value in vars(fac).values()]
        assert max(np.size(a) for a in held) == 5 * 450
        assert fac.u.matrix.shape == (5, 2) and fac.v.matrix.shape == (450, 2)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_entries_rejected(self, value, rng):
        # the SVD returns non-finite factors for an infinite entry instead of raising
        mat = np.random.default_rng(12).standard_normal((6, 8))
        mat[2, 3] = value
        with pytest.raises(ValueError, match="non-finite"):
            stiefelgen_matrix(mat, AugmentConfig(beta_u=0.5, beta_v=0.5), rng)
        with pytest.raises(ValueError, match="non-finite"):
            geodesic_path(mat, AugmentConfig(beta_u=0.5, beta_v=0.5), 4, rng)


class TestBatchGenerate:
    def test_single_draw_matches_derived_stream(self):
        series = steam_like(400)
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3, smooth_len=1)
        ens = batch_generate(series, 1, 20, cfg, np.random.default_rng(11))
        stream = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0])
        direct = stiefelgen_series(series, 20, cfg, stream)
        assert np.array_equal(ens.curves[0], direct.values)

    def test_deterministic_across_runs(self):
        series = steam_like(400)
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3)
        a = batch_generate(series, 5, 20, cfg, np.random.default_rng(12))
        b = batch_generate(series, 5, 20, cfg, np.random.default_rng(12))
        assert np.array_equal(a.curves, b.curves)

    def test_reused_generator_spawns_the_next_children(self):
        series = steam_like(400)
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3)
        rng = np.random.default_rng(12)
        a = batch_generate(series, 2, 20, cfg, rng)
        b = batch_generate(series, 2, 20, cfg, rng)
        whole = batch_generate(series, 4, 20, cfg, np.random.default_rng(12))
        assert not np.array_equal(a.curves, b.curves)
        assert np.array_equal(np.vstack([a.curves, b.curves]), whole.curves)

    def test_large_ensemble_shape(self):
        # 500 draws over a 2000-sample series
        series = steam_like()
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3, smooth_len=1)
        ens = batch_generate(series, 500, 50, cfg, np.random.default_rng(13))
        assert ens.curves.shape == (500, 2000)
        assert np.all(np.isfinite(ens.curves))

    @pytest.mark.parametrize("rank", [None, 3], ids=["full-rank", "rank-3"])
    def test_rows_equal_series_on_spawned_streams(self, rank):
        # the batch factors its page once; each row must still be the
        # one-shot pipeline on its own spawned stream, bit for bit
        series = steam_like(400)
        cfg = AugmentConfig(beta_u=0.2, beta_v=0.5, smooth_len=3, rank=rank)
        ens = batch_generate(series, 6, 20, cfg, np.random.default_rng(14))
        streams = np.random.SeedSequence(14).spawn(6)
        for k, seq in enumerate(streams):
            direct = stiefelgen_series(series, 20, cfg, np.random.default_rng(seq))
            assert np.array_equal(ens.curves[k], direct.values)

    @pytest.mark.parametrize("strategy", ["pad_edge", "overlap", "truncate"])
    @pytest.mark.parametrize("length", [395, 409])
    def test_rows_have_the_unpaged_length(self, strategy, length):
        # round(length / 20) = 20 columns: 395 samples leave 5 slots to fit by strategy, 409 a tail to drop
        series = steam_like(length)
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3, smooth_len=3)
        ens = batch_generate(series, 2, 20, cfg, np.random.default_rng(16), strategy)
        for k, seq in enumerate(np.random.SeedSequence(16).spawn(2)):
            direct = stiefelgen_series(series, 20, cfg, np.random.default_rng(seq), strategy)
            assert np.array_equal(ens.curves[k], direct.values)

    def test_peak_memory_is_the_output_and_its_frozen_copy(self):
        series = TimeSeries(np.sin(np.arange(2000) * 0.02))
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3)
        tracemalloc.start()
        try:
            ens = batch_generate(series, 200, 50, cfg, np.random.default_rng(15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * ens.curves.nbytes

    def test_peak_memory_is_the_output_alone(self):
        # the filled array becomes the ensemble's, not a second frozen copy of it
        series = TimeSeries(np.sin(np.arange(2000) * 0.02))
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3)
        tracemalloc.start()
        try:
            ens = batch_generate(series, 500, 50, cfg, np.random.default_rng(15))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * ens.curves.nbytes

    def test_holds_one_child_generator_at_a_time(self):
        # a child generator takes about 950 B, so on a 2 x 2 page holding all 400 of
        # rng.spawn(400) at once would be most of the peak; one at a time is a few kB
        series = TimeSeries(np.arange(4.0))
        cfg = AugmentConfig(beta_u=0.3, beta_v=0.3)
        batch_generate(series, 1, 2, cfg, np.random.default_rng(0))  # first-call allocations
        tracemalloc.start()
        try:
            ens = batch_generate(series, 400, 2, cfg, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - ens.curves.nbytes < 100 * 400


class TestAmbientPerturb:
    def test_sigma_zero_is_identity(self, rng):
        mat = sine_matrix()
        assert np.abs(ambient_perturb(mat, 0.0, rng) - mat).max() < 1e-10

    def test_noise_breaks_orthonormality(self):
        # the point of the baseline: the jittered factor leaves the manifold
        rng = np.random.default_rng(15)
        t = np.linspace(0, 6 * np.pi, 200)
        mat = np.sin(t).reshape(20, 10)
        u1, s, v1h = np.linalg.svd(mat, full_matrices=True)
        u_noisy = u1 + 0.05 * rng.standard_normal(u1.shape)
        defect = np.linalg.norm(u_noisy.T @ u_noisy - np.eye(20))
        assert defect > 1e-3

    def test_singular_values_not_preserved(self):
        rng = np.random.default_rng(16)
        mat = sine_matrix()
        out = ambient_perturb(mat, 0.1, rng)
        got = np.linalg.svd(out, compute_uv=False)
        want = np.linalg.svd(mat, compute_uv=False)
        assert np.abs(got - want).max() > 1e-6

    @pytest.mark.parametrize("shape", [(5, 450), (24, 16)])
    def test_replays_noise_on_the_used_columns(self, shape):
        # noise of shape (m, k), then (n, k), on the thin SVD's factors
        mat = np.random.default_rng(17).standard_normal(shape)
        rng, replay_rng = np.random.default_rng(18), np.random.default_rng(18)
        out = ambient_perturb(mat, 0.05, rng)
        (m, n), k = shape, min(shape)
        u1, s, v1h = np.linalg.svd(mat, full_matrices=False)
        u_noisy = u1 + 0.05 * replay_rng.standard_normal((m, k))
        v_noisy = v1h.T + 0.05 * replay_rng.standard_normal((n, k))
        assert rng.bit_generator.state == replay_rng.bit_generator.state
        assert np.abs(out - (u_noisy * s) @ v_noisy.T).max() < 1e-12

    def test_rejects_negative_sigma(self, rng):
        with pytest.raises(ValueError, match="sigma"):
            ambient_perturb(sine_matrix(), -0.1, rng)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_rejects_a_non_matrix_before_the_svd(self, shape, rng):
        # these reached the SVD or the reconstruction and failed there with a numpy message
        with pytest.raises(ValueError, match="need a 2-d matrix") as err:
            ambient_perturb(np.ones(shape), 0.1, rng)
        assert f"got shape {shape}" in str(err.value)

    def test_takes_a_single_row(self, rng):
        mat = np.arange(1.0, 6.0)[None, :]
        assert np.abs(ambient_perturb(mat, 0.0, rng) - mat).max() < 1e-12

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_entries_rejected_before_the_svd(self, value, rng, monkeypatch):
        # a 4 x 6 all-ones page with one inf entry made the SVD spin without returning
        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD was reached")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        mat = np.ones((4, 6))
        mat[1, 2] = value
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            ambient_perturb(mat, 0.1, rng)
