"""Tests for dynamic mode decomposition and perturbed forecasting."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats

from stiefelgen import dmd
from stiefelgen.dmd import (
    SnapshotMatrix,
    ensemble_forecast,
    fit_dmd,
    forecast,
    perturbed_fit,
    slice_ensemble,
    synth_spatiotemporal,
)
from stiefelgen.stiefel import StiefelPoint, exp_map, normalize_and_scale, random_tangent


def waves_fixture(nx=400, nt=200):
    x = np.linspace(-10.0, 10.0, nx)
    t = np.linspace(0.0, 4.0 * np.pi, nt)
    return synth_spatiotemporal(x, t), x, t


def analytic_field(x, t):
    x = np.asarray(x)[:, None]
    t = np.asarray(t)[None, :]
    return 1.0 / np.cosh(x + 3.0) * np.exp(2.3j * t) + (
        2.0 / np.cosh(x) * np.tanh(x) * np.exp(2.8j * t)
    )


class TestSynthSpatiotemporal:
    def test_value_at_origin(self):
        snaps = synth_spatiotemporal([0.0], [0.0, 0.1, 0.2])
        # tanh(0) = 0 leaves only the first structure: sech(3)
        assert abs(snaps.data[0, 0] - 1.0 / np.cosh(3.0)) < 1e-15
        assert abs(snaps.data[0, 0].real - 0.0993279) < 1e-7

    def test_value_at_minus_three(self):
        snaps = synth_spatiotemporal([-3.0], [0.0, 0.1, 0.2])
        want = 1.0 + 2.0 / np.cosh(3.0) * np.tanh(-3.0)
        assert abs(snaps.data[0, 0] - want) < 1e-12

    def test_numerical_rank_two(self):
        snaps, _, _ = waves_fixture()
        s = np.linalg.svd(snaps.data, compute_uv=False)
        assert s[2] / s[0] < 1e-10

    def test_rejects_non_uniform_time(self):
        with pytest.raises(ValueError, match="uniform"):
            synth_spatiotemporal([0.0, 1.0], [0.0, 0.1, 0.5])

    def test_dt_recorded(self):
        snaps, _, t = waves_fixture(50, 40)
        assert snaps.dt == pytest.approx(t[1] - t[0])


class TestFitDmd:
    def test_identity_dynamics_unit_eigenvalues(self):
        state = np.linspace(1.0, 2.0, 6)
        data = np.repeat(state[:, None], 10, axis=1).astype(complex)
        model = fit_dmd(SnapshotMatrix(data, dt=0.5), rank=1)
        assert np.abs(model.eigenvalues - 1.0).max() < 1e-10

    def test_recovers_both_frequencies(self):
        snaps, _, _ = waves_fixture()
        model = fit_dmd(snaps, rank=2)
        freqs = np.sort(model.omegas.imag)
        assert np.abs(freqs - np.array([2.3, 2.8])).max() < 1e-6
        assert np.abs(model.omegas.real).max() < 1e-6

    def test_training_reconstruction(self):
        snaps, _, t = waves_fixture()
        model = fit_dmd(snaps, rank=2)
        rebuilt = forecast(model, t)
        rel = np.linalg.norm(rebuilt - snaps.data) / np.linalg.norm(snaps.data)
        assert rel < 1e-8

    def test_rank_out_of_range(self):
        snaps, _, _ = waves_fixture(30, 20)
        with pytest.raises(ValueError, match="rank"):
            fit_dmd(snaps, rank=0)
        with pytest.raises(ValueError, match="rank"):
            fit_dmd(snaps, rank=25)

    def test_ill_conditioned_truncation_rejected(self):
        snaps, _, _ = waves_fixture(50, 40)
        # the fixture is numerically rank 2; asking for rank 5 pulls in
        # singular values ~1e-16 of the leading one
        with pytest.raises(ValueError, match="ill-conditioned"):
            fit_dmd(snaps, rank=5)

    def test_zero_eigenvalue_rejected(self):
        # x0 = e1, x1 = e2, x2 = 0: the reduced operator is nilpotent, so
        # log(mu) would give -inf rates
        snaps = SnapshotMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), 1.0)
        with pytest.raises(ValueError, match="zero eigenvalue"):
            fit_dmd(snaps, rank=2)


class TestForecast:
    def test_time_zero_reproduces_first_snapshot(self):
        snaps, _, _ = waves_fixture()
        model = fit_dmd(snaps, rank=2)
        out = forecast(model, [0.0])
        assert np.abs(out[:, 0] - snaps.data[:, 0]).max() < 1e-8

    def test_extrapolation_matches_analytic_field(self):
        snaps, x, t = waves_fixture()
        model = fit_dmd(snaps, rank=2)
        future = np.array([4.0 * np.pi + 0.5, 5.0 * np.pi])
        got = forecast(model, future)
        want = analytic_field(x, future)
        assert np.abs(got - want).max() < 1e-6

    def test_linearity_in_snapshot_scale(self):
        snaps, _, t = waves_fixture(60, 50)
        scaled = SnapshotMatrix(3.0 * snaps.data, snaps.dt)
        f1 = forecast(fit_dmd(snaps, rank=2), t[:10])
        f3 = forecast(fit_dmd(scaled, rank=2), t[:10])
        assert np.abs(f3 - 3.0 * f1).max() < 1e-6 * np.abs(f1).max()


class TestPerturbedFit:
    def test_beta_zero_matches_unperturbed(self):
        snaps, _, _ = waves_fixture()
        base = fit_dmd(snaps, rank=2)
        pert = perturbed_fit(snaps, rank=2, beta=0.0, rng=np.random.default_rng(0))
        assert np.abs(base.modes - pert.modes).max() < 1e-12
        assert np.abs(base.eigenvalues - pert.eigenvalues).max() < 1e-12
        assert np.abs(base.amplitudes - pert.amplitudes).max() < 1e-12

    def test_perturbed_factors_stay_unitary(self):
        # checked indirectly: the perturbation happens on the complex
        # Stiefel manifold whose retraction output is validated, and the
        # resulting model must stay finite and rank 2
        snaps, _, t = waves_fixture()
        model = perturbed_fit(snaps, rank=2, beta=0.2, rng=np.random.default_rng(1))
        assert model.modes.shape == (400, 2)
        assert np.all(np.isfinite(forecast(model, t)))

    def test_deterministic_per_seed(self):
        snaps, _, _ = waves_fixture(60, 50)
        a = perturbed_fit(snaps, rank=2, beta=0.3, rng=np.random.default_rng(7))
        b = perturbed_fit(snaps, rank=2, beta=0.3, rng=np.random.default_rng(7))
        assert np.array_equal(a.modes, b.modes)

    def test_rejects_bad_beta(self):
        snaps, _, _ = waves_fixture(30, 20)
        with pytest.raises(ValueError, match="beta"):
            perturbed_fit(snaps, rank=2, beta=1.5, rng=np.random.default_rng(0))

    # (M, N, rank): at rank = M the U_r factor is square
    @pytest.mark.parametrize("m, n, rank", [(3, 10, 3), (12, 9, 2), (6, 40, 4)])
    def test_draws_through_the_public_geometry_api(self, m, n, rank):
        # U_r, then V_r, are moved by random_tangent -> normalize_and_scale -> exp_map, bit for bit
        data = np.random.default_rng(m * n).standard_normal((2, m, n))
        snaps = SnapshotMatrix(data[0] + 1j * data[1], 0.1)
        got = perturbed_fit(snaps, rank, 0.4, np.random.default_rng(11))
        u_pt, s_r, v_pt = dmd._truncate(snaps, rank)
        rng = np.random.default_rng(11)
        u_r, v_r = (exp_map(pt, normalize_and_scale(pt, random_tangent(pt, rng), 0.4)).matrix for pt in (u_pt, v_pt))
        want = dmd._assemble(snaps, u_r, s_r, v_r)
        for field in ("modes", "eigenvalues", "omegas", "amplitudes"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestEnsembleForecast:
    def test_single_member_beta_zero_equals_plain_forecast(self):
        snaps, _, t = waves_fixture(60, 50)
        members = ensemble_forecast(snaps, 2, 0.0, 1, t, np.random.default_rng(3))
        want = forecast(fit_dmd(snaps, 2), t).real
        assert np.abs(members[0] - want).max() < 1e-12

    def test_members_are_distinct(self):
        snaps, _, t = waves_fixture(60, 50)
        members = ensemble_forecast(snaps, 2, 0.2, 5, t, np.random.default_rng(4))
        for i in range(4):
            assert np.abs(members[i] - members[i + 1]).max() > 0

    def test_thirty_members_finite(self):
        snaps, _, t = waves_fixture()
        members = ensemble_forecast(snaps, 2, 0.2, 30, t, np.random.default_rng(5))
        assert members.shape == (30, 400, 200)
        assert np.all(np.isfinite(members))

    def test_deterministic_per_seed(self):
        snaps, _, t = waves_fixture(60, 50)
        a = ensemble_forecast(snaps, 2, 0.2, 4, t, np.random.default_rng(6))
        b = ensemble_forecast(snaps, 2, 0.2, 4, t, np.random.default_rng(6))
        assert np.array_equal(a, b)

    def test_members_equal_perturbed_fit_on_spawned_streams(self):
        # the ensemble shares one truncated SVD; member k must still be
        # perturbed_fit on the k-th spawned stream, bit for bit
        snaps, _, t = waves_fixture(60, 50)
        members = ensemble_forecast(snaps, 2, 0.3, 4, t, np.random.default_rng(9))
        for k, child in enumerate(np.random.default_rng(9).spawn(4)):
            want = forecast(perturbed_fit(snaps, 2, 0.3, rng=child), t).real
            assert np.array_equal(members[k], want)

    def test_holds_one_child_generator_at_a_time(self):
        # a child generator takes about 950 B, so on 3 x 3 snapshots with one time point
        # holding all 300 of rng.spawn(300) at once would be most of the peak
        snaps = synth_spatiotemporal(np.linspace(-5.0, 5.0, 3), np.linspace(0.0, 1.0, 3))
        times = np.zeros(1)
        ensemble_forecast(snaps, 1, 0.2, 1, times, np.random.default_rng(0), spatial_index=0)
        tracemalloc.start()
        try:
            out = ensemble_forecast(snaps, 1, 0.2, 300, times, np.random.default_rng(2), spatial_index=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 100 * 300

    @pytest.fixture
    def no_svd(self, monkeypatch):
        # the sketched truncation factors with QR before its first SVD
        def factor(*args, **kwargs):
            raise AssertionError("the shared SVD was computed before the arguments were checked")

        monkeypatch.setattr(np.linalg, "svd", factor)
        monkeypatch.setattr(np.linalg, "qr", factor)

    # rank, count and spatial_index are held to the one integer rule in tests/test_augment.py's integer table
    @pytest.mark.parametrize("rank, beta, count, message", [(2, 1.5, 3, r"beta must lie in \[0, 1\], got 1.5")])
    def test_rejects_bad_arguments(self, rank, beta, count, message, no_svd):
        snaps, _, t = waves_fixture(60, 50)
        with pytest.raises(ValueError, match=message):
            ensemble_forecast(snaps, rank, beta, count, t, np.random.default_rng(0))

    @pytest.mark.parametrize("index", [-1, 60])
    def test_rejects_out_of_range_spatial_index(self, index, no_svd):
        # the integer rule for the spatial index, M = 60 here, in both functions
        snaps, _, t = waves_fixture(60, 50)
        message = rf"spatial_index must be an integer in \[0, 60\), got {index}"
        with pytest.raises(ValueError, match=message):
            ensemble_forecast(snaps, 2, 0.2, 3, t, np.random.default_rng(0), spatial_index=index)
        with pytest.raises(ValueError, match=message):
            slice_ensemble(np.zeros((3, 60, 50)), index)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    @pytest.mark.parametrize("count", [1, 4, 7])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_slice_is_the_full_ensembles_slice_bitwise(self, rank, count, beta):
        # T = 50 and rank 3 on noisy snapshots: where a one-row product can round differently
        snaps, _, t = waves_fixture(60, 50)
        if rank == 3:
            noise = 1e-3 * np.random.default_rng(10).standard_normal(snaps.data.shape)
            snaps = SnapshotMatrix(snaps.data + noise, snaps.dt)
        full = ensemble_forecast(snaps, rank, beta, count, t, np.random.default_rng(11))
        for i in (0, 30, 59):
            part = ensemble_forecast(snaps, rank, beta, count, t, np.random.default_rng(11), spatial_index=i)
            assert part.shape == (count, 50)
            assert np.array_equal(part, full[:, i, :])

    def test_slice_view(self):
        snaps, _, t = waves_fixture(60, 50)
        members = ensemble_forecast(snaps, 2, 0.2, 4, t, np.random.default_rng(8))
        ens = slice_ensemble(members, 30)
        assert ens.curves.shape == (4, 50)
        with pytest.raises(ValueError, match="3-d"):
            slice_ensemble(members[:, 30, :], 0)


class TestTruncate:
    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_truncated_factors_recheck(self, rank):
        # the factor points are built unchecked; they must pass the public check
        snaps, _, _ = waves_fixture(60, 50)
        noisy = SnapshotMatrix(snaps.data + 1e-3 * np.random.default_rng(rank).standard_normal((60, 50)), 1.0)
        u_r, s_r, v_r = dmd._truncate(noisy, rank)
        assert u_r.matrix.shape == (60, rank) and v_r.matrix.shape == (49, rank)
        StiefelPoint(u_r.matrix)
        StiefelPoint(v_r.matrix)


def phase_fixed_svd(snaps: SnapshotMatrix, rank: int) -> tuple:
    """(U_r, sigma_r, V_r) from the full thin SVD of X1, each u_j's largest-modulus entry turned real positive."""
    u, s, vh = np.linalg.svd(snaps.data[:, :-1], full_matrices=False)
    u_r = u[:, :rank]
    peak = u_r[np.abs(u_r).argmax(axis=0), np.arange(rank)]
    phase = peak.conj() / np.abs(peak)
    return u_r * phase, s[:rank], vh[:rank, :].conj().T * phase


def noisy_waves(rank):
    snaps, _, _ = waves_fixture(60, 50)
    return SnapshotMatrix(snaps.data + 1e-3 * np.random.default_rng(rank).standard_normal((60, 50)), snaps.dt)


def random_complex(rank):
    data = np.random.default_rng(rank + 40).standard_normal((2, 60, 50))
    return SnapshotMatrix(data[0] + 1j * data[1], 0.1)


class TestSketchedTruncation:
    """_truncate's sketch route, its certificate, its fallback to the full SVD, and the one phase convention."""

    @pytest.fixture
    def svd_shapes(self, monkeypatch):
        shapes, svd = [], np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        return shapes

    def test_the_fixture_takes_the_sketch_at_the_full_routes_factors(self, svd_shapes):
        snaps, _, _ = waves_fixture()
        u_r, s_r, v_r = dmd._truncate(snaps, 2)
        assert svd_shapes == [(12, 199)]  # rank + 10 sketch columns; X1 itself is never factored
        for got, want in zip((u_r.matrix, s_r, v_r.matrix), phase_fixed_svd(snaps, 2)):
            assert np.abs(got - want).max() < 1e-12

    def test_the_fixtures_members_match_the_full_route(self):
        # the forecast workload's dmd-ensemble: 30 members at slice 200, under bench seed 5's command seed
        snaps, _, t = waves_fixture()
        seed = int(np.random.SeedSequence([5, 0x5EED]).generate_state(1)[0])
        got = ensemble_forecast(snaps, 2, 0.2, 30, t, np.random.default_rng(seed), spatial_index=200)
        u_r, s_r, v_r = phase_fixed_svd(snaps, 2)
        factors = (StiefelPoint(u_r), s_r, StiefelPoint(v_r))
        for k, child in enumerate(np.random.default_rng(seed).spawn(30)):
            want = forecast(dmd._perturbed_model(snaps, factors, 0.2, child), t).real[200]
            assert np.abs(got[k] - want).max() < 1e-12

    @pytest.mark.parametrize("make", [noisy_waves, random_complex])
    @pytest.mark.parametrize("rank", [2, 3])
    def test_other_inputs_fall_back_to_the_full_svd_bitwise(self, make, rank, svd_shapes):
        snaps = make(rank)
        u_r, s_r, v_r = dmd._truncate(snaps, rank)
        assert svd_shapes == [(rank + 10, 49), (60, 49)]
        for got, want in zip((u_r.matrix, s_r, v_r.matrix), phase_fixed_svd(snaps, rank)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("noise, svds", [(0.0, [(12, 199)]), (1e-3, [(12, 199), (400, 199)])])
    def test_one_qr_decides_the_route(self, noise, svds, svd_shapes, monkeypatch):
        # the certificate is read on the first sketch: the fixture keeps it, the noisy fixture falls back
        qr_shapes, qr = [], np.linalg.qr

        def spy(a, *args, **kwargs):
            qr_shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", spy)
        snaps, _, _ = waves_fixture()
        data = snaps.data + noise * np.random.default_rng(3).standard_normal((400, 200))
        dmd._truncate(SnapshotMatrix(data, snaps.dt), 2)
        assert qr_shapes == [(400, 12)] and svd_shapes == svds

    def test_factors_keep_x1(self):
        snaps, _, _ = waves_fixture(60, 50)
        u_r, s_r, v_r = dmd._truncate(snaps, 2)
        x1 = snaps.data[:, :-1]
        assert np.abs(u_r.matrix * s_r @ v_r.matrix.conj().T - x1).max() < 1e-12 * np.abs(x1).max()
        peak = u_r.matrix[np.abs(u_r.matrix).argmax(axis=0), [0, 1]]
        assert np.abs(peak.imag).max() < 1e-16 and np.all(peak.real > 0)

    def test_the_callers_generator_only_spawns_the_members(self):
        snaps, _, t = waves_fixture(60, 50)
        rng, want = np.random.default_rng(12), np.random.default_rng(12)
        ensemble_forecast(snaps, 2, 0.2, 5, t, rng)
        want.spawn(5)
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.bit_generator.seed_seq.n_children_spawned == 5


def test_the_member_law_is_phase_free():
    # a column phase D of (U_r, V_r) keeps X1 and the law: P_{UD}(G D) = P_U(G) D, complex normals are
    # circular, and the step and exp_map are right-U(r)-equivariant; only single draws move
    snaps, _, t = waves_fixture(60, 50)
    u_r, s_r, v_r = dmd._truncate(snaps, 2)
    phase = np.exp(1j * np.array([0.7, -2.1]))
    turned = (StiefelPoint(u_r.matrix * phase), s_r, StiefelPoint(v_r.matrix * phase))

    def values(factors, seed, count=300, beta=0.3):
        gens = np.random.default_rng(seed).spawn(count)
        return np.array([forecast(dmd._perturbed_model(snaps, factors, beta, g), t[5:6]).real[20, 0] for g in gens])

    plain = values((u_r, s_r, v_r), 21)  # standard deviation 0.06
    assert scipy.stats.ks_2samp(plain, values(turned, 22)).pvalue > 1e-3
    assert np.abs(values(turned, 21, 20) - plain[:20]).max() > 0.05  # the same streams give other members
    # the statistic has the power to tell a step 1/6 shorter
    assert scipy.stats.ks_2samp(plain, values((u_r, s_r, v_r), 22, beta=0.25)).pvalue < 1e-6


class TestSnapshotMatrix:
    def test_rejects_too_few_snapshots(self):
        with pytest.raises(ValueError, match="3 snapshots"):
            SnapshotMatrix(np.zeros((4, 2), dtype=complex), dt=1.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            SnapshotMatrix(np.zeros((4, 5), dtype=complex), dt=0.0)
