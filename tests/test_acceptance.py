"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Deep-model training benchmarks are out of scope by design and no
criterion references them.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import random_stiefel
from stiefelgen import io
from stiefelgen.augment import AugmentConfig, geodesic_path, stiefelgen_matrix, stiefelgen_series
from stiefelgen.cli import main
from stiefelgen.dmd import ensemble_forecast, fit_dmd, forecast, synth_spatiotemporal
from stiefelgen.fda import FunctionalEnsemble, functional_boxplot, mbd
from stiefelgen.novelty import fit_one_class, fit_pca, generate_shm_dataset, perturb_and_track
from stiefelgen.signal import TimeSeries
from stiefelgen.sphere import SpherePoint, sphere_gen, sphere_geodesic, sphere_random_tangent
from stiefelgen.stiefel import (
    CANONICAL,
    INJECTIVITY_RADIUS,
    MetricParams,
    StiefelPoint,
    TangentVector,
    exp_map,
    inner_product,
    normalize_and_scale,
    random_tangent,
    tangent_norm,
)

SHAPES = [(4, 2), (10, 4), (50, 40), (20, 20)]
BETAS = [0.1, 0.4, 0.9, 1.0]
ALPHAS = [-0.5, 0.0]


def report(criterion: int, text: str) -> None:
    print(f"CRITERION {criterion:2d}: PASS - {text}")


def fixture_2000() -> TimeSeries:
    t = np.arange(2000) * 0.01
    noise = np.random.default_rng(99).standard_normal(2000) * 0.1
    return TimeSeries(5.0 + np.sin(1.7 * t) + 0.5 * np.sin(6.1 * t) + noise)


def trial_grid():
    fields = [False, True]
    combos = list(itertools.product(SHAPES, BETAS, ALPHAS, fields))
    reps = -(-200 // len(combos))  # at least 200 trials
    return [c for c in combos for _ in range(reps)]


def test_criterion_01_orthonormality_after_retraction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    trials = trial_grid()
    assert len(trials) >= 200
    worst = 0.0
    for (m, n), beta, alpha, complex_field in trials:
        metric = MetricParams(alpha)
        base = random_stiefel(m, n, rng, complex_field)
        d = normalize_and_scale(base, random_tangent(base, rng), beta, metric)
        out = exp_map(base, d, metric).matrix
        defect = np.linalg.norm(out.conj().T @ out - np.eye(n))
        worst = max(worst, defect)
        assert defect < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"{len(trials)} retraction trials, worst defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_singular_value_invariance():
    rng = np.random.default_rng(202)
    worst = 0.0
    for (m, n), beta, alpha, complex_field in trial_grid():
        gen = np.random.default_rng(7)
        if complex_field:
            mat = gen.standard_normal((m, n)) + 1j * gen.standard_normal((m, n))
        else:
            mat = gen.standard_normal((m, n))
        cfg = AugmentConfig(beta_u=beta, beta_v=beta, alpha=alpha)
        out = stiefelgen_matrix(mat, cfg, rng)
        got = np.sort(np.linalg.svd(out, compute_uv=False))
        want = np.sort(np.linalg.svd(mat, compute_uv=False))
        diff = np.abs(got - want).max()
        worst = max(worst, diff)
        assert diff < 1e-8
    report(2, f"sorted singular values preserved, worst drift {worst:.2e}")


def test_criterion_03_identity_at_beta_zero():
    series = fixture_2000()
    out = stiefelgen_series(series, 50, AugmentConfig(), np.random.default_rng(0))
    err = np.abs(out.values - series.values).max()
    assert len(out) == 2000
    assert err < 1e-10
    report(3, f"beta=0, window=1 on 2000-sample fixture, max-abs {err:.2e}")


def test_criterion_04_injectivity_radius_scaling():
    rng = np.random.default_rng(404)
    base = random_stiefel(12, 5, rng)
    raw = random_tangent(base, rng)
    for beta in (0.0, 0.25, 0.5, 1.0):
        d = normalize_and_scale(base, raw, beta)
        assert abs(tangent_norm(base, d) - beta * INJECTIVITY_RADIUS) < 1e-10
    full = tangent_norm(base, normalize_and_scale(base, raw, 1.0))
    assert full == pytest.approx(2.7960, abs=1e-3)
    report(4, f"norms land on 0.89*pi*beta; beta=1 gives {full:.4f}")


def test_criterion_05_metric_corner_cases():
    rng = np.random.default_rng(505)
    euclid = MetricParams(-0.5)

    base = random_stiefel(9, 4, rng)
    d1, d2 = random_tangent(base, rng), random_tangent(base, rng)
    got = inner_product(base, d1, d2, euclid)
    want = float(np.trace(d1.delta.T @ d2.delta))
    assert abs(got - want) < 1e-12

    square = random_stiefel(6, 6, rng)
    e1, e2 = random_tangent(square, rng), random_tangent(square, rng)
    got = inner_product(square, e1, e2, CANONICAL)
    want = 0.5 * float(np.trace(e1.delta.T @ e2.delta))
    assert abs(got - want) < 1e-12

    # n = 1: the half weighting acts on the U*d component of a tangent,
    # which is the phase direction(available over the complex field);
    # real sphere tangents have no such component, so their canonical
    # product equals the full trace product (see decisions ledger)
    pole = random_stiefel(7, 1, rng, complex_field=True)
    phase = TangentVector(0.9j * pole.matrix, pole)
    got = inner_product(pole, phase, phase, CANONICAL)
    want = 0.5 * float(np.real(np.trace(phase.delta.conj().T @ phase.delta)))
    assert abs(got - want) < 1e-12

    real_pole = random_stiefel(7, 1, rng)
    f1, f2 = random_tangent(real_pole, rng), random_tangent(real_pole, rng)
    got = inner_product(real_pole, f1, f2, CANONICAL)
    want = float(np.trace(f1.delta.T @ f2.delta))
    assert abs(got - want) < 1e-12
    report(5, "euclidean = trace; canonical halves the square and phase-direction cases")


def test_criterion_06_sphere_fixtures():
    p = SpherePoint(np.array([1.0, 0.0, 0.0]))
    antipode = sphere_geodesic(p, np.array([np.pi, 0.0, 0.0]), 1.0)
    assert np.abs(antipode.p - np.array([-1.0, 0.0, 0.0])).max() < 1e-12

    equator = sphere_geodesic(p, np.array([0.0, np.pi / 2, 0.0]), 1.0)
    assert abs(equator.p[0]) < 1e-12

    sig = np.sin(np.linspace(0, 5, 90)) * 3.0 + 1.0
    base = SpherePoint(sig / np.linalg.norm(sig))
    v = sphere_random_tangent(base, rng=np.random.default_rng(77))
    t_star = np.pi / np.linalg.norm(v.v)
    out = sphere_gen(sig, t=t_star, smooth_len=1, rng=np.random.default_rng(77))
    flip_err = np.abs(out.values + sig).max()
    assert flip_err < 1e-12
    report(6, f"antipode and equator land exactly; angle-pi flip error {flip_err:.2e}")


def test_criterion_07_dmd_recovery_and_ensembles():
    start = time.perf_counter()
    x = np.linspace(-10.0, 10.0, 400)
    t = np.linspace(0.0, 4.0 * np.pi, 200)
    snaps = synth_spatiotemporal(x, t)

    model = fit_dmd(snaps, rank=2)
    freqs = np.sort(model.omegas.imag)
    assert np.abs(freqs - np.array([2.3, 2.8])).max() < 1e-6
    rel = np.linalg.norm(forecast(model, t) - snaps.data) / np.linalg.norm(snaps.data)
    assert rel < 1e-8

    from stiefelgen.dmd import perturbed_fit

    base = fit_dmd(snaps, rank=2)
    unperturbed = perturbed_fit(snaps, rank=2, beta=0.0, rng=np.random.default_rng(1))
    assert np.abs(base.modes - unperturbed.modes).max() < 1e-12
    assert np.abs(base.eigenvalues - unperturbed.eigenvalues).max() < 1e-12

    # replay the perturbation stream to check the retracted factor itself
    x1 = snaps.data[:, :-1]
    u, s, vh = np.linalg.svd(x1, full_matrices=False)
    u_pt = StiefelPoint(u[:, :2])
    rng = np.random.default_rng(2)
    du = normalize_and_scale(u_pt, random_tangent(u_pt, rng), 0.2)
    u2 = exp_map(u_pt, du).matrix
    assert np.linalg.norm(u2.conj().T @ u2 - np.eye(2)) < 1e-8

    members = ensemble_forecast(snaps, 2, 0.2, 30, t, np.random.default_rng(3))
    members_again = ensemble_forecast(snaps, 2, 0.2, 30, t, np.random.default_rng(3))
    assert members.shape == (30, 400, 200)
    assert np.all(np.isfinite(members))
    assert np.array_equal(members, members_again)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"frequencies {freqs.round(6)}, recon rel {rel:.1e}, 30-member ensemble, {elapsed:.2f}s")


def brute_force_mbd(curves: np.ndarray) -> np.ndarray:
    k = curves.shape[0]
    pairs = list(itertools.combinations(range(k), 2))
    depths = np.zeros(k)
    for c in range(k):
        total = 0.0
        for i, j in pairs:
            lo = np.minimum(curves[i], curves[j])
            hi = np.maximum(curves[i], curves[j])
            total += np.mean((lo <= curves[c]) & (curves[c] <= hi))
        depths[c] = total / len(pairs)
    return depths


def test_criterion_08_mbd_oracle_equivalence():
    rng = np.random.default_rng(808)
    worst = 0.0
    for case in range(500):
        k = int(rng.integers(2, 9))
        t = int(rng.integers(1, 26))
        if case % 3 == 0:
            curves = rng.integers(-2, 3, size=(k, t)).astype(float)  # force ties
        else:
            curves = rng.standard_normal((k, t))
        diff = np.abs(mbd(FunctionalEnsemble(curves)) - brute_force_mbd(curves)).max()
        worst = max(worst, diff)
        assert diff < 1e-12

    depths = mbd(FunctionalEnsemble(np.array([[0.0] * 4, [1.0] * 4, [2.0] * 4])))
    assert np.array_equal(depths, np.array([2 / 3, 1.0, 2 / 3]))
    report(8, f"500 random cases match brute force, worst gap {worst:.2e}")


def test_criterion_09_functional_boxplot_properties():
    rng = np.random.default_rng(909)
    for _ in range(100):
        k = int(rng.integers(4, 25))
        t = int(rng.integers(3, 30))
        ens = FunctionalEnsemble(rng.standard_normal((k, t)))
        box = functional_boxplot(ens, proportions=(0.5, 0.75))
        lo50, hi50 = box.central_envelopes[0.5]
        lo75, hi75 = box.central_envelopes[0.75]
        assert np.all(lo75 <= lo50) and np.all(hi50 <= hi75)
        med = ens.curves[box.median_index]
        assert np.all(lo50 <= med) and np.all(med <= hi50)

    levels = np.repeat(np.arange(10.0)[:, None], 8, axis=1)
    spike = np.full(8, 9.5)
    spike[3] = 1000.0
    box = functional_boxplot(FunctionalEnsemble(np.vstack([levels, spike])))
    assert 10 in box.outlier_indices
    report(9, "nesting and median containment on 100 ensembles; spike flagged")


def test_criterion_10_shm_pipeline():
    dataset = generate_shm_dataset(rng=np.random.default_rng(0))
    assert dataset.observations.shape == (50, 5, 450)

    pca = fit_pca(dataset)
    model = fit_one_class(pca.points, nu=0.1, gamma=1e-3)
    frac = float(np.mean(model.decision(pca.points) < 0))
    assert 0.1 - 2 / 50 <= frac <= 0.1 + 2 / 50

    obs_index = 4
    path, decisions, crossing = perturb_and_track(
        dataset, obs_index, 1.0, pca, model, np.random.default_rng(10), steps=20
    )
    assert len(path) == 21
    assert np.array_equal(path[0], pca.project(dataset.observations[obs_index]))

    want = np.linalg.svd(dataset.observations[obs_index], compute_uv=False)
    cfg = AugmentConfig(beta_u=1.0, beta_v=1.0)
    mats = geodesic_path(dataset.observations[obs_index], cfg, 20, np.random.default_rng(10))
    worst = 0.0
    for mat in mats:
        got = np.linalg.svd(mat, compute_uv=False)
        worst = max(worst, np.abs(got - want).max())
        assert np.abs(got - want).max() < 1e-8
    report(
        10,
        f"50x(5x450) dataset, outlier fraction {frac:.2f}, step-0 exact, "
        f"singular drift along 20 steps {worst:.2e}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    t = np.arange(400) * 0.05
    sig = tmp_path / "sig.csv"
    io.write_series(sig, TimeSeries(3.0 + np.sin(t) + 0.4 * np.sin(5.3 * t)))
    curves = tmp_path / "curves.csv"
    rng = np.random.default_rng(5)
    io.write_columns(curves, (np.sin(np.linspace(0, 5, 40)) + 0.1 * rng.standard_normal((6, 40))).T)

    runs = {
        "augment": ["augment", "--in", str(sig), "--out", "OUT", "--rows", "20",
                    "--beta", "0.4", "--smooth", "5", "--seed", "7"],
        "geodesic": ["geodesic", "--in", str(sig), "--out", "OUT", "--rows", "20",
                     "--steps", "4", "--beta", "0.6", "--seed", "7"],
        "batch": ["batch", "--in", str(sig), "--out", "OUT", "--rows", "20",
                  "--count", "4", "--beta", "0.3", "--seed", "7"],
        "sphere": ["sphere", "--in", str(sig), "--out", "OUT", "--seed", "7"],
        "dmd-fit": ["dmd-fit", "--fixture", "waves", "--rank", "2", "--out", "OUT"],
        "dmd-ensemble": ["dmd-ensemble", "--fixture", "waves", "--rank", "2",
                         "--beta", "0.2", "--count", "30", "--seed", "7", "--out", "OUT"],
        "fboxplot": ["fboxplot", "--in", str(curves), "--out", "OUT",
                     "--proportions", "0.5,0.75"],
        "shm-demo": ["shm-demo", "--out", "OUT", "--steps", "5", "--seed", "7"],
    }
    for name, argv in runs.items():
        out1 = tmp_path / f"{name}-1.out"
        out2 = tmp_path / f"{name}-2.out"
        assert main([a if a != "OUT" else str(out1) for a in argv]) == 0
        assert main([a if a != "OUT" else str(out2) for a in argv]) == 0
        assert out1.read_bytes() == out2.read_bytes(), f"{name} output not reproducible"
    report(11, f"{len(runs)} subcommands byte-identical across reruns")
