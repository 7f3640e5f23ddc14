"""Command-line front end: one subcommand per workflow, CSV/JSON in and out."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from .augment import AugmentConfig, batch_generate, geodesic_path, stiefelgen_matrix, stiefelgen_series
from .dmd import SnapshotMatrix, ensemble_forecast, fit_dmd, forecast, synth_spatiotemporal
from .fda import FunctionalEnsemble, functional_boxplot
from .novelty import (
    adversarial_candidate,
    fit_one_class,
    fit_pca,
    generate_shm_dataset,
    norm_change_ranking,
    perturb_and_track,
)
from .signal import FIT_STRATEGIES, PageMatrix, from_page_matrix, to_page_matrix
from .sphere import sphere_gen

WAVES_X_POINTS = 400
WAVES_T_POINTS = 200
WAVES_T_SPAN = 4.0 * np.pi


class UsageError(Exception):
    """Bad command-line input caught after parsing; exits 2 like an argparse error."""


def _summary(line: str) -> None:
    print(line, file=sys.stderr)


def _config(args) -> AugmentConfig:
    beta_u = args.beta_u if args.beta_u is not None else args.beta
    beta_v = args.beta_v if args.beta_v is not None else args.beta
    return AugmentConfig(
        beta_u=beta_u,
        beta_v=beta_v,
        alpha=args.alpha,
        smooth_len=getattr(args, "smooth", 1),
        rank=getattr(args, "rank", None),
    )


def _cmd_augment(args) -> int:
    series = io.read_series(args.inp)
    cfg = _config(args)
    out = stiefelgen_series(series, args.rows, cfg, np.random.default_rng(args.seed), args.strategy)
    io.write_series(args.out, out)
    _summary(
        f"augment: {len(series)} samples -> rows={args.rows}, beta_u={cfg.beta_u}, "
        f"beta_v={cfg.beta_v}, smooth={cfg.smooth_len}, seed={args.seed}"
    )
    return 0


def _cmd_geodesic(args) -> int:
    series = io.read_series(args.inp)
    cfg = _config(args)
    pm = to_page_matrix(series, args.rows, args.strategy)
    path = geodesic_path(pm.data, cfg, args.steps, np.random.default_rng(args.seed))
    columns = np.column_stack(
        [
            from_page_matrix(PageMatrix(mat, pm.original_length, pm.fit_strategy)).values
            for mat in path
        ]
    )
    io.write_columns(args.out, columns)
    _summary(
        f"geodesic: {len(series)} samples, {args.steps} steps, beta_u={cfg.beta_u}, "
        f"beta_v={cfg.beta_v}, seed={args.seed}"
    )
    return 0


def _cmd_batch(args) -> int:
    series = io.read_series(args.inp)
    cfg = _config(args)
    ens = batch_generate(series, args.count, args.rows, cfg, np.random.default_rng(args.seed), args.strategy)
    io.write_columns(args.out, ens.curves.T)
    _summary(
        f"batch: {args.count} x {ens.n_points} ensemble, rows={args.rows}, "
        f"beta_u={cfg.beta_u}, beta_v={cfg.beta_v}, seed={args.seed}"
    )
    return 0


def _cmd_sphere(args) -> int:
    series = io.read_series(args.inp)
    out = sphere_gen(series, args.t, args.boundary, args.smooth, rng=np.random.default_rng(args.seed))
    io.write_series(args.out, out)
    _summary(
        f"sphere: {len(series)} samples, t={args.t}, boundary={args.boundary:.6g}, "
        f"smooth={args.smooth}, seed={args.seed}"
    )
    return 0


def _load_snapshots(args) -> SnapshotMatrix:
    if args.fixture == "waves":
        x = np.linspace(-10.0, 10.0, WAVES_X_POINTS)
        t = np.linspace(0.0, WAVES_T_SPAN, WAVES_T_POINTS)
        return synth_spatiotemporal(x, t)
    if args.inp is None:
        raise UsageError("one of --in or --fixture is required")
    data = io.read_columns(args.inp)
    return SnapshotMatrix(data.astype(np.complex128), args.dt)


def _cmd_dmd_fit(args) -> int:
    snaps = _load_snapshots(args)
    model = fit_dmd(snaps, args.rank)
    io.write_json(
        args.out,
        {
            "rank": model.rank,
            "dt": model.dt,
            "eigenvalues": io.complex_pairs(model.eigenvalues),
            "omegas": io.complex_pairs(model.omegas),
            "amplitudes": io.complex_pairs(model.amplitudes),
        },
    )
    if args.forecast_out:
        times = np.arange(snaps.n_time) * snaps.dt
        io.write_columns(args.forecast_out, forecast(model, times).real.T)
    _summary(f"dmd-fit: {snaps.n_space} x {snaps.n_time} snapshots, rank={args.rank}")
    return 0


def _cmd_dmd_ensemble(args) -> int:
    snaps = _load_snapshots(args)
    index = args.spatial_index if args.spatial_index is not None else snaps.n_space // 2
    if not 0 <= index < snaps.n_space:
        raise UsageError(f"--spatial-index must lie in [0, {snaps.n_space}), got {index}")
    times = np.arange(snaps.n_time) * snaps.dt
    members = ensemble_forecast(
        snaps, args.rank, args.beta, args.count, times, np.random.default_rng(args.seed)
    )
    io.write_columns(args.out, members[:, index, :].T)
    _summary(
        f"dmd-ensemble: {args.count} members, rank={args.rank}, beta={args.beta}, "
        f"slice={index}, seed={args.seed}"
    )
    return 0


def _cmd_fboxplot(args) -> int:
    try:
        proportions = tuple(float(p) for p in args.proportions.split(","))
    except ValueError:
        raise UsageError(
            f"--proportions must be comma-separated numbers, got {args.proportions!r}"
        ) from None
    curves = io.read_columns(args.inp).T
    ens = FunctionalEnsemble(curves)
    box = functional_boxplot(ens, proportions, args.fence)
    io.write_json(
        args.out,
        {
            "median_index": box.median_index,
            "outlier_indices": box.outlier_indices,
            "proportions": list(proportions),
            "fence_factor": args.fence,
            "envelopes": {
                str(p): {"lower": list(lo), "upper": list(hi)}
                for p, (lo, hi) in box.central_envelopes.items()
            },
            "fences": {"lower": list(box.fences[0]), "upper": list(box.fences[1])},
            "depths": list(box.depths),
        },
    )
    _summary(
        f"fboxplot: {ens.n_curves} curves x {ens.n_points} points, median={box.median_index}, "
        f"outliers={len(box.outlier_indices)}"
    )
    return 0


def _cmd_shm_demo(args) -> int:
    data_rng, perturb_rng, track_rng = np.random.default_rng(args.seed).spawn(3)
    dataset = generate_shm_dataset(rng=data_rng)
    if args.track_index is not None and not 0 <= args.track_index < dataset.count:
        raise UsageError(f"--track-index must lie in [0, {dataset.count}), got {args.track_index}")
    pca = fit_pca(dataset)
    model = fit_one_class(pca.points, nu=args.nu, gamma=args.gamma)

    cfg = AugmentConfig(beta_u=args.beta, beta_v=args.beta, alpha=args.alpha)
    after = np.empty_like(pca.points)
    for i, child in enumerate(perturb_rng.spawn(dataset.count)):
        after[i] = pca.project(stiefelgen_matrix(dataset.observations[i], cfg, child))

    ranking = norm_change_ranking(pca.points, after)
    candidate = adversarial_candidate(ranking, args.percentile)
    if args.track_index is not None:
        track_index = args.track_index
    else:
        track_index = candidate if candidate is not None else 0
    path, decisions, crossing = perturb_and_track(
        dataset,
        track_index,
        args.beta,
        pca,
        model,
        track_rng,
        steps=args.steps,
        alpha=args.alpha,
    )

    train_decisions = model.decision(pca.points)
    io.write_json(
        args.out,
        {
            "observations": dataset.count,
            "sensors": dataset.sensors,
            "samples": dataset.samples,
            "nu": args.nu,
            "gamma": args.gamma,
            "beta": args.beta,
            "training_outlier_fraction": float(np.mean(train_decisions < 0)),
            "ranking": [[i, n] for i, n in ranking],
            "adversarial_index": candidate,
            "tracked_index": track_index,
            "track_decisions": decisions,
            "boundary_crossing_step": crossing,
            "track_path": [list(p) for p in path],
        },
    )
    if args.points_out:
        io.write_columns(
            args.points_out,
            np.hstack([pca.points, after]),
            header="before_x,before_y,after_x,after_y",
        )
    _summary(
        f"shm-demo: {dataset.count} obs of {dataset.sensors}x{dataset.samples}, "
        f"outlier_fraction={float(np.mean(train_decisions < 0)):.3f}, "
        f"adversarial={candidate}, crossing={crossing}, seed={args.seed}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefelgen",
        description="Time-series generation by geodesic perturbation of SVD factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=list(parents))
        p.set_defaults(func=func)
        return p

    # flags of augment, geodesic and batch: the input page and its perturbation
    page = argparse.ArgumentParser(add_help=False)
    page.add_argument("--in", dest="inp", required=True, help="input CSV (one column)")
    page.add_argument("--out", required=True, help="output CSV")
    page.add_argument("--rows", type=int, required=True, help="page-matrix row count m")
    page.add_argument("--strategy", choices=FIT_STRATEGIES, default="pad_edge")
    page.add_argument("--beta", type=float, default=0.0, help="perturbation scale for both factors")
    page.add_argument("--beta-u", dest="beta_u", type=float, default=None, help="column-space scale")
    page.add_argument("--beta-v", dest="beta_v", type=float, default=None, help="row-space scale")
    page.add_argument("--alpha", type=float, default=0.0, help="metric parameter (0 = canonical)")
    page.add_argument("--seed", type=int, default=0, help="RNG seed")

    p = command("augment", _cmd_augment, "generate one perturbed series from a CSV signal", page)
    p.add_argument("--rank", type=int, default=None, help="perturb only the leading d columns")
    p.add_argument("--smooth", type=int, default=1, help="moving-average window")

    p = command("geodesic", _cmd_geodesic, "series along one geodesic, one column per step", page)
    p.add_argument("--steps", type=int, default=10)

    p = command("batch", _cmd_batch, "ensemble of independent draws, one column per draw", page)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--smooth", type=int, default=1, help="moving-average window")

    p = command("sphere", _cmd_sphere, "great-circle generation without a page matrix")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t", type=float, default=1.0, help="geodesic time")
    p.add_argument("--boundary", type=float, default=float(np.pi / 6))
    p.add_argument("--smooth", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    # flags of dmd-fit and dmd-ensemble: where the snapshots come from
    snaps = argparse.ArgumentParser(add_help=False)
    snaps.add_argument("--in", dest="inp", help="CSV, columns = snapshots (real data)")
    snaps.add_argument("--dt", type=float, default=1.0, help="snapshot spacing (with --in)")
    snaps.add_argument("--fixture", choices=["waves"], default=None, help="built-in benchmark data")
    snaps.add_argument("--rank", type=int, required=True)
    snaps.add_argument("--out", required=True, help="output JSON (dmd-fit) or CSV (dmd-ensemble)")

    p = command("dmd-fit", _cmd_dmd_fit, "fit snapshot dynamics, write model JSON", snaps)
    p.add_argument("--forecast-out", dest="forecast_out", default=None, help="training-grid forecast CSV")

    p = command("dmd-ensemble", _cmd_dmd_ensemble, "perturbed forecast ensemble at one spatial slice", snaps)
    p.add_argument("--beta", type=float, default=0.2)
    p.add_argument("--count", type=int, default=30)
    p.add_argument("--spatial-index", dest="spatial_index", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = command("fboxplot", _cmd_fboxplot, "functional boxplot of an ensemble CSV")
    p.add_argument("--in", dest="inp", required=True, help="CSV, columns = curves")
    p.add_argument("--out", required=True, help="output JSON")
    p.add_argument("--proportions", default="0.5", help="comma-separated central proportions")
    p.add_argument("--fence", type=float, default=1.5)

    p = command("shm-demo", _cmd_shm_demo, "multi-sensor novelty robustness workflow")
    p.add_argument("--out", required=True, help="output JSON summary")
    p.add_argument("--points-out", dest="points_out", default=None, help="projected points CSV")
    p.add_argument("--nu", type=float, default=0.1)
    p.add_argument("--gamma", type=float, default=1e-3)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--percentile", type=float, default=85.0)
    p.add_argument("--track-index", dest="track_index", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow or an invalid operation exits 1 instead of warning and going on
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (UsageError, OSError, io.CsvParseError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
