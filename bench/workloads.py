"""The benchmark's workloads: seeded inputs, CLI command chains and output checks.

Every workload is a chain of `stiefelgen` CLI invocations. The benchmark
seed fixes the generated input files and the `--seed` value of every
command; the program sees nothing else. The checks read the outputs of a
finished pass with numpy alone, so they do not trust the code they check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("ensemble", "forecast", "novelty")

#: Program-level sizes of each workload. "tiny" exists for the harness's own tests.
SIZES = {
    "full": {"samples": 2000, "rows": 50, "count": 500, "dmd_count": 30, "steps": 20},
    "tiny": {"samples": 200, "rows": 10, "count": 12, "dmd_count": 3, "steps": 2},
}

GEODESIC_STEPS = 10
DMD_OMEGAS = (2.3, 2.8)
DMD_TIME_POINTS = 200  # time grid of the CLI's built-in waves fixture
SHM_OBSERVATIONS = 50  # fixed by the CLI's shm-demo dataset
SHM_NU = 0.1  # shm-demo default

SV_TOL = 1e-8
OMEGA_TOL = 1e-6


@dataclass(frozen=True)
class Check:
    """One output check: a name, whether it held, and the measured value behind it."""

    name: str
    ok: bool
    value: float = 0.0


def command_seeds(seed: int, count: int = 4) -> list:
    """Independent `--seed` values for the commands of one chain."""
    return [int(s) for s in np.random.SeedSequence([seed, 0x5EED]).generate_state(count)]


def make_signal(seed: int, samples: int) -> np.ndarray:
    """Two tones of seeded frequency and phase plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(samples) / samples
    f1, f2 = rng.uniform(3.0, 8.0), rng.uniform(20.0, 40.0)
    p1, p2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (
        np.sin(2.0 * np.pi * f1 * t + p1)
        + 0.5 * np.sin(2.0 * np.pi * f2 * t + p2)
        + 0.2 * rng.standard_normal(samples)
    )


def write_inputs(workload: str, seed: int, size: str, inputs: Path) -> None:
    """Write the workload's input files (17 significant digits, like the CLI)."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "ensemble":
        values = make_signal(seed, SIZES[size]["samples"])
        (inputs / "signal.csv").write_text("".join(format(v, ".17g") + "\n" for v in values))


def chain(workload: str, seed: int, size: str, inputs: Path, out: Path) -> list:
    """The argv lists of one pass, in order."""
    p = SIZES[size]
    s = [str(x) for x in command_seeds(seed)]
    sig = str(inputs / "signal.csv")
    if workload == "ensemble":
        rows = str(p["rows"])
        return [
            ["augment", "--in", sig, "--out", str(out / "aug.csv"), "--rows", rows,
             "--beta", "0.4", "--smooth", "5", "--seed", s[0]],
            ["geodesic", "--in", sig, "--out", str(out / "geo.csv"), "--rows", rows,
             "--beta", "0.9", "--steps", str(GEODESIC_STEPS), "--seed", s[1]],
            ["sphere", "--in", sig, "--out", str(out / "sph.csv"), "--t", "0.5", "--seed", s[2]],
            ["batch", "--in", sig, "--out", str(out / "ens.csv"), "--rows", rows,
             "--beta", "0.3", "--count", str(p["count"]), "--seed", s[3]],
            ["fboxplot", "--in", str(out / "ens.csv"), "--out", str(out / "box.json"),
             "--proportions", "0.5,0.75"],
        ]
    if workload == "forecast":
        return [
            ["dmd-fit", "--fixture", "waves", "--rank", "2", "--out", str(out / "model.json")],
            ["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--beta", "0.2",
             "--count", str(p["dmd_count"]), "--seed", s[0], "--out", str(out / "dmd-ens.csv")],
        ]
    if workload == "novelty":
        return [
            ["shm-demo", "--beta", "1.0", "--steps", str(p["steps"]), "--percentile", "85",
             "--seed", s[0], "--out", str(out / "shm.json"), "--points-out", str(out / "pts.csv")],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _finite_shape(name: str, arr: np.ndarray, shape: tuple) -> Check:
    return Check(name, arr.shape == shape and bool(np.all(np.isfinite(arr))))


def _page_singular_values(values: np.ndarray, rows: int) -> np.ndarray:
    """Singular values of row-major rows x (N/rows) pages, one row per signal."""
    pages = values.reshape(values.shape[0], rows, -1)
    return np.linalg.svd(pages, compute_uv=False)


def _check_ensemble(size: str, inputs: Path, out: Path) -> list:
    p = SIZES[size]
    n, count = p["samples"], p["count"]
    signal = _csv(inputs / "signal.csv")[:, 0]
    aug = _csv(out / "aug.csv")
    geo = _csv(out / "geo.csv")
    sph = _csv(out / "sph.csv")
    ens = _csv(out / "ens.csv")
    checks = [
        _finite_shape("augment.shape", aug, (n, 1)),
        _finite_shape("geodesic.shape", geo, (n, GEODESIC_STEPS + 1)),
        Check("geodesic.start", geo.shape[0] == n and np.array_equal(geo[:, 0], signal)),
        _finite_shape("sphere.shape", sph, (n, 1)),
        _finite_shape("batch.shape", ens, (n, count)),
    ]
    if ens.shape == (n, count):
        want = _page_singular_values(signal[None, :], p["rows"])
        got = _page_singular_values(ens.T, p["rows"])
        drift = float(np.max(np.abs(got - want)) / want[0, 0])
        checks.append(Check("batch.singular_values", drift <= SV_TOL, drift))

    box = json.loads((out / "box.json").read_text())
    depths = np.asarray(box["depths"], dtype=float)
    env = {k: (np.asarray(v["lower"]), np.asarray(v["upper"])) for k, v in box["envelopes"].items()}
    ok = (
        depths.shape == (count,)
        and bool(np.all((depths >= 0.0) & (depths <= 1.0)))
        and 0 <= box["median_index"] < count
        and depths[box["median_index"]] == depths.max()
        and set(env) == {"0.5", "0.75"}
        and all(lo.shape == (n,) and np.all(np.isfinite(lo)) and np.all(lo <= hi) for lo, hi in env.values())
        and bool(np.all(env["0.75"][0] <= env["0.5"][0]) and np.all(env["0.5"][1] <= env["0.75"][1]))
    )
    checks.append(Check("fboxplot.summary", bool(ok)))
    return checks


def _check_forecast(size: str, inputs: Path, out: Path) -> list:
    model = json.loads((out / "model.json").read_text())
    omegas = np.asarray(model["omegas"], dtype=float)
    checks = []
    if omegas.shape == (len(DMD_OMEGAS), 2):
        freq = np.sort(omegas[:, 1])
        err = float(max(np.max(np.abs(freq - DMD_OMEGAS)), np.max(np.abs(omegas[:, 0]))))
        checks.append(Check("dmd-fit.omegas", err <= OMEGA_TOL, err))
    else:
        checks.append(Check("dmd-fit.omegas", False))
    pairs = np.asarray(model["eigenvalues"] + model["amplitudes"], dtype=float)
    checks.append(Check("dmd-fit.finite", bool(np.all(np.isfinite(pairs)))))
    members = _csv(out / "dmd-ens.csv")
    checks.append(_finite_shape("dmd-ensemble.shape", members, (DMD_TIME_POINTS, SIZES[size]["dmd_count"])))
    return checks


def _check_novelty(size: str, inputs: Path, out: Path) -> list:
    steps = SIZES[size]["steps"]
    shm = json.loads((out / "shm.json").read_text())
    ranking = shm["ranking"]
    norms = np.asarray([r[1] for r in ranking], dtype=float)
    indices = sorted(r[0] for r in ranking)
    frac = shm["training_outlier_fraction"]
    track = np.asarray(shm["track_path"], dtype=float)
    decisions = np.asarray(shm["track_decisions"], dtype=float)
    return [
        Check("shm-demo.ranking",
              indices == list(range(SHM_OBSERVATIONS))
              and bool(np.all(np.isfinite(norms)) and np.all(np.diff(norms) >= 0.0))),
        # the nu-property: nu bounds the training outlier fraction from above;
        # 2/count is the acceptance suite's allowance for boundary points
        # that rounding puts on the negative side
        Check("shm-demo.nu_property", frac <= SHM_NU + 2.0 / SHM_OBSERVATIONS, frac),
        Check("shm-demo.track",
              track.shape == (steps + 1, 2) and decisions.shape == (steps + 1,)
              and bool(np.all(np.isfinite(track)) and np.all(np.isfinite(decisions)))),
        _finite_shape("shm-demo.points", np.loadtxt(out / "pts.csv", delimiter=",", skiprows=1, ndmin=2),
                      (SHM_OBSERVATIONS, 4)),
    ]


_CHECKERS = {"ensemble": _check_ensemble, "forecast": _check_forecast, "novelty": _check_novelty}


def check_outputs(workload: str, size: str, inputs: Path, out: Path) -> list:
    """Check one pass's outputs. A missing or unreadable output fails its workload's checks."""
    try:
        return _CHECKERS[workload](size, inputs, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [Check(f"{workload}.readable ({type(exc).__name__}: {exc})", False)]
