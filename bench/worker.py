"""Measured process of the benchmark; started by run.py, never by hand.

`worker.py setup ...` times one fresh-process set-up: importing stiefelgen
and writing the workload's input files. `worker.py run ...` does the same
set-up, then runs timed passes of the workload's CLI chain in-process and,
with --trace 1, traced passes after them. It prints one JSON object.

The BLAS thread count is pinned before numpy is first imported, because
OpenBLAS reads it when the library loads.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
STIEFELGEN_THREADS_SET = "STIEFELGEN_THREADS" in os.environ
os.environ.pop("STIEFELGEN_THREADS", None)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))


def _blas_threads() -> dict:
    """Thread count each bundled OpenBLAS reports, keyed by the package that ships it."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.with_name(pkg.__name__ + ".libs")
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    out[pkg.__name__] = int(fn())
                    break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "stiefelgen_threads": "set, then removed" if STIEFELGEN_THREADS_SET else "unset",
    }


def setup(workload: str, seed: int, size: str, work: Path) -> float:
    """Import stiefelgen and write the inputs; returns the seconds it took."""
    start = time.perf_counter()
    import stiefelgen.cli  # noqa: F401
    import workloads

    loaded = Path(sys.modules["stiefelgen"].__file__).resolve()
    if ROOT / "src" not in loaded.parents:
        raise ImportError(f"stiefelgen was imported from {loaded}, not from this checkout")
    workloads.write_inputs(workload, seed, size, work / "inputs")
    return time.perf_counter() - start


def _hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _run_pass(chain: list, out: Path) -> tuple:
    """One pass of the chain. Returns (wall seconds, CPU seconds, exit codes)."""
    from stiefelgen import cli

    out.mkdir(parents=True, exist_ok=True)
    gc.collect()
    wall, cpu = time.perf_counter(), time.process_time()
    codes = [_call(cli, argv) for argv in chain]
    return time.perf_counter() - wall, time.process_time() - cpu, codes


def _call(cli, argv: list) -> int:
    """Exit code of one CLI call; an exception escaping the CLI counts as code -1."""
    try:
        return cli.main(argv)
    except Exception:  # the pass must go on so the failure is counted, not fatal
        traceback.print_exc()
        return -1


def _passes(workload, seed, size, work, prefix, seconds, minimum, tracer=None) -> dict:
    """Run passes within `seconds` (at least `minimum`).

    A pass starts only if a median-length pass still fits the window, so
    a run ends close to `seconds`. Untraced, the outputs of pass 0 stay on
    disk for the checks; every other pass keeps only the hashes of its
    files. Traced, each pass also yields its layer metrics. `rss_mb` is the
    process's peak resident memory after each pass.
    """
    import workloads

    walls, cpus, rss_mb, codes, hashes, layers = [], [], [], [], [], []
    start = time.perf_counter()
    while len(walls) < minimum or time.perf_counter() - start + statistics.median(walls) <= seconds:
        out = work / f"{prefix}{len(walls)}"
        if tracer is not None:
            tracer.reset()
        wall, cpu, rc = _run_pass(workloads.chain(workload, seed, size, work / "inputs", out), out)
        walls.append(wall)
        cpus.append(cpu)
        rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        codes.extend(rc)
        hashes.append(_hashes(out))
        if tracer is not None:
            layers.append(tracer.layer_metrics())
        if tracer is not None or len(walls) > 1:
            shutil.rmtree(out)
    return {"walls": walls, "cpus": cpus, "rss_mb": rss_mb, "codes": codes, "hashes": hashes, "layers": layers}


def run(args) -> dict:
    work = Path(args.work)
    setup_s = setup(args.workload, args.seed, args.size, work)
    window = args.seconds / 2 if args.trace else args.seconds
    plain = _passes(args.workload, args.seed, args.size, work, "pass", window, 2)
    result = {"setup_s": setup_s, "env": environment(args.seed), "plain": plain}
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = _passes(args.workload, args.seed, args.size, work, "traced", window, 1, tracer)
        finally:
            tracer.uninstall()
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup(args.workload, args.seed, args.size, Path(args.work))}))
    else:
        print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
