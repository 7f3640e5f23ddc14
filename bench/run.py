"""Benchmark of the stiefelgen CLI workflows.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Runs one workload (or `all` three) from the root of a checkout: set-up is
timed in fresh processes, the workload's CLI chain is timed in one more,
every output is checked, and the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 its
per-layer ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

from workloads import SIZES, WORKLOADS, Check, check_outputs  # noqa: E402

#: Fresh-process set-ups per run, the measured worker's own included.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 150


def _worker(mode: str, args, workload: str, work: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload, "--seed", str(args.seed),
           "--size", args.size, "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"benchmark worker '{mode}' exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _same_outputs(name: str, reference: dict, hashes: list) -> list:
    """One check per pass: its output files are byte-identical to pass 0's."""
    return [Check(f"{name}.pass{k}", h == reference) for k, h in enumerate(hashes)]


def measure(workload: str, args, spec: dict) -> dict:
    """Set up, run and check one workload; returns the result object."""
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = [_worker("setup", args, workload, work, SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    res = _worker("run", args, workload, work, RUN_TIMEOUT_S)
    setups.append(res["setup_s"])
    plain = res["plain"]
    codes = list(plain["codes"])

    checks = check_outputs(workload, args.size, work / "inputs", work / "pass0")
    reference = plain["hashes"][0]
    checks += _same_outputs("determinism", reference, plain["hashes"][1:])
    if args.trace:
        checks += _same_outputs("traced_identical", reference, res["traced"]["hashes"])
        codes += res["traced"]["codes"]

    failed_checks = [c.name for c in checks if not c.ok]
    failed = sum(1 for c in codes if c != 0) + len(failed_checks)
    attempted = len(codes) + len(checks)
    if failed_checks:
        print(f"{workload}: failed checks: {', '.join(failed_checks)}", file=sys.stderr)

    wall_s = statistics.median(plain["walls"])
    # Later passes in the same process only add allocator fragmentation,
    # which a CLI user, who starts a fresh process per call, never sees.
    peak_rss_mb = plain["rss_mb"][0]
    values = {"wall_s": wall_s, "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    if args.trace:
        traced = res["traced"]
        layers = {k: statistics.median(m.get(k, 0.0) for m in traced["layers"])
                  for k in set().union(*traced["layers"])}
        layers["process.cpu_s"] = statistics.median(plain["cpus"])
        layers["trace.overhead_s"] = statistics.median(traced["walls"]) - wall_s
        by_name = {c.name: c.value for c in checks}
        layers["check.sv_drift_max"] = by_name.get("batch.singular_values", 0.0)
        layers["check.omega_err_max"] = by_name.get("dmd-fit.omegas", 0.0)
        values = layers
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in group}

    print("env " + json.dumps(res["env"], sort_keys=True))
    print(
        f"{workload}: wall_s {wall_s:.4f} s (median of {len(plain['walls'])} passes), "
        f"setup_s {statistics.median(setups):.4f} s (median of {len(setups)}), "
        f"peak_rss_mb {peak_rss_mb:.1f} MB (first pass), "
        f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} operations)"
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="program-level input size; 'tiny' is for the harness's own tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "stiefelgen" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: {ROOT} is not a stiefelgen checkout (src/stiefelgen or BENCHMARK.json missing)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    try:
        if args.workload != "all":
            result = measure(args.workload, args, spec)
        else:
            result = {w: measure(w, args, spec) for w in WORKLOADS}
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
