"""Tests of the benchmark harness itself: `python3 -m pytest bench`.

They run the harness at its "tiny" size, so they check plumbing, names
and the checker, not timings.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from stiefelgen import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_tiny() -> dict:
    """One tiny traced run per workload."""
    return {
        w: _result(_bench("--workload", w, "--seed", "3", "--seconds", "0.1", "--trace", "1", "--size", "tiny"))
        for w in workloads.WORKLOADS
    }


def _outputs(workload: str, tmp_path: Path) -> tuple:
    """Inputs and outputs of one tiny pass, written by the CLI in-process."""
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    out.mkdir()
    workloads.write_inputs(workload, 5, "tiny", inputs)
    for argv in workloads.chain(workload, 5, "tiny", inputs, out):
        assert cli.main(argv) == 0
    return inputs, out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_finishes_without_failures(traced_tiny, workload):
    result = traced_tiny[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])


def test_every_per_layer_metric_is_reached_by_some_workload(traced_tiny):
    # the dense exp_map route needs a factor with n < m < 2n; no workload has one
    unreached = {"stiefel.exp_map.route_dense"}
    reached = {name for r in traced_tiny.values() for name, m in r["metrics"].items() if m["value"] != 0}
    assert [m["name"] for m in SPEC["per_layer"] if m["name"] not in reached | unreached] == []


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(_bench("--workload", "forecast", "--seed", "4", "--seconds", "0.1", "--size", "tiny"))
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_name_is_well_formed(traced_tiny):
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += [w["name"] for w in SPEC["workloads"]]
    names += [n for r in traced_tiny.values() for n in r["metrics"]]
    assert len(set(names)) > len(SPEC["workloads"])
    assert [n for n in names if not NAME.fullmatch(n)] == []


def test_traced_and_untraced_passes_write_identical_files(tmp_path):
    work = tmp_path / "work"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "run", "--workload", "ensemble", "--seed", "2",
         "--size", "tiny", "--seconds", "0", "--trace", "1", "--work", str(work)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    reference = res["plain"]["hashes"][0]
    assert reference and all(h == reference for h in res["traced"]["hashes"] + res["plain"]["hashes"])


def _rewrite_csv(path: Path, edit) -> None:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    edit(data)
    np.savetxt(path, data, delimiter=",", fmt="%.17g")


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _shift_first_omega(path: Path) -> None:
    model = json.loads(path.read_text())
    model["omegas"][0][1] += 1e-5
    path.write_text(json.dumps(model))


CORRUPTIONS = {
    "geodesic start moved": ("ensemble", lambda out: _rewrite_csv(
        out / "geo.csv", lambda d: d.__setitem__((3, 0), d[3, 0] + 1e-9))),
    "non-finite draw": ("ensemble", lambda out: _rewrite_csv(
        out / "ens.csv", lambda d: d.__setitem__((0, 1), np.nan))),
    "draw off the manifold": ("ensemble", lambda out: _rewrite_csv(
        out / "ens.csv", lambda d: d.__setitem__((slice(None), 2), 1.01 * d[:, 2]))),
    "missing output": ("ensemble", lambda out: (out / "box.json").unlink()),
    "wrong frequency": ("forecast", lambda out: _shift_first_omega(out / "model.json")),
    "truncated ensemble": ("forecast", lambda out: _drop_last_line(out / "dmd-ens.csv")),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checker_flags_corrupted_output(tmp_path, corruption):
    workload, corrupt = CORRUPTIONS[corruption]
    inputs, out = _outputs(workload, tmp_path)
    assert all(c.ok for c in workloads.check_outputs(workload, "tiny", inputs, out))
    corrupt(out)
    assert not all(c.ok for c in workloads.check_outputs(workload, "tiny", inputs, out))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ensemble", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
