"""The README's library example and CLI commands run as written."""

import re
import shlex
from pathlib import Path

import numpy as np

from stiefelgen import io
from stiefelgen.cli import main
from stiefelgen.signal import TimeSeries

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def cli_commands() -> list:
    """argv of every `stiefelgen ...` line of the sh blocks, in order, without the program name."""
    lines = [line for block in fenced_blocks("sh") for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("stiefelgen ")]


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (example,) = fenced_blocks("python")
    exec(compile(example, str(README), "exec"), {})


def test_cli_commands_run_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert [argv[0] for argv in commands] == [
        "augment", "geodesic", "batch", "sphere", "dmd-fit", "dmd-ensemble", "fboxplot", "shm-demo",
    ]
    t = np.arange(2000) * 0.01
    noise = 0.1 * np.random.default_rng(2024).standard_normal(t.size)
    io.write_series("steam.csv", TimeSeries(5.0 + np.sin(1.7 * t) + 0.5 * np.sin(6.1 * t) + noise))
    for argv in commands:
        assert main(argv) == 0, argv
        outputs = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--points-out")]
        assert outputs and all(Path(out).is_file() for out in outputs), argv
