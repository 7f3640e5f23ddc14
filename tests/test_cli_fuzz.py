"""Property test of the CLI contract on generated argv and CSV input.

Every invocation of the cheap subcommands (everything but shm-demo) must
exit 0, 1 or 2, write at most one line to stderr (warnings included) and
raise nothing out of `main`. Flag values are well-typed, so argparse
accepts them, but range over invalid settings too; CSV files range over
small numeric grids with occasional headers, bad cells and ragged rows.
"""

import contextlib
import io as stdio
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from stiefelgen.cli import main

NUMBERS = st.floats(-100.0, 100.0, allow_nan=False).map(repr)
ODD_CELLS = st.sampled_from(["0", "1e300", "nan", "inf", "abc", ""])


SERIES_COMMANDS = ("augment", "geodesic", "batch", "sphere")


@st.composite
def csv_text(draw, command: str) -> str:
    n_rows = draw(st.integers(0, 30))
    single = command in SERIES_COMMANDS and draw(st.integers(0, 3)) > 0
    n_cols = 1 if single else draw(st.integers(1, 4))
    rows = [[draw(NUMBERS) for _ in range(n_cols)] for _ in range(n_rows)]
    if rows and draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = draw(ODD_CELLS)
    if rows and draw(st.integers(0, 5)) == 0:
        rows[draw(st.integers(0, n_rows - 1))] = draw(st.lists(NUMBERS, min_size=1, max_size=5))
    if draw(st.booleans()):
        rows.insert(0, ["value"] * n_cols)
    return "".join(",".join(row) + "\n" for row in rows)


def _num(valid: tuple, wide: tuple):
    """Mostly values from the valid range, sometimes from a wider one."""
    return st.one_of(
        st.floats(*valid, allow_nan=False), st.floats(*valid, allow_nan=False), st.floats(*wide, allow_nan=False)
    ).map(repr)


def _int(valid: tuple, wide: tuple):
    return st.one_of(st.integers(*valid), st.integers(*valid), st.integers(*wide)).map(str)


PERTURBATION = {
    "--beta": _num((0.0, 1.0), (-0.5, 1.5)),
    "--beta-u": _num((0.0, 1.0), (-0.5, 1.5)),
    "--alpha": st.sampled_from(["-1", "-0.5", "0", "0", "1"]),
    "--seed": _int((0, 3), (0, 3)),
}
ROWS = _int((2, 5), (-1, 40))

FLAGS = {
    "augment": {**PERTURBATION, "--rows": ROWS, "--smooth": _int((1, 4), (-1, 40)),
                "--rank": _int((1, 2), (-1, 6)),
                "--strategy": st.sampled_from(["truncate", "pad_edge", "overlap"])},
    "geodesic": {**PERTURBATION, "--rows": ROWS, "--steps": _int((1, 3), (-1, 3))},
    "batch": {**PERTURBATION, "--rows": ROWS, "--count": _int((1, 3), (-1, 3))},
    "sphere": {"--t": _num((0.0, 1.0), (-1.0, 2.0)), "--boundary": _num((0.1, 1.0), (-1.0, 4.0)),
               "--smooth": _int((1, 4), (-1, 40)), "--seed": _int((0, 3), (0, 3))},
    "dmd-fit": {"--dt": _num((0.1, 1.0), (-1.0, 2.0)), "--rank": _int((1, 2), (-1, 6))},
    "dmd-ensemble": {"--dt": _num((0.1, 1.0), (-1.0, 2.0)), "--rank": _int((1, 2), (-1, 6)),
                     "--beta": _num((0.0, 1.0), (-0.5, 1.5)), "--count": _int((1, 3), (-1, 3)),
                     "--spatial-index": _int((0, 3), (-2, 40)), "--seed": _int((0, 3), (0, 3))},
    "fboxplot": {"--proportions": st.lists(st.sampled_from(["0.5", "0.75", "0.5", "0", "1.5", "x"]),
                                           min_size=1, max_size=3).map(",".join),
                 "--fence": _num((0.5, 3.0), (-1.0, 3.0))},
}
REQUIRED = {"augment": ["--rows"], "geodesic": ["--rows"], "batch": ["--rows"],
            "dmd-fit": ["--rank"], "dmd-ensemble": ["--rank"]}


@st.composite
def invocation(draw) -> tuple:
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = set(draw(st.lists(st.sampled_from(sorted(flags)), unique=True))) | set(REQUIRED.get(command, []))
    argv = [command]
    # --flag=value, so that a value such as -1e-38 is not taken for an option
    argv += [f"{flag}={draw(flags[flag])}" for flag in sorted(chosen)]
    return argv, draw(csv_text(command))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocation())
def test_cli_exits_cleanly_with_one_stderr_line(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp) / "in.csv", Path(tmp) / "out"
        inp.write_text(text)
        argv = argv + ["--in", str(inp), "--out", str(out)]
        err = stdio.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), (argv, code)
    assert len(lines) <= 1, (argv, text, lines)
