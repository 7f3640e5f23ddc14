"""Tests for the command-line interface and file interchange."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stiefelgen
from stiefelgen import cli, io
from stiefelgen.cli import build_parser, main
from stiefelgen.dmd import ensemble_forecast, synth_spatiotemporal
from stiefelgen.signal import TimeSeries


# cells float() and loadtxt may read differently, or only one of them at all
ODD_CELLS = ["1_0", " 1e5 ", "nan", "-nan", "-inf", "Infinity", "1#2", "", "abc", "\xa01", "\u0661",
             "0x10", "1 2", "+.5", "1e400", "-0", "\t2\t", "'1'", "1,"]
CELLS = st.one_of(
    st.floats().map(repr), st.floats(width=32).map(lambda v: format(v, ".17g")), st.sampled_from(ODD_CELLS)
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r\n", "\r"])


@st.composite
def csv_text(draw) -> str:
    width = draw(st.integers(1, 4))
    rows = [",".join(draw(st.lists(CELLS, min_size=width, max_size=width)))
            for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.integers(0, 4)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = ",".join(draw(st.lists(CELLS, min_size=1, max_size=5)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(["", "  ", "\x0c"])))
    if draw(st.booleans()):
        rows.insert(0, ",".join(["value"] * width))
    return "".join(row + draw(LINE_ENDS) for row in rows)


def _read(read, path):
    try:
        return read(path)
    except io.CsvParseError as exc:
        return str(exc)


@pytest.fixture
def signal_csv(tmp_path):
    t = np.arange(400) * 0.05
    values = 3.0 + np.sin(t) + 0.4 * np.sin(5.3 * t)
    path = tmp_path / "signal.csv"
    io.write_series(path, TimeSeries(values))
    return path, values


class TestIo:
    def test_series_roundtrip_bitwise(self, tmp_path, rng):
        values = rng.standard_normal(1000) * 1e3
        path = tmp_path / "x.csv"
        io.write_series(path, TimeSeries(values))
        back = io.read_series(path)
        assert np.array_equal(back.values, values)

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.5\n2.5\n")
        assert np.array_equal(io.read_series(path).values, [1.5, 2.5])

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"1.0\r\n2.0\r\n3.0\r\n")
        assert np.array_equal(io.read_series(path).values, [1.0, 2.0, 3.0])

    def test_columns_roundtrip_bitwise(self, tmp_path, rng):
        data = rng.standard_normal((60, 7))
        path = tmp_path / "m.csv"
        io.write_columns(path, data)
        assert np.array_equal(io.read_columns(path), data)

    def test_large_ensemble_roundtrip_bitwise(self, tmp_path):
        # 500 x 2000 ensemble; measured ~1.5 s at build time (soft budget)
        data = np.random.default_rng(0).standard_normal((2000, 500))
        path = tmp_path / "big.csv"
        io.write_columns(path, data)
        assert np.array_equal(io.read_columns(path), data)

    def test_written_bytes_equal_per_value_format(self, tmp_path):
        edges = [-0.0, 5e-324, 1e300, 0.1, 1.0, -2.5e-17, 123456789.125]
        data = np.array([edges + [np.inf], [np.nan] + edges[::-1]]).T
        path = tmp_path / "m.csv"
        io.write_columns(path, data, header="a,b")
        want = "a,b\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in data.tolist())
        assert path.read_bytes() == want.encode()
        io.write_series(path, TimeSeries(edges))
        assert path.read_bytes() == "".join(format(v, ".17g") + "\n" for v in edges).encode()

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\n2.0\nnot-a-number\n")
        with pytest.raises(io.CsvParseError, match="line 3"):
            io.read_series(path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,b\r\n1,2\r\n\xff,4\r\n")
        with pytest.raises(io.CsvParseError, match="line 3 is not UTF-8") as info:
            io.read_columns(path)
        assert (info.value.line, info.value.column) == (3, 1)

    def test_undecodable_byte_past_the_read_buffer_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = ",".join(["0.12345678901234567"] * 25) + "\n"  # 500 bytes: line 3001 starts 1.5 MB in
        path.write_bytes(row.encode() * 3000 + b"0.5,0.\xe95\n1,2\n")
        with pytest.raises(io.CsvParseError) as info:
            io.read_columns(path)
        assert (info.value.line, info.value.column) == (3001, 7)
        assert str(info.value).endswith("line 3001 is not UTF-8: byte 0xe9 at column 7")

    def test_leading_bom_series_reads_like_no_bom(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n")
        assert np.array_equal(io.read_series(path).values, [1.5, 2.5, 3.5])

    def test_leading_bom_columns_read_like_no_bom(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\r\n3,4\r\n")
        assert np.array_equal(io.read_columns(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_read_peak_memory_follows_the_array(self, tmp_path):
        # the file is decoded line by line into an array allocated once and never grown, so neither a
        # copy of the text nor a grown array and its copy is held through the parse
        data = np.random.default_rng(4).standard_normal((400, 500))
        path = tmp_path / "m.csv"
        io.write_columns(path, data)
        tracemalloc.start()
        try:
            got = io.read_columns(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, data)
        assert peak <= 1.2 * got.nbytes

    def test_blank_lines_do_not_size_the_read(self, tmp_path):
        # the row bound follows the bytes as well as the lines: for a 100-wide row and 10000 blank lines
        # the line count alone would allocate 10002 rows of 100 doubles to read one
        path = tmp_path / "m.csv"
        path.write_text(",".join(["1"] * 100) + "\n" * 10001)
        tracemalloc.start()
        try:
            got = io.read_columns(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.shape == (1, 100)
        assert peak <= 0.05 * 10001 * 100 * 8

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_refuses_non_finite_values_before_writing(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            io.write_json(path, {"ok": 1.0, "bad": [0.5, value]})
        assert not path.exists()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(csv_text())
    @example("a,b\n1_0, 1e5 \r\n\n-nan,-inf\n")
    @example("1,2\r3,4\n")
    @example("\ufeff1,2\n3,4\n")
    @example("\n\x0c\n1,2\n  \n3,4\n\n")
    @example("a,b\r\n1,2\r\n")
    # more lines than rows, or a last line without LF: the line count only bounds the rows read
    @example("a,b\n\n1,2\n\n\n3,4\n\n")
    @example("1,2\n3,4")
    @example("a,b\r1,2\r3,4\r")
    # the byte bound stops loadtxt before a short last row, which the per-cell parse then reports
    @example("1,2\n3,4\n5\n")
    @example("a\n,,,,,\n")
    def test_fast_read_equals_per_cell_read(self, text):
        # loadtxt either returns bitwise the per-cell array or defers to it, message included
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            path.write_bytes(text.encode())
            got = _read(io._parse_rows, path)
            with mock.patch.object(np, "loadtxt", side_effect=ValueError("per-cell parse forced")):
                want = _read(io._parse_rows, path)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_clean_file_skips_per_cell_read(self, tmp_path, monkeypatch):
        data = np.random.default_rng(3).standard_normal((40, 6))
        data[0, 0], data[1, 1], data[2, 2] = np.nan, -np.inf, -0.0
        path = tmp_path / "m.csv"
        io.write_columns(path, data, header="a,b,c,d,e,f")
        monkeypatch.setattr(io, "_parse_cells", None)
        assert io.read_columns(path).tobytes() == data.tobytes()


class TestAugmentCommand:
    def test_beta_zero_reproduces_input(self, tmp_path, signal_csv):
        inp, values = signal_csv
        out = tmp_path / "gen.csv"
        code = main(
            ["augment", "--in", str(inp), "--out", str(out), "--rows", "20",
             "--beta", "0", "--smooth", "1", "--seed", "7"]
        )
        assert code == 0
        got = io.read_series(out).values
        assert got.shape == values.shape
        assert np.abs(got - values).max() < 1e-10

    def test_moderate_run_same_length(self, tmp_path, signal_csv):
        inp, values = signal_csv
        out = tmp_path / "gen.csv"
        code = main(
            ["augment", "--in", str(inp), "--out", str(out), "--rows", "20",
             "--beta", "0.4", "--smooth", "5", "--seed", "7"]
        )
        assert code == 0
        assert io.read_series(out).values.shape == values.shape

    @pytest.mark.parametrize("alpha", ["0.5", "0.01", "-1", "-0.75", "nan"])
    def test_alpha_outside_range_is_domain_error(self, tmp_path, signal_csv, alpha, capsys):
        inp, _ = signal_csv
        out = tmp_path / "o.csv"
        code = main(["augment", "--in", str(inp), "--out", str(out), "--rows", "20",
                     "--beta", "1", f"--alpha={alpha}"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "alpha must lie in [-0.5, 0]" in err[0]
        assert not out.exists()

    def test_missing_input_is_usage_error(self, tmp_path):
        code = main(
            ["augment", "--in", str(tmp_path / "nope.csv"), "--out",
             str(tmp_path / "o.csv"), "--rows", "20"]
        )
        assert code == 2

    def test_multi_column_input_is_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "wide.csv"
        io.write_columns(inp, np.arange(40.0).reshape(10, 4))
        code = main(["augment", "--in", str(inp), "--out", str(tmp_path / "o.csv"), "--rows", "2"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("expected a single column, got 4")

    def test_ragged_row_is_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "ragged.csv"
        inp.write_text("1,2\n3,4\n5\n")
        code = main(["fboxplot", "--in", str(inp), "--out", str(tmp_path / "box.json")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("line 3 has 1 cell(s), expected 2")

    @pytest.mark.parametrize("side", ["--in", "--out"])
    def test_path_through_a_file_is_usage_error(self, tmp_path, signal_csv, side, capsys):
        # a path whose parent is a file raises NotADirectoryError, an OSError like the missing file
        inp, _ = signal_csv
        paths = {"--in": str(inp), "--out": str(tmp_path / "o.csv")}
        paths[side] = str(inp / "x.csv")
        code = main(["augment", "--in", paths["--in"], "--out", paths["--out"], "--rows", "20"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Not a directory" in err[0] and "Traceback" not in err[0]
        assert not (tmp_path / "o.csv").exists()

    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "latin1.csv"
        inp.write_bytes(b"1.0\n2.0\n3.\xe95\n4.0\n")
        out = tmp_path / "o.csv"
        code = main(["augment", "--in", str(inp), "--out", str(out), "--rows", "2"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Traceback" not in err[0]
        assert err[0].endswith(f"{inp}: line 3 is not UTF-8: byte 0xe9 at column 3")
        assert not out.exists()

    def test_leading_bom_input_generates_like_no_bom(self, tmp_path, signal_csv):
        inp, _ = signal_csv
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + inp.read_bytes())
        outs = [tmp_path / "plain_out.csv", tmp_path / "bom_out.csv"]
        for src, out in zip([inp, bom], outs):
            assert main(["augment", "--in", str(src), "--out", str(out), "--rows", "20", "--beta", "0.4",
                         "--seed", "7"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("text", ["value\n", "\n  \r\n\x0c\n"], ids=["header-only", "blank-only"])
    def test_input_without_data_is_one_line_usage_error(self, tmp_path, text, capsys):
        inp = tmp_path / "empty.csv"
        inp.write_bytes(text.encode())
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["augment", "--in", str(inp), "--out", str(out), "--rows", "2"])
        assert code == 2 and caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith(f"{inp}: no numeric rows")
        assert not out.exists()

    def test_domain_error_exit_code(self, tmp_path, signal_csv):
        inp, _ = signal_csv
        code = main(
            ["augment", "--in", str(inp), "--out", str(tmp_path / "o.csv"),
             "--rows", "20", "--beta", "1.7"]
        )
        assert code == 1


class TestOtherCommands:
    def test_geodesic_column_count(self, tmp_path, signal_csv):
        inp, values = signal_csv
        out = tmp_path / "path.csv"
        code = main(
            ["geodesic", "--in", str(inp), "--out", str(out), "--rows", "20",
             "--steps", "4", "--beta", "0.6", "--seed", "3"]
        )
        assert code == 0
        data = io.read_columns(out)
        assert data.shape == (400, 5)
        assert np.abs(data[:, 0] - values).max() < 1e-12

    def test_geodesic_has_no_smooth_flag(self, tmp_path, signal_csv, capsys):
        # column 0 of a path is the input itself, so smoothing has no meaning there
        inp, _ = signal_csv
        out = tmp_path / "geo.csv"
        code = main(["geodesic", "--in", str(inp), "--out", str(out), "--rows", "20",
                     "--steps", "2", "--smooth", "3"])
        assert code == 2
        assert "--smooth" in capsys.readouterr().err
        assert not out.exists()

    def test_batch_shape(self, tmp_path, signal_csv):
        inp, _ = signal_csv
        out = tmp_path / "ens.csv"
        code = main(
            ["batch", "--in", str(inp), "--out", str(out), "--rows", "20",
             "--count", "8", "--beta", "0.3", "--seed", "2"]
        )
        assert code == 0
        assert io.read_columns(out).shape == (400, 8)

    def test_sphere_runs(self, tmp_path, signal_csv):
        inp, values = signal_csv
        out = tmp_path / "sph.csv"
        code = main(["sphere", "--in", str(inp), "--out", str(out), "--seed", "4"])
        assert code == 0
        assert io.read_series(out).values.shape == values.shape

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--boundary", "nan", "boundary must be positive"), ("--t", "nan", "t must be finite"),
         ("--t", "inf", "t must be finite"), ("--t", "-inf", "t must be finite")],
    )
    def test_sphere_non_finite_flag_is_domain_error(self, tmp_path, signal_csv, flag, value, message, capsys):
        inp, _ = signal_csv
        out = tmp_path / "sph.csv"
        assert main(["sphere", "--in", str(inp), "--out", str(out), f"{flag}={value}"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    def test_overflow_is_one_line_domain_error(self, tmp_path, capsys):
        inp = tmp_path / "huge.csv"
        inp.write_text("1e300\n0.0\n2.0\n3.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sphere", "--in", str(inp), "--out", str(tmp_path / "o.csv")])
        assert code == 1 and caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "overflow" in err[0]

    def test_dmd_fit_fixture_recovers_frequencies(self, tmp_path):
        out = tmp_path / "model.json"
        code = main(["dmd-fit", "--fixture", "waves", "--rank", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        freqs = sorted(im for _, im in payload["omegas"])
        assert abs(freqs[0] - 2.3) < 1e-6 and abs(freqs[1] - 2.8) < 1e-6

    def test_dmd_requires_input_or_fixture(self, tmp_path):
        code = main(["dmd-fit", "--rank", "2", "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("command", ["dmd-fit", "dmd-ensemble"])
    @pytest.mark.parametrize(
        "flags, message",
        [(["--in", "IN", "--fixture", "waves"], "exactly one of --in and --fixture"),
         (["--fixture", "waves", "--dt", "0.5"], "--dt applies only to --in"),
         (["--fixture", "waves", "--dt", "1.0"], "--dt applies only to --in")],
        ids=["in-and-fixture", "dt-with-fixture", "default-dt-with-fixture"],
    )
    def test_dmd_snapshot_flag_that_would_be_ignored_is_usage_error(self, tmp_path, command, flags, message, capsys):
        inp = tmp_path / "snaps.csv"
        inp.write_text("1,2,3,4\n2,3,4,5\n")
        out = tmp_path / "out"
        argv = [command, *[str(inp) if f == "IN" else f for f in flags], "--rank", "2", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    def test_dmd_ensemble_member_count(self, tmp_path):
        out = tmp_path / "ens.csv"
        code = main(
            ["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--beta", "0.2",
             "--count", "5", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert io.read_columns(out).shape == (200, 5)

    @pytest.mark.parametrize("index", ["5000", "400", "-1"])
    def test_dmd_ensemble_spatial_index_out_of_range(self, tmp_path, index, monkeypatch, capsys):
        def not_reached(*args, **kwargs):
            raise AssertionError("the ensemble was computed before the index check")

        monkeypatch.setattr(cli, "ensemble_forecast", not_reached)
        code = main(
            ["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--count", "2",
             "--spatial-index", index, "--out", str(tmp_path / "ens.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--spatial-index" in err[0]
        assert not (tmp_path / "ens.csv").exists()

    @pytest.mark.parametrize("index", [None, "0"])
    def test_dmd_ensemble_writes_the_full_fields_slice(self, tmp_path, index):
        out, want = tmp_path / "ens.csv", tmp_path / "want.csv"
        flags = [] if index is None else ["--spatial-index", index]
        code = main(
            ["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--beta", "0.3", "--count", "4",
             "--seed", "3", *flags, "--out", str(out)]
        )
        assert code == 0
        x = np.linspace(-10.0, 10.0, cli.WAVES_X_POINTS)
        snaps = synth_spatiotemporal(x, np.linspace(0.0, cli.WAVES_T_SPAN, cli.WAVES_T_POINTS))
        times = np.arange(snaps.n_time) * snaps.dt
        full = ensemble_forecast(snaps, 2, 0.3, 4, times, np.random.default_rng(3))
        io.write_columns(want, full[:, 200 if index is None else int(index), :].T)
        assert out.read_bytes() == want.read_bytes()

    def test_dmd_ensemble_peak_memory_is_not_the_field(self, tmp_path):
        # 30 members of the 400 x 200 field would be 19.2 MB; only the written slice is held
        tracemalloc.start()
        try:
            code = main(
                ["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--beta", "0.2", "--count", "30",
                 "--seed", "1", "--out", str(tmp_path / "ens.csv")]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 0.5 * 30 * 400 * 200 * 8

    # outputs of over a PiB, above the 128 TiB user address space: the allocation fails at once on
    # any host, before a child generator is spawned. A MemoryError raised by Python itself, not
    # numpy, carries no message ("bare").
    @pytest.mark.parametrize(
        "argv, message",
        [(["batch", "--rows", "20", "--count", "1000000000000"], "Unable to allocate"),
         (["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--count", "1000000000000"], "Unable to allocate"),
         (["dmd-ensemble", "--fixture", "waves", "--rank", "2"], "stiefelgen: out of memory")],
        ids=["batch", "dmd-ensemble", "bare"],
    )
    def test_unallocatable_count_is_one_line_error(self, tmp_path, signal_csv, argv, message, monkeypatch, capsys):
        if message.endswith("out of memory"):
            monkeypatch.setattr(cli, "ensemble_forecast", mock.Mock(side_effect=MemoryError()))
        out = tmp_path / "out.csv"
        inp = ["--in", str(signal_csv[0])] if argv[0] == "batch" else []
        assert main([*argv, *inp, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    def test_dmd_fit_zero_eigenvalue_is_domain_error(self, tmp_path, capsys):
        inp = tmp_path / "snaps.csv"
        inp.write_text("1,0,0\n0,1,0\n")
        code = main(["dmd-fit", "--in", str(inp), "--rank", "2", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "zero eigenvalue" in err[0]

    @pytest.mark.parametrize(
        "argv, second",
        [(["dmd-fit", "--fixture", "waves", "--rank", "2"], "--forecast-out"),
         (["shm-demo", "--steps", "2"], "--points-out")],
    )
    def test_bad_second_output_leaves_no_first_output(self, tmp_path, argv, second, capsys):
        blocker = tmp_path / "s.csv"
        blocker.write_text("1\n")
        first = tmp_path / "first.json"
        argv = [*argv, "--out", str(first), second, str(blocker / "x.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "Not a directory" in err[0] and "Traceback" not in err[0]
        assert not first.exists()
        # a first output that was there before the run keeps its bytes
        first.write_text("kept\n")
        assert main(argv) == 2
        assert first.read_text() == "kept\n"

    def test_fboxplot_bad_proportions_is_usage_error(self, tmp_path, capsys):
        inp = tmp_path / "curves.csv"
        io.write_columns(inp, np.random.default_rng(0).standard_normal((40, 5)))
        code = main(
            ["fboxplot", "--in", str(inp), "--out", str(tmp_path / "box.json"),
             "--proportions", "0.5,abc"]
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--proportions" in err[0]

    @pytest.mark.parametrize("fence", ["nan", "-5", "inf"])
    def test_fboxplot_bad_fence_is_domain_error(self, tmp_path, fence, capsys):
        inp = tmp_path / "curves.csv"
        io.write_columns(inp, np.random.default_rng(0).standard_normal((40, 5)))
        out = tmp_path / "box.json"
        code = main(["fboxplot", "--in", str(inp), "--out", str(out), f"--fence={fence}"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "fence_factor must be finite and >= 0" in err[0]
        assert not out.exists()

    def test_fboxplot_duplicate_proportions_is_domain_error(self, tmp_path, capsys):
        # 0.5 and 0.50 are one envelope, so the summary could not list both
        inp = tmp_path / "curves.csv"
        io.write_columns(inp, np.random.default_rng(0).standard_normal((40, 5)))
        out = tmp_path / "box.json"
        code = main(["fboxplot", "--in", str(inp), "--out", str(out), "--proportions", "0.5,0.50,0.75"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "proportions must be distinct" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_fboxplot_non_finite_cell_is_domain_error(self, tmp_path, cell, capsys):
        inp, out = tmp_path / "curves.csv", tmp_path / "box.json"
        inp.write_text(f"1,2,3\n4,{cell},6\n7,8,9\n")
        assert main(["fboxplot", "--in", str(inp), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "non-finite" in err[0]
        assert not out.exists()

    def test_fboxplot_peak_memory_holds_the_ensemble_once(self, tmp_path):
        # the batch -> fboxplot size: the parsed array becomes the ensemble, and envelopes and the
        # outlier mask take a block or one k x t mask at a time, so little else is held beside it
        data = np.random.default_rng(5).standard_normal((2000, 500))
        inp = tmp_path / "ens.csv"
        io.write_columns(inp, data)
        tracemalloc.start()
        try:
            code = main(["fboxplot", "--in", str(inp), "--out", str(tmp_path / "box.json"),
                         "--proportions", "0.5,0.75"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.4 * data.nbytes

    def test_fboxplot_json_bytes(self, tmp_path):
        # ceil(0.5 * 3) = 2 deepest curves are y=1 and y=0; every value prints through float.__repr__
        inp, out = tmp_path / "curves.csv", tmp_path / "box.json"
        io.write_columns(inp, np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]]))
        assert main(["fboxplot", "--in", str(inp), "--out", str(out), "--fence", "0.1"]) == 0
        payload = {
            "depths": [2 / 3, 1.0, 2 / 3],
            "envelopes": {"0.5": {"lower": [0.0, -0.0], "upper": [1.0, 1.0]}},
            "fence_factor": 0.1,
            "fences": {"lower": [-0.1, -0.1], "upper": [1.1, 1.1]},
            "median_index": 1,
            "outlier_indices": [2],
            "proportions": [0.5],
        }
        text = out.read_bytes()
        assert text == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert b"-0.0" in text and b"0.6666666666666666" in text

    def test_fboxplot_summary(self, tmp_path, rng):
        curves = np.sin(np.linspace(0, 5, 40)) + 0.1 * rng.standard_normal((9, 40))
        inp = tmp_path / "curves.csv"
        io.write_columns(inp, curves.T)
        out = tmp_path / "box.json"
        code = main(
            ["fboxplot", "--in", str(inp), "--out", str(out),
             "--proportions", "0.5,0.75"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert 0 <= payload["median_index"] < 9
        assert set(payload["envelopes"]) == {"0.5", "0.75"}

    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_available_for_every_subcommand(self, capsys):
        for cmd in ["augment", "geodesic", "batch", "sphere", "dmd-fit",
                    "dmd-ensemble", "fboxplot", "shm-demo"]:
            assert main([cmd, "--help"]) == 0
            assert "usage" in capsys.readouterr().out


PAGE_FLAGS = ["--alpha", "--beta", "--beta-u", "--beta-v", "--in", "--out", "--rows", "--seed", "--strategy"]
SNAPSHOT_FLAGS = ["--dt", "--fixture", "--in", "--out", "--rank"]
HELP_FLAGS = ["--help", "-h"]
PAGE_DEFAULTS = {"strategy": "pad_edge", "beta": 0.0, "beta_u": None, "beta_v": None, "alpha": 0.0, "seed": 0}
SNAPSHOT_DEFAULTS = {"inp": None, "dt": 1.0, "fixture": None}


class TestParser:
    def test_each_subcommand_keeps_its_options(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {name: sorted(s for a in p._actions for s in a.option_strings) for name, p in sub.choices.items()}
        assert got == {
            "augment": sorted(PAGE_FLAGS + HELP_FLAGS + ["--rank", "--smooth"]),
            "geodesic": sorted(PAGE_FLAGS + HELP_FLAGS + ["--steps"]),
            "batch": sorted(PAGE_FLAGS + HELP_FLAGS + ["--count", "--smooth"]),
            "sphere": sorted(HELP_FLAGS + ["--boundary", "--in", "--out", "--seed", "--smooth", "--t"]),
            "dmd-fit": sorted(SNAPSHOT_FLAGS + HELP_FLAGS + ["--forecast-out"]),
            "dmd-ensemble": sorted(SNAPSHOT_FLAGS + HELP_FLAGS + ["--beta", "--count", "--seed", "--spatial-index"]),
            "fboxplot": sorted(HELP_FLAGS + ["--fence", "--in", "--out", "--proportions"]),
            "shm-demo": sorted(HELP_FLAGS + ["--alpha", "--beta", "--gamma", "--nu", "--out", "--percentile",
                                             "--points-out", "--seed", "--steps", "--track-index"]),
        }

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["augment", "--rows", "4"], {**PAGE_DEFAULTS, "rows": 4, "rank": None, "smooth": 1}),
            (["geodesic", "--rows", "4"], {**PAGE_DEFAULTS, "rows": 4, "steps": 10}),
            (["batch", "--rows", "4"], {**PAGE_DEFAULTS, "rows": 4, "count": 100, "smooth": 1}),
            (["dmd-fit", "--rank", "2"], {**SNAPSHOT_DEFAULTS, "rank": 2, "forecast_out": None}),
            (["dmd-ensemble", "--rank", "2"],
             {**SNAPSHOT_DEFAULTS, "rank": 2, "beta": 0.2, "count": 30, "spatial_index": None, "seed": 0}),
        ],
    )
    def test_shared_flags_keep_their_defaults(self, argv, want):
        args = vars(build_parser().parse_args(argv + ["--in", "x.csv", "--out", "y"]))
        assert args.pop("func").__name__ == "_cmd_" + argv[0].replace("-", "_")
        assert args == {**want, "command": argv[0], "inp": "x.csv", "out": "y"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["augment", "--out", "y", "--rows", "4"],
            ["batch", "--in", "x", "--rows", "4"],
            ["geodesic", "--in", "x", "--out", "y"],
            ["geodesic", "--in", "x", "--out", "y", "--rows", "4", "--strategy", "wrap"],
            ["dmd-fit", "--out", "y"],
            ["dmd-ensemble", "--rank", "2"],
            ["dmd-fit", "--rank", "2", "--out", "y", "--fixture", "lines"],
        ],
    )
    def test_missing_or_bad_shared_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err


class TestShmDemo:
    def test_end_to_end_summary(self, tmp_path):
        out = tmp_path / "shm.json"
        pts = tmp_path / "pts.csv"
        code = main(
            ["shm-demo", "--out", str(out), "--points-out", str(pts),
             "--steps", "10", "--seed", "0"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["observations"] == 50
        assert payload["sensors"] == 5
        assert payload["samples"] == 450
        assert 0.1 - 2 / 50 <= payload["training_outlier_fraction"] <= 0.1 + 2 / 50
        assert len(payload["track_path"]) == 11
        assert io.read_columns(pts).shape == (50, 4)

    def test_alpha_reaches_tracked_path(self, tmp_path):
        from stiefelgen.novelty import fit_one_class, fit_pca, generate_shm_dataset, perturb_and_track

        out = tmp_path / "shm.json"
        argv = ["shm-demo", "--out", str(out), "--alpha", "-0.25", "--track-index", "3",
                "--steps", "2", "--seed", "7"]
        assert main(argv) == 0
        # the tracked path runs on the third stream spawned from the seed
        data_seq, _, track_seq = np.random.SeedSequence(7).spawn(3)
        dataset = generate_shm_dataset(rng=np.random.default_rng(data_seq))
        pca = fit_pca(dataset)
        model = fit_one_class(pca.points, nu=0.1, gamma=1e-3)
        path, _, _ = perturb_and_track(
            dataset, 3, 1.0, pca, model, np.random.default_rng(track_seq), steps=2, alpha=-0.25
        )
        assert np.array_equal(json.loads(out.read_text())["track_path"], np.array(path))

    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_is_domain_error(self, tmp_path, gamma, capsys):
        out, pts = tmp_path / "shm.json", tmp_path / "pts.csv"
        argv = ["shm-demo", "--out", str(out), "--points-out", str(pts), "--steps", "1", f"--gamma={gamma}"]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "gamma must be positive and finite" in err[0]
        assert not out.exists() and not pts.exists()

    def test_unconverged_one_class_is_domain_error(self, tmp_path, monkeypatch, capsys):
        from stiefelgen import novelty

        monkeypatch.setattr(novelty, "MAX_SWEEPS", 1)
        out = tmp_path / "shm.json"
        assert main(["shm-demo", "--out", str(out), "--steps", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "did not converge within 1 sweeps" in err[0]
        assert not out.exists()

    def test_track_index_out_of_range_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def not_reached(*args, **kwargs):
            raise AssertionError("the ranking loop ran before the index check")

        monkeypatch.setattr(cli, "stiefelgen_matrix", not_reached)
        out = tmp_path / "shm.json"
        code = main(["shm-demo", "--out", str(out), "--track-index", "999"])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--track-index must lie in [0, 50)" in err[0]
        assert not out.exists()


# every subcommand once, with any import of scipy or a submodule raising ImportError
SCIPY_BLOCKED_RUN = r'''
import importlib.abc
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())

import numpy as np

from stiefelgen import io
from stiefelgen.cli import main
from stiefelgen.signal import TimeSeries

tmp = sys.argv[1]
t = np.arange(400) * 0.05
io.write_series(f"{tmp}/s.csv", TimeSeries(3.0 + np.sin(t) + 0.4 * np.sin(5.3 * t)))
page = ["--in", f"{tmp}/s.csv", "--rows", "20", "--beta", "0.5"]
calls = [
    ["augment", *page, "--out", f"{tmp}/a.csv"],
    ["geodesic", *page, "--steps", "3", "--out", f"{tmp}/g.csv"],
    ["batch", *page, "--count", "5", "--out", f"{tmp}/b.csv"],
    ["sphere", "--in", f"{tmp}/s.csv", "--out", f"{tmp}/sp.csv"],
    ["dmd-fit", "--fixture", "waves", "--rank", "2", "--out", f"{tmp}/d.json"],
    ["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--count", "3", "--out", f"{tmp}/e.csv"],
    ["fboxplot", "--in", f"{tmp}/b.csv", "--out", f"{tmp}/f.json"],
    ["shm-demo", "--steps", "2", "--out", f"{tmp}/shm.json"],
]
for argv in calls:
    print(argv[0], main(argv))
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
'''


class TestScipyFreeRuntime:
    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        src = str(Path(stiefelgen.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_RUN, str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        commands = ["augment", "geodesic", "batch", "sphere", "dmd-fit", "dmd-ensemble", "fboxplot",
                    "shm-demo"]
        assert run.stdout.splitlines() == [f"{c} 0" for c in commands] + ["scipy modules: []"], run.stderr


class TestDeterminism:
    def run_twice(self, argv, out_path):
        assert main(argv) == 0
        first = out_path.read_bytes()
        assert main(argv) == 0
        return first, out_path.read_bytes()

    def test_augment_byte_identical(self, tmp_path, signal_csv):
        inp, _ = signal_csv
        out = tmp_path / "g.csv"
        argv = ["augment", "--in", str(inp), "--out", str(out), "--rows", "20",
                "--beta", "0.5", "--smooth", "3", "--seed", "11"]
        a, b = self.run_twice(argv, out)
        assert a == b

    def test_batch_byte_identical(self, tmp_path, signal_csv):
        inp, _ = signal_csv
        out = tmp_path / "e.csv"
        argv = ["batch", "--in", str(inp), "--out", str(out), "--rows", "20",
                "--count", "4", "--beta", "0.3", "--seed", "11"]
        a, b = self.run_twice(argv, out)
        assert a == b
