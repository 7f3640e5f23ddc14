"""Row loops shared with one forked child: bitwise the serial results, errors raised here, every child reaped."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from stiefelgen import _fork, cli, io
from stiefelgen.augment import AugmentConfig, batch_generate, stiefelgen_series
from stiefelgen.cli import main
from stiefelgen.dmd import ensemble_forecast, synth_spatiotemporal
from stiefelgen.signal import TimeSeries

SIGNAL = TimeSeries(3.0 + np.sin(np.arange(300) * 0.05) + 0.4 * np.sin(np.arange(300) * 0.27))


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes that forked; every loop forks once shared(monkeypatch) has run."""
    made, fork = [], os.fork

    def counted():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def shared(monkeypatch):
    monkeypatch.setattr(_fork, "_may_fork", lambda: True)
    monkeypatch.setattr(_fork, "_FORK_MIN_ROWS", 1)


def serial(monkeypatch, by):
    if by == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(_fork, "_FORK_MIN_ROWS", 1)
    else:
        monkeypatch.setattr(_fork, "_may_fork", lambda: True)
        monkeypatch.setattr(_fork, "_FORK_MIN_ROWS", 10**9)


def rows_of(k, gen):
    return np.array([float(k), gen.standard_normal()])


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("by", ["one cpu", "threshold"])
@pytest.mark.parametrize("count", [1, 2, 7])
def test_batch_rows_are_the_serial_rows_on_spawned_streams(monkeypatch, forks, count, by):
    cfg = AugmentConfig(beta_u=0.4, beta_v=0.2, smooth_len=3)
    runs = []
    for setting in (lambda: serial(monkeypatch, by), lambda: shared(monkeypatch)):
        setting()
        rng = np.random.default_rng(21)
        rng.spawn(2)  # a Generator that has spawned before numbers its next children from there
        runs.append((batch_generate(SIGNAL, count, 12, cfg, rng).curves, rng.spawn(1)[0].standard_normal(4)))
    assert forks == [os.getpid()]
    (serial_rows, serial_next), (shared_rows, shared_next) = runs
    assert np.array_equal(shared_rows, serial_rows) and np.array_equal(shared_next, serial_next)
    for k, seq in enumerate(np.random.SeedSequence(21).spawn(2 + count)[2:]):
        direct = stiefelgen_series(SIGNAL, 12, cfg, np.random.default_rng(seq))
        assert np.array_equal(shared_rows[k], direct.values)
    assert_no_child()


@pytest.mark.parametrize(
    "cpus, threads, may",
    [({0, 1}, ["1"], True), ({0}, ["1"], False), ({0, 1}, ["1", "2"], False), (None, ["1"], False)],
    ids=["two cpus", "one cpu", "two threads", "no affinity"],
)
def test_may_fork_needs_two_cpus_and_one_thread(monkeypatch, cpus, threads, may):
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: threads if path == "/proc/self/task" else listdir(path))
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert _fork._may_fork() is may


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="the thread rule reads /proc")
def test_may_fork_counts_threads_started_by_any_code():
    script = (
        "import os, threading\n"
        "from stiefelgen import _fork\n"
        "alone = _fork._may_fork()\n"
        "stop = threading.Event(); thread = threading.Thread(target=stop.wait); thread.start()\n"
        "print(alone, _fork._may_fork()); stop.set(); thread.join()\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.split() == [str(len(os.sched_getaffinity(0)) > 1), "False"]


@pytest.mark.parametrize("shortest", [True, False])
def test_loops_shorter_than_the_threshold_stay_serial(monkeypatch, forks, shortest):
    shared(monkeypatch)
    monkeypatch.setattr(_fork, "_FORK_MIN_ROWS", 6)
    count = 6 if shortest else 5
    rows = _fork.fill_rows((count, 2), np.random.default_rng(0), rows_of)
    seqs = np.random.SeedSequence(0).spawn(count)
    want = np.array([rows_of(k, np.random.default_rng(seq)) for k, seq in enumerate(seqs)])
    assert np.array_equal(rows, want)
    assert forks == ([os.getpid()] if shortest else [])
    assert_no_child()


def test_many_short_rows_meet_without_a_lost_row(monkeypatch):
    # both processes race for the state bytes row after row; a row taken twice is made twice, alike,
    # and a row that neither made would leave this process's rows unequal to the serial ones
    want = _fork.fill_rows((3000, 2), np.random.default_rng(8), rows_of)
    shared(monkeypatch)
    for _ in range(4):
        rng = np.random.default_rng(8)
        assert np.array_equal(_fork.fill_rows((3000, 2), rng, rows_of), want)
        assert rng.bit_generator.seed_seq.n_children_spawned == 3000
    assert_no_child()


def test_a_shape_too_large_raises_numpys_memory_error(monkeypatch, forks):
    shared(monkeypatch)
    with pytest.raises(MemoryError, match="Unable to allocate"):  # over a PiB, above any address space
        _fork.fill_rows((10**12, 200), np.random.default_rng(0), rows_of)
    assert forks == []


@pytest.mark.parametrize("by", ["one cpu", "threshold"])
def test_a_shape_too_large_without_a_child_raises_numpys_memory_error(monkeypatch, forks, by):
    serial(monkeypatch, by)
    with pytest.raises(MemoryError, match="Unable to allocate"):  # over a PiB, above any address space
        _fork.fill_rows((10**12, 200), np.random.default_rng(0), rows_of)
    assert forks == []


@pytest.mark.parametrize("by", ["one cpu", "threshold"])
def test_rows_are_mapped_without_a_child(monkeypatch, forks, by):
    # the rows and their state bytes live in the mapping whether or not a child is forked, so the loop's
    # own allocations are one row and its child generator at a time
    serial(monkeypatch, by)
    tracemalloc.start()
    try:
        rows = _fork.fill_rows((500, 2000), np.random.default_rng(6), lambda k, gen: gen.standard_normal(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forks == []
    assert peak < 0.25 * rows.nbytes
    assert rows[499, 0] == np.random.default_rng(np.random.SeedSequence(6).spawn(500)[499]).standard_normal()


@pytest.mark.parametrize("by", ["one cpu", "threshold"])
@pytest.mark.parametrize("failing", [0, 4])
def test_an_error_without_a_child_leaves_the_failing_rows_child_counted(monkeypatch, forks, by, failing):
    # as a loop of rng.spawn(1)[0] then step leaves it: rows 0 to k have each spawned their child
    def step(k, gen):
        if k == failing:
            raise ValueError(f"row {k} failed")
        return rows_of(k, gen)

    serial(monkeypatch, by)
    rng = np.random.default_rng(3)
    rng.spawn(2)
    with pytest.raises(ValueError, match=rf"^row {failing} failed$"):
        _fork.fill_rows((9, 2), rng, step)
    assert forks == []
    assert rng.bit_generator.seed_seq.n_children_spawned == 2 + failing + 1


@pytest.mark.parametrize("by", ["one cpu", "threshold"])
def test_dmd_ensemble_field_is_the_same_with_a_child(monkeypatch, forks, by):
    snaps = synth_spatiotemporal(np.linspace(-5.0, 5.0, 40), np.linspace(0.0, 2.0, 30))
    times = np.arange(snaps.n_time) * snaps.dt
    runs = []
    for setting in (lambda: serial(monkeypatch, by), lambda: shared(monkeypatch)):
        setting()
        rng = np.random.default_rng(17)
        rng.spawn(1)
        field = ensemble_forecast(snaps, 2, 0.3, 6, times, rng, spatial_index=None)
        runs.append((field, rng.spawn(1)[0].standard_normal(4)))
    assert forks == [os.getpid()]
    (serial_field, serial_next), (shared_field, shared_next) = runs
    assert serial_field.shape == (6, 40, 30)
    assert np.array_equal(shared_field, serial_field) and np.array_equal(shared_next, serial_next)
    assert_no_child()


def test_shared_rows_when_the_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cfg = AugmentConfig(beta_u=0.3, beta_v=0.3)
    want = batch_generate(SIGNAL, 5, 12, cfg, np.random.default_rng(4)).curves
    shared(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    assert np.array_equal(batch_generate(SIGNAL, 5, 12, cfg, np.random.default_rng(4)).curves, want)


@pytest.mark.parametrize("how", ["fork warns", "SIGCHLD ignored"])
def test_the_child_is_reaped_when_the_fork_warns_or_reaps_itself(monkeypatch, forks, how):
    def warning_fork():  # Python 3.12+ warns here when the process runs other threads
        pid = fork()
        if pid:
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks.", DeprecationWarning)
        return pid

    want = _fork.fill_rows((9, 2), np.random.default_rng(5), rows_of)
    shared(monkeypatch)
    fork = os.fork
    if how == "fork warns":
        monkeypatch.setattr(os, "fork", warning_fork)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN if how == "SIGCHLD ignored" else signal.SIG_DFL)
    try:
        assert np.array_equal(_fork.fill_rows((9, 2), np.random.default_rng(5), rows_of), want)
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert_no_child()


def test_an_error_here_after_the_child_reaped_itself(monkeypatch):
    def step(k, gen):
        if os.getpid() == parent:
            time.sleep(0.3)  # the child makes rows 8 to 1, stops at row 0 and is gone
            raise ValueError("row 0 failed")
        return rows_of(k, gen)

    parent = os.getpid()
    shared(monkeypatch)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with pytest.raises(ValueError, match="^row 0 failed$"):
            _fork.fill_rows((9, 2), np.random.default_rng(5), step)
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert_no_child()


@pytest.mark.parametrize(
    "argv, outputs",
    [(["shm-demo", "--steps", "2", "--seed", "3"], ["--out", "shm.json", "--points-out", "pts.csv"]),
     (["batch", "--rows", "12", "--count", "5", "--beta", "0.3", "--seed", "3"], ["--out", "ens.csv"]),
     (["dmd-ensemble", "--fixture", "waves", "--rank", "2", "--count", "5", "--seed", "3"], ["--out", "ens.csv"])],
    ids=["shm-demo", "batch", "dmd-ensemble"],
)
def test_cli_outputs_are_byte_identical(tmp_path, monkeypatch, forks, argv, outputs):
    io.write_series(tmp_path / "signal.csv", SIGNAL)
    if argv[0] == "batch":
        argv = [*argv, "--in", str(tmp_path / "signal.csv")]
    files = {}
    for name in ("serial", "shared"):
        serial(monkeypatch, "one cpu") if name == "serial" else shared(monkeypatch)
        (tmp_path / name).mkdir()
        paths = [str(tmp_path / name / o) if i % 2 else o for i, o in enumerate(outputs)]
        assert main([*argv, *paths]) == 0
        files[name] = [(tmp_path / name / o).read_bytes() for o in outputs[1::2]]
    assert files["shared"] == files["serial"]
    assert forks == [os.getpid()]
    assert_no_child()


def test_rows_the_child_did_not_finish_are_made_here(monkeypatch):
    def step(k, gen):
        if os.getpid() != parent:
            if k == 5:
                os.kill(os.getpid(), signal.SIGKILL)  # dies with row 5 taken, rows 6 to 8 made
            return rows_of(k, gen)
        time.sleep(0.02)  # the child takes its rows before this process gets there
        return rows_of(k, gen)

    parent = os.getpid()
    want = _fork.fill_rows((9, 2), np.random.default_rng(2), rows_of)
    shared(monkeypatch)
    assert np.array_equal(_fork.fill_rows((9, 2), np.random.default_rng(2), step), want)
    assert_no_child()


@pytest.mark.parametrize("failing, raised", [((3, 5), 3), ((5,), 5)], ids=["here first", "child only"])
def test_child_error_is_raised_here_without_a_traceback(monkeypatch, capfd, failing, raised):
    def step(k, gen):
        if os.getpid() == parent:
            time.sleep(0.02)  # the child takes most rows, the failing ones among them
        if k in failing:
            raise ValueError(f"row {k} failed")
        return np.full(2, float(k))

    parent = os.getpid()
    shared(monkeypatch)
    with pytest.raises(ValueError, match=rf"^row {raised} failed$"):
        _fork.fill_rows((8, 2), np.random.default_rng(0), step)
    assert "Traceback" not in capfd.readouterr().err
    assert_no_child()


def test_interrupt_kills_and_reaps_the_child(monkeypatch):
    def step(k, gen):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(10.0)

    parent = os.getpid()
    shared(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _fork.fill_rows((4, 2), np.random.default_rng(0), step)
    assert time.perf_counter() - start < 5.0
    assert_no_child()


@pytest.mark.parametrize("error, code", [(ValueError, 1), (OSError, 2)])
def test_cli_error_in_a_shared_loop_leaves_no_child(tmp_path, monkeypatch, capsys, error, code):
    from stiefelgen.novelty import generate_shm_dataset

    def failing(mat, cfg, rng):
        if np.array_equal(mat, seventh):
            raise error("observation 7 failed")
        return draw(mat, cfg, rng)

    # shm-demo's dataset comes from the first of the three streams spawned from --seed
    seventh = generate_shm_dataset(rng=np.random.default_rng(0).spawn(3)[0]).observations[7]
    draw = cli.stiefelgen_matrix
    monkeypatch.setattr(cli, "stiefelgen_matrix", failing)
    shared(monkeypatch)
    assert main(["shm-demo", "--out", str(tmp_path / "shm.json"), "--steps", "1", "--seed", "0"]) == code
    assert capsys.readouterr().err.splitlines() == ["stiefelgen: observation 7 failed"]
    assert not (tmp_path / "shm.json").exists()
    assert_no_child()
