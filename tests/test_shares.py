"""Work split into shares over forked processes: the same results and bytes at any
CPU count, every failure raised in the calling process, and no process left behind."""
import contextlib
import ctypes
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import oscconv._shares
import oscconv.inference
from oscconv import ConfigurationError, OscillatorArrayConfig, integrate
from oscconv.cli import main
from oscconv.errors import DivergenceError, OscconvError
from oscconv.inference import _seed_blocks

INPUTS = Path(__file__).parent / "golden" / "inputs"
FRAGMENT = str(INPUTS / "fragment.pgm")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail, rather than hang, when the body takes longer than seconds."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_divergence_error_pickles_with_its_step_norm_and_message():
    error = pickle.loads(pickle.dumps(DivergenceError(3, 51.0)))
    assert type(error) is DivergenceError
    assert (error.step, error.norm) == (3, 51.0)
    assert str(error) == "state norm 51 exceeded the divergence guard at step 3"


class TestRun:
    def test_results_come_in_share_order(self):
        shares = oscconv._shares.split(range(10), 3)
        assert [list(share) for share in shares] == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
        results = oscconv._shares.run(lambda share: [(os.getpid(), i * i) for i in share], shares)
        assert [square for part in results for _, square in part] == [i * i for i in range(10)]
        # the first share runs here, each other in a process of its own
        pids = [part[0][0] for part in results]
        assert pids[0] == os.getpid() and len(set(pids)) == 3
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ConfigurationError("bad share"), KeyError("key"),
                                       DivergenceError(7, 60.0)])
    def test_a_childs_exception_is_raised_with_its_type_and_message(self, error):
        def func(share):
            if share == 2:
                raise error
            return share

        with pytest.raises(type(error)) as raised:
            oscconv._shares.run(func, [0, 1, 2, 3])
        assert str(raised.value) == str(error)
        assert_no_child_left()

    def test_an_exception_that_cannot_be_pickled_keeps_its_type_name_and_message(self):
        class Unpicklable(Exception):
            pass

        def func(share):
            if share:
                raise Unpicklable("in a share")

        with pytest.raises(OscconvError, match="^Unpicklable: in a share$"):
            oscconv._shares.run(func, [0, 1])
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_the_callers_own_exception_comes_first_and_stops_the_children(self, error):
        def func(share):
            if share == 0:
                raise error("here")
            time.sleep(60)

        start = time.monotonic()
        with deadline(30), pytest.raises(error, match="here"):
            oscconv._shares.run(func, [0, 1, 2])
        assert time.monotonic() - start < 10  # the sleeping children were killed
        assert_no_child_left()

    def test_a_killed_child_is_one_line_and_does_not_hang(self):
        def func(share):
            if share:
                os.kill(os.getpid(), signal.SIGKILL)
            return share

        with deadline(30), pytest.raises(OscconvError) as raised:
            oscconv._shares.run(func, [0, 1])
        assert str(raised.value) == (
            f"a worker process ended by signal {int(signal.SIGKILL)} "
            f"({signal.strsignal(signal.SIGKILL)}) before it sent its result")
        assert_no_child_left()

    def test_a_fork_that_fails_is_one_line(self, monkeypatch):
        forks = []

        def fork():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(1)
            return real_fork()

        real_fork = os.fork
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OscconvError, match="^cannot start a worker process: .*unavailable$"):
            oscconv._shares.run(lambda share: share, [0, 1, 2])
        assert forks == [1]  # the child forked first is reaped
        assert_no_child_left()

    def test_a_fork_beside_a_thread_does_not_warn(self):
        # Python 3.12 warns of a fork in a process with threads, and drops the
        # warning when a filter makes it an error: only a recording filter sees it
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert oscconv._shares.run(lambda share: share, [0, 1]) == [0, 1]
        finally:
            stop.set()
            thread.join()
        assert [str(w.message) for w in caught if "multi-threaded" in str(w.message)] == []
        assert_no_child_left()


def test_the_cpu_count_is_the_affinity_mask(monkeypatch):
    assert oscconv._shares.cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert oscconv._shares.cpus() == 1


# Commands whose calls split into 3 shares at 3 CPUs: each steps 900 to 1,002
# oscillator states a call. match_partial_failure is the golden case of that
# name, whose filters 0, 1, 3, 6, 9 and 10 diverge.
COMMANDS = {
    "match_dump": ["match", FRAGMENT, "--seeds", "0:2", "--t-end", "20", "--dump-traces"],
    "featuremap": ["featuremap", str(INPUTS / "grating7.pgm"), "--seeds", "0:4", "--t-end", "20"],
    "sweep": ["sweep-locking", "--grid", "0:0.2:0.0004", "--t-end", "20"],
    "match_partial_failure": ["match", FRAGMENT, "--t-end", "40", "--rho", "0.01", "--epsilon",
                              "0.05", "--delta-omega", "0.5", "--seeds", "1,2"],
}


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_writes_the_same_bytes_at_any_cpu_count(capsys, tmp_path, monkeypatch,
                                                          use_cpus, name):
    counts = []  # shares per split work, in this process

    def counting(func, shares):
        counts.append(len(shares))
        return run(func, shares)

    run = oscconv._shares.run
    monkeypatch.setattr(oscconv._shares, "run", counting)
    outputs = []
    for cpus in (1, 2, 3):
        use_cpus(cpus)
        out_dir = tmp_path / str(cpus)
        code = main([*COMMANDS[name], "--out-dir", str(out_dir)])
        files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
        outputs.append((code, capsys.readouterr(), files))
        assert max(counts) == cpus
        counts.clear()
        assert_no_child_left()
    assert outputs[0] == outputs[1] == outputs[2]
    code, _, files = outputs[0]
    assert code == 0
    if name == "match_partial_failure":
        errors = files["report_errors.csv"].decode().splitlines()[1:]
        assert [line.split(",")[0] for line in errors] == ["0", "1", "3", "6", "9", "10"]


def test_a_failed_share_exits_2_with_the_same_text(capsys, tmp_path, use_cpus):
    # every window diverges
    argv = ["featuremap", str(INPUTS / "grating7.pgm"), "--theta-deg", "30", "--k", "0.35",
            "--rho", "1e-3", "--epsilon", "0.5", "--seeds", "0:4", "--t-end", "40"]
    outputs = []
    for cpus in (1, 3):
        use_cpus(cpus)
        out_dir = tmp_path / str(cpus)
        code = main([*argv, "--out-dir", str(out_dir)])
        errors = (out_dir / "featuremap_errors.csv").read_bytes()
        outputs.append((code, capsys.readouterr(), errors))
        assert_no_child_left()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 2


def test_a_share_whose_read_raises_surfaces_here(use_cpus):
    use_cpus(2)
    caller = os.getpid()

    def read(trace):
        if os.getpid() != caller:
            raise ConfigurationError("read failed in a share")
        return 0

    cfg = OscillatorArrayConfig(n=25, t_end=5.0)
    with pytest.raises(ConfigurationError, match="^read failed in a share$"):
        list(_seed_blocks([np.ones(25)] * 4, cfg, tuple(range(8)), read))
    assert_no_child_left()


def test_a_killed_share_is_a_one_line_error(capsys, tmp_path, monkeypatch, use_cpus):
    use_cpus(2)
    caller = os.getpid()

    def killed(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(oscconv.inference, "integrate", killed)
    with deadline(60):
        code = main(["match", FRAGMENT, "--seeds", "0:2", "--t-end", "20",
                     "--out-dir", str(tmp_path / "m")])
    _, err = capsys.readouterr()
    assert code == 1
    assert err == (f"error: a worker process ended by signal {int(signal.SIGKILL)} "
                   f"({signal.strsignal(signal.SIGKILL)}) before it sent its result\n")
    assert_no_child_left()


def session_pids(sid: int) -> list[int]:
    """The processes of session sid, from /proc."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):
            # the fields after the parenthesised command: state, ppid, pgrp, session
            if int(stat.read_text().rsplit(")", 1)[1].split()[3]) == sid:
                pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads processes from /proc")
@pytest.mark.skipif(oscconv._shares.cpus() < 2, reason="needs a second CPU to fork a share")
def test_an_interrupted_command_leaves_no_process(tmp_path):
    # 17,501 steps of the default bank: about a second a share
    src = str(Path(oscconv._shares.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    command = subprocess.Popen(
        [sys.executable, "-m", "oscconv.cli", "match", FRAGMENT, "--t-end", "2000",
         "--out-dir", str(tmp_path / "m")],
        env=env, start_new_session=True, stderr=subprocess.PIPE)
    try:
        start = time.monotonic()
        while len(session_pids(command.pid)) < 2:  # until a share is forked
            assert command.poll() is None and time.monotonic() - start < 60
            time.sleep(0.01)
        command.send_signal(signal.SIGINT)  # to the command, not to its shares
        _, err = command.communicate(timeout=30)
        assert b"KeyboardInterrupt" in err
        assert session_pids(command.pid) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(command.pid, signal.SIGKILL)
        command.communicate()


# a caller whose first share, its own, sleeps, and whose second share, a
# child's, writes the child's pid to the file argv[1] names and sleeps
SLEEPING_SHARES = """
import os, sys, time
from oscconv import _shares

def share(path):
    if path is not None:
        with open(path + ".part", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(path + ".part", path)
    time.sleep(60)

_shares.run(share, [None, sys.argv[1]])
"""


def set_child_subreaper(on: bool) -> None:
    """Have this process adopt, as its own children, the orphans among its descendants."""
    prctl = ctypes.CDLL(None, use_errno=True).prctl  # int prctl(int option, unsigned long arg2, ...)
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
    if prctl(36, int(on)) != 0:  # 36: PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="adopts orphans through prctl")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_a_killed_caller_takes_its_children_with_it(tmp_path, signum):
    # neither signal reaches run's finally: the kernel must end the child. Its
    # orphan comes to this process, which reaps it and reads how it ended.
    src = str(Path(oscconv._shares.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    pid_file = tmp_path / "child.pid"
    set_child_subreaper(True)
    caller = subprocess.Popen([sys.executable, "-c", SLEEPING_SHARES, str(pid_file)], env=env,
                              start_new_session=True)
    child = None
    try:
        start = time.monotonic()
        while not pid_file.exists():  # until the child runs its share
            assert caller.poll() is None and time.monotonic() - start < 30
            time.sleep(0.01)
        child = int(pid_file.read_text())
        caller.send_signal(signum)
        assert caller.wait(timeout=10) == -signum
        start = time.monotonic()
        while (status := os.waitpid(child, os.WNOHANG))[0] == 0:
            assert time.monotonic() - start < 2, f"child {child} still running"
            time.sleep(0.01)
        child = None
        assert os.waitstatus_to_exitcode(status[1]) == -signal.SIGKILL
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(caller.pid, signal.SIGKILL)  # the child too, which keeps the group
        caller.wait()
        if child is not None:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(child, 0)
        set_child_subreaper(False)
    assert_no_child_left()
