"""Run a function over the shares of a job, one share per CPU, in forked processes.

A command splits work whose parts do not depend on each other (rows of
an integrate call, trace files) into shares. The calling process runs
the first share and a child made with os.fork runs each other one, so
the child starts with the parent's modules and arrays and nothing is
passed to it. The child sends back its pickled result, or its pickled
exception, through a pipe and exits. A share's result does not depend
on which process computed it, so neither does any output byte.
"""
from __future__ import annotations

import os
import pickle
import signal
import warnings

from .errors import OscconvError


def cpus() -> int:
    """The CPUs this process may run on; 1 where that or os.fork is not available."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


def split(items, count: int) -> list:
    """items in count contiguous runs, in order, whose lengths differ by at most one."""
    size = len(items)
    return [items[size * i // count:size * (i + 1) // count] for i in range(count)]


def run(func, shares: list) -> list:
    """[func(share) for share in shares]: the first share here, each other in a child.

    An exception is raised here with its type and message: the calling
    process's own first, then the children's in share order. Every child
    is reaped before this returns or raises, and one still running then
    is killed first; the kernel kills them if this process is killed.
    """
    parent = os.getpid()
    children = {}  # pid: the read end of its pipe, in share order
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns of a fork in a process with threads. Here
                    # the threads are numpy's BLAS pool, which a child never calls.
                    warnings.filterwarnings("ignore", ".* is multi-threaded, use of fork",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError as exc:
                os.close(read_end)
                os.close(write_end)
                raise OscconvError(f"cannot start a worker process: {exc}") from None
            if pid == 0:
                os.close(read_end)
                _child(func, share, write_end, parent)
            os.close(write_end)
            children[pid] = read_end
        results = [func(shares[0])]
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            os.close(children.pop(pid))
            status = os.waitpid(pid, 0)[1]
            results.append(_result(payload, os.waitstatus_to_exitcode(status)))
        return results
    finally:
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(func, share, write_end: int, parent: int) -> None:
    """Send func(share), or the exception it raised, through write_end; then exit.

    The kernel kills the child when the process parent ends, and a child
    whose parent ended before it asked for that exits at once.
    os._exit skips the parent's exit handlers and buffered output, which
    the child holds copies of.
    """
    import ctypes  # here, so that a command that forks no child does not load it

    code = 1
    try:
        prctl = ctypes.CDLL(None).prctl  # int prctl(int option, unsigned long arg2, ...)
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG
        if os.getppid() != parent:
            return
        try:
            payload = pickle.dumps((True, func(share)))
        except BaseException as exc:  # sent to the parent, which raises it
            payload = pickle.dumps((False, _portable(exc)))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """exc if it comes back from pickle, else an OscconvError with its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return OscconvError(f"{type(exc).__name__}: {exc}")


def _result(payload: bytes, code: int):
    """The result a child sent, or the exception it sent raised; code is its exit code."""
    if code != 0:
        how = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exit code {code}"
        raise OscconvError(f"a worker process ended by {how} before it sent its result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value
