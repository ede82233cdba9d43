"""How the program forks: a ``Served`` child serves calls of one function,
and ``run_all`` runs jobs in such children while this process runs the first.
``score`` and ``select`` build their influence setup while they read their
inputs, ``report`` trains two baselines while it trains the third, and
``clustering.kmeans`` gives a child part of the rows of each seed and Lloyd
pass. A child computes what this process would, so only the time differs."""

from __future__ import annotations

import os
import pickle
import signal
import threading

from .errors import ChildDiedError


def may_fork() -> bool:
    """Whether a forked child can run beside this process: ``os.fork``
    exists, this process may run on 2+ CPUs, and it runs no other Python
    thread (a fork copies only the calling thread, and a lock another thread
    holds would stay held in the child)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return hasattr(os, "fork") and (cpus or 1) > 1 and threading.active_count() == 1


def run_all(jobs: list) -> list:
    """``[job() for job in jobs]``. When ``may_fork()`` holds, each of
    ``jobs[1:]`` runs in a forked child (a ``Served`` call) while this process
    runs ``jobs[0]``, and the first error in list order, the serial order, is
    raised. A job whose fork fails runs here, in its turn. A child that dies
    raises ``ChildDiedError``, and its job is not run again: it may have read
    a pipe. Every child is killed and reaped before this returns or raises."""
    children = [Served(job) for job in jobs[1:]]
    try:
        for child in children:
            child.submit()
        return [job() for job in jobs[:1]] + [child.collect() for child in children]
    finally:
        for child in children:
            child.close()


class Served:
    """``fn`` served by one forked child: ``submit(*args)`` sends it a call,
    this process does its own work, and ``collect()`` returns ``fn(*args)``
    or raises the call's exception. The child calls its copy of ``fn`` as of
    the fork. Without a child (``may_fork()`` fails, or the fork does) a call
    runs here when it is collected. A child that ends without sending a
    result (the OOM killer, say) raises ``ChildDiedError`` naming its signal
    or exit status, and no call runs again. ``close``, or leaving a ``with``
    block, kills and reaps the child."""

    def __init__(self, fn):
        self.fn, self.args = fn, None
        self.child = _fork(fn) if may_fork() else None  # (pid, call fd, result file)

    def submit(self, *args) -> None:
        self.args = args
        if self.child is not None:
            data = memoryview(pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL))
            try:
                while data:
                    data = data[os.write(self.child[1], data):]
            except BrokenPipeError:  # the child is gone: collect() says how
                pass

    def collect(self):
        if self.child is None:
            return self.fn(*self.args)
        try:
            value, error = pickle.load(self.child[2])
        except (EOFError, pickle.UnpicklingError):  # the child sent nothing
            pid, code = self.child[0], self.close()
            how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                   else f"exited with status {code}")
            raise ChildDiedError(f"forked child {pid} {how} before it sent a result") from None
        if error is not None:
            raise error
        return value

    def close(self) -> int:
        """Kill and reap the child, once; its exit code (0 without a child)."""
        if self.child is None:
            return 0
        (pid, calls, results), self.child = self.child, None
        os.close(calls)
        results.close()
        os.kill(pid, signal.SIGKILL)  # a child that ended keeps its status until reaped
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _fork(fn):
    """``(pid, call pipe's fd, result pipe)`` of a forked child that runs ``fn``
    on each argument tuple pickled into the call pipe, sends each value or
    exception pickled through the result pipe, leaves through ``os._exit``
    and dies with this process (``_die_with``); None when the fork fails."""
    parent = os.getpid()
    (call_r, call_w), (result_r, result_w) = os.pipe(), os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        pid = None
    if pid == 0:  # the child: serves until it is killed, and exits here whatever happens
        try:
            _die_with(parent)
            os.close(call_w)
            os.close(result_r)
            with open(call_r, "rb") as calls, open(result_w, "wb") as out:
                while True:
                    args = pickle.load(calls)  # EOFError once the call pipe closes
                    try:
                        sent = (fn(*args), None)
                    except Exception as exc:
                        sent = (None, exc)
                    pickle.dump(sent, out, protocol=pickle.HIGHEST_PROTOCOL)
                    out.flush()
        finally:
            os._exit(1)
    for fd in (call_r, result_w) if pid else (call_r, result_w, call_w, result_r):
        os.close(fd)
    return pid and (pid, call_w, open(result_r, "rb"))


def _die_with(parent: int) -> None:
    """Have the kernel SIGKILL this child when its parent dies (Linux
    ``prctl(PR_SET_PDEATHSIG)``), so a parent killed from outside leaves no
    child running; leave at once if ``parent`` died before that took hold."""
    try:
        import ctypes  # here, not at the top: only a child pays for the import

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG
    except (ImportError, OSError, AttributeError):  # no prctl: not Linux
        pass
    if os.getppid() != parent:
        os._exit(1)
