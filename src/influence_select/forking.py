"""``run_all``, the one way the program forks: jobs run in forked children
while this process runs the first. ``score`` and ``select`` run their
influence setup while they read their inputs, and ``report`` trains two
baselines while it trains the third. A child computes what this process
would, so only the time differs."""

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
    ``jobs[1:]`` runs in a forked child while this process runs ``jobs[0]``;
    the child sends back its job's value or exception, and the first error
    in list order, the serial order, is raised. A job whose fork fails runs
    here, in its turn. A child that ends without sending anything (the OOM
    killer, say) raises ``ChildDiedError`` naming its signal or exit status,
    and its job is not run again: it may have read a pipe. Every child is
    killed and reaped before this returns or raises."""
    # job index -> (pid, read end) of its child; None once reaped, or if the fork failed
    children = {i: _fork(jobs[i]) for i in range(1, len(jobs))} if may_fork() else {}
    try:
        results = []
        for i, job in enumerate(jobs):
            if children.get(i) is None:
                results.append(job())
                continue
            pid, pipe = children[i]
            try:
                value, error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child sent nothing
                pipe.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                children[i] = None
                how = (f"was killed by signal {-code} ({signal.strsignal(-code)})" if code < 0
                       else f"exited with status {code}")
                raise ChildDiedError(f"forked child {pid} {how} before it sent a result") from None
            if error is not None:
                raise error
            results.append(value)
        return results
    finally:
        for pid, pipe in filter(None, children.values()):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(job):
    """``(pid, read end of a pipe)`` of a forked child that runs ``job()``,
    sends its value or exception pickled through the pipe, leaves through
    ``os._exit`` and dies with this process (``_die_with``); None when the
    fork fails."""
    parent = os.getpid()
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(r)
        os.close(w)
        return None
    if pid == 0:  # the child: exits here, whatever happens
        code = 1
        try:
            _die_with(parent)
            os.close(r)
            try:
                sent = (job(), None)
            except Exception as exc:
                sent = (None, exc)
            with open(w, "wb") as fh:
                pickle.dump(sent, fh, protocol=pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


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
