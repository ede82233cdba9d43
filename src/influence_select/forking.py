"""One function run in a forked child while this process works on. It has
two users: the influence setup of ``score`` and ``select``, which runs while
they read their inputs (``cli._scoring_setup``), and ``report``'s baseline
trainings. A child computes what this process would, so only the time differs."""

from __future__ import annotations

import os
import pickle
import signal
import threading


def may_fork() -> bool:
    """Whether a forked child can run beside this process: ``os.fork``
    exists, this process may run on 2+ CPUs, and it runs no other Python
    thread (a fork copies only the calling thread, and a lock another thread
    holds would stay held in the child)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return hasattr(os, "fork") and (cpus or 1) > 1 and threading.active_count() == 1


class Forked:
    """``fn()`` run in a forked child that sends back, pickled through a
    pipe, its value or the exception ``fn`` raised, leaves through
    ``os._exit``, and dies with this process (``_die_with``).

    ``result()`` returns that value or raises that exception, as a serial
    run would (a rerun here could not read again a pipe that ``fn`` read);
    when the fork failed or the child sent nothing, it runs ``fn()`` here.
    ``close()`` kills and reaps the child; call it on every path.
    """

    def __init__(self, fn):
        self._fn = fn
        self._pid = 0
        self._pipe = None
        parent = os.getpid()
        r, w = os.pipe()
        try:
            self._pid = os.fork()
        except OSError:  # no process to spare
            os.close(r)
            os.close(w)
            return
        if self._pid == 0:  # the child: exits here, whatever happens
            code = 1
            try:
                _die_with(parent)
                os.close(r)
                try:
                    sent = (fn(), None)
                except Exception as exc:
                    sent = (None, exc)
                with open(w, "wb") as fh:
                    pickle.dump(sent, fh, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._pipe = open(r, "rb")

    def result(self):
        if self._pipe is not None:
            try:
                value, error = pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):  # the child sent nothing
                pass
            else:
                if error is not None:
                    raise error
                return value
        return self._fn()

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0


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
