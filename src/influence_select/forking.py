"""One function run in a forked child while this process works on: the
token parse (``corpus.load_tokens``) and ``report``'s baseline trainings.
A child computes what this process would, so only the time differs."""

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
    """``fn()`` started in a forked child, which sends its value back
    pickled through a pipe and always leaves through ``os._exit``: a child
    whose ``fn`` raises sends nothing.

    ``result()`` returns the child's value, or runs ``fn()`` in this process
    when the fork failed or the child sent nothing, so an error is raised
    here as a serial run raises it. ``close()`` kills and reaps the child;
    call it on every path, once the value is read or no longer needed.
    """

    def __init__(self, fn):
        self._fn = fn
        self._pid = 0
        self._pipe = None
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
                os.close(r)
                value = fn()
                with open(w, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        self._pipe = open(r, "rb")

    def result(self):
        if self._pipe is not None:
            try:
                return pickle.load(self._pipe)
            except (EOFError, pickle.UnpicklingError):  # the child failed
                pass
        return self._fn()

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self._pid:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0
