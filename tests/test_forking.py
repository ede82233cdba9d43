import os
import signal
import subprocess
import sys
import time

import pytest

from influence_select import forking
from influence_select.errors import ChildDiedError

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# runs two jobs, forking the second whatever the CPU count: the child prints
# its pid and sleeps, this process sleeps until it is killed from outside
_TWO_SLEEPING_JOBS = """
import os, time
from influence_select import forking
forking.may_fork = lambda: True
forking.run_all([lambda: time.sleep(60), lambda: (print(os.getpid(), flush=True), time.sleep(60))])
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process: not gone, and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def forks(monkeypatch):
    """``forking.run_all`` forks whatever the CPU count; afterwards no child is left."""
    monkeypatch.setattr(forking, "may_fork", lambda: True)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux-only")
def test_a_forked_child_dies_with_its_killed_parent():
    # killed as the OOM killer or a deadline would kill it: by SIGKILL, with
    # no chance to reap its child. The child holds the parent's stdout open,
    # so read its one line, not to EOF
    proc = subprocess.Popen([sys.executable, "-c", _TWO_SLEEPING_JOBS],
                            env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
                            stdout=subprocess.PIPE, text=True)
    with proc:
        pid = int(proc.stdout.readline())
        proc.kill()
        assert proc.wait(30) == -signal.SIGKILL
    try:
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


def test_a_killed_child_is_an_error_naming_its_signal(forks):
    ran_here = []
    with pytest.raises(ChildDiedError, match=r"^forked child \d+ was killed by signal 9 "):
        forking.run_all([lambda: ran_here.append(0),
                         lambda: os.kill(os.getpid(), signal.SIGKILL),
                         lambda: ran_here.append(2)])
    assert ran_here == [0]


def test_the_first_error_in_list_order_is_raised(forks):
    def fail(name):
        raise ValueError(name)

    here, there, last = forking.run_all([os.getpid, os.getpid, lambda: 3])
    assert here == os.getpid() != there and last == 3
    with pytest.raises(ValueError, match="^first$"):
        forking.run_all([lambda: 0, lambda: fail("first"), lambda: fail("second")])
    with pytest.raises(ValueError, match="^here$"):
        forking.run_all([lambda: fail("here"), lambda: fail("child")])
