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


def _fail(message):
    raise KeyError(message)


def test_a_served_child_answers_calls_in_turn(forks):
    here = os.getpid()
    with forking.Served(lambda *args: (os.getpid(), args)) as served:
        answers = []
        for args in [(1,), ("two", [3]), ()]:
            served.submit(*args)
            answers.append(served.collect())
    assert [args for _, args in answers] == [(1,), ("two", [3]), ()]
    assert len({pid for pid, _ in answers}) == 1 and answers[0][0] != here


def test_a_served_call_raises_its_error_and_the_child_serves_on(forks):
    with forking.Served(lambda f, *args: f(*args)) as served:
        served.submit(_fail, "no such key")
        with pytest.raises(KeyError, match="no such key"):
            served.collect()
        served.submit(os.getpid)
        assert served.collect() != os.getpid()


@pytest.mark.parametrize("case", ["one CPU", "fork fails"])
def test_a_served_call_runs_here_without_a_child(monkeypatch, case):
    """Without a child, a call runs in this process when it is collected."""
    ran = []
    if case == "one CPU":
        monkeypatch.setattr(forking, "may_fork", lambda: False)
    else:
        monkeypatch.setattr(forking, "may_fork", lambda: True)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    with forking.Served(lambda x: ran.append((os.getpid(), x)) or x * 2) as served:
        served.submit(21)
        assert ran == []
        assert served.collect() == 42
        served.submit(1)
        with pytest.raises(TypeError):
            served.collect() + "s"
    assert ran == [(os.getpid(), 21), (os.getpid(), 1)]


def test_a_killed_served_child_is_an_error(forks):
    """A child killed between calls raises ChildDiedError at the next
    collect, whether the submit reached it or not; no call runs here."""
    ran = []
    with forking.Served(lambda: ran.append(os.getpid()) or os.getpid()) as served:
        served.submit()
        pid = served.collect()
        os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)  # let it die first, so the submit meets a closed pipe
        served.submit()
        with pytest.raises(ChildDiedError, match=rf"^forked child {pid} was killed by signal 9 "):
            served.collect()
    assert ran == []
