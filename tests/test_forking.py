import os
import signal
import subprocess
import sys
import time

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# starts a sleeping child, prints its pid, then dies as the OOM killer or a
# deadline would kill it: by SIGKILL, with no chance to close the child
_KILLED_PARENT = """
import os, signal, time
from influence_select import forking
child = forking.Forked(lambda: time.sleep(60))
print(child._pid, flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process: not gone, and not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux-only")
def test_a_forked_child_dies_with_its_killed_parent():
    # the child holds the parent's stdout open, so read its one line, not to EOF
    proc = subprocess.Popen([sys.executable, "-c", _KILLED_PARENT],
                            env=dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src")),
                            stdout=subprocess.PIPE, text=True)
    with proc:
        pid = int(proc.stdout.readline())
        assert proc.wait(30) == -signal.SIGKILL
    try:
        deadline = time.monotonic() + 2.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)
