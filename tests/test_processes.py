"""The kill tests' exit probe must see through unreaped zombies."""

import os
import subprocess
import sys

import pytest

from tests.processes import exited, wait_for_exit


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_unreaped_zombie_counts_as_exited():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    try:
        assert wait_for_exit(child.pid)
        # Not reaped yet: the signal-0 probe still reports it alive.
        os.kill(child.pid, 0)
    finally:
        child.wait()


def test_live_process_is_not_exited():
    assert not exited(os.getpid())
    assert not wait_for_exit(os.getpid(), timeout=0.05)
