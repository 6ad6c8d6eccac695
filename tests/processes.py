"""Process helpers shared by the worker-kill tests."""

from __future__ import annotations

import os
import time


def exited(pid: int) -> bool:
    """True once ``pid`` has exited, including as an unreaped zombie.

    ``os.kill(pid, 0)`` succeeds on a zombie, so a SIGKILLed worker that
    its parent has not reaped yet would look alive.  Where ``/proc`` is
    available the process state is read instead (``Z`` counts as
    exited); elsewhere the ``os.kill`` probe is the fallback.
    """
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        if os.path.isdir("/proc/self"):
            return True  # /proc works and the pid is gone
    except OSError:
        pass
    else:
        # The command name may contain spaces or parentheses; the state
        # is the first field after its closing parenthesis.
        return stat[stat.rindex(")") + 2] in "ZX"
    try:
        os.kill(pid, 0)
    except OSError:
        return True
    return False


def wait_for_exit(pid: int, timeout: float = 10.0) -> bool:
    """Poll until ``pid`` has exited; False when ``timeout`` ran out."""
    deadline = time.monotonic() + timeout
    while not exited(pid):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True
