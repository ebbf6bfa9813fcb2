"""Starts the benchmark's steps and measures them, one at a time.

Linux charges a child's ru_maxrss with the resident set of the process that
spawned it, so the runner, whose resident set grows with its output checks,
does not spawn steps itself: this small process does. One JSON request per
stdin line, {"argv", "cwd", "env", "stdout", "stderr", "timeout"}; one JSON
reply per stdout line with the exit status, the child's CPU time and peak
resident set, and CLOCK_MONOTONIC stamps of spawn and reap. A step still
running after its timeout is killed.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    timer = threading.Timer(req["timeout"], _kill, (pidfd,))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            _kill(pidfd)
            proc.wait()
        os.close(pidfd)
    return {
        "rc": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "spawned": spawned,
        "reaped": reaped,
    }


def main() -> int:
    # On SIGTERM, unwind so that a running step is killed and reaped first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
