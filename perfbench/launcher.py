"""Starts the benchmark's commands from a small, stdlib-only process.

A child's ``ru_maxrss`` includes the resident-set high-water mark of the
process it was spawned from, because Linux keeps that mark across exec.  The
benchmark process holds the oracle's arrays, so spawning the CLI from it
would inflate ``peak_rss_mb``; spawning from this process adds only its own
few MB.

Protocol: one JSON request per stdin line, ``{"argv", "cwd", "stdout",
"stderr", "timeout"}``; one JSON reply per stdout line, ``{"start", "end",
"rc", "maxrss_kb"}``, the times read from ``time.perf_counter`` (the
system-wide monotonic clock) just before the spawn and after the reap.  A command still running after ``timeout`` seconds is
killed.  The process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"start": start, "end": end, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
