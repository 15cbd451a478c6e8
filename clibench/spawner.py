"""Starts the benchmark's child processes on behalf of run.py.

    python3 spawner.py   (requests on stdin, replies on stdout, one JSON line each)

A request is {"argv", "stdout", "stderr", "timeout"}; the reply is
{"code", "wall", "rss_kib"}: exit code, wall seconds from start to end, and
the child's max RSS in KiB from its rusage.  Linux carries the parent's RSS
high-water mark into a forked child's ru_maxrss, so children are started from
this small process rather than from run.py, whose numpy arrays would
otherwise be counted as the child's memory.  It imports nothing heavy and
exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv, stdout, stderr, timeout):
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "rss_kib": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["argv"], req["stdout"], req["stderr"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
