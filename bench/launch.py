"""Run one command; print its wall time, exit code and own peak RSS as JSON.

Usage: python3 bench/launch.py STDOUT_FILE STDERR_FILE TIMEOUT_S ARGV...

Linux charges a child with the peak RSS of the process that forked it, so
the benchmark starts each timed command from this small process rather than
from itself: it holds numpy and the workload's arrays. Only the standard
library is imported here.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv):
    stdout_path, stderr_path, timeout = argv[0], argv[1], float(argv[2])
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv[3:], stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({"wall_s": wall, "exit": proc.returncode, "peak_rss_kb": usage.ru_maxrss},
              sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
