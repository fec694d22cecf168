"""Child-process launcher for the benchmark.

Linux carries a parent's high-water RSS into a child: at exec the child's
``ru_maxrss`` starts from the peak of the memory image it replaces.  The
benchmark's own process holds generated inputs and scipy, so its children
would report that peak as theirs.  This launcher is a fresh, small process
that starts every measured child instead, so each child's ``ru_maxrss``
from ``os.wait4`` is its own.

Protocol: one JSON request per line on stdin,
``{"argvs": [[...], ...], "cwd": DIR, "env": {...}, "log": FILE}``; the
commands run in sequence with stdout and stderr appended to FILE, and one
JSON line comes back on stdout:
``{"wall": s, "cpu": s, "rss_mb": MB, "codes": [exit codes]}`` where wall
spans all the commands, cpu is their sum and rss_mb their maximum.  The
launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run(request: dict) -> dict:
    cpu, rss, codes = 0.0, 0.0, []
    with open(request["log"], "ab") as log:
        start = time.perf_counter()
        for argv in request["argvs"]:
            proc = subprocess.Popen(argv, cwd=request["cwd"], env=request["env"],
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024.0)
            codes.append(proc.returncode)
        wall = time.perf_counter() - start
    return {"wall": wall, "cpu": cpu, "rss_mb": rss, "codes": codes}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
