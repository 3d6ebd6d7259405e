"""Starts the benchmark's measured processes from a small process.

    python -I -S launcher.py      (started by run.py, with cwd at the checkout root)

The kernel reports a child's peak RSS (``ru_maxrss``) as at least the RSS
of the process that forked it, so children of the benchmark itself would
all report the benchmark's own size.  This process stays near 10 MB,
below any ffcn process.  It reads one JSON request per line on stdin,
``{"argv", "env", "stdout", "stderr"}``, starts ``argv`` in a new session
with those output files and stdin from /dev/null, and writes two lines:
the child's pid, then ``{"wall_s", "cpu_s", "maxrss_kb", "status"}`` from
``wait4`` once it has ended.  Exits at end of input.
"""

import json
import os
import sys
import time


def main():
    out = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, req["stdout"], out, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["stderr"], out, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"],
                             file_actions=actions, setsid=True)
        print(pid, flush=True)
        _, status, ru = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        print(json.dumps({"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
                          "maxrss_kb": ru.ru_maxrss, "status": status}), flush=True)


if __name__ == "__main__":
    main()
