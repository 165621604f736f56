"""Starts and waits for every measured child process of the benchmark.

Linux carries the resident-set high-water mark of the process that
forks a child into that child's ru_maxrss.  A child forked by run.py,
which holds numpy and parsed outputs, would therefore report at least
run.py's own size.  This process imports only the standard library, so
the floor it leaves in its children's peak RSS is its own ~10 MB.

Protocol: one JSON request per line on stdin, {"argv", "cwd", "env",
"cpu"}; one JSON reply per line on stdout, {"wall_s", "cpu_s",
"peak_rss_mb", "code"}.  The child starts on the requested CPU and may
use every CPU after that.  Its stderr goes to cwd/stderr.txt.  A child
still running after TIMEOUT_S is killed.  Exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 160.0
ALL_CPUS = os.sched_getaffinity(0)


def run(argv: list[str], cwd: str, env: dict[str, str], cpu: int) -> dict:
    # a child is forked on its parent's CPU; then it is free to move, but
    # a lone busy process on an idle machine mostly stays where it started
    os.sched_setaffinity(0, {cpu})
    with open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            os.sched_setaffinity(proc.pid, ALL_CPUS)
        except ProcessLookupError:  # already ended
            pass
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
