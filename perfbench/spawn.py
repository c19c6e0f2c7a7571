"""Run one command and write its wall time, peak RSS and exit status as JSON.

    python3 -S perfbench/spawn.py RESULT.json TIMEOUT_S PROGRAM [ARG ...]

Linux charges a child, in ru_maxrss, with the resident size of the process
that started it. The benchmark process holds a parsed panel and numpy, so
it starts each measured program through this small interpreter instead,
whose own footprint is far below any leadalloc run's. PROGRAM must be a
path; it is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_path, timeout_s, program = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawn(program[0], program, os.environ)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout_s)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    signal.alarm(0)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "seconds": seconds,
                "maxrss_kb": usage.ru_maxrss,
                "exit_code": os.waitstatus_to_exitcode(status),
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
