"""Start benchmark jobs from a small process and report what each one used.

    python -I -S launcher.py

Reads one JSON request per line on standard input, {"cmd", "env", "cwd",
"out", "err", "timeout"}, runs the command to its end with stdout and stderr
sent to the named files, and answers with one JSON line {"seconds", "rss_kb",
"status"}.  It exits when its input closes.

The kernel's peak resident set of a reaped child counts the memory of the
process it was forked from, so jobs are forked from this process, which
stays far smaller than any psodkit run, rather than from the harness, which
holds the workload's documents.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rss_kb": usage.ru_maxrss, "status": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
