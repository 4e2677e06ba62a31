"""Process launcher for the cli workload: one JSON request per line on stdin.

Request:  {"argv": [...], "cwd": dir, "stdout": path, "stderr": path, "timeout": s}
Response: {"returncode": rc, "maxrss_kib": peak RSS of that child}

Linux records a process's peak RSS across exec, so a child forked from
the benchmark (numpy, afga and the inputs loaded) would report the
benchmark's own size.  Forked from this small process instead, a child's
peak is its own.  Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"returncode": proc.returncode, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
