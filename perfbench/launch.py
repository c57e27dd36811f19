"""Run commands on request; report each one's exit code, wall time and peak RSS.

Reads one JSON request per line on stdin ({"argv", "env", "cwd", "log"})
and answers one JSON line per request on stdout ({"code", "s", "rss_mb"}).

A child's ``ru_maxrss`` starts from its parent's peak, because the kernel
carries the forking process's high-water mark across fork and exec.  The
benchmark process holds numpy, scipy and pnrtiming, so it starts the CLI
commands through this small stdlib-only process instead, and the figure
``os.wait4`` returns is then the command's own.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        start = time.perf_counter()
        with open(req["log"], "wb") as log:
            proc = subprocess.Popen(req["argv"], stdout=log, stderr=subprocess.STDOUT, env=req["env"], cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "s": time.perf_counter() - start, "rss_mb": usage.ru_maxrss / 1024.0}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
