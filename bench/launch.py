"""Run one command; write its exit code, wall time and peak RSS as JSON.

    python3 -S bench/launch.py REPORT.json ARGV...

A process's peak RSS from wait4 starts from the resident memory of the
process it was spawned from, so a command spawned straight from the
benchmark (which holds numpy and checked outputs) would report at least the
benchmark's own peak. Spawned from this small interpreter instead, the
command's peak RSS is its own, above a floor of this interpreter's few MB.
"""

import json
import os
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    doc = {"code": os.waitstatus_to_exitcode(status), "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
    with open(report, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
