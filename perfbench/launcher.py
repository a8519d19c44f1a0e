"""Client of the predict_cold workload: runs requests one at a time.

Reads a JSON list of argument lists on standard input and runs each as a
subprocess, waiting for it to end before starting the next (a closed loop
with one client). Writes one JSON line per request (start and end on the
monotonic clock, exit code, standard output), then one line with the
largest resident set of any request.

It imports nothing beyond the standard library. A forked child starts out
counting its parent's resident pages, so the requests are started from this
small process rather than from the benchmark, whose models would otherwise
show up in the requests' peak memory.
"""
import json
import resource
import subprocess
import sys
import time


def main() -> int:
    for argv in json.load(sys.stdin):
        start = time.perf_counter_ns()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        end = time.perf_counter_ns()
        print(json.dumps({"start_ns": start, "end_ns": end, "returncode": proc.returncode, "stdout": proc.stdout}))
    print(json.dumps({"peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
