"""Run a command and print its wall time and peak resident set size:

    python3 .github/measured.py NAME COMMAND...

The peak is ru_maxrss of the command's largest waited-for process (the
Python process under `timeout`). The line goes to stderr, so a caller's
stdout redirect leaves it in the log; the exit status is the command's."""

import resource
import subprocess
import sys
import time

name, command = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
code = subprocess.call(command)
wall = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(f"{name}: wall time {wall:.2f} s, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
sys.exit(code)
