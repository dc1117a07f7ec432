"""Launch `hdsim` the way its console script does, stamping when set-up ends.

Usage: python3 perfbench/shim.py STAMP_FILE [hdsim arguments...]

Writes `time.monotonic()` to STAMP_FILE once `homodyne_feedback.cli` is
imported, then runs `cli.main` on the remaining arguments and exits with its
code.  With no hdsim arguments it only imports, which is how the benchmark
samples set-up time on its own.  CLOCK_MONOTONIC is system-wide on Linux, so
the parent can subtract its own launch time from the stamp.
"""

import sys
import time

import homodyne_feedback.cli as cli

stamp = time.monotonic()
with open(sys.argv[1], "w") as fh:
    fh.write(repr(stamp))
if len(sys.argv) > 2:
    sys.exit(cli.main(sys.argv[2:]))
