#!/usr/bin/env python3
"""Build esm_syncd and the benchmark client from source, then run one
benchmark run.

    python3 perfbench/run.py --workload grow|edit|read --seed N \
        --seconds S --trace 0|1

Run it from the root of the repository.  The build output goes to
dune's _build/; dune's own messages go to standard error, so the last
line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/esm_syncd.ml")):
        sys.stderr.write("perfbench: run from the repository root (dune-project and bin/esm_syncd.ml not found)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/esm_syncd.exe", "./perfbench/esmbench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join("_build", "default", "perfbench", "esmbench.exe")
    # Pin the client, and the server it spawns, to one CPU.  Each request
    # then hands over to the other process on the same CPU instead of
    # waking a second, idle one; on a virtual machine that wake-up is a
    # trip through the host's scheduler and swings with the host's load.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        sys.stderr.write("perfbench: running unpinned (%s)\n" % e)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
