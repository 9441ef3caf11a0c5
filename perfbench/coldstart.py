"""Set-up as a fresh interpreter pays it: import the package from ./src and
generate one workload's inputs, then print one line and exit.

    python3 perfbench/coldstart.py <workload> <seed>

``run.py`` times this from process start to the printed line.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import lastzero  # noqa: E402
import lastzero.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
