"""One set-up of a workload, as a user pays it, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the package (and numpy with it), resolves the workload's population
source and validates its parameters, then prints ``ready``. `run.py` times
from starting this process to reading that line. The workload's input
files must already exist.
"""

import sys

import env

env.use_checkout_source()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), env.OUT).setup()
print("ready", flush=True)
