"""Set-up step of one benchmark run, timed from outside as ``setup_s``.

    python3 perfbench/setup_inputs.py <workload> <seed> <out_dir>

Imports simbound and writes every input the workload needs into out_dir.
It runs in a fresh interpreter each time, so the import cost is paid in full.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import simbound  # noqa: E402,F401  (importing simbound is part of set-up)
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1:]
    workloads.write_inputs(workload, int(seed), out_dir)
