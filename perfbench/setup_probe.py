"""Set-up probe: a fresh interpreter imports scenerywalk and makes one warm-up call.

Usage: ``python3 perfbench/setup_probe.py <workload>`` with ``src`` on
PYTHONPATH.  run.py times the whole process as the workload's ``setup_s``.
"""

import sys

import scenerywalk  # noqa: F401  the import is part of what is timed
import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].warm_up()
