"""Set-up probe: import the package and build one workload's inputs, then exit.

``run.py`` times this script from spawn to exit in a fresh interpreter to
measure ``setup_s``.  Usage: ``python3 perfbench/probe.py WORKLOAD SEED``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    build, _ = workloads.WORKLOADS[sys.argv[1]]
    build(int(sys.argv[2]))
