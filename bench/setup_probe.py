"""Time one fresh set-up of a workload: package import plus code construction.

Usage: python3 bench/setup_probe.py WORKLOAD
Prints the elapsed seconds on stdout. run.py starts several of these and
reports their median as setup_s.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import workloads  # imports erasurelab

    workloads.WORKLOADS[sys.argv[1]].build()
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
