"""Set-up probe: one fresh process that builds a workload and stops at the
first simulated event.

Prints the system-wide monotonic clock at the moment the engine starts
running, so the parent can subtract the time it launched this process.
Usage: ``python3 perfbench/probe.py <workload> <seed>``.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import cells  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    from repro.sim import engine

    def first_event(self, until=None):
        print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)
        os._exit(0)

    engine.Environment.run = first_event
    cells.run_cell(workload, seed)
    sys.exit("the workload finished without running its simulation")


if __name__ == "__main__":
    main()
