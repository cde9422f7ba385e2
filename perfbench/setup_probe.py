"""Time one cold set-up: import ``repro`` and construct a workload's Cluster.

Run by ``run.py`` in a fresh interpreter per sample, so every sample pays
the imports a user pays; interpreter start-up is outside the timing.
Prints the set-up time in reference-speed seconds (see ``calibrate.py``)
as its only output line.

    python3 perfbench/setup_probe.py WORKLOAD REP_SEED
"""

import importlib
import sys
from pathlib import Path

from calibrate import HostClock


def main() -> None:
    workload, rep_seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    clock = HostClock()
    clock.measure(lambda: importlib.import_module("workloads")
                  .WORKLOADS[workload].build(rep_seed, False))
    print(clock.seconds)


if __name__ == "__main__":
    main()
