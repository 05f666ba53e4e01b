"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing ``monodroma`` from the checkout's ``src`` and
generating the workload's inputs from its seed.  ``run.py`` starts this
script several times and reports the median as ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed> <tiny: 0|1>
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import monodroma  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3] == "1")
print(time.perf_counter() - start)
