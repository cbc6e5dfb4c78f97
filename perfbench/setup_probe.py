"""Set-up time of a fresh interpreter: ``import egl`` plus building the
workload's models.  Prints the time it took in reference seconds (see
``calibrate.py``).  The slowdown is measured right after the timed part:
the reference loop needs numpy, whose import belongs to the set-up.

Usage: python3 setup_probe.py <src-dir> <workload>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import egl  # noqa: E402,F401  (the import is part of set-up)
from egl import registry  # noqa: E402

from configs import SETUP_MODELS  # noqa: E402

for name, dim, k in SETUP_MODELS[sys.argv[2]]:
    registry.build_model(name, dim, k)
elapsed = time.perf_counter() - start

from calibrate import slowdown  # noqa: E402

slowdown()                      # the loop's own first run is cold
print(f"{elapsed / slowdown():.9f}")
