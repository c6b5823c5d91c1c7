"""Build one workload's system in a fresh interpreter and print the time.

Usage: python3 bench/cold_setup.py WORKLOAD

Only ``TopLevelSystem(config, seed)`` is timed.  A fresh process starts
with every process-level cache empty (for example the GF(2^w) log/exp
tables), as it does for a command-line user, so the figure is a cold
set-up.  The last line of standard output is the time in seconds.
"""

from __future__ import annotations

import sys
import time

from checkout import require_sparserec


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    require_sparserec()
    from sparserec import TopLevelConfig, TopLevelSystem
    from workloads import SYSTEM_SEED, find

    config = TopLevelConfig(**find(argv[1]).config_kwargs())
    t0 = time.perf_counter()
    TopLevelSystem(config, SYSTEM_SEED)
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
