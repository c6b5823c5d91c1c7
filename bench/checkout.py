"""The checkout the benchmark measures, and the process it runs in.

The benchmark always measures the tree it sits in, never an installed
copy: ``require_sparserec`` puts ``<root>/src`` first on ``sys.path`` and
refuses to continue when the sources are missing or the import resolves
somewhere else.  ``pin_threads`` holds the BLAS and OpenMP pools to one
thread; it must run before numpy is imported.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "sparserec"
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> None:
    for var in PINNED_THREADS:
        os.environ[var] = "1"


def require_sparserec():
    """Import sparserec from ``<root>/src``; exit with an error otherwise."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"bench: no sparserec sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparserec

    if Path(sparserec.__file__).resolve().parent != PACKAGE:
        raise SystemExit(
            f"bench: sparserec was imported from {sparserec.__file__}, not {PACKAGE}")
    return sparserec
