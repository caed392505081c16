"""Process set-up shared by every benchmark entry point.

Import this module, and call ``prepare()``, before anything imports numpy:
it pins BLAS to one thread and puts the checkout's ``src`` first on the
import path, so the benchmark always measures the code next to it and never
an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin BLAS to one thread and import pipetune from this checkout.

    Exits with status 2 when the checkout has no ``src/pipetune``: a
    benchmark that silently measured some other copy would be worse than
    none.
    """
    for var in _BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC_DIR / "pipetune" / "__init__.py").is_file():
        print(f"perfbench: no pipetune sources under {SRC_DIR}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import pipetune

    if Path(pipetune.__file__).resolve().parent != SRC_DIR / "pipetune":
        print(f"perfbench: imported pipetune from {pipetune.__file__}", file=sys.stderr)
        raise SystemExit(2)
