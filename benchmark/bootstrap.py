"""Process set-up shared by the benchmark's entry points.

Import this before numpy: it pins the BLAS thread count, then puts the
checkout's own ``src`` first on the import path and refuses to run
against any other copy of firescout.
"""

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".benchmark_out")


def require_package() -> None:
    """Exit with status 2 unless firescout is importable from ROOT/src."""
    init = os.path.join(SRC, "firescout", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no firescout package at {init}", file=sys.stderr)
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import firescout
    if os.path.dirname(os.path.abspath(firescout.__file__)) != os.path.dirname(init):
        print(f"error: firescout imported from {firescout.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)
