"""Process set-up shared by the benchmark scripts; import it before numpy.

Pins BLAS to one thread and puts the checkout's `src/` first on the import
path, so the benchmark measures the source tree it sits in and never an
installed copy. One BLAS thread is the steadier and, for this solver's
N x c products, the faster setting: a 10-sweep N=1000 fit took 3.6-3.9 s
with one OpenBLAS thread and 4.1 s with two on a 2-CPU VM.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Work and record files; listed in the repository's .gitignore.
WORK = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

NPROC = len(os.sched_getaffinity(0))
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, SRC)
try:
    import mvufs
except ImportError as exc:
    sys.exit(f"perfbench: cannot import mvufs from {SRC}: {exc}")
if not os.path.abspath(mvufs.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: mvufs resolved to {mvufs.__file__}, not under {SRC}")
