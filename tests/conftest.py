"""Run the suite with single-threaded BLAS and OpenMP, as the benchmark does.

OpenBLAS splits the columns of a matrix-vector product across its threads,
and a split column rounds differently, so pinned solver digests depend on
the BLAS thread count.  The variables are read when numpy first loads, so
they are set here, before any test module imports it.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
