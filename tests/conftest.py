"""Run the suite with single-threaded BLAS and OpenMP, as the benchmark does.

The solver makes no BLAS call, but other code does: cumulants._powers
builds its power table by matrix products, and OpenBLAS may split such a
product across its threads, where a split rounds differently.  So pinned
digests outside the solver could depend on the BLAS thread count.  The
variables are read when numpy first loads, so they are set here, before
any test module imports it.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
