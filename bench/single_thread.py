"""Pin the BLAS and OpenMP pools to one thread.

Import this module before numpy: the pools read these variables once, when
numpy loads. The benchmark's scripts import it first, so timed runs and
recorded references use the same single-threaded summation order.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

for _var in THREAD_VARS:
    os.environ[_var] = "1"
