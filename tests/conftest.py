"""Run the suite with the BLAS thread pools the console script uses.

pytest loads this file before any test module imports numpy, so every BLAS
pool is pinned to one thread for the whole run, as in ``kdm``.  The parts of
large decomposition panels run on KDM_THREADS workers (by default two, or
one on a single CPU); tests that compare worker counts set it themselves.
"""

from kdm._entry import pin_blas_threads

pin_blas_threads()
