"""Run the suite with the BLAS thread pools the console script uses.

pytest loads this file before any test module imports numpy, so the pools
are pinned to KDM_THREADS (default 1) for the whole run, as in ``kdm``.
"""

from kdm._entry import pin_blas_threads

pin_blas_threads()
