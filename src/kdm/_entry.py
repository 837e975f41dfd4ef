"""Console entry point.

BLAS thread pools must be pinned through environment variables before numpy
first loads, which is why the package __init__ re-exports lazily and this
module touches the environment before importing anything numeric.  Every
pool is pinned to one thread, so that BLAS threads do not compete for the
cores with the workers that KDM_THREADS sets, which form the parts of a
large panel side by side (see ``kdm.lowrank.worker_count``); the parts are
fixed by the data's size, so that setting affects speed only, never
results.
"""

import os


def pin_blas_threads() -> None:
    """Pin every BLAS thread pool to one thread, whatever KDM_THREADS says.

    Only takes effect before numpy first loads; a pool variable the
    environment already sets is left as it is.
    """
    for var in (
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "OMP_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(var, "1")


def main() -> int:
    pin_blas_threads()
    from .cli import main as cli_main

    return cli_main()
